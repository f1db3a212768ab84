//! Simulated time.
//!
//! All simulation time is expressed in whole seconds since the start of the
//! trace. We deliberately use integer seconds (not floating point) so that
//! event ordering is exact and simulations are reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in seconds since trace start.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in seconds.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl SimTime {
    /// The zero point of simulated time (trace start).
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since trace start.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Fractional hours since trace start.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Fractional days since trace start.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// Elapsed duration since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Duration {
        Duration(secs)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Duration {
        Duration(mins * 60)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Duration {
        Duration(hours * 3600)
    }

    /// Construct from whole days.
    #[inline]
    pub fn from_days(days: u64) -> Duration {
        Duration(days * 86_400)
    }

    /// Construct from fractional hours, rounding to the nearest second.
    ///
    /// Negative and non-finite inputs are clamped to zero.
    #[inline]
    pub fn from_hours_f64(hours: f64) -> Duration {
        if !hours.is_finite() || hours <= 0.0 {
            return Duration::ZERO;
        }
        Duration((hours * 3600.0).round().min(u64::MAX as f64) as u64)
    }

    /// Construct from fractional seconds, rounding to the nearest second.
    ///
    /// Negative and non-finite inputs are clamped to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Duration {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        Duration(secs.round().min(u64::MAX as f64) as u64)
    }

    /// Length in whole seconds.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// Length in fractional days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// True if this is the zero-length duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// `log10` of the duration in seconds, with a floor of one second so
    /// that the result is always finite and non-negative.
    ///
    /// The paper operates on lifetimes in the log10 domain (Appendix B).
    #[inline]
    pub fn log10_secs(self) -> f64 {
        (self.0.max(1) as f64).log10()
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Difference between two instants, saturating at zero.
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    /// Saturating difference of two durations.
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0;
        if secs < 60 {
            write!(f, "{secs}s")
        } else if secs < 3600 {
            write!(f, "{:.1}m", secs as f64 / 60.0)
        } else if secs < 86_400 {
            write!(f, "{:.1}h", secs as f64 / 3600.0)
        } else {
            write!(f, "{:.1}d", secs as f64 / 86_400.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_add_duration() {
        let t = SimTime(100) + Duration::from_secs(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn simtime_sub_is_saturating() {
        assert_eq!(SimTime(10) - SimTime(30), Duration::ZERO);
        assert_eq!(SimTime(30) - SimTime(10), Duration(20));
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::from_mins(2), Duration(120));
        assert_eq!(Duration::from_hours(1), Duration(3600));
        assert_eq!(Duration::from_days(2), Duration(172_800));
        assert_eq!(Duration::from_hours_f64(0.5), Duration(1800));
        assert_eq!(Duration::from_hours_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_hours_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1.4), Duration(1));
        assert_eq!(
            Duration::from_secs_f64(f64::INFINITY),
            Duration::ZERO.max(Duration(0))
        );
    }

    #[test]
    fn duration_conversions() {
        let d = Duration::from_hours(36);
        assert!((d.as_days() - 1.5).abs() < 1e-12);
        assert!((d.as_hours() - 36.0).abs() < 1e-12);
        assert_eq!(d.as_secs(), 36 * 3600);
    }

    #[test]
    fn log10_secs_has_floor() {
        assert_eq!(Duration::ZERO.log10_secs(), 0.0);
        assert!((Duration(1000).log10_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration(30).to_string(), "30s");
        assert_eq!(Duration(90).to_string(), "1.5m");
        assert_eq!(Duration(5400).to_string(), "1.5h");
        assert_eq!(Duration(129_600).to_string(), "1.5d");
        assert_eq!(SimTime(5).to_string(), "t+5s");
    }

    #[test]
    fn saturating_since() {
        assert_eq!(SimTime(100).saturating_since(SimTime(40)), Duration(60));
        assert_eq!(SimTime(40).saturating_since(SimTime(100)), Duration::ZERO);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime(u64::MAX).checked_add(Duration(1)), None);
        assert_eq!(SimTime(1).checked_add(Duration(2)), Some(SimTime(3)));
    }
}
