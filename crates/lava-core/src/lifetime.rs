//! Lifetime classes and temporal-cost quantisation.
//!
//! LAVA divides lifetime predictions into four order-of-magnitude classes
//! (§4.3): `<1h`, `1-10h`, `10-100h` and `100-1000h`. NILAS (§4.2) quantises
//! the temporal cost `ΔT = max(vm_exit - host_exit, 0)` using fixed bucket
//! boundaries so that hosts inside the same bucket form an equivalence class
//! for the lower-ranked bin-packing score.

use crate::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// LAVA lifetime class, on an order-of-magnitude (hours) scale.
///
/// `LC1` < 1 h, `LC2` 1–10 h, `LC3` 10–100 h, `LC4` ≥ 100 h.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LifetimeClass {
    /// Lifetime below one hour.
    Lc1,
    /// Lifetime between 1 and 10 hours.
    Lc2,
    /// Lifetime between 10 and 100 hours.
    Lc3,
    /// Lifetime of 100 hours or more (the paper caps at 1000 h).
    Lc4,
}

impl LifetimeClass {
    /// All classes, shortest first.
    pub const ALL: [LifetimeClass; 4] = [
        LifetimeClass::Lc1,
        LifetimeClass::Lc2,
        LifetimeClass::Lc3,
        LifetimeClass::Lc4,
    ];

    /// Classify a (predicted or actual) lifetime.
    pub fn from_lifetime(lifetime: Duration) -> LifetimeClass {
        let hours = lifetime.as_hours();
        if hours < 1.0 {
            LifetimeClass::Lc1
        } else if hours < 10.0 {
            LifetimeClass::Lc2
        } else if hours < 100.0 {
            LifetimeClass::Lc3
        } else {
            LifetimeClass::Lc4
        }
    }

    /// Numeric index, 1-based (`Lc1` → 1, ..., `Lc4` → 4).
    #[inline]
    pub fn index(self) -> u8 {
        match self {
            LifetimeClass::Lc1 => 1,
            LifetimeClass::Lc2 => 2,
            LifetimeClass::Lc3 => 3,
            LifetimeClass::Lc4 => 4,
        }
    }

    /// Build from a 1-based index, clamping to the valid range.
    pub fn from_index_clamped(index: i32) -> LifetimeClass {
        match index {
            i32::MIN..=1 => LifetimeClass::Lc1,
            2 => LifetimeClass::Lc2,
            3 => LifetimeClass::Lc3,
            _ => LifetimeClass::Lc4,
        }
    }

    /// The next shorter class, or `Lc1` if already the shortest.
    pub fn step_down(self) -> LifetimeClass {
        LifetimeClass::from_index_clamped(self.index() as i32 - 1)
    }

    /// The next longer class, or `Lc4` if already the longest.
    pub fn step_up(self) -> LifetimeClass {
        LifetimeClass::from_index_clamped(self.index() as i32 + 1)
    }

    /// Upper bound of the class interval. Used as the host deadline horizon:
    /// if all predictions were correct a host of this class should be empty
    /// within roughly this time (the paper allows a 1.1× slack).
    pub fn upper_bound(self) -> Duration {
        match self {
            LifetimeClass::Lc1 => Duration::from_hours(1),
            LifetimeClass::Lc2 => Duration::from_hours(10),
            LifetimeClass::Lc3 => Duration::from_hours(100),
            LifetimeClass::Lc4 => Duration::from_hours(1000),
        }
    }

    /// Number of classes between two classes (`self - other`, may be
    /// negative).
    #[inline]
    pub fn distance(self, other: LifetimeClass) -> i32 {
        self.index() as i32 - other.index() as i32
    }
}

impl fmt::Display for LifetimeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LC{}", self.index())
    }
}

/// NILAS temporal-cost bucket boundaries (§4.2).
///
/// `ΔT` values are quantised into the index of the first boundary that is
/// **greater than** the value; the paper's example (`ΔT = 70 min → cost 2`)
/// fixes the convention: the boundaries are the left edges of the buckets
/// `[0, 30m) [30m, 60m) [60m, 90m) ...` and the cost is the index of the
/// bucket containing `ΔT`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalCostBuckets {
    /// Left edges of the buckets, strictly increasing and starting at zero.
    boundaries: Vec<Duration>,
}

impl Default for TemporalCostBuckets {
    /// The production bucket boundaries from the paper:
    /// {0m, 30m, 60m, 90m, 2h, 3h, 4h, 6h, 12h, 24h, 168h}.
    fn default() -> Self {
        TemporalCostBuckets::new(vec![
            Duration::ZERO,
            Duration::from_mins(30),
            Duration::from_mins(60),
            Duration::from_mins(90),
            Duration::from_hours(2),
            Duration::from_hours(3),
            Duration::from_hours(4),
            Duration::from_hours(6),
            Duration::from_hours(12),
            Duration::from_hours(24),
            Duration::from_hours(168),
        ])
        .expect("default boundaries are valid")
    }
}

impl TemporalCostBuckets {
    /// Create bucket boundaries from left edges.
    ///
    /// Returns `None` if the edges are empty, do not start at zero, or are
    /// not strictly increasing.
    pub fn new(boundaries: Vec<Duration>) -> Option<TemporalCostBuckets> {
        if boundaries.first() != Some(&Duration::ZERO) {
            return None;
        }
        if boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(TemporalCostBuckets { boundaries })
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// True if there are no buckets (cannot happen for values built with
    /// [`TemporalCostBuckets::new`]).
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }

    /// The temporal cost of a `ΔT` value: the index of the bucket containing
    /// it. Values past the last boundary land in the last bucket.
    ///
    /// ```
    /// use lava_core::lifetime::TemporalCostBuckets;
    /// use lava_core::time::Duration;
    ///
    /// let buckets = TemporalCostBuckets::default();
    /// assert_eq!(buckets.cost(Duration::ZERO), 0);
    /// assert_eq!(buckets.cost(Duration::from_mins(70)), 2);
    /// assert_eq!(buckets.cost(Duration::from_hours(200)), 10);
    /// ```
    pub fn cost(&self, delta: Duration) -> usize {
        match self.boundaries.binary_search(&delta) {
            Ok(idx) => idx,
            Err(insert) => insert.saturating_sub(1),
        }
    }

    /// The left edges of the buckets.
    pub fn boundaries(&self) -> &[Duration] {
        &self.boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classify_lifetimes() {
        assert_eq!(
            LifetimeClass::from_lifetime(Duration::from_mins(30)),
            LifetimeClass::Lc1
        );
        assert_eq!(
            LifetimeClass::from_lifetime(Duration::from_hours(1)),
            LifetimeClass::Lc2
        );
        assert_eq!(
            LifetimeClass::from_lifetime(Duration::from_hours(10)),
            LifetimeClass::Lc3
        );
        assert_eq!(
            LifetimeClass::from_lifetime(Duration::from_hours(100)),
            LifetimeClass::Lc4
        );
        assert_eq!(
            LifetimeClass::from_lifetime(Duration::from_hours(5000)),
            LifetimeClass::Lc4
        );
    }

    #[test]
    fn step_up_down_clamps() {
        assert_eq!(LifetimeClass::Lc1.step_down(), LifetimeClass::Lc1);
        assert_eq!(LifetimeClass::Lc4.step_up(), LifetimeClass::Lc4);
        assert_eq!(LifetimeClass::Lc2.step_up(), LifetimeClass::Lc3);
        assert_eq!(LifetimeClass::Lc3.step_down(), LifetimeClass::Lc2);
    }

    #[test]
    fn distance_and_ordering() {
        assert_eq!(LifetimeClass::Lc4.distance(LifetimeClass::Lc1), 3);
        assert_eq!(LifetimeClass::Lc1.distance(LifetimeClass::Lc2), -1);
        assert!(LifetimeClass::Lc1 < LifetimeClass::Lc4);
    }

    #[test]
    fn upper_bounds_are_monotone() {
        let bounds: Vec<_> = LifetimeClass::ALL.iter().map(|c| c.upper_bound()).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_example_temporal_cost() {
        let buckets = TemporalCostBuckets::default();
        // ΔT = 70 minutes → bucket index 2 (paper §4.2).
        assert_eq!(buckets.cost(Duration::from_mins(70)), 2);
        // Exact boundary values land in their own bucket.
        assert_eq!(buckets.cost(Duration::from_mins(30)), 1);
        assert_eq!(buckets.cost(Duration::from_hours(168)), 10);
        assert_eq!(buckets.len(), 11);
        assert!(!buckets.is_empty());
    }

    #[test]
    fn invalid_boundaries_rejected() {
        assert!(TemporalCostBuckets::new(vec![]).is_none());
        assert!(TemporalCostBuckets::new(vec![Duration::from_mins(5)]).is_none());
        assert!(
            TemporalCostBuckets::new(vec![Duration::ZERO, Duration(10), Duration(10)]).is_none()
        );
    }

    #[test]
    fn display() {
        assert_eq!(LifetimeClass::Lc3.to_string(), "LC3");
    }

    proptest! {
        #[test]
        fn prop_cost_is_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
            let buckets = TemporalCostBuckets::default();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(buckets.cost(Duration(lo)) <= buckets.cost(Duration(hi)));
        }

        #[test]
        fn prop_class_roundtrip(idx in -5i32..10) {
            let class = LifetimeClass::from_index_clamped(idx);
            prop_assert!(class.index() >= 1 && class.index() <= 4);
        }

        #[test]
        fn prop_classification_matches_bounds(hours in 0.0f64..2000.0) {
            let lifetime = Duration::from_hours_f64(hours);
            let class = LifetimeClass::from_lifetime(lifetime);
            // The lifetime never exceeds the class upper bound unless it is Lc4.
            if class != LifetimeClass::Lc4 {
                prop_assert!(lifetime <= class.upper_bound());
            }
        }
    }
}
