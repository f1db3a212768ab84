//! Request vocabulary for the online placement service, and the
//! microsecond-resolution virtual time it runs on.
//!
//! Batch simulation ([`crate::time::SimTime`]) uses whole seconds: event
//! *ordering* is what matters and second granularity keeps the timeline
//! exact. A serving tier is different — its observable is **placement
//! latency**, the time from a request entering the admission queue to the
//! placement decision, and meaningful latency SLOs live in the
//! microsecond-to-millisecond range. This module therefore introduces a
//! second, finer time domain: [`Micros`], a virtual timestamp in whole
//! microseconds since service start. It is an integer, so request ordering
//! and latency arithmetic are exact and replays are bit-reproducible (the
//! same reason `SimTime` is integer seconds). A serving engine advances it
//! as it processes arrivals, never by wall clock, so the same request
//! stream always produces the same decision sequence.
//!
//! The message types mirror a production allocator front-end:
//! [`PlaceRequest`] is the inbound message, [`PlaceOutcome`] what a
//! decision concluded, and [`Rejected`] the backpressure signal returned
//! when admission control refuses to queue a request
//! ([`Rejected::QueueFull`] when the bounded queue is at capacity,
//! [`Rejected::Shed`] when a shedding policy drops the request with a
//! retry-after hint). A placed VM's exit is scheduled by the service when
//! it places the VM, so there is no inbound release message.

use crate::cell::CellId;
use crate::host::HostId;
use crate::time::{Duration, SimTime};
use crate::vm::{VmId, VmSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual service time, in whole microseconds since service
/// start.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Micros(pub u64);

impl Micros {
    /// The service start.
    pub const ZERO: Micros = Micros(0);

    /// Microseconds per simulated second.
    pub const PER_SEC: u64 = 1_000_000;

    /// Construct from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Micros {
        Micros(ms.saturating_mul(1000))
    }

    /// Construct from whole seconds.
    #[inline]
    pub fn from_secs(secs: u64) -> Micros {
        Micros(secs.saturating_mul(Self::PER_SEC))
    }

    /// The microsecond span of a coarse simulation duration.
    #[inline]
    pub fn from_duration(d: Duration) -> Micros {
        Micros::from_secs(d.as_secs())
    }

    /// Whole microseconds since service start.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since service start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::PER_SEC as f64
    }

    /// The coarse simulation timestamp this instant falls in (floor to the
    /// whole second) — how the serving tier addresses the second-resolution
    /// cell schedulers underneath it.
    #[inline]
    pub fn to_sim_time(self) -> SimTime {
        SimTime(self.0 / Self::PER_SEC)
    }

    /// Elapsed span since `earlier`, saturating at zero.
    #[inline]
    pub fn saturating_since(self, earlier: Micros) -> Micros {
        Micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add for Micros {
    type Output = Micros;
    #[inline]
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Micros {
    #[inline]
    fn add_assign(&mut self, rhs: Micros) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// Difference between two instants, saturating at zero.
    #[inline]
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1000 {
            write!(f, "{us}us")
        } else if us < Micros::PER_SEC {
            write!(f, "{:.1}ms", us as f64 / 1000.0)
        } else {
            write!(f, "{:.2}s", us as f64 / Micros::PER_SEC as f64)
        }
    }
}

/// Identifier of one placement request, unique within a service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// An inbound placement request: "find a host for this VM".
///
/// `lifetime` is the ground-truth lifetime carried for oracles and
/// evaluation, mirroring the convention of
/// [`TraceEvent`](crate::events::TraceEvent) — learned predictors must only
/// look at the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRequest {
    /// Request id (assigned by the arrival source, strictly increasing).
    pub id: RequestId,
    /// The VM to place.
    pub vm: VmId,
    /// Request-time attributes.
    pub spec: VmSpec,
    /// Ground-truth lifetime (visible to oracles / evaluation only).
    pub lifetime: Duration,
    /// When the request arrived at the service, in virtual time.
    pub submitted: Micros,
    /// Optional absolute deadline: the decision is worthless after this
    /// instant, so the service resolves an entry whose decision would
    /// start later to a `deadline_exceeded` outcome instead of placing it
    /// late.
    pub deadline: Option<Micros>,
    /// How many times the service may re-queue this request after a
    /// `no_capacity` decision before the outcome becomes terminal.
    pub retries: u32,
}

/// Why admission control refused to queue a request — the backpressure
/// signal a caller sees instead of a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded request queue is at capacity. The caller should back
    /// off; there is no useful retry hint because the queue is already
    /// past its depth target.
    QueueFull,
    /// An admission policy shed the request to protect latency for the
    /// requests already queued.
    Shed {
        /// Advisory backoff: roughly how long until the queue is expected
        /// to drain back below its shed threshold.
        retry_after: Micros,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "queue full"),
            Rejected::Shed { retry_after } => write!(f, "shed (retry after {retry_after})"),
        }
    }
}

/// What a placement decision concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceOutcome {
    /// The VM was placed.
    Placed {
        /// The cell the router chose.
        cell: CellId,
        /// The host the cell's policy chose.
        host: HostId,
    },
    /// No feasible host in the routed cell.
    NoCapacity {
        /// The cell the router chose.
        cell: CellId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_conversions_and_arithmetic() {
        assert_eq!(Micros::from_secs(2), Micros(2_000_000));
        assert_eq!(Micros::from_millis(3), Micros(3000));
        assert_eq!(
            Micros::from_duration(Duration::from_mins(1)),
            Micros(60_000_000)
        );
        assert_eq!(Micros(2_500_000).to_sim_time(), SimTime(2));
        assert!((Micros(250_000).as_secs_f64() - 0.25).abs() < 1e-12);
        assert_eq!(Micros(10) + Micros(5), Micros(15));
        assert_eq!(Micros(10) - Micros(15), Micros::ZERO);
        assert_eq!(Micros(15).saturating_since(Micros(10)), Micros(5));
        assert_eq!(Micros(u64::MAX) + Micros(1), Micros(u64::MAX));
    }

    #[test]
    fn micros_displays_human_scale() {
        assert_eq!(Micros(500).to_string(), "500us");
        assert_eq!(Micros(1500).to_string(), "1.5ms");
        assert_eq!(Micros(2_500_000).to_string(), "2.50s");
    }
}
