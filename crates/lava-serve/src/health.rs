//! Per-cell health tracking for the placement service: circuit breakers
//! with seeded exponential backoff, half-open probing, and fleet-wide
//! brownout.
//!
//! The router (`lava_sim::fleet::Router`) picks cells from *frozen
//! summaries* — it has no concept of a cell that stopped answering. This
//! module layers that concept on top, as a production allocator would:
//!
//! * Every cell carries a breaker. Consecutive failures (`no_capacity`
//!   decisions, which is also how a declared outage manifests to the
//!   decision loop) trip it **open**; while open the cell is skipped and
//!   requests **fail over** to the next closed cell instead of burning a
//!   decision slot on a dead cell.
//! * An open breaker cools down for an exponentially growing, seeded
//!   ±jitter interval, then goes **half-open**: the cell takes its own
//!   primary-routed traffic again as a probe (but is not offered other
//!   cells' failover traffic). One success closes it and resets the
//!   backoff; one failure re-opens it at the doubled interval.
//! * When a majority of cells is tripped the fleet enters **brownout**:
//!   summary-driven routing is not trustworthy (most summaries describe
//!   dead cells), so routing falls back to a deterministic hash over the
//!   still-closed cells, and the service tightens its shedding threshold.
//!   Brownout exits hysteretically — only once the tripped count falls to
//!   a quarter of the fleet — so the fleet doesn't flap at the boundary.
//!
//! All state transitions are pure functions of (config, seed, the
//! observed failure/success sequence, virtual time), so a chaos run
//! replays bit-identically on any machine and thread count.

use lava_core::hash::mix64;
use lava_core::serve::Micros;
use lava_sim::arrivals::BreakerConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Domain-separation constant mixed into the run seed for the per-cell
/// backoff-jitter streams.
const HEALTH_SEED_SALT: u64 = 0xBEA7_0FF0_CE11_0001;

/// One cell's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: routable as primary and as a failover target.
    Closed,
    /// Tripped: skipped entirely until `until`, then half-open.
    Open {
        /// When the cooldown interval ends.
        until: Micros,
    },
    /// Probing: takes primary-routed traffic, refused failover traffic.
    /// The next outcome decides — success closes, failure re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct CellHealth {
    state: BreakerState,
    /// Consecutive failures since the last success.
    failures: u32,
    /// Backoff doublings applied since the breaker last closed.
    trips: u32,
    /// Seeded jitter stream; drawn from once per trip.
    rng: ChaCha8Rng,
}

/// The service's per-cell health table. See the module docs for the
/// state machine.
#[derive(Debug)]
pub struct HealthTracker {
    config: BreakerConfig,
    cells: Vec<CellHealth>,
    brownout: bool,
    /// Total breaker trips over the run (reported for observability).
    trips_total: u64,
}

impl HealthTracker {
    /// A tracker for `cells` cells, jitter streams seeded from `seed`.
    pub fn new(config: BreakerConfig, cells: usize, seed: u64) -> HealthTracker {
        let cells = (0..cells as u64)
            .map(|cell| CellHealth {
                state: BreakerState::Closed,
                failures: 0,
                trips: 0,
                rng: ChaCha8Rng::seed_from_u64(
                    seed ^ HEALTH_SEED_SALT ^ cell.wrapping_mul(0x9E37_79B9),
                ),
            })
            .collect();
        HealthTracker {
            config,
            cells,
            brownout: false,
            trips_total: 0,
        }
    }

    /// The cell's state at `now` (lazily promotes an expired `Open` to
    /// `HalfOpen`).
    pub fn state(&mut self, cell: usize, now: Micros) -> BreakerState {
        let entry = &mut self.cells[cell];
        if let BreakerState::Open { until } = entry.state {
            if now >= until {
                entry.state = BreakerState::HalfOpen;
            }
        }
        entry.state
    }

    /// Record a successful decision (`placed`) on `cell`.
    pub fn on_success(&mut self, cell: usize, now: Micros) {
        let state = self.state(cell, now);
        let entry = &mut self.cells[cell];
        entry.failures = 0;
        if state == BreakerState::HalfOpen {
            // The probe succeeded: close and forget the backoff history.
            entry.state = BreakerState::Closed;
            entry.trips = 0;
            self.update_brownout();
        }
    }

    /// Record a failed decision (`no_capacity`) on `cell`.
    pub fn on_failure(&mut self, cell: usize, now: Micros) {
        match self.state(cell, now) {
            BreakerState::Closed => {
                let entry = &mut self.cells[cell];
                entry.failures += 1;
                if entry.failures >= self.config.failure_threshold {
                    self.trip(cell, now);
                }
            }
            // A failed probe re-opens at the doubled interval.
            BreakerState::HalfOpen => self.trip(cell, now),
            // Already open (a decision that raced the trip): nothing new.
            BreakerState::Open { .. } => {}
        }
    }

    /// Trip `cell` open for the next (jittered, doubling) interval.
    fn trip(&mut self, cell: usize, now: Micros) {
        let config = self.config;
        let entry = &mut self.cells[cell];
        let interval = config
            .base_backoff_us
            .checked_shl(entry.trips.min(63))
            .unwrap_or(u64::MAX)
            .min(config.max_backoff_us);
        // ±jitter, drawn from the cell's seeded stream. jitter = 0 keeps
        // the draw (uniform stream advance) but ignores it.
        let u: f64 = entry.rng.gen_range(0.0..1.0);
        let factor = 1.0 + config.jitter * (2.0 * u - 1.0);
        let jittered = ((interval as f64 * factor) as u64).max(1);
        entry.state = BreakerState::Open {
            until: now + Micros(jittered),
        };
        entry.trips = entry.trips.saturating_add(1);
        self.trips_total += 1;
        self.update_brownout();
    }

    /// Recompute brownout with hysteresis: enter when a strict majority of
    /// cells is tripped (open or half-open), exit only once at most a
    /// quarter is.
    fn update_brownout(&mut self) {
        let tripped = self
            .cells
            .iter()
            .filter(|c| c.state != BreakerState::Closed)
            .count();
        if self.brownout {
            if tripped * 4 <= self.cells.len() {
                self.brownout = false;
            }
        } else if tripped * 2 > self.cells.len() {
            self.brownout = true;
        }
    }

    /// Whether the fleet is in brownout.
    pub fn in_brownout(&self) -> bool {
        self.brownout
    }

    /// Total breaker trips so far.
    pub fn trips(&self) -> u64 {
        self.trips_total
    }

    /// Whether `cell` may take primary-routed traffic at `now` (closed or
    /// probing half-open — only a cooling `Open` breaker refuses).
    pub fn primary_routable(&mut self, cell: usize, now: Micros) -> bool {
        !matches!(self.state(cell, now), BreakerState::Open { .. })
    }

    /// The failover target for a request whose primary cell is tripped:
    /// the next *closed* cell scanning upward from `from` (wrapping), or
    /// `None` when no closed cell exists. Half-open cells are skipped —
    /// a probing cell gets its own traffic back, not everyone else's.
    pub fn failover_target(&mut self, from: usize, now: Micros) -> Option<usize> {
        let n = self.cells.len();
        (1..n)
            .map(|step| (from + step) % n)
            .find(|&cell| self.state(cell, now) == BreakerState::Closed)
    }

    /// Brownout routing: a deterministic hash of `key` over the closed
    /// cells (summary-driven policies are meaningless when most summaries
    /// describe tripped cells). `None` when no cell is closed.
    pub fn brownout_target(&mut self, key: u64, now: Micros) -> Option<usize> {
        let healthy: Vec<usize> = (0..self.cells.len())
            .filter(|&cell| self.state(cell, now) == BreakerState::Closed)
            .collect();
        if healthy.is_empty() {
            None
        } else {
            Some(healthy[(mix64(key) % healthy.len() as u64) as usize])
        }
    }

    /// How long a retry of a failure on `cell` should wait at `now`: the
    /// remaining cooldown when the breaker is open, else `None` (the
    /// caller falls back to its own pacing).
    pub fn retry_backoff(&mut self, cell: usize, now: Micros) -> Option<Micros> {
        match self.state(cell, now) {
            BreakerState::Open { until } => Some(until.saturating_since(now)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff_us: 1000,
            max_backoff_us: 8000,
            jitter: 0.0,
        }
    }

    #[test]
    fn trips_after_consecutive_failures_and_success_resets_the_count() {
        let mut health = HealthTracker::new(config(), 4, 7);
        let now = Micros(100);
        health.on_failure(0, now);
        health.on_failure(0, now);
        health.on_success(0, now);
        health.on_failure(0, now);
        health.on_failure(0, now);
        assert_eq!(health.state(0, now), BreakerState::Closed);
        health.on_failure(0, now);
        assert_eq!(
            health.state(0, now),
            BreakerState::Open {
                until: Micros(1100)
            }
        );
        assert_eq!(health.trips(), 1);
        assert!(!health.primary_routable(0, now));
        // Failover scans upward from the tripped cell.
        assert_eq!(health.failover_target(0, now), Some(1));
    }

    #[test]
    fn half_open_probe_closes_on_success_and_doubles_on_failure() {
        let mut health = HealthTracker::new(config(), 2, 7);
        for _ in 0..3 {
            health.on_failure(0, Micros(0));
        }
        // Cooling: skipped as primary and as failover target.
        assert!(!health.primary_routable(0, Micros(500)));
        assert_eq!(health.failover_target(1, Micros(500)), None);
        // Past the interval: half-open, primary-routable, still not a
        // failover target.
        assert!(health.primary_routable(0, Micros(1000)));
        assert_eq!(health.state(0, Micros(1000)), BreakerState::HalfOpen);
        assert_eq!(health.failover_target(1, Micros(1000)), None);
        // Probe fails: re-open with the doubled interval.
        health.on_failure(0, Micros(1000));
        assert_eq!(
            health.state(0, Micros(1000)),
            BreakerState::Open {
                until: Micros(3000)
            }
        );
        // Probe succeeds after the next cooldown: closed, backoff reset.
        health.on_success(0, Micros(3000));
        assert_eq!(health.state(0, Micros(3000)), BreakerState::Closed);
        for _ in 0..3 {
            health.on_failure(0, Micros(10_000));
        }
        assert_eq!(
            health.state(0, Micros(10_000)),
            BreakerState::Open {
                until: Micros(11_000)
            },
            "closing must reset the doubling"
        );
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        // Each failed half-open probe re-trips: intervals double then
        // saturate at the cap.
        let mut health = HealthTracker::new(config(), 1, 7);
        let mut now = Micros(0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            for _ in 0..3 {
                health.on_failure(0, now);
            }
            let BreakerState::Open { until } = health.state(0, now) else {
                panic!("open expected");
            };
            seen.push(until.saturating_since(now).as_micros());
            now = until;
        }
        assert_eq!(seen, vec![1000, 2000, 4000, 8000, 8000, 8000]);
    }

    #[test]
    fn brownout_enters_on_majority_and_exits_hysteretically() {
        let mut health = HealthTracker::new(config(), 4, 7);
        let now = Micros(0);
        for cell in 0..3 {
            for _ in 0..3 {
                health.on_failure(cell, now);
            }
        }
        // 3 of 4 tripped: majority → brownout.
        assert!(health.in_brownout());
        // Brownout routing hashes over the one closed cell.
        assert_eq!(health.brownout_target(42, now), Some(3));
        // One recovery (2/4 tripped) is not enough to exit...
        let later = Micros(1000);
        assert_eq!(health.state(0, later), BreakerState::HalfOpen);
        health.on_success(0, later);
        assert!(
            health.in_brownout(),
            "exit threshold is a quarter, not half"
        );
        // ...two more are (1/4 tripped).
        health.on_success(1, later);
        assert!(!health.in_brownout());
    }

    #[test]
    fn jitter_is_seeded_and_replayable() {
        let jittery = BreakerConfig {
            jitter: 0.5,
            ..config()
        };
        let run = |seed: u64| {
            let mut health = HealthTracker::new(jittery, 2, seed);
            let mut untils = Vec::new();
            let mut now = Micros(0);
            for _ in 0..4 {
                for _ in 0..3 {
                    health.on_failure(0, now);
                }
                let BreakerState::Open { until } = health.state(0, now) else {
                    panic!("open expected");
                };
                untils.push(until);
                now = until;
            }
            untils
        };
        assert_eq!(run(7), run(7), "same seed, same jitter");
        assert_ne!(run(7), run(8), "different seed, different jitter");
    }
}
