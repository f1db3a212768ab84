//! What a serving run reports, and the errors it can fail with.

use lava_core::latency::LatencyHistogram;
use lava_core::serve::Micros;
use lava_sim::experiment::SpecError;
use std::error::Error;
use std::fmt;

/// One epoch's slice of the serving run, for SLO-recovery analysis: the
/// chaos bench computes "epochs until p99 re-enters the steady band" over
/// this series.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// The epoch's start instant.
    pub start: Micros,
    /// Requests offered during the epoch (by arrival time).
    pub offered: u64,
    /// Requests placed during the epoch (by decision time).
    pub placed: u64,
    /// Requests that expired during the epoch (by expiry time).
    pub deadline_exceeded: u64,
    /// Latency of every terminal decision landing in the epoch.
    pub latency: LatencyHistogram,
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests offered (admitted + rejected).
    pub offered: u64,
    /// Requests placed on a host.
    pub placed: u64,
    /// Admitted requests that terminally failed for capacity: the routed
    /// cell had no feasible host and the retry budget was exhausted (or
    /// the retry could not be re-queued).
    pub no_capacity: u64,
    /// Requests shed by the admission policy.
    pub shed: u64,
    /// Requests rejected because the queue was physically full.
    pub queue_full: u64,
    /// Admitted requests whose deadline passed before their decision
    /// could start.
    pub deadline_exceeded: u64,
    /// Failed decisions that were re-queued under a retry budget
    /// (non-terminal; each re-queue counts once).
    pub retried: u64,
    /// Decisions redirected away from their primary cell by the health
    /// layer (breaker failover or brownout routing).
    pub failovers: u64,
    /// Circuit-breaker trips over the run.
    pub breaker_trips: u64,
    /// VM exits applied (each placed VM's own scheduled exit).
    pub released: u64,
    /// Enqueue-to-decision latency of every admitted request, in
    /// microseconds.
    pub latency: LatencyHistogram,
    /// Deepest the place queue ever was.
    pub queue_high_water: usize,
    /// Rolling hash over the full decision sequence (request id, outcome,
    /// cell/host, decision time — including expiries, retries and
    /// failover placements). Two runs of the same seed must produce the
    /// same digest — the deterministic-replay contract, incidents and all.
    pub decision_digest: u64,
    /// The offered-arrival horizon the run covered.
    pub horizon: Micros,
    /// Per-epoch series (empty unless
    /// [`ServeConfig::epoch`](lava_sim::arrivals::ServeConfig::epoch) is
    /// set).
    pub epochs: Vec<EpochStats>,
}

impl ServeReport {
    /// Successfully placed requests per offered second — the "useful work"
    /// rate the saturation sweep watches for collapse.
    pub fn goodput_per_sec(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.placed as f64 / secs
        }
    }

    /// Fraction of offered requests rejected before placement (shed or
    /// queue-full).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed + self.queue_full) as f64 / self.offered as f64
        }
    }

    /// The terminal-outcome conservation law: every offered request ends
    /// in exactly one of the five terminal buckets. Retries and failovers
    /// are non-terminal and deliberately absent.
    pub fn conservation_holds(&self) -> bool {
        self.offered
            == self.placed + self.no_capacity + self.shed + self.queue_full + self.deadline_exceeded
    }
}

/// Errors a serving run can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The spec has no `serve` section.
    MissingServeConfig,
    /// The spec failed validation.
    Spec(SpecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::MissingServeConfig => {
                write!(f, "experiment spec has no serve configuration")
            }
            ServeError::Spec(e) => write!(f, "invalid spec: {e}"),
        }
    }
}

impl Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> ServeError {
        ServeError::Spec(e)
    }
}
