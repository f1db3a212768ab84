//! Open-loop arrival generation and serving-tier configuration.
//!
//! The batch simulator closes the loop implicitly: events are consumed as
//! fast as the engine can process them. A serving tier needs the opposite
//! — an **open-loop** arrival process that offers requests at a configured
//! rate regardless of how the service is doing, so saturation behaviour
//! (queue growth, shedding, latency collapse) is actually observable.
//!
//! [`ArrivalProcess`] describes the *shape* of the offered load:
//!
//! * [`ArrivalProcess::Poisson`] — homogeneous Poisson arrivals,
//! * [`ArrivalProcess::Burst`] — square-wave storms: a baseline rate with
//!   periodic bursts at `amplitude ×` the baseline,
//! * [`ArrivalProcess::Diurnal`] — a sinusoidal day/night cycle.
//!
//! All three are normalised so the configured **mean** rate is respected:
//! a `Burst` process with amplitude 8 offers the same total load as a
//! `Poisson` process at the same target rate, just differently
//! distributed in time. Inhomogeneous processes are generated by Lewis
//! thinning against the peak rate, driven by a seeded [`ChaCha8Rng`] on a
//! virtual clock — the stream is a pure function of (config, seed), so
//! serving runs replay bit-identically on any machine and thread count.
//!
//! [`ServeConfig`] bundles the serving-tier knobs (queue bound, admission
//! policy, arrival process, target rate, service-time model) and rides on
//! `ExperimentSpec` as a serde-defaulted optional field, keeping serving
//! scenarios declarative like every other experiment axis.

use crate::workload::WorkloadGenerator;
use lava_core::serve::{Micros, PlaceRequest, RequestId};
use lava_core::time::Duration;
use lava_core::vm::VmId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Domain-separation constant mixed into the workload seed so the arrival
/// stream is decorrelated from trace generation on the same seed.
const ARRIVAL_SEED_SALT: u64 = 0x5EED_AA11_7E57_0001;

/// The shape of the offered load, normalised to a configured mean rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at the target rate.
    #[default]
    Poisson,
    /// Square-wave storms: baseline load with periodic bursts.
    ///
    /// Each `period`, the rate jumps to `amplitude ×` the baseline for
    /// `burst_len`, then falls back. The baseline is chosen so the mean
    /// over a full period equals the target rate.
    Burst {
        /// Full cycle length (quiet + burst).
        period: Duration,
        /// How long each burst lasts (must be shorter than `period`).
        burst_len: Duration,
        /// Peak-to-baseline rate ratio (> 1).
        amplitude: f64,
    },
    /// A sinusoidal day/night cycle: rate(t) = mean · (1 + amplitude ·
    /// sin(2πt / period)). The sinusoid's mean is the target rate by
    /// construction.
    Diurnal {
        /// Cycle length (a day, typically).
        period: Duration,
        /// Relative swing around the mean, in `[0, 1)`.
        amplitude: f64,
    },
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalProcess::Poisson => write!(f, "poisson"),
            ArrivalProcess::Burst { amplitude, .. } => write!(f, "burst(x{amplitude})"),
            ArrivalProcess::Diurnal { amplitude, .. } => write!(f, "diurnal({amplitude})"),
        }
    }
}

impl ArrivalProcess {
    /// Instantaneous rate multiplier at virtual time `t` (mean 1 over a
    /// full cycle).
    fn rate_factor(&self, t: Micros) -> f64 {
        match *self {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Burst {
                period,
                burst_len,
                amplitude,
            } => {
                let period_us = Micros::from_duration(period).as_micros().max(1);
                let burst_us = Micros::from_duration(burst_len).as_micros();
                let frac = burst_us as f64 / period_us as f64;
                // base · ((1 − f) + f · A) = 1  ⇒  base = 1 / (1 + (A − 1)·f)
                let base = 1.0 / (1.0 + (amplitude - 1.0) * frac);
                if t.as_micros() % period_us < burst_us {
                    base * amplitude
                } else {
                    base
                }
            }
            ArrivalProcess::Diurnal { period, amplitude } => {
                let period_s = period.as_secs().max(1) as f64;
                let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period_s;
                1.0 + amplitude * phase.sin()
            }
        }
    }

    /// Peak rate multiplier — the thinning envelope.
    fn peak_factor(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Burst {
                period,
                burst_len,
                amplitude,
            } => {
                let period_us = Micros::from_duration(period).as_micros().max(1);
                let frac = Micros::from_duration(burst_len).as_micros() as f64 / period_us as f64;
                amplitude / (1.0 + (amplitude - 1.0) * frac)
            }
            ArrivalProcess::Diurnal { amplitude, .. } => 1.0 + amplitude.abs(),
        }
    }
}

/// How admission control decides whether to queue a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdmissionPolicy {
    /// Naive FIFO: admit everything until the queue is physically full.
    /// The baseline arm — under a burst storm its tail latency collapses
    /// because every queued request waits behind the whole backlog.
    #[default]
    Fifo,
    /// Shed new arrivals once the queue is deeper than `shed_threshold`,
    /// keeping the backlog (and therefore queueing delay) bounded below
    /// the physical queue bound.
    DepthShed {
        /// Queue depth at which shedding starts (must be < queue bound).
        shed_threshold: usize,
    },
    /// Depth shedding that spares VMs predicted to live long: above the
    /// threshold, requests whose predicted lifetime is at least
    /// `min_predicted` are still admitted (placing a month-long VM is
    /// worth more queueing than placing a five-minute batch task — the
    /// prediction-informed admission of *Online VM Allocation with
    /// Predictions*).
    LifetimeShed {
        /// Queue depth at which shedding starts (must be < queue bound).
        shed_threshold: usize,
        /// Predicted lifetime at or above which a request is spared.
        min_predicted: Duration,
    },
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::Fifo => write!(f, "fifo"),
            AdmissionPolicy::DepthShed { shed_threshold } => {
                write!(f, "depth-shed@{shed_threshold}")
            }
            AdmissionPolicy::LifetimeShed { shed_threshold, .. } => {
                write!(f, "lifetime-shed@{shed_threshold}")
            }
        }
    }
}

impl AdmissionPolicy {
    /// The shed threshold, if this policy sheds.
    pub fn shed_threshold(&self) -> Option<usize> {
        match *self {
            AdmissionPolicy::Fifo => None,
            AdmissionPolicy::DepthShed { shed_threshold }
            | AdmissionPolicy::LifetimeShed { shed_threshold, .. } => Some(shed_threshold),
        }
    }
}

/// The virtual service-time model: how long one placement decision
/// occupies the decision loop, as a deterministic function of the
/// scheduler's [`DecisionCost`](lava_sched::scheduler::DecisionCost).
///
/// Wall-clock timing would make replays machine-dependent; this affine
/// model (a base cost plus per-host and per-live-VM terms) is
/// bit-reproducible and scales the way candidate generation and scoring
/// actually do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Fixed decision overhead, in microseconds.
    pub base_decision_us: u64,
    /// Additional cost per host in the routed cell, in nanoseconds.
    pub per_host_ns: u64,
    /// Additional cost per live VM in the routed cell, in nanoseconds.
    pub per_vm_ns: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        // ~200µs base (order of a GBDT reprediction sweep + policy scan at
        // small cell sizes), growing with cell occupancy.
        ServiceModel {
            base_decision_us: 200,
            per_host_ns: 500,
            per_vm_ns: 100,
        }
    }
}

impl ServiceModel {
    /// The virtual service time for one decision of the given cost.
    pub fn service_time(&self, hosts: usize, live_vms: usize) -> Micros {
        let ns = (hosts as u64).saturating_mul(self.per_host_ns)
            + (live_vms as u64).saturating_mul(self.per_vm_ns);
        Micros(self.base_decision_us.saturating_add(ns / 1000))
    }

    /// Decisions per second the model can sustain for a given cost — the
    /// saturation point an offered-load sweep is measured against.
    pub fn capacity_per_sec(&self, hosts: usize, live_vms: usize) -> f64 {
        let us = self.service_time(hosts, live_vms).as_micros().max(1);
        Micros::PER_SEC as f64 / us as f64
    }
}

/// Per-cell circuit-breaker tuning for the serving tier's health layer.
///
/// A cell that keeps answering `no_capacity` (or is under a declared
/// outage) trips its breaker **open** after `failure_threshold`
/// consecutive failures; while open, routing fails over around it. Each
/// trip doubles the open interval from `base_backoff_us` up to
/// `max_backoff_us`, with a seeded ±`jitter` fraction so cells that
/// tripped together don't probe in lock-step (deterministic: the jitter
/// stream is a pure function of the run seed and cell index). After the
/// interval the breaker goes **half-open**: the cell takes primary-routed
/// traffic as a probe but is skipped as a failover target; one success
/// closes it, one failure re-opens it at the doubled interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// First open interval, in microseconds of virtual time.
    pub base_backoff_us: u64,
    /// Ceiling the doubling backoff saturates at, in microseconds.
    pub max_backoff_us: u64,
    /// Relative jitter applied to each open interval, in `[0, 1)`.
    pub jitter: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        // Trip after 5 straight failures; back off 50ms → 1.6s.
        BreakerConfig {
            failure_threshold: 5,
            base_backoff_us: 50_000,
            max_backoff_us: 1_600_000,
            jitter: 0.1,
        }
    }
}

/// Hard cap on the serve report's per-epoch series ([`ServeConfig::epoch`]):
/// a spec whose horizon holds more epochs does not validate, and activity
/// past the cap (a drain beyond the horizon) is attributed to the final
/// epoch.
pub const MAX_EPOCHS: usize = 1 << 20;

/// Declarative configuration of the serving tier, carried on
/// `ExperimentSpec` as a serde-defaulted optional field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Bound of the placement request queue (requests beyond it are
    /// rejected with `Rejected::QueueFull`).
    pub queue_bound: usize,
    /// Admission policy applied before enqueueing.
    #[serde(default)]
    pub admission: AdmissionPolicy,
    /// Shape of the offered load.
    #[serde(default)]
    pub arrival: ArrivalProcess,
    /// Mean offered rate, requests per second.
    pub target_rate_per_sec: f64,
    /// Virtual service-time model for placement decisions.
    #[serde(default)]
    pub service: ServiceModel,
    /// Relative deadline stamped on every generated request (absolute
    /// deadline = arrival + this span). `None` disables deadlines.
    #[serde(default)]
    pub deadline: Option<Micros>,
    /// Retry budget stamped on every generated request: how many times a
    /// `no_capacity` decision may re-queue it before becoming terminal.
    #[serde(default)]
    pub retry_budget: u32,
    /// Per-cell circuit breakers. `None` disables the health layer (the
    /// pre-fault-tolerance behaviour: every failure burns the request).
    #[serde(default)]
    pub breakers: Option<BreakerConfig>,
    /// Epoch length for the per-epoch latency/goodput series in the serve
    /// report (`None` disables the series). The SLO-recovery metrics of
    /// the chaos bench are computed over these epochs. Must be non-zero
    /// and split the horizon into at most [`MAX_EPOCHS`] epochs.
    #[serde(default)]
    pub epoch: Option<Micros>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_bound: 1024,
            admission: AdmissionPolicy::default(),
            arrival: ArrivalProcess::default(),
            target_rate_per_sec: 100.0,
            service: ServiceModel::default(),
            deadline: None,
            retry_budget: 0,
            breakers: None,
            epoch: None,
        }
    }
}

impl ServeConfig {
    /// A config offering `target_rate_per_sec` requests per second with
    /// every other knob at its default.
    pub fn at_rate(target_rate_per_sec: f64) -> ServeConfig {
        ServeConfig {
            target_rate_per_sec,
            ..ServeConfig::default()
        }
    }

    /// Set the queue bound.
    pub fn with_queue_bound(mut self, bound: usize) -> ServeConfig {
        self.queue_bound = bound;
        self
    }

    /// Set the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> ServeConfig {
        self.admission = admission;
        self
    }

    /// Set the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> ServeConfig {
        self.arrival = arrival;
        self
    }

    /// Set the service-time model.
    pub fn with_service(mut self, service: ServiceModel) -> ServeConfig {
        self.service = service;
        self
    }

    /// Stamp every request with a relative deadline.
    pub fn with_deadline(mut self, deadline: Micros) -> ServeConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Stamp every request with a retry budget.
    pub fn with_retry_budget(mut self, retries: u32) -> ServeConfig {
        self.retry_budget = retries;
        self
    }

    /// Enable per-cell circuit breakers.
    pub fn with_breakers(mut self, breakers: BreakerConfig) -> ServeConfig {
        self.breakers = Some(breakers);
        self
    }

    /// Enable the per-epoch latency/goodput series.
    pub fn with_epoch(mut self, epoch: Micros) -> ServeConfig {
        self.epoch = Some(epoch);
        self
    }
}

/// A seeded open-loop generator of [`PlaceRequest`]s.
///
/// Wraps a [`WorkloadGenerator`] for VM shapes/lifetimes and emits
/// arrivals on the microsecond virtual clock according to an
/// [`ArrivalProcess`]. Inhomogeneous processes use Lewis thinning: draw
/// candidate arrivals from a homogeneous Poisson process at the peak
/// rate, then keep each with probability `rate(t) / peak`. The stream is
/// a pure function of (workload config, process, rate): same seed ⇒
/// bit-identical requests, on any machine or thread count.
#[derive(Debug)]
pub struct ArrivalGenerator {
    workload: WorkloadGenerator,
    process: ArrivalProcess,
    /// Mean offered rate, requests per second.
    rate: f64,
    rng: ChaCha8Rng,
    /// Fractional-microsecond clock for exact exponential gaps.
    clock_us: f64,
    horizon: Micros,
    next_id: u64,
    /// Relative deadline stamped on each request (`None` = no deadline).
    deadline: Option<Micros>,
    /// Retry budget stamped on each request.
    retries: u32,
}

impl ArrivalGenerator {
    /// Create a generator offering `rate` requests/second with shapes from
    /// `workload`, until `horizon`. Seeded from the workload's seed
    /// (domain-separated from trace generation).
    pub fn new(
        workload: WorkloadGenerator,
        process: ArrivalProcess,
        rate: f64,
        horizon: Micros,
    ) -> ArrivalGenerator {
        let seed = workload.config().seed ^ ARRIVAL_SEED_SALT;
        ArrivalGenerator {
            workload,
            process,
            rate,
            rng: ChaCha8Rng::seed_from_u64(seed),
            clock_us: 0.0,
            horizon,
            next_id: 1,
            deadline: None,
            retries: 0,
        }
    }

    /// Build from a [`ServeConfig`], taking process, rate, and the
    /// deadline/retry stamps from it.
    pub fn from_config(
        workload: WorkloadGenerator,
        config: &ServeConfig,
        horizon: Micros,
    ) -> ArrivalGenerator {
        let mut generator = ArrivalGenerator::new(
            workload,
            config.arrival,
            config.target_rate_per_sec,
            horizon,
        );
        generator.deadline = config.deadline;
        generator.retries = config.retry_budget;
        generator
    }

    /// The next request, or `None` once the horizon is reached.
    pub fn next_request(&mut self) -> Option<PlaceRequest> {
        let peak_rate = self.rate * self.process.peak_factor();
        if peak_rate <= 0.0 {
            return None;
        }
        let peak_rate_per_us = peak_rate / Micros::PER_SEC as f64;
        loop {
            // Homogeneous candidate at the peak rate...
            let u: f64 = self.rng.gen_range(1e-12..1.0);
            self.clock_us += -u.ln() / peak_rate_per_us;
            if !self.clock_us.is_finite() || self.clock_us >= self.horizon.as_micros() as f64 {
                return None;
            }
            let at = Micros(self.clock_us as u64);
            // ...thinned to the instantaneous rate.
            let keep: f64 = self.rng.gen_range(0.0..1.0);
            let accept = self.process.rate_factor(at) / self.process.peak_factor();
            if keep >= accept {
                continue;
            }
            let (spec, lifetime) = self
                .workload
                .sample_request_vm(at.to_sim_time(), &mut self.rng);
            let id = self.next_id;
            self.next_id += 1;
            return Some(PlaceRequest {
                id: RequestId(id),
                // Serve-tier VM ids share the trace id space but a serving
                // run never mixes with a materialised trace.
                vm: VmId(id),
                spec,
                lifetime,
                submitted: at,
                deadline: self.deadline.map(|d| at + d),
                retries: self.retries,
            });
        }
    }

    /// Drain the whole stream (for tests and offline analysis).
    pub fn collect_all(mut self) -> Vec<PlaceRequest> {
        let mut out = Vec::new();
        while let Some(request) = self.next_request() {
            out.push(request);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PoolConfig;

    fn generator(process: ArrivalProcess, rate: f64, secs: u64) -> ArrivalGenerator {
        ArrivalGenerator::new(
            WorkloadGenerator::new(PoolConfig::small(7)),
            process,
            rate,
            Micros::from_secs(secs),
        )
    }

    #[test]
    fn poisson_stream_is_seeded_and_ordered() {
        let a = generator(ArrivalProcess::Poisson, 50.0, 60).collect_all();
        let b = generator(ArrivalProcess::Poisson, 50.0, 60).collect_all();
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert!(!a.is_empty());
        for pair in a.windows(2) {
            assert!(pair[0].submitted <= pair[1].submitted);
            assert!(pair[0].id < pair[1].id);
        }
        // Mean rate within 20% over a minute at 50/s (~3000 arrivals).
        let rate = a.len() as f64 / 60.0;
        assert!((40.0..60.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generator(ArrivalProcess::Poisson, 50.0, 60).collect_all();
        let b = ArrivalGenerator::new(
            WorkloadGenerator::new(PoolConfig::small(8)),
            ArrivalProcess::Poisson,
            50.0,
            Micros::from_secs(60),
        )
        .collect_all();
        assert_ne!(a, b);
    }

    #[test]
    fn burst_respects_mean_rate_and_concentrates_load() {
        let process = ArrivalProcess::Burst {
            period: Duration::from_secs(60),
            burst_len: Duration::from_secs(10),
            amplitude: 6.0,
        };
        let requests = generator(process, 30.0, 600).collect_all();
        let rate = requests.len() as f64 / 600.0;
        assert!((25.0..35.0).contains(&rate), "mean rate {rate}");
        // Bursts cover 1/6 of the time but should carry well over half the
        // load at amplitude 6 (exact share: 6/(5+6) ≈ 0.55 of arrivals in
        // 1/6 of the time).
        let in_burst = requests
            .iter()
            .filter(|r| r.submitted.as_micros() % 60_000_000 < 10_000_000)
            .count();
        let share = in_burst as f64 / requests.len() as f64;
        assert!(share > 0.45, "burst share {share}");
    }

    #[test]
    fn diurnal_respects_mean_rate() {
        let process = ArrivalProcess::Diurnal {
            period: Duration::from_secs(300),
            amplitude: 0.8,
        };
        // 4 full cycles so the sinusoid averages out.
        let requests = generator(process, 20.0, 1200).collect_all();
        let rate = requests.len() as f64 / 1200.0;
        assert!((17.0..23.0).contains(&rate), "mean rate {rate}");
    }

    #[test]
    fn service_model_is_affine_and_capacity_inverts_it() {
        let model = ServiceModel::default();
        assert_eq!(model.service_time(0, 0), Micros(200));
        // 1000 hosts · 500ns + 2000 VMs · 100ns = 700µs on top of base.
        assert_eq!(model.service_time(1000, 2000), Micros(900));
        let capacity = model.capacity_per_sec(0, 0);
        assert!((capacity - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn serve_config_serde_defaults() {
        // Old specs without the new optional knobs still parse.
        let json = r#"{"queue_bound":64,"target_rate_per_sec":10.0}"#;
        let config: ServeConfig = serde_json::from_str(json).unwrap();
        assert_eq!(config.admission, AdmissionPolicy::Fifo);
        assert_eq!(config.arrival, ArrivalProcess::Poisson);
        assert_eq!(config.service, ServiceModel::default());
        assert_eq!(config.deadline, None);
        assert_eq!(config.retry_budget, 0);
        assert_eq!(config.breakers, None);
        assert_eq!(config.epoch, None);

        let full = ServeConfig::at_rate(500.0)
            .with_queue_bound(256)
            .with_admission(AdmissionPolicy::DepthShed {
                shed_threshold: 128,
            })
            .with_arrival(ArrivalProcess::Diurnal {
                period: Duration::from_hours(24),
                amplitude: 0.5,
            })
            .with_deadline(Micros::from_millis(250))
            .with_retry_budget(2)
            .with_breakers(BreakerConfig::default())
            .with_epoch(Micros::from_secs(1));
        let json = serde_json::to_string(&full).unwrap();
        let back: ServeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(full, back);
    }

    #[test]
    fn generator_stamps_deadline_and_retry_budget() {
        let config = ServeConfig::at_rate(50.0)
            .with_deadline(Micros::from_millis(100))
            .with_retry_budget(3);
        let requests = ArrivalGenerator::from_config(
            WorkloadGenerator::new(PoolConfig::small(7)),
            &config,
            Micros::from_secs(10),
        )
        .collect_all();
        assert!(!requests.is_empty());
        for request in &requests {
            assert_eq!(
                request.deadline,
                Some(request.submitted + Micros::from_millis(100))
            );
            assert_eq!(request.retries, 3);
        }
        // The stamps don't perturb the arrival stream itself.
        let bare = generator(ArrivalProcess::Poisson, 50.0, 10).collect_all();
        assert_eq!(bare.len(), requests.len());
        assert!(bare
            .iter()
            .zip(&requests)
            .all(|(a, b)| a.submitted == b.submitted && a.spec == b.spec));
    }
}
