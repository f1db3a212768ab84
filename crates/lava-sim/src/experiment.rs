//! The declarative experiment API.
//!
//! Every result in the paper is a variation of one loop: a **workload**
//! replayed against a **policy** driven by a **predictor**, with metrics
//! sampled on a [`Cadence`]. This module makes that loop declarative:
//!
//! * [`ExperimentSpec`] — a serde-serializable description of one run
//!   (workload, predictor, policy, horizon/seed via the workload,
//!   cadence). Specs round-trip through JSON, so an experiment can be
//!   stored, diffed and replayed bit-identically.
//! * [`ExperimentBuilder`] — a fluent builder over the spec.
//! * [`Experiment::run`] — the single entry point: one replay through
//!   the fleet engine ([`fleet::run_fleet`]); a spec without a fleet tier
//!   runs as a 1-cell fleet, the paper's one pool under one scheduler.
//!   Metric collection is composed from [`SimObserver`]s.
//!
//! A study that needs more than one replay is built from those pieces: a
//! cold start is `warmup = 0`; a pre/post rollout is a treated arm and a
//! baseline control arm of one [`ExperimentSuite`](crate::suite::ExperimentSuite)
//! fed to [`causal::pre_post_impact`](crate::causal::pre_post_impact);
//! defragmentation and stranding are observers
//! ([`EvacuationCollector`](crate::defrag::EvacuationCollector),
//! [`StrandingProbe`](crate::observer::StrandingProbe)) passed to
//! [`Experiment::run_with_observers`].
//!
//! # Example
//!
//! ```
//! use lava_sched::Algorithm;
//! use lava_sim::experiment::Experiment;
//!
//! let report = Experiment::builder()
//!     .hosts(24)
//!     .duration(lava_core::time::Duration::from_days(2))
//!     .seed(7)
//!     .algorithm(Algorithm::Nilas)
//!     .run()
//!     .expect("valid spec");
//! assert!(report.result.mean_empty_host_fraction() >= 0.0);
//! ```

pub use crate::drive::{drive, DriveTiming};

use crate::arrivals::{ArrivalProcess, ServeConfig, MAX_EPOCHS};
use crate::chaos::{AdaptationSpec, ChaosSource, Incident, IncidentPlan};
use crate::fleet::{self, FleetChaos, FleetConfig, FleetReport};
use crate::metrics::SimulationResult;
use crate::observer::SimObserver;
use crate::recording::{PredictionRecord, RecordingPredictor};
use crate::trace::Trace;
use crate::workload::{PoolConfig, WorkloadGenerator};
use lava_core::serve::Micros;
use lava_core::source::EventSource;
use lava_core::time::Duration;
use lava_model::adaptive::SwappablePredictor;
use lava_model::dataset::DatasetBuilder;
use lava_model::gbdt::GbdtConfig;
use lava_model::predictor::{
    GbdtPredictor, LifetimePredictor, NoisyOraclePredictor, OraclePredictor,
};
use lava_sched::la_binary::{LaBinaryConfig, LaBinaryPolicy};
use lava_sched::lava::LavaPolicy;
use lava_sched::nilas::{NilasConfig, NilasPolicy};
use lava_sched::policy::{FallbackSpec, PlacementPolicy};
use lava_sched::Algorithm;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which lifetime predictor drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorSpec {
    /// Perfect (oracular) lifetimes.
    Oracle,
    /// The accuracy-dial noisy oracle of Appendix G.1.
    Noisy {
        /// Fraction of correctly predicted VMs, in percent (0–100).
        accuracy_pct: u8,
        /// Systematic bias applied to every prediction, in percent
        /// (−90 = predictions shrink to 10 %, +100 = they double).
        /// Models train/serve skew on top of the accuracy dial.
        #[serde(default)]
        bias_pct: i16,
    },
    /// The production-style GBDT, trained on a historical trace generated
    /// from the same workload configuration with a shifted seed
    /// ([`train_gbdt_predictor`]) and compiled into the flat inference
    /// engine ([`lava_model::compiled::CompiledGbdt`]) — the paper's §5 /
    /// Fig. 8 production configuration. Predictions are bit-identical to
    /// the tree-walking [`GbdtPredictor`] it was compiled from; only
    /// inference latency differs. Reports as `"gbdt-fast"`.
    Learned,
}

impl PredictorSpec {
    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Oracle => "oracle".to_string(),
            PredictorSpec::Noisy {
                accuracy_pct,
                bias_pct: 0,
            } => format!("noisy-{accuracy_pct}"),
            PredictorSpec::Noisy {
                accuracy_pct,
                bias_pct,
            } => format!("noisy-{accuracy_pct}-bias{bias_pct}"),
            PredictorSpec::Learned => "model".to_string(),
        }
    }

    /// Instantiate the predictor for a workload. Deterministic: the noisy
    /// oracle's seed and the GBDT's training trace derive from the
    /// workload's seed.
    ///
    /// Stateless — the learned spec trains from scratch on every call.
    /// [`Experiment::predictor`] wraps this in a memoising cell, so
    /// experiment-driven runs (and sweeps) train at most once.
    pub fn build(&self, workload: &PoolConfig) -> Arc<dyn LifetimePredictor> {
        match self {
            PredictorSpec::Oracle => Arc::new(OraclePredictor::new()),
            PredictorSpec::Noisy {
                accuracy_pct,
                bias_pct,
            } => Arc::new(NoisyOraclePredictor::with_bias(
                *accuracy_pct as f64 / 100.0,
                *bias_pct,
                workload.seed ^ 0xab,
            )),
            PredictorSpec::Learned => {
                Arc::new(train_gbdt_predictor(workload, GbdtConfig::default()).compile())
            }
        }
    }
}

/// Train the production-style GBDT predictor on "historical" data for a
/// workload: a separate trace generated from the same pool configuration
/// but a shifted seed, mirroring the paper's train-on-the-warehouse /
/// evaluate-on-live-traffic split.
pub fn train_gbdt_predictor(workload: &PoolConfig, gbdt: GbdtConfig) -> GbdtPredictor {
    let mut historical = workload.clone();
    historical.seed = workload.seed.wrapping_add(0x5eed);
    historical.duration = Duration::from_days(7);
    let trace = WorkloadGenerator::new(historical).generate();
    let mut builder = DatasetBuilder::new();
    builder.extend(trace.observations());
    GbdtPredictor::train(gbdt, &builder.build())
}

/// How the NILAS/LAVA host exit-time cache is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CachePolicy {
    /// The algorithm's default refresh interval.
    #[default]
    Default,
    /// Refresh cached host exit times every N seconds. `RefreshSecs(0)`
    /// disables caching: a cached exit time is valid only at the instant
    /// it was computed, so every later decision repredicts.
    RefreshSecs(u64),
}

/// A placement policy choice plus the knobs the ablations vary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// The algorithm family.
    pub algorithm: Algorithm,
    /// Exit-time cache configuration (NILAS/LAVA only).
    pub cache: CachePolicy,
    /// Whether repredictions are enabled (the Fig. 16 "no reprediction"
    /// ablation sets this to `false`; NILAS/LAVA only).
    pub repredict: bool,
    /// Misprediction-aware graceful degradation (NILAS/LAVA only): when
    /// the observed mean |log10 residual| crosses the threshold, the
    /// policy falls back toward plain best-fit until accuracy recovers
    /// (the Theorem 1 regime). `None` (the default, what pre-existing
    /// spec JSON parses to) keeps lifetime-aware placement unconditional.
    #[serde(default)]
    pub fallback: Option<FallbackSpec>,
    /// Display label override (defaults to the algorithm name).
    pub label: Option<String>,
}

impl PolicySpec {
    /// A spec for `algorithm` with default knobs.
    pub fn new(algorithm: Algorithm) -> PolicySpec {
        PolicySpec {
            algorithm,
            cache: CachePolicy::Default,
            repredict: true,
            fallback: None,
            label: None,
        }
    }

    /// Set the cache policy.
    pub fn with_cache(mut self, cache: CachePolicy) -> PolicySpec {
        self.cache = cache;
        self
    }

    /// Disable repredictions (use only scheduling-time predictions).
    pub fn without_reprediction(mut self) -> PolicySpec {
        self.repredict = false;
        self
    }

    /// Override the display label.
    pub fn labeled(mut self, label: impl Into<String>) -> PolicySpec {
        self.label = Some(label.into());
        self
    }

    /// The name used in reports: the label if set, else the algorithm name.
    pub fn display_name(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.algorithm.to_string())
    }

    fn nilas_config(&self) -> NilasConfig {
        NilasConfig {
            cache_refresh: match self.cache {
                CachePolicy::Default => NilasConfig::default().cache_refresh,
                CachePolicy::RefreshSecs(secs) => Duration::from_secs(secs),
            },
            repredict: self.repredict,
            fallback: self.fallback,
        }
    }

    /// Instantiate the placement policy.
    pub fn build(&self, predictor: Arc<dyn LifetimePredictor>) -> Box<dyn PlacementPolicy> {
        match self.algorithm {
            Algorithm::BestFit => Box::new(lava_sched::baseline::BestFitPolicy::new()),
            Algorithm::Baseline => Box::new(lava_sched::baseline::WasteMinimizationPolicy::new()),
            Algorithm::LaBinary => {
                Box::new(LaBinaryPolicy::new(predictor, LaBinaryConfig::default()))
            }
            Algorithm::Nilas => Box::new(NilasPolicy::new(predictor, self.nilas_config())),
            Algorithm::Lava => Box::new(LavaPolicy::new(predictor, self.nilas_config())),
        }
    }
}

/// The timeline of a run: when the evaluated policy takes over, how often
/// the policy ticks and metrics are sampled, and the optional
/// defragmentation trigger cadence.
///
/// The run starts under the production baseline and switches to the
/// evaluated policy at `warmup`, the steady-state setting of Fig. 6. A
/// cold start (Appendix G.2) is `warmup = 0`: the evaluated policy places
/// every VM. The pre/post arms of Fig. 7 / Table 1 set
/// `sample_during_warmup` so their series cover the pre-switch period;
/// the defragmentation study of Table 2 sets `defrag_trigger` and passes
/// an [`EvacuationCollector`](crate::defrag::EvacuationCollector) to
/// [`Experiment::run_with_observers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cadence {
    /// Length of the warm-up phase under the baseline (the policy-switch
    /// time); zero for a cold start.
    pub warmup: Duration,
    /// Interval between policy ticks (deadline checks).
    pub tick_interval: Duration,
    /// Interval between metric samples.
    pub sample_interval: Duration,
    /// Sample during warm-up too, from time zero (pre/post analyses need
    /// the pre-switch series); otherwise sampling starts at `warmup`.
    #[serde(default)]
    pub sample_during_warmup: bool,
    /// When set, defragmentation triggers fire at this exact cadence
    /// (first one interval in), dispatched to
    /// [`SimObserver::on_defrag_trigger`]. Must be non-zero.
    #[serde(default)]
    pub defrag_trigger: Option<Duration>,
}

impl Cadence {
    /// The drive-loop timing of this cadence.
    fn timing(&self) -> DriveTiming {
        DriveTiming {
            warmup: self.warmup,
            warmup_with_baseline: true,
            tick_interval: self.tick_interval,
            sample_interval: self.sample_interval,
            sample_during_warmup: self.sample_during_warmup,
            defrag_trigger: self.defrag_trigger,
        }
    }
}

impl Default for Cadence {
    fn default() -> Self {
        Cadence {
            warmup: Duration::from_days(2),
            tick_interval: Duration::from_mins(5),
            sample_interval: Duration::from_hours(1),
            sample_during_warmup: false,
            defrag_trigger: None,
        }
    }
}

/// A declarative, serializable description of one experiment.
///
/// The horizon is `workload.duration` and the seed is `workload.seed`; a
/// spec plus the code version fully determines the outcome, so serialising
/// a spec to JSON and re-running it reproduces identical results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (used in reports).
    pub name: String,
    /// The synthetic workload (pool shape, mix, duration, seed).
    pub workload: PoolConfig,
    /// The lifetime predictor.
    pub predictor: PredictorSpec,
    /// The evaluated policy.
    pub policy: PolicySpec,
    /// Warm-up / tick / sample / defrag-trigger cadence.
    pub cadence: Cadence,
    /// The optional fleet tier: shard the workload into cells behind a
    /// [`RouterSpec`](crate::fleet::RouterSpec). `None` (the default —
    /// and what pre-fleet spec JSON parses to) runs as
    /// `FleetConfig::new(1)` and leaves [`ExperimentReport::fleet`] empty;
    /// its result is bit-identical to an explicit 1-cell fleet.
    #[serde(default)]
    pub fleet: Option<FleetConfig>,
    /// Deterministic fault injection: seeded incidents (cell outages,
    /// predictor degradations, drift shifts, arrival storms) scheduled on
    /// the run's timeline. Defaults to the empty plan — what pre-incident
    /// spec JSON parses to — which leaves the run bit-identical to the
    /// incident-free engine.
    #[serde(default)]
    pub incidents: IncidentPlan,
    /// Adaptive model management (online quantile recalibration). Defaults
    /// to everything off.
    #[serde(default)]
    pub adaptation: AdaptationSpec,
    /// The optional serving tier: run this spec's workload/fleet as an
    /// online placement service under an open-loop arrival process (see
    /// [`ServeConfig`]). `None` — what
    /// pre-serve spec JSON parses to — means batch simulation.
    #[serde(default)]
    pub serve: Option<ServeConfig>,
    /// Record every lifetime prediction (with ground truth) made during the
    /// primary run and return them in the report (Fig. 12's error
    /// analysis).
    pub record_predictions: bool,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            name: "experiment".to_string(),
            workload: PoolConfig::default(),
            predictor: PredictorSpec::Oracle,
            policy: PolicySpec::new(Algorithm::Baseline),
            cadence: Cadence::default(),
            fleet: None,
            incidents: IncidentPlan::default(),
            adaptation: AdaptationSpec::default(),
            serve: None,
            record_predictions: false,
        }
    }
}

/// Whether `hosts` hosts of `cores` cores and `memory_gib` GiB hold more
/// milli-cores or MiB than a `u64` counts.
fn capacity_overflows(hosts: usize, cores: u64, memory_gib: u64) -> bool {
    let total = |per_host: u64, unit: u64| {
        per_host
            .checked_mul(unit)
            .and_then(|per_host| per_host.checked_mul(hosts as u64))
    };
    total(cores, 1000).is_none() || total(memory_gib, 1024).is_none()
}

/// Validation errors for [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// The workload has no hosts.
    ZeroHosts,
    /// The workload duration (experiment horizon) is zero.
    ZeroHorizon,
    /// The workload has no VM categories, or their arrival weights do not
    /// sum to a positive, finite number (no category could be drawn).
    EmptyWorkloadMix,
    /// A VM category has no shapes, no lifetime modes, or lifetime-mode
    /// weights that do not sum to a positive, finite number: the generator
    /// could not draw a VM from it.
    EmptyCategory {
        /// The category's `category_id`.
        category_id: u32,
    },
    /// The tick interval is zero.
    ZeroTickInterval,
    /// The sample interval is zero.
    ZeroSampleInterval,
    /// The noisy-oracle accuracy is above 100 %.
    AccuracyOutOfRange,
    /// The learned predictor is asked for over a workload whose target
    /// utilisation is not a positive, finite number: its arrival rate,
    /// and with it the standing population, is then zero (or
    /// meaningless), so the historical trace the GBDT trains on holds no
    /// VM.
    LearnedWithoutTrainingData,
    /// The workload's target utilisation is NaN or outside `[0, 1]`.
    InvalidTargetUtilization,
    /// The workload's weekly lifetime drift is non-finite, zero or
    /// negative (it multiplies lifetime medians).
    InvalidWeeklyDrift,
    /// A host shape's total capacity overflows `u64`:
    /// `host_cores * 1000 * hosts` milli-cores or
    /// `host_memory_gib * 1024 * hosts` MiB.
    HostShapeOverflow {
        /// The fleet cell whose override sets the shape; `None` for the
        /// workload's own shape.
        cell: Option<u32>,
    },
    /// The defragmentation trigger interval is zero (the trigger would
    /// reschedule itself at the same instant forever).
    ZeroDefragInterval,
    /// The recalibration cadence is zero (the recalibrator would
    /// reschedule itself at the same instant forever).
    ZeroRecalibrationCadence,
    /// The fleet tier has zero cells.
    FleetZeroCells,
    /// The fleet tier has a zero summary-refresh cadence (the bounded
    /// staleness window must be non-zero; it is also the parallel epoch
    /// length).
    FleetZeroSummaryRefresh,
    /// A fleet cell override names a cell index `>= cells`.
    FleetOverrideOutOfRange,
    /// The fleet layout leaves a cell with zero hosts (too many cells for
    /// the workload's host count, or a zero-host override).
    FleetEmptyCell,
    /// Prediction recording is not supported on fleets of more than one
    /// cell (cells record in parallel; a shared recorder would not be
    /// deterministic).
    FleetRecordingUnsupported,
    /// An incident has a zero-duration effect (zero-host outage, zero
    /// recovery window, zero-length or empty storm).
    ZeroDurationIncident {
        /// Index of the offending incident in the plan.
        index: usize,
    },
    /// A cell outage names a cell index `>= cells`.
    IncidentCellOutOfRange {
        /// Index of the offending incident in the plan.
        index: usize,
    },
    /// Two same-cell outages (or two predictor degradations) overlap in
    /// time; the controller tracks one active window per target.
    OverlappingIncidents {
        /// Plan index of the earlier incident.
        first: usize,
        /// Plan index of the later, conflicting incident.
        second: usize,
    },
    /// A drift shift has a non-finite or non-positive lifetime scale.
    InvalidDriftScale {
        /// Index of the offending incident in the plan.
        index: usize,
    },
    /// An arrival storm sits at plan index 65 536 or later: storm VM ids
    /// hold the plan index in 16 bits, so its ids would repeat an earlier
    /// storm's.
    StormIndexOutOfRange {
        /// Index of the offending incident in the plan.
        index: usize,
    },
    /// The serving tier has a zero request-queue bound (every request
    /// would be rejected `QueueFull`; nothing would ever be served).
    ServeZeroQueueBound,
    /// The serving tier's target arrival rate is zero, negative or
    /// non-finite.
    ServeZeroTargetRate,
    /// A shedding admission policy's threshold is at or above the queue
    /// bound, so shedding could never trigger before `QueueFull`.
    ServeShedThresholdTooHigh,
    /// The serving tier's arrival process has degenerate parameters
    /// (zero period, burst longer than its period, non-positive burst
    /// amplitude, or a diurnal amplitude outside `[0, 1)`).
    ServeInvalidArrival,
    /// A serving run schedules an arrival storm whose window extends past
    /// the workload horizon: the service stops offering at the horizon,
    /// so part of the storm could never arrive and the plan would not
    /// mean what it says.
    ServeStormPastHorizon {
        /// Index of the offending incident in the plan.
        index: usize,
    },
    /// The serving tier's per-request deadline is shorter than the
    /// service model's base decision time, so every request would expire
    /// before a single decision could complete.
    ServeDeadlineTooShort,
    /// The serving tier's breaker config is degenerate: zero failure
    /// threshold, zero base backoff, a max backoff below the base, or a
    /// jitter fraction outside `[0, 1)`.
    ServeInvalidBreaker,
    /// The serving tier's epoch length is zero, or splits the horizon into
    /// more than [`MAX_EPOCHS`] epochs (each holds a latency histogram, so
    /// the series would take gigabytes).
    ServeInvalidEpoch,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroHosts => write!(f, "workload must have at least one host"),
            SpecError::ZeroHorizon => write!(f, "workload duration (horizon) must be non-zero"),
            SpecError::EmptyWorkloadMix => {
                write!(
                    f,
                    "workload must have at least one VM category of positive weight"
                )
            }
            SpecError::EmptyCategory { category_id } => {
                write!(
                    f,
                    "VM category {category_id} needs a shape and lifetime modes of positive weight"
                )
            }
            SpecError::ZeroTickInterval => write!(f, "tick interval must be non-zero"),
            SpecError::ZeroSampleInterval => write!(f, "sample interval must be non-zero"),
            SpecError::LearnedWithoutTrainingData => write!(
                f,
                "a learned predictor needs a workload with a positive, finite target utilization to train on"
            ),
            SpecError::AccuracyOutOfRange => {
                write!(f, "noisy-oracle accuracy must be at most 100 %")
            }
            SpecError::InvalidTargetUtilization => {
                write!(f, "target utilization must be a number in [0, 1]")
            }
            SpecError::InvalidWeeklyDrift => {
                write!(f, "weekly drift must be a positive, finite multiplier")
            }
            SpecError::HostShapeOverflow { cell: None } => {
                write!(f, "the workload's host shape times its host count overflows u64")
            }
            SpecError::HostShapeOverflow { cell: Some(cell) } => {
                write!(
                    f,
                    "cell {cell}'s override host shape times its host count overflows u64"
                )
            }
            SpecError::ZeroDefragInterval => {
                write!(f, "defrag trigger interval must be non-zero")
            }
            SpecError::ZeroRecalibrationCadence => {
                write!(f, "recalibration cadence must be non-zero")
            }
            SpecError::FleetZeroCells => write!(f, "fleet must have at least one cell"),
            SpecError::FleetZeroSummaryRefresh => {
                write!(f, "fleet summary-refresh cadence must be non-zero")
            }
            SpecError::FleetOverrideOutOfRange => {
                write!(f, "fleet cell override names a cell index out of range")
            }
            SpecError::FleetEmptyCell => {
                write!(f, "fleet layout leaves a cell with zero hosts")
            }
            SpecError::FleetRecordingUnsupported => {
                write!(f, "prediction recording needs a 1-cell fleet")
            }
            SpecError::ZeroDurationIncident { index } => {
                write!(f, "incident {index} has a zero-duration effect")
            }
            SpecError::IncidentCellOutOfRange { index } => {
                write!(f, "incident {index} names a cell index out of range")
            }
            SpecError::OverlappingIncidents { first, second } => {
                write!(
                    f,
                    "incidents {first} and {second} overlap on the same target"
                )
            }
            SpecError::InvalidDriftScale { index } => {
                write!(
                    f,
                    "incident {index} has a non-finite or non-positive lifetime scale"
                )
            }
            SpecError::StormIndexOutOfRange { index } => {
                write!(
                    f,
                    "incident {index}: an arrival storm's plan index must be below 65536"
                )
            }
            SpecError::ServeZeroQueueBound => {
                write!(f, "serving tier needs a non-zero request-queue bound")
            }
            SpecError::ServeZeroTargetRate => {
                write!(f, "serving tier needs a positive, finite target rate")
            }
            SpecError::ServeShedThresholdTooHigh => {
                write!(f, "admission shed threshold must be below the queue bound")
            }
            SpecError::ServeStormPastHorizon { index } => {
                write!(
                    f,
                    "incident {index}: arrival storm window extends past the workload horizon"
                )
            }
            SpecError::ServeDeadlineTooShort => {
                write!(
                    f,
                    "serve deadline is shorter than the base decision time; every request would expire"
                )
            }
            SpecError::ServeInvalidBreaker => {
                write!(
                    f,
                    "breaker config is degenerate (threshold and base backoff must be non-zero, \
                     max backoff >= base, jitter in [0, 1))"
                )
            }
            SpecError::ServeInvalidArrival => {
                write!(f, "serving arrival process has degenerate parameters")
            }
            SpecError::ServeInvalidEpoch => {
                write!(
                    f,
                    "serve epoch must be non-zero and split the horizon into at most {MAX_EPOCHS} epochs"
                )
            }
        }
    }
}

impl Error for SpecError {}

impl ExperimentSpec {
    /// Start building a spec fluently.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// Check the spec for configurations that cannot produce a meaningful
    /// run.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.workload.hosts == 0 {
            return Err(SpecError::ZeroHosts);
        }
        if self.workload.duration.is_zero() {
            return Err(SpecError::ZeroHorizon);
        }
        let positive = |total: f64| total > 0.0 && total.is_finite();
        let categories = &self.workload.categories;
        if !positive(categories.iter().map(|c| c.arrival_weight).sum()) {
            return Err(SpecError::EmptyWorkloadMix);
        }
        if let Some(c) = categories.iter().find(|c| {
            c.shapes.is_empty() || !positive(c.lifetime_modes.iter().map(|m| m.weight).sum())
        }) {
            return Err(SpecError::EmptyCategory {
                category_id: c.category_id,
            });
        }
        if self.cadence.tick_interval.is_zero() {
            return Err(SpecError::ZeroTickInterval);
        }
        if self.cadence.sample_interval.is_zero() {
            return Err(SpecError::ZeroSampleInterval);
        }
        match self.predictor {
            PredictorSpec::Noisy { accuracy_pct, .. } if accuracy_pct > 100 => {
                return Err(SpecError::AccuracyOutOfRange);
            }
            PredictorSpec::Learned if !positive(self.workload.target_utilization) => {
                return Err(SpecError::LearnedWithoutTrainingData);
            }
            _ => {}
        }
        let workload = &self.workload;
        if !(0.0..=1.0).contains(&workload.target_utilization) {
            return Err(SpecError::InvalidTargetUtilization);
        }
        if !workload.weekly_drift.is_finite() || workload.weekly_drift <= 0.0 {
            return Err(SpecError::InvalidWeeklyDrift);
        }
        if capacity_overflows(
            workload.hosts,
            workload.host_cores,
            workload.host_memory_gib,
        ) {
            return Err(SpecError::HostShapeOverflow { cell: None });
        }
        if self.cadence.defrag_trigger.is_some_and(|d| d.is_zero()) {
            return Err(SpecError::ZeroDefragInterval);
        }
        if self
            .adaptation
            .recalibration
            .is_some_and(|r| r.cadence.is_zero())
        {
            return Err(SpecError::ZeroRecalibrationCadence);
        }
        if let Some(fleet) = &self.fleet {
            if fleet.cells == 0 {
                return Err(SpecError::FleetZeroCells);
            }
            if fleet.summary_refresh.is_zero() {
                return Err(SpecError::FleetZeroSummaryRefresh);
            }
            if fleet
                .overrides
                .iter()
                .any(|o| o.cell as usize >= fleet.cells)
            {
                return Err(SpecError::FleetOverrideOutOfRange);
            }
            // Before `cell_layout` multiplies the shapes out.
            if let Some(o) = fleet.overrides.iter().find(|o| {
                let (hosts, cores, memory_gib, _) =
                    fleet.cell_shape(&self.workload, o.cell as usize);
                capacity_overflows(hosts, cores, memory_gib)
            }) {
                return Err(SpecError::HostShapeOverflow { cell: Some(o.cell) });
            }
            if fleet
                .cell_layout(&self.workload)
                .iter()
                .any(|(_, hosts, _)| *hosts == 0)
            {
                return Err(SpecError::FleetEmptyCell);
            }
            if self.record_predictions && fleet.cells > 1 {
                return Err(SpecError::FleetRecordingUnsupported);
            }
        }
        let cells = self.fleet.as_ref().map_or(1, |f| f.cells);
        self.incidents.validate(cells)?;
        if let Some(serve) = &self.serve {
            if serve.queue_bound == 0 {
                return Err(SpecError::ServeZeroQueueBound);
            }
            if !serve.target_rate_per_sec.is_finite() || serve.target_rate_per_sec <= 0.0 {
                return Err(SpecError::ServeZeroTargetRate);
            }
            if let Some(threshold) = serve.admission.shed_threshold() {
                if threshold >= serve.queue_bound {
                    return Err(SpecError::ServeShedThresholdTooHigh);
                }
            }
            match serve.arrival {
                ArrivalProcess::Poisson => {}
                ArrivalProcess::Burst {
                    period,
                    burst_len,
                    amplitude,
                } => {
                    if period.is_zero()
                        || burst_len.is_zero()
                        || burst_len >= period
                        || !amplitude.is_finite()
                        || amplitude <= 0.0
                    {
                        return Err(SpecError::ServeInvalidArrival);
                    }
                }
                ArrivalProcess::Diurnal { period, amplitude } => {
                    if period.is_zero() || !(0.0..1.0).contains(&amplitude) {
                        return Err(SpecError::ServeInvalidArrival);
                    }
                }
            }
            if let Some(deadline) = serve.deadline {
                if deadline < Micros(serve.service.base_decision_us) {
                    return Err(SpecError::ServeDeadlineTooShort);
                }
            }
            if let Some(breakers) = serve.breakers {
                if breakers.failure_threshold == 0
                    || breakers.base_backoff_us == 0
                    || breakers.max_backoff_us < breakers.base_backoff_us
                    || !(0.0..1.0).contains(&breakers.jitter)
                {
                    return Err(SpecError::ServeInvalidBreaker);
                }
            }
            let horizon = Micros::from_duration(self.workload.duration);
            if let Some(epoch) = serve.epoch {
                if epoch.as_micros() == 0
                    || horizon.as_micros() / epoch.as_micros() > MAX_EPOCHS as u64
                {
                    return Err(SpecError::ServeInvalidEpoch);
                }
            }
            for (index, incident) in self.incidents.incidents.iter().enumerate() {
                if let Incident::ArrivalStorm { at, duration, .. } = incident {
                    if Micros::from_duration(*at) + Micros::from_duration(*duration) > horizon {
                        return Err(SpecError::ServeStormPastHorizon { index });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialise the spec as pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a spec from JSON (does not validate; call
    /// [`ExperimentSpec::validate`] or [`Experiment::new`]).
    pub fn from_json(json: &str) -> Result<ExperimentSpec, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Generate the workload trace this spec describes (deterministic in
    /// the workload seed).
    pub fn generate_trace(&self) -> Trace {
        WorkloadGenerator::new(self.workload.clone()).generate()
    }
}

/// Fluent builder over [`ExperimentSpec`].
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    spec: ExperimentSpec,
}

impl ExperimentBuilder {
    /// Start from the default spec (default workload, oracle predictor,
    /// baseline policy, default cadence).
    pub fn new() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Set the experiment name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Replace the whole workload configuration.
    pub fn workload(mut self, workload: PoolConfig) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Set the number of hosts.
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.spec.workload.hosts = hosts;
        self
    }

    /// Set the trace duration (the experiment horizon).
    pub fn duration(mut self, duration: Duration) -> Self {
        self.spec.workload.duration = duration;
        self
    }

    /// Set the workload RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.workload.seed = seed;
        self
    }

    /// Choose the predictor.
    pub fn predictor(mut self, predictor: PredictorSpec) -> Self {
        self.spec.predictor = predictor;
        self
    }

    /// Choose the evaluated algorithm (with default policy knobs).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.spec.policy = PolicySpec::new(algorithm);
        self
    }

    /// Replace the whole policy spec.
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Enable or disable repredictions on the policy.
    pub fn repredict(mut self, repredict: bool) -> Self {
        self.spec.policy.repredict = repredict;
        self
    }

    /// Set the warm-up duration (zero for a cold start).
    pub fn warmup(mut self, warmup: Duration) -> Self {
        self.spec.cadence.warmup = warmup;
        self
    }

    /// Set the tick interval.
    pub fn tick_interval(mut self, interval: Duration) -> Self {
        self.spec.cadence.tick_interval = interval;
        self
    }

    /// Set the metric sample interval.
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.spec.cadence.sample_interval = interval;
        self
    }

    /// Fire defragmentation triggers every `interval`.
    pub fn defrag_every(mut self, interval: Duration) -> Self {
        self.spec.cadence.defrag_trigger = Some(interval);
        self
    }

    /// Shard the workload into a fleet of cells behind a router.
    pub fn fleet(mut self, fleet: FleetConfig) -> Self {
        self.spec.fleet = Some(fleet);
        self
    }

    /// Schedule a fault-injection plan on the run.
    pub fn incidents(mut self, incidents: IncidentPlan) -> Self {
        self.spec.incidents = incidents;
        self
    }

    /// Enable adaptive model management (online recalibration).
    pub fn adaptation(mut self, adaptation: AdaptationSpec) -> Self {
        self.spec.adaptation = adaptation;
        self
    }

    /// Attach a serving-tier configuration (online placement service).
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.spec.serve = Some(serve);
        self
    }

    /// Record predictions made during the primary run.
    pub fn record_predictions(mut self, record: bool) -> Self {
        self.spec.record_predictions = record;
        self
    }

    /// Validate and return the spec.
    pub fn build(self) -> Result<ExperimentSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Validate, build and run the experiment in one call.
    pub fn run(self) -> Result<ExperimentReport, SpecError> {
        Ok(Experiment::new(self.build()?)?.run())
    }
}

/// Everything an experiment produced, assembled from observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// The spec's name.
    pub name: String,
    /// The run's result.
    pub result: SimulationResult,
    /// Fleet-tier outcome (specs with a [`FleetConfig`] only): per-cell
    /// results plus the router that made the assignments. The fleet-wide
    /// aggregate is also surfaced as [`ExperimentReport::result`].
    #[serde(default)]
    pub fleet: Option<FleetReport>,
    /// Recorded predictions, when `record_predictions` was set.
    pub predictions: Vec<PredictionRecord>,
}

/// A validated, runnable experiment.
///
/// The memoised artifacts (trace, predictor) live in shared, thread-safe
/// cells: cloning an experiment — or adopting a donor's cells via
/// [`Experiment::share_artifacts_from`] — shares the cells, so whichever
/// arm of a sweep (or thread of an [`crate::suite::ExperimentSuite`])
/// needs an artifact first computes it exactly once for everyone.
#[derive(Clone)]
pub struct Experiment {
    spec: ExperimentSpec,
    /// Memoised trace cell: generation is deterministic in the spec, so
    /// every experiment sharing this cell generates it at most once.
    trace_cache: Arc<OnceLock<Arc<Trace>>>,
    /// Memoised predictor cell (GBDT training is the expensive case).
    predictor_cache: Arc<OnceLock<Arc<dyn LifetimePredictor>>>,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Validate a spec and wrap it as a runnable experiment.
    pub fn new(spec: ExperimentSpec) -> Result<Experiment, SpecError> {
        spec.validate()?;
        Ok(Experiment {
            spec,
            trace_cache: Arc::new(OnceLock::new()),
            predictor_cache: Arc::new(OnceLock::new()),
        })
    }

    /// Start building an experiment fluently.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The experiment's workload trace (generated at most once per shared
    /// cache cell) — the one event feed of every run the experiment
    /// performs. Runs that must not materialise their workload hand a
    /// [`StreamingWorkload`](crate::workload::StreamingWorkload) to
    /// [`drive`] or [`fleet::run_fleet`] directly.
    pub fn trace(&self) -> &Trace {
        self.trace_cache
            .get_or_init(|| Arc::new(self.spec.generate_trace()))
    }

    /// Inject a pre-recorded trace into the experiment's trace cell (e.g.
    /// one loaded from a `--trace-in` file) instead of generating one from
    /// the workload spec. Returns `false` — and changes nothing — if the
    /// cell was already populated (or shared and populated elsewhere);
    /// inject before the first [`Experiment::trace`] call.
    pub fn set_trace(&self, trace: Trace) -> bool {
        self.trace_cache.set(Arc::new(trace)).is_ok()
    }

    /// Inject a predictor into the experiment's predictor cell, as
    /// [`Experiment::set_trace`] does a trace: `false`, and no change, if
    /// the cell was already populated.
    #[cfg(test)]
    pub(crate) fn set_predictor(&self, predictor: Arc<dyn LifetimePredictor>) -> bool {
        self.predictor_cache.set(predictor).is_ok()
    }

    /// The experiment's predictor (built — and for the learned spec,
    /// trained — at most once per shared cache cell).
    pub fn predictor(&self) -> Arc<dyn LifetimePredictor> {
        self.predictor_cache
            .get_or_init(|| self.spec.predictor.build(&self.spec.workload))
            .clone()
    }

    /// Adopt `donor`'s artifact cells where the specs agree: the trace
    /// cell when both experiments describe the identical workload, the
    /// predictor cell when the predictor spec also matches. Sharing is
    /// *lazy*: the cells are shared even before anything is materialised,
    /// so whichever experiment needs the artifact first computes it for
    /// both (including across suite threads — the cells are thread-safe).
    /// Generation is deterministic in the workload, so sharing never
    /// changes results. A no-op when the specs differ.
    pub fn share_artifacts_from(&mut self, donor: &Experiment) {
        if self.spec.workload != donor.spec.workload {
            return;
        }
        self.trace_cache = Arc::clone(&donor.trace_cache);
        if self.spec.predictor == donor.spec.predictor {
            self.predictor_cache = Arc::clone(&donor.predictor_cache);
        }
    }

    /// Run the experiment with the built-in observers only.
    pub fn run(&self) -> ExperimentReport {
        self.run_once(&mut [])
    }

    /// Run the experiment with additional observers attached after the
    /// built-in metric recorder, in slice order. This is how a run is
    /// measured beyond its metric series: a
    /// [`StrandingProbe`](crate::observer::StrandingProbe) for the §2.3
    /// stranding numbers, an
    /// [`EvacuationCollector`](crate::defrag::EvacuationCollector) (with
    /// [`Cadence::defrag_trigger`] set) for the Table 2 migration study.
    ///
    /// # Panics
    ///
    /// Panics when the spec's fleet tier has more than one cell and
    /// `extra` is non-empty: cells run in parallel, so a shared observer
    /// could not see a deterministic event order. Multi-cell runs report
    /// through the per-cell results on [`ExperimentReport::fleet`]
    /// instead. A spec without a fleet tier, or with a 1-cell one, takes
    /// any observers.
    pub fn run_with_observers(&self, extra: &mut [&mut dyn SimObserver]) -> ExperimentReport {
        self.run_once(extra)
    }

    /// One full replay of the workload through the fleet engine: the
    /// spec's fleet tier, or a 1-cell fleet when it has none. The pool is
    /// sharded into cells ([`FleetConfig::build_cells`]), each cell gets
    /// its own policies ([`phase_policies`]), and [`fleet::run_fleet`]'s
    /// engine drives them over the experiment's
    /// [event feed](Experiment::event_source) behind the configured
    /// router.
    fn run_once(&self, extra: &mut [&mut dyn SimObserver]) -> ExperimentReport {
        let spec = &self.spec;
        let fleet_config = spec.fleet.clone().unwrap_or_else(|| FleetConfig::new(1));
        let predictor = self.predictor();
        let timing = spec.cadence.timing();
        // Recording (1-cell fleets only, see `validate`) wraps the base
        // predictor; any chaos swap then wraps the recorder.
        let recorder = spec
            .record_predictions
            .then(|| RecordingPredictor::new(predictor.clone()));
        let base: Arc<dyn LifetimePredictor> = match &recorder {
            Some(recorder) => recorder.clone(),
            None => predictor.clone(),
        };
        // With an incident plan or adaptation knobs, every cell gets its
        // own swappable predictor seam; the cell's policies are built over
        // the same swap so degradations reach placement decisions too. The
        // router keeps the base predictor (see FleetChaos docs).
        let chaos_active = !spec.incidents.is_empty() || !spec.adaptation.is_empty();
        let chaos = chaos_active.then(|| FleetChaos {
            incidents: spec.incidents.clone(),
            adaptation: spec.adaptation,
            swaps: (0..fleet_config.cells)
                .map(|_| SwappablePredictor::new(base.clone()))
                .collect(),
        });
        let cells = fleet_config.build_cells(&spec.workload, |cell| {
            let cell_predictor: Arc<dyn LifetimePredictor> = match &chaos {
                Some(chaos) => chaos.swaps[cell.0 as usize].clone(),
                None => base.clone(),
            };
            phase_policies(&spec.policy, cell_predictor, &timing)
        });
        let mut source = self.event_source();
        let outcome = fleet::run_fleet_observed(
            cells,
            base,
            fleet_config.router,
            fleet_config.summary_refresh,
            &timing,
            source.as_mut(),
            fleet_config.threads,
            chaos.as_ref(),
            extra,
        );
        let report = FleetReport::from_outcome(
            outcome,
            fleet_config.router,
            &spec.policy.display_name(),
            predictor.name(),
        );
        let (result, fleet) = match spec.fleet {
            Some(_) => (report.fleet.clone(), Some(report)),
            None => (report.fleet, None),
        };
        ExperimentReport {
            name: spec.name.clone(),
            result,
            fleet,
            predictions: recorder.map(|r| r.records()).unwrap_or_default(),
        }
    }

    /// The event feed of one run: a fresh
    /// [`TraceSource`](crate::trace::TraceSource) over the memoised trace.
    /// Drift shifts and arrival storms rewrite the stream itself (for a
    /// fleet: fleet-wide, before routing), so a plan that schedules any
    /// wraps the replay in a [`ChaosSource`].
    fn event_source(&self) -> Box<dyn EventSource + '_> {
        let replay = Box::new(self.trace().source());
        if self.spec.incidents.needs_source() {
            Box::new(ChaosSource::new(replay, &self.spec.incidents))
        } else {
            replay
        }
    }
}

/// The policy a cluster starts under and the one it switches to at the
/// warm-up boundary: the production baseline with `policy` deferred when
/// `timing` warms up under the baseline, else `policy` from the first
/// placement. Both are built over `predictor`.
fn phase_policies(
    policy: &PolicySpec,
    predictor: Arc<dyn LifetimePredictor>,
    timing: &DriveTiming,
) -> (Box<dyn PlacementPolicy>, Option<Box<dyn PlacementPolicy>>) {
    let evaluated = policy.build(predictor.clone());
    if timing.warmup_with_baseline && !timing.warmup.is_zero() {
        (Algorithm::Baseline.build_policy(predictor), Some(evaluated))
    } else {
        (evaluated, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CellOverride;
    use lava_core::time::SimTime;

    fn tiny_builder() -> ExperimentBuilder {
        Experiment::builder()
            .name("tiny")
            .hosts(24)
            .duration(Duration::from_days(2))
            .seed(3)
            .warmup(Duration::from_hours(6))
    }

    #[test]
    fn builder_defaults_validate() {
        let spec = ExperimentBuilder::new().build().expect("defaults valid");
        assert_eq!(spec.name, "experiment");
        assert_eq!(spec.policy.algorithm, Algorithm::Baseline);
        assert_eq!(spec.cadence, Cadence::default());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert_eq!(
            ExperimentBuilder::new().hosts(0).build().unwrap_err(),
            SpecError::ZeroHosts
        );
        assert_eq!(
            ExperimentBuilder::new()
                .duration(Duration::ZERO)
                .build()
                .unwrap_err(),
            SpecError::ZeroHorizon
        );
        assert_eq!(
            ExperimentBuilder::new()
                .tick_interval(Duration::ZERO)
                .build()
                .unwrap_err(),
            SpecError::ZeroTickInterval
        );
        assert_eq!(
            ExperimentBuilder::new()
                .sample_interval(Duration::ZERO)
                .build()
                .unwrap_err(),
            SpecError::ZeroSampleInterval
        );
        assert_eq!(
            ExperimentBuilder::new()
                .predictor(PredictorSpec::Noisy {
                    accuracy_pct: 101,
                    bias_pct: 0
                })
                .build()
                .unwrap_err(),
            SpecError::AccuracyOutOfRange
        );
        assert_eq!(
            ExperimentBuilder::new()
                .defrag_every(Duration::ZERO)
                .build()
                .unwrap_err(),
            SpecError::ZeroDefragInterval
        );
        assert_eq!(
            ExperimentBuilder::new()
                .adaptation(AdaptationSpec {
                    recalibration: Some(crate::chaos::RecalibrationSpec {
                        cadence: Duration::ZERO,
                        min_samples: 16,
                    }),
                })
                .build()
                .unwrap_err(),
            SpecError::ZeroRecalibrationCadence
        );
        let mut spec = ExperimentSpec::default();
        spec.workload.categories.clear();
        assert_eq!(spec.validate().unwrap_err(), SpecError::EmptyWorkloadMix);
        assert!(!SpecError::ZeroHosts.to_string().is_empty());
    }

    #[test]
    fn a_learned_predictor_over_a_workload_without_vms_is_refused() {
        // No arrivals and no standing population: the trainer would get
        // an empty dataset.
        let mut spec = ExperimentSpec::default();
        spec.workload.target_utilization = 0.0;
        spec.workload.initial_fill_fraction = 0.0;
        assert_eq!(spec.validate(), Ok(()), "any other predictor runs it");
        spec.predictor = PredictorSpec::Learned;
        assert_eq!(
            Experiment::new(spec.clone()).unwrap_err(),
            SpecError::LearnedWithoutTrainingData
        );
        // A standing population needs arrivals too: the fill is a share
        // of the steady state the arrival rate sets.
        spec.workload.initial_fill_fraction = 0.85;
        assert_eq!(
            spec.validate().unwrap_err(),
            SpecError::LearnedWithoutTrainingData
        );
        for degenerate in [-0.5, f64::NAN, f64::INFINITY] {
            spec.workload.target_utilization = degenerate;
            assert_eq!(
                spec.validate().unwrap_err(),
                SpecError::LearnedWithoutTrainingData
            );
        }
        spec.workload.target_utilization = 0.75;
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn a_target_utilization_outside_the_unit_interval_is_refused() {
        let mut spec = ExperimentSpec::default();
        for degenerate in [-0.5, 1.5, 50.0, f64::NAN, f64::INFINITY] {
            spec.workload.target_utilization = degenerate;
            assert_eq!(
                spec.validate().unwrap_err(),
                SpecError::InvalidTargetUtilization
            );
        }
        for bound in [0.0, 1.0] {
            spec.workload.target_utilization = bound;
            assert_eq!(spec.validate(), Ok(()));
        }
    }

    #[test]
    fn a_non_positive_or_non_finite_weekly_drift_is_refused() {
        let mut spec = ExperimentSpec::default();
        for degenerate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            spec.workload.weekly_drift = degenerate;
            assert_eq!(spec.validate().unwrap_err(), SpecError::InvalidWeeklyDrift);
        }
        spec.workload.weekly_drift = 0.5;
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn a_host_shape_whose_capacity_overflows_is_refused() {
        let overflow = |spec: &ExperimentSpec| spec.validate().unwrap_err();
        let mut spec = ExperimentSpec::default();
        spec.workload.host_cores = u64::MAX;
        assert_eq!(overflow(&spec), SpecError::HostShapeOverflow { cell: None });
        // Per host it fits; over the pool's hosts it does not.
        spec.workload.host_cores = u64::MAX / 1000;
        spec.workload.hosts = 2;
        assert_eq!(overflow(&spec), SpecError::HostShapeOverflow { cell: None });
        spec.workload.host_cores = 64;
        spec.workload.host_memory_gib = u64::MAX / 1024 + 1;
        spec.workload.hosts = 1;
        assert_eq!(overflow(&spec), SpecError::HostShapeOverflow { cell: None });
        spec.workload = PoolConfig::default();
        assert_eq!(spec.validate(), Ok(()));

        // A fleet override's shape is checked too, over its host count.
        let shaped = |cores, memory_gib| {
            FleetConfig::new(2)
                .with_override(CellOverride::new(1).with_host_shape(cores, memory_gib))
        };
        spec.fleet = Some(shaped(u64::MAX, 256));
        let err = overflow(&spec);
        assert_eq!(err, SpecError::HostShapeOverflow { cell: Some(1) });
        assert!(err.to_string().contains("cell 1"));
        spec.fleet = Some(shaped(64, u64::MAX / 1024 + 1));
        assert_eq!(
            overflow(&spec),
            SpecError::HostShapeOverflow { cell: Some(1) }
        );
        let many = CellOverride::new(1).with_hosts(usize::MAX / 2);
        spec.fleet = Some(shaped(64, 256).with_override(many));
        assert_eq!(
            overflow(&spec),
            SpecError::HostShapeOverflow { cell: Some(1) }
        );
        spec.fleet = Some(shaped(96, 384));
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_degenerate_serve_configs() {
        use crate::arrivals::{AdmissionPolicy, ArrivalProcess, ServeConfig};
        let reject = |serve: ServeConfig, expected: SpecError| {
            let err = ExperimentBuilder::new().serve(serve).build().unwrap_err();
            assert_eq!(err, expected);
            assert!(!err.to_string().is_empty());
        };
        reject(
            ServeConfig::default().with_queue_bound(0),
            SpecError::ServeZeroQueueBound,
        );
        reject(ServeConfig::at_rate(0.0), SpecError::ServeZeroTargetRate);
        reject(ServeConfig::at_rate(-5.0), SpecError::ServeZeroTargetRate);
        reject(
            ServeConfig::at_rate(f64::INFINITY),
            SpecError::ServeZeroTargetRate,
        );
        reject(
            ServeConfig::at_rate(f64::NAN),
            SpecError::ServeZeroTargetRate,
        );
        reject(
            ServeConfig::default()
                .with_queue_bound(64)
                .with_admission(AdmissionPolicy::DepthShed { shed_threshold: 64 }),
            SpecError::ServeShedThresholdTooHigh,
        );
        reject(
            ServeConfig::default().with_arrival(ArrivalProcess::Burst {
                period: Duration::from_secs(60),
                burst_len: Duration::from_secs(60),
                amplitude: 4.0,
            }),
            SpecError::ServeInvalidArrival,
        );
        reject(
            ServeConfig::default().with_arrival(ArrivalProcess::Burst {
                period: Duration::from_secs(60),
                burst_len: Duration::from_secs(10),
                amplitude: 0.0,
            }),
            SpecError::ServeInvalidArrival,
        );
        reject(
            ServeConfig::default().with_arrival(ArrivalProcess::Diurnal {
                period: Duration::ZERO,
                amplitude: 0.5,
            }),
            SpecError::ServeInvalidArrival,
        );
        reject(
            ServeConfig::default().with_arrival(ArrivalProcess::Diurnal {
                period: Duration::from_hours(24),
                amplitude: 1.0,
            }),
            SpecError::ServeInvalidArrival,
        );

        // Well-formed serve configs (including the shedding policies at a
        // legal threshold) pass.
        let ok = ExperimentBuilder::new()
            .serve(
                ServeConfig::at_rate(50.0)
                    .with_queue_bound(64)
                    .with_admission(AdmissionPolicy::LifetimeShed {
                        shed_threshold: 32,
                        min_predicted: Duration::from_hours(1),
                    })
                    .with_arrival(ArrivalProcess::Burst {
                        period: Duration::from_secs(60),
                        burst_len: Duration::from_secs(10),
                        amplitude: 6.0,
                    }),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn serve_epoch_finer_than_the_series_cap_is_rejected() {
        use crate::arrivals::ServeConfig;
        // 5 s = 5 000 000 µs: a 4 µs epoch makes 1 250 000 > 2^20 epochs,
        // a 5 µs epoch 1 000 000.
        let serve_epoch = |epoch: u64| {
            ExperimentBuilder::new()
                .hosts(8)
                .duration(Duration::from_secs(5))
                .serve(ServeConfig::at_rate(50.0).with_epoch(Micros(epoch)))
                .build()
        };
        for epoch in [0, 1, 4] {
            let err = serve_epoch(epoch).unwrap_err();
            assert_eq!(err, SpecError::ServeInvalidEpoch, "epoch {epoch} µs");
            assert!(err.to_string().contains(&MAX_EPOCHS.to_string()));
        }
        assert!(serve_epoch(5).is_ok());
        assert!(serve_epoch(1_000_000).is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_serve_chaos_combos() {
        use crate::arrivals::{BreakerConfig, ServeConfig};
        use lava_core::serve::Micros;

        // A storm window that extends past the workload horizon is invalid
        // *for serving runs* (the service stops offering at the horizon)…
        let storm_past_horizon = IncidentPlan {
            seed: 7,
            incidents: vec![Incident::ArrivalStorm {
                at: Duration::from_mins(9),
                duration: Duration::from_mins(2),
                vms: 50,
                cores: None,
                lifetime: None,
            }],
        };
        let err = ExperimentBuilder::new()
            .duration(Duration::from_mins(10))
            .serve(ServeConfig::at_rate(50.0))
            .incidents(storm_past_horizon.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::ServeStormPastHorizon { index: 0 });
        assert!(!err.to_string().is_empty());
        // …but fine for batch runs, where ChaosSource clamps to the trace.
        assert!(ExperimentBuilder::new()
            .duration(Duration::from_mins(10))
            .incidents(storm_past_horizon)
            .build()
            .is_ok());

        // A deadline below the base decision time can never be met.
        let err = ExperimentBuilder::new()
            .serve(ServeConfig::at_rate(50.0).with_deadline(Micros(100)))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::ServeDeadlineTooShort);
        assert!(!err.to_string().is_empty());
        assert!(ExperimentBuilder::new()
            .serve(ServeConfig::at_rate(50.0).with_deadline(Micros::from_millis(50)))
            .build()
            .is_ok());

        // Degenerate breaker tunings.
        for breakers in [
            BreakerConfig {
                failure_threshold: 0,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                base_backoff_us: 0,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                base_backoff_us: 1000,
                max_backoff_us: 500,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                jitter: 1.0,
                ..BreakerConfig::default()
            },
            BreakerConfig {
                jitter: -0.1,
                ..BreakerConfig::default()
            },
        ] {
            let err = ExperimentBuilder::new()
                .serve(ServeConfig::at_rate(50.0).with_breakers(breakers))
                .build()
                .unwrap_err();
            assert_eq!(err, SpecError::ServeInvalidBreaker);
            assert!(!err.to_string().is_empty());
        }
        assert!(ExperimentBuilder::new()
            .serve(ServeConfig::at_rate(50.0).with_breakers(BreakerConfig::default()))
            .build()
            .is_ok());
    }

    #[test]
    fn steady_state_runs_and_reports() {
        let report = tiny_builder()
            .algorithm(Algorithm::Nilas)
            .run()
            .expect("valid spec");
        assert_eq!(report.name, "tiny");
        assert_eq!(report.result.algorithm, "nilas");
        assert_eq!(report.result.predictor, "oracle");
        assert!(report.result.series.len() > 10);
        assert!(report.result.scheduler_stats.placed > 100);
    }

    #[test]
    fn cold_start_samples_from_time_zero() {
        let report = tiny_builder()
            .algorithm(Algorithm::Nilas)
            .warmup(Duration::ZERO)
            .run()
            .expect("valid spec");
        assert_eq!(report.result.series.samples()[0].time, SimTime::ZERO);
    }

    #[test]
    fn ab_split_compares_arms_against_control() {
        // An A/B split is a suite of single-policy arms over one workload;
        // arm 0 is the control.
        let suite = crate::suite::ExperimentSuite::from_specs(
            [Algorithm::Baseline, Algorithm::Nilas]
                .map(|algorithm| tiny_builder().algorithm(algorithm).build().expect("valid")),
        )
        .expect("valid specs");
        let arms = suite.experiments();
        assert!(std::ptr::eq(arms[0].trace(), arms[1].trace()));
        let reports = suite.run();
        assert_eq!(reports.len(), 2);
        let (control, treated) = (&reports[0].result, &reports[1].result);
        let ab = crate::ab::paired_comparison(
            &treated.series.empty_host_series(),
            &control.series.empty_host_series(),
        );
        assert!(ab.samples > 10);
        assert_eq!(treated.algorithm, "nilas");
        assert_eq!(control.algorithm, "baseline");
    }

    #[test]
    fn pre_post_produces_causal_report() {
        // A rollout is a treated arm and a baseline control arm over one
        // workload, both sampling from time zero.
        let warmup = Duration::from_days(1);
        let treated = tiny_builder()
            .algorithm(Algorithm::Nilas)
            .warmup(warmup)
            .build()
            .expect("valid");
        let suite =
            crate::suite::ExperimentSuite::from_specs(crate::causal::pre_post_arms(treated))
                .expect("valid specs");
        let reports = suite.run();
        let (treated, control) = (&reports[0].result, &reports[1].result);
        assert_eq!(treated.series.samples()[0].time, SimTime::ZERO);
        assert_eq!(control.series.samples()[0].time, SimTime::ZERO);
        let causal = crate::causal::pre_post_impact(treated, control, SimTime::ZERO + warmup);
        assert!(!causal.counterfactual.is_empty());
        // The counterfactual covers the post-switch samples.
        let switch = treated.series.since(SimTime::ZERO + warmup).len();
        assert_eq!(causal.counterfactual.len(), switch);
    }

    #[test]
    fn stranding_scenario_attaches_report() {
        let experiment = Experiment::new(tiny_builder().build().expect("valid")).expect("valid");
        let mut probe =
            crate::observer::StrandingProbe::new(12, crate::stranding::InflationMix::default());
        experiment.run_with_observers(&mut [&mut probe]);
        assert!(probe.measurements() > 0);
        let stranding = probe.average().expect("stranding measured");
        assert!(stranding.stranded_cpu_fraction >= 0.0);
    }

    #[test]
    fn record_predictions_surfaces_records() {
        let report = tiny_builder()
            .algorithm(Algorithm::Nilas)
            .record_predictions(true)
            .run()
            .expect("valid spec");
        assert!(!report.predictions.is_empty());
        assert!(report.predictions.iter().all(|r| r.log10_error() == 0.0));
    }

    #[test]
    fn share_artifacts_reuses_trace_and_predictor_only_when_specs_match() {
        let donor = Experiment::new(tiny_builder().build().expect("valid")).expect("valid");

        // Same workload + predictor: both artifact cells adopted *before*
        // anything is materialised (sharing is lazy) — the first user
        // computes for both, so the allocations are literally shared.
        let mut same = Experiment::new(
            tiny_builder()
                .algorithm(Algorithm::Lava)
                .build()
                .expect("valid"),
        )
        .expect("valid");
        same.share_artifacts_from(&donor);
        assert!(std::ptr::eq(same.trace(), donor.trace()));
        assert!(Arc::ptr_eq(&same.predictor(), &donor.predictor()));

        // Different workload: nothing adopted, results stay governed by the
        // receiver's own spec.
        let mut other =
            Experiment::new(tiny_builder().seed(99).build().expect("valid")).expect("valid");
        other.share_artifacts_from(&donor);
        assert_ne!(other.trace().events(), donor.trace().events());

        // Same workload, different predictor: trace adopted, predictor not.
        let mut noisy = Experiment::new(
            tiny_builder()
                .predictor(PredictorSpec::Noisy {
                    accuracy_pct: 80,
                    bias_pct: 0,
                })
                .build()
                .expect("valid"),
        )
        .expect("valid");
        noisy.share_artifacts_from(&donor);
        assert_eq!(noisy.trace().events(), donor.trace().events());
        assert_eq!(noisy.predictor().name(), "noisy-oracle");

        // Cloning shares the cells too.
        let clone = donor.clone();
        assert!(std::ptr::eq(clone.trace(), donor.trace()));
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = tiny_builder()
            .algorithm(Algorithm::Lava)
            .predictor(PredictorSpec::Noisy {
                accuracy_pct: 90,
                bias_pct: 0,
            })
            .build()
            .expect("valid");
        let json = spec.to_json().expect("serializes");
        let parsed = ExperimentSpec::from_json(&json).expect("parses");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn policy_spec_knobs_build() {
        let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        for algorithm in Algorithm::ALL {
            let spec = PolicySpec::new(algorithm)
                .with_cache(CachePolicy::RefreshSecs(0))
                .without_reprediction();
            let policy = spec.build(predictor.clone());
            assert!(!policy.name().is_empty());
            assert_eq!(spec.display_name(), algorithm.to_string());
        }
        let labeled = PolicySpec::new(Algorithm::Nilas)
            .with_cache(CachePolicy::RefreshSecs(60))
            .labeled("nilas[1m]");
        assert_eq!(labeled.display_name(), "nilas[1m]");
    }

    #[test]
    fn predictor_specs_build_and_label() {
        let workload = PoolConfig {
            hosts: 8,
            duration: Duration::from_days(1),
            ..PoolConfig::small(5)
        };
        assert_eq!(PredictorSpec::Oracle.label(), "oracle");
        assert_eq!(
            PredictorSpec::Noisy {
                accuracy_pct: 80,
                bias_pct: 0
            }
            .label(),
            "noisy-80"
        );
        assert_eq!(PredictorSpec::Learned.label(), "model");
        assert_eq!(PredictorSpec::Oracle.build(&workload).name(), "oracle");
        assert_eq!(
            PredictorSpec::Noisy {
                accuracy_pct: 80,
                bias_pct: 0
            }
            .build(&workload)
            .name(),
            "noisy-oracle"
        );
        // The learned spec serves the compiled engine.
        assert_eq!(PredictorSpec::Learned.build(&workload).name(), "gbdt-fast");
    }

    // --- whole-run behaviour on the small pool ------------------------------

    fn run(algorithm: Algorithm, warmup_hours: u64) -> ExperimentReport {
        Experiment::builder()
            .workload(PoolConfig::small(3))
            .warmup(Duration::from_hours(warmup_hours))
            .algorithm(algorithm)
            .run()
            .expect("valid spec")
    }

    #[test]
    fn baseline_run_produces_samples_and_places_vms() {
        let result = run(Algorithm::Baseline, 6).result;
        assert!(result.series.len() > 10, "samples: {}", result.series.len());
        assert!(result.scheduler_stats.placed > 100);
        assert_eq!(result.rejected_vms, 0, "small pool should fit everything");
        let empty = result.mean_empty_host_fraction();
        assert!(
            (0.0..1.0).contains(&empty),
            "empty host fraction {empty} out of range"
        );
        assert_eq!(result.algorithm, "baseline");
        assert_eq!(result.predictor, "oracle");
    }

    #[test]
    fn lifetime_aware_algorithms_compete_with_best_fit_with_oracle() {
        // On this deliberately tiny pool (24 hosts, 2 days) the absolute
        // differences are small and occasional inversions are expected
        // (§6.1); the large-scale comparison lives in the Fig. 6 bench and
        // the integration tests. Here we only require that the
        // lifetime-aware algorithms are not materially worse.
        let best_fit = run(Algorithm::BestFit, 6).result;
        let nilas = run(Algorithm::Nilas, 6).result;
        let lava = run(Algorithm::Lava, 6).result;
        let tolerance = 0.03;
        assert!(
            nilas.mean_empty_host_fraction() >= best_fit.mean_empty_host_fraction() - tolerance,
            "nilas {} vs best-fit {}",
            nilas.mean_empty_host_fraction(),
            best_fit.mean_empty_host_fraction()
        );
        assert!(
            lava.mean_empty_host_fraction() >= best_fit.mean_empty_host_fraction() - tolerance,
            "lava {} vs best-fit {}",
            lava.mean_empty_host_fraction(),
            best_fit.mean_empty_host_fraction()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Algorithm::Lava, 48).result;
        let b = run(Algorithm::Lava, 48).result;
        assert_eq!(a.series.samples(), b.series.samples());
        assert_eq!(a.scheduler_stats, b.scheduler_stats);
    }

    #[test]
    fn cold_start_skips_warmup() {
        let report = Experiment::builder()
            .workload(PoolConfig::small(3))
            .algorithm(Algorithm::Nilas)
            .warmup(Duration::ZERO)
            .run()
            .expect("valid spec");
        // Without warm-up, samples start at time zero.
        assert_eq!(report.result.series.samples()[0].time, SimTime::ZERO);
    }

    #[test]
    fn simulation_result_serde_round_trips() {
        let result = run(Algorithm::Baseline, 6).result;
        let json = serde_json::to_string(&result).expect("serializes");
        let parsed: SimulationResult = serde_json::from_str(&json).expect("parses");
        assert_eq!(parsed, result);
    }
}
