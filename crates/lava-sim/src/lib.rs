//! Event-driven cluster simulation for the LAVA reproduction.
//!
//! This crate hosts everything the paper's evaluation needs around the
//! scheduler:
//!
//! * [`experiment`] — **the declarative experiment API**: a serializable
//!   [`ExperimentSpec`] of one run (workload × predictor × policy ×
//!   [`Cadence`]), a fluent [`ExperimentBuilder`] and the single
//!   [`Experiment::run`] entry point, which replays the experiment's
//!   memoised trace through the streaming event loop
//!   ([`experiment::drive`], kept in `drive.rs`) or the fleet tier,
//! * [`timeline`] — the unified [`timeline::Timeline`]: one
//!   `BinaryHeap`-ordered queue merging source events, dynamically
//!   scheduled VM exits, tick/sample cadences and defrag triggers,
//! * [`fleet`] — **the fleet tier**: multi-cell clusters behind a
//!   pluggable, lifetime-aware [`fleet::RouterSpec`] consuming
//!   bounded-staleness cell summaries, with deterministic parallel cell
//!   execution on lane threads scoped to the run ([`fleet::run_fleet`]),
//! * [`chaos`] — **deterministic fault injection and adaptation**: the
//!   spec's [`chaos::IncidentPlan`] (cell outages, predictor
//!   degradations, drift shifts, arrival storms) executed by
//!   [`chaos::ChaosSource`] / [`chaos::ChaosController`], plus the
//!   online-recalibration loop of [`chaos::AdaptationSpec`],
//! * [`arrivals`] — **open-loop arrival generation for the serving
//!   tier**: seeded, deterministic [`arrivals::ArrivalProcess`]es
//!   (Poisson / burst / diurnal, mean-rate normalised) and the
//!   declarative [`arrivals::ServeConfig`] riding on the spec,
//! * [`suite`] — [`suite::ExperimentSuite`], parallel multi-arm sweeps,
//!   A/B splits and pre/post arm pairs on scoped threads, with
//!   bit-identical per-arm results,
//! * [`observer`] — the [`SimObserver`] trait, the [`ObserverContext`]
//!   every hook reads, and the provided observers measurement is
//!   composed from ([`observer::MetricRecorder`],
//!   [`observer::StrandingProbe`]),
//! * [`workload`] — synthetic production-like workload generation (the
//!   substitute for Google's C2/E2 production traces): the materialising
//!   [`workload::WorkloadGenerator`] and the lazy, O(pending VMs)
//!   [`workload::StreamingWorkload`] event source,
//! * [`trace`] — trace containers, training-data extraction and the
//!   replaying [`trace::TraceSource`],
//! * [`metrics`] — empty hosts, empty-to-free ratio, packing density,
//!   utilisation, and the [`metrics::SimulationResult`] runs produce,
//! * [`stranding`] — the inflation-simulation stranding pipeline,
//! * [`defrag`] — defragmentation / maintenance: the drain-recording
//!   [`defrag::EvacuationCollector`] observer and the LARS comparison
//!   ([`defrag::DefragReport`]),
//! * [`ab`] — A/B statistics: the paired comparison of two suite arms,
//! * [`causal`] — CausalImpact-style pre/post counterfactual analysis of a
//!   treated arm against its baseline control ([`causal::pre_post_impact`]),
//! * [`validation`] — simulator-vs-trace consistency checking,
//! * [`recording`] — a predictor wrapper that records predictions for error
//!   analysis (driven by `ExperimentSpec::record_predictions`).
//!
//! # Example
//!
//! ```
//! use lava_core::time::Duration;
//! use lava_sched::Algorithm;
//! use lava_sim::experiment::{Experiment, PredictorSpec};
//!
//! let report = Experiment::builder()
//!     .name("quick-nilas")
//!     .hosts(24)
//!     .duration(Duration::from_days(2))
//!     .seed(42)
//!     .predictor(PredictorSpec::Oracle)
//!     .algorithm(Algorithm::Nilas)
//!     .run()
//!     .expect("valid spec");
//! assert!(report.result.mean_empty_host_fraction() >= 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ab;
pub mod arrivals;
pub mod causal;
pub mod chaos;
pub mod defrag;
mod drive;
pub mod experiment;
pub mod fleet;
pub mod metrics;
pub mod observer;
pub mod recording;
pub mod stranding;
pub mod suite;
pub mod timeline;
pub mod trace;
pub mod validation;
pub mod workload;

pub use arrivals::{AdmissionPolicy, ArrivalGenerator, ArrivalProcess, ServeConfig, ServiceModel};
pub use chaos::{AdaptationSpec, Incident, IncidentPlan, OutageMode, RecalibrationSpec};
pub use experiment::{
    Cadence, Experiment, ExperimentBuilder, ExperimentReport, ExperimentSpec, PolicySpec,
    PredictorSpec,
};
pub use fleet::{
    CellOverride, FleetChaos, FleetConfig, FleetReport, FleetWorkerError, Router, RouterSpec,
};
pub use observer::{ObserverContext, SimObserver};
pub use suite::ExperimentSuite;
pub use trace::TraceSource;
pub use workload::StreamingWorkload;
