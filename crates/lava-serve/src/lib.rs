//! The online placement service: the fleet router and cells wrapped as a
//! long-running request/response engine with admission control,
//! backpressure and latency SLOs.
//!
//! Everything else in this workspace is batch simulation — events are
//! consumed as fast as the engine can process them, and the observable is
//! packing quality. A production allocator is a *service*: it answers a
//! live request stream it does not control, and its second observable is
//! **placement latency** under load. This crate adds that axis:
//!
//! ```text
//!   open-loop arrivals          PlacementService
//!  (Poisson/Burst/Diurnal)   ┌───────────────────────────────────────┐
//!  PlaceRequest ────────────▶│ admission ─▶ [bounded queue] ─▶ router│
//!        ▲                   │    │                             │    │
//!        │ Rejected::        │    ▼                             ▼    │
//!        │ {QueueFull, Shed} │  shed /                    cell 0..N  │
//!        ◀───────────────────│  queue-full                (Scheduler)│
//!                            │ one timeline: incidents, refreshes,   │
//!                            │ VM exits, retries in (due, rank) order│
//!                            └───────────────────────────────────────┘
//!                                ServeReport (latency = decided − enqueued)
//! ```
//!
//! * **Admission control** ([`lava_sim::arrivals::AdmissionPolicy`]) runs
//!   at arrival time: naive FIFO admits until the bounded queue is
//!   physically full; depth shedding drops arrivals past a depth
//!   threshold to protect the latency of what is already queued;
//!   lifetime-aware shedding additionally spares requests whose
//!   *predicted* lifetime is long — prediction-informed admission above
//!   the packing layer.
//! * **Backpressure** is explicit: a rejected request gets
//!   [`Rejected::QueueFull`](lava_core::serve::Rejected) or
//!   [`Rejected::Shed`](lava_core::serve::Rejected) with a retry-after
//!   hint, never silence.
//! * **Latency** is tracked per request from enqueue to placement
//!   decision on a microsecond virtual clock
//!   ([`lava_core::serve::Micros`]), with service times derived from the
//!   scheduler's deterministic
//!   [`DecisionCost`](lava_sched::scheduler::DecisionCost) — so p50/p99/
//!   p999 SLO figures replay bit-identically across machines and runs
//!   (asserted via [`ServeReport::decision_digest`]).
//! * **Fault tolerance**: an [`IncidentPlan`](lava_sim::chaos::IncidentPlan)
//!   attached via [`PlacementService::attach_incidents`] schedules cell
//!   outages, predictor degradations and arrival storms on the same
//!   virtual clock. Per-cell circuit breakers ([`health`]) trip after
//!   consecutive failures, fail traffic over to healthy cells with
//!   seeded exponential backoff, and a tripped majority puts the fleet
//!   in *brownout* (conservative routing, tighter shedding). Requests
//!   carry optional deadlines and retry budgets; an expired request
//!   resolves to the [`ServeReport::deadline_exceeded`] outcome rather
//!   than consuming decision capacity.
//!
//! The entry point is [`run_serve`], which runs the serving scenario an
//! [`ExperimentSpec`](lava_sim::experiment::ExperimentSpec) declares
//! through its serde-defaulted `serve` section; [`PlacementService`] is
//! the engine underneath for callers that drive their own request
//! streams.
//!
//! # Example
//!
//! ```
//! use lava_core::time::Duration;
//! use lava_sched::Algorithm;
//! use lava_serve::run_serve;
//! use lava_sim::arrivals::ServeConfig;
//! use lava_sim::experiment::{Experiment, PredictorSpec};
//!
//! let spec = Experiment::builder()
//!     .name("serve-demo")
//!     .hosts(24)
//!     .duration(Duration::from_mins(10))
//!     .seed(42)
//!     .predictor(PredictorSpec::Oracle)
//!     .algorithm(Algorithm::Nilas)
//!     .serve(ServeConfig::at_rate(10.0))
//!     .build()
//!     .expect("valid spec");
//! let report = run_serve(&spec).expect("serving run");
//! assert_eq!(report.shed + report.queue_full + report.latency.count(), report.offered);
//! assert!(report.latency.quantile(0.99) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod health;
pub mod queue;
mod report;
pub mod service;

pub use health::{BreakerState, HealthTracker};
pub use queue::BoundedQueue;
pub use service::{run_serve, EpochStats, PlacementService, ServeError, ServeReport};
