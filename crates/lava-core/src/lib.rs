//! Core domain types for lifetime-aware VM allocation (LAVA).
//!
//! This crate contains the vocabulary shared by the model, scheduler and
//! simulator crates:
//!
//! * [`resources::Resources`] — multi-dimensional resource vectors (CPU,
//!   memory, SSD) with fit/arithmetic helpers,
//! * [`vm`] — VM specifications and runtime records,
//! * [`host`] — host specifications, occupancy bookkeeping and the LAVA host
//!   state machine (empty / open / recycling),
//! * [`lifetime`] — lifetime classes and the NILAS temporal-cost buckets,
//! * [`pool`] — a pool (zone/cluster) of hosts and the one registry of
//!   the VMs live on them, the simulation hot path,
//! * [`cell`] — fleet cells: [`cell::CellId`] and the bounded-staleness
//!   [`cell::CellSummary`] a fleet router consumes,
//! * [`time`] — the simulated clock,
//! * [`events`] — trace events shared between trace generation and replay,
//! * [`source`] — the pull-based [`source::EventSource`] abstraction the
//!   streaming discrete-event engine consumes events through,
//! * [`serve`] — the request/response vocabulary of the online placement
//!   service ([`serve::PlaceRequest`], backpressure signals, microsecond
//!   [`serve::Micros`] virtual time),
//! * [`latency`] — the shared log-bucketed, mergeable
//!   [`latency::LatencyHistogram`] every latency-reporting surface uses,
//! * [`hash`] — [`hash::mix64`], the one 64-bit mixer behind routing,
//!   digests and the lifetime model's per-spec tables.
//!
//! # Example
//!
//! ```
//! use lava_core::prelude::*;
//!
//! let spec = HostSpec::new(Resources::new(96_000, 768 * 1024, 3_000));
//! let mut host = Host::new(HostId(0), spec);
//! let vm = VmSpec::builder(Resources::new(8_000, 32 * 1024, 0))
//!     .family(VmFamily::C2)
//!     .build();
//! assert!(host.can_fit(vm.resources()));
//! let _ = &mut host;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
pub mod cell;
pub mod error;
pub mod events;
pub mod hash;
pub mod host;
pub mod latency;
pub mod lifetime;
pub mod pool;
pub mod resources;
pub mod serve;
pub mod source;
pub mod time;
pub mod vm;

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::cell::{CellId, CellSummary};
    pub use crate::error::CoreError;
    pub use crate::events::{TraceEvent, TraceEventKind};
    pub use crate::host::{Host, HostId, HostLifetimeState, HostSpec};
    pub use crate::latency::LatencyHistogram;
    pub use crate::lifetime::{temporal_cost, LifetimeClass};
    pub use crate::pool::{Pool, PoolId};
    pub use crate::resources::Resources;
    pub use crate::serve::{Micros, PlaceOutcome, PlaceRequest, Rejected, RequestId};
    pub use crate::source::EventSource;
    pub use crate::time::{Duration, SimTime};
    pub use crate::vm::{ProvisioningModel, Vm, VmFamily, VmId, VmPriority, VmSpec};
}
