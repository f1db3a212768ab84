//! The fleet tier: multi-cell clusters behind a lifetime-aware router,
//! executed deterministically in parallel.
//!
//! A production fleet is many heterogeneous *cells* — each with its own
//! pool, scheduler instance, policy state and metric observers — fronted
//! by an admission/routing tier that assigns every VM creation to a cell.
//! This module reproduces that architecture on top of the streaming
//! engine:
//!
//! * [`FleetConfig`] shards an experiment's workload into `cells` cells
//!   (hosts split evenly, per-cell [`CellOverride`]s for heterogeneous
//!   host counts and SKU shapes) and names the [`RouterSpec`].
//! * [`Router`]s assign each arrival to a cell. [`RouterSpec::Hash`] and
//!   [`RouterSpec::RoundRobin`] are stateless/counter-based;
//!   [`RouterSpec::LeastLoaded`], [`RouterSpec::LifetimeAware`] and
//!   [`RouterSpec::MispredictionAware`] read **bounded-staleness
//!   [`CellSummary`]s** — see below.
//! * [`run_fleet`] drives the whole fleet over one event source and
//!   returns per-cell outcomes plus the material for fleet-wide
//!   aggregation ([`FleetReport`]).
//!
//! # Bounded-staleness summaries
//!
//! Real admission tiers do not read live per-host state: they consume
//! periodically refreshed summaries of each cell and accept that routing
//! decisions act on information that is up to one refresh interval old.
//! The fleet loop models this directly. Time is partitioned into *epochs*
//! of `summary_refresh` length; at each epoch boundary every cell's
//! [`CellSummary`] (free capacity, empty-host count, predicted exit-time
//! profile) is extracted **once**, and every routing decision inside the
//! epoch uses those frozen summaries — never the cells' live state. A
//! summary's `as_of` field records the snapshot time; its staleness at
//! use is therefore bounded by `summary_refresh`. Between refreshes the
//! summary-driven routers compensate with router-local bookkeeping (the
//! CPU they themselves routed since the snapshot), exactly the way a real
//! admission tier tracks its own in-flight placements against a stale
//! capacity feed.
//!
//! # Deterministic parallelism: one coordinator, scoped or inline lanes
//!
//! Cells are independent *given the routing decisions*, and routing
//! decisions are made serially, in arrival order, on the coordinating
//! thread. The epoch boundary doubles as a barrier: cells only run in
//! parallel *within* an epoch, after the epoch's routing is fixed and
//! before the next summary snapshot. Results are therefore **bit-identical
//! at any worker-thread count** — the property tests in
//! `tests/fleet_tier.rs` replay randomized heterogeneous fleets at 1, 2
//! and per-CPU threads and require identical reports for every router.
//!
//! There is one epoch loop. The coordinator speaks a four-message
//! protocol (`Prime` / `Step` down, `Summaries` / `Outcomes` back) to
//! *sessions*, each owning its striped share of the cells' engines for
//! the whole run, and drains the source for epoch *k+1* right after
//! handing out epoch *k*. What differs is only where the sessions live:
//!
//! * **Scoped lanes** — two or more workers: [`run_fleet`] spawns one
//!   thread per lane inside one `std::thread::scope` that lives exactly
//!   as long as the run. Each lane thread owns its session (cell state
//!   never moves between threads mid-run) and is fed over a bounded
//!   channel, so the drain of epoch *k+1* — and, for routers that never
//!   read summaries, its routing and dispatch too — overlaps the lanes
//!   stepping epoch *k*. Concurrent fleet runs (fleet arms of a parallel
//!   suite) each have their own lanes and run side by side. A lane that
//!   panics closes its channels; the coordinator joins it and raises a
//!   [`FleetWorkerError`]. A coordinator that panics drops the lanes'
//!   channels as it unwinds, so every lane exits and the scope re-raises
//!   the coordinator's own payload.
//! * **The inline lane** — one worker or one cell: a single session
//!   owned by the coordinator answers each message synchronously on the
//!   calling thread. No channel and no thread.
//!
//! Summary-driven routers route epoch *k+1* only after the barrier
//! delivers the summaries extracted at its start. Either way every lane
//! sees the same source-operation order, router-call order and summary
//! instants, which is the whole bit-identity argument. The plain serial
//! loop the coordinator is property-tested against is test-only code in
//! this module (`tests::reference_fleet`).
//!
//! The loop's work follows the events, not the span they cover:
//!
//! * **No empty epochs.** When the source's next event lies past the
//!   next epoch, the current step runs on to the start of the epoch that
//!   holds it, by whole `summary_refresh` steps. The cells process the
//!   same timeline items in the same order as if stepped epoch by epoch,
//!   and the jump stays on the refresh grid, so every summary is taken at
//!   the instant the plain loop takes it.
//! * **No summaries once nothing can arrive.** The summaries taken at a
//!   barrier route only the next epoch's creates (an exit follows its
//!   VM's pin), so a barrier past the source's last arrival takes none.
//!
//! A run whose exits stretch far past its arrivals therefore costs about
//! what its events cost: the drive loop's ticks and samples stop at the
//! last arrival too ([`drive`](crate::experiment::drive)).
//!
//! A single-cell fleet is the paper's setting — one pool under one
//! scheduler: every router sends everything to cell 0, which runs on the
//! inline lane. It is also how an [`Experiment`] without a fleet tier
//! runs, so this module holds the only engine an experiment has. A 1-cell
//! fleet is bit-identical to the same scheduler replayed through
//! [`drive`](crate::experiment::drive) (`tests/fleet_tier.rs`), and only
//! a 1-cell fleet takes extra observers or records predictions.
//!
//! [`Experiment`]: crate::experiment::Experiment

use crate::chaos::{AdaptationSpec, ChaosController, IncidentPlan};
use crate::drive::{DriveLoop, DriveTiming};
use crate::metrics::{MetricSample, MetricSeries, SimulationResult};
use crate::observer::{MetricRecorder, SimObserver};
use crate::workload::PoolConfig;
use lava_core::cell::{CellId, CellSummary};
use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::hash::{mix64, Mix64BuildHasher};
use lava_core::host::HostSpec;
use lava_core::pool::{Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::adaptive::SwappablePredictor;
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::{Scheduler, SchedulerStats};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::str::FromStr;
use std::sync::{mpsc, Arc};
use std::thread;

/// Maximum number of live VMs repredicted per cell when extracting a
/// summary's exit-time profile (see
/// [`Scheduler::cell_summary`]); keeps refresh cost bounded regardless of
/// cell size.
pub const SUMMARY_SAMPLE_CAP: usize = 64;

/// How the fleet router assigns arrivals to cells.
///
/// All routers are deterministic. `LeastLoaded` and `LifetimeAware` read
/// the bounded-staleness summaries described in the [module docs](self);
/// `Hash` and `RoundRobin` never look at cell state at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RouterSpec {
    /// Route by a hash of the VM id (stateless; the default).
    #[default]
    Hash,
    /// Cycle through the cells in order.
    RoundRobin,
    /// Route to the cell with the highest free-CPU fraction according to
    /// its last summary, adjusted by the CPU the router itself has routed
    /// there since the snapshot.
    LeastLoaded,
    /// Lifetime-aware admission: predict the arrival's remaining lifetime
    /// and route it to the feasible cell whose summarised exit-time
    /// profile is *closest* to the VM's predicted exit — long-lived VMs
    /// join late-exiting cells, short-lived VMs join soon-draining ones,
    /// extending NILAS's exit-time packing to fleet granularity. Falls
    /// back to `LeastLoaded` when no summarised cell has enough free CPU.
    LifetimeAware,
    /// Lifetime-aware admission with a misprediction penalty: like
    /// `LifetimeAware`, but each feasible cell's exit-distance score is
    /// inflated by the cell's summarised recent misprediction magnitude
    /// (`CellSummary::misprediction_log10`), so arrivals are steered away
    /// from cells whose lifetime model has been wrong lately — e.g. a
    /// cell whose predictor was degraded by an incident. Same
    /// `LeastLoaded` fallback when no summarised cell is feasible.
    MispredictionAware,
}

impl RouterSpec {
    /// Every router, in a fixed sweep order.
    pub const ALL: [RouterSpec; 5] = [
        RouterSpec::Hash,
        RouterSpec::RoundRobin,
        RouterSpec::LeastLoaded,
        RouterSpec::LifetimeAware,
        RouterSpec::MispredictionAware,
    ];

    /// Whether this router consumes cell summaries (given `cells` cells) —
    /// a single-cell fleet never needs them.
    pub fn needs_summaries(&self, cells: usize) -> bool {
        cells > 1
            && matches!(
                self,
                RouterSpec::LeastLoaded
                    | RouterSpec::LifetimeAware
                    | RouterSpec::MispredictionAware
            )
    }
}

impl fmt::Display for RouterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RouterSpec::Hash => "hash",
            RouterSpec::RoundRobin => "round-robin",
            RouterSpec::LeastLoaded => "least-loaded",
            RouterSpec::LifetimeAware => "lifetime-aware",
            RouterSpec::MispredictionAware => "misprediction-aware",
        };
        write!(f, "{name}")
    }
}

impl FromStr for RouterSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<RouterSpec, String> {
        match s.to_ascii_lowercase().as_str() {
            "hash" => Ok(RouterSpec::Hash),
            "round-robin" | "roundrobin" => Ok(RouterSpec::RoundRobin),
            "least-loaded" | "leastloaded" => Ok(RouterSpec::LeastLoaded),
            "lifetime-aware" | "lifetimeaware" => Ok(RouterSpec::LifetimeAware),
            "misprediction-aware" | "mispredictionaware" => Ok(RouterSpec::MispredictionAware),
            other => Err(format!(
                "unknown router `{other}` \
                 (hash|round-robin|least-loaded|lifetime-aware|misprediction-aware)"
            )),
        }
    }
}

/// Per-cell overrides making the fleet heterogeneous: any field left
/// `None` keeps the value derived from the base workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellOverride {
    /// Which cell this override applies to (must be `< cells`).
    pub cell: u32,
    /// Host-count override (replaces the cell's even share).
    #[serde(default)]
    pub hosts: Option<usize>,
    /// Host CPU cores override.
    #[serde(default)]
    pub host_cores: Option<u64>,
    /// Host memory override, in GiB.
    #[serde(default)]
    pub host_memory_gib: Option<u64>,
    /// Host local-SSD override, in GiB.
    #[serde(default)]
    pub host_ssd_gib: Option<u64>,
}

impl CellOverride {
    /// An override for `cell` with no fields set.
    pub fn new(cell: u32) -> CellOverride {
        CellOverride {
            cell,
            hosts: None,
            host_cores: None,
            host_memory_gib: None,
            host_ssd_gib: None,
        }
    }

    /// Override the cell's host count.
    pub fn with_hosts(mut self, hosts: usize) -> CellOverride {
        self.hosts = Some(hosts);
        self
    }

    /// Override the cell's host shape (cores, memory GiB).
    pub fn with_host_shape(mut self, cores: u64, memory_gib: u64) -> CellOverride {
        self.host_cores = Some(cores);
        self.host_memory_gib = Some(memory_gib);
        self
    }
}

/// The fleet tier of an [`ExperimentSpec`](crate::experiment::ExperimentSpec):
/// how the workload's pool is sharded into cells and how arrivals are
/// routed.
///
/// Absent (`None`) in pre-fleet specs — the field is serde-defaulted, so
/// existing spec JSON parses unchanged and runs as
/// `FleetConfig::new(1)`, a one-cell fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of cells the fleet is sharded into (≥ 1). The base
    /// workload's hosts are split evenly across cells (earlier cells take
    /// the remainder); [`CellOverride`]s then adjust individual cells.
    pub cells: usize,
    /// The routing policy.
    #[serde(default)]
    pub router: RouterSpec,
    /// The bounded-staleness window: cell summaries are refreshed on this
    /// cadence, and the epoch boundary doubles as the parallel barrier
    /// (see the [module docs](self)). Must be non-zero.
    pub summary_refresh: Duration,
    /// Heterogeneity overrides, applied per cell.
    #[serde(default)]
    pub overrides: Vec<CellOverride>,
    /// Worker threads for parallel cell execution (0 = one per available
    /// CPU, capped at the cell count). Results are bit-identical at any
    /// thread count.
    #[serde(default)]
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet of `cells` homogeneous cells with the default router
    /// (hash) and a 15-minute summary-refresh cadence.
    pub fn new(cells: usize) -> FleetConfig {
        FleetConfig {
            cells,
            router: RouterSpec::default(),
            summary_refresh: Duration::from_mins(15),
            overrides: Vec::new(),
            threads: 0,
        }
    }

    /// Set the router.
    pub fn with_router(mut self, router: RouterSpec) -> FleetConfig {
        self.router = router;
        self
    }

    /// Set the summary-refresh cadence.
    pub fn with_summary_refresh(mut self, refresh: Duration) -> FleetConfig {
        self.summary_refresh = refresh;
        self
    }

    /// Add a per-cell override.
    pub fn with_override(mut self, o: CellOverride) -> FleetConfig {
        self.overrides.push(o);
        self
    }

    /// Set the worker-thread count (0 = one per CPU).
    pub fn with_threads(mut self, threads: usize) -> FleetConfig {
        self.threads = threads;
        self
    }

    /// The per-cell layout this config derives from a base workload: each
    /// cell's host count (even split of `base.hosts`, earlier cells take
    /// the remainder, overrides applied last) and host spec.
    pub fn cell_layout(&self, base: &PoolConfig) -> Vec<(CellId, usize, HostSpec)> {
        (0..self.cells)
            .map(|i| {
                let (hosts, cores, memory_gib, ssd_gib) = self.cell_shape(base, i);
                let spec = HostSpec::new(Resources::new(cores * 1000, memory_gib * 1024, ssd_gib));
                (CellId(i as u32), hosts, spec)
            })
            .collect()
    }

    /// Cell `i`'s host count and host shape `(cores, memory GiB, SSD GiB)`
    /// before any unit conversion: its even share of `base.hosts` and
    /// `base`'s shape, with the cell's overrides applied in order.
    pub(crate) fn cell_shape(&self, base: &PoolConfig, i: usize) -> (usize, u64, u64, u64) {
        let mut hosts = base.hosts / self.cells + usize::from(i < base.hosts % self.cells);
        let mut cores = base.host_cores;
        let mut memory_gib = base.host_memory_gib;
        let mut ssd_gib = base.host_ssd_gib;
        for o in self.overrides.iter().filter(|o| o.cell as usize == i) {
            if let Some(h) = o.hosts {
                hosts = h;
            }
            if let Some(c) = o.host_cores {
                cores = c;
            }
            if let Some(m) = o.host_memory_gib {
                memory_gib = m;
            }
            if let Some(s) = o.host_ssd_gib {
                ssd_gib = s;
            }
        }
        (hosts, cores, memory_gib, ssd_gib)
    }

    /// Build the runnable cells for a base workload: one [`Pool`] per cell
    /// (pool ids offset from the base pool id) plus the policies supplied
    /// by `make_policies` (returning the evaluated policy and the optional
    /// warm-up deferred policy, mirroring [`drive`](crate::experiment::drive)'s
    /// contract).
    pub fn build_cells<F>(&self, base: &PoolConfig, mut make_policies: F) -> Vec<FleetCell>
    where
        F: FnMut(CellId) -> (Box<dyn PlacementPolicy>, Option<Box<dyn PlacementPolicy>>),
    {
        self.cell_layout(base)
            .into_iter()
            .map(|(id, hosts, spec)| {
                let pool = Pool::with_uniform_hosts(
                    PoolId(base.pool_id.0.wrapping_add(id.0)),
                    hosts,
                    spec,
                );
                let (policy, deferred_policy) = make_policies(id);
                FleetCell {
                    pool,
                    policy,
                    deferred_policy,
                }
            })
            .collect()
    }
}

/// The fleet tier's chaos wiring, handed to [`run_fleet`] when the spec
/// carries an [`IncidentPlan`] or [`AdaptationSpec`]: the shared plan plus
/// one [`SwappablePredictor`] per cell. Each cell's scheduler (and its
/// policies, which the caller builds over the same swap) predicts through
/// its own swap, so a [`ChaosController`] can degrade, restore and
/// recalibrate one cell's model without touching its neighbours — exactly
/// how a production fleet's per-cell model servers fail independently.
/// The *router* keeps the pristine base predictor: the admission tier
/// runs its own model replica, which the per-cell incidents don't reach.
pub struct FleetChaos {
    /// The incident plan (already validated against the cell count).
    pub incidents: IncidentPlan,
    /// The adaptation knobs (recalibration cadence).
    pub adaptation: AdaptationSpec,
    /// One swappable predictor seam per cell, indexed by [`CellId`].
    pub swaps: Vec<Arc<SwappablePredictor>>,
}

/// One runnable cell handed to [`run_fleet`]: its pool and policies. The
/// cell's [`CellId`] is its index in the `cells` vector.
pub struct FleetCell {
    /// The cell's host pool.
    pub pool: Pool,
    /// The placement policy in control (during warm-up, the warm-up
    /// policy when `deferred_policy` is set).
    pub policy: Box<dyn PlacementPolicy>,
    /// Policy to switch to at the warm-up boundary (same contract as
    /// [`drive`](crate::experiment::drive)'s deferred policy).
    pub deferred_policy: Option<Box<dyn PlacementPolicy>>,
}

/// What one cell produced over a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell.
    pub cell: CellId,
    /// Number of hosts in the cell.
    pub hosts: usize,
    /// Creations the router assigned to this cell.
    pub routed_vms: u64,
    /// Creations the cell could not place.
    pub rejected_vms: u64,
    /// The cell scheduler's counters.
    pub stats: SchedulerStats,
    /// The cell's metric series.
    pub series: MetricSeries,
}

/// Everything a [`run_fleet`] pass produced, in cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-cell outcomes, indexed by [`CellId`].
    pub cells: Vec<CellOutcome>,
}

/// One cell's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// The cell.
    pub cell: CellId,
    /// Number of hosts in the cell.
    pub hosts: usize,
    /// Creations the router assigned to this cell.
    pub routed_vms: u64,
    /// The cell's simulation result.
    pub result: SimulationResult,
}

/// The fleet-level outcome attached to an
/// [`ExperimentReport`](crate::experiment::ExperimentReport) when the spec
/// has a fleet tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The router that made the assignments.
    pub router: RouterSpec,
    /// Per-cell results, in cell order.
    pub cells: Vec<CellReport>,
    /// The fleet-wide aggregate (also surfaced as the experiment report's
    /// primary result): scheduler counters and rejections summed across
    /// cells; per-sample metrics host-weighted-averaged across the cells
    /// that recorded each sample index. For a single-cell fleet this is
    /// the cell's result verbatim (bit-identical, no re-averaging).
    pub fleet: SimulationResult,
}

impl FleetReport {
    /// Assemble the report from a drive outcome plus the run's display
    /// names.
    pub fn from_outcome(
        outcome: FleetOutcome,
        router: RouterSpec,
        algorithm: &str,
        predictor: &str,
    ) -> FleetReport {
        let cells: Vec<CellReport> = outcome
            .cells
            .into_iter()
            .map(|c| CellReport {
                cell: c.cell,
                hosts: c.hosts,
                routed_vms: c.routed_vms,
                result: SimulationResult {
                    algorithm: algorithm.to_string(),
                    predictor: predictor.to_string(),
                    series: c.series,
                    scheduler_stats: c.stats,
                    rejected_vms: c.rejected_vms,
                },
            })
            .collect();
        let fleet = aggregate(&cells, algorithm, predictor);
        FleetReport {
            router,
            cells,
            fleet,
        }
    }

    /// Total creations the fleet could not place.
    pub fn total_rejected(&self) -> u64 {
        self.cells.iter().map(|c| c.result.rejected_vms).sum()
    }
}

/// Fleet-wide aggregation: counters summed, per-sample metrics averaged
/// across cells weighted by host count. A 1-cell fleet returns the cell's
/// result verbatim so no floating-point re-averaging can perturb it.
fn aggregate(cells: &[CellReport], algorithm: &str, predictor: &str) -> SimulationResult {
    if cells.len() == 1 {
        return cells[0].result.clone();
    }
    let mut stats = SchedulerStats::default();
    let mut rejected = 0u64;
    for c in cells {
        stats.placed += c.result.scheduler_stats.placed;
        stats.failed += c.result.scheduler_stats.failed;
        stats.exited += c.result.scheduler_stats.exited;
        rejected += c.result.rejected_vms;
    }
    let max_len = cells
        .iter()
        .map(|c| c.result.series.len())
        .max()
        .unwrap_or(0);
    let mut series = MetricSeries::new();
    for k in 0..max_len {
        let mut weight = 0.0f64;
        let mut empty = 0.0f64;
        let mut empty_to_free = 0.0f64;
        let mut packing = 0.0f64;
        let mut cpu = 0.0f64;
        let mut memory = 0.0f64;
        let mut live_vms = 0usize;
        let mut accuracy = 0.0f64;
        let mut time = None;
        for c in cells {
            let Some(s) = c.result.series.samples().get(k) else {
                continue;
            };
            let w = c.hosts as f64;
            time.get_or_insert(s.time);
            weight += w;
            empty += w * s.empty_host_fraction;
            empty_to_free += w * s.empty_to_free_ratio;
            packing += w * s.packing_density;
            cpu += w * s.cpu_utilization;
            memory += w * s.memory_utilization;
            live_vms += s.live_vms;
            accuracy += w * s.mean_abs_log10_error;
        }
        let (Some(time), true) = (time, weight > 0.0) else {
            continue;
        };
        series.push(MetricSample {
            time,
            empty_host_fraction: empty / weight,
            empty_to_free_ratio: empty_to_free / weight,
            packing_density: packing / weight,
            cpu_utilization: cpu / weight,
            memory_utilization: memory / weight,
            live_vms,
            mean_abs_log10_error: accuracy / weight,
        });
    }
    SimulationResult {
        algorithm: algorithm.to_string(),
        predictor: predictor.to_string(),
        series,
        scheduler_stats: stats,
        rejected_vms: rejected,
    }
}

// --- the router ----------------------------------------------------------

/// [`Router::vm_cell`]: the busiest map in the routing hot path (stateful
/// routers insert and remove every VM exactly once), so it hashes with the
/// workspace mixer instead of SipHash. Looked up, inserted into and
/// removed from, never iterated: the hasher cannot influence a route.
type VmCellMap = HashMap<VmId, u32, Mix64BuildHasher>;

/// The serial routing state: assigns every source event to a cell. Lives
/// on the coordinating thread; never touched concurrently.
///
/// Public so the serving tier (`lava-serve`) can reuse the exact routing
/// policies of the batch fleet engine for its request stream — one router
/// implementation, two front-ends.
pub struct Router {
    spec: RouterSpec,
    cells: usize,
    /// Round-robin position (persists across refreshes).
    cursor: usize,
    /// The frozen summaries of the current epoch (summary routers only).
    summaries: Vec<CellSummary>,
    /// CPU (milli-cores) this router routed to each cell since the last
    /// summary refresh — the admission tier's own in-flight view layered
    /// over the stale snapshot.
    routed_cpu: Vec<u64>,
    /// Where each live VM was routed, so its exit follows it. The hash
    /// router recomputes instead (exits hash identically), keeping it
    /// entirely stateless.
    vm_cell: VmCellMap,
    /// Lazy max-heap over per-cell free fractions backing
    /// [`Router::least_loaded`]: rebuilt at each [`Router::refresh`],
    /// with entries going stale as creates bump `routed_cpu`. Stale
    /// entries are re-keyed on discovery at the top, which is sound
    /// because fractions only *decrease* between refreshes.
    load_heap: BinaryHeap<LoadEntry>,
}

/// One cell's cached free-CPU fraction in the lazy max-heap behind
/// [`Router::least_loaded`]. Ordered highest-fraction-first with ties
/// going to the lowest cell id — exactly the winner the reference
/// linear scan picks.
#[derive(Clone, Copy, PartialEq)]
struct LoadEntry {
    fraction: f64,
    cell: usize,
}

impl Eq for LoadEntry {}

impl Ord for LoadEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.fraction
            .partial_cmp(&other.fraction)
            .expect("free fractions are never NaN")
            .then_with(|| other.cell.cmp(&self.cell))
    }
}

impl PartialOrd for LoadEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Router {
    /// A router for `cells` cells following `spec`.
    pub fn new(spec: RouterSpec, cells: usize) -> Router {
        Router {
            spec,
            cells,
            cursor: 0,
            summaries: Vec::new(),
            routed_cpu: vec![0; cells],
            vm_cell: VmCellMap::default(),
            load_heap: BinaryHeap::new(),
        }
    }

    /// Whether this router consumes cell summaries (and therefore needs
    /// periodic [`Router::refresh`] calls).
    pub fn needs_summaries(&self) -> bool {
        self.spec.needs_summaries(self.cells)
    }

    /// Install the epoch's frozen summaries and reset the in-flight
    /// accumulators.
    pub fn refresh(&mut self, summaries: Vec<CellSummary>) {
        debug_assert_eq!(summaries.len(), self.cells);
        self.summaries = summaries;
        self.routed_cpu.iter_mut().for_each(|c| *c = 0);
        self.load_heap.clear();
        for i in 0..self.summaries.len() {
            let entry = LoadEntry {
                fraction: self.fraction_of(i),
                cell: i,
            };
            self.load_heap.push(entry);
        }
    }

    /// The cell's free-CPU fraction per its frozen summary, discounted
    /// by the CPU routed there since the snapshot — the single scoring
    /// expression both the heap keys and the staleness check use, so
    /// equality between a cached and a recomputed value is exact.
    fn fraction_of(&self, i: usize) -> f64 {
        let summary = &self.summaries[i];
        let free = summary.free.cpu_milli.saturating_sub(self.routed_cpu[i]);
        if summary.capacity.cpu_milli == 0 {
            0.0
        } else {
            free as f64 / summary.capacity.cpu_milli as f64
        }
    }

    /// Assign `event` to a cell. Creates are routed by the spec'd policy;
    /// exits follow their create.
    pub fn route(&mut self, event: &TraceEvent, predictor: &dyn LifetimePredictor) -> usize {
        if self.cells == 1 {
            return 0;
        }
        match &event.kind {
            // An exit follows its VM's pin: every create a stateful router
            // placed, and every failover placement ([`Router::repin`]).
            // Without a pin (any hash-routed VM, or an exit no create
            // named) it goes to the VM's hash cell; for an unmatched exit
            // that cell's scheduler then finds nothing to remove.
            TraceEventKind::Exit { vm } => self
                .vm_cell
                .remove(vm)
                .map(|c| c as usize)
                .unwrap_or_else(|| (mix64(vm.0) % self.cells as u64) as usize),
            TraceEventKind::Create { vm, spec, lifetime } => {
                let cell = match self.spec {
                    RouterSpec::Hash => (mix64(vm.0) % self.cells as u64) as usize,
                    RouterSpec::RoundRobin => {
                        let c = self.cursor;
                        self.cursor = (self.cursor + 1) % self.cells;
                        c
                    }
                    RouterSpec::LeastLoaded => self.least_loaded(),
                    RouterSpec::LifetimeAware => {
                        let record = Vm::new(*vm, spec.clone(), event.time, *lifetime);
                        let predicted_exit =
                            event.time + predictor.predict_remaining(&record, event.time);
                        self.lifetime_aware(predicted_exit, spec.resources())
                    }
                    RouterSpec::MispredictionAware => {
                        let record = Vm::new(*vm, spec.clone(), event.time, *lifetime);
                        let predicted_exit =
                            event.time + predictor.predict_remaining(&record, event.time);
                        self.misprediction_aware(predicted_exit, spec.resources())
                    }
                };
                if !matches!(self.spec, RouterSpec::Hash) {
                    self.vm_cell.insert(*vm, cell as u32);
                }
                self.routed_cpu[cell] += spec.resources().cpu_milli;
                cell
            }
        }
    }

    /// Move a just-routed VM's pin from `from` to `to` — the failover hook
    /// for the serving tier's circuit breakers. [`Router::route`] has
    /// already charged `cpu_milli` of in-flight CPU to `from` and (for
    /// stateful routers) pinned the VM there; repinning transfers both so
    /// the VM's eventual exit follows it to the cell that actually placed
    /// it and summary discounting stays truthful. For the hash router this
    /// *adds* a pin (its exits check the pin map before rehashing).
    pub fn repin(&mut self, vm: VmId, from: usize, to: usize, cpu_milli: u64) {
        debug_assert!(from < self.cells && to < self.cells);
        if from == to {
            return;
        }
        self.routed_cpu[from] = self.routed_cpu[from].saturating_sub(cpu_milli);
        self.routed_cpu[to] += cpu_milli;
        self.vm_cell.insert(vm, to as u32);
    }

    /// The cell with the highest free-CPU fraction per its frozen summary,
    /// discounted by the CPU routed there since the snapshot. Ties go to
    /// the lowest cell id.
    ///
    /// Amortized O(log cells) instead of a full scan: the heap built at
    /// [`Router::refresh`] caches every cell's fraction, and because
    /// `routed_cpu` only grows between refreshes, fractions only
    /// *decrease* — so when the top entry's cached key still matches its
    /// recomputed fraction, no other cell can exceed it (their caches
    /// are upper bounds), and no stale equal-fraction cell with a lower
    /// id can hide below it (its cache would have placed it on top).
    /// A stale top is re-keyed in place and the loop retries; typically
    /// only the previous winner is stale.
    fn least_loaded(&mut self) -> usize {
        if self.load_heap.is_empty() {
            // Never refreshed (empty summaries): the reference scan over
            // an empty snapshot returns cell 0.
            return 0;
        }
        loop {
            let top = *self.load_heap.peek().expect("heap is non-empty");
            let current = self.fraction_of(top.cell);
            if current == top.fraction {
                return top.cell;
            }
            self.load_heap.pop();
            self.load_heap.push(LoadEntry {
                fraction: current,
                cell: top.cell,
            });
        }
    }

    /// The feasible cell whose summarised mean exit time is closest to the
    /// VM's predicted exit (ties: more adjusted free CPU, then lower cell
    /// id); least-loaded fallback when no summarised cell has enough free
    /// CPU for the request.
    fn lifetime_aware(&mut self, predicted_exit: SimTime, request: Resources) -> usize {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, (summary, routed)) in self.summaries.iter().zip(&self.routed_cpu).enumerate() {
            let free = summary.free.cpu_milli.saturating_sub(*routed);
            if free < request.cpu_milli {
                continue;
            }
            let distance = summary
                .mean_predicted_exit
                .as_secs()
                .abs_diff(predicted_exit.as_secs());
            let better = match best {
                None => true,
                Some((bd, bf, _)) => distance < bd || (distance == bd && free > bf),
            };
            if better {
                best = Some((distance, free, i));
            }
        }
        best.map_or_else(|| self.least_loaded(), |(_, _, i)| i)
    }

    /// Lifetime-aware scoring with a misprediction penalty: each feasible
    /// cell's exit-time distance (in hours) is inflated by
    /// `1 + misprediction_log10` from its frozen summary, so two cells at
    /// the same exit distance are split by how trustworthy their recent
    /// predictions were, and a badly mispredicting cell only wins when its
    /// exit profile is much closer. Lowest score wins (ties: more adjusted
    /// free CPU, then lower cell id — all pure f64/u64 arithmetic on the
    /// frozen snapshot, so the choice is deterministic); least-loaded
    /// fallback when no summarised cell has enough free CPU.
    fn misprediction_aware(&mut self, predicted_exit: SimTime, request: Resources) -> usize {
        let mut best: Option<(f64, u64, usize)> = None;
        for (i, (summary, routed)) in self.summaries.iter().zip(&self.routed_cpu).enumerate() {
            let free = summary.free.cpu_milli.saturating_sub(*routed);
            if free < request.cpu_milli {
                continue;
            }
            let distance_hours = summary
                .mean_predicted_exit
                .as_secs()
                .abs_diff(predicted_exit.as_secs()) as f64
                / 3600.0;
            let penalty = 1.0 + summary.misprediction_log10.max(0.0);
            let score = (1.0 + distance_hours) * penalty;
            let better = match best {
                None => true,
                Some((bs, bf, _)) => score < bs || (score == bs && free > bf),
            };
            if better {
                best = Some((score, free, i));
            }
        }
        best.map_or_else(|| self.least_loaded(), |(_, _, i)| i)
    }
}

// --- per-cell execution --------------------------------------------------

/// The routed event queue one cell consumes: a plain FIFO (the router
/// delivers events in canonical order, and a cell's subsequence of an
/// ordered stream is ordered). `last_arrival` mirrors the *fleet* source's
/// knowledge, propagated at each epoch boundary, so every cell's metric
/// samples stop at the same fleet-wide last arrival — for one cell, the
/// source's own last arrival, as in [`drive`](crate::experiment::drive).
struct CellSource {
    queue: VecDeque<TraceEvent>,
    last_arrival: Option<SimTime>,
}

impl EventSource for CellSource {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.queue.pop_front()
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.queue.front()
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        self.last_arrival
    }

    fn pending_len(&self) -> usize {
        self.queue.len()
    }
}

/// One cell's engine: scheduler, resumable drive loop, routed queue and
/// metric recorder.
struct CellRunner {
    id: CellId,
    hosts: usize,
    scheduler: Scheduler,
    driver: DriveLoop,
    source: CellSource,
    metrics: MetricRecorder,
    routed_vms: u64,
    rejected_vms: u64,
}

impl CellRunner {
    fn new(
        index: usize,
        cell: FleetCell,
        predictor: Arc<dyn LifetimePredictor>,
        timing: &DriveTiming,
        chaos: Option<&FleetChaos>,
    ) -> CellRunner {
        let hosts = cell.pool.host_count();
        // Under chaos the cell schedules through its own swap seam (the
        // caller built the cell's policies over the same Arc), so per-cell
        // degradations and recalibrations stay local to this cell.
        let swap = chaos.map(|c| c.swaps[index].clone());
        let cell_predictor: Arc<dyn LifetimePredictor> = match &swap {
            Some(s) => s.clone(),
            None => predictor,
        };
        let scheduler = Scheduler::new(Cluster::new(cell.pool), cell.policy, cell_predictor);
        let mut driver = DriveLoop::new(cell.deferred_policy, timing);
        if let Some(chaos) = chaos {
            driver.attach_chaos(ChaosController::new(
                &chaos.incidents,
                &chaos.adaptation,
                index as u32,
                swap,
            ));
        }
        // The accuracy probe repredicts live VMs on the sample grid, so it
        // is only enabled on chaos runs (extra predictor calls would
        // perturb recorded-prediction counts otherwise).
        let metrics = if chaos.is_some() {
            MetricRecorder::with_accuracy_probe()
        } else {
            MetricRecorder::new()
        };
        CellRunner {
            id: CellId(index as u32),
            hosts,
            scheduler,
            driver,
            source: CellSource {
                queue: VecDeque::new(),
                last_arrival: None,
            },
            metrics,
            routed_vms: 0,
            rejected_vms: 0,
        }
    }

    fn enqueue(&mut self, event: TraceEvent) {
        if matches!(event.kind, TraceEventKind::Create { .. }) {
            self.routed_vms += 1;
        }
        self.source.queue.push_back(event);
    }

    fn summary(&mut self, now: SimTime) -> CellSummary {
        self.scheduler
            .cell_summary(self.id, now, SUMMARY_SAMPLE_CAP)
    }

    /// Process everything due strictly before `limit`; the stream stays
    /// open (more events may be routed here next epoch). `extra` observers
    /// follow the metric recorder.
    fn step_epoch(&mut self, limit: SimTime, extra: &mut [&mut dyn SimObserver]) {
        let CellRunner {
            driver,
            source,
            scheduler,
            metrics,
            ..
        } = self;
        with_observers(metrics, extra, |observers| {
            driver.step(source, scheduler, observers, Some(limit), true)
        });
    }

    /// The stream is closed: drain everything left and finish the run.
    fn run_to_completion(&mut self, extra: &mut [&mut dyn SimObserver]) {
        let CellRunner {
            driver,
            source,
            scheduler,
            metrics,
            ..
        } = self;
        // Run the cadence to the fleet-wide last arrival even if this
        // cell's own routed events end earlier: every cell then samples
        // the identical time grid, so the host-weighted fleet aggregate
        // never loses an early-finishing (frozen) cell from its weights.
        driver.set_cadence_horizon(source.last_arrival);
        self.rejected_vms = with_observers(metrics, extra, |observers| {
            driver.step(source, scheduler, observers, None, false);
            driver.finish(scheduler, observers)
        });
    }

    fn into_outcome(self) -> CellOutcome {
        CellOutcome {
            cell: self.id,
            hosts: self.hosts,
            routed_vms: self.routed_vms,
            rejected_vms: self.rejected_vms,
            stats: self.scheduler.stats(),
            series: self.metrics.into_series(),
        }
    }
}

/// Call `f` with a cell's observer list: its metric recorder, then `extra`
/// in slice order. Only a 1-cell fleet has `extra` observers; the list is
/// then built once per epoch, never per event.
fn with_observers<R>(
    metrics: &mut MetricRecorder,
    extra: &mut [&mut dyn SimObserver],
    f: impl FnOnce(&mut [&mut dyn SimObserver]) -> R,
) -> R {
    if extra.is_empty() {
        return f(&mut [metrics]);
    }
    let mut observers: Vec<&mut dyn SimObserver> = Vec::with_capacity(1 + extra.len());
    observers.push(metrics);
    for observer in extra.iter_mut() {
        observers.push(&mut **observer);
    }
    f(&mut observers)
}

/// How many threads `jobs` independent jobs run on: `threads`, or one per
/// available CPU when it is 0, clamped to `1..=jobs`. Fleet lanes (jobs =
/// cells) and [`ExperimentSuite`](crate::suite::ExperimentSuite) arms
/// share it.
pub(crate) fn worker_count(threads: usize, jobs: usize) -> usize {
    let requested = if threads == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    requested.clamp(1, jobs.max(1))
}

/// Drive a whole fleet over one event source.
///
/// The run alternates three phases per epoch of `summary_refresh`
/// length:
///
/// 1. **refresh** — hand the router every cell's [`CellSummary`] as
///    extracted at the epoch's start (skipped for routers that never read
///    them);
/// 2. **route** — assign every source event due before the epoch end to a
///    cell, serially, in arrival order;
/// 3. **run** — step every cell's engine to the epoch end (the epoch
///    boundary is the barrier).
///
/// An epoch that would route nothing is folded into the step before it,
/// and no summary is taken past the source's last arrival (see the
/// [module docs](self)); neither changes a route.
///
/// There is one coordinator loop; `threads` (0 = one per CPU, capped at
/// the cell count) only decides where the cells' sessions live. With two
/// or more lanes each session runs on a thread this call spawns inside
/// one `std::thread::scope` and joins before it returns, and the drain of
/// the next epoch — for summary-free routers its routing too — overlaps
/// execution of the current one. With one lane or one cell a single
/// session runs inline on the calling thread. See the [module
/// docs](self). Outcomes are bit-identical on every lane and at any
/// thread count.
///
/// Once the source is exhausted the cells run to completion and the
/// per-cell outcomes are returned in cell order.
///
/// When `chaos` is set, every cell runs with its own
/// [`ChaosController`] (scheduling that cell's incident and
/// recalibration timeline items) and its per-cell swap from
/// [`FleetChaos::swaps`] as the scheduler predictor; incident actions
/// are ordinary timeline items inside each cell's deterministic drive
/// loop, so the bit-identity guarantee is unchanged.
///
/// `_pool` is ignored. Its type is uninhabited, so the only argument a
/// caller can pass is `None`; it keeps existing nine-argument calls
/// compiling.
///
/// # Panics
///
/// A panic inside a lane thread aborts the run with a
/// [`FleetWorkerError`] payload naming the lane, its cells and the
/// original message. A panic on the coordinator (router or predictor) or
/// on the inline lane unwinds with its own payload once every lane
/// thread has exited.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet(
    cells: Vec<FleetCell>,
    predictor: Arc<dyn LifetimePredictor>,
    router: RouterSpec,
    summary_refresh: Duration,
    timing: &DriveTiming,
    source: &mut dyn EventSource,
    threads: usize,
    chaos: Option<&FleetChaos>,
    _pool: Option<&Infallible>,
) -> FleetOutcome {
    run_fleet_observed(
        cells,
        predictor,
        router,
        summary_refresh,
        timing,
        source,
        threads,
        chaos,
        &mut [],
    )
}

/// [`run_fleet`] with `observers` attached after the cell's metric
/// recorder, in slice order — the engine behind every
/// [`Experiment`](crate::experiment::Experiment) run.
///
/// # Panics
///
/// Panics when `observers` is non-empty and the fleet has more than one
/// cell: cells run in parallel, so a shared observer could not see a
/// deterministic event order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fleet_observed(
    cells: Vec<FleetCell>,
    predictor: Arc<dyn LifetimePredictor>,
    router: RouterSpec,
    summary_refresh: Duration,
    timing: &DriveTiming,
    source: &mut dyn EventSource,
    threads: usize,
    chaos: Option<&FleetChaos>,
    observers: &mut [&mut dyn SimObserver],
) -> FleetOutcome {
    assert!(
        observers.is_empty() || cells.len() == 1,
        "extra observers need a 1-cell fleet (cells run in parallel); \
         use the per-cell results on ExperimentReport::fleet instead"
    );
    let runners = build_runners(cells, &predictor, summary_refresh, timing, chaos);
    let router = Router::new(router, runners.len());
    let lanes = worker_count(threads, runners.len());
    let predictor = predictor.as_ref();
    if lanes <= 1 {
        let lanes = Lanes::inline(runners, observers);
        return coordinate(lanes, router, predictor, summary_refresh, source);
    }
    // The lanes' channels live in `coordinate`'s frame: if the router or
    // the predictor panics, unwinding drops them, every lane sees a closed
    // channel and exits, and the scope re-raises the coordinator's panic.
    thread::scope(|scope| {
        let lanes = Lanes::threaded(scope, runners, lanes);
        coordinate(lanes, router, predictor, summary_refresh, source)
    })
}

/// The one epoch loop (see the [module docs](self)): route each epoch's
/// events serially, hand every lane its batch, and drain the next epoch
/// while the lanes step this one.
fn coordinate(
    mut lanes: Lanes<'_, '_, '_>,
    mut router: Router,
    predictor: &dyn LifetimePredictor,
    summary_refresh: Duration,
    source: &mut dyn EventSource,
) -> FleetOutcome {
    let lane_count = lanes.len();
    let needs_summaries = router.needs_summaries();
    if needs_summaries {
        for lane in 0..lane_count {
            lanes.send(lane, EpochMsg::Prime);
        }
    }
    let mut pending: Vec<TraceEvent> = Vec::new();
    let mut epoch_end = SimTime::ZERO + summary_refresh;
    let (mut closed, mut last_arrival) = drain_epoch(source, epoch_end, &mut pending);
    if needs_summaries {
        // Barrier zero: the untouched cells' summaries (on lane threads
        // extracted while the drain above ran).
        router.refresh(lanes.summaries());
    }

    let mut batches: Vec<Vec<(u32, TraceEvent)>> = (0..lane_count).map(|_| Vec::new()).collect();
    loop {
        // Route this epoch's events serially, in arrival order.
        for event in pending.drain(..) {
            let cell = router.route(&event, predictor);
            batches[cell % lane_count].push(((cell / lane_count) as u32, event));
        }
        // Epochs that would route nothing are not stepped one by one: this
        // step runs on to the start of the epoch that holds the source's
        // next event, still on the refresh grid.
        if let Some(next) = source.peek().map(|event| event.time) {
            epoch_end = epoch_holding(epoch_end, summary_refresh, next);
        }
        // The summaries taken at `epoch_end` route only the next epoch's
        // creates, so none are taken once no create can come.
        let want_summaries =
            needs_summaries && !closed && last_arrival.is_none_or(|t| t >= epoch_end);
        for (lane, batch) in batches.iter_mut().enumerate() {
            let step = EpochMsg::Step {
                batch: std::mem::take(batch),
                limit: epoch_end,
                closed,
                last_arrival,
                want_summaries,
            };
            lanes.send(lane, step);
        }
        if closed {
            break;
        }
        // Drain the next epoch while lane threads step this one. For
        // summary-free routers there is no barrier at all — the loop runs
        // ahead until the bounded epoch channels push back.
        let next_end = epoch_end + summary_refresh;
        (closed, last_arrival) = drain_epoch(source, next_end, &mut pending);
        if want_summaries {
            // Barrier: the summaries extracted at this epoch's limit are
            // the next epoch's refresh.
            router.refresh(lanes.summaries());
        }
        epoch_end = next_end;
    }

    FleetOutcome {
        cells: lanes.outcomes(),
    }
}

/// Check [`run_fleet`]'s arguments and build one engine per cell.
fn build_runners(
    cells: Vec<FleetCell>,
    predictor: &Arc<dyn LifetimePredictor>,
    summary_refresh: Duration,
    timing: &DriveTiming,
    chaos: Option<&FleetChaos>,
) -> Vec<CellRunner> {
    assert!(!cells.is_empty(), "fleet needs at least one cell");
    assert!(
        !summary_refresh.is_zero(),
        "summary refresh cadence must be non-zero"
    );
    if let Some(chaos) = chaos {
        assert_eq!(
            chaos.swaps.len(),
            cells.len(),
            "fleet chaos needs one swappable predictor per cell"
        );
    }
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| CellRunner::new(i, cell, predictor.clone(), timing, chaos))
        .collect()
}

/// The end of the last refresh-grid epoch that ends at or before `next`:
/// `epoch_end` plus as many whole `refresh` steps as fit in front of
/// `next` (none when `next` lies in the epoch after `epoch_end`). The
/// epoch that starts there holds `next`. Never past `next`, so it cannot
/// overflow.
fn epoch_holding(epoch_end: SimTime, refresh: Duration, next: SimTime) -> SimTime {
    let gap = next.saturating_since(epoch_end).as_secs();
    SimTime(epoch_end.as_secs() + gap / refresh.as_secs() * refresh.as_secs())
}

/// Pull every source event due before `until` into `pending` (every event
/// left when `until` is `SimTime(u64::MAX)`, where the grid saturates);
/// returns whether the source is exhausted and its last arrival, read in
/// that order once per epoch.
fn drain_epoch(
    source: &mut dyn EventSource,
    until: SimTime,
    pending: &mut Vec<TraceEvent>,
) -> (bool, Option<SimTime>) {
    while source
        .peek()
        .is_some_and(|event| event.time < until || until == SimTime(u64::MAX))
    {
        pending.push(source.next_event().expect("peeked non-empty"));
    }
    (source.peek().is_none(), source.last_arrival_time())
}

/// One epoch's worth of work for a fleet session.
enum EpochMsg {
    /// Extract every owned cell's summary at `SimTime::ZERO` without
    /// stepping: the summaries of the untouched cells, which the first
    /// epoch is routed on.
    Prime,
    /// Enqueue the routed batch, step every owned cell to `limit` (or run
    /// to completion when `closed`), then extract summaries at `limit` if
    /// `want_summaries` — the snapshots the router needs for the *next*
    /// epoch, taken at the barrier.
    Step {
        /// `(local slot, event)` in routing order.
        batch: Vec<(u32, TraceEvent)>,
        limit: SimTime,
        closed: bool,
        last_arrival: Option<SimTime>,
        want_summaries: bool,
    },
}

/// What a fleet session answers the coordinator, one item per owned
/// cell (each names its cell).
enum WorkerReply {
    Summaries(Vec<CellSummary>),
    /// The session's final reply.
    Outcomes(Vec<CellOutcome>),
}

/// The cells one lane owns for the entire run, in local-slot order, and
/// the one handler of the epoch protocol: a lane thread calls it from
/// [`serve_lane`], the inline lane from the coordinator itself.
struct FleetSession(Vec<CellRunner>);

impl FleetSession {
    /// Apply one message, with `observers` following every owned cell's
    /// metric recorder (only ever non-empty for a single cell). `Prime`
    /// and a `Step` that wants summaries answer `Summaries`, the closed
    /// `Step` answers `Outcomes` and ends the session, any other `Step`
    /// answers nothing.
    fn handle(
        &mut self,
        msg: EpochMsg,
        observers: &mut [&mut dyn SimObserver],
    ) -> Option<WorkerReply> {
        match msg {
            EpochMsg::Prime => Some(WorkerReply::Summaries(self.summaries(SimTime::ZERO))),
            EpochMsg::Step {
                batch,
                limit,
                closed,
                last_arrival,
                want_summaries,
            } => {
                for (slot, event) in batch {
                    self.0[slot as usize].enqueue(event);
                }
                for runner in self.0.iter_mut() {
                    runner.source.last_arrival = last_arrival;
                    if closed {
                        runner.run_to_completion(observers);
                    } else {
                        runner.step_epoch(limit, observers);
                    }
                }
                if closed {
                    let outcomes = self.0.drain(..).map(CellRunner::into_outcome);
                    Some(WorkerReply::Outcomes(outcomes.collect()))
                } else if want_summaries {
                    Some(WorkerReply::Summaries(self.summaries(limit)))
                } else {
                    None
                }
            }
        }
    }

    fn summaries(&mut self, now: SimTime) -> Vec<CellSummary> {
        self.0.iter_mut().map(|r| r.summary(now)).collect()
    }
}

/// A lane thread's whole life: answer epoch messages until the closed
/// epoch, or until the coordinator hangs up. A panic in here unwinds the
/// thread and closes both its channels; the coordinator then joins the
/// thread for its payload.
fn serve_lane(
    mut session: FleetSession,
    epochs: mpsc::Receiver<EpochMsg>,
    reply: mpsc::Sender<WorkerReply>,
) {
    while let Ok(msg) = epochs.recv() {
        if let Some(answer) = session.handle(msg, &mut []) {
            let last = matches!(answer, WorkerReply::Outcomes(_));
            if reply.send(answer).is_err() || last {
                return;
            }
        }
    }
}

/// A fleet lane thread died mid-run (its session panicked). Raised by the
/// coordinator via `std::panic::panic_any` in place of the bare channel
/// hang-up, so the failure names **which** lane died, **which** cells it
/// owned (their state is lost), and the original panic message. Lane
/// threads only: a panic on the inline lane is already on the caller's
/// thread and unwinds through [`run_fleet`] with its own payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkerError {
    /// Index of the lane whose thread died.
    pub worker: usize,
    /// Global indices of the cells the dead lane owned.
    pub cells: Vec<usize>,
    /// The lane's panic payload, stringified when possible.
    pub panic: String,
}

impl fmt::Display for FleetWorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet worker {} (owning cells {:?}) died: {}",
            self.worker, self.cells, self.panic
        )
    }
}

impl std::error::Error for FleetWorkerError {}

/// Render a captured panic payload as a message: the `&str` / `String`
/// payloads `panic!` produces, or a placeholder for exotic `panic_any`
/// payloads.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many epochs the coordinator may run ahead of a lane thread: the
/// bound of each lane's epoch channel. Depth 2 lets routing of the next
/// epoch overlap execution of the current one while keeping queued-event
/// memory bounded: O(cells + one epoch's events) however fast routing is.
const PIPELINE_DEPTH: usize = 2;

/// Where a run's sessions live (see the [module docs](self)). Cells are
/// striped `cell i → lane i % lanes`, local slot `i / lanes`.
enum Lanes<'scope, 'p, 'o> {
    /// One session, owned by the coordinator and run on its thread, with
    /// the caller's `observers`; `reply` keeps the answer to the last
    /// message until it is read.
    Inline {
        session: FleetSession,
        observers: &'p mut [&'o mut dyn SimObserver],
        reply: Option<WorkerReply>,
    },
    /// One scoped thread per lane, each owning its session behind a
    /// bounded epoch channel and a reply channel.
    Threaded {
        epochs: Vec<mpsc::SyncSender<EpochMsg>>,
        replies: Vec<mpsc::Receiver<WorkerReply>>,
        threads: Vec<thread::ScopedJoinHandle<'scope, ()>>,
        cell_count: usize,
    },
}

impl<'scope, 'p, 'o> Lanes<'scope, 'p, 'o> {
    fn inline(
        runners: Vec<CellRunner>,
        observers: &'p mut [&'o mut dyn SimObserver],
    ) -> Lanes<'scope, 'p, 'o> {
        Lanes::Inline {
            session: FleetSession(runners),
            observers,
            reply: None,
        }
    }

    /// Stripe `runners` over `lanes` threads spawned on `scope`.
    fn threaded(
        scope: &'scope thread::Scope<'scope, '_>,
        runners: Vec<CellRunner>,
        lanes: usize,
    ) -> Lanes<'scope, 'p, 'o> {
        let cell_count = runners.len();
        // Push order gives the slot map: cell i lands at slot i / lanes.
        let mut owned: Vec<Vec<CellRunner>> = (0..lanes).map(|_| Vec::new()).collect();
        for (i, runner) in runners.into_iter().enumerate() {
            owned[i % lanes].push(runner);
        }
        let mut epochs = Vec::with_capacity(lanes);
        let mut replies = Vec::with_capacity(lanes);
        let mut threads = Vec::with_capacity(lanes);
        for owned in owned {
            let (epoch_tx, epoch_rx) = mpsc::sync_channel(PIPELINE_DEPTH);
            let (reply_tx, reply_rx) = mpsc::channel();
            epochs.push(epoch_tx);
            replies.push(reply_rx);
            let session = FleetSession(owned);
            threads.push(scope.spawn(move || serve_lane(session, epoch_rx, reply_tx)));
        }
        Lanes::Threaded {
            epochs,
            replies,
            threads,
            cell_count,
        }
    }

    fn len(&self) -> usize {
        match self {
            Lanes::Inline { .. } => 1,
            Lanes::Threaded { epochs, .. } => epochs.len(),
        }
    }

    fn send(&mut self, lane: usize, msg: EpochMsg) {
        match self {
            Lanes::Inline {
                session,
                observers,
                reply,
            } => {
                debug_assert!(reply.is_none(), "the last answer was never read");
                *reply = session.handle(msg, observers);
            }
            Lanes::Threaded { epochs, .. } => {
                if epochs[lane].send(msg).is_err() {
                    self.lane_died(lane);
                }
            }
        }
    }

    fn recv(&mut self, lane: usize) -> WorkerReply {
        match self {
            Lanes::Inline { reply, .. } => reply.take().expect("the inline lane answered"),
            Lanes::Threaded { replies, .. } => match replies[lane].recv() {
                Ok(answer) => answer,
                Err(_) => self.lane_died(lane),
            },
        }
    }

    /// Lane `lane`'s channel closed mid-run, so its thread is gone: join
    /// it for the panic payload and abort the run with a
    /// [`FleetWorkerError`].
    fn lane_died(&mut self, lane: usize) -> ! {
        let Lanes::Threaded {
            threads,
            cell_count,
            ..
        } = self
        else {
            unreachable!("the inline lane has no channel to close");
        };
        let lanes = threads.len();
        let panic = match threads.swap_remove(lane).join() {
            Err(payload) => panic_message(payload.as_ref()),
            Ok(()) => "lane thread exited without a panic".to_string(),
        };
        let cells = (0..*cell_count).filter(|c| c % lanes == lane).collect();
        std::panic::panic_any(FleetWorkerError {
            worker: lane,
            cells,
            panic,
        });
    }

    /// One reply from every lane, as [`WorkerReply::Summaries`], in cell
    /// order.
    fn summaries(&mut self) -> Vec<CellSummary> {
        let mut all: Vec<CellSummary> = (0..self.len())
            .flat_map(|lane| match self.recv(lane) {
                WorkerReply::Summaries(summaries) => summaries,
                WorkerReply::Outcomes(_) => unreachable!("outcomes before the closed epoch"),
            })
            .collect();
        all.sort_unstable_by_key(|summary| summary.cell);
        all
    }

    /// The final reply of every lane, in cell order.
    fn outcomes(&mut self) -> Vec<CellOutcome> {
        let mut all: Vec<CellOutcome> = (0..self.len())
            .flat_map(|lane| match self.recv(lane) {
                WorkerReply::Outcomes(outcomes) => outcomes,
                WorkerReply::Summaries(_) => unreachable!("summaries after the closed epoch"),
            })
            .collect();
        all.sort_unstable_by_key(|outcome| outcome.cell);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosSource, DegradedPredictor, Incident, OutageMode, RecalibrationSpec};
    use crate::workload::{StreamingWorkload, WorkloadGenerator};
    use lava_core::host::HostId;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;
    use lava_sched::baseline::BestFitPolicy;
    use lava_sched::Algorithm;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

    fn base_pool(hosts: usize) -> PoolConfig {
        PoolConfig {
            hosts,
            ..PoolConfig::default()
        }
    }

    fn test_timing(tick_interval: Duration) -> DriveTiming {
        DriveTiming {
            warmup: Duration::ZERO,
            warmup_with_baseline: false,
            tick_interval,
            sample_interval: Duration::from_hours(1),
            sample_during_warmup: false,
            defrag_trigger: None,
        }
    }

    fn summary(cell: u32, free_cores: u64, capacity_cores: u64, mean_exit: u64) -> CellSummary {
        CellSummary {
            cell: CellId(cell),
            as_of: SimTime::ZERO,
            hosts: 4,
            empty_hosts: 0,
            capacity: Resources::new(capacity_cores * 1000, 0, 0),
            free: Resources::new(free_cores * 1000, 0, 0),
            live_vms: 1,
            mean_predicted_exit: SimTime(mean_exit),
            misprediction_log10: 0.0,
        }
    }

    fn create(vm: u64, at: u64, cores: u64, lifetime_hours: u64) -> TraceEvent {
        TraceEvent::create(
            SimTime(at),
            VmId(vm),
            VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
            Duration::from_hours(lifetime_hours),
        )
    }

    #[test]
    fn router_spec_parses_and_displays() {
        for spec in RouterSpec::ALL {
            assert_eq!(spec.to_string().parse::<RouterSpec>(), Ok(spec));
        }
        assert_eq!(
            "RoundRobin".parse::<RouterSpec>(),
            Ok(RouterSpec::RoundRobin)
        );
        assert!("quantum".parse::<RouterSpec>().is_err());
        assert_eq!(RouterSpec::default(), RouterSpec::Hash);
    }

    #[test]
    fn summary_need_depends_on_router_and_cell_count() {
        assert!(!RouterSpec::Hash.needs_summaries(8));
        assert!(!RouterSpec::RoundRobin.needs_summaries(8));
        assert!(RouterSpec::LeastLoaded.needs_summaries(8));
        assert!(RouterSpec::LifetimeAware.needs_summaries(8));
        assert!(RouterSpec::MispredictionAware.needs_summaries(8));
        assert!(!RouterSpec::LeastLoaded.needs_summaries(1));
        assert!(!RouterSpec::MispredictionAware.needs_summaries(1));
    }

    #[test]
    fn hash_router_is_stateless_and_pairs_exits_with_creates() {
        let oracle = OraclePredictor::new();
        let mut router = Router::new(RouterSpec::Hash, 5);
        for vm in 0..50u64 {
            let cell = router.route(&create(vm, 0, 2, 1), &oracle);
            let exit_cell = router.route(&TraceEvent::exit(SimTime(100), VmId(vm)), &oracle);
            assert_eq!(cell, exit_cell, "exit must follow its create");
        }
        assert!(router.vm_cell.is_empty(), "hash router tracks nothing");
        // Spread: with 50 VMs over 5 cells, no cell should be empty.
        let counts = (0..50u64).fold(vec![0usize; 5], |mut acc, vm| {
            acc[(mix64(vm) % 5) as usize] += 1;
            acc
        });
        assert!(
            counts.iter().all(|&c| c > 0),
            "degenerate spread {counts:?}"
        );
    }

    /// Places best-fit until its fuse runs out, then panics — a stand-in
    /// for a buggy policy blowing up inside a cell mid-run.
    struct ExplodingPolicy {
        fuse: usize,
    }

    impl PlacementPolicy for ExplodingPolicy {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn choose_host(
            &mut self,
            cluster: &Cluster,
            vm: &Vm,
            now: SimTime,
            exclude: Option<HostId>,
        ) -> Option<HostId> {
            assert!(self.fuse > 0, "policy exploded placing {:?}", vm.id());
            self.fuse -= 1;
            BestFitPolicy.choose_host(cluster, vm, now, exclude)
        }
    }

    /// A 4-cell round-robin fleet over 8 hosts whose cell 1 runs an
    /// [`ExplodingPolicy`] with the given fuse, run at `threads` workers;
    /// returns the payload the run unwound with.
    fn exploding_fleet_payload(fuse: usize, threads: usize) -> Box<dyn std::any::Any + Send> {
        let config = FleetConfig::new(4)
            .with_router(RouterSpec::RoundRobin)
            .with_threads(threads);
        let base = base_pool(8);
        let cells = config.build_cells(&base, |id| {
            let policy: Box<dyn PlacementPolicy> = if id.0 == 1 {
                Box::new(ExplodingPolicy { fuse })
            } else {
                Box::new(BestFitPolicy)
            };
            (policy, None)
        });
        let mut source = StreamingWorkload::new(base);
        catch_unwind(AssertUnwindSafe(|| {
            run_fleet(
                cells,
                Arc::new(OraclePredictor::new()),
                config.router,
                config.summary_refresh,
                &test_timing(Duration::from_mins(5)),
                &mut source,
                config.threads,
                None,
                None,
            )
        }))
        .expect_err("a panicking cell must abort the run")
    }

    #[test]
    fn dead_session_worker_reports_structured_error() {
        // Cells 1 and 3 stripe onto lane 1 of 2; the round-robin router
        // sends cell 1 traffic immediately, killing that lane's thread
        // mid-run.
        let err = exploding_fleet_payload(0, 2)
            .downcast::<FleetWorkerError>()
            .expect("the abort payload is the structured error");
        assert_eq!(err.worker, 1);
        assert_eq!(err.cells, vec![1, 3]);
        assert!(
            err.panic.contains("policy exploded"),
            "original panic message preserved: {}",
            err.panic
        );
        let shown = err.to_string();
        assert!(shown.contains("fleet worker 1"), "display: {shown}");
        assert!(shown.contains("[1, 3]"), "display: {shown}");
    }

    #[test]
    fn inline_lane_panic_unwinds_with_its_own_payload() {
        // One worker: the session runs on the calling thread, so there is
        // no dead worker to report — the policy's own panic (here on its
        // fourth placement) comes out of `run_fleet`.
        let payload = exploding_fleet_payload(3, 1);
        assert!(
            !payload.is::<FleetWorkerError>(),
            "the inline lane has no dead-worker translation"
        );
        let message = panic_message(payload.as_ref());
        assert!(message.contains("policy exploded"), "payload: {message}");
    }

    /// The oracle until its fuse runs out, then a panic — a router-side
    /// model blowing up on the coordinator.
    struct ExplodingPredictor {
        calls: AtomicUsize,
        fuse: usize,
    }

    impl LifetimePredictor for ExplodingPredictor {
        fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
            let call = self.calls.fetch_add(1, AtomicOrdering::Relaxed);
            assert!(call < self.fuse, "router predictor exploded on call {call}");
            OraclePredictor::new().predict_remaining(vm, now)
        }
        fn name(&self) -> &'static str {
            "exploding"
        }
    }

    #[test]
    fn coordinator_panic_with_live_lanes_unwinds_with_its_own_payload() {
        // The cells predict through oracle swaps (the chaos seam), so only
        // the router calls the exploding predictor: on the coordinator,
        // mid-run, while both lane threads hold cells. The run must not
        // hang on them, and must not blame a lane.
        let config = FleetConfig::new(4)
            .with_router(RouterSpec::LifetimeAware)
            .with_threads(2);
        let base = base_pool(16);
        let oracle: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let chaos = FleetChaos {
            incidents: IncidentPlan::default(),
            adaptation: AdaptationSpec::default(),
            swaps: (0..config.cells)
                .map(|_| SwappablePredictor::new(oracle.clone()))
                .collect(),
        };
        let cells = config.build_cells(&base, |id| {
            let swap = chaos.swaps[id.0 as usize].clone();
            (Algorithm::Nilas.build_policy(swap), None)
        });
        let predictor = Arc::new(ExplodingPredictor {
            calls: AtomicUsize::new(0),
            fuse: 200,
        });
        let mut source = StreamingWorkload::new(base);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_fleet(
                cells,
                predictor,
                config.router,
                config.summary_refresh,
                &test_timing(Duration::from_mins(5)),
                &mut source,
                config.threads,
                Some(&chaos),
                None,
            )
        }))
        .expect_err("the router's panic must abort the run");
        assert!(
            !payload.is::<FleetWorkerError>(),
            "no lane died: the coordinator's own payload comes out"
        );
        let message = panic_message(payload.as_ref());
        assert!(
            message.contains("router predictor exploded on call 200"),
            "payload: {message}"
        );
    }

    #[test]
    fn repin_redirects_exit_and_in_flight_cpu() {
        let oracle = OraclePredictor::new();
        // Hash: a repinned VM's exit follows the pin, not the rehash.
        let mut router = Router::new(RouterSpec::Hash, 5);
        let vm = 7u64;
        let hashed = router.route(&create(vm, 0, 2, 1), &oracle);
        let target = (hashed + 1) % 5;
        router.repin(VmId(vm), hashed, target, 2000);
        assert_eq!(
            router.route(&TraceEvent::exit(SimTime(10), VmId(vm)), &oracle),
            target
        );
        assert!(router.vm_cell.is_empty(), "pin consumed by the exit");
        // Un-repinned VMs still rehash statelessly.
        let other = router.route(&create(vm + 1, 0, 2, 1), &oracle);
        assert_eq!(
            router.route(&TraceEvent::exit(SimTime(10), VmId(vm + 1)), &oracle),
            other
        );

        // Stateful: repin overwrites the pin and moves the in-flight CPU.
        let mut router = Router::new(RouterSpec::RoundRobin, 3);
        assert_eq!(router.route(&create(1, 0, 4, 1), &oracle), 0);
        router.repin(VmId(1), 0, 2, 4000);
        assert_eq!(router.routed_cpu, vec![0, 0, 4000]);
        assert_eq!(
            router.route(&TraceEvent::exit(SimTime(10), VmId(1)), &oracle),
            2
        );
    }

    #[test]
    fn round_robin_cycles_and_routes_exits_by_assignment() {
        let oracle = OraclePredictor::new();
        let mut router = Router::new(RouterSpec::RoundRobin, 3);
        let cells: Vec<usize> = (0..6u64)
            .map(|vm| router.route(&create(vm, 0, 2, 1), &oracle))
            .collect();
        assert_eq!(cells, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(
            router.route(&TraceEvent::exit(SimTime(5), VmId(4)), &oracle),
            1
        );
        assert_eq!(router.vm_cell.len(), 5, "exited VM forgotten");
    }

    #[test]
    fn least_loaded_prefers_free_fraction_and_tracks_in_flight_routing() {
        let oracle = OraclePredictor::new();
        let mut router = Router::new(RouterSpec::LeastLoaded, 2);
        // Cell 1 has the higher free fraction.
        router.refresh(vec![summary(0, 16, 64, 0), summary(1, 48, 64, 0)]);
        assert_eq!(router.route(&create(1, 0, 2, 1), &oracle), 1);
        // Keep routing big VMs: the in-flight accumulator erodes cell 1's
        // advantage until cell 0 wins, despite no refresh in between.
        let mut chosen = Vec::new();
        for vm in 2..8u64 {
            chosen.push(router.route(&create(vm, 0, 16, 1), &oracle));
        }
        assert!(
            chosen.contains(&0),
            "stale summary never corrected by in-flight routing: {chosen:?}"
        );
    }

    #[test]
    fn lifetime_aware_matches_exit_profiles_and_falls_back_when_full() {
        let oracle = OraclePredictor::new();
        let mut router = Router::new(RouterSpec::LifetimeAware, 2);
        let hour = 3600u64;
        // Cell 0 drains soon, cell 1 is long-lived.
        router.refresh(vec![
            summary(0, 32, 64, hour),
            summary(1, 32, 64, 200 * hour),
        ]);
        // A short VM joins the soon-draining cell, a long one the late cell.
        assert_eq!(router.route(&create(1, 0, 2, 1), &oracle), 0);
        assert_eq!(router.route(&create(2, 0, 2, 190), &oracle), 1);
        // No feasible cell for a 64-core VM with 32 free: least-loaded
        // fallback (equal fractions minus routed → cell with more left).
        let fallback = router.route(&create(3, 0, 64, 1), &oracle);
        assert!(fallback < 2);
    }

    #[test]
    fn misprediction_penalty_steers_away_from_wrong_cells() {
        let oracle = OraclePredictor::new();
        let hour = 3600u64;
        // Equidistant exit profiles, equal free CPU — only the
        // misprediction penalty splits the cells.
        let mut wrong = summary(0, 32, 64, 10 * hour);
        wrong.misprediction_log10 = 2.0;
        let clean = summary(1, 32, 64, 10 * hour);
        let mut router = Router::new(RouterSpec::MispredictionAware, 2);
        router.refresh(vec![wrong, clean]);
        assert_eq!(router.route(&create(1, 0, 2, 10), &oracle), 1);

        // The plain lifetime-aware router ignores the penalty and keeps
        // the lower cell id on the tie.
        let mut plain = Router::new(RouterSpec::LifetimeAware, 2);
        plain.refresh(vec![wrong, clean]);
        assert_eq!(plain.route(&create(2, 0, 2, 10), &oracle), 0);

        // A much closer exit profile still beats the penalty: nearness
        // can outweigh distrust, it is a discount not a veto.
        let mut near_but_wrong = summary(0, 32, 64, 10 * hour);
        near_but_wrong.misprediction_log10 = 0.2;
        let far_but_clean = summary(1, 32, 64, 200 * hour);
        let mut router = Router::new(RouterSpec::MispredictionAware, 2);
        router.refresh(vec![near_but_wrong, far_but_clean]);
        assert_eq!(router.route(&create(3, 0, 2, 10), &oracle), 0);

        // Infeasible request → least-loaded fallback, like LifetimeAware.
        let mut router = Router::new(RouterSpec::MispredictionAware, 2);
        router.refresh(vec![wrong, clean]);
        assert!(router.route(&create(4, 0, 64, 10), &oracle) < 2);
    }

    #[test]
    fn single_cell_router_short_circuits() {
        let oracle = OraclePredictor::new();
        let mut router = Router::new(RouterSpec::LifetimeAware, 1);
        assert!(!router.needs_summaries());
        assert_eq!(router.route(&create(1, 0, 2, 1), &oracle), 0);
        assert_eq!(
            router.route(&TraceEvent::exit(SimTime(9), VmId(1)), &oracle),
            0
        );
    }

    #[test]
    fn cell_layout_splits_hosts_and_applies_overrides() {
        let config = FleetConfig::new(3)
            .with_override(CellOverride::new(2).with_hosts(50).with_host_shape(96, 384));
        let layout = config.cell_layout(&base_pool(10));
        assert_eq!(layout.len(), 3);
        // 10 hosts over 3 cells: 4 + 3, then the override replaces cell 2.
        assert_eq!(layout[0].1, 4);
        assert_eq!(layout[1].1, 3);
        assert_eq!(layout[2].1, 50);
        assert_eq!(layout[0].0, CellId(0));
        // Overridden SKU shape on cell 2 only.
        assert_eq!(layout[2].2.capacity().cpu_milli, 96_000);
        assert_eq!(layout[1].2.capacity().cpu_milli, 64_000);
    }

    #[test]
    fn build_cells_offsets_pool_ids() {
        let mut base = base_pool(6);
        base.pool_id = PoolId(10);
        let cells = FleetConfig::new(2).build_cells(&base, |_| {
            (
                lava_sched::Algorithm::Baseline.build_policy(Arc::new(OraclePredictor::new())),
                None,
            )
        });
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].pool.id(), PoolId(10));
        assert_eq!(cells[1].pool.id(), PoolId(11));
        assert_eq!(cells[0].pool.host_count(), 3);
    }

    #[test]
    fn worker_count_clamps_to_cells() {
        assert_eq!(worker_count(4, 2), 2);
        assert_eq!(worker_count(1, 8), 1);
        assert!(worker_count(0, 64) >= 1);
    }

    #[test]
    fn fleet_config_round_trips_through_json() {
        let config = FleetConfig::new(4)
            .with_router(RouterSpec::LifetimeAware)
            .with_summary_refresh(Duration::from_mins(5))
            .with_override(CellOverride::new(1).with_hosts(7))
            .with_threads(2);
        let json = serde_json::to_string(&config).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }

    // --- the executable specification ------------------------------------

    /// The plain fleet loop — refresh, route, run, once per epoch, nothing
    /// overlapped, no messages — that [`run_fleet`]'s coordinator must
    /// reproduce bit for bit on every lane. With `threads > 1` an epoch's
    /// cells run on that many scoped threads, spawned per epoch.
    #[allow(clippy::too_many_arguments)]
    fn reference_fleet(
        cells: Vec<FleetCell>,
        predictor: Arc<dyn LifetimePredictor>,
        router: RouterSpec,
        summary_refresh: Duration,
        timing: &DriveTiming,
        source: &mut dyn EventSource,
        threads: usize,
        chaos: Option<&FleetChaos>,
    ) -> FleetOutcome {
        let mut runners = build_runners(cells, &predictor, summary_refresh, timing, chaos);
        let mut router = Router::new(router, runners.len());
        let mut epoch_start = SimTime::ZERO;
        loop {
            if router.needs_summaries() {
                let summaries = runners.iter_mut().map(|r| r.summary(epoch_start));
                router.refresh(summaries.collect());
            }
            let epoch_end = epoch_start + summary_refresh;
            while source.peek().is_some_and(|event| event.time < epoch_end) {
                let event = source.next_event().expect("peeked non-empty");
                let cell = router.route(&event, predictor.as_ref());
                runners[cell].enqueue(event);
            }
            let closed = source.peek().is_none();
            let last_arrival = source.last_arrival_time();
            let run = |runner: &mut CellRunner| {
                runner.source.last_arrival = last_arrival;
                if closed {
                    runner.run_to_completion(&mut []);
                } else {
                    runner.step_epoch(epoch_end, &mut []);
                }
            };
            if threads <= 1 {
                runners.iter_mut().for_each(run);
            } else {
                let per_thread = runners.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    for chunk in runners.chunks_mut(per_thread) {
                        scope.spawn(|| chunk.iter_mut().for_each(run));
                    }
                });
            }
            if closed {
                break;
            }
            epoch_start = epoch_end;
        }
        FleetOutcome {
            cells: runners.into_iter().map(CellRunner::into_outcome).collect(),
        }
    }

    /// Which fleet executor to drive in [`run_fleet_engine`].
    enum Engine {
        /// [`reference_fleet`].
        Reference { threads: usize },
        /// [`run_fleet`].
        Coordinator { threads: usize },
    }

    /// Drive one fleet configuration through the chosen executor, building
    /// fresh cells, predictor seams and event source each time (the chaos
    /// swaps and the chaos source are stateful, so comparison runs must not
    /// share them). Mirrors the wiring `Experiment::run` does.
    fn run_fleet_engine(
        engine: Engine,
        base: &PoolConfig,
        fleet: &FleetConfig,
        incidents: &IncidentPlan,
        adaptation: AdaptationSpec,
        algorithm: Algorithm,
    ) -> FleetOutcome {
        let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let chaos_active = !incidents.is_empty() || !adaptation.is_empty();
        let chaos = chaos_active.then(|| FleetChaos {
            incidents: incidents.clone(),
            adaptation,
            swaps: (0..fleet.cells)
                .map(|_| SwappablePredictor::new(predictor.clone()))
                .collect(),
        });
        let cells = fleet.build_cells(base, |cell| {
            let cell_predictor: Arc<dyn LifetimePredictor> = match &chaos {
                Some(chaos) => chaos.swaps[cell.0 as usize].clone(),
                None => predictor.clone(),
            };
            (algorithm.build_policy(cell_predictor), None)
        });
        let timing = test_timing(Duration::from_mins(30));
        let mut source: Box<dyn EventSource + '_> = Box::new(StreamingWorkload::new(base.clone()));
        if incidents.needs_source() {
            source = Box::new(ChaosSource::new(source, incidents));
        }
        match engine {
            Engine::Reference { threads } => reference_fleet(
                cells,
                predictor,
                fleet.router,
                fleet.summary_refresh,
                &timing,
                source.as_mut(),
                threads,
                chaos.as_ref(),
            ),
            Engine::Coordinator { threads } => run_fleet(
                cells,
                predictor,
                fleet.router,
                fleet.summary_refresh,
                &timing,
                source.as_mut(),
                threads,
                chaos.as_ref(),
                None,
            ),
        }
    }

    /// The oracle, remembering the latest `now` it was asked at.
    #[derive(Default)]
    struct LatestAsk(AtomicU64);

    impl LifetimePredictor for LatestAsk {
        fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
            self.0.fetch_max(now.as_secs(), AtomicOrdering::Relaxed);
            OraclePredictor::new().predict_remaining(vm, now)
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
    }

    #[test]
    fn no_summary_is_taken_once_nothing_can_arrive() {
        // Under the baseline only placements (at creation) and cell
        // summaries ask the predictor anything. The exits run on for
        // weeks past the last arrival, through which the plain loop
        // keeps taking a summary per epoch; the coordinator takes none,
        // and routes the same.
        let base = PoolConfig {
            hosts: 24,
            duration: Duration::from_hours(18),
            ..PoolConfig::small(5)
        };
        let trace = WorkloadGenerator::new(base.clone()).generate();
        let last_arrival = trace.last_arrival_time();
        let last_exit = trace.events().last().expect("a non-empty trace").time;
        assert!(last_exit > last_arrival + Duration::from_days(7));
        let fleet = FleetConfig::new(3).with_router(RouterSpec::LeastLoaded);
        let run = |predictor: Arc<dyn LifetimePredictor>, engine: Engine| {
            let cells = fleet.build_cells(&base, |_| {
                (Algorithm::Baseline.build_policy(predictor.clone()), None)
            });
            let (timing, mut source) = (test_timing(Duration::from_mins(5)), trace.source());
            let refresh = fleet.summary_refresh;
            match engine {
                Engine::Reference { threads } => reference_fleet(
                    cells,
                    predictor,
                    fleet.router,
                    refresh,
                    &timing,
                    &mut source,
                    threads,
                    None,
                ),
                Engine::Coordinator { threads } => run_fleet(
                    cells,
                    predictor,
                    fleet.router,
                    refresh,
                    &timing,
                    &mut source,
                    threads,
                    None,
                    None,
                ),
            }
        };
        let reference = run(
            Arc::new(OraclePredictor::new()),
            Engine::Reference { threads: 1 },
        );
        for threads in [1, 2] {
            let asks = Arc::new(LatestAsk::default());
            let outcome = run(asks.clone(), Engine::Coordinator { threads });
            let latest = SimTime(asks.0.load(AtomicOrdering::Relaxed));
            assert_eq!(latest, last_arrival, "{threads} thread(s)");
            assert_eq!(outcome, reference, "{threads} thread(s)");
        }
    }

    proptest! {
        /// The coordinator against the plain loop it replaced, compared
        /// *directly* (no experiment plumbing): on randomized
        /// heterogeneous fleets with a cell outage, a predictor
        /// degradation and the recalibrator all active, [`run_fleet`] on
        /// the inline lane (1 thread) and on threaded lanes ({2, per-CPU}
        /// threads) must produce the same bits as the reference loop,
        /// itself run serially and on per-epoch scoped threads. A quarter
        /// of the cases arrive sparsely (utilisation 0.1) and stretch
        /// lifetimes by a 2–20× drift shift. That leaves runs of empty
        /// epochs inside the arrival window, across which incidents still
        /// change the cells, and a long tail past the last arrival. The
        /// coordinator skips the empty epochs and takes no summaries in
        /// the tail; the reference loop steps and summarises every epoch.
        #[test]
        fn threaded_engine_matches_scoped_reference_loop(
            seed in 0u64..100_000,
            cells in 2usize..5,
            hosts in 16usize..26,
            refresh_mins in 20u64..90,
            hetero_hosts in 3usize..9,
        ) {
            // Derive the remaining knobs from the seed (the vendored
            // proptest supports at most 6 strategy bindings).
            let router = RouterSpec::ALL[seed as usize % RouterSpec::ALL.len()];
            let algorithm = if seed % 2 == 0 { Algorithm::Baseline } else { Algorithm::Nilas };
            let outage_at = 3 + seed % 6;
            let drift_scale = (seed / 10 % 4 == 1).then_some(2.0 + (seed / 40 % 19) as f64);
            let mut base = PoolConfig {
                hosts,
                duration: Duration::from_hours(18),
                ..PoolConfig::small(seed)
            };
            if drift_scale.is_some() {
                base.target_utilization = 0.1;
            }
            let fleet = FleetConfig::new(cells)
                .with_router(router)
                .with_summary_refresh(Duration::from_mins(refresh_mins))
                .with_override(CellOverride::new(0).with_hosts(hetero_hosts))
                .with_override(CellOverride::new(cells as u32 - 1).with_host_shape(96, 384));
            let mut incidents = IncidentPlan {
                seed,
                incidents: vec![
                    Incident::CellOutage {
                        cell: (seed % cells as u64) as u32,
                        hosts: Some(2),
                        mode: if seed % 3 == 0 { OutageMode::HardKill } else { OutageMode::Drain },
                        at: Duration::from_hours(outage_at),
                        recovery: Some(Duration::from_hours(4)),
                    },
                    Incident::PredictorDegradation {
                        degraded: DegradedPredictor::Biased { bias_pct: -80 },
                        at: Duration::from_hours(outage_at + 1),
                        recovery: Some(Duration::from_hours(3)),
                    },
                ],
            };
            if let Some(lifetime_scale) = drift_scale {
                incidents.incidents.push(Incident::DriftShift {
                    at: Duration::from_hours(outage_at + 2),
                    lifetime_scale,
                });
            }
            let adaptation = AdaptationSpec {
                recalibration: Some(RecalibrationSpec {
                    cadence: Duration::from_hours(2),
                    min_samples: 8,
                }),
            };

            let scoped_two = run_fleet_engine(
                Engine::Reference { threads: 2 },
                &base, &fleet, &incidents, adaptation, algorithm,
            );
            let contenders = [
                ("serial reference", Engine::Reference { threads: 1 }),
                ("coordinator at 1 thread", Engine::Coordinator { threads: 1 }),
                ("lanes at 2 threads", Engine::Coordinator { threads: 2 }),
                ("lanes at per-CPU threads", Engine::Coordinator { threads: 0 }),
            ];
            for (label, engine) in contenders {
                let outcome = run_fleet_engine(
                    engine, &base, &fleet, &incidents, adaptation, algorithm,
                );
                prop_assert_eq!(
                    &scoped_two, &outcome,
                    "router {}: {} diverged from the scoped 2-thread loop", router, label
                );
            }
        }
    }
}
