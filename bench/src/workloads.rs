//! The five workloads: what each one feeds the system, how one
//! repetition runs it (untraced, or with the span decorators in place)
//! and what it checks about the result.
//!
//! The system is driven only through its public entry points; the
//! most-free-first policy and the heterogeneous-cell recipe below are the
//! benchmark's own so that `lava-bench` can be reworked freely.

use crate::trace::{
    sample_event, LocalSite, PolicyCounters, PolicyProbe, Site, TracedObserver, TracedPolicy,
    TracedPredictor, TracedSource, Tracer, HOT_STRIDE, TREE_EVERY,
};
use lava_core::events::TraceEventKind;
use lava_core::host::HostId;
use lava_core::pool::Pool;
use lava_core::serve::{Micros, PlaceRequest};
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::Vm;
use lava_model::gbdt::GbdtConfig;
use lava_model::predictor::{LifetimePredictor, OraclePredictor};
use lava_sched::cluster::Cluster;
use lava_sched::lava::LavaPolicy;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::{Scheduler, SchedulerStats};
use lava_serve::PlacementService;
use lava_sim::arrivals::{ArrivalGenerator, ArrivalProcess, ServeConfig, ServiceModel};
use lava_sim::experiment::{drive, train_gbdt_predictor, DriveTiming};
use lava_sim::fleet::{run_fleet, CellOverride, FleetConfig, FleetReport, RouterSpec};
use lava_sim::metrics::MetricSeries;
use lava_sim::observer::{MetricRecorder, SimObserver};
use lava_sim::trace::{BinaryTraceSource, BinaryTraceWriter};
use lava_sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which placement policy the cells run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `LavaPolicy::with_defaults`.
    Lava,
    /// The benchmark's own most-free-first walk.
    MostFree,
}

/// Which lifetime predictor the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `train_gbdt_predictor(..).compile()`.
    Gbdt,
    /// `OraclePredictor`.
    Oracle,
}

/// The shape of a workload's run.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// LVTR file → `BinaryTraceSource` → `drive` with a `MetricRecorder`.
    Replay,
    /// LVTR file → `run_fleet` over heterogeneous cells → `FleetReport`.
    Fleet {
        /// Cells the hosts are sharded into.
        cells: usize,
        /// Worker threads (the box has two cores).
        workers: usize,
    },
    /// Open-loop Poisson arrivals → `PlacementService::{offer, finish}`.
    Serve {
        /// Cells the hosts are sharded into.
        cells: usize,
    },
}

/// One benchmark workload. Sizes are frozen: they are the input the
/// baseline in `BENCHMARK.json` was measured on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line).
    pub why: &'static str,
    /// How it runs.
    pub kind: Kind,
    /// Independent inputs (seeded apart) one repetition runs one after the
    /// other. What a lifetime-aware replay costs per event depends on the
    /// standing population its seed happened to draw, so the small LAVA
    /// pools are measured over several draws and the figures summed.
    pub shards: usize,
    /// Hosts in one shard's pool (all cells together).
    pub hosts: usize,
    /// Simulated horizon in seconds.
    pub horizon_secs: u64,
    /// Share of the steady-state population standing at t = 0.
    pub initial_fill: f64,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Lifetime predictor.
    pub model: ModelKind,
    /// How far `events_per_s` and `decision_us` may worsen between two
    /// sets of runs of this workload (`bench/run.sh --sets 2`), as a share.
    /// Run twice on one seed, the single-threaded workloads repeat within
    /// 2–5 % on this box and `fleet_pooled` within 10 %.
    pub host_time_bound: f64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "replay_lava_gbdt",
        why: "The paper's production configuration, 8 pools of 150 hosts: LAVA repredicting through \
              the compiled GBDT; lava-model does ~88% of the work, so model and batching changes show here.",
        kind: Kind::Replay,
        shards: 8,
        hosts: 150,
        horizon_secs: 12 * 3600,
        initial_fill: 0.5,
        policy: PolicyKind::Lava,
        model: ModelKind::Gbdt,
        host_time_bound: 0.07,
    },
    Workload {
        name: "replay_lava_oracle",
        why: "Same path, 4 pools of 600 hosts, free predictions: the lava-sched candidate walk, scoring \
              and exit cache are ~85% of the run; a scoring change shows here, a model change must not.",
        kind: Kind::Replay,
        shards: 4,
        hosts: 600,
        horizon_secs: 12 * 3600,
        initial_fill: 0.85,
        policy: PolicyKind::Lava,
        model: ModelKind::Oracle,
        host_time_bound: 0.07,
    },
    Workload {
        name: "replay_engine",
        why: "Most-free-first over 20k hosts: policy and model do almost nothing, so LVTR decode, \
              timeline, scheduler commit, pool mutation and observers set the number.",
        kind: Kind::Replay,
        shards: 1,
        hosts: 20_000,
        horizon_secs: 24 * 3600,
        initial_fill: 0.6,
        policy: PolicyKind::MostFree,
        model: ModelKind::Oracle,
        host_time_bound: 0.07,
    },
    Workload {
        name: "fleet_pooled",
        why: "LVTR file through run_fleet on 16 heterogeneous cells, least-loaded router, 2 \
              workers: router, channels, epoch barrier and summaries; memory is O(cells x ids).",
        kind: Kind::Fleet {
            cells: 16,
            workers: 2,
        },
        shards: 1,
        hosts: 16_384,
        horizon_secs: 24 * 3600,
        initial_fill: 0.6,
        policy: PolicyKind::MostFree,
        model: ModelKind::Oracle,
        host_time_bound: 0.15,
    },
    Workload {
        name: "serve_open",
        why: "PlacementService, 8 cells x 1024 hosts, LAVA + oracle, least-loaded router, open-loop \
              Poisson at 0.7 of a pinned service model: the online path, releases through the heap, no ticks.",
        kind: Kind::Serve { cells: 8 },
        shards: 1,
        hosts: 8_192,
        horizon_secs: 120,
        initial_fill: 0.85,
        policy: PolicyKind::Lava,
        model: ModelKind::Oracle,
        host_time_bound: 0.07,
    },
];

/// Shards a workload may have; spaces the pool seeds of the workloads apart.
const MAX_SHARDS: u64 = 16;

/// Hosts of the historical pool the GBDT trains on. Training cost grows
/// with this, prediction cost does not (it is set by `GbdtConfig`), so a
/// small pool keeps `setup_s` affordable at an unchanged per-decision cost.
const GBDT_TRAINING_HOSTS: usize = 64;
/// Seed of that historical pool. The model is the system's configuration
/// (trained once, on the warehouse), not the live input, so it does not
/// follow `--seed`: a model per seed moved `events_per_s` by more between
/// seeds than the traces did.
const GBDT_HISTORY_SEED: u64 = 0x1a7a;

/// The serving tier's virtual cost of one decision, pinned so that the
/// offered load does not move when `ServiceModel::default` does.
const SERVICE: ServiceModel = ServiceModel {
    base_decision_us: 1_250,
    per_host_ns: 0,
    per_vm_ns: 0,
};
/// Offered load as a share of the pinned model's capacity.
const SERVE_LOAD: f64 = 0.7;
/// Lifetime medians are divided by this so that placements and releases
/// turn over inside the 120 s virtual horizon.
const SERVE_LIFETIME_DIVISOR: f64 = 100.0;
/// Summary-refresh cadence of the fleet replay. The replay runs until the
/// last exit, weeks after the one day of arrivals, and how many weeks is
/// an extreme value that changes with the seed; at the default 15 minutes
/// those near-empty drain epochs were 40 % of the run.
const FLEET_REFRESH_MINS: u64 = 60;
/// Summary-refresh cadence of the serving tier's router.
const SERVE_REFRESH_SECS: u64 = 5;

/// Take the most-free host that fits, off the pool's free-capacity index.
pub struct MostFreeFirst;

impl PlacementPolicy for MostFreeFirst {
    fn name(&self) -> &'static str {
        "most-free-first"
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        _now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        cluster
            .pool()
            .hosts_by_free()
            .rev()
            .filter(|h| Some(h.id()) != exclude && !h.is_unavailable())
            .find(|h| h.can_fit(vm.resources()))
            .map(|h| h.id())
    }
}

impl PolicyProbe for MostFreeFirst {
    fn counters(&self) -> PolicyCounters {
        PolicyCounters::default()
    }
}

impl PolicyProbe for LavaPolicy {
    fn counters(&self) -> PolicyCounters {
        let nilas = self.nilas_stats();
        PolicyCounters {
            cache_hits: nilas.cache_hits,
            cache_misses: nilas.cache_misses,
            deadline_corrections: self.deadline_corrections(),
        }
    }
}

/// Sums the routed cell's empty-host fraction at every decision. The
/// serving tier has no metric series, so this O(1) read per decision is
/// how `serve_open` reports packing; it is part of the workload, traced
/// or not.
pub struct PackingProbe<P> {
    inner: P,
    /// `(decisions, sum of empty-host fractions in parts per billion)`.
    totals: Arc<(AtomicU64, AtomicU64)>,
}

impl<P: PlacementPolicy> PlacementPolicy for PackingProbe<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        let ppb = (cluster.pool().empty_host_fraction() * 1e9) as u64;
        self.totals.0.fetch_add(1, Ordering::Relaxed);
        self.totals.1.fetch_add(ppb, Ordering::Relaxed);
        self.inner.choose_host(cluster, vm, now, exclude)
    }

    fn on_vm_placed(
        &mut self,
        cluster: &mut Cluster,
        vm: lava_core::vm::VmId,
        host: HostId,
        now: SimTime,
    ) {
        self.inner.on_vm_placed(cluster, vm, host, now);
    }

    fn on_vm_exited(&mut self, cluster: &mut Cluster, host: HostId, now: SimTime) {
        self.inner.on_vm_exited(cluster, host, now);
    }

    fn on_tick(&mut self, cluster: &mut Cluster, now: SimTime) {
        self.inner.on_tick(cluster, now);
    }

    fn on_model_health(&mut self, error: f64, samples: usize) {
        self.inner.on_model_health(error, samples);
    }
}

impl<P: PolicyProbe> PolicyProbe for PackingProbe<P> {
    fn counters(&self) -> PolicyCounters {
        self.inner.counters()
    }
}

/// Where setup time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupBreakdown {
    /// Workload generation plus LVTR write, or arrival generation.
    pub input_s: f64,
    /// GBDT train plus compile.
    pub model_s: f64,
}

/// A workload's generated input, ready to run any number of times.
pub struct Prepared {
    /// Where setup time went.
    pub breakdown: SetupBreakdown,
    shards: Vec<Shard>,
}

/// One of a workload's independent inputs.
struct Shard {
    /// The generating pool configuration (seeded).
    pool: PoolConfig,
    predictor: Arc<dyn LifetimePredictor>,
    trace: Option<TraceFile>,
    requests: Vec<PlaceRequest>,
}

struct TraceFile {
    path: PathBuf,
    events: u64,
    creates: u64,
    last_event: SimTime,
}

impl Prepared {
    /// The first shard's pool configuration.
    pub fn pool(&self) -> &PoolConfig {
        &self.shards[0].pool
    }

    /// Events in the LVTR files (0 for `serve_open`).
    pub fn trace_events(&self) -> u64 {
        let traces = self.shards.iter().filter_map(|s| s.trace.as_ref());
        traces.map(|t| t.events).sum()
    }

    /// Requests in the arrival streams (0 for the replay workloads).
    pub fn requests(&self) -> usize {
        self.shards.iter().map(|s| s.requests.len()).sum()
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        if let Some(trace) = &self.trace {
            // A scratch file; nothing depends on the removal succeeding.
            let _ = std::fs::remove_file(&trace.path);
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Seconds spent building pools, cells, policies and the service.
    pub build_s: f64,
    /// Seconds from file-open (or first `offer`) to report-out.
    pub wall_s: f64,
    /// Seconds of `wall_s` spent in `PlacementService::finish`.
    pub finish_s: f64,
    /// Simulated events processed.
    pub events: u64,
    /// Placement decisions resolved.
    pub decisions: u64,
    /// Decisions that did not place.
    pub failed: u64,
    /// Mean empty-host fraction (a simulated quantity).
    pub empty_host_frac: f64,
    /// Digest of everything the run decided.
    pub digest: u64,
    /// Wall nanoseconds of every `offer` call (`serve_open` only).
    pub offer_ns: Vec<u32>,
    /// Routed creations per cell (`fleet_pooled` only).
    pub routed: Vec<u64>,
    /// Summary-refresh epochs in the horizon (`fleet_pooled` only).
    pub epochs: u64,
    /// Predictions the traced predictor saw (traced repetitions only).
    pub predictions: u64,
    /// Batch calls the traced predictor saw.
    pub batch_calls: u64,
    /// Predictions made through those batch calls.
    pub batched_predictions: u64,
    /// Serving-tier report fields (`serve_open` only).
    pub serve: Option<ServeFacts>,
    /// What the run's own checks found wrong, if anything.
    pub problems: Vec<String>,
}

impl Rep {
    /// Add the next shard's repetition to this one.
    fn absorb(&mut self, shard: Rep) {
        self.build_s += shard.build_s;
        self.wall_s += shard.wall_s;
        self.finish_s += shard.finish_s;
        self.events += shard.events;
        self.decisions += shard.decisions;
        self.failed += shard.failed;
        self.empty_host_frac += shard.empty_host_frac;
        self.digest = mix(self.digest, shard.digest);
        self.offer_ns.extend(shard.offer_ns);
        self.routed.extend(shard.routed);
        self.epochs += shard.epochs;
        self.predictions += shard.predictions;
        self.batch_calls += shard.batch_calls;
        self.batched_predictions += shard.batched_predictions;
        self.serve = shard.serve.or(self.serve);
        self.problems.extend(shard.problems);
    }
}

/// The `ServeReport` fields the per-layer metrics use.
#[derive(Debug, Clone, Copy)]
pub struct ServeFacts {
    /// Releases processed.
    pub released: u64,
    /// Deepest the place queue got.
    pub queue_high_water: usize,
    /// Virtual-clock median placement latency, µs.
    pub virt_p50_us: f64,
    /// Virtual-clock p99 placement latency, µs.
    pub virt_p99_us: f64,
}

/// The modelled (virtual) service time of one serving decision, µs.
pub fn service_time_us() -> f64 {
    SERVICE.base_decision_us as f64
}

fn mix(digest: u64, value: u64) -> u64 {
    (digest ^ value)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(23)
}

fn digest_stats(mut digest: u64, stats: SchedulerStats, rejected: u64) -> u64 {
    for word in [
        stats.placed,
        stats.failed,
        stats.exited,
        stats.migrations,
        rejected,
    ] {
        digest = mix(digest, word);
    }
    digest
}

fn digest_series(mut digest: u64, series: &MetricSeries) -> u64 {
    for s in series.samples() {
        for word in [
            s.time.as_secs(),
            s.empty_host_fraction.to_bits(),
            s.empty_to_free_ratio.to_bits(),
            s.packing_density.to_bits(),
            s.cpu_utilization.to_bits(),
            s.memory_utilization.to_bits(),
            s.live_vms as u64,
        ] {
            digest = mix(digest, word);
        }
    }
    digest
}

fn timing() -> DriveTiming {
    DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    }
}

/// Every fourth cell gets a bigger SKU (96 cores / 384 GiB) and every
/// third a third more hosts than its even share, like the mixed
/// generations of a real fleet.
fn heterogeneous(fleet: FleetConfig, hosts: usize) -> FleetConfig {
    let per_cell = hosts / fleet.cells;
    (0..fleet.cells as u32).fold(fleet, |fleet, i| {
        let mut cell = CellOverride::new(i);
        if i % 4 == 0 {
            cell = cell.with_host_shape(96, 384);
        }
        if i % 3 == 0 {
            cell = cell.with_hosts(per_cell + per_cell / 3);
        }
        fleet.with_override(cell)
    })
}

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn index(&self) -> u64 {
        WORKLOADS
            .iter()
            .position(|w| w.name == self.name)
            .expect("a workload of the table") as u64
    }

    /// The seeded pool configuration shard `shard` generates from.
    pub fn pool_config(&self, seed: u64, shard: usize) -> PoolConfig {
        let stream = self.index() * MAX_SHARDS + shard as u64;
        let mut pool = PoolConfig {
            hosts: self.hosts,
            duration: Duration::from_secs(self.horizon_secs),
            initial_fill_fraction: self.initial_fill,
            seed: seed.wrapping_mul(1_000_003).wrapping_add(stream),
            ..PoolConfig::default()
        };
        if matches!(self.kind, Kind::Serve { .. }) {
            for mode in pool
                .categories
                .iter_mut()
                .flat_map(|c| &mut c.lifetime_modes)
            {
                mode.median_hours /= SERVE_LIFETIME_DIVISOR;
            }
        }
        pool
    }

    /// Policy sites: a LAVA decision takes microseconds, so one in four
    /// can be timed (every one cost `serve_open` another 1.5 %); a
    /// most-free-first walk takes tens of nanoseconds.
    fn policy_stride(&self) -> u64 {
        match self.policy {
            PolicyKind::Lava => 4,
            PolicyKind::MostFree => HOT_STRIDE,
        }
    }

    /// Predictor site: a GBDT call takes microseconds and every one is
    /// timed; an oracle lookup takes a few nanoseconds.
    fn model_stride(&self) -> u64 {
        match self.model {
            ModelKind::Gbdt => 1,
            ModelKind::Oracle => HOT_STRIDE,
        }
    }

    fn fleet_config(&self, cells: usize) -> FleetConfig {
        match self.kind {
            Kind::Serve { .. } => FleetConfig::new(cells)
                .with_router(RouterSpec::LeastLoaded)
                .with_summary_refresh(Duration::from_secs(SERVE_REFRESH_SECS)),
            _ => heterogeneous(
                FleetConfig::new(cells)
                    .with_router(RouterSpec::LeastLoaded)
                    .with_summary_refresh(Duration::from_mins(FLEET_REFRESH_MINS)),
                self.hosts,
            ),
        }
    }

    fn serve_config(&self, cells: usize) -> ServeConfig {
        let rate = SERVE_LOAD * SERVICE.capacity_per_sec(self.hosts / cells, 0);
        ServeConfig::at_rate(rate)
            .with_service(SERVICE)
            .with_arrival(ArrivalProcess::Poisson)
    }

    /// Generate the workload's input: the predictor, and per shard the
    /// LVTR file (written under `dir`) or the arrival stream, from `seed`.
    pub fn setup(&self, seed: u64, dir: &Path) -> Result<Prepared, String> {
        let mut breakdown = SetupBreakdown::default();
        let started = Instant::now();
        let predictor: Arc<dyn LifetimePredictor> = match self.model {
            ModelKind::Oracle => Arc::new(OraclePredictor::new()),
            ModelKind::Gbdt => {
                let history = PoolConfig {
                    hosts: GBDT_TRAINING_HOSTS,
                    seed: GBDT_HISTORY_SEED,
                    ..self.pool_config(seed, 0)
                };
                Arc::new(train_gbdt_predictor(&history, GbdtConfig::default()).compile())
            }
        };
        breakdown.model_s = started.elapsed().as_secs_f64();
        let mut shards = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let pool = self.pool_config(seed, shard);
            let started = Instant::now();
            let (trace, requests) = match self.kind {
                Kind::Serve { cells } => {
                    let horizon = Micros::from_duration(pool.duration);
                    let generator = ArrivalGenerator::from_config(
                        WorkloadGenerator::new(pool.clone()),
                        &self.serve_config(cells),
                        horizon,
                    );
                    (None, generator.collect_all())
                }
                _ => {
                    let name = format!("{}-{}-{shard}.lvtr", self.name, std::process::id());
                    (Some(write_trace(&pool, &dir.join(name))?), Vec::new())
                }
            };
            breakdown.input_s += started.elapsed().as_secs_f64();
            shards.push(Shard {
                pool,
                predictor: predictor.clone(),
                trace,
                requests,
            });
        }
        Ok(Prepared { breakdown, shards })
    }

    /// The fleet replay on one worker, untraced: the serial reference
    /// the parallel speed-up is measured against.
    pub fn run_on_one_worker(&self, input: &Prepared, cells: usize) -> Rep {
        let mut total = Rep::default();
        for shard in &input.shards {
            total.absorb(self.run_fleet(shard, shard.predictor.clone(), None, cells, 1));
        }
        total
    }

    /// Run one repetition on `input`, shard after shard; with a tracer,
    /// through the span decorators.
    pub fn run(&self, input: &Prepared, tracer: Option<&Arc<Tracer>>) -> Rep {
        let mut total = Rep::default();
        for shard in &input.shards {
            // Only the fleet's cell workers predict from more than one thread.
            let one_thread = !matches!(self.kind, Kind::Fleet { .. });
            let traced_model = tracer.map(|t| {
                let inner = shard.predictor.clone();
                TracedPredictor::new(inner, t.clone(), self.model_stride(), one_thread)
            });
            let predictor: Arc<dyn LifetimePredictor> = match &traced_model {
                Some(traced) => traced.clone(),
                None => shard.predictor.clone(),
            };
            let mut rep = match self.kind {
                Kind::Replay => self.run_replay(shard, predictor, tracer),
                Kind::Fleet { cells, workers } => {
                    self.run_fleet(shard, predictor, tracer, cells, workers)
                }
                Kind::Serve { cells } => self.run_serve(shard, predictor, tracer, cells),
            };
            if let Some(traced) = traced_model {
                traced.flush();
                rep.predictions = traced.predictions();
                rep.batch_calls = traced.batch_calls();
                rep.batched_predictions = traced.batched_predictions();
            }
            total.absorb(rep);
        }
        total.empty_host_frac /= input.shards.len() as f64;
        if total.decisions == 0 {
            total.problems.push("no decisions were made".into());
        }
        total
    }

    fn policy(
        &self,
        predictor: &Arc<dyn LifetimePredictor>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Box<dyn PlacementPolicy> {
        let stride = self.policy_stride();
        match (self.policy, tracer) {
            (PolicyKind::Lava, None) => Box::new(LavaPolicy::with_defaults(predictor.clone())),
            (PolicyKind::Lava, Some(t)) => Box::new(TracedPolicy::new(
                LavaPolicy::with_defaults(predictor.clone()),
                t.clone(),
                stride,
            )),
            (PolicyKind::MostFree, None) => Box::new(MostFreeFirst),
            (PolicyKind::MostFree, Some(t)) => {
                Box::new(TracedPolicy::new(MostFreeFirst, t.clone(), stride))
            }
        }
    }

    fn run_replay(
        &self,
        input: &Shard,
        predictor: Arc<dyn LifetimePredictor>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Rep {
        let trace = input.trace.as_ref().expect("replay workloads have a trace");
        let started = Instant::now();
        let pool =
            Pool::with_uniform_hosts(input.pool.pool_id, input.pool.hosts, input.pool.host_spec());
        let policy = self.policy(&predictor, tracer);
        let mut scheduler = Scheduler::new(Cluster::new(pool), policy, predictor);
        let build_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut rep = Rep::default();
        let source = match open_trace(trace) {
            Ok(source) => source,
            Err(problem) => return failed_rep(problem),
        };
        let (series, rejected, leftover) = match tracer {
            None => {
                let mut source = source;
                let mut recorder = MetricRecorder::new();
                let rejected = {
                    let mut observers: [&mut dyn SimObserver; 1] = [&mut recorder];
                    drive(&mut source, &mut scheduler, None, &timing(), &mut observers)
                };
                (recorder.into_series(), rejected, leftover(&mut source))
            }
            Some(t) => {
                let mut source = TracedSource::new(source, t.clone(), HOT_STRIDE);
                let mut recorder =
                    TracedObserver::new(MetricRecorder::new(), t.clone(), HOT_STRIDE);
                let rejected = {
                    let mut observers: [&mut dyn SimObserver; 1] = [&mut recorder];
                    drive(&mut source, &mut scheduler, None, &timing(), &mut observers)
                };
                let series = recorder.finish().into_series();
                (series, rejected, leftover(&mut source.finish()))
            }
        };
        let stats = scheduler.stats();
        rep.digest = digest_series(digest_stats(0, stats, rejected), &series);
        rep.empty_host_frac = series.mean_empty_host_fraction();
        rep.wall_s = started.elapsed().as_secs_f64();
        // Dropping the engine is what hands a traced policy's numbers over.
        drop(scheduler);

        rep.build_s = build_s;
        rep.events = stats.placed + stats.exited + 2 * stats.failed;
        rep.decisions = stats.placed + stats.failed;
        rep.failed = stats.failed;
        rep.problems.extend(leftover);
        check_counts(&mut rep, trace, rejected);
        rep
    }

    fn run_fleet(
        &self,
        input: &Shard,
        predictor: Arc<dyn LifetimePredictor>,
        tracer: Option<&Arc<Tracer>>,
        cells: usize,
        workers: usize,
    ) -> Rep {
        let trace = input
            .trace
            .as_ref()
            .expect("the fleet workload has a trace");
        let fleet = self.fleet_config(cells).with_threads(workers);
        let started = Instant::now();
        let fleet_cells =
            fleet.build_cells(&input.pool, |_| (self.policy(&predictor, tracer), None));
        let build_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut rep = Rep::default();
        let source = match open_trace(trace) {
            Ok(source) => source,
            Err(problem) => return failed_rep(problem),
        };
        let go = |source: &mut dyn EventSource| {
            run_fleet(
                fleet_cells,
                predictor,
                fleet.router,
                fleet.summary_refresh,
                &timing(),
                source,
                fleet.threads,
                None,
                None,
            )
        };
        let (outcome, leftover) = match tracer {
            None => {
                let mut source = source;
                (go(&mut source), leftover(&mut source))
            }
            Some(t) => {
                let mut source = TracedSource::new(source, t.clone(), HOT_STRIDE);
                let outcome = go(&mut source);
                (outcome, leftover(&mut source.finish()))
            }
        };
        let report = FleetReport::from_outcome(outcome, fleet.router, "most-free-first", "oracle");
        let mut stats = SchedulerStats::default();
        for cell in &report.cells {
            let (s, rejected) = (cell.result.scheduler_stats, cell.result.rejected_vms);
            rep.digest = digest_series(
                digest_stats(mix(rep.digest, cell.routed_vms), s, rejected),
                &cell.result.series,
            );
            rep.routed.push(cell.routed_vms);
            stats.placed += s.placed;
            stats.failed += s.failed;
            stats.exited += s.exited;
        }
        rep.digest = digest_series(rep.digest, &report.fleet.series);
        rep.empty_host_frac = report.fleet.mean_empty_host_fraction();
        let rejected = report.total_rejected();
        rep.wall_s = started.elapsed().as_secs_f64();
        rep.epochs = trace.last_event.as_secs() / fleet.summary_refresh.as_secs().max(1) + 1;

        rep.build_s = build_s;
        rep.events = stats.placed + stats.exited + 2 * stats.failed;
        rep.decisions = stats.placed + stats.failed;
        rep.failed = stats.failed;
        rep.problems.extend(leftover);
        check_counts(&mut rep, trace, rejected);
        rep
    }

    fn run_serve(
        &self,
        input: &Shard,
        predictor: Arc<dyn LifetimePredictor>,
        tracer: Option<&Arc<Tracer>>,
        cells: usize,
    ) -> Rep {
        let fleet = self.fleet_config(cells);
        let started = Instant::now();
        let packing = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let fleet_cells = fleet.build_cells(&input.pool, |_| {
            let inner = PackingProbe {
                inner: LavaPolicy::with_defaults(predictor.clone()),
                totals: packing.clone(),
            };
            let policy: Box<dyn PlacementPolicy> = match tracer {
                None => Box::new(inner),
                Some(t) => Box::new(TracedPolicy::new(inner, t.clone(), self.policy_stride())),
            };
            (policy, None)
        });
        let mut service = PlacementService::new(
            self.serve_config(cells),
            &fleet,
            fleet_cells,
            predictor,
            input.pool.seed,
        );
        let requests = input.requests.clone();
        let mut rep = Rep {
            offer_ns: Vec::with_capacity(requests.len()),
            ..Rep::default()
        };
        rep.build_s = started.elapsed().as_secs_f64();

        // Open loop on the virtual clock; in wall time requests are offered
        // back to back, so wall figures are work completed per second.
        let mut spans = tracer.map(|t| {
            let (offers, finish) = (
                LocalSite::new(Site::Offer, 1),
                LocalSite::new(Site::Finish, 1),
            );
            (t, offers, finish)
        });
        let mut refused = 0u64;
        let started = Instant::now();
        for (index, request) in (0u64..).zip(requests) {
            let ns = match &mut spans {
                Some((t, offers, _)) => {
                    sample_event(index.is_multiple_of(TREE_EVERY).then_some(index));
                    let open = offers.enter(t);
                    refused += u64::from(service.offer(request).is_err());
                    offers.exit(t, open).unwrap_or(0)
                }
                None => {
                    let before = Instant::now();
                    refused += u64::from(service.offer(request).is_err());
                    before.elapsed().as_nanos() as u64
                }
            };
            rep.offer_ns.push(ns as u32);
        }
        sample_event(None);
        let finishing = Instant::now();
        let open = spans.as_mut().and_then(|(t, _, finish)| finish.enter(t));
        let report = service.finish(Micros::from_duration(input.pool.duration));
        if let Some((t, offers, finish)) = &mut spans {
            finish.exit(t, open);
            finish.flush(t);
            offers.flush(t);
        }
        rep.finish_s = finishing.elapsed().as_secs_f64();
        rep.wall_s = started.elapsed().as_secs_f64();

        rep.events = report.offered + report.released;
        rep.decisions = report.offered;
        rep.failed =
            report.no_capacity + report.shed + report.queue_full + report.deadline_exceeded;
        let (decided, ppb) = (
            packing.0.load(Ordering::Relaxed),
            packing.1.load(Ordering::Relaxed),
        );
        rep.empty_host_frac = ppb as f64 / 1e9 / decided.max(1) as f64;
        rep.digest = [
            report.decision_digest,
            report.offered,
            report.placed,
            report.released,
        ]
        .into_iter()
        .fold(0, mix);
        rep.serve = Some(ServeFacts {
            released: report.released,
            queue_high_water: report.queue_high_water,
            virt_p50_us: report.latency.quantile(0.5),
            virt_p99_us: report.latency.quantile(0.99),
        });
        if !report.conservation_holds() {
            rep.problems
                .push("ServeReport::conservation_holds() is false".into());
        }
        if report.offered != input.requests.len() as u64 {
            rep.problems.push(format!(
                "offered {} of {} requests",
                report.offered,
                input.requests.len()
            ));
        }
        if refused != report.shed + report.queue_full {
            rep.problems.push(format!(
                "{refused} offers refused but the report counts {} shed + {} queue-full",
                report.shed, report.queue_full
            ));
        }
        rep
    }
}

fn failed_rep(problem: String) -> Rep {
    Rep {
        problems: vec![problem],
        ..Rep::default()
    }
}

/// Stream the seeded workload straight into an LVTR file at `path`.
fn write_trace(pool: &PoolConfig, path: &Path) -> Result<TraceFile, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = BinaryTraceWriter::new(BufWriter::new(file), pool.pool_id)
        .map_err(|e| format!("write LVTR header: {e}"))?;
    let mut generator = StreamingWorkload::new(pool.clone());
    let (mut creates, mut last_event) = (0, SimTime::ZERO);
    while let Some(event) = generator.next_event() {
        creates += u64::from(matches!(event.kind, TraceEventKind::Create { .. }));
        last_event = event.time;
        writer
            .push(&event)
            .map_err(|e| format!("write LVTR event: {e}"))?;
    }
    let events = writer.len();
    // `finish` flushes the buffered writer and reports its error.
    writer
        .finish()
        .map_err(|e| format!("finish LVTR file: {e}"))?;
    Ok(TraceFile {
        path: path.to_path_buf(),
        events,
        creates,
        last_event,
    })
}

fn open_trace(trace: &TraceFile) -> Result<BinaryTraceSource<File>, String> {
    let file =
        File::open(&trace.path).map_err(|e| format!("open {}: {e}", trace.path.display()))?;
    let source = BinaryTraceSource::new(file).map_err(|e| format!("LVTR header: {e}"))?;
    if source.event_count() != trace.events {
        return Err(format!(
            "LVTR header counts {} events, {} were written",
            source.event_count(),
            trace.events
        ));
    }
    Ok(source)
}

/// After a run the source must be fully decoded, without a codec error.
fn leftover(source: &mut BinaryTraceSource<File>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(error) = source.error() {
        problems.push(format!("LVTR decode error: {error}"));
    }
    if source.pending_len() != 0 {
        problems.push(format!(
            "{} LVTR events were never pulled",
            source.pending_len()
        ));
    }
    problems
}

fn check_counts(rep: &mut Rep, trace: &TraceFile, rejected: u64) {
    if rep.events != trace.events {
        rep.problems.push(format!(
            "processed {} events, the LVTR header counts {}",
            rep.events, trace.events
        ));
    }
    if rep.decisions != trace.creates {
        rep.problems.push(format!(
            "placed + failed = {}, the trace has {} creates",
            rep.decisions, trace.creates
        ));
    }
    if rejected != rep.failed {
        rep.problems.push(format!(
            "{rejected} creations reported rejected, {} placements failed",
            rep.failed
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table workload shrunk to 64 hosts, so the tests run in a debug
    /// build.
    fn small(name: &str, kind: Kind, horizon_secs: u64) -> Workload {
        Workload {
            kind,
            shards: 2,
            hosts: 64,
            horizon_secs,
            ..*Workload::by_name(name).expect("a table workload")
        }
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = crate::run::out_dir().join(format!("test-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }

    /// Untraced and traced repetitions of `w` must decide identically.
    fn traced_matches_plain(w: &Workload, test: &str) -> (Rep, Arc<Tracer>) {
        let dir = scratch(test);
        let input = w.setup(5, &dir).expect("set-up");
        let plain = w.run(&input, None);
        let tracer = Tracer::new();
        let traced = w.run(&input, Some(&tracer));
        assert_eq!(plain.problems, Vec::<String>::new());
        assert_eq!(traced.problems, Vec::<String>::new());
        assert_eq!(
            plain.digest, traced.digest,
            "a decorator changed a decision"
        );
        assert_eq!(plain.empty_host_frac, traced.empty_host_frac);
        assert_eq!(
            (plain.events, plain.decisions, plain.failed),
            (traced.events, traced.decisions, traced.failed)
        );
        assert_eq!(tracer.site(Site::PolicyChoose).calls, traced.decisions);
        drop(input);
        std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
        (traced, tracer)
    }

    #[test]
    fn replay_decorators_pass_through_and_see_batches() {
        let w = small("replay_lava_oracle", Kind::Replay, 6 * 3600);
        let (rep, tracer) = traced_matches_plain(&w, "replay");
        // One pull per event plus, per shard, the one that finds the stream empty.
        assert_eq!(tracer.site(Site::Source).calls, rep.events + 2);
        assert_eq!(tracer.site(Site::ObserverSample).calls, 2 * 6);
        // LAVA repredicts hosts through the batched entry point; the
        // decorator must forward it, not fall back to per-VM calls.
        assert!(rep.batch_calls > 0 && rep.batched_predictions >= rep.batch_calls);
        assert!(rep.predictions > rep.batched_predictions);
        let counters = tracer.policy_counters();
        assert!(counters.cache_hits + counters.cache_misses > 0);
        assert!(!tracer.spans().is_empty());
    }

    #[test]
    fn fleet_decorators_pass_through_at_any_worker_count() {
        let kind = Kind::Fleet {
            cells: 4,
            workers: 2,
        };
        let w = small("fleet_pooled", kind, 6 * 3600);
        let (rep, _) = traced_matches_plain(&w, "fleet");
        assert_eq!(rep.routed.len(), 2 * 4);
        assert_eq!(rep.routed.iter().sum::<u64>(), rep.decisions);

        let dir = scratch("fleet-serial");
        let input = w.setup(5, &dir).expect("set-up");
        assert_eq!(w.run_on_one_worker(&input, 4).digest, rep.digest);
        drop(input);
        std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    }

    #[test]
    fn serve_decorators_pass_through() {
        let w = small("serve_open", Kind::Serve { cells: 2 }, 20);
        let (rep, tracer) = traced_matches_plain(&w, "serve");
        assert_eq!(rep.offer_ns.len() as u64, rep.decisions);
        assert_eq!(tracer.site(Site::Offer).calls, rep.decisions);
        assert_eq!(tracer.site(Site::Finish).calls, 2);
        assert!(rep.serve.expect("serve facts").released > 0);
        assert!(rep.empty_host_frac > 0.0 && rep.empty_host_frac <= 1.0);
    }

    #[test]
    fn seeds_change_the_input_and_repeat_exactly() {
        let w = Workload::by_name("replay_engine").expect("a table workload");
        assert_eq!(w.pool_config(3, 0).seed, w.pool_config(3, 0).seed);
        assert_ne!(w.pool_config(3, 0).seed, w.pool_config(4, 0).seed);
        assert_ne!(w.pool_config(3, 0).seed, w.pool_config(3, 1).seed);
        let other = Workload::by_name("fleet_pooled").expect("a table workload");
        assert_ne!(w.pool_config(3, 0).seed, other.pool_config(3, 0).seed);
        assert!(WORKLOADS
            .iter()
            .all(|w| (1..=MAX_SHARDS as usize).contains(&w.shards)));
    }
}
