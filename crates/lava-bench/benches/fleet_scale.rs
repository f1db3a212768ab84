//! `fleet_scale`: end-to-end throughput of the fleet tier at fleet scale.
//!
//! Drives one streamed workload through [`lava_sim::fleet::run_fleet`]
//! (the persistent worker-pool executor) over a million-plus hosts
//! sharded into 32–128 heterogeneous cells, with the summary-driven
//! least-loaded router (the configuration that exercises the
//! epoch/summary machinery) and per-CPU cell workers. Placement inside
//! each cell is the trivial most-free-first walk, so the row isolates
//! the fleet tier itself: routing, per-cell queueing, epoch barriers,
//! summary extraction and N independent engines.
//!
//! The fleet row also reports a **per-core efficiency** column: fleet
//! events/sec divided by the worker count, compared against the plain
//! single-cluster engine driving the *same pool at the same scale* (the
//! `sim_scale` engine row on the fleet's host count — at a million
//! hosts both tiers are memory-bound, so a cache-resident toy baseline
//! would measure the cache, not the executor).
//!
//! In full mode the bench asserts the "parallelism gap" acceptance bar
//! for the pooled executor at 1M+ hosts / 128 cells, on an **executor
//! bar row** routed by the stateless hash router: per-core fleet
//! throughput must not fall below the at-scale plain-engine rate —
//! sharding a million hosts into cells must not cost throughput versus
//! one flat engine on the same workload. The hash row is the right
//! instrument for that bar because it spreads VMs uniformly, so its
//! rate is pure executor (routing, channels, epochs, N engines). A
//! summary-driven router like least-loaded deliberately loads cells
//! proportionally to capacity — concentrating VMs in the big
//! heterogeneous cells is its *job* — and that placement shape, not
//! the worker pool, is what moves its row a few percent relative to
//! the flat baseline. The configured (default least-loaded) row keeps
//! its own regression floor against the same baseline, loose enough to
//! absorb the concentration effect, tight enough to catch a real
//! executor regression (say, a thread spawned per epoch).
//!
//! Before the timed rows:
//!
//! * a **thread-parity assert** replays a small heterogeneous fleet at 1
//!   worker (the coordinator's inline lane) and 2 workers (pooled lanes)
//!   through the full experiment path and requires bit-identical reports
//!   (the CI smoke's determinism check);
//! * a **1-cell overhead pair** runs the identical workload through the
//!   plain single-cluster engine (`drive()`, the `sim_scale` engine row)
//!   and through a 1-cell Hash fleet (inline lane), and asserts the
//!   fleet tier's pass-through overhead stays under 5 % in full mode (a
//!   lenient bound in quick mode — CI machines are noisy).
//!
//! After the fleet row, a **`serve_latency` arm** stands the online
//! [`PlacementService`](lava_serve::PlacementService) up over the same
//! pooled-fleet configuration (scaled-down host count; the decision path
//! costs per request, not per fleet host) and reports virtual placement
//! latency percentiles plus wall-clock decision throughput.
//!
//! Flags (after `--`):
//!
//! * `--quick` — CI-scale settings (32k hosts / 32 cells);
//! * `--hosts N` / `--cells N` / `--events N` — override the fleet row;
//! * `--router R` — fleet-row router (default `least-loaded`);
//! * `--threads N` — cell workers (0 = one per CPU);
//! * `--json PATH` — write the measurements as a JSON artifact
//!   (`BENCH_fleet_scale.json` in CI). New fields are only ever added,
//!   never renamed — consumers of older artifacts keep parsing.
//!
//! Usage: `cargo bench -p lava-bench --bench fleet_scale -- [--quick] [--json BENCH_fleet_scale.json]`

use lava_bench::{heterogeneous_overrides, MostFreeFirstPolicy};
use lava_core::pool::Pool;
use lava_core::time::Duration;
use lava_model::predictor::{LifetimePredictor, OraclePredictor};
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::Scheduler;
use lava_serve::{run_serve, ServeReport};
use lava_sim::arrivals::{ServeConfig, ServiceModel};
use lava_sim::experiment::{drive, DriveTiming, Experiment, PredictorSpec};
use lava_sim::fleet::{run_fleet, CellOverride, FleetConfig, FleetOutcome, RouterSpec};
use lava_sim::observer::SimObserver;
use lava_sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    quick: bool,
    hosts: usize,
    cells: usize,
    target_events: u64,
    threads: usize,
    router: RouterSpec,
    json_path: Option<String>,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config {
        quick: false,
        hosts: 1_048_576,
        cells: 128,
        target_events: 3_000_000,
        threads: 0,
        router: RouterSpec::LeastLoaded,
        json_path: None,
    };
    let mut hosts_override = None;
    let mut cells_override = None;
    let mut events_override = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config.quick = true,
            "--hosts" => {
                hosts_override = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 1;
            }
            "--cells" => {
                cells_override = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 1;
            }
            "--events" => {
                events_override = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 1;
            }
            "--threads" => {
                if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                    config.threads = v;
                }
                i += 1;
            }
            "--router" => {
                if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                    config.router = v;
                }
                i += 1;
            }
            "--json" => {
                config.json_path = args.get(i + 1).cloned();
                i += 1;
            }
            // `cargo bench` passes `--bench`; ignore it and anything else.
            _ => {}
        }
        i += 1;
    }
    if config.quick {
        config.hosts = 32_768;
        config.cells = 32;
        config.target_events = 400_000;
    }
    if let Some(hosts) = hosts_override {
        config.hosts = hosts;
    }
    if let Some(cells) = cells_override {
        config.cells = cells;
    }
    if let Some(events) = events_override {
        config.target_events = events;
    }
    config
}

/// A pool sized so the arrival process emits roughly `target_events`
/// events. The standing population is thinned (`initial_fill_fraction`)
/// so memory at 500k+ hosts stays dominated by live VMs, not the t≈0
/// burst.
fn scale_pool(hosts: usize, target_events: u64) -> PoolConfig {
    let mut pool = PoolConfig {
        hosts,
        seed: 4242,
        initial_fill_fraction: 0.3,
        ..PoolConfig::default()
    };
    let rate = WorkloadGenerator::new(pool.clone()).arrival_rate();
    let seconds = (target_events as f64 / 2.0 / rate.max(1e-9)).ceil() as u64;
    pool.duration = Duration::from_secs(seconds.max(3600));
    pool
}

fn no_warmup_timing() -> DriveTiming {
    DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    }
}

/// The worker count a fleet run actually uses — mirrors the fleet
/// tier's own resolution: 0 means one per available CPU, clamped to the
/// cell count.
fn workers_used(threads: usize, cells: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if threads == 0 { auto } else { threads };
    requested.clamp(1, cells.max(1))
}

/// Events processed by a fleet outcome (creates that placed or failed
/// count once; a rejected create suppresses its exit, hence the 2x).
fn fleet_events(outcome: &FleetOutcome) -> u64 {
    outcome
        .cells
        .iter()
        .map(|c| c.stats.placed + c.stats.exited + 2 * c.stats.failed)
        .sum()
}

/// Bit-parity across worker counts on a small heterogeneous fleet, for
/// the summary-driven routers (the ones with cross-epoch state).
fn assert_thread_parity() {
    for router in [RouterSpec::LeastLoaded, RouterSpec::LifetimeAware] {
        let run = |threads: usize| {
            let spec = Experiment::builder()
                .name("fleet-parity")
                .workload(PoolConfig {
                    hosts: 48,
                    duration: Duration::from_days(2),
                    seed: 99,
                    ..PoolConfig::default()
                })
                .warmup(Duration::from_hours(6))
                .algorithm(lava_sched::Algorithm::Nilas)
                .fleet(
                    FleetConfig::new(4)
                        .with_router(router)
                        .with_override(CellOverride::new(1).with_hosts(20))
                        .with_override(CellOverride::new(3).with_host_shape(96, 384))
                        .with_threads(threads),
                )
                .build()
                .expect("valid spec");
            Experiment::new(spec).expect("valid").run()
        };
        let serial = run(1);
        let parallel = run(2);
        assert_eq!(
            serial.fleet, parallel.fleet,
            "{router}: 1-thread and 2-thread fleet runs diverged"
        );
    }
    println!("parity check passed: 1-thread and 2-thread fleet runs are bit-identical");
}

struct RowOutcome {
    events: u64,
    elapsed: f64,
    events_per_sec: f64,
}

/// The plain single-cluster engine on `pool` (the `sim_scale` engine
/// row).
fn run_plain_engine(pool: &PoolConfig) -> RowOutcome {
    let mut source = StreamingWorkload::new(pool.clone());
    let cluster = Cluster::new(Pool::with_uniform_hosts(
        pool.pool_id,
        pool.hosts,
        pool.host_spec(),
    ));
    let predictor = Arc::new(OraclePredictor::new());
    let mut scheduler = Scheduler::new(cluster, Box::new(MostFreeFirstPolicy), predictor);
    let timing = no_warmup_timing();
    let started = Instant::now();
    let mut observers: Vec<&mut dyn SimObserver> = Vec::new();
    drive(&mut source, &mut scheduler, None, &timing, &mut observers);
    let elapsed = started.elapsed().as_secs_f64();
    let stats = scheduler.stats();
    let events = stats.placed + stats.exited + 2 * stats.failed;
    RowOutcome {
        events,
        elapsed,
        events_per_sec: events as f64 / elapsed.max(1e-9),
    }
}

/// A fleet run over `pool` with `fleet_config`, most-free-first cells.
fn run_fleet_row(pool: &PoolConfig, fleet_config: &FleetConfig) -> (RowOutcome, FleetOutcome) {
    let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
    let cells = fleet_config.build_cells(pool, |_| {
        (
            Box::new(MostFreeFirstPolicy) as Box<dyn PlacementPolicy>,
            None,
        )
    });
    let mut source = StreamingWorkload::new(pool.clone());
    let timing = no_warmup_timing();
    let started = Instant::now();
    let outcome = run_fleet(
        cells,
        predictor,
        fleet_config.router,
        fleet_config.summary_refresh,
        &timing,
        &mut source,
        fleet_config.threads,
        None,
        None,
    );
    let elapsed = started.elapsed().as_secs_f64();
    let events = fleet_events(&outcome);
    (
        RowOutcome {
            events,
            elapsed,
            events_per_sec: events as f64 / elapsed.max(1e-9),
        },
        outcome,
    )
}

/// The `serve_latency` arm: the online placement service admitting an
/// open-loop request stream over the pooled-fleet configuration (same
/// cell count, scaled-down hosts — each decision scans one cell, so the
/// arm's cost is per request). Latency numbers are on the virtual
/// microsecond clock; `elapsed` is the wall-clock cost of serving them.
struct ServeArm {
    hosts: usize,
    cells: usize,
    report: ServeReport,
    elapsed: f64,
}

fn run_serve_arm(config: &Config) -> ServeArm {
    let hosts = if config.quick { 2_048 } else { 16_384 };
    let cells = config.cells.clamp(1, 32);
    // A ~1ms virtual decision server: saturation-adjacent offered load
    // produces meaningful queueing latency at request volumes that
    // finish quickly.
    let service = ServiceModel {
        base_decision_us: 1000,
        per_host_ns: 500,
        per_vm_ns: 100,
    };
    let rate = 0.8 * service.capacity_per_sec(hosts / cells, 0);
    let spec = Experiment::builder()
        .name("fleet-serve-latency")
        .workload(PoolConfig {
            hosts,
            duration: Duration::from_secs(60),
            seed: 4242,
            ..PoolConfig::default()
        })
        .predictor(PredictorSpec::Oracle)
        .algorithm(lava_sched::Algorithm::Nilas)
        .fleet(
            FleetConfig::new(cells)
                .with_router(RouterSpec::LeastLoaded)
                .with_summary_refresh(Duration::from_secs(5))
                .with_threads(config.threads),
        )
        .serve(ServeConfig::at_rate(rate).with_service(service))
        .build()
        .expect("valid serve spec");
    let started = Instant::now();
    let report = run_serve(&spec).expect("serving run");
    let elapsed = started.elapsed().as_secs_f64();
    assert!(report.placed > 0, "serve arm placed nothing");
    ServeArm {
        hosts,
        cells,
        report,
        elapsed,
    }
}

fn main() {
    let config = parse_args();
    assert_thread_parity();

    // 1-cell overhead pair: identical workload through the plain engine
    // and through a 1-cell Hash fleet.
    let overhead_pool = scale_pool(10_000, 1_200_000);
    println!(
        "fleet_scale: overhead pair at {} hosts, ~{:.1}M target events",
        overhead_pool.hosts, 1.2
    );
    let plain = run_plain_engine(&overhead_pool);
    let (one_cell, one_cell_outcome) =
        run_fleet_row(&overhead_pool, &FleetConfig::new(1).with_threads(1));
    assert_eq!(
        plain.events, one_cell.events,
        "1-cell fleet processed a different event count than the plain engine"
    );
    let overhead_pct = (plain.events_per_sec / one_cell.events_per_sec - 1.0) * 100.0;
    println!(
        "fleet_scale[overhead]: plain {:.0} ev/s vs 1-cell fleet {:.0} ev/s -> {overhead_pct:+.2}% overhead",
        plain.events_per_sec, one_cell.events_per_sec
    );
    let overhead_bound = if config.quick { 50.0 } else { 5.0 };
    assert!(
        overhead_pct < overhead_bound,
        "1-cell fleet overhead {overhead_pct:.2}% exceeds the {overhead_bound}% bound"
    );
    assert_eq!(one_cell_outcome.cells.len(), 1);

    // The fleet row: heterogeneous cells, summary-driven router, per-CPU
    // workers.
    let fleet_pool = scale_pool(config.hosts, config.target_events);
    let mut fleet_config = FleetConfig::new(config.cells)
        .with_router(config.router)
        .with_threads(config.threads);
    for o in heterogeneous_overrides(config.cells, config.hosts) {
        fleet_config = fleet_config.with_override(o);
    }
    let total_hosts: usize = fleet_config
        .cell_layout(&fleet_pool)
        .iter()
        .map(|(_, hosts, _)| *hosts)
        .sum();
    println!(
        "fleet_scale: fleet row at {} hosts across {} heterogeneous cells, ~{:.1}M target events, \
         {:.2}-day horizon, router {} ({})",
        total_hosts,
        config.cells,
        config.target_events as f64 / 1e6,
        fleet_pool.duration.as_days(),
        fleet_config.router,
        if config.quick { "quick" } else { "full" }
    );
    if !config.quick {
        assert!(
            total_hosts >= 1_000_000 && (32..=128).contains(&config.cells),
            "full mode must cover >=1M hosts across 32-128 cells (got {total_hosts} hosts / {} cells)",
            config.cells
        );
    }
    let (fleet_row, outcome) = run_fleet_row(&fleet_pool, &fleet_config);
    let routed: u64 = outcome.cells.iter().map(|c| c.routed_vms).sum();
    let rejected: u64 = outcome.cells.iter().map(|c| c.rejected_vms).sum();
    let threads_used = workers_used(config.threads, config.cells);
    let per_core = fleet_row.events_per_sec / threads_used as f64;
    println!(
        "fleet_scale[fleet]: {} hosts / {} cells, {} events in {:.2}s -> {:.0} events/sec \
         (routed {routed} VMs, rejected {rejected})",
        total_hosts, config.cells, fleet_row.events, fleet_row.elapsed, fleet_row.events_per_sec
    );
    assert!(
        fleet_row.events >= config.target_events / 2,
        "horizon produced far fewer events ({}) than targeted ({})",
        fleet_row.events,
        config.target_events
    );

    // The per-core baseline: the plain single-cluster engine on the same
    // horizon and arrival stream, over the same *total* host count as
    // the fleet (overrides included — the working set must match: at
    // fleet scale both executors are memory-bound, and that is the
    // regime the parallelism-gap bar is about; a small cache-resident
    // pool would flatter the baseline).
    let baseline_pool = PoolConfig {
        hosts: total_hosts,
        ..fleet_pool.clone()
    };
    println!(
        "fleet_scale: at-scale plain baseline on {} hosts",
        baseline_pool.hosts
    );
    let plain_at_scale = run_plain_engine(&baseline_pool);
    let per_core_efficiency = per_core / plain_at_scale.events_per_sec.max(1e-9);
    println!(
        "fleet_scale[fleet]: {threads_used} workers -> {per_core:.0} events/sec/core, \
         {per_core_efficiency:.2}x the plain engine's {:.0} events/sec at the same scale",
        plain_at_scale.events_per_sec
    );
    // The pooled executor's acceptance bar: at 1M+ hosts / 128 cells, a
    // core spent on the fleet tier must process events at least as fast
    // as the plain single-cluster engine driving the identical workload
    // — the pool's routing/channel/epoch machinery may not eat the
    // parallelism. Asserted on a hash-routed row (reusing the fleet row
    // when it is already hash-routed): uniform spread isolates the
    // executor, where a summary-driven router's capacity-proportional
    // concentration would measure placement shape instead (see the
    // module docs).
    let executor_bar = if config.quick {
        None
    } else {
        let exec_rate = if matches!(fleet_config.router, RouterSpec::Hash) {
            fleet_row.events_per_sec
        } else {
            let exec_config = fleet_config.clone().with_router(RouterSpec::Hash);
            let (exec_row, _) = run_fleet_row(&fleet_pool, &exec_config);
            println!(
                "fleet_scale[executor]: hash-routed bar row, {} events in {:.2}s -> {:.0} events/sec",
                exec_row.events, exec_row.elapsed, exec_row.events_per_sec
            );
            exec_row.events_per_sec
        };
        let exec_per_core = exec_rate / threads_used as f64;
        let exec_efficiency = exec_per_core / plain_at_scale.events_per_sec.max(1e-9);
        println!(
            "fleet_scale[executor]: {exec_per_core:.0} events/sec/core, {exec_efficiency:.2}x \
             the plain engine at the same scale"
        );
        assert!(
            exec_efficiency >= 1.0,
            "executor per-core throughput ({exec_per_core:.0} ev/s over {threads_used} workers) \
             fell below the at-scale plain engine ({:.0} ev/s)",
            plain_at_scale.events_per_sec
        );
        // The configured (summary-driven) row's regression floor against
        // the same baseline: absorbs the router's deliberate load
        // concentration and runner noise, still fails on an executor-
        // grade regression.
        assert!(
            per_core_efficiency >= 0.8,
            "configured fleet row per-core efficiency {per_core_efficiency:.2}x fell below the \
             0.8x regression floor against the at-scale plain engine"
        );
        Some((exec_rate, exec_per_core, exec_efficiency))
    };

    // The online serving arm over the pooled fleet configuration.
    let serve = run_serve_arm(&config);
    let r = &serve.report;
    println!(
        "fleet_scale[serve_latency]: {} hosts / {} cells, offered={} placed={} shed={:.1}% \
         p50={:.0}us p99={:.0}us p999={:.0}us ({:.0} decisions/sec wall)",
        serve.hosts,
        serve.cells,
        r.offered,
        r.placed,
        100.0 * r.shed_rate(),
        r.latency.quantile(0.50),
        r.latency.quantile(0.99),
        r.latency.quantile(0.999),
        r.offered as f64 / serve.elapsed.max(1e-9)
    );

    if let Some(path) = &config.json_path {
        // Additive schema: the pre-pool fields keep their names and
        // shapes; per-core, executor-bar and serve-arm numbers are new
        // keys only (`executor_bar` appears in full mode).
        let executor_json = executor_bar
            .map(|(rate, per_core, efficiency)| {
                format!(
                    "  \"executor_bar\": {{\n    \"router\": \"hash\",\n    \
                     \"events_per_sec\": {rate:.0},\n    \
                     \"events_per_sec_per_core\": {per_core:.0},\n    \
                     \"per_core_efficiency\": {efficiency:.3}\n  }},\n"
                )
            })
            .unwrap_or_default();
        let json = format!(
            "{{\n  \"mode\": \"{}\",\n  \"fleet\": {{\n    \"hosts\": {},\n    \"cells\": {},\n    \
             \"router\": \"{}\",\n    \"events\": {},\n    \"elapsed_seconds\": {:.3},\n    \
             \"events_per_sec\": {:.0},\n    \"routed_vms\": {},\n    \"rejected_vms\": {},\n    \
             \"threads\": {},\n    \"threads_used\": {},\n    \
             \"events_per_sec_per_core\": {:.0},\n    \"per_core_efficiency\": {:.3}\n  }},\n  \
             \"plain_at_scale\": {{\n    \"hosts\": {},\n    \"events\": {},\n    \
             \"events_per_sec\": {:.0}\n  }},\n{}  \
             \"one_cell_overhead\": {{\n    \"hosts\": {},\n    \
             \"events\": {},\n    \"engine_events_per_sec\": {:.0},\n    \
             \"fleet_events_per_sec\": {:.0},\n    \"overhead_pct\": {:.2}\n  }},\n  \
             \"serve_latency\": {{\n    \"hosts\": {},\n    \"cells\": {},\n    \
             \"offered\": {},\n    \"placed\": {},\n    \"shed\": {},\n    \
             \"goodput_per_sec\": {:.1},\n    \"p50_us\": {:.0},\n    \"p99_us\": {:.0},\n    \
             \"p999_us\": {:.0},\n    \"max_us\": {:.0},\n    \
             \"wall_decisions_per_sec\": {:.0}\n  }}\n}}\n",
            if config.quick { "quick" } else { "full" },
            total_hosts,
            config.cells,
            fleet_config.router,
            fleet_row.events,
            fleet_row.elapsed,
            fleet_row.events_per_sec,
            routed,
            rejected,
            config.threads,
            threads_used,
            per_core,
            per_core_efficiency,
            baseline_pool.hosts,
            plain_at_scale.events,
            plain_at_scale.events_per_sec,
            executor_json,
            overhead_pool.hosts,
            plain.events,
            plain.events_per_sec,
            one_cell.events_per_sec,
            overhead_pct,
            serve.hosts,
            serve.cells,
            r.offered,
            r.placed,
            r.shed,
            r.goodput_per_sec(),
            r.latency.quantile(0.50),
            r.latency.quantile(0.99),
            r.latency.quantile(0.999),
            r.latency.max(),
            r.offered as f64 / serve.elapsed.max(1e-9)
        );
        std::fs::write(path, json).expect("write bench artifact");
        println!("fleet_scale: wrote {path}");
    }
}
