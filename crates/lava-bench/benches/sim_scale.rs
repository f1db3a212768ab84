//! `sim_scale`: end-to-end throughput of the streaming discrete-event
//! engine at cluster scale.
//!
//! Drives a [`StreamingWorkload`] through the unified timeline over a
//! large host count and millions of events, reporting events/sec and the
//! source's peak pending-buffer size (which stays O(live VMs), horizon
//! independent). Measured rows:
//!
//! * **streaming-binary-trace** — a binary trace is streamed to disk with
//!   [`BinaryTraceWriter`] (never materialised) and replayed through the
//!   engine with [`BinaryTraceSource`] at 30- and 90-day horizons. Peak
//!   RSS is recorded for both; tripling the horizon must leave peak
//!   memory flat (the O(read-buffer) guarantee). These rows run first
//!   because peak RSS is process-monotonic.
//! * **engine** — placement is a trivial most-free-first walk of the
//!   pool's free-capacity index (O(1) amortised), so the row isolates the
//!   engine itself: source generation, timeline ordering, cluster
//!   bookkeeping and observer dispatch. In full mode this row covers 10M+
//!   events at 100 000 hosts.
//! * **nilas** — the full lifetime-aware policy at a smaller host count,
//!   for context (per-placement policy cost is measured in detail by the
//!   `scheduling_throughput` bench).
//!
//! Before the timed rows, a parity check asserts that an experiment
//! replaying a binary-round-tripped trace matches one replaying the JSON
//! round-trip bit-for-bit. (That a `TraceSource` replay and a
//! `StreamingWorkload` run agree is a tier-1 property test,
//! `tests/streaming_engine.rs`.)
//!
//! Flags (after `--`):
//!
//! * `--quick` — CI-scale settings (fewer hosts/events);
//! * `--hosts N` / `--events N` — override the engine row's scale;
//! * `--json PATH` — write the measurements as a JSON artifact
//!   (`BENCH_sim_scale.json` in CI, including the peak-RSS fields).
//!
//! Usage: `cargo bench -p lava-bench --bench sim_scale -- [--quick] [--json BENCH_sim_scale.json]`

use lava_bench::MostFreeFirstPolicy;
use lava_core::pool::Pool;
use lava_core::source::EventSource;
use lava_core::time::Duration;
use lava_model::predictor::OraclePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::Scheduler;
use lava_sched::Algorithm;
use lava_sim::experiment::{drive, DriveTiming, Experiment};
use lava_sim::observer::SimObserver;
use lava_sim::trace::{BinaryTraceSource, BinaryTraceWriter, Trace};
use lava_sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    quick: bool,
    hosts: usize,
    target_events: u64,
    json_path: Option<String>,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config {
        quick: false,
        hosts: 100_000,
        target_events: 10_000_000,
        json_path: None,
    };
    let mut hosts_override = None;
    let mut events_override = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config.quick = true,
            "--hosts" => {
                hosts_override = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 1;
            }
            "--events" => {
                events_override = args.get(i + 1).and_then(|v| v.parse().ok());
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
        config.hosts = 10_000;
        config.target_events = 1_200_000;
    }
    if let Some(hosts) = hosts_override {
        config.hosts = hosts;
    }
    if let Some(events) = events_override {
        config.target_events = events;
    }
    config
}

fn scale_pool(hosts: usize, target_events: u64) -> PoolConfig {
    let mut pool = PoolConfig {
        hosts,
        seed: 4242,
        ..PoolConfig::default()
    };
    // Size the horizon so the arrival process emits roughly the requested
    // event count (2 events per VM), on top of the standing population.
    let rate = WorkloadGenerator::new(pool.clone()).arrival_rate();
    let seconds = (target_events as f64 / 2.0 / rate.max(1e-9)).ceil() as u64;
    pool.duration = Duration::from_secs(seconds.max(3600));
    pool
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`; 0 where unavailable). Monotonic over the process
/// lifetime, so memory-sensitive rows must run before anything bulky.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn engine_timing() -> DriveTiming {
    DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    }
}

struct RowOutcome {
    events: u64,
    elapsed: f64,
    events_per_sec: f64,
    max_pending: usize,
    placed: u64,
    rejected: u64,
}

/// Stream `pool_config` through the engine under `policy`, returning the
/// throughput measurements.
fn run_row(label: &str, pool_config: &PoolConfig, policy: Box<dyn PlacementPolicy>) -> RowOutcome {
    let mut source = StreamingWorkload::new(pool_config.clone());
    let pool = Pool::with_uniform_hosts(
        pool_config.pool_id,
        pool_config.hosts,
        pool_config.host_spec(),
    );
    let predictor = Arc::new(OraclePredictor::new());
    let mut scheduler = Scheduler::new(Cluster::new(pool), policy, predictor);
    let timing = engine_timing();

    let started = Instant::now();
    let rejected = {
        let mut observers: Vec<&mut dyn SimObserver> = Vec::new();
        drive(&mut source, &mut scheduler, None, &timing, &mut observers)
    };
    let elapsed = started.elapsed().as_secs_f64();

    // Every pulled event was a create (placed or failed) or an exit
    // (processed, or suppressed because its create was rejected).
    let stats = scheduler.stats();
    let events = stats.placed + stats.exited + 2 * stats.failed;
    let events_per_sec = events as f64 / elapsed.max(1e-9);
    let max_pending = source.max_pending_len();
    println!(
        "sim_scale[{label}]: {} hosts, {events} events in {elapsed:.2}s -> {events_per_sec:.0} \
         events/sec (placed {}, rejected {rejected}, peak pending buffer {max_pending} events)",
        pool_config.hosts, stats.placed
    );
    RowOutcome {
        events,
        elapsed,
        events_per_sec,
        max_pending,
        placed: stats.placed,
        rejected,
    }
}

struct StreamingTraceRow {
    days: u64,
    events: u64,
    events_per_sec: f64,
    trace_bytes: u64,
    peak_rss_kb: u64,
}

/// The O(read-buffer) row: stream a `days`-long workload straight into a
/// binary trace file (never materialising it), then replay that file
/// through the engine with [`BinaryTraceSource`] and record peak RSS.
fn run_streaming_binary_row(hosts: usize, days: u64, dir: &Path) -> StreamingTraceRow {
    let pool_config = PoolConfig {
        hosts,
        duration: Duration::from_days(days),
        seed: 2424,
        ..PoolConfig::default()
    };
    let path = dir.join(format!("trace-{days}d.lvtr"));

    // Record: StreamingWorkload -> BinaryTraceWriter, O(live VMs) memory.
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = BinaryTraceWriter::new(std::io::BufWriter::new(file), pool_config.pool_id)
        .expect("write trace header");
    let mut generator = StreamingWorkload::new(pool_config.clone());
    while let Some(event) = generator.next_event() {
        writer.push(&event).expect("canonical event order");
    }
    writer.finish().expect("finalise trace");
    let trace_bytes = std::fs::metadata(&path).expect("trace written").len();

    // Replay: BinaryTraceSource -> drive, O(read-buffer) memory.
    let file = std::fs::File::open(&path).expect("open trace file");
    let mut source = BinaryTraceSource::new(file).expect("valid trace header");
    let pool = Pool::with_uniform_hosts(
        pool_config.pool_id,
        pool_config.hosts,
        pool_config.host_spec(),
    );
    let predictor = Arc::new(OraclePredictor::new());
    let mut scheduler =
        Scheduler::new(Cluster::new(pool), Box::new(MostFreeFirstPolicy), predictor);
    let timing = engine_timing();
    let started = Instant::now();
    {
        let mut observers: Vec<&mut dyn SimObserver> = Vec::new();
        drive(&mut source, &mut scheduler, None, &timing, &mut observers);
    }
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        source.error().is_none(),
        "binary replay hit a decode error: {:?}",
        source.error()
    );

    let stats = scheduler.stats();
    let events = stats.placed + stats.exited + 2 * stats.failed;
    let row = StreamingTraceRow {
        days,
        events,
        events_per_sec: events as f64 / elapsed.max(1e-9),
        trace_bytes,
        peak_rss_kb: peak_rss_kb(),
    };
    println!(
        "sim_scale[streaming-binary-trace]: {hosts} hosts, {days}-day horizon, {events} events, \
         {:.1} MB on disk, replay {:.0} events/sec, peak RSS {} KiB",
        row.trace_bytes as f64 / 1e6,
        row.events_per_sec,
        row.peak_rss_kb
    );
    row
}

/// In-bench parity assert: running an experiment on a binary-round-tripped
/// trace matches the JSON round-trip bit-for-bit.
fn assert_trace_format_parity() {
    let workload = PoolConfig {
        hosts: 64,
        duration: Duration::from_days(4),
        seed: 91,
        ..PoolConfig::default()
    };
    let spec = || {
        Experiment::builder()
            .workload(workload.clone())
            .warmup(Duration::from_hours(6))
            .algorithm(Algorithm::Nilas)
            .build()
            .and_then(Experiment::new)
            .expect("valid spec")
    };
    let original = spec();
    let trace = original.trace();
    let via_binary = Trace::from_binary(&trace.to_binary()).expect("binary round-trip");
    let via_json = Trace::from_json(&trace.to_json().expect("serialise")).expect("json round-trip");
    assert_eq!(&via_binary, trace);
    assert_eq!(&via_json, trace);
    let run = |trace: Trace| {
        let experiment = spec();
        assert!(experiment.set_trace(trace), "fresh experiment cell");
        experiment.run().result
    };
    assert_eq!(
        run(via_binary),
        run(via_json),
        "binary- and JSON-round-tripped traces produced different results"
    );
    println!("parity check passed: binary and JSON trace round-trips are bit-identical");
}

fn main() {
    let config = parse_args();

    // Peak RSS is monotonic for the process, so the memory-sensitive
    // streaming rows must run before anything that materialises a trace.
    let rss_hosts = if config.quick { 400 } else { 1_500 };
    let scratch = std::env::temp_dir().join(format!("lava-sim-scale-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let rss_30 = run_streaming_binary_row(rss_hosts, 30, &scratch);
    let rss_90 = run_streaming_binary_row(rss_hosts, 90, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        rss_90.events > 2 * rss_30.events,
        "90-day horizon should replay far more events ({} vs {})",
        rss_90.events,
        rss_30.events
    );
    // The O(read-buffer) guarantee: tripling the horizon (and the on-disk
    // trace) leaves peak memory flat, within allocator slack. The paged
    // vm tables release emptied id ranges, so memory tracks the live VM
    // window, not the total id space.
    let rss_delta_kb = rss_90.peak_rss_kb.saturating_sub(rss_30.peak_rss_kb);
    let rss_slack_kb = (rss_30.peak_rss_kb / 8).max(8 * 1024);
    assert!(
        rss_delta_kb <= rss_slack_kb,
        "streaming binary replay peak RSS grew {rss_delta_kb} KiB across 30->90 days \
         (allowed {rss_slack_kb} KiB): memory is not flat in the horizon"
    );
    println!(
        "memory check passed: 30->90-day streaming replay grew peak RSS by {rss_delta_kb} KiB \
         (<= {rss_slack_kb} KiB slack)"
    );

    assert_trace_format_parity();

    // Engine row: full scale, trivial placement (10M+ events in full mode).
    let engine_pool = scale_pool(config.hosts, config.target_events);
    println!(
        "sim_scale: engine row at {} hosts, ~{:.1}M target events, {:.2}-day horizon ({})",
        engine_pool.hosts,
        config.target_events as f64 / 1e6,
        engine_pool.duration.as_days(),
        if config.quick { "quick" } else { "full" }
    );
    let engine = run_row("engine", &engine_pool, Box::new(MostFreeFirstPolicy));
    assert!(
        engine.events >= config.target_events / 2,
        "horizon produced far fewer events ({}) than targeted ({})",
        engine.events,
        config.target_events
    );
    // The memory guarantee at scale: the pending buffer is a small
    // multiple of the live-VM population, never the total event count.
    assert!(
        (engine.max_pending as u64) < engine.events / 2,
        "pending buffer {} is not O(live VMs) vs {} events",
        engine.max_pending,
        engine.events
    );

    // Context row: the full lifetime-aware policy at a smaller pool.
    let nilas_hosts = if config.quick { 1_000 } else { 4_000 };
    let nilas_events = if config.quick { 100_000 } else { 400_000 };
    let nilas_pool = scale_pool(nilas_hosts, nilas_events);
    let predictor: Arc<dyn lava_model::predictor::LifetimePredictor> =
        Arc::new(OraclePredictor::new());
    let nilas = run_row(
        "nilas",
        &nilas_pool,
        Algorithm::Nilas.build_policy(predictor),
    );

    if let Some(path) = &config.json_path {
        let streaming_row = |row: &StreamingTraceRow| {
            format!(
                "{{\n      \"days\": {},\n      \"events\": {},\n      \
                 \"events_per_sec\": {:.0},\n      \"trace_bytes\": {},\n      \
                 \"peak_rss_kb\": {}\n    }}",
                row.days, row.events, row.events_per_sec, row.trace_bytes, row.peak_rss_kb
            )
        };
        let json = format!(
            "{{\n  \"mode\": \"{}\",\n  \"streaming_binary_trace\": {{\n    \"hosts\": {},\n    \
             \"rows\": [{}, {}],\n    \"peak_rss_delta_kb\": {},\n    \
             \"peak_rss_slack_kb\": {}\n  }},\n  \"engine\": {{\n    \"hosts\": {},\n    \
             \"events\": {},\n    \"elapsed_seconds\": {:.3},\n    \"events_per_sec\": {:.0},\n    \
             \"max_pending_events\": {},\n    \"placed\": {},\n    \"rejected\": {}\n  }},\n  \
             \"nilas\": {{\n    \"hosts\": {},\n    \"events\": {},\n    \
             \"elapsed_seconds\": {:.3},\n    \"events_per_sec\": {:.0},\n    \
             \"max_pending_events\": {}\n  }}\n}}\n",
            if config.quick { "quick" } else { "full" },
            rss_hosts,
            streaming_row(&rss_30),
            streaming_row(&rss_90),
            rss_delta_kb,
            rss_slack_kb,
            engine_pool.hosts,
            engine.events,
            engine.elapsed,
            engine.events_per_sec,
            engine.max_pending,
            engine.placed,
            engine.rejected,
            nilas_pool.hosts,
            nilas.events,
            nilas.elapsed,
            nilas.events_per_sec,
            nilas.max_pending
        );
        std::fs::write(path, json).expect("write bench artifact");
        println!("sim_scale: wrote {path}");
    }
}
