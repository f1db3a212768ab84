//! One benchmark run of one workload: set up several times, warm up,
//! repeat for the allotted seconds, check, and turn the repetitions into
//! the metric values of `metrics::END_TO_END` (tracing off) or
//! `metrics::PER_LAYER` (tracing on).

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probes::{self, Probes};
use crate::report;
use crate::stats::{highest_supported_percentile, median, percentile_sorted, quartiles};
use crate::trace::{Site, Tracer};
use crate::workloads::{service_time_us, Kind, Prepared, Rep, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed repetitions a run reports on.
const MIN_REPS: usize = 3;
/// Set-ups per run: at least this many, and more while they stay cheap.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.5;
/// Sizing guard: a workload on which more than this share of decisions
/// fails no longer measures what it was chosen for.
const MAX_FAILED_SHARE: f64 = 0.01;
/// Share of `--seconds` a traced run gives to its repetitions; the rest
/// covers the probes.
const TRACED_REPS_SHARE: f64 = 0.8;
/// Per-layer numbers from traced repetitions this much slower than the
/// untraced ones describe the tracer, not the system: such a run fails.
const MAX_TRACE_OVERHEAD_PCT: f64 = 10.0;

/// What to run.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Run exactly this many timed repetitions (rounds, when tracing) instead.
    pub reps: Option<usize>,
    /// Report the per-layer metrics of traced repetitions.
    pub trace: bool,
}

/// What a run found.
pub struct RunOutput {
    /// Every check passed.
    pub correct: bool,
    /// Placement decisions attempted in one repetition.
    pub attempted: u64,
    /// Decisions that did not place.
    pub failed: u64,
    /// The metric values, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunOutput {
    /// The one-line JSON object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, value)| {
                let entry = vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ];
                (def.name.to_string(), Value::Object(entry))
            })
            .collect();
        report::to_json(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }
}

/// The directory run artefacts (scratch LVTR files, result and trace
/// JSON) go to: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 if unreadable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Set the workload up several times; the last input is the one measured.
fn set_up(args: &RunArgs, dir: &Path) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut input = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // The scratch file is reused, so the old input goes first.
        drop(input.take());
        let one = Instant::now();
        input = Some(args.workload.setup(args.seed, dir)?);
        times.push(one.elapsed().as_secs_f64());
    }
    Ok((input.expect("at least one set-up ran"), times))
}

/// A run's timed repetitions.
#[derive(Default)]
struct Rounds {
    /// Tracing off.
    plain: Vec<Rep>,
    /// Through the span decorators, each with a tracer of its own.
    traced: Vec<(Rep, Arc<Tracer>)>,
    /// `fleet_pooled` on one worker, in the first `MIN_REPS` rounds: the
    /// serial reference its parallel speed-up is measured against.
    one_worker: Vec<Rep>,
}

impl Rounds {
    fn traced_reps(&self) -> impl Iterator<Item = &Rep> {
        self.traced.iter().map(|(rep, _)| rep)
    }

    /// How much slower the traced repetitions ran, in per cent: each
    /// against the untraced one before it. The two ran under the same
    /// conditions, so the median of their ratios is steadier than any
    /// ratio of the run's extremes.
    fn trace_overhead_pct(&self) -> f64 {
        let slowdowns: Vec<f64> = self
            .plain
            .iter()
            .zip(self.traced_reps())
            .map(|(plain, traced)| traced.wall_s / plain.wall_s)
            .collect();
        (median(&slowdowns) - 1.0) * 100.0
    }
}

/// Add rounds of the workload to `rounds` for `budget_s` seconds (or
/// exactly `args.reps` of them). A traced run alternates untraced, traced
/// and one-worker repetitions, so that a noisy spell on the box falls on
/// all alike and the ratios between them (tracing overhead, parallel
/// speed-up) hold.
fn repeat(args: &RunArgs, input: &Prepared, budget_s: f64, rounds: &mut Rounds) {
    let w = args.workload;
    let before = rounds.plain.len();
    let started = Instant::now();
    loop {
        let added = rounds.plain.len() - before;
        let done = match args.reps {
            Some(exact) => added >= exact,
            None => added >= MIN_REPS && started.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            return;
        }
        rounds.plain.push(w.run(input, None));
        if args.trace {
            let tracer = Tracer::new();
            let rep = w.run(input, Some(&tracer));
            rounds.traced.push((rep, tracer));
            // The first rounds only: every repetition between an untraced
            // and a traced one loosens that pair, and on `fleet_pooled`,
            // whose repetitions differ by 8 % among themselves, the
            // overhead needs every round it can get.
            if let (Kind::Fleet { cells, .. }, true) = (w.kind, rounds.one_worker.len() < MIN_REPS)
            {
                rounds.one_worker.push(w.run_on_one_worker(input, cells));
            }
        }
    }
}

/// The smallest `f` over the repetitions. Host-time figures report the
/// best repetition, not the median one: on a shared box noise only ever
/// adds time, and it comes in spells longer than a run (two runs in ten
/// had every repetition 20 % slow), which a median does not survive.
fn least_of<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    reps.into_iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Percentile of one repetition's `offer` times, in µs.
fn offer_us(rep: &Rep, p: f64) -> f64 {
    let mut sorted = rep.offer_ns.clone();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p) / 1e3
}

/// Run one workload once and report.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let w = args.workload;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let (input, setups) = set_up(args, &dir)?;
    let cold = w.run(&input, None);
    let budget_s = if args.trace {
        args.seconds * TRACED_REPS_SHARE
    } else {
        args.seconds
    };
    let mut rounds = Rounds::default();
    repeat(args, &input, budget_s, &mut rounds);
    // On `fleet_pooled` one run's overhead reading scatters by 2-3 points
    // around 3.5, so a reading at the limit gets as many rounds again
    // before it fails the run.
    if args.trace && rounds.trace_overhead_pct() >= MAX_TRACE_OVERHEAD_PCT {
        repeat(args, &input, budget_s, &mut rounds);
    }

    // Correctness: every repetition — traced or not, on any worker count —
    // decided the same.
    let mut problems: Vec<String> = Vec::new();
    for (index, rep) in std::iter::once(&cold)
        .chain(&rounds.plain)
        .chain(rounds.traced_reps())
        .chain(&rounds.one_worker)
        .enumerate()
    {
        problems.extend(
            rep.problems
                .iter()
                .map(|p| format!("repetition {index}: {p}")),
        );
        if rep.digest != cold.digest {
            problems.push(format!(
                "repetition {index} digest {:016x} differs from the first, {:016x}",
                rep.digest, cold.digest
            ));
        }
        if rep.failed as f64 > MAX_FAILED_SHARE * rep.decisions as f64 {
            problems.push(format!(
                "repetition {index}: {} of {} decisions failed (the workload is sized for none)",
                rep.failed, rep.decisions
            ));
        }
    }

    let plain_wall_s = least_of(&rounds.plain, |r| r.wall_s);
    let wall_us_per_decision = |r: &Rep| r.wall_s * 1e6 / r.decisions.max(1) as f64;
    let serve = matches!(w.kind, Kind::Serve { .. });
    let metrics: Vec<(&'static MetricDef, f64)> = if args.trace {
        let trace_overhead_pct = rounds.trace_overhead_pct();
        if trace_overhead_pct >= MAX_TRACE_OVERHEAD_PCT {
            problems.push(format!(
                "tracing slowed the run by {trace_overhead_pct:.1} %, the limit is \
                 {MAX_TRACE_OVERHEAD_PCT} %: the per-layer figures are not the system's"
            ));
        }
        let context = LayerContext {
            w,
            input: &input,
            probes: probes::run(input.pool())?,
            cold_run_s: cold.wall_s,
            trace_overhead_pct,
            // Likewise, each one-worker replay against its round's untraced one.
            parallel_speedup: median(
                &rounds
                    .plain
                    .iter()
                    .zip(&rounds.one_worker)
                    .map(|(two_workers, one_worker)| one_worker.wall_s / two_workers.wall_s)
                    .collect::<Vec<_>>(),
            ),
            one_worker_events_per_s: rounds
                .one_worker
                .iter()
                .map(|r| r.events as f64 / r.wall_s)
                .fold(0.0, f64::max),
        };
        let per_rep: Vec<Vec<f64>> = rounds
            .traced
            .iter()
            .map(|(rep, tracer)| context.values(rep, tracer))
            .collect();
        if let Some((rep, tracer)) = rounds.traced.last() {
            report::write_trace_file(&dir, w.name, args.seed, rep, tracer)?;
        }
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, def)| {
                (
                    def,
                    median(&per_rep.iter().map(|v| v[i]).collect::<Vec<_>>()),
                )
            })
            .collect()
    } else {
        let builds: Vec<f64> = rounds.plain.iter().map(|r| r.build_s).collect();
        let value = |name: &str| match name {
            "setup_s" => median(&setups) + median(&builds),
            "events_per_s" => cold.events as f64 / plain_wall_s,
            "decision_us" if serve => least_of(&rounds.plain, |r| offer_us(r, 99.0)),
            "decision_us" => least_of(&rounds.plain, wall_us_per_decision),
            "peak_rss_mb" => peak_rss_kb() as f64 / 1024.0,
            "empty_host_frac" => cold.empty_host_frac,
            other => unreachable!("no end-to-end metric named {other}"),
        };
        END_TO_END
            .iter()
            .map(|def| (def, value(def.name)))
            .collect()
    };

    let digest_matches_baseline = report::baseline_digest(w.name, args.seed)
        .map(|baseline| baseline == format!("{:016x}", cold.digest));
    print_summary(args, &input, &rounds, &setups, &metrics, &problems);
    match digest_matches_baseline {
        Some(matches) => println!("digest_matches_baseline: {matches}"),
        None => println!("digest_matches_baseline: no baseline for this seed"),
    }
    report::write_result_file(
        &dir,
        args,
        &input,
        cold.digest,
        digest_matches_baseline,
        rounds.plain.len() + rounds.traced.len(),
        &metrics,
        &problems,
    )?;

    Ok(RunOutput {
        correct: problems.is_empty(),
        attempted: cold.decisions.max(1),
        failed: cold.failed,
        metrics,
    })
}

/// Everything the per-layer values of one traced repetition need besides
/// the repetition itself.
struct LayerContext<'a> {
    w: &'a Workload,
    input: &'a Prepared,
    probes: Probes,
    cold_run_s: f64,
    trace_overhead_pct: f64,
    parallel_speedup: f64,
    one_worker_events_per_s: f64,
}

impl LayerContext<'_> {
    /// The `PER_LAYER` values of one traced repetition, in table order.
    fn values(&self, rep: &Rep, tracer: &Tracer) -> Vec<f64> {
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let wall_ns = rep.wall_s * 1e9;
        let (events, decisions) = (rep.events as f64, rep.decisions as f64);
        let source_ns = tracer.site(Site::Source).total_ns();
        let model_ns = tracer.site(Site::Model).total_ns();
        let (choose, hooks) = (
            tracer.site(Site::PolicyChoose),
            tracer.site(Site::PolicyHooks),
        );
        let policy_ns = choose.self_ns() + hooks.self_ns();
        let samples = tracer.site(Site::ObserverSample);
        let observer_ns = tracer.site(Site::Observer).self_ns() + samples.self_ns();
        // What is left is the engine itself; the layers sum to the wall
        // time by construction.
        let residual_ns = wall_ns - source_ns - model_ns - policy_ns - observer_ns;
        let counters = tracer.policy_counters();
        let lookups = (counters.cache_hits + counters.cache_misses) as f64;
        let (workers, epochs, skew) = match self.w.kind {
            Kind::Fleet { workers, .. } => {
                let max = rep.routed.iter().copied().max().unwrap_or(0) as f64;
                let mean = rep.routed.iter().sum::<u64>() as f64 / rep.routed.len().max(1) as f64;
                (workers as f64, rep.epochs as f64, ratio(max, mean))
            }
            _ => (0.0, 0.0, 0.0),
        };
        let wall_us_per_decision = ratio(rep.wall_s * 1e6, decisions);
        let serve = rep.serve;

        let value = |name: &str| match name {
            "trace.decode_ns_per_event" => self.probes.decode_ns_per_event,
            "trace.encode_ns_per_event" => self.probes.encode_ns_per_event,
            "trace.bytes_per_event" => self.probes.bytes_per_event,
            "workload.gen_ns_per_event" => self.probes.gen_ns_per_event,
            "arrivals.gen_ns_per_request" => self.probes.arrivals_ns_per_request,
            "core.pool_place_ns" => self.probes.pool_place_ns,
            "core.pool_remove_ns" => self.probes.pool_remove_ns,
            "timeline.push_pop_ns" => self.probes.timeline_push_pop_ns,
            "router.ns_per_route" => self.probes.route_ns,
            "setup.model_share" => ratio(
                self.input.breakdown.model_s,
                self.input.breakdown.model_s + self.input.breakdown.input_s,
            ),
            "source.busy_share" => ratio(source_ns, wall_ns),
            "model.predictions" => rep.predictions as f64,
            "model.batch_calls" => rep.batch_calls as f64,
            "model.mean_batch_size" => {
                ratio(rep.batched_predictions as f64, rep.batch_calls as f64)
            }
            "model.predictions_per_placement" => ratio(rep.predictions as f64, decisions),
            "model.ns_per_prediction" => ratio(model_ns, rep.predictions as f64),
            "model.busy_share" => ratio(model_ns, wall_ns),
            "policy.choose_calls" => choose.calls as f64,
            "policy.choose_self_us" => ratio(choose.self_ns(), choose.calls as f64) / 1e3,
            "policy.choose_p50_us" => choose.timed.quantile(0.5) / 1e3,
            "policy.choose_p99_us" => choose.timed.quantile(0.99) / 1e3,
            "policy.hooks_ns_per_event" => ratio(hooks.self_ns(), events),
            "policy.busy_share" => ratio(policy_ns, wall_ns),
            "policy.exit_cache_hit_ratio" => ratio(counters.cache_hits as f64, lookups),
            "policy.deadline_corrections" => counters.deadline_corrections as f64,
            "observer.busy_share" => ratio(observer_ns, wall_ns),
            "observer.sample_calls" => samples.calls as f64,
            "engine.residual_ns_per_event" => ratio(residual_ns, events),
            "engine.residual_share" => ratio(residual_ns, wall_ns),
            "engine.cold_run_s" => self.cold_run_s,
            "fleet.workers" => workers,
            "fleet.epochs" => epochs,
            "fleet.cell_routed_skew" => skew,
            "fleet.events_per_s_1worker" => self.one_worker_events_per_s,
            "fleet.parallel_speedup" => self.parallel_speedup,
            "mem.rss_kb_per_host" => peak_rss_kb() as f64 / self.w.hosts as f64,
            "serve.offer_p999_over_p50" => ratio(offer_us(rep, 99.9), offer_us(rep, 50.0)),
            "serve.finish_drain_share" => ratio(rep.finish_s, rep.wall_s),
            "serve.queue_high_water" => serve.map_or(0.0, |s| s.queue_high_water as f64),
            "serve.releases" => serve.map_or(0.0, |s| s.released as f64),
            "serve.virt_p50_over_service" => {
                serve.map_or(0.0, |s| s.virt_p50_us / service_time_us())
            }
            "serve.virt_p99_over_service" => {
                serve.map_or(0.0, |s| s.virt_p99_us / service_time_us())
            }
            "serve.virt_us_per_wall_us" => {
                serve.map_or(0.0, |_| ratio(service_time_us(), wall_us_per_decision))
            }
            "trace_overhead_pct" => self.trace_overhead_pct,
            other => unreachable!("no per-layer metric named {other}"),
        };
        PER_LAYER.iter().map(|def| value(def.name)).collect()
    }
}

/// Print what was run and every metric by name, with unit; timings with
/// their quartiles and sample counts.
fn print_summary(
    args: &RunArgs,
    input: &Prepared,
    rounds: &Rounds,
    setups: &[f64],
    metrics: &[(&'static MetricDef, f64)],
    problems: &[String],
) {
    let w = args.workload;
    println!(
        "workload {} seed {} trace {}: {} hosts, {} s horizon, {} LVTR events, {} requests",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.hosts,
        w.horizon_secs,
        input.trace_events(),
        input.requests()
    );
    let spread = |label: &str, values: Vec<f64>, unit: &str| {
        let (q1, mid, q3) = quartiles(&values);
        let least = values.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  {label}: least {least:.6} {unit}, median {mid:.6} (q1 {q1:.6}, q3 {q3:.6}, n = {})",
            values.len()
        );
    };
    spread("set-up", setups.to_vec(), "s");
    spread(
        "untraced repetition",
        rounds.plain.iter().map(|r| r.wall_s).collect(),
        "s",
    );
    if !rounds.traced.is_empty() {
        spread(
            "traced repetition",
            rounds.traced.iter().map(|(r, _)| r.wall_s).collect(),
            "s",
        );
    }
    if let Some(rep) = rounds.plain.iter().find(|rep| !rep.offer_ns.is_empty()) {
        let top = highest_supported_percentile(rep.offer_ns.len());
        println!(
            "  offer wall time, one repetition: p50 {:.3} us, p{top} {:.3} us (n = {})",
            offer_us(rep, 50.0),
            offer_us(rep, top),
            rep.offer_ns.len()
        );
    }
    for (def, value) in metrics {
        println!("  {:<34} {value:>16.6} {}", def.name, def.unit);
    }
    for problem in problems {
        println!("  CHECK FAILED: {problem}");
    }
}
