//! Everything written out or compared: the JSON artefacts under
//! `bench/out/`, the recorded baseline in `bench/baseline.json`, and the
//! multi-run modes (`--sets`, and the default "every workload" report)
//! that re-execute this binary once per run so that every run has a peak
//! RSS of its own.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{out_dir, RunArgs};
use crate::stats::{iqr_share, median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Kind, Prepared, Rep, Workload, WORKLOADS};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The vendored `serde_json` converts through `Serialize`/`Deserialize`;
/// this carries a raw value tree across it.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, DeError> {
        Ok(Json(v.clone()))
    }
}

/// Compact JSON text of a value tree.
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(&Json(value.clone())).expect("the vendored writer cannot fail")
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn write_file(path: &Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, to_json(value) + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json")
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|out| out.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were measured.
fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("nproc", Value::U64(nproc as u64)),
        (
            "git_rev",
            text(first_line_of(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            )),
        ),
        ("rustc", text(first_line_of("rustc", &["--version"]))),
    ])
}

fn sizes(w: &Workload, input: &Prepared) -> Value {
    let (cells, workers) = match w.kind {
        Kind::Replay => (1, 1),
        Kind::Fleet { cells, workers } => (cells, workers),
        Kind::Serve { cells } => (cells, 1),
    };
    object(vec![
        ("hosts_per_shard", Value::U64(w.hosts as u64)),
        ("horizon_secs", Value::U64(w.horizon_secs)),
        ("cells", Value::U64(cells as u64)),
        ("worker_threads", Value::U64(workers as u64)),
        ("lvtr_events", Value::U64(input.trace_events())),
        ("requests", Value::U64(input.requests() as u64)),
        ("shards", Value::U64(w.shards as u64)),
        ("pool_seed", Value::U64(input.pool().seed)),
    ])
}

fn metric_values(metrics: &[(&'static MetricDef, f64)]) -> Value {
    Value::Array(
        metrics
            .iter()
            .map(|(def, value)| {
                object(vec![
                    ("name", text(def.name)),
                    ("unit", text(def.unit)),
                    ("value", Value::F64(*value)),
                ])
            })
            .collect(),
    )
}

/// The digest `bench/baseline.json` records for `(workload, seed)`.
pub fn baseline_digest(workload: &str, seed: u64) -> Option<String> {
    let json = std::fs::read_to_string(baseline_path()).ok()?;
    let Json(doc) = serde_json::from_str(&json).ok()?;
    let entry = doc
        .field("workloads")
        .ok()?
        .items()
        .ok()?
        .iter()
        .find(|w| w.field("name").ok() == Some(&text(workload)))?;
    let digests = entry.field("digests").ok()?.items().ok()?;
    let found = digests
        .iter()
        .find(|d| d.field("seed").ok() == Some(&Value::U64(seed)))?;
    match found.field("digest").ok()? {
        Value::Str(digest) => Some(digest.clone()),
        _ => None,
    }
}

/// `out/result_<workload>_trace<0|1>.json`: what ran, where, and what it
/// measured.
#[allow(clippy::too_many_arguments)]
pub fn write_result_file(
    dir: &Path,
    args: &RunArgs,
    input: &Prepared,
    digest: u64,
    digest_matches_baseline: Option<bool>,
    repetitions: usize,
    metrics: &[(&'static MetricDef, f64)],
    problems: &[String],
) -> Result<(), String> {
    let w = args.workload;
    let path = dir.join(format!(
        "result_{}_trace{}.json",
        w.name,
        u8::from(args.trace)
    ));
    write_file(
        &path,
        &object(vec![
            ("workload", text(w.name)),
            ("seed", Value::U64(args.seed)),
            ("trace", Value::Bool(args.trace)),
            ("seconds", Value::F64(args.seconds)),
            ("repetitions", Value::U64(repetitions as u64)),
            ("sizes", sizes(w, input)),
            ("environment", environment()),
            ("digest", text(format!("{digest:016x}"))),
            (
                "digest_matches_baseline",
                digest_matches_baseline.map_or(Value::Null, Value::Bool),
            ),
            ("metrics", metric_values(metrics)),
            (
                "problems",
                Value::Array(problems.iter().map(text).collect()),
            ),
        ]),
    )
}

/// `out/trace_<workload>.json`: every span site's count, total, self time
/// and histogram, and the sampled span trees.
pub fn write_trace_file(
    dir: &Path,
    workload: &str,
    seed: u64,
    rep: &Rep,
    tracer: &Tracer,
) -> Result<(), String> {
    let sites = crate::trace::Site::ALL
        .iter()
        .map(|&site| {
            let stats = tracer.site(site);
            let buckets = stats
                .timed
                .buckets()
                .into_iter()
                .map(|(low, high, n)| {
                    Value::Array(vec![Value::F64(low), Value::F64(high), Value::U64(n)])
                })
                .collect();
            object(vec![
                ("name", text(site.name())),
                ("calls", Value::U64(stats.calls)),
                ("timed_calls", Value::U64(stats.timed.count())),
                ("total_ns", Value::F64(stats.total_ns())),
                ("self_ns", Value::F64(stats.self_ns())),
                ("p50_ns", Value::F64(stats.timed.quantile(0.5))),
                ("p99_ns", Value::F64(stats.timed.quantile(0.99))),
                ("buckets_low_high_count", Value::Array(buckets)),
            ])
        })
        .collect();
    let spans = tracer
        .spans()
        .iter()
        .map(|span| {
            object(vec![
                ("name", text(span.site.name())),
                ("start_ns", Value::U64(span.start_ns)),
                ("end_ns", Value::U64(span.end_ns)),
                (
                    "parent",
                    span.parent
                        .map_or(Value::Null, |p| Value::U64(u64::from(p))),
                ),
                ("event", Value::U64(span.event)),
            ])
        })
        .collect();
    write_file(
        &dir.join(format!("trace_{workload}.json")),
        &object(vec![
            ("workload", text(workload)),
            ("seed", Value::U64(seed)),
            ("run_wall_ns", Value::F64(rep.wall_s * 1e9)),
            ("events", Value::U64(rep.events)),
            ("sites", Value::Array(sites)),
            ("spans", Value::Array(spans)),
        ]),
    )
}

/// `--list`: the workloads and metrics, by name, with their reasons.
pub fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    for (title, table) in [
        ("end-to-end", &END_TO_END[..]),
        ("per-layer", &PER_LAYER[..]),
    ] {
        println!("{title} metrics:");
        for m in table {
            let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
            println!(
                "  {:<34} [{}, {} is better{bound}] {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.what
            );
        }
    }
}

/// What a child run printed on its last line, parsed.
struct ChildResult {
    correct: bool,
    values: Vec<(String, f64)>,
    digest: String,
}

/// Re-execute this binary for one contract-mode run, echoing its report
/// lines and parsing the result line.
fn run_child(args: &RunArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(reps) = args.reps {
        command.args(["--reps", &reps.to_string()]);
    }
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} seed {} exited with {}: {}",
            args.workload.name,
            args.seed,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let Json(doc) = serde_json::from_str(last).map_err(|e| format!("child result line: {e}"))?;
    let parse = || -> Result<ChildResult, DeError> {
        let Value::Object(metrics) = doc.field("metrics")? else {
            return Err(DeError::msg("metrics is not an object"));
        };
        let values = metrics
            .iter()
            .map(|(name, entry)| Ok((name.clone(), f64::from_value(entry.field("value")?)?)))
            .collect::<Result<_, DeError>>()?;
        Ok(ChildResult {
            correct: bool::from_value(doc.field("correct")?)?,
            values,
            digest: String::new(),
        })
    };
    let mut result = parse().map_err(|e| format!("child result line: {e}"))?;
    let file = out_dir().join(format!(
        "result_{}_trace{}.json",
        args.workload.name,
        u8::from(args.trace)
    ));
    if let Ok(Json(detail)) = std::fs::read_to_string(&file)
        .map_err(|e| e.to_string())
        .and_then(|json| serde_json::from_str::<Json>(&json).map_err(|e| e.to_string()))
    {
        if let Ok(Value::Str(digest)) = detail.field("digest") {
            result.digest = digest.clone();
        }
    }
    Ok(result)
}

/// The default mode: every selected workload once untraced and (unless
/// `no_trace`) once traced, each in a process of its own. Returns whether
/// every run was correct.
pub fn report_all(
    selected: &[&'static Workload],
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    no_trace: bool,
) -> Result<bool, String> {
    let mut all_correct = true;
    for &workload in selected {
        for trace in [false, true] {
            if trace && no_trace {
                continue;
            }
            let args = RunArgs {
                workload,
                seed,
                seconds,
                reps,
                trace,
            };
            let result = run_child(&args)?;
            all_correct &= result.correct;
        }
    }
    if !no_trace {
        println!("span traces: {}/trace_<workload>.json", out_dir().display());
    }
    Ok(all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Runs (seeds `--seed` .. `--seed + 9`) in a set. Fixed: the benchmark
/// contract takes its spreads over ten runs, and a baseline recorded over
/// another count would not be comparable with them.
const RUNS_PER_SET: u64 = 10;

/// How far `def` may worsen on `workload` between two sets. The sets use
/// the same seeds and are compared seed by seed, so what the seed does to
/// the input drops out and the bounds can be tighter than the one per
/// metric `BENCHMARK.json` has room for.
fn set_bound(workload: &Workload, def: &MetricDef) -> f64 {
    match def.name {
        "events_per_s" | "decision_us" => workload.host_time_bound,
        // Simulated: the same seed gives the same value, bit for bit.
        "empty_host_frac" => 0.0,
        _ => def.bound.expect("end-to-end metrics have bounds"),
    }
}

/// `--sets K`: run the whole benchmark `K` times over ten seeds per
/// workload, print each set's median and spread per (workload, metric)
/// with the gap between the first and the last set, record the result in
/// `bench/baseline.json`, and report whether everything stayed within
/// bounds: every spread (but `setup_s`'s) within the metric's bound in
/// `BENCHMARK.json`, every gap within [`set_bound`].
pub fn run_sets(
    selected: &[&'static Workload],
    sets: usize,
    seed: u64,
    seconds: f64,
    no_trace: bool,
) -> Result<bool, String> {
    let mut within_bounds = true;
    let mut recorded = Vec::new();
    for &workload in selected {
        // values[set][metric] = one value per seed
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        let mut digests = Vec::new();
        // Seed by seed, one run for each set in turn: the runs a gap is
        // taken between are seconds apart, not a set apart, so the box
        // drifting over minutes does not read as a gap.
        for run in 0..RUNS_PER_SET {
            for (set, set_values) in values.iter_mut().enumerate() {
                let args = RunArgs {
                    workload,
                    seed: seed + run,
                    seconds,
                    reps: None,
                    trace: false,
                };
                let result = run_child(&args)?;
                within_bounds &= result.correct;
                for (slot, def) in set_values.iter_mut().zip(&END_TO_END) {
                    let value = result.values.iter().find(|(name, _)| name == def.name);
                    slot.push(
                        value
                            .ok_or_else(|| format!("child omitted {}", def.name))?
                            .1,
                    );
                }
                if set == 0 {
                    digests.push(object(vec![
                        ("seed", Value::U64(args.seed)),
                        ("digest", text(result.digest)),
                    ]));
                }
            }
        }
        let per_layer = if no_trace {
            Value::Null
        } else {
            let args = RunArgs {
                workload,
                seed,
                seconds,
                reps: None,
                trace: true,
            };
            let result = run_child(&args)?;
            within_bounds &= result.correct;
            Value::Array(
                result
                    .values
                    .iter()
                    .map(|(name, value)| {
                        object(vec![
                            ("name", text(name.as_str())),
                            ("value", Value::F64(*value)),
                        ])
                    })
                    .collect(),
            )
        };

        println!(
            "== {} ({sets} sets of {RUNS_PER_SET} runs, seeds {seed}..) ==",
            workload.name
        );
        let mut end_to_end = Vec::new();
        for (index, def) in END_TO_END.iter().enumerate() {
            let spread_bound = def.bound.expect("end-to-end metrics have bounds");
            let gap_bound = set_bound(workload, def);
            let medians: Vec<f64> = values.iter().map(|set| median(&set[index])).collect();
            let spreads: Vec<f64> = values.iter().map(|set| iqr_share(&set[index])).collect();
            // Seed by seed, first set against last.
            let worsenings: Vec<f64> = values[0][index]
                .iter()
                .zip(&values[sets - 1][index])
                .map(|(first, last)| worsening(def.better, *first, *last))
                .collect();
            let gap = if gap_bound == 0.0 {
                // Must agree exactly: any seed that moved, either way, counts.
                worsenings.iter().map(|w| w.abs()).fold(0.0, f64::max)
            } else {
                median(&worsenings)
            };
            let worst_spread = spreads.iter().copied().fold(0.0, f64::max);
            // Set-up time is judged on its medians only.
            let spread_ok = def.name == "setup_s" || worst_spread <= spread_bound;
            let ok = spread_ok && gap <= gap_bound;
            within_bounds &= ok;
            println!(
                "  {:<16} {:<6} medians {:?}  gap {:+.2}% (bound {:.0}%)  spreads {:?}% (bound {:.0}%)  {}",
                def.name,
                def.unit,
                medians,
                gap * 100.0,
                gap_bound * 100.0,
                spreads
                    .iter()
                    .map(|s| (s * 1e4).round() / 100.0)
                    .collect::<Vec<_>>(),
                spread_bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
            let (q1, _, q3) = quartiles(&values[0][index]);
            end_to_end.push(object(vec![
                ("name", text(def.name)),
                ("unit", text(def.unit)),
                ("bound", Value::F64(spread_bound)),
                ("set_bound", Value::F64(gap_bound)),
                (
                    "set_medians",
                    Value::Array(medians.into_iter().map(Value::F64).collect()),
                ),
                (
                    "set_spreads",
                    Value::Array(spreads.into_iter().map(Value::F64).collect()),
                ),
                ("gap", Value::F64(gap)),
                ("first_set_q1", Value::F64(q1)),
                ("first_set_q3", Value::F64(q3)),
            ]));
        }
        recorded.push(object(vec![
            ("name", text(workload.name)),
            ("digests", Value::Array(digests)),
            ("end_to_end", Value::Array(end_to_end)),
            ("per_layer", per_layer),
        ]));
    }
    write_file(
        &baseline_path(),
        &object(vec![
            (
                "command",
                text(format!("bench/run.sh --sets {sets} --seed {seed}")),
            ),
            ("run_seconds", Value::F64(seconds)),
            ("environment", environment()),
            ("workloads", Value::Array(recorded)),
        ]),
    )?;
    println!("recorded {}", baseline_path().display());
    Ok(within_bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn json_round_trips_through_the_vendored_codec() {
        let value = object(vec![("a", Value::F64(1.5)), ("b", text("x\"y"))]);
        let Json(back) = serde_json::from_str(&to_json(&value)).unwrap();
        assert_eq!(back, value);
    }
}
