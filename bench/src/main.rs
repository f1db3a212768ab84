//! The repository's benchmark: five workloads driven through the public
//! entry points of `lava-{core,model,sched,sim,serve}`, end-to-end
//! metrics with tracing off and per-layer metrics from traced
//! repetitions. `README.md` beside the manifest has the full account.
//!
//! ```text
//! lava-perfbench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! lava-perfbench [--seed N] [--seconds S] [--reps R] [--workload W] [--no-trace]
//!                                                                every workload, untraced then traced
//! lava-perfbench --sets K [--seed N] [--seconds S] [--workload W] [--no-trace]
//!                                                                K sets of ten seeds; records baseline.json
//! lava-perfbench --list                                          workloads and metrics, with reasons
//! ```

#![warn(missing_docs)]

mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: lava-perfbench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--reps R] [--no-trace] [--sets K] [--list]";

#[derive(Default)]
struct Cli {
    workload: Option<&'static Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    no_trace: bool,
    sets: Option<usize>,
    list: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} takes a value"))?;
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot read `{value}`"))
    }
    let mut cli = Cli::default();
    let mut args = args;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = args.next().ok_or("--workload takes a name")?;
                let found = Workload::by_name(&name);
                cli.workload = Some(found.ok_or_else(|| format!("no workload named `{name}`"))?);
            }
            "--seed" => cli.seed = Some(number(&flag, args.next())?),
            "--seconds" => {
                let seconds: f64 = number(&flag, args.next())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match number::<u8>(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--reps" => cli.reps = Some(number::<usize>(&flag, args.next())?.max(1)),
            "--no-trace" => cli.no_trace = true,
            "--sets" => cli.sets = Some(number::<usize>(&flag, args.next())?.max(1)),
            "--list" => cli.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        report::list();
        return ExitCode::SUCCESS;
    }
    let seed = cli.seed.unwrap_or(11);
    let seconds = cli.seconds.unwrap_or(10.0);
    let selected: Vec<&'static Workload> = match cli.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };

    let outcome = match (cli.trace, cli.sets) {
        // One run of one workload: the benchmark contract's invocation.
        (Some(trace), _) => {
            let Some(workload) = cli.workload else {
                eprintln!("--trace needs --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            let args = RunArgs {
                workload,
                seed,
                seconds,
                reps: cli.reps,
                trace,
            };
            run::run(&args).map(|output| {
                println!("{}", output.contract_line());
                output.correct
            })
        }
        (None, Some(sets)) => report::run_sets(&selected, sets, seed, seconds, cli.no_trace),
        (None, None) => report::report_all(&selected, seed, seconds, cli.reps, cli.no_trace),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a correctness check failed or a metric left its bound (see above)");
            ExitCode::FAILURE
        }
        Err(problem) => {
            eprintln!("benchmark failed: {problem}");
            ExitCode::FAILURE
        }
    }
}
