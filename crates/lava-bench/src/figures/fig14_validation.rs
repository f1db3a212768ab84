//! Figure 14 (Appendix F): simulator validation — simulated CPU utilisation
//! tracks the trace-implied utilisation closely.
//!
//! Usage: `repro fig14_validation [--seed N] [--days N] [--trace-out PATH] [--trace-in PATH]`

use crate::{args::ExperimentArgs, harness::apply_trace_io};
use lava_sched::Algorithm;
use lava_sim::experiment::Experiment;
use lava_sim::validation::validate;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let experiment = Experiment::builder()
        .name("fig14-validation")
        .workload(PoolConfig {
            hosts: args.hosts.unwrap_or(100),
            duration: args.duration,
            seed: args.seed + 19,
            ..PoolConfig::default()
        })
        .algorithm(Algorithm::Baseline)
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    apply_trace_io(args, &experiment)?;
    let trace = experiment.trace();
    let result = experiment.run().result;
    let report = validate(
        &result.series,
        trace,
        experiment.spec().workload.total_cpu_milli(),
    );

    println!("# Figure 14: simulator validation (simulated vs trace-implied CPU utilisation)");
    println!(
        "mean absolute error = {:.3}%   max = {:.3}%   rejected placements = {}",
        report.mean_absolute_error * 100.0,
        report.max_absolute_error * 100.0,
        result.rejected_vms
    );
    println!(
        "\n{:<10} {:>12} {:>14}",
        "day", "simulated", "trace-implied"
    );
    for (time, sim, implied) in report.points.iter().step_by(12) {
        println!(
            "{:<10.1} {:>11.1}% {:>13.1}%",
            time.as_days(),
            sim * 100.0,
            implied * 100.0
        );
    }
    println!();
    println!(
        "# Paper: simulated CPU utilisation within ~1.6% of production ground truth on average."
    );
    Ok(())
}
