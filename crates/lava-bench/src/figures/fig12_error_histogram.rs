//! Figure 12 (Appendix C): histogram of the GBDT model's prediction error in
//! the log10 domain, recorded while running NILAS against a trace, with and
//! without repredictions.
//!
//! Usage: `repro fig12_error_histogram [--seed N] [--days N]`

use crate::args::ExperimentArgs;
use lava_model::metrics::Histogram;
use lava_sched::Algorithm;
use lava_sim::experiment::{Experiment, PredictorSpec};
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    // `record_predictions` wraps the learned predictor in the recording
    // layer for the whole run, so every scheduling-time prediction and
    // reprediction lands in the report with its ground truth.
    let report = Experiment::builder()
        .name("fig12-error-histogram")
        .workload(PoolConfig {
            hosts: args.hosts.unwrap_or(80),
            duration: args.duration,
            seed: args.seed + 3,
            ..PoolConfig::default()
        })
        .predictor(PredictorSpec::Learned)
        .algorithm(Algorithm::Nilas)
        .record_predictions(true)
        .run()
        .expect("valid spec");

    let records = &report.predictions;
    let mut all = Histogram::new(5.0, 20);
    let mut initial_only = Histogram::new(5.0, 20);
    for r in records {
        all.record(r.log10_error());
        if !r.is_reprediction() {
            initial_only.record(r.log10_error());
        }
    }

    println!(
        "# Figure 12: prediction error in the log10 domain ({} predictions recorded)",
        records.len()
    );
    println!(
        "{:<16} {:>16} {:>22}",
        "|log10 error| >=", "with repredictions", "initial predictions only"
    );
    for ((lower, with), (_, without)) in all.buckets().iter().zip(initial_only.buckets()) {
        let pct_with = 100.0 * *with as f64 / all.count().max(1) as f64;
        let pct_without = 100.0 * without as f64 / initial_only.count().max(1) as f64;
        if pct_with > 0.05 || pct_without > 0.05 {
            println!("{:<16.2} {:>15.1}% {:>21.1}%", lower, pct_with, pct_without);
        }
    }
    println!(
        "mean |log10 error|: with repredictions {:.3}, initial-only {:.3}",
        all.mean(),
        initial_only.mean()
    );
    println!();
    println!("# Paper: the error distribution including repredictions skews markedly toward lower errors than one-shot predictions.");
    Ok(())
}
