//! Figure 16 (Appendix G.2): how close NILAS gets to the theoretical
//! empty-host optimum, and what each factor costs — warm-up (gradual
//! rollout), model accuracy and repredictions.
//!
//! The five arms (oracle steady-state baseline and NILAS, oracle cold
//! start, learned-model NILAS with and without repredictions) run as one
//! parallel [`lava_sim::suite::ExperimentSuite`]; they all describe the
//! identical workload, so one generated trace is shared, and the two
//! learned arms share one trained model.
//!
//! Usage: `repro fig16_ablation [--seed N] [--days N] [--threads N]`

use crate::{args::ExperimentArgs, harness::suite_from_specs};
use lava_core::time::Duration;
use lava_sched::Algorithm;
use lava_sim::experiment::{Experiment, PolicySpec, PredictorSpec};
use lava_sim::validation::trace_utilization;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let pool = PoolConfig {
        hosts: args.hosts.unwrap_or(100),
        duration: args.duration,
        seed: args.seed + 37,
        ..PoolConfig::default()
    };

    let arm = |name: &str, predictor: PredictorSpec, policy: PolicySpec| {
        Experiment::builder()
            .name(name)
            .workload(pool.clone())
            .predictor(predictor)
            .policy(policy)
    };
    let oracle_baseline = arm(
        "fig16-oracle-steady",
        PredictorSpec::Oracle,
        PolicySpec::new(Algorithm::Baseline),
    );
    let oracle_nilas = arm(
        "fig16-oracle-steady",
        PredictorSpec::Oracle,
        PolicySpec::new(Algorithm::Nilas),
    );
    let cold = arm(
        "fig16-nilas-oracle-ideal",
        PredictorSpec::Oracle,
        PolicySpec::new(Algorithm::Nilas),
    )
    .warmup(Duration::ZERO);
    let learned = arm(
        "fig16-learned",
        PredictorSpec::Learned,
        PolicySpec::new(Algorithm::Nilas),
    );
    let learned_no_repredict = arm(
        "fig16-learned",
        PredictorSpec::Learned,
        PolicySpec::new(Algorithm::Nilas)
            .without_reprediction()
            .labeled("nilas-no-reprediction"),
    );

    let suite = suite_from_specs(
        [
            oracle_baseline,
            oracle_nilas,
            cold,
            learned,
            learned_no_repredict,
        ]
        .map(|builder| builder.build().expect("valid spec")),
        args,
    );
    let reports = suite.run();
    let [baseline, nilas_oracle, nilas_oracle_ideal, nilas_learned, nilas_no_repredict] =
        &reports[..]
    else {
        unreachable!("the suite has five arms");
    };

    // Theoretical optimum: at each sample time, the minimum number of hosts
    // able to hold the trace-implied utilisation; the rest could be empty.
    // The suite's first arm memoised the shared trace during its run.
    let trace = suite.experiments()[0].trace();
    let times: Vec<_> = (0..(args.duration.as_days() as u64 * 24))
        .map(|h| lava_core::time::SimTime(h * 3600))
        .collect();
    let utilisation = trace_utilization(trace, &times, pool.total_cpu_milli());
    let optimal_empty: f64 = utilisation
        .iter()
        .map(|u| 1.0 - (u * pool.hosts as f64).ceil() / pool.hosts as f64)
        .sum::<f64>()
        / utilisation.len() as f64;

    println!("# Figure 16: NILAS ablation vs the theoretical empty-host optimum");
    println!("{:<40} {:>14}", "configuration", "empty hosts %");
    println!(
        "{:<40} {:>14.1}",
        "theoretical optimum",
        optimal_empty * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS oracle, ideal (cold start)",
        nilas_oracle_ideal.result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS oracle (with warm-up)",
        nilas_oracle.result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS learned model",
        nilas_learned.result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS model, no repredictions",
        nilas_no_repredict.result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "production baseline",
        baseline.result.mean_empty_host_fraction() * 100.0
    );
    println!();
    println!("# Paper: ideal NILAS with oracle lifetimes approaches the optimum; warm-up, model error and");
    println!("#        disabling repredictions each remove part of the gain (no-reprediction is markedly worse).");
    Ok(())
}
