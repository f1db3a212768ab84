//! Figure 16 (Appendix G.2): how close NILAS gets to the theoretical
//! empty-host optimum, and what each factor costs — warm-up (gradual
//! rollout), model accuracy and repredictions.
//!
//! The three experiments (oracle steady-state A/B, oracle cold start,
//! learned-model A/B) run as one parallel
//! [`lava_sim::suite::ExperimentSuite`]; they all describe the identical
//! workload, so one generated trace is shared, and the learned A/B's two
//! arms share one trained model.
//!
//! Usage: `cargo run --release -p lava-bench --bin fig16_ablation -- [--seed N] [--days N] [--threads N]`

use lava_bench::{suite_from_specs, ExperimentArgs};
use lava_sched::Algorithm;
use lava_sim::experiment::{Experiment, PolicySpec, PredictorSpec};
use lava_sim::validation::trace_utilization;
use lava_sim::workload::PoolConfig;

fn main() {
    let args = ExperimentArgs::from_env();
    let pool = PoolConfig {
        hosts: args.hosts.unwrap_or(100),
        duration: args.duration,
        seed: args.seed + 37,
        ..PoolConfig::default()
    };

    let oracle_steady = Experiment::builder()
        .name("fig16-oracle-steady")
        .workload(pool.clone())
        .ab_arms(vec![
            PolicySpec::new(Algorithm::Baseline),
            PolicySpec::new(Algorithm::Nilas),
        ])
        .build()
        .expect("valid spec");
    let cold = Experiment::builder()
        .name("fig16-nilas-oracle-ideal")
        .workload(pool.clone())
        .algorithm(Algorithm::Nilas)
        .cold_start()
        .build()
        .expect("valid spec");
    let learned = Experiment::builder()
        .name("fig16-learned")
        .workload(pool.clone())
        .predictor(PredictorSpec::Learned)
        .ab_arms(vec![
            PolicySpec::new(Algorithm::Nilas),
            PolicySpec::new(Algorithm::Nilas)
                .without_reprediction()
                .labeled("nilas-no-reprediction"),
        ])
        .build()
        .expect("valid spec");

    let suite = suite_from_specs([oracle_steady, cold, learned], &args);
    let reports = suite.run();
    let (oracle_steady_report, nilas_oracle_ideal, learned_report) =
        (&reports[0], &reports[1], &reports[2]);

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
        oracle_steady_report.arms[1]
            .result
            .mean_empty_host_fraction()
            * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS learned model",
        learned_report.arms[0].result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "NILAS model, no repredictions",
        learned_report.arms[1].result.mean_empty_host_fraction() * 100.0
    );
    println!(
        "{:<40} {:>14.1}",
        "production baseline",
        oracle_steady_report.arms[0]
            .result
            .mean_empty_host_fraction()
            * 100.0
    );
    println!();
    println!("# Paper: ideal NILAS with oracle lifetimes approaches the optimum; warm-up, model error and");
    println!("#        disabling repredictions each remove part of the gain (no-reprediction is markedly worse).");
}
