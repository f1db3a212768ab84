//! Figure 15 (Appendix G.1): empty-host improvement of NILAS and LAVA over
//! the baseline at different prediction-accuracy levels, using the noisy
//! oracle (sigma 0.001 for correct VMs, sigma 3 for mispredicted VMs).
//!
//! The accuracy sweep runs as one parallel
//! [`lava_sim::suite::ExperimentSuite`]; every level replays the identical
//! workload, so all arms share one generated trace, and the three
//! algorithms at one level share its noisy predictor.
//!
//! Usage: `repro fig15_accuracy_tradeoff [--seed N] [--days N] [--threads N]`

use crate::args::ExperimentArgs;
use crate::harness::{improvement_pp, suite_from_specs};
use lava_sched::Algorithm;
use lava_sim::experiment::{Experiment, PredictorSpec};
use lava_sim::workload::PoolConfig;

const ACCURACY_LEVELS: [u8; 8] = [50, 60, 70, 80, 90, 95, 99, 100];

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let pool = PoolConfig {
        hosts: args.hosts.unwrap_or(100),
        duration: args.duration,
        seed: args.seed + 29,
        ..PoolConfig::default()
    };

    println!("# Figure 15: empty-host improvement (pp over baseline) vs prediction accuracy");
    println!("{:<10} {:>10} {:>10}", "accuracy", "nilas", "lava");
    let algorithms = [Algorithm::Baseline, Algorithm::Nilas, Algorithm::Lava];
    let specs = ACCURACY_LEVELS.iter().flat_map(|&accuracy_pct| {
        let pool = &pool;
        algorithms.map(move |algorithm| {
            Experiment::builder()
                .name(format!("fig15-accuracy-{accuracy_pct}"))
                .workload(pool.clone())
                .predictor(PredictorSpec::Noisy {
                    accuracy_pct,
                    bias_pct: 0,
                })
                .algorithm(algorithm)
                .build()
                .expect("valid spec")
        })
    });
    let reports = suite_from_specs(specs, args).run();
    for (accuracy_pct, arms) in ACCURACY_LEVELS.iter().zip(reports.chunks(algorithms.len())) {
        let baseline = &arms[0].result;
        println!(
            "{:<10} {:>10.2} {:>10.2}",
            format!("{}%", accuracy_pct),
            improvement_pp(&arms[1].result, baseline),
            improvement_pp(&arms[2].result, baseline)
        );
    }
    println!();
    println!("# Paper: improvements persist across accuracy levels; LAVA tolerates high misprediction rates better than NILAS.");
    Ok(())
}
