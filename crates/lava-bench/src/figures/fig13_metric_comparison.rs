//! Figure 13 (Appendix D): the three bin-packing metrics (empty hosts,
//! empty-to-free ratio, packing density) move together — improvements are
//! reported relative to LA-Binary as in the paper.
//!
//! Usage: `repro fig13_metric_comparison [--seed N] [--days N] [--threads N]`

use crate::{args::ExperimentArgs, harness::suite_from_specs};
use lava_sched::Algorithm;
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    // LA-Binary is the reference (arm 0); NILAS and LAVA are treatments on
    // the same trace.
    let algorithms = [Algorithm::LaBinary, Algorithm::Nilas, Algorithm::Lava];
    let specs = algorithms.map(|algorithm| {
        Experiment::builder()
            .name("fig13-metric-comparison")
            .workload(PoolConfig {
                hosts: args.hosts.unwrap_or(100),
                duration: args.duration,
                seed: args.seed + 17,
                ..PoolConfig::default()
            })
            .algorithm(algorithm)
            .build()
            .expect("valid spec")
    });
    let reports = suite_from_specs(specs, args).run();
    let la = &reports[0].result;

    println!(
        "# Figure 13: relative improvement over LA-Binary for three equivalent bin-packing metrics"
    );
    println!(
        "{:<10} {:>16} {:>18} {:>18}",
        "algorithm", "empty hosts (pp)", "empty-to-free (pp)", "packing density (pp)"
    );
    for (algorithm, arm) in algorithms.iter().zip(&reports).skip(1) {
        let empty = (arm.result.series.mean_empty_host_fraction()
            - la.series.mean_empty_host_fraction())
            * 100.0;
        let etf = (arm.result.series.mean_empty_to_free() - la.series.mean_empty_to_free()) * 100.0;
        let density =
            (arm.result.series.mean_packing_density() - la.series.mean_packing_density()) * 100.0;
        println!(
            "{:<10} {:>16.2} {:>18.2} {:>18.2}",
            algorithm.to_string(),
            empty,
            etf,
            density
        );
    }
    println!();
    println!("# Paper: all three metrics are correlated; improving one improves the others.");
    Ok(())
}
