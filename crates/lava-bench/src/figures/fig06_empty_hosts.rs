//! Figure 6: empty-host improvements of LA-Binary, NILAS and LAVA over the
//! production baseline across a fleet of pools, with both the learned model
//! and oracular lifetimes.
//!
//! The whole fleet runs as one [`lava_sim::suite::ExperimentSuite`]: one
//! arm per (pool, predictor, algorithm), fanned out across `--threads`
//! workers. Per-arm results are bit-identical to a serial run; same-pool
//! arms share one generated trace.
//!
//! Usage: `repro fig06_empty_hosts [--pools N] [--days N] [--threads N] [--full|--quick]`

use crate::args::ExperimentArgs;
use crate::harness::{improvement_pp, suite_from_specs};
use lava_sched::Algorithm;
use lava_sim::experiment::{Experiment, PredictorSpec};
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let mut pools = PoolConfig::fleet(args.pools);
    for (i, pool) in pools.iter_mut().enumerate() {
        pool.duration = args.duration;
        pool.seed = pool.seed.wrapping_add(args.seed);
        if let Some(hosts) = args.hosts {
            pool.hosts = hosts;
        }
        pool.pool_id = lava_core::pool::PoolId(i as u32);
    }
    let algorithms = [Algorithm::LaBinary, Algorithm::Nilas, Algorithm::Lava];
    let predictors = [PredictorSpec::Learned, PredictorSpec::Oracle];

    println!("# Figure 6: empty-host improvement over the production baseline (percentage points)");
    println!(
        "# pools={} days={:.0} hosts={:?} threads={}",
        pools.len(),
        args.duration.as_days(),
        args.hosts,
        args.threads
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "pool",
        "la-bin(model)",
        "nilas(model)",
        "lava(model)",
        "la-bin(oracle)",
        "nilas(oracle)",
        "lava(oracle)"
    );

    // One arm per (pool, predictor, algorithm), the baseline first in each
    // (pool, predictor) group. Suite arms over the same pool adopt each
    // other's trace, and those with the same predictor its model too.
    let mut specs = Vec::new();
    for pool in &pools {
        for predictor in predictors {
            for algorithm in [Algorithm::Baseline].into_iter().chain(algorithms) {
                let spec = Experiment::builder()
                    .name(format!(
                        "fig06-pool{}-{}",
                        pool.pool_id.0,
                        predictor.label()
                    ))
                    .workload(pool.clone())
                    .predictor(predictor)
                    .algorithm(algorithm)
                    .build()
                    .expect("valid spec");
                specs.push(spec);
            }
        }
    }
    let reports = suite_from_specs(specs, args).run();

    let group = 1 + algorithms.len();
    let mut totals = vec![0.0f64; algorithms.len() * predictors.len()];
    for (pool, pool_reports) in pools.iter().zip(reports.chunks(group * predictors.len())) {
        let mut row = vec![];
        for arms in pool_reports.chunks(group) {
            let baseline = &arms[0].result;
            for arm in &arms[1..] {
                row.push(improvement_pp(&arm.result, baseline));
            }
        }
        for (i, v) in row.iter().enumerate() {
            totals[i] += v;
        }
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            format!("pool-{}", pool.pool_id.0),
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5]
        );
    }
    let n = pools.len() as f64;
    println!(
        "{:<10} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
        "AVERAGE",
        totals[0] / n,
        totals[1] / n,
        totals[2] / n,
        totals[3] / n,
        totals[4] / n,
        totals[5] / n
    );
    println!();
    println!(
        "# Paper (Fig. 6, 24 C2 pools): LA-Binary +5.0 pp, NILAS +6.1 pp, LAVA +6.5 pp (model);"
    );
    println!("#                              LA oracle +7.5 pp, NILAS oracle +9.5 pp.");
    Ok(())
}
