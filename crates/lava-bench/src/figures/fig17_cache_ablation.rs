//! Figure 17 (Appendix G.3): effect of caching host lifetime scores.
//! Compares NILAS with no cache, a 1-minute refresh and a 15-minute refresh
//! on both packing quality and scheduler runtime.
//!
//! Each cache setting runs its pools as one parallel
//! [`lava_sim::suite::ExperimentSuite`] (the runtime column is the wall
//! clock of that suite — comparable across settings at a fixed
//! `--threads`); all settings replay identical pre-generated traces.
//!
//! Fails (`repro` exits 1) unless each cached row's mean empty-host share
//! is within 0.5 percentage points below the no-cache row's or above it
//! (the paper's claim: caching does not hurt packing). The runtime column
//! is not checked.
//!
//! Usage: `repro fig17_cache_ablation [--seed N] [--days N] [--pools N] [--threads N]`

use crate::args::ExperimentArgs;
use lava_sched::Algorithm;
use lava_sim::experiment::{CachePolicy, Experiment, PolicySpec};
use lava_sim::suite::ExperimentSuite;
use lava_sim::workload::PoolConfig;
use std::time::Instant;

/// How far below the no-cache row a cached row's mean empty-host share may
/// fall, in percentage points.
const TOLERANCE_PP: f64 = 0.5;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let settings: [(&str, CachePolicy); 3] = [
        ("no cache", CachePolicy::RefreshSecs(0)),
        ("1 min refresh", CachePolicy::RefreshSecs(60)),
        ("15 min refresh", CachePolicy::RefreshSecs(15 * 60)),
    ];
    println!("# Figure 17: effect of caching repredictions (NILAS, oracle lifetimes)");
    println!(
        "{:<16} {:>18} {:>16}",
        "cache setting", "empty hosts (avg %)", "runtime (s)"
    );

    let pools: Vec<PoolConfig> = (0..args.pools.min(6))
        .map(|i| PoolConfig {
            hosts: args.hosts.unwrap_or(80),
            duration: args.duration,
            seed: args.seed + 50 + i as u64,
            ..PoolConfig::default()
        })
        .collect();
    // Pre-generate every pool's trace once (outside the timed loops) so the
    // runtime column measures only the scheduler, and all cache settings
    // replay identical traffic. The donors are kept around so each timed
    // suite adopts their memoised traces.
    let donors: Vec<Experiment> = pools
        .iter()
        .map(|pool| {
            let donor = Experiment::new(
                Experiment::builder()
                    .name("fig17-trace")
                    .workload(pool.clone())
                    .build()
                    .expect("valid spec"),
            )
            .expect("valid spec");
            let _ = donor.trace();
            donor
        })
        .collect();

    let mut empty_pct = Vec::new();
    for (label, cache) in settings {
        let specs = pools.iter().map(|pool| {
            Experiment::builder()
                .name(format!("fig17-{label}"))
                .workload(pool.clone())
                .policy(
                    PolicySpec::new(Algorithm::Nilas)
                        .with_cache(cache)
                        .labeled(format!("nilas[{label}]")),
                )
                .build()
                .expect("valid spec")
        });
        let mut suite = ExperimentSuite::new().with_threads(args.threads);
        for (spec, donor) in specs.zip(&donors) {
            let mut experiment = Experiment::new(spec).expect("valid spec");
            experiment.share_artifacts_from(donor);
            suite.push(experiment);
        }
        let started = Instant::now();
        let reports = suite.run();
        let elapsed = started.elapsed().as_secs_f64();
        let total_empty: f64 = reports
            .iter()
            .map(|r| r.result.mean_empty_host_fraction())
            .sum();
        let mean_pct = 100.0 * total_empty / pools.len() as f64;
        println!("{label:<16} {mean_pct:>18.2} {elapsed:>16.2}");
        empty_pct.push(mean_pct);
    }
    println!();
    println!("# Paper: caching does not hurt packing quality (it can even help slightly) while removing the re-scoring bottleneck.");
    let no_cache = empty_pct[0];
    for ((label, _), &cached) in settings.iter().zip(&empty_pct).skip(1) {
        if cached < no_cache - TOLERANCE_PP {
            return Err(format!(
                "`{label}` averages {cached:.2} % empty hosts, more than \
                 {TOLERANCE_PP} pp below the no-cache row's {no_cache:.2} %"
            ));
        }
    }
    Ok(())
}
