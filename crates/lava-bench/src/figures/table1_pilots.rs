//! Table 1: NILAS empty-host improvements in pilot pools — A/B experiments
//! plus whole-pool pre/post (CausalImpact-style) pilots for C2 and E2.
//!
//! All five pilots run as two arms each (A/B: baseline and NILAS;
//! whole-pool: the rollout and its baseline control) in one parallel
//! [`lava_sim::suite::ExperimentSuite`] fanned out across `--threads`
//! workers; per-pilot results are bit-identical to a serial run.
//!
//! Usage: `repro table1_pilots [--days N] [--seed N] [--threads N]`

use crate::{args::ExperimentArgs, harness::suite_from_specs};
use lava_core::vm::VmFamily;
use lava_sched::Algorithm;
use lava_sim::ab::paired_comparison;
use lava_sim::causal::{pre_post_arms, pre_post_impact};
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    println!("# Table 1: NILAS empty-host improvements in pilot pools");
    println!(
        "{:<22} {:<6} {:>14} {:>22}",
        "pilot pool", "type", "change (pp)", "significance"
    );

    // A/B pilots: baseline and NILAS arms replay the same trace; their
    // post-warm-up series are compared with a paired test.
    let ab_pools = [
        ("C2 Wave 1 pool", 1u64, 100usize),
        ("C2 Wave 2 pool 1", 2, 140),
        ("C2 Wave 2 pool 2", 3, 80),
    ];
    // Whole-pool pilots: one arm whose policy switches from the baseline to
    // NILAS halfway through, and a baseline control arm on the same trace;
    // the causal analysis runs on the treated-minus-control difference.
    let prepost_pools = [
        ("C2 Wave 3 pool", VmFamily::C2, 7u64),
        ("E2 Wave 1 pool", VmFamily::E2, 8),
    ];

    let switch_at = lava_core::time::Duration::from_secs(args.duration.as_secs() / 2);
    let ab_algorithms = [Algorithm::Baseline, Algorithm::Nilas];
    let ab_specs = ab_pools.iter().flat_map(|(name, seed, hosts)| {
        ab_algorithms.map(|algorithm| {
            Experiment::builder()
                .name(format!("table1-ab-{name}"))
                .workload(PoolConfig {
                    hosts: *hosts,
                    duration: args.duration,
                    seed: args.seed + seed,
                    ..PoolConfig::default()
                })
                .algorithm(algorithm)
                .build()
                .expect("valid spec")
        })
    });
    let prepost_specs = prepost_pools.iter().flat_map(|(name, family, seed)| {
        let treated = Experiment::builder()
            .name(format!("table1-prepost-{name}"))
            .workload(PoolConfig {
                hosts: 120,
                family: *family,
                duration: args.duration,
                seed: args.seed + seed,
                ..PoolConfig::default()
            })
            .algorithm(Algorithm::Nilas)
            .warmup(switch_at)
            .build()
            .expect("valid spec");
        pre_post_arms(treated)
    });
    let reports = suite_from_specs(ab_specs.chain(prepost_specs), args).run();

    let (ab_reports, prepost_reports) = reports.split_at(ab_pools.len() * ab_algorithms.len());
    for ((name, _, _), arms) in ab_pools.iter().zip(ab_reports.chunks(ab_algorithms.len())) {
        let ab = paired_comparison(
            &arms[1].result.series.empty_host_series(),
            &arms[0].result.series.empty_host_series(),
        );
        println!(
            "{:<22} {:<6} {:>13.2}  {:>22}",
            name,
            "A/B",
            ab.mean_difference_pp,
            format!("p-value = {:.3}", ab.p_value)
        );
    }
    for ((name, _, _), arms) in prepost_pools.iter().zip(prepost_reports.chunks(2)) {
        let causal = pre_post_impact(
            &arms[0].result,
            &arms[1].result,
            lava_core::time::SimTime::ZERO + switch_at,
        );
        println!(
            "{:<22} {:<6} {:>13.2}  {:>22}",
            name,
            "All",
            causal.average_effect * 100.0,
            format!(
                "95% CI [{:.2}, {:.2}]",
                causal.ci_low * 100.0,
                causal.ci_high * 100.0
            )
        );
    }
    println!();
    println!("# Paper: +2.3 pp (p=0.01), +2.7 pp (p<0.01), +9.2 pp (p<0.01) A/B;");
    println!("#        C2 whole-pool +4.9 pp (95% CI [0.54, 9.2]); E2 whole-pool +6.1 pp (95% CI [1.9, 10.0]).");
    Ok(())
}
