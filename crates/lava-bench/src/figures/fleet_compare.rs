//! Fleet comparison: routers × {NILAS, LAVA} on a sharded, heterogeneous
//! fleet.
//!
//! The single-cluster figures evaluate the per-cell allocator; this figure
//! evaluates the **fleet tier** above it — the same workload routed into
//! many heterogeneous cells by each `RouterSpec`, under both NILAS and
//! LAVA per-cell policies. Reported per combination: fleet-wide mean
//! empty-host %, rejected creations, and the spread of per-cell empty-host
//! fractions (a router that herds load strands some cells and overloads
//! others; the spread makes that visible).
//!
//! The fleet is heterogeneous by construction: every fourth cell gets a
//! bigger SKU shape and every third cell a larger host count, mirroring
//! the mixed-generation cells of a real fleet.
//!
//! Usage: `repro fleet_compare [--cells N] [--hosts N] [--days N] [--seed N] [--threads N]
//! [--full|--quick]`
//!
//! `--cells` defaults to 8 here (a 1-cell fleet makes every router
//! identical); the sweep covers every router.

use crate::{args::ExperimentArgs, harness::heterogeneous_overrides};
use lava_core::time::Duration;
use lava_sched::Algorithm;
use lava_sim::experiment::Experiment;
use lava_sim::fleet::{FleetConfig, RouterSpec};
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    // A router comparison on 1 cell is meaningless, so an unset --cells
    // defaults to 8 here.
    let cells = if args.cells > 1 { args.cells } else { 8 };
    let base_fleet = FleetConfig::new(cells).with_threads(args.threads);
    let hosts = args.hosts.unwrap_or(1024).max(cells);
    let duration = if args.full {
        args.duration
    } else {
        args.duration.min(Duration::from_days(4))
    };
    let workload = PoolConfig {
        hosts,
        duration,
        seed: args.seed,
        ..PoolConfig::default()
    };
    // The mixed-generation fleet shape (`harness::heterogeneous_overrides`).
    let heterogeneity = |config: FleetConfig| {
        heterogeneous_overrides(cells, hosts)
            .into_iter()
            .fold(config, FleetConfig::with_override)
    };

    println!("# Fleet comparison: router x policy on {cells} heterogeneous cells");
    println!(
        "# hosts={hosts} days={:.0} seed={} threads={} (fleet summaries refresh every 15 min)",
        duration.as_days(),
        args.seed,
        args.threads
    );
    println!(
        "{:<16} {:<8} {:>14} {:>10} {:>22}",
        "router", "policy", "empty-hosts %", "rejected", "cell spread (min..max)"
    );

    for router in RouterSpec::ALL {
        for algorithm in [Algorithm::Nilas, Algorithm::Lava] {
            let spec = Experiment::builder()
                .name(format!("fleet-{router}-{algorithm}"))
                .workload(workload.clone())
                .algorithm(algorithm)
                .fleet(heterogeneity(base_fleet.clone()).with_router(router))
                .build()
                .expect("valid fleet spec");
            let report = Experiment::new(spec).expect("valid").run();
            let fleet = report.fleet.expect("fleet report");
            let cell_means: Vec<f64> = fleet
                .cells
                .iter()
                .map(|c| c.result.mean_empty_host_fraction())
                .collect();
            let min = cell_means.iter().copied().fold(f64::INFINITY, f64::min);
            let max = cell_means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<16} {:<8} {:>14.2} {:>10} {:>22}",
                router.to_string(),
                algorithm.to_string(),
                fleet.fleet.mean_empty_host_fraction() * 100.0,
                fleet.total_rejected(),
                format!("{:.2}..{:.2} pp", min * 100.0, max * 100.0)
            );
        }
    }
    println!();
    println!("# Routers read bounded-staleness cell summaries (15-min refresh), never live state;");
    println!("# lifetime-aware routing extends NILAS's exit-time packing to fleet granularity.");
    Ok(())
}
