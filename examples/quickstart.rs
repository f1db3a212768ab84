//! Quickstart for the declarative experiment API: describe a small pool
//! with [`ExperimentSpec`], run the production baseline against NILAS and
//! LAVA as arms of one [`ExperimentSuite`] over the same workload, and read
//! the results off the reports.
//!
//! The spec is plain data — the example also prints the control arm's spec
//! as JSON, which can be stored and replayed later to reproduce the exact
//! same results (`ExperimentSpec::from_json(...)` → `Experiment::run()`).
//!
//! Run with: `cargo run --release --example quickstart`

use lava::sched::Algorithm;
use lava::sim::experiment::{Experiment, ExperimentSpec, PredictorSpec};
use lava::sim::suite::ExperimentSuite;

fn main() {
    // A 60-host pool with ten days of synthetic production-like traffic.
    // Oracle lifetimes keep the quickstart free of model training; swap in
    // `PredictorSpec::Learned` for the full production loop.
    let arm = |algorithm| {
        Experiment::builder()
            .name("quickstart")
            .hosts(60)
            .duration(lava::core::time::Duration::from_days(10))
            .seed(42)
            .predictor(PredictorSpec::Oracle)
            .algorithm(algorithm)
            .build()
            .expect("valid spec")
    };
    let specs: [ExperimentSpec; 3] =
        [Algorithm::Baseline, Algorithm::Nilas, Algorithm::Lava].map(arm);
    println!("spec as JSON (replayable with ExperimentSpec::from_json):");
    println!("{}\n", specs[0].to_json().expect("spec serializes"));

    // The arms describe one workload, so the suite generates its trace once.
    let suite = ExperimentSuite::from_specs(specs).expect("validated above");
    let control = &suite.experiments()[0];
    println!(
        "generated {} VMs over {:.0} days on {} hosts",
        control.trace().vm_count(),
        control.spec().workload.duration.as_days(),
        control.spec().workload.hosts
    );

    for (arm, report) in suite.experiments().iter().zip(suite.run()) {
        println!(
            "{:<10} avg empty hosts = {:5.1}%   placements = {}   rejected = {}",
            arm.spec().policy.display_name(),
            report.result.mean_empty_host_fraction() * 100.0,
            report.result.scheduler_stats.placed,
            report.result.rejected_vms
        );
    }
    println!("\nEmpty hosts are the paper's headline metric: every extra percentage point");
    println!(
        "is roughly 1% of the pool's capacity freed for large VMs, maintenance or power savings."
    );
}
