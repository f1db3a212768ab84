//! Capacity planning: how much stranding does each scheduling policy
//! leave behind, and how many more VMs would fit? Uses the paper's
//! inflation-simulation methodology (§2.3): each policy's run carries a
//! `StrandingProbe` observer. The arms come from an [`ExperimentSuite`],
//! so all four replay the identical shared trace.
//!
//! Run with: `cargo run --release --example capacity_planning`

use lava::sched::Algorithm;
use lava::sim::experiment::{Experiment, PredictorSpec};
use lava::sim::observer::StrandingProbe;
use lava::sim::stranding::InflationMix;
use lava::sim::suite::ExperimentSuite;
use lava::sim::workload::PoolConfig;

fn main() {
    let workload = PoolConfig {
        hosts: 80,
        target_utilization: 0.8,
        duration: lava::core::time::Duration::from_days(10),
        seed: 33,
        ..PoolConfig::default()
    };

    let algorithms = [
        Algorithm::Baseline,
        Algorithm::LaBinary,
        Algorithm::Nilas,
        Algorithm::Lava,
    ];
    // All arms share one generated trace (the suite links same-workload
    // arms automatically).
    let suite = ExperimentSuite::from_specs(algorithms.map(|algorithm| {
        Experiment::builder()
            .name(format!("capacity-planning-{algorithm}"))
            .workload(workload.clone())
            .predictor(PredictorSpec::Oracle)
            .algorithm(algorithm)
            .build()
            .expect("valid spec")
    }))
    .expect("valid specs");

    println!(
        "{:<10} {:>14} {:>16} {:>16}",
        "policy", "empty hosts", "stranded CPU", "stranded memory"
    );
    for (algorithm, arm) in algorithms.iter().zip(suite.experiments()) {
        // The probe runs the inflation pipeline every 24 samples and
        // averages the reports.
        let mut probe = StrandingProbe::new(24, InflationMix::default());
        let report = arm.run_with_observers(&mut [&mut probe]);
        let stranding = probe.average().expect("stranding measured");
        println!(
            "{:<10} {:>13.1}% {:>15.1}% {:>15.1}%",
            algorithm.to_string(),
            report.result.mean_empty_host_fraction() * 100.0,
            stranding.stranded_cpu_fraction * 100.0,
            stranding.stranded_memory_fraction * 100.0
        );
    }
    println!(
        "\nStranded resources are free capacity that no VM in the representative mix can use;"
    );
    println!(
        "the paper reports ~3% CPU and ~2% memory stranding reductions from NILAS in production."
    );
}
