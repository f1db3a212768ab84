//! Table 2: VM live-migration reductions from LARS on two traces.
//!
//! Usage: `repro table2_lars [--days N] [--seed N]`

use crate::args::ExperimentArgs;
use lava_core::time::Duration;
use lava_sched::Algorithm;
use lava_sim::defrag::{DefragReport, EvacuationCollector};
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    println!("# Table 2: VM migration reductions using LARS (oracle lifetimes, 3 slots, 20-minute migrations)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "trace", "scheduled", "baseline", "lars", "reduction"
    );

    for (i, seed) in [args.seed + 11, args.seed + 23].iter().enumerate() {
        // The baseline places every VM from the start; drains are recorded
        // at each trigger and both migration orderings replayed on them.
        let experiment = Experiment::builder()
            .name(format!("table2-trace{}", i + 1))
            .workload(PoolConfig {
                hosts: args.hosts.unwrap_or(80),
                target_utilization: 0.85,
                duration: args.duration,
                seed: *seed,
                ..PoolConfig::default()
            })
            .algorithm(Algorithm::Baseline)
            .warmup(Duration::ZERO)
            .defrag_every(Duration::from_hours(6))
            .build()
            .and_then(Experiment::new)
            .expect("valid spec");
        let mut collector = EvacuationCollector::new(0.25, 10);
        experiment.run_with_observers(&mut [&mut collector]);
        let defrag = DefragReport::evaluate(collector.tasks(), 3, Duration::from_mins(20));
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>11.2}%",
            i + 1,
            defrag.baseline.scheduled,
            defrag.baseline.performed,
            defrag.lars.performed,
            100.0 * defrag.reduction()
        );
    }
    println!();
    println!("# Paper: trace 1: 48,239 scheduled, 37,108 baseline, 35,505 LARS (-4.32%);");
    println!("#        trace 2: 53,597 scheduled, 36,307 baseline, 34,655 LARS (-4.55%).");
    Ok(())
}
