//! Defragmentation / maintenance: when empty hosts run low, hosts are
//! drained via live migration. LARS orders the migrations by predicted
//! remaining lifetime so short-lived VMs exit before their turn, saving
//! migrations (§4.4 / Table 2 of the paper). The study is one run with a
//! defrag-trigger cadence and an `EvacuationCollector` observer.
//!
//! Run with: `cargo run --release --example defrag_maintenance`

use lava::core::time::Duration;
use lava::sched::Algorithm;
use lava::sim::defrag::{DefragReport, EvacuationCollector};
use lava::sim::experiment::Experiment;
use lava::sim::workload::PoolConfig;

fn main() {
    // Replay the trace, record the drain events a defragmenter would
    // trigger every four hours, and evaluate both migration orderings
    // (production host-order vs LARS) on the recorded evacuation tasks.
    let experiment = Experiment::builder()
        .name("defrag-maintenance")
        .workload(PoolConfig {
            hosts: 80,
            target_utilization: 0.85,
            duration: Duration::from_days(10),
            seed: 21,
            ..PoolConfig::default()
        })
        .algorithm(Algorithm::Baseline)
        .warmup(Duration::ZERO)
        .defrag_every(Duration::from_hours(4))
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let mut collector = EvacuationCollector::new(0.2, 3);
    let report = experiment.run_with_observers(&mut [&mut collector]);

    println!(
        "replayed {} placements and recorded defragmentation drains...",
        report.result.scheduler_stats.placed
    );
    let defrag = DefragReport::evaluate(collector.tasks(), 3, Duration::from_mins(20));
    println!(
        "{} drain events covering {} VM evacuations",
        defrag.drain_events, defrag.evacuated_vms
    );
    println!(
        "baseline order: {} migrations performed, {} avoided",
        defrag.baseline.performed, defrag.baseline.avoided
    );
    println!(
        "LARS order:     {} migrations performed, {} avoided ({:.1}% fewer migrations)",
        defrag.lars.performed,
        defrag.lars.avoided,
        100.0 * defrag.reduction()
    );
}
