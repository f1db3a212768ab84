//! End-to-end guarantee behind `PredictorSpec::Learned` serving the
//! compiled engine: compiling the learned model changes *latency only*. A
//! full replay scheduled through `GbdtPredictor::compile()` must reproduce
//! the replay scheduled through the tree-walking `GbdtPredictor` it was
//! compiled from bit-for-bit — every placement, rejection and metric
//! sample — because the two engines return bit-identical predictions for
//! every (VM, uptime) the scheduler asks about.
//!
//! The tree walk is no longer reachable through an `ExperimentSpec`, so
//! this drives the public pieces directly: one trained model, one
//! generated trace, `Scheduler` + `drive` once per engine.

use lava::core::pool::{Pool, PoolId};
use lava::core::time::Duration;
use lava::model::gbdt::GbdtConfig;
use lava::model::predictor::LifetimePredictor;
use lava::sched::cluster::Cluster;
use lava::sched::scheduler::{Scheduler, SchedulerStats};
use lava::sched::Algorithm;
use lava::sim::experiment::{drive, train_gbdt_predictor, DriveTiming};
use lava::sim::metrics::MetricSeries;
use lava::sim::observer::MetricRecorder;
use lava::sim::trace::{Trace, TraceSource};
use lava::sim::workload::{PoolConfig, WorkloadGenerator};
use std::sync::Arc;

fn replay(
    workload: &PoolConfig,
    trace: &Trace,
    algorithm: Algorithm,
    predictor: Arc<dyn LifetimePredictor>,
) -> (SchedulerStats, u64, MetricSeries) {
    let pool = Pool::with_uniform_hosts(PoolId(0), workload.hosts, workload.host_spec());
    let mut scheduler = Scheduler::new(
        Cluster::new(pool),
        algorithm.build_policy(predictor.clone()),
        predictor,
    );
    let timing = DriveTiming {
        warmup: Duration::from_hours(6),
        warmup_with_baseline: false,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    };
    let mut metrics = MetricRecorder::new();
    let rejected = drive(
        &mut TraceSource::new(trace),
        &mut scheduler,
        None,
        &timing,
        &mut [&mut metrics],
    );
    (scheduler.stats(), rejected, metrics.into_series())
}

#[test]
fn learned_fast_replays_learned_bit_identically() {
    let workload = PoolConfig {
        hosts: 24,
        duration: Duration::from_days(2),
        seed: 21,
        ..PoolConfig::default()
    };
    let trace = WorkloadGenerator::new(workload.clone()).generate();
    let learned = train_gbdt_predictor(&workload, GbdtConfig::default());
    let fast = Arc::new(learned.compile());
    let learned = Arc::new(learned);
    // The engines are distinguishable by name...
    assert_eq!(learned.name(), "gbdt");
    assert_eq!(fast.name(), "gbdt-fast");

    for algorithm in [Algorithm::Nilas, Algorithm::Lava] {
        // ...and identical in every decision and metric.
        let (stats, rejected, series) = replay(&workload, &trace, algorithm, learned.clone());
        let (fast_stats, fast_rejected, fast_series) =
            replay(&workload, &trace, algorithm, fast.clone());
        assert!(stats.placed > 100, "{algorithm:?} placed {}", stats.placed);
        assert!(!series.is_empty());
        assert_eq!(stats, fast_stats, "{algorithm:?}: scheduler counters");
        assert_eq!(rejected, fast_rejected, "{algorithm:?}: rejections");
        assert_eq!(
            series.samples(),
            fast_series.samples(),
            "compiled predictor changed a {algorithm:?} run's metric samples"
        );
    }
}
