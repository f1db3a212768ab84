//! Integration tests for the paper's qualitative claims about the
//! algorithms' behaviour on full traces (rather than unit-level scenarios),
//! driven through the declarative experiment API.

use lava::core::time::Duration;
use lava::sched::Algorithm;
use lava::sim::ab::paired_comparison;
use lava::sim::defrag::{DefragReport, EvacuationCollector};
use lava::sim::experiment::{Experiment, ExperimentBuilder, PredictorSpec};
use lava::sim::metrics::SimulationResult;
use lava::sim::suite::ExperimentSuite;
use lava::sim::workload::PoolConfig;

fn pool(seed: u64, hosts: usize, utilization: f64, days: u64) -> PoolConfig {
    PoolConfig {
        hosts,
        target_utilization: utilization,
        duration: Duration::from_days(days),
        seed,
        ..PoolConfig::default()
    }
}

/// An A/B split: the baseline (control) and `treatment` as two suite arms
/// replaying the same trace. Returns `(control, treatment)`.
fn ab(base: ExperimentBuilder, treatment: Algorithm) -> (SimulationResult, SimulationResult) {
    let arms = [Algorithm::Baseline, treatment].map(|algorithm| {
        base.clone()
            .algorithm(algorithm)
            .build()
            .expect("valid spec")
    });
    let [control, treated] = ExperimentSuite::from_specs(arms)
        .expect("valid specs")
        .run()
        .try_into()
        .expect("two arms");
    (control.result, treated.result)
}

#[test]
fn nilas_with_oracle_beats_the_baseline_on_a_churning_pool() {
    let (baseline, nilas) = ab(
        Experiment::builder().workload(pool(11, 60, 0.8, 10)),
        Algorithm::Nilas,
    );
    let ab = paired_comparison(
        &nilas.series.empty_host_series(),
        &baseline.series.empty_host_series(),
    );
    assert!(
        ab.mean_difference_pp > 0.0,
        "expected NILAS to free hosts vs baseline, got {:+.2} pp",
        ab.mean_difference_pp
    );
}

#[test]
fn lava_tolerates_low_accuracy_better_than_it_degrades() {
    // Appendix G.1: improvements persist across accuracy levels. At 60%
    // accuracy the lifetime-aware algorithms must not collapse below the
    // baseline by more than noise.
    let (baseline, lava) = ab(
        Experiment::builder()
            .workload(pool(13, 60, 0.8, 8))
            .predictor(PredictorSpec::Noisy {
                accuracy_pct: 60,
                bias_pct: 0,
            }),
        Algorithm::Lava,
    );
    assert!(
        lava.mean_empty_host_fraction() > baseline.mean_empty_host_fraction() - 0.02,
        "lava {} vs baseline {}",
        lava.mean_empty_host_fraction(),
        baseline.mean_empty_host_fraction()
    );
}

#[test]
fn lars_reduces_migrations_on_a_real_defrag_workload() {
    let experiment = Experiment::builder()
        .workload(pool(17, 48, 0.85, 6))
        .warmup(Duration::ZERO)
        .defrag_every(Duration::from_hours(4))
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let mut collector = EvacuationCollector::new(0.25, 3);
    experiment.run_with_observers(&mut [&mut collector]);
    let defrag = DefragReport::evaluate(collector.tasks(), 3, Duration::from_mins(20));
    assert!(defrag.drain_events > 0, "no defragmentation was triggered");
    assert_eq!(defrag.baseline.scheduled, defrag.lars.scheduled);
    assert!(
        defrag.lars.performed <= defrag.baseline.performed,
        "LARS performed more migrations ({} vs {})",
        defrag.lars.performed,
        defrag.baseline.performed
    );
}

#[test]
fn empty_host_and_packing_density_metrics_agree_on_the_winner() {
    // Appendix D: the bin-packing metrics are interchangeable. Whatever
    // algorithm wins on empty hosts must not lose on packing density.
    let (baseline, nilas) = ab(
        Experiment::builder().workload(pool(19, 60, 0.8, 8)),
        Algorithm::Nilas,
    );
    let empty_delta =
        nilas.series.mean_empty_host_fraction() - baseline.series.mean_empty_host_fraction();
    let density_delta =
        nilas.series.mean_packing_density() - baseline.series.mean_packing_density();
    if empty_delta > 0.005 {
        assert!(
            density_delta > -0.005,
            "empty hosts improved ({empty_delta:.4}) but packing density regressed ({density_delta:.4})"
        );
    }
}
