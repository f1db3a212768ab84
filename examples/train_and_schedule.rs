//! Train the GBDT lifetime model on "historical" traffic, then drive the
//! NILAS scheduler with it — the full production loop of the paper:
//! warehouse data -> model -> in-binary predictions -> repredictions.
//!
//! `PredictorSpec::Learned` encapsulates the training pipeline (a
//! historical trace derived deterministically from the workload seed) and
//! the experiment memoises the trained model, so the offline accuracy
//! check and the scheduling runs below share **one** training pass.
//!
//! Run with: `cargo run --release --example train_and_schedule`

use lava::core::time::SimTime;
use lava::core::vm::{Vm, VmId};
use lava::model::metrics::classify_at_threshold;
use lava::model::LONG_LIVED_THRESHOLD;
use lava::sched::Algorithm;
use lava::sim::experiment::{Experiment, PredictorSpec};
use lava::sim::suite::ExperimentSuite;
use lava::sim::workload::PoolConfig;

fn main() {
    let live_workload = PoolConfig {
        hosts: 80,
        seed: 9,
        ..PoolConfig::default()
    };

    // 1. One suite: learned predictor, baseline (control) vs NILAS as arms
    //    on the same live trace. The arms share one predictor cell, so
    //    `predictor()` trains the GBDT once and `run()` below reuses it.
    let suite =
        ExperimentSuite::from_specs([Algorithm::Baseline, Algorithm::Nilas].map(|algorithm| {
            Experiment::builder()
                .name("train-and-schedule")
                .workload(live_workload.clone())
                .predictor(PredictorSpec::Learned)
                .algorithm(algorithm)
                .build()
                .expect("valid spec")
        }))
        .expect("valid spec");
    let predictor = suite.experiments()[0].predictor();
    println!(
        "trained the {} predictor on a historical trace derived from seed {}",
        predictor.name(),
        live_workload.seed
    );

    // 2. Offline accuracy, as the paper reports it: precision/recall at the
    //    7-day long-lived threshold on unseen traffic (scheduling-time
    //    predictions, i.e. uptime zero).
    let eval = Experiment::builder()
        .name("train-and-schedule-eval")
        .workload(PoolConfig {
            seed: 8,
            ..live_workload
        })
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let counts = classify_at_threshold(
        eval.trace().observations().iter().map(|(spec, lifetime)| {
            let vm = Vm::new(VmId(0), spec.clone(), SimTime::ZERO, *lifetime);
            (predictor.predict_at_creation(&vm), *lifetime)
        }),
        LONG_LIVED_THRESHOLD,
    );
    println!(
        "model quality at 7-day threshold: precision {:.2}, recall {:.2}, F1 {:.2}",
        counts.precision(),
        counts.recall(),
        counts.f1()
    );

    // 3. Drive the scheduler with the learned model on live traffic.
    let reports = suite.run();
    let baseline = &reports[0].result;
    let nilas = &reports[1].result;
    println!(
        "baseline empty hosts {:.1}% -> NILAS with learned model {:.1}% ({:+.2} pp)",
        baseline.mean_empty_host_fraction() * 100.0,
        nilas.mean_empty_host_fraction() * 100.0,
        (nilas.mean_empty_host_fraction() - baseline.mean_empty_host_fraction()) * 100.0
    );
}
