//! Table 4 (Appendix B): comparison of lifetime model families — linear Cox,
//! stratified Kaplan-Meier, neural-network regression and GBDT regression —
//! on C-index and precision/recall/F1 at the 7-day threshold.
//!
//! Usage: `repro table4_model_comparison [--seed N]`

use crate::args::ExperimentArgs;
use lava_core::time::Duration;
use lava_model::dataset::DatasetBuilder;
use lava_model::gbdt::{GbdtConfig, GbdtRegressor};
use lava_model::metrics::{classify_at_threshold, concordance_index};
use lava_model::nn::{MlpConfig, MlpRegressor};
use lava_model::predictor::duration_from_log10;
use lava_model::survival::{CoxConfig, CoxModel, StratifiedKaplanMeier};
use lava_model::{LIFETIME_CAP, LONG_LIVED_THRESHOLD};
use lava_sim::experiment::Experiment;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let experiment = Experiment::builder()
        .name("table4-model-comparison")
        .workload(PoolConfig {
            duration: Duration::from_days(7),
            initial_fill_fraction: 0.0,
            seed: args.seed + 101,
            ..PoolConfig::default()
        })
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let trace = experiment.trace();
    let mut builder = DatasetBuilder::new();
    builder.extend(trace.observations());
    let dataset = builder.build();
    let (train, test) = dataset.split(0.8, args.seed);
    let train_rows = train.feature_rows();
    let train_labels = train.labels();
    let train_lifetimes: Vec<Duration> = train.examples.iter().map(|e| e.remaining).collect();

    println!(
        "# Table 4: comparison of lifetime models ({} train / {} test examples)",
        train.len(),
        test.len()
    );
    println!(
        "{:<34} {:>8} {:>10} {:>8} {:>8}",
        "model", "C-index", "precision", "recall", "F1"
    );

    // Linear Cox proportional hazards.
    let cox = CoxModel::fit(CoxConfig::default(), &train_rows, &train_lifetimes);
    report_risk_model("Linear Cox (survival)", &test, |features| {
        cox.risk_score(features)
    });

    // Stratified Kaplan-Meier keyed by the category feature (index 1).
    let km = StratifiedKaplanMeier::fit(
        train
            .examples
            .iter()
            .map(|e| (e.features[1] as u64, e.remaining, true)),
    );
    report_duration_model("Stratified KM (survival)", &test, |features, _uptime| {
        km.expected_remaining(features[1] as u64, Duration::ZERO)
    });

    // Neural-network regression on log10 remaining lifetime.
    let mlp = MlpRegressor::fit(MlpConfig::default(), &train_rows, &train_labels);
    report_duration_model("Neural Network (regression)", &test, |features, _| {
        duration_from_log10(mlp.predict(features), LIFETIME_CAP)
    });

    // GBDT regression (the production model).
    let gbdt = GbdtRegressor::fit(GbdtConfig::default(), &train_rows, &train_labels);
    report_duration_model("GBDT (regression, production)", &test, |features, _| {
        duration_from_log10(gbdt.predict(features), LIFETIME_CAP)
    });

    println!();
    println!("# Paper: Linear Cox C=0.52 P=0.97 R=0.64; Stratified KM C=0.73 P/R=0.38;");
    println!("#        NN C=0.73 P=0.99 R=0.58; GBDT C=0.84 P=0.99 R=0.70 F1=0.8 (best).");
    Ok(())
}

fn report_risk_model(
    name: &str,
    test: &lava_model::dataset::Dataset,
    risk: impl Fn(&[f64]) -> f64,
) {
    let risks: Vec<f64> = test.examples.iter().map(|e| risk(&e.features)).collect();
    let lifetimes: Vec<Duration> = test.examples.iter().map(|e| e.remaining).collect();
    let c = concordance_index(&risks, &lifetimes);
    // A pure risk score has no calibrated lifetime; classify by thresholding
    // the risk at the value that matches the train-set positive rate.
    let mut sorted = risks.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let positive_rate = test
        .examples
        .iter()
        .filter(|e| e.total_lifetime > LONG_LIVED_THRESHOLD)
        .count() as f64
        / test.len() as f64;
    let cut = sorted
        [(((1.0 - positive_rate) * (sorted.len() - 1) as f64) as usize).min(sorted.len() - 1)];
    let pairs = test.examples.iter().zip(&risks).map(|(e, r)| {
        let predicted = if *r <= cut {
            LONG_LIVED_THRESHOLD + Duration::from_hours(1)
        } else {
            Duration::from_hours(1)
        };
        (e.uptime + predicted, e.total_lifetime)
    });
    let counts = classify_at_threshold(pairs, LONG_LIVED_THRESHOLD);
    println!(
        "{:<34} {:>8.2} {:>10.2} {:>8.2} {:>8.2}",
        name,
        c,
        counts.precision(),
        counts.recall(),
        counts.f1()
    );
}

fn report_duration_model(
    name: &str,
    test: &lava_model::dataset::Dataset,
    predict: impl Fn(&[f64], Duration) -> Duration,
) {
    let predictions: Vec<Duration> = test
        .examples
        .iter()
        .map(|e| predict(&e.features, e.uptime))
        .collect();
    let lifetimes: Vec<Duration> = test.examples.iter().map(|e| e.remaining).collect();
    let risks: Vec<f64> = predictions.iter().map(|p| -(p.as_secs() as f64)).collect();
    let c = concordance_index(&risks, &lifetimes);
    let pairs = test
        .examples
        .iter()
        .zip(&predictions)
        .map(|(e, p)| (e.uptime + *p, e.total_lifetime));
    let counts = classify_at_threshold(pairs, LONG_LIVED_THRESHOLD);
    println!(
        "{:<34} {:>8.2} {:>10.2} {:>8.2} {:>8.2}",
        name,
        c,
        counts.precision(),
        counts.recall(),
        counts.f1()
    );
}
