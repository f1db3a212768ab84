//! Figure 9: model accuracy (F1 for the 168-hour long-lived classification)
//! as a function of the uptime quantile used for reprediction.
//!
//! Usage: `repro fig09_reprediction_f1 [--seed N]`

use crate::args::ExperimentArgs;
use lava_core::time::Duration;
use lava_model::gbdt::GbdtConfig;
use lava_model::metrics::classify_at_threshold;
use lava_model::LONG_LIVED_THRESHOLD;
use lava_sim::experiment::{train_gbdt_predictor, Experiment};
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let pool = PoolConfig {
        initial_fill_fraction: 0.0,
        seed: args.seed + 31,
        ..PoolConfig::default()
    };
    let predictor = train_gbdt_predictor(&pool, GbdtConfig::default());
    // Evaluate on an unseen trace: same workload, shifted seed.
    let test = Experiment::builder()
        .name("fig09-test-trace")
        .workload(PoolConfig {
            seed: args.seed + 77,
            ..pool
        })
        .build()
        .and_then(Experiment::new)
        .expect("valid spec");
    let observations = test.trace().observations();

    println!("# Figure 9: F1 of the 168h long-lived classification vs uptime quantile");
    println!("{:<10} {:>8}", "quantile", "F1");
    for q in 0..=19u32 {
        let fraction = q as f64 / 20.0;
        let pairs = observations.iter().map(|(spec, lifetime)| {
            let uptime = Duration::from_secs_f64(lifetime.as_secs() as f64 * fraction);
            let predicted_total = uptime + predictor.predict_spec(spec, uptime);
            (predicted_total, *lifetime)
        });
        let counts = classify_at_threshold(pairs, LONG_LIVED_THRESHOLD);
        println!(
            "{:<10} {:>8.3} {}",
            q,
            counts.f1(),
            "#".repeat((counts.f1() * 60.0) as usize)
        );
    }
    println!();
    println!("# Paper: F1 ~0.8 without uptime (quantile 0), dips slightly for tiny uptimes, rises above 0.9 from ~quantile 8.");
    Ok(())
}
