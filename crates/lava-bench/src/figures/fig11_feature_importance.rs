//! Figure 11 (Appendix A): impact of model features on prediction accuracy,
//! using the GBDT split-score importance.
//!
//! Usage: `repro fig11_feature_importance [--seed N]`

use crate::args::ExperimentArgs;
use lava_model::features::FEATURE_NAMES;
use lava_model::gbdt::GbdtConfig;
use lava_sim::experiment::train_gbdt_predictor;
use lava_sim::workload::PoolConfig;

pub fn run(args: &ExperimentArgs) -> Result<(), String> {
    let pool = PoolConfig {
        initial_fill_fraction: 0.0,
        seed: args.seed + 41,
        ..PoolConfig::default()
    };
    let predictor = train_gbdt_predictor(&pool, GbdtConfig::default());
    let importance = predictor.model().feature_importance();
    let mut ranked: Vec<(&str, f64)> = FEATURE_NAMES.iter().copied().zip(importance).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    println!("# Figure 11: feature importance (normalised split score)");
    for (name, score) in ranked {
        println!(
            "{:<22} {:>7.3} {}",
            name,
            score,
            "#".repeat((score * 120.0) as usize)
        );
    }
    println!();
    println!("# Paper: admission policy, host pool (zone) and VM shape are the most influential features.");
    Ok(())
}
