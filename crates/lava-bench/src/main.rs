//! `repro`: regenerates every table and figure of the LAVA paper.
//!
//! `repro list` prints the figure names; `repro <name> [flags]` runs one
//! with the flags [`args`] parses (from the repo root: `cargo run --release
//! -p lava-bench -- <name> [flags]`). Each figure is a module of [`figures`]
//! that prints its rows as plain text, so runs can be diffed. Exit codes:
//! 1 when a figure fails (an unreadable trace file, or a claim it checks
//! that does not hold), 2 on an unknown figure or flag.

#![warn(rust_2018_idioms)]

mod args;
mod harness;

/// One module per paper table or figure, each with a [`Figure`] `run`.
mod figures {
    pub mod chaos_suite;
    pub mod fig01_lifetime_cdf;
    pub mod fig02_conditional_lifetime;
    pub mod fig06_empty_hosts;
    pub mod fig07_causal_impact;
    pub mod fig08_model_latency;
    pub mod fig09_reprediction_f1;
    pub mod fig10_accuracy_decay;
    pub mod fig11_feature_importance;
    pub mod fig12_error_histogram;
    pub mod fig13_metric_comparison;
    pub mod fig14_validation;
    pub mod fig15_accuracy_tradeoff;
    pub mod fig16_ablation;
    pub mod fig17_cache_ablation;
    pub mod fleet_compare;
    pub mod table1_pilots;
    pub mod table2_lars;
    pub mod table4_model_comparison;
    pub mod theorem1_learning_gap;
}

use args::ExperimentArgs;
use figures::*;
use std::process::ExitCode;

/// Prints a figure's rows, or fails with the reason.
type Figure = fn(&ExperimentArgs) -> Result<(), String>;

const FIGURES: [(&str, Figure); 20] = [
    ("chaos_suite", chaos_suite::run),
    ("fig01_lifetime_cdf", fig01_lifetime_cdf::run),
    (
        "fig02_conditional_lifetime",
        fig02_conditional_lifetime::run,
    ),
    ("fig06_empty_hosts", fig06_empty_hosts::run),
    ("fig07_causal_impact", fig07_causal_impact::run),
    ("fig08_model_latency", fig08_model_latency::run),
    ("fig09_reprediction_f1", fig09_reprediction_f1::run),
    ("fig10_accuracy_decay", fig10_accuracy_decay::run),
    ("fig11_feature_importance", fig11_feature_importance::run),
    ("fig12_error_histogram", fig12_error_histogram::run),
    ("fig13_metric_comparison", fig13_metric_comparison::run),
    ("fig14_validation", fig14_validation::run),
    ("fig15_accuracy_tradeoff", fig15_accuracy_tradeoff::run),
    ("fig16_ablation", fig16_ablation::run),
    ("fig17_cache_ablation", fig17_cache_ablation::run),
    ("fleet_compare", fleet_compare::run),
    ("table1_pilots", table1_pilots::run),
    ("table2_lars", table2_lars::run),
    ("table4_model_comparison", table4_model_comparison::run),
    ("theorem1_learning_gap", theorem1_learning_gap::run),
];

const USAGE: &str = "usage: repro list
       repro <figure> [--quick | --full] [--pools N] [--days N] [--hosts N] [--seed N]
                      [--threads N] [--cells N] [--trace-in PATH] [--trace-out PATH] [--json PATH]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = argv.split_first() else {
        return usage_error("no figure named");
    };
    if name == "list" {
        if !flags.is_empty() {
            return usage_error("`list` takes no flags");
        }
        FIGURES.iter().for_each(|(name, _)| println!("{name}"));
        return ExitCode::SUCCESS;
    }
    let Some(&(_, figure)) = FIGURES.iter().find(|(known, _)| known == name) else {
        return usage_error(&format!("unknown figure {name} (`repro list` names them)"));
    };
    match ExperimentArgs::parse(flags).map(|args| figure(&args)) {
        Err(err) => usage_error(&err),
        Ok(Err(err)) => {
            eprintln!("{name}: {err}");
            ExitCode::FAILURE
        }
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("repro: {message}\n{USAGE}");
    ExitCode::from(2)
}
