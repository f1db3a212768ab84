//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the LAVA paper.
//!
//! Each binary in `src/bin/` corresponds to one table or figure (see
//! `DESIGN.md` for the index) and prints its rows/series as plain text and
//! CSV-ish lines so results can be diffed across runs. The heavy lifting —
//! argument parsing, model training, running an algorithm sweep over a
//! pool — lives here so the binaries stay small and consistent.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod harness;

pub use args::ExperimentArgs;
pub use harness::{
    apply_trace_io, fleet_config, heterogeneous_overrides, improvement_pp, suite_from_specs,
    MostFreeFirstPolicy,
};
