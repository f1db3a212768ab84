//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the LAVA paper.
//!
//! Each binary in `src/bin/` corresponds to one table or figure (named
//! after it: `fig06_empty_hosts`, `table1_pilots`, …; the README's
//! "Reproducing paper figures" section lists the shared flags) and prints
//! its rows/series as plain text and CSV-ish lines so results can be
//! diffed across runs. The glue they share — argument parsing, fleet and
//! trace-file flags, suite construction, report formatting — lives here
//! so the binaries stay small and consistent. Throughput and latency are
//! measured by the repo benchmark under `bench/`, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod harness;

pub use args::ExperimentArgs;
pub use harness::{
    apply_trace_io, fleet_config, heterogeneous_overrides, improvement_pp, suite_from_specs,
};
