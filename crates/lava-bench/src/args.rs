//! Minimal command-line argument parsing shared by the experiment binaries.
//!
//! Every binary accepts the same flags so that quick smoke runs and full
//! paper-scale sweeps use the same code path:
//!
//! * `--pools N` — number of synthetic pools to simulate (where relevant),
//! * `--days N` — trace duration in days,
//! * `--hosts N` — hosts per pool (overrides the fleet defaults),
//! * `--seed N` — base RNG seed,
//! * `--threads N` — worker threads for sweep suites and fleet cells
//!   (0 = one per CPU); per-arm and per-cell results are bit-identical at
//!   any thread count,
//! * `--cells N` — shard the pool into a fleet of N cells (default 1:
//!   the single-cluster engine; consumed through
//!   [`crate::harness::fleet_config`] by the fleet binaries — the
//!   single-cluster figure binaries parse but ignore it, like
//!   `--threads` on non-sweep binaries),
//! * `--router R` — the fleet routing policy
//!   (`hash|round-robin|least-loaded|lifetime-aware`; only meaningful with
//!   `--cells > 1`),
//! * `--trace-out PATH` / `--trace-in PATH` — persist or replay the
//!   experiment's workload trace (`.json` writes JSON, any other
//!   extension the compact binary format; reads sniff the format from the
//!   magic bytes; binary streams, JSON is held whole; a trace recorded for
//!   another pool id is refused) — see [`crate::harness::apply_trace_io`],
//! * `--full` — paper-scale settings (24 pools, 7-day traces),
//! * `--quick` — the smallest sensible settings (for CI smoke runs).

use lava_core::time::Duration;
use lava_sim::fleet::RouterSpec;

/// Parsed experiment arguments with scale-aware defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Number of pools to sweep.
    pub pools: usize,
    /// Trace duration.
    pub duration: Duration,
    /// Host-count override (None = use the fleet defaults).
    pub hosts: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for sweep suites and fleet cells (0 = one per
    /// available CPU). Results are bit-identical per arm and per cell
    /// regardless of the thread count.
    pub threads: usize,
    /// Fleet cell count (1 = single-cluster engine, the default — every
    /// figure binary behaves exactly as before the fleet tier).
    pub cells: usize,
    /// Fleet routing policy (only meaningful with `cells > 1`).
    pub router: RouterSpec,
    /// True when `--full` was passed.
    pub full: bool,
    /// Write the experiment's trace to this path after generating it
    /// (`.json` = JSON, anything else = compact binary).
    pub trace_out: Option<String>,
    /// Load the experiment's trace from this path instead of generating
    /// it (format sniffed from the `LVTR` magic, so either format works
    /// regardless of extension).
    pub trace_in: Option<String>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            pools: 6,
            duration: Duration::from_days(14),
            hosts: None,
            seed: 1,
            threads: 0,
            cells: 1,
            router: RouterSpec::default(),
            full: false,
            trace_out: None,
            trace_in: None,
        }
    }
}

impl ExperimentArgs {
    /// Parse from an iterator of argument strings (excluding the program
    /// name). Unknown flags are ignored so binaries can add their own.
    pub fn parse<I, S>(args: I) -> ExperimentArgs
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = ExperimentArgs::default();
        let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |idx: usize| args.get(idx + 1).cloned();
            match args[i].as_str() {
                "--pools" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.pools = v;
                    }
                    i += 1;
                }
                "--days" => {
                    if let Some(v) = value(i).and_then(|v| v.parse::<u64>().ok()) {
                        parsed.duration = Duration::from_days(v);
                    }
                    i += 1;
                }
                "--hosts" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.hosts = Some(v);
                    }
                    i += 1;
                }
                "--seed" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.seed = v;
                    }
                    i += 1;
                }
                "--threads" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.threads = v;
                    }
                    i += 1;
                }
                "--cells" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.cells = v;
                    }
                    i += 1;
                }
                "--router" => {
                    if let Some(v) = value(i).and_then(|v| v.parse().ok()) {
                        parsed.router = v;
                    }
                    i += 1;
                }
                "--trace-out" => {
                    parsed.trace_out = value(i);
                    i += 1;
                }
                "--trace-in" => {
                    parsed.trace_in = value(i);
                    i += 1;
                }
                "--full" => {
                    parsed.full = true;
                    parsed.pools = 24;
                    parsed.duration = Duration::from_days(7);
                }
                "--quick" => {
                    parsed.pools = 2;
                    parsed.duration = Duration::from_days(2);
                    parsed.hosts = Some(32);
                }
                _ => {}
            }
            i += 1;
        }
        parsed
    }

    /// Parse from the process environment (skipping the program name).
    pub fn from_env() -> ExperimentArgs {
        ExperimentArgs::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_flags() {
        let args = ExperimentArgs::parse(Vec::<String>::new());
        assert_eq!(args, ExperimentArgs::default());
        // The fleet flags default to the single-cluster engine, so every
        // pre-fleet binary invocation is unchanged.
        assert_eq!(args.cells, 1);
        assert_eq!(args.router, RouterSpec::Hash);
    }

    #[test]
    fn fleet_flags_parse_uniformly() {
        let args = ExperimentArgs::parse(["--cells", "16", "--router", "lifetime-aware"]);
        assert_eq!(args.cells, 16);
        assert_eq!(args.router, RouterSpec::LifetimeAware);
        // Malformed values keep the defaults.
        let bad = ExperimentArgs::parse(["--cells", "many", "--router", "quantum"]);
        assert_eq!(bad.cells, 1);
        assert_eq!(bad.router, RouterSpec::Hash);
    }

    #[test]
    fn parses_individual_flags() {
        let args = ExperimentArgs::parse([
            "--pools",
            "10",
            "--days",
            "3",
            "--seed",
            "7",
            "--hosts",
            "50",
            "--threads",
            "4",
        ]);
        assert_eq!(args.pools, 10);
        assert_eq!(args.duration, Duration::from_days(3));
        assert_eq!(args.seed, 7);
        assert_eq!(args.hosts, Some(50));
        assert_eq!(args.threads, 4);
    }

    #[test]
    fn full_and_quick_presets() {
        let full = ExperimentArgs::parse(["--full"]);
        assert_eq!(full.pools, 24);
        assert!(full.full);
        let quick = ExperimentArgs::parse(["--quick"]);
        assert_eq!(quick.pools, 2);
        assert_eq!(quick.hosts, Some(32));
    }

    #[test]
    fn trace_io_flags_parse() {
        let args = ExperimentArgs::parse(["--trace-out", "t.bin", "--trace-in", "t.json"]);
        assert_eq!(args.trace_out.as_deref(), Some("t.bin"));
        assert_eq!(args.trace_in.as_deref(), Some("t.json"));
        let none = ExperimentArgs::parse(Vec::<String>::new());
        assert_eq!(none.trace_out, None);
        assert_eq!(none.trace_in, None);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let args = ExperimentArgs::parse(["--frobnicate", "--pools", "4"]);
        assert_eq!(args.pools, 4);
    }

    #[test]
    fn malformed_values_fall_back_to_defaults() {
        let args = ExperimentArgs::parse(["--pools", "not-a-number"]);
        assert_eq!(args.pools, ExperimentArgs::default().pools);
        // `--hosts` too keeps what it had: here the `--quick` preset.
        let quick = ExperimentArgs::parse(["--quick", "--hosts", "abc"]);
        assert_eq!(quick.hosts, Some(32));
        assert_eq!(ExperimentArgs::parse(["--hosts", "abc"]).hosts, None);
    }
}
