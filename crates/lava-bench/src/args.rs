//! The one command-line parser every figure shares. Flags apply in order,
//! so a flag after a preset overrides it; an unknown flag, a flag without
//! its value or a value that does not parse is an error that names the
//! flag. Each field of [`ExperimentArgs`] documents its flag.

use lava_core::time::Duration;
use std::str::FromStr;

/// Parsed experiment arguments with scale-aware defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// `--pools N`: number of synthetic pools to sweep.
    pub pools: usize,
    /// `--days N`: trace duration.
    pub duration: Duration,
    /// `--hosts N`: hosts per pool (None = the figure's default).
    pub hosts: Option<usize>,
    /// `--seed N`: base RNG seed.
    pub seed: u64,
    /// `--threads N`: worker threads for sweep suites and fleet cells (0 =
    /// one per CPU); results are bit-identical at any thread count.
    pub threads: usize,
    /// `--cells N`: fleet cell count, read by `fleet_compare` and
    /// `chaos_suite --full`, which pick their own when it is left at 1.
    pub cells: usize,
    /// `--full`: paper-scale settings (24 pools, 7-day traces).
    pub full: bool,
    /// `--trace-out PATH`: write the experiment's trace here (`.json` =
    /// JSON, anything else = compact binary); see
    /// [`crate::harness::apply_trace_io`].
    pub trace_out: Option<String>,
    /// `--trace-in PATH`: replay this trace instead of generating one
    /// (format sniffed from the `LVTR` magic).
    pub trace_in: Option<String>,
    /// `--json PATH`: write the figure's measurements here as JSON
    /// (`chaos_suite`, `fig10_accuracy_decay`).
    pub json: Option<String>,
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
            full: false,
            trace_out: None,
            trace_in: None,
            json: None,
        }
    }
}

impl ExperimentArgs {
    /// Parse the flags that follow the figure name.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without its value, or a value that does not
    /// parse; the message names the flag.
    pub fn parse<I, S>(args: I) -> Result<ExperimentArgs, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = ExperimentArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_ref();
            let mut value = || {
                args.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--pools" => parsed.pools = number(flag, value()?)?,
                "--days" => parsed.duration = Duration::from_days(number(flag, value()?)?),
                "--hosts" => parsed.hosts = Some(number(flag, value()?)?),
                "--seed" => parsed.seed = number(flag, value()?)?,
                "--threads" => parsed.threads = number(flag, value()?)?,
                "--cells" => parsed.cells = number(flag, value()?)?,
                "--trace-out" => parsed.trace_out = Some(value()?),
                "--trace-in" => parsed.trace_in = Some(value()?),
                "--json" => parsed.json = Some(value()?),
                "--full" => {
                    parsed.full = true;
                    parsed.pools = 24;
                    parsed.duration = Duration::from_days(7);
                }
                // The smallest sensible settings: 4 days is past the
                // default 2-day warm-up, so every figure measures something.
                "--quick" => {
                    parsed.pools = 2;
                    parsed.duration = Duration::from_days(4);
                    parsed.hosts = Some(32);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(parsed)
    }
}

/// `value` parsed as the number `flag` takes.
fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_sim::experiment::Cadence;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse(args)
    }

    #[test]
    fn defaults_without_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, ExperimentArgs::default());
        // One cell: one pool under one scheduler, as in the paper.
        assert_eq!(args.cells, 1);
    }

    #[test]
    fn fleet_flags_parse_uniformly() {
        let args = parse(&["--cells", "16", "--threads", "2"]).unwrap();
        assert_eq!(args.cells, 16);
        assert_eq!(args.threads, 2);
        let err = parse(&["--cells", "many"]).unwrap_err();
        assert!(err.contains("--cells"), "{err}");
    }

    #[test]
    fn parses_individual_flags() {
        let args = parse(&[
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
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(args.pools, 10);
        assert_eq!(args.duration, Duration::from_days(3));
        assert_eq!(args.seed, 7);
        assert_eq!(args.hosts, Some(50));
        assert_eq!(args.threads, 4);
        assert_eq!(args.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn full_and_quick_presets() {
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.pools, 24);
        assert!(full.full);
        let quick = parse(&["--quick"]).unwrap();
        assert_eq!(quick.pools, 2);
        assert_eq!(quick.hosts, Some(32));
        // A flag after a preset overrides it; a preset after a flag wins.
        assert_eq!(
            parse(&["--quick", "--hosts", "50"]).unwrap().hosts,
            Some(50)
        );
        assert_eq!(
            parse(&["--hosts", "50", "--quick"]).unwrap().hosts,
            Some(32)
        );
    }

    #[test]
    fn quick_preset_measures_past_the_warmup() {
        // At or under the warm-up, the measurement window is empty and
        // every figure prints zeros.
        let quick = parse(&["--quick"]).unwrap();
        assert!(quick.duration > Cadence::default().warmup);
    }

    #[test]
    fn trace_io_flags_parse() {
        let args = parse(&["--trace-out", "t.bin", "--trace-in", "t.json"]).unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("t.bin"));
        assert_eq!(args.trace_in.as_deref(), Some("t.json"));
        let none = parse(&[]).unwrap();
        assert_eq!(none.trace_out, None);
        assert_eq!(none.trace_in, None);
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse(&["--frobnicate", "--pools", "4"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        // The retired router flag and stray positionals are unknown too.
        assert!(parse(&["--router", "hash"])
            .unwrap_err()
            .contains("--router"));
        assert!(parse(&["fig06"]).unwrap_err().contains("fig06"));
    }

    #[test]
    fn malformed_values_are_errors() {
        let err = parse(&["--pools", "not-a-number"]).unwrap_err();
        assert!(
            err.contains("--pools") && err.contains("not-a-number"),
            "{err}"
        );
        let err = parse(&["--quick", "--hosts", "abc"]).unwrap_err();
        assert!(err.contains("--hosts"), "{err}");
        let err = parse(&["--days", "-1"]).unwrap_err();
        assert!(err.contains("--days"), "{err}");
        // A flag missing its value names it.
        let err = parse(&["--seed"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = parse(&["--json"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }
}
