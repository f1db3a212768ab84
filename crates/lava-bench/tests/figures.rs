//! Snapshot tests for the `repro` binary: each deterministic figure that is
//! quick enough for tier-1 runs at `--quick`, and its stdout must equal
//! `tests/figures/<name>.txt` byte for byte. Plus the CLI contract: `list`,
//! and exit code 2 on an unknown figure or flag.
//!
//! To accept an intended change to a figure, review the diff, then
//! re-record its snapshot:
//!
//! ```sh
//! cargo run -p lava-bench -- fig13_metric_comparison --quick \
//!     > crates/lava-bench/tests/figures/fig13_metric_comparison.txt
//! ```

use std::path::Path;
use std::process::{Command, Output};

/// The figures pinned here. The wall-clock ones (`fig08_model_latency`,
/// `fig17_cache_ablation`) cannot be; `fig06`, `fig09`, `fig10`, `fig11`,
/// `table4` and `theorem1` are deterministic but too slow in debug, so
/// their snapshots in `tests/figures/` are diffed by CI's release loop.
const SNAPSHOTS: [&str; 12] = [
    "chaos_suite",
    "fig01_lifetime_cdf",
    "fig02_conditional_lifetime",
    "fig07_causal_impact",
    "fig12_error_histogram",
    "fig13_metric_comparison",
    "fig14_validation",
    "fig15_accuracy_tradeoff",
    "fig16_ablation",
    "fleet_compare",
    "table1_pilots",
    "table2_lars",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Where `actual` first departs from `expected`, as a readable message.
fn first_difference(expected: &str, actual: &str) -> String {
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    for line in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (Some(e), Some(a)) if e == a => continue,
            (None, None) => break,
            (e, a) => {
                return format!(
                    "line {line}:\n  expected: {}\n  actual:   {}",
                    e.unwrap_or("<end of output>"),
                    a.unwrap_or("<end of output>")
                )
            }
        }
    }
    "trailing newline differs".to_string()
}

#[test]
fn quick_figures_match_their_snapshots() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/figures");
    // One process per figure, all in flight at once.
    let outputs: Vec<Output> = std::thread::scope(|scope| {
        let runs: Vec<_> = SNAPSHOTS
            .iter()
            .map(|name| scope.spawn(move || repro(&[name, "--quick"])))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("repro thread"))
            .collect()
    });
    let mut failures = Vec::new();
    for (name, output) in SNAPSHOTS.iter().zip(outputs) {
        let actual = String::from_utf8(output.stdout).expect("utf-8 stdout");
        if !output.status.success() {
            failures.push(format!(
                "{name}: exited {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
            continue;
        }
        let path = dir.join(format!("{name}.txt"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if actual != expected {
            failures.push(format!(
                "{name}: stdout differs from {}, {}",
                path.display(),
                first_difference(&expected, &actual)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn list_names_every_figure() {
    let output = repro(&["list"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 20, "{stdout}");
    for name in SNAPSHOTS {
        assert!(names.contains(&name), "{name} missing from `repro list`");
    }
}

#[test]
fn unknown_figures_and_flags_exit_2_naming_the_token() {
    for (args, token) in [
        (&["nope"][..], "nope"),
        (
            &["fig13_metric_comparison", "--frobnicate"][..],
            "--frobnicate",
        ),
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(token), "{args:?}: {stderr}");
    }
}
