//! Experiment harness helpers shared by the figure/table binaries.
//!
//! The heavy lifting lives in `lava-sim`'s declarative experiment API
//! ([`Experiment`](lava_sim::experiment::Experiment)) and the parallel
//! [`ExperimentSuite`]; this module
//! keeps the thin glue the binaries share — building suites with the CLI
//! thread count, honouring the fleet and trace-file flags, and report
//! formatting.

use crate::args::ExperimentArgs;
use lava_sim::experiment::ExperimentSpec;
use lava_sim::fleet::{CellOverride, FleetConfig};
use lava_sim::metrics::SimulationResult;
use lava_sim::suite::ExperimentSuite;

/// The [`FleetConfig`] the CLI fleet flags describe — the uniform way
/// binaries honour `--cells` / `--router` / `--threads`. `None` when
/// `--cells` is 1 (the default): the spec then runs the single-cluster
/// engine, exactly as before the fleet tier existed.
pub fn fleet_config(args: &ExperimentArgs) -> Option<FleetConfig> {
    if args.cells <= 1 {
        return None;
    }
    Some(
        FleetConfig::new(args.cells)
            .with_router(args.router)
            .with_threads(args.threads),
    )
}

/// An [`ExperimentSuite`] over `specs` using the CLI-selected thread
/// count — the uniform way sweep binaries honour `--threads`. Panics on an
/// invalid spec (sweep binaries construct their specs programmatically).
pub fn suite_from_specs(
    specs: impl IntoIterator<Item = ExperimentSpec>,
    args: &ExperimentArgs,
) -> ExperimentSuite {
    ExperimentSuite::from_specs(specs)
        .expect("valid sweep spec")
        .with_threads(args.threads)
}

/// The heterogeneous-fleet recipe: every fourth cell gets a
/// bigger SKU shape (96 cores / 384 GiB) and every third cell a third
/// more hosts than its even share of `hosts`, mirroring the
/// mixed-generation cells of a real fleet. `fleet_compare` sweeps its
/// routers over this shape; the repo benchmark's `fleet_pooled` workload
/// keeps a copy of the recipe of its own.
pub fn heterogeneous_overrides(cells: usize, hosts: usize) -> Vec<CellOverride> {
    let per_cell = hosts / cells.max(1);
    (0..cells as u32)
        .map(|i| {
            let mut o = CellOverride::new(i);
            if i % 4 == 0 {
                o = o.with_host_shape(96, 384);
            }
            if i % 3 == 0 {
                o = o.with_hosts(per_cell + per_cell / 3);
            }
            o
        })
        .collect()
}

/// Honour the `--trace-in` / `--trace-out` flags against an experiment:
/// load a pre-recorded trace into its trace cell, then (or instead)
/// persist the trace it will run.
///
/// Formats: reads sniff the `LVTR` magic, so either format loads
/// regardless of extension; writes pick by extension (`.json` = JSON,
/// anything else = compact binary). Binary traces stream through the
/// codec; JSON is read and written whole. Returns an error string suitable
/// for a binary's `main` to print and exit on.
///
/// # Errors
///
/// Fails when a trace file can't be read/parsed/written, when `--trace-in`
/// races a populated trace cell, or when the loaded trace targets a
/// different pool id than the experiment expects.
pub fn apply_trace_io(
    args: &ExperimentArgs,
    experiment: &lava_sim::experiment::Experiment,
) -> Result<(), String> {
    use lava_sim::trace::Trace;
    if let Some(path) = &args.trace_in {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let mut reader = std::io::BufReader::new(file);
        let mut magic = [0u8; 4];
        std::io::Read::read_exact(&mut reader, &mut magic)
            .map_err(|e| format!("read {path}: {e}"))?;
        let mut reader = std::io::Read::chain(&magic[..], reader);
        let trace = if magic == lava_sim::trace::MAGIC {
            Trace::read_binary(reader).map_err(|e| format!("parse {path}: {e}"))?
        } else {
            let mut json = String::new();
            std::io::Read::read_to_string(&mut reader, &mut json)
                .map_err(|e| format!("read {path}: {e}"))?;
            Trace::from_json(&json).map_err(|e| format!("parse {path}: {e}"))?
        };
        let expected = experiment.spec().workload.pool_id;
        if trace.pool() != expected {
            return Err(format!(
                "--trace-in {path}: trace targets {}, the experiment expects {expected}",
                trace.pool()
            ));
        }
        if !experiment.set_trace(trace) {
            return Err(format!(
                "--trace-in {path}: experiment trace already materialised"
            ));
        }
    }
    if let Some(path) = &args.trace_out {
        let trace = experiment.trace();
        if path.ends_with(".json") {
            let json = trace.to_json().map_err(|e| format!("write {path}: {e}"))?;
            std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        } else {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            trace
                .write_binary(&mut writer)
                .map_err(|e| format!("write {path}: {e}"))?;
            std::io::Write::flush(&mut writer).map_err(|e| format!("flush {path}: {e}"))?;
        }
    }
    Ok(())
}

/// Empty-host improvement of `treatment` over `baseline`, in percentage
/// points (the unit of Fig. 6 and Table 1).
pub fn improvement_pp(treatment: &SimulationResult, baseline: &SimulationResult) -> f64 {
    (treatment.mean_empty_host_fraction() - baseline.mean_empty_host_fraction()) * 100.0
}

/// Format a row of `name: value` pairs as an aligned report line.
pub fn report_row(label: &str, values: &[(&str, f64)]) -> String {
    let mut row = format!("{label:<28}");
    for (name, value) in values {
        row.push_str(&format!(" {name}={value:+.2}"));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::pool::PoolId;
    use lava_core::time::Duration;
    use lava_model::gbdt::GbdtConfig;
    use lava_sched::Algorithm;
    use lava_sim::experiment::{Experiment, PolicySpec};
    use lava_sim::workload::PoolConfig;

    fn tiny_pool() -> PoolConfig {
        PoolConfig {
            hosts: 16,
            duration: Duration::from_days(1),
            ..PoolConfig::small(3)
        }
    }

    #[test]
    fn suite_from_specs_threads_the_cli_thread_count() {
        let args = ExperimentArgs {
            threads: 2,
            ..ExperimentArgs::default()
        };
        let specs = [Algorithm::Baseline, Algorithm::Nilas].map(|algorithm| {
            Experiment::builder()
                .workload(tiny_pool())
                .warmup(Duration::from_hours(6))
                .algorithm(algorithm)
                .build()
                .expect("valid spec")
        });
        let suite = suite_from_specs(specs, &args);
        assert_eq!(suite.len(), 2);
        let reports = suite.run();
        assert_eq!(reports[0].result.algorithm, "baseline");
        assert_eq!(reports[1].result.algorithm, "nilas");
    }

    #[test]
    fn fleet_config_follows_cli_flags() {
        use lava_sim::fleet::RouterSpec;
        let default_args = ExperimentArgs::default();
        assert!(fleet_config(&default_args).is_none(), "1 cell = no fleet");
        let args = ExperimentArgs {
            cells: 8,
            router: RouterSpec::LeastLoaded,
            threads: 2,
            ..ExperimentArgs::default()
        };
        let fleet = fleet_config(&args).expect("fleet configured");
        assert_eq!(fleet.cells, 8);
        assert_eq!(fleet.router, RouterSpec::LeastLoaded);
        assert_eq!(fleet.threads, 2);
    }

    #[test]
    fn ab_experiment_replaces_algorithm_sweep() {
        let pool = tiny_pool();
        let report = Experiment::builder()
            .workload(pool)
            .warmup(Duration::from_hours(6))
            .ab_arms(vec![
                PolicySpec::new(Algorithm::Baseline),
                PolicySpec::new(Algorithm::Nilas),
            ])
            .run()
            .expect("valid spec");
        let pp = improvement_pp(&report.result, &report.arms[0].result);
        assert!(pp.is_finite());
        assert_eq!(report.arms[1].label, "nilas");
        assert_eq!(report.result.predictor, "oracle");
    }

    #[test]
    fn report_row_formats() {
        let row = report_row("pool-3", &[("nilas", 1.234), ("lava", -0.5)]);
        assert!(row.contains("pool-3"));
        assert!(row.contains("nilas=+1.23"));
        assert!(row.contains("lava=-0.50"));
    }

    #[test]
    fn trace_io_roundtrips_through_both_formats() {
        let dir = std::env::temp_dir().join(format!("lava-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = || {
            Experiment::builder()
                .workload(tiny_pool())
                .warmup(Duration::from_hours(6))
                .algorithm(Algorithm::Baseline)
                .build()
                .and_then(Experiment::new)
                .expect("valid spec")
        };
        for name in ["trace.bin", "trace.json"] {
            let path = dir.join(name).to_string_lossy().into_owned();
            let writer_exp = spec();
            let out_args = ExperimentArgs {
                trace_out: Some(path.clone()),
                ..ExperimentArgs::default()
            };
            apply_trace_io(&out_args, &writer_exp).unwrap();
            let reader_exp = spec();
            let in_args = ExperimentArgs {
                trace_in: Some(path.clone()),
                ..ExperimentArgs::default()
            };
            apply_trace_io(&in_args, &reader_exp).unwrap();
            assert_eq!(writer_exp.trace(), reader_exp.trace(), "{name}");
            // A second --trace-in must fail: the cell is already set.
            assert!(apply_trace_io(&in_args, &reader_exp).is_err());
            // So must a trace recorded for another pool, naming both ids.
            let other_pool = Experiment::builder()
                .workload(PoolConfig {
                    pool_id: PoolId(7),
                    ..tiny_pool()
                })
                .build()
                .and_then(Experiment::new)
                .expect("valid spec");
            let err = apply_trace_io(&in_args, &other_pool).unwrap_err();
            assert!(
                err.contains("pool-0") && err.contains("pool-7"),
                "{name}: {err}"
            );
            // The refused trace was not injected.
            assert_eq!(other_pool.trace().pool(), PoolId(7), "{name}");
        }
        assert!(apply_trace_io(
            &ExperimentArgs {
                trace_in: Some(dir.join("missing.bin").to_string_lossy().into_owned()),
                ..ExperimentArgs::default()
            },
            &spec()
        )
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gbdt_training_from_pool_runs() {
        let predictor =
            lava_sim::experiment::train_gbdt_predictor(&tiny_pool(), GbdtConfig::fast());
        assert!(predictor.model().tree_count() > 0);
    }
}
