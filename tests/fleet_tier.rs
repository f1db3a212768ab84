//! Integration tests for the fleet tier: backward compatibility with
//! pre-fleet specs, single-cell degeneration, deterministic parallel cell
//! execution, and fleet-level aggregation.
//!
//! The load-bearing guarantees:
//!
//! * pre-fleet `ExperimentSpec` JSON (no `fleet` field) still parses,
//!   round-trips, and runs as a 1-cell fleet: it, and an explicit 1-cell
//!   fleet under every router, produce a **bit-identical**
//!   `SimulationResult` to one hand-built scheduler replayed through
//!   `drive` — extra observers and recorded predictions included;
//! * fleet runs are **bit-identical across worker-thread counts** for
//!   every `RouterSpec`, over randomized heterogeneous fleets (64
//!   property cases; routing is serial at arrival order, cells only run
//!   in parallel between summary-refresh barriers);
//! * the fleet-wide aggregate is consistent with the per-cell results
//!   (counters sum, every arrival is routed exactly once);
//! * a fleet started from an arm of a parallel suite reports what the
//!   same spec reports at top level, back-to-back runs leak no state
//!   into each other, and an exit no create named changes nothing. The
//!   coordinator-vs-plain-loop property test needs `lava-sim`'s private
//!   cell engine and lives in `lava-sim/src/fleet.rs`.

use lava::core::events::TraceEvent;
use lava::core::pool::Pool;
use lava::core::source::EventSource;
use lava::core::time::{Duration, SimTime};
use lava::core::vm::VmId;
use lava::model::predictor::{LifetimePredictor, OraclePredictor};
use lava::sched::cluster::Cluster;
use lava::sched::scheduler::Scheduler;
use lava::sched::Algorithm;
use lava::sim::chaos::DegradedPredictor;
use lava::sim::experiment::{drive, DriveTiming, Experiment, ExperimentSpec, SpecError};
use lava::sim::fleet::{run_fleet, CellOverride, FleetConfig, RouterSpec};
use lava::sim::metrics::SimulationResult;
use lava::sim::observer::{MetricRecorder, SimObserver, StrandingProbe};
use lava::sim::recording::RecordingPredictor;
use lava::sim::stranding::InflationMix;
use lava::sim::trace::Trace;
use lava::sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use lava::sim::{
    AdaptationSpec, ExperimentSuite, Incident, IncidentPlan, OutageMode, RecalibrationSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

fn base_spec(seed: u64, hosts: usize, hours: u64) -> ExperimentSpec {
    Experiment::builder()
        .name("fleet-tier-test")
        .workload(PoolConfig {
            hosts,
            duration: Duration::from_hours(hours),
            ..PoolConfig::small(seed)
        })
        .warmup(Duration::from_hours(3))
        .tick_interval(Duration::from_mins(30))
        .algorithm(Algorithm::Nilas)
        .build()
        .expect("valid spec")
}

fn with_fleet(mut spec: ExperimentSpec, fleet: FleetConfig) -> ExperimentSpec {
    spec.fleet = Some(fleet);
    spec.validate().expect("valid fleet spec");
    spec
}

/// The drive timing `base_spec` runs with.
fn base_timing() -> DriveTiming {
    DriveTiming {
        warmup: Duration::from_hours(3),
        warmup_with_baseline: true,
        tick_interval: Duration::from_mins(30),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    }
}

/// What `spec` (a `base_spec`) should produce, built by hand: one
/// scheduler over the whole pool, the baseline deferring to NILAS at the
/// warm-up boundary, replayed through `drive` with a metric recorder and
/// then `extra`.
fn drive_reference(
    spec: &ExperimentSpec,
    predictor: Arc<dyn LifetimePredictor>,
    extra: &mut [&mut dyn SimObserver],
) -> SimulationResult {
    let workload = &spec.workload;
    let pool = Pool::with_uniform_hosts(workload.pool_id, workload.hosts, workload.host_spec());
    let mut scheduler = Scheduler::new(
        Cluster::new(pool),
        Algorithm::Baseline.build_policy(predictor.clone()),
        predictor.clone(),
    );
    let trace = WorkloadGenerator::new(workload.clone()).generate();
    let mut metrics = MetricRecorder::new();
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut metrics];
    observers.extend(extra.iter_mut().map(|o| &mut **o as &mut dyn SimObserver));
    let rejected = drive(
        &mut trace.source(),
        &mut scheduler,
        Some(Algorithm::Nilas.build_policy(predictor)),
        &base_timing(),
        &mut observers,
    );
    drop(observers);
    SimulationResult {
        algorithm: "nilas".to_string(),
        predictor: "oracle".to_string(),
        series: metrics.into_series(),
        scheduler_stats: scheduler.stats(),
        rejected_vms: rejected,
    }
}

#[test]
fn pre_fleet_spec_json_round_trips_and_matches_one_cell_hash_fleet() {
    let spec = base_spec(11, 24, 36);
    assert!(spec.fleet.is_none());

    // A pre-fleet spec JSON has no `fleet` key at all. Serde-defaulting
    // must fill in `None`, and the parsed spec must round-trip.
    let json = spec.to_json().expect("serializes");
    let pre_fleet_json = json.replace(",\"fleet\":null", "");
    assert!(
        !pre_fleet_json.contains("\"fleet\":"),
        "test setup failed to strip the fleet field"
    );
    let parsed = ExperimentSpec::from_json(&pre_fleet_json).expect("pre-fleet JSON parses");
    assert_eq!(parsed, spec, "pre-fleet JSON must round-trip");

    // The fleet-less spec, a 1-cell Hash fleet over it and one scheduler
    // replayed through `drive` are bit-identical.
    let reference = drive_reference(&spec, Arc::new(OraclePredictor::new()), &mut []);
    let plain = Experiment::new(parsed).expect("valid").run();
    assert_eq!(
        plain.result, reference,
        "a fleet-less spec diverged from drive"
    );
    assert!(plain.fleet.is_none());
    let fleet_spec = with_fleet(base_spec(11, 24, 36), FleetConfig::new(1).with_threads(1));
    let fleet_run = Experiment::new(fleet_spec).expect("valid").run();
    assert_eq!(
        fleet_run.result, reference,
        "1-cell fleet diverged from the single-scheduler drive"
    );
    let fleet_report = fleet_run.fleet.expect("fleet report attached");
    assert_eq!(fleet_report.cells.len(), 1);
    assert_eq!(fleet_report.cells[0].result, reference);
    assert_eq!(fleet_report.router, RouterSpec::Hash);
}

#[test]
fn one_cell_fleet_matches_plain_run_for_every_router_and_source_mode() {
    let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
    let reference = drive_reference(&base_spec(7, 16, 30), predictor.clone(), &mut []);
    assert_eq!(
        Experiment::new(base_spec(7, 16, 30))
            .expect("valid")
            .run()
            .result,
        reference,
        "a fleet-less spec diverged from drive"
    );
    // What `base_spec` runs, spelled out for direct `run_fleet` calls.
    let workload = base_spec(7, 16, 30).workload;
    let trace = WorkloadGenerator::new(workload.clone()).generate();
    let timing = base_timing();
    for router in RouterSpec::ALL {
        let fleet = FleetConfig::new(1).with_router(router).with_threads(1);
        let spec = with_fleet(base_spec(7, 16, 30), fleet.clone());
        let report = Experiment::new(spec).expect("valid").run();
        assert_eq!(
            report.result, reference,
            "router {router} diverged on a 1-cell fleet"
        );

        // The spec API always replays its trace; `run_fleet` itself also
        // takes a lazy source, whose last arrival becomes known only
        // epochs into the run. Both feeds must give the same outcome.
        let run = |source: &mut dyn EventSource| {
            let cells = fleet.build_cells(&workload, |_| {
                (
                    Algorithm::Baseline.build_policy(predictor.clone()),
                    Some(Algorithm::Nilas.build_policy(predictor.clone())),
                )
            });
            run_fleet(
                cells,
                predictor.clone(),
                router,
                fleet.summary_refresh,
                &timing,
                source,
                1,
                None,
                None,
            )
        };
        let replayed = run(&mut trace.source());
        let streamed = run(&mut StreamingWorkload::new(workload.clone()));
        assert_eq!(
            replayed, streamed,
            "router {router}: lazy and replay sources diverged"
        );
        assert_eq!(
            (&replayed.cells[0].stats, &replayed.cells[0].series),
            (&reference.scheduler_stats, &reference.series),
            "router {router}: the direct run is not the reference's run"
        );
    }
}

/// Extra observers and prediction recording ride on a 1-cell fleet: the
/// fleet-less spec and `fleet: Some(FleetConfig::new(1))` give the same
/// report, the same observer output and the same recorded predictions as
/// one scheduler replayed through `drive`.
#[test]
fn one_cell_fleet_takes_extra_observers_and_records_predictions() {
    let mut spec = base_spec(13, 16, 30);
    spec.record_predictions = true;
    let run = |spec: ExperimentSpec| {
        let mut probe = StrandingProbe::new(4, InflationMix::default());
        let report = Experiment::new(spec)
            .expect("valid")
            .run_with_observers(&mut [&mut probe]);
        (report, probe.measurements(), probe.average())
    };
    let (plain, plain_measured, plain_stranding) = run(spec.clone());
    let (fleet, fleet_measured, fleet_stranding) =
        run(with_fleet(spec.clone(), FleetConfig::new(1)));

    let recorder = RecordingPredictor::new(Arc::new(OraclePredictor::new()));
    let mut probe = StrandingProbe::new(4, InflationMix::default());
    let reference = drive_reference(&spec, recorder.clone(), &mut [&mut probe]);
    let recorded = recorder.records();

    assert!(probe.measurements() > 0, "the probe never sampled");
    assert!(!recorded.is_empty(), "nothing was predicted");
    for (name, report, measured, stranding) in [
        ("fleet-less", &plain, plain_measured, plain_stranding),
        ("1-cell fleet", &fleet, fleet_measured, fleet_stranding),
    ] {
        assert_eq!(report.result, reference, "{name}: result");
        assert_eq!(report.predictions, recorded, "{name}: recorded predictions");
        assert_eq!(measured, probe.measurements(), "{name}: probe samples");
        assert_eq!(stranding, probe.average(), "{name}: stranding");
    }
    assert!(plain.fleet.is_none());
    assert!(fleet.fleet.is_some());
}

#[test]
fn fleet_aggregation_is_consistent_with_cells() {
    let spec = with_fleet(
        base_spec(5, 30, 48),
        FleetConfig::new(3)
            .with_router(RouterSpec::LeastLoaded)
            .with_summary_refresh(Duration::from_mins(30))
            .with_override(CellOverride::new(2).with_hosts(6).with_host_shape(96, 384))
            .with_threads(2),
    );
    let report = Experiment::new(spec).expect("valid").run();
    let fleet = report.fleet.expect("fleet report");
    assert_eq!(fleet.cells.len(), 3);
    // Host split: 30 hosts over 3 cells = 10 each; cell 2 overridden to 6.
    assert_eq!(
        fleet.cells.iter().map(|c| c.hosts).collect::<Vec<_>>(),
        vec![10, 10, 6]
    );
    // Every arrival is routed to exactly one cell, and the aggregate sums
    // the per-cell counters.
    let routed: u64 = fleet.cells.iter().map(|c| c.routed_vms).sum();
    let placed: u64 = fleet
        .cells
        .iter()
        .map(|c| c.result.scheduler_stats.placed)
        .sum();
    let rejected: u64 = fleet.cells.iter().map(|c| c.result.rejected_vms).sum();
    assert!(routed > 100, "workload routed only {routed} VMs");
    assert_eq!(routed, placed + rejected);
    assert_eq!(fleet.fleet.scheduler_stats.placed, placed);
    assert_eq!(fleet.fleet.rejected_vms, rejected);
    assert_eq!(fleet.total_rejected(), rejected);
    assert_eq!(report.result, fleet.fleet);
    // Every cell samples the identical time grid up to the fleet-wide
    // last arrival (the cadence horizon), even when its own routed events
    // end earlier — so the host-weighted aggregate never drops an
    // early-finishing cell from its weights.
    for cell in &fleet.cells {
        assert_eq!(
            cell.result.series.len(),
            fleet.fleet.series.len(),
            "cell {} sampled a different grid than the fleet",
            cell.cell
        );
    }
    // The aggregated series is host-weighted: every sample stays a valid
    // fraction.
    assert!(!fleet.fleet.series.is_empty());
    for sample in fleet.fleet.series.samples() {
        assert!((0.0..=1.0).contains(&sample.empty_host_fraction));
        assert!((0.0..=1.0).contains(&sample.cpu_utilization));
    }
    // The fleet spec round-trips through JSON like any other spec.
    let json = Experiment::new(with_fleet(
        base_spec(5, 30, 48),
        FleetConfig::new(3).with_router(RouterSpec::LifetimeAware),
    ))
    .expect("valid")
    .spec()
    .to_json()
    .expect("serializes");
    let parsed = ExperimentSpec::from_json(&json).expect("parses");
    assert_eq!(
        parsed.fleet.as_ref().map(|f| f.router),
        Some(RouterSpec::LifetimeAware)
    );
}

#[test]
fn fleet_validation_rejects_degenerate_configs() {
    let reject = |fleet: FleetConfig, expected: SpecError| {
        let mut spec = base_spec(1, 12, 24);
        spec.fleet = Some(fleet);
        assert_eq!(spec.validate().unwrap_err(), expected);
    };
    reject(FleetConfig::new(0), SpecError::FleetZeroCells);
    reject(
        FleetConfig::new(2).with_summary_refresh(Duration::ZERO),
        SpecError::FleetZeroSummaryRefresh,
    );
    reject(
        FleetConfig::new(2).with_override(CellOverride::new(5)),
        SpecError::FleetOverrideOutOfRange,
    );
    reject(
        FleetConfig::new(2).with_override(CellOverride::new(0).with_hosts(0)),
        SpecError::FleetEmptyCell,
    );
    // More cells than hosts leaves empty cells.
    reject(FleetConfig::new(64), SpecError::FleetEmptyCell);

    // A pre/post arm is a fleet spec like any other: it samples through
    // warm-up, identically at one and two worker threads.
    let pre_post = |threads| {
        let mut spec = base_spec(1, 12, 24);
        spec.cadence.sample_during_warmup = true;
        let spec = with_fleet(spec, FleetConfig::new(2).with_threads(threads));
        Experiment::new(spec).expect("valid").run()
    };
    let serial = pre_post(1);
    assert_eq!(serial.result.series.samples()[0].time.as_secs(), 0);
    assert_eq!(serial, pre_post(2), "threads changed a pre/post fleet arm");

    let mut recording = base_spec(1, 12, 24);
    recording.record_predictions = true;
    recording.fleet = Some(FleetConfig::new(2));
    assert_eq!(
        recording.validate().unwrap_err(),
        SpecError::FleetRecordingUnsupported
    );
    recording.fleet = Some(FleetConfig::new(1));
    recording
        .validate()
        .expect("a 1-cell fleet records predictions");

    // Cold start is supported.
    let mut cold = base_spec(1, 12, 24);
    cold.cadence.warmup = Duration::ZERO;
    cold.fleet = Some(FleetConfig::new(2));
    cold.validate().expect("cold-start fleet is valid");
}

/// A fleet run must not leak state into the next one: back-to-back
/// multi-lane [`Experiment::run`] calls, interleaved with a *different*
/// fleet spec, are bit-identical to each other.
#[test]
fn back_to_back_fleet_runs_are_bit_identical() {
    let fleet = |router| {
        FleetConfig::new(3)
            .with_router(router)
            .with_summary_refresh(Duration::from_mins(45))
            .with_override(CellOverride::new(1).with_hosts(5))
            .with_threads(2)
    };
    let exp = Experiment::new(with_fleet(
        base_spec(21, 18, 24),
        fleet(RouterSpec::LifetimeAware),
    ))
    .expect("valid spec");
    let other = Experiment::new(with_fleet(
        base_spec(22, 15, 18),
        fleet(RouterSpec::LeastLoaded),
    ))
    .expect("valid spec");

    let first = exp.run();
    let interleaved = other.run();
    let second = exp.run();

    assert_eq!(first, second, "an earlier run changed a fleet run's result");
    assert_eq!(
        interleaved,
        other.run(),
        "an earlier run changed the interleaved spec's result"
    );
}

/// An exit for a VM no create named (a truncated or spliced trace) is
/// ignored under every router: the exit goes to the VM's pinned cell, or
/// else to its hash cell, whose scheduler finds nothing to remove. The
/// report equals the clean trace's report.
#[test]
fn an_unmatched_exit_changes_nothing_under_every_router() {
    for router in RouterSpec::ALL {
        let spec = with_fleet(
            base_spec(23, 16, 24),
            FleetConfig::new(2).with_router(router).with_threads(1),
        );
        let clean = Experiment::new(spec.clone()).expect("valid spec");
        let trace = clean.trace();
        let last_id = trace.events().iter().map(|e| e.kind.vm().0).max();
        let stray = VmId(last_id.expect("a non-empty trace") + 1);
        let mut events = trace.events().to_vec();
        let at = SimTime::ZERO + Duration::from_hours(5);
        events.push(TraceEvent::exit(at, stray));
        let injected = Experiment::new(spec).expect("valid spec");
        assert!(injected.set_trace(Trace::new(trace.pool(), events)));
        assert_eq!(
            injected.run(),
            clean.run(),
            "router {router}: an unmatched exit changed the report"
        );
    }
}

/// Fleets started from the arms of a parallel suite run side by side,
/// each on its own lane threads. Each report must be the one the same
/// spec gives at top level — summary-free and summary-driven router, with
/// and without incidents in flight.
#[test]
fn fleet_arm_of_a_parallel_suite_matches_its_top_level_run() {
    for router in [RouterSpec::RoundRobin, RouterSpec::LifetimeAware] {
        for chaotic in [false, true] {
            let arm = |seed: u64| {
                let mut spec = base_spec(seed, 20, 24);
                if chaotic {
                    spec.incidents = IncidentPlan {
                        seed,
                        incidents: vec![
                            Incident::CellOutage {
                                cell: 1,
                                hosts: Some(2),
                                mode: OutageMode::HardKill,
                                at: Duration::from_hours(6),
                                recovery: Some(Duration::from_hours(6)),
                            },
                            Incident::PredictorDegradation {
                                degraded: DegradedPredictor::Biased { bias_pct: -80 },
                                at: Duration::from_hours(8),
                                recovery: Some(Duration::from_hours(5)),
                            },
                        ],
                    };
                    spec.adaptation = AdaptationSpec {
                        recalibration: Some(RecalibrationSpec {
                            cadence: Duration::from_hours(2),
                            min_samples: 8,
                        }),
                    };
                }
                let fleet = FleetConfig::new(3)
                    .with_router(router)
                    .with_summary_refresh(Duration::from_mins(45))
                    .with_override(CellOverride::new(0).with_hosts(5))
                    .with_threads(2);
                with_fleet(spec, fleet)
            };
            // Two arms: a one-arm suite runs its arm on the caller.
            let specs = [arm(31), arm(32)];
            let nested = ExperimentSuite::from_specs(specs.clone())
                .expect("valid specs")
                .with_threads(2)
                .run();
            for (spec, nested) in specs.into_iter().zip(nested) {
                let top_level = Experiment::new(spec).expect("valid").run();
                assert_eq!(
                    nested, top_level,
                    "router {router} (incidents: {chaotic}): a suite arm's fleet diverged"
                );
            }
        }
    }
}

proptest! {
    /// The headline determinism guarantee: for randomized heterogeneous
    /// fleets, every router produces bit-identical reports at 1 worker,
    /// 2 workers and one-per-CPU workers. Routing decisions are made
    /// serially at arrival order; the summary-refresh epochs are barriers,
    /// so cell parallelism cannot reorder anything observable.
    #[test]
    fn fleet_runs_are_bit_identical_across_thread_counts(
        seed in 0u64..100_000,
        cells in 2usize..5,
        hosts in 12usize..28,
        hours in 12u64..30,
        refresh_mins in 10u64..120,
        hetero_hosts in 3usize..9,
    ) {
        // Derive the remaining knobs from the seed (the vendored proptest
        // supports at most 6 strategy bindings).
        let hetero_cores = (seed >> 3) % 2;
        let algorithm = if seed % 2 == 0 { Algorithm::Baseline } else { Algorithm::Nilas };
        for router in RouterSpec::ALL {
            let build = |threads: usize| {
                let mut spec = base_spec(seed, hosts, hours);
                spec.policy = lava::sim::experiment::PolicySpec::new(algorithm);
                let fleet = FleetConfig::new(cells)
                    .with_router(router)
                    .with_summary_refresh(Duration::from_mins(refresh_mins))
                    // Heterogeneous cells: one cell gets a custom host
                    // count, another a bigger SKU.
                    .with_override(CellOverride::new(0).with_hosts(hetero_hosts))
                    .with_override(
                        CellOverride::new(cells as u32 - 1)
                            .with_host_shape(64 + 32 * hetero_cores, 256 + 128 * hetero_cores),
                    )
                    .with_threads(threads);
                with_fleet(spec, fleet)
            };
            let serial = Experiment::new(build(1)).expect("valid").run();
            let two = Experiment::new(build(2)).expect("valid").run();
            let per_cpu = Experiment::new(build(0)).expect("valid").run();
            prop_assert_eq!(
                &serial.result, &two.result,
                "router {} diverged between 1 and 2 threads", router
            );
            prop_assert_eq!(
                serial.fleet.as_ref(), two.fleet.as_ref(),
                "router {} per-cell reports diverged between 1 and 2 threads", router
            );
            prop_assert_eq!(
                serial.fleet.as_ref(), per_cpu.fleet.as_ref(),
                "router {} diverged between 1 and per-CPU threads", router
            );
        }
    }

    /// The same guarantee with the fault-injection layer active: a
    /// cell outage and a predictor degradation both in flight, plus the
    /// online recalibrator, must stay bit-identical at 1, 2 and per-CPU
    /// workers. Incident actions are timeline items inside each cell's
    /// own deterministic drive loop, so parallelism cannot reorder them.
    #[test]
    fn chaos_fleet_runs_are_bit_identical_across_thread_counts(
        seed in 0u64..100_000,
        cells in 2usize..5,
        hosts in 16usize..28,
        outage_at_hours in 4u64..12,
        outage_hosts in 1usize..4,
        degrade_at_hours in 4u64..12,
    ) {
        let hard_kill = seed % 2 == 0;
        let router = RouterSpec::ALL[(seed / 2) as usize % RouterSpec::ALL.len()];
        let build = |threads: usize| {
            let mut spec = base_spec(seed, hosts, 24);
            spec.incidents = IncidentPlan {
                seed,
                incidents: vec![
                    Incident::CellOutage {
                        cell: (seed % cells as u64) as u32,
                        hosts: Some(outage_hosts),
                        mode: if hard_kill { OutageMode::HardKill } else { OutageMode::Drain },
                        at: Duration::from_hours(outage_at_hours),
                        recovery: Some(Duration::from_hours(6)),
                    },
                    Incident::PredictorDegradation {
                        degraded: DegradedPredictor::Biased { bias_pct: -80 },
                        at: Duration::from_hours(degrade_at_hours),
                        recovery: Some(Duration::from_hours(5)),
                    },
                ],
            };
            spec.adaptation = AdaptationSpec {
                recalibration: Some(RecalibrationSpec {
                    cadence: Duration::from_hours(2),
                    min_samples: 8,
                }),
            };
            let fleet = FleetConfig::new(cells)
                .with_router(router)
                .with_summary_refresh(Duration::from_mins(45))
                .with_threads(threads);
            with_fleet(spec, fleet)
        };
        let serial = Experiment::new(build(1)).expect("valid").run();
        let two = Experiment::new(build(2)).expect("valid").run();
        let per_cpu = Experiment::new(build(0)).expect("valid").run();
        prop_assert_eq!(
            serial.fleet.as_ref(), two.fleet.as_ref(),
            "chaos fleet ({}) diverged between 1 and 2 threads", router
        );
        prop_assert_eq!(
            serial.fleet.as_ref(), per_cpu.fleet.as_ref(),
            "chaos fleet ({}) diverged between 1 and per-CPU threads", router
        );
    }
}
