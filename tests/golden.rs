//! Golden digests: each entry is one quick spec whose outcome folds to a
//! 64-bit digest recorded in `tests/golden.json`.
//!
//! `serve/` entries fold a serving run's decision digest plus every
//! terminal and non-terminal counter. `sim/` and `fleet/` entries fold
//! every field of every metric sample (floats by their bits), the
//! scheduler counters, the rejection count and each analysis output the
//! run feeds (causal report, migration outcomes, stranding report,
//! recorded predictions, per-cell results). Any change that moves one
//! decision, one sample or one counter shows up as a changed entry. On a
//! mismatch the
//! test writes every actual entry to `target/golden.actual.json` and
//! fails. To accept an intended change, review the diff between the two
//! files, then copy `target/golden.actual.json` over `tests/golden.json`.

use lava::core::hash::mix64;
use lava::core::serve::Micros;
use lava::core::time::Duration;
use lava::sched::Algorithm;
use lava::serve::{run_serve, ServeReport};
use lava::sim::arrivals::{
    AdmissionPolicy, ArrivalProcess, BreakerConfig, ServeConfig, ServiceModel,
};
use lava::sim::causal::{pre_post_arms, pre_post_impact, CausalImpactReport};
use lava::sim::chaos::{
    AdaptationSpec, DegradedPredictor, Incident, IncidentPlan, OutageMode, RecalibrationSpec,
};
use lava::sim::defrag::{DefragReport, EvacuationCollector};
use lava::sim::experiment::{Experiment, ExperimentBuilder, ExperimentSpec, PredictorSpec};
use lava::sim::fleet::{FleetConfig, FleetReport, RouterSpec};
use lava::sim::metrics::SimulationResult;
use lava::sim::observer::StrandingProbe;
use lava::sim::stranding::{InflationMix, StrandingReport};
use lava::sim::suite::ExperimentSuite;
use lava::sim::workload::PoolConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A NILAS serving spec under the oracle predictor at seed 23.
fn spec(
    hosts: usize,
    duration: Duration,
    serve: ServeConfig,
    fleet: Option<FleetConfig>,
    incidents: Vec<Incident>,
) -> ExperimentSpec {
    let mut spec = Experiment::builder()
        .name("golden-serve")
        .hosts(hosts)
        .duration(duration)
        .seed(23)
        .predictor(PredictorSpec::Oracle)
        .algorithm(Algorithm::Nilas)
        .serve(serve)
        .build()
        .expect("valid spec");
    spec.fleet = fleet;
    spec.incidents = IncidentPlan { seed: 5, incidents };
    spec
}

/// A decision server of ~500 decisions/s, so overload is cheap to offer.
fn slow() -> ServiceModel {
    ServiceModel {
        base_decision_us: 2000,
        per_host_ns: 500,
        per_vm_ns: 100,
    }
}

/// Twice the slow server's capacity for 20 virtual seconds.
fn overload(serve: impl FnOnce(ServeConfig) -> ServeConfig) -> ExperimentSpec {
    let base = ServeConfig::at_rate(1000.0)
        .with_service(slow())
        .with_queue_bound(64);
    spec(16, Duration::from_secs(20), serve(base), None, Vec::new())
}

fn cells(n: usize, router: RouterSpec) -> Option<FleetConfig> {
    Some(FleetConfig::new(n).with_router(router))
}

fn outage(cell: u32, mode: OutageMode, at: u64, recovery: u64) -> Incident {
    Incident::CellOutage {
        cell,
        hosts: None,
        mode,
        at: Duration::from_secs(at),
        recovery: Some(Duration::from_secs(recovery)),
    }
}

/// Two arrival storms and two drift shifts, interleaved in plan order so
/// the storms sit at plan indices 1 and 3. Times scale with `unit`.
fn stream_incidents(unit: Duration) -> Vec<Incident> {
    let at = |units: u64| Duration(unit.0 * units);
    vec![
        Incident::DriftShift {
            at: at(60),
            lifetime_scale: 2.5,
        },
        Incident::ArrivalStorm {
            at: at(30),
            duration: at(20),
            vms: 60,
            cores: Some(2),
            lifetime: Some(Duration::from_hours(3)),
        },
        Incident::DriftShift {
            at: at(200),
            lifetime_scale: 0.4,
        },
        Incident::ArrivalStorm {
            at: at(150),
            duration: at(30),
            vms: 40,
            cores: None,
            lifetime: None,
        },
    ]
}

fn serve_specs() -> Vec<(&'static str, ExperimentSpec)> {
    let five_min = Duration::from_mins(5);
    let at = ServeConfig::at_rate;
    vec![
        (
            "serve/one_cell",
            spec(24, five_min, at(20.0), None, Vec::new()),
        ),
        (
            "serve/four_cells_least_loaded",
            spec(
                32,
                five_min,
                at(20.0),
                Some(
                    FleetConfig::new(4)
                        .with_router(RouterSpec::LeastLoaded)
                        .with_summary_refresh(Duration::from_secs(30)),
                ),
                Vec::new(),
            ),
        ),
        (
            "serve/lifetime_aware_burst",
            spec(
                32,
                five_min,
                at(50.0).with_arrival(ArrivalProcess::Burst {
                    period: Duration::from_secs(60),
                    burst_len: Duration::from_secs(10),
                    amplitude: 6.0,
                }),
                cells(4, RouterSpec::LifetimeAware),
                Vec::new(),
            ),
        ),
        (
            "serve/overload_depth_shed",
            overload(|s| s.with_admission(AdmissionPolicy::DepthShed { shed_threshold: 8 })),
        ),
        (
            "serve/overload_lifetime_shed",
            overload(|s| {
                s.with_admission(AdmissionPolicy::LifetimeShed {
                    shed_threshold: 8,
                    min_predicted: Duration::from_hours(12),
                })
            }),
        ),
        (
            "serve/deadline_retries",
            overload(|s| {
                s.with_deadline(Micros::from_millis(50))
                    .with_retry_budget(2)
            }),
        ),
        (
            "serve/drain_outage_breakers_hash",
            spec(
                120,
                five_min,
                at(20.0).with_breakers(BreakerConfig::default()),
                cells(4, RouterSpec::Hash),
                vec![outage(1, OutageMode::Drain, 60, 120)],
            ),
        ),
        (
            "serve/storm_epochs",
            spec(
                24,
                five_min,
                at(20.0).with_epoch(Micros::from_secs(10)),
                None,
                vec![Incident::ArrivalStorm {
                    at: Duration::from_secs(60),
                    duration: Duration::from_secs(30),
                    vms: 500,
                    cores: None,
                    lifetime: None,
                }],
            ),
        ),
        (
            "serve/degradation_lifetime_aware",
            spec(
                32,
                five_min,
                at(20.0),
                cells(4, RouterSpec::LifetimeAware),
                vec![Incident::PredictorDegradation {
                    degraded: DegradedPredictor::Biased { bias_pct: -50 },
                    at: Duration::from_secs(60),
                    recovery: Some(Duration::from_secs(120)),
                }],
            ),
        ),
        (
            "serve/storms_and_drift_shifts",
            spec(
                24,
                five_min,
                at(20.0),
                None,
                stream_incidents(Duration::from_secs(1)),
            ),
        ),
        (
            // One arrival per ~20 s against one-minute summary refreshes:
            // the idle gap before the outage spans a refresh boundary.
            "serve/hard_kill_least_loaded_idle_gap",
            spec(
                32,
                Duration::from_mins(10),
                at(0.05),
                Some(
                    FleetConfig::new(4)
                        .with_router(RouterSpec::LeastLoaded)
                        .with_summary_refresh(Duration::from_secs(60)),
                ),
                vec![outage(1, OutageMode::HardKill, 125, 120)],
            ),
        ),
    ]
}

/// Fold a word sequence into one digest.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |acc, x| mix64(acc ^ mix64(x)))
}

/// The report's decision digest folded with every outcome counter.
fn fold_serve(r: &ServeReport) -> u64 {
    fold([
        r.decision_digest,
        r.offered,
        r.placed,
        r.no_capacity,
        r.shed,
        r.queue_full,
        r.deadline_exceeded,
        r.retried,
        r.failovers,
        r.breaker_trips,
        r.released,
        r.queue_high_water as u64,
    ])
}

/// Every metric-sample field, the scheduler counters and the rejections.
fn result_words(r: &SimulationResult) -> Vec<u64> {
    let mut words = vec![r.series.len() as u64];
    for s in r.series.samples() {
        words.extend([
            s.time.as_secs(),
            s.empty_host_fraction.to_bits(),
            s.empty_to_free_ratio.to_bits(),
            s.packing_density.to_bits(),
            s.cpu_utilization.to_bits(),
            s.memory_utilization.to_bits(),
            s.live_vms as u64,
            s.mean_abs_log10_error.to_bits(),
        ]);
    }
    let stats = &r.scheduler_stats;
    words.extend([
        stats.placed,
        stats.failed,
        stats.exited,
        stats.migrations,
        r.rejected_vms,
    ]);
    words
}

fn floats(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(values.len() as u64).chain(values.iter().map(|v| v.to_bits()))
}

fn causal_words(c: &CausalImpactReport) -> Vec<u64> {
    let mut words: Vec<u64> = floats(&c.counterfactual)
        .chain(floats(&c.pointwise_effect))
        .chain(floats(&c.cumulative_effect))
        .collect();
    words.extend([c.average_effect, c.ci_low, c.ci_high, c.p_value].map(f64::to_bits));
    words
}

fn defrag_words(d: &DefragReport) -> Vec<u64> {
    let mut words = vec![d.drain_events as u64, d.evacuated_vms as u64];
    for outcome in [&d.baseline, &d.lars] {
        words.extend([outcome.scheduled, outcome.performed, outcome.avoided]);
    }
    words
}

fn stranding_words(s: &StrandingReport) -> Vec<u64> {
    vec![
        s.stranded_cpu_fraction.to_bits(),
        s.stranded_memory_fraction.to_bits(),
        s.vms_packed as u64,
    ]
}

fn fleet_words(f: &FleetReport) -> Vec<u64> {
    let mut words = result_words(&f.fleet);
    for cell in &f.cells {
        words.extend([cell.cell.0 as u64, cell.hosts as u64, cell.routed_vms]);
        words.extend(result_words(&cell.result));
    }
    words
}

/// A 24-host, two-day pool at seed 31 with a six-hour warm-up.
fn sim(algorithm: Algorithm, predictor: PredictorSpec) -> ExperimentBuilder {
    Experiment::builder()
        .name("golden-sim")
        .workload(PoolConfig::small(31))
        .warmup(Duration::from_hours(6))
        .predictor(predictor)
        .algorithm(algorithm)
}

const NOISY_70: PredictorSpec = PredictorSpec::Noisy {
    accuracy_pct: 70,
    bias_pct: 0,
};

fn run(builder: ExperimentBuilder) -> lava::sim::ExperimentReport {
    builder.run().expect("golden spec runs")
}

fn experiment(builder: ExperimentBuilder) -> Experiment {
    builder
        .build()
        .and_then(Experiment::new)
        .expect("valid golden spec")
}

/// A busy 16-host pool that dips below the drain threshold within hours.
fn defrag(algorithm: Algorithm) -> u64 {
    let mut collector = EvacuationCollector::new(0.5, 2);
    let report = experiment(
        sim(algorithm, PredictorSpec::Oracle)
            .workload(PoolConfig {
                hosts: 16,
                target_utilization: 0.85,
                ..PoolConfig::small(5)
            })
            .warmup(Duration::ZERO)
            .defrag_every(Duration::from_hours(3)),
    )
    .run_with_observers(&mut [&mut collector]);
    let defrag = DefragReport::evaluate(collector.tasks(), 3, Duration::from_mins(20));
    assert!(defrag.drain_events > 0, "the pool never drained");
    fold(
        result_words(&report.result)
            .into_iter()
            .chain(defrag_words(&defrag)),
    )
}

fn fleet_spec(
    cells: usize,
    router: RouterSpec,
    threads: usize,
    builder: ExperimentBuilder,
) -> ExperimentSpec {
    builder
        .hosts(32)
        .fleet(
            FleetConfig::new(cells)
                .with_router(router)
                .with_summary_refresh(Duration::from_mins(30))
                .with_threads(threads),
        )
        .build()
        .expect("valid fleet spec")
}

fn run_fleet_spec(spec: ExperimentSpec) -> FleetReport {
    Experiment::new(spec)
        .expect("valid fleet spec")
        .run()
        .fleet
        .expect("fleet report")
}

fn sim_entries() -> Vec<(&'static str, u64)> {
    let steady = |algorithm, predictor| fold(result_words(&run(sim(algorithm, predictor)).result));
    let mut entries = vec![
        (
            "sim/steady_lava_oracle",
            steady(Algorithm::Lava, PredictorSpec::Oracle),
        ),
        (
            "sim/steady_nilas_noisy70",
            steady(Algorithm::Nilas, NOISY_70),
        ),
    ];

    let cold = run(sim(Algorithm::Lava, PredictorSpec::Oracle).warmup(Duration::ZERO));
    entries.push(("sim/cold_start_lava", fold(result_words(&cold.result))));

    let switch = Duration::from_days(1);
    let treated = sim(Algorithm::Nilas, PredictorSpec::Oracle)
        .warmup(switch)
        .build()
        .expect("valid golden spec");
    let arms = ExperimentSuite::from_specs(pre_post_arms(treated))
        .expect("valid golden specs")
        .run();
    let (treated, control) = (&arms[0].result, &arms[1].result);
    let causal = &pre_post_impact(treated, control, lava::core::time::SimTime::ZERO + switch);
    entries.push((
        "sim/pre_post_nilas",
        fold(
            result_words(treated)
                .into_iter()
                .chain(result_words(control))
                .chain(causal_words(causal)),
        ),
    ));

    entries.push(("sim/defrag_baseline", defrag(Algorithm::Baseline)));
    entries.push(("sim/defrag_lava", defrag(Algorithm::Lava)));

    let mut stranding_probe = StrandingProbe::new(12, InflationMix::default());
    let stranding = experiment(sim(Algorithm::Lava, PredictorSpec::Oracle))
        .run_with_observers(&mut [&mut stranding_probe]);
    let probe = &stranding_probe.average().expect("stranding report");
    entries.push((
        "sim/stranding_lava",
        fold(
            result_words(&stranding.result)
                .into_iter()
                .chain(stranding_words(probe)),
        ),
    ));

    let recorded = run(sim(Algorithm::Nilas, NOISY_70).record_predictions(true));
    let records = recorded.predictions.iter().flat_map(|r| {
        [
            r.vm.0,
            r.uptime.as_secs(),
            r.predicted.as_secs(),
            r.actual.as_secs(),
        ]
    });
    entries.push((
        "sim/record_predictions_nilas_noisy70",
        fold(
            result_words(&recorded.result)
                .into_iter()
                .chain([recorded.predictions.len() as u64])
                .chain(records),
        ),
    ));

    let outage = run(sim(
        Algorithm::Lava,
        PredictorSpec::Noisy {
            accuracy_pct: 70,
            bias_pct: -50,
        },
    )
    .incidents(IncidentPlan {
        seed: 9,
        incidents: vec![Incident::CellOutage {
            cell: 0,
            hosts: Some(6),
            mode: OutageMode::HardKill,
            at: Duration::from_hours(12),
            recovery: Some(Duration::from_hours(6)),
        }],
    })
    .adaptation(AdaptationSpec {
        recalibration: Some(RecalibrationSpec {
            cadence: Duration::from_hours(4),
            min_samples: 16,
        }),
    }));
    entries.push((
        "sim/hard_kill_recalibrated_lava",
        fold(result_words(&outage.result)),
    ));

    let storms = run(
        sim(Algorithm::Lava, PredictorSpec::Oracle).incidents(IncidentPlan {
            seed: 17,
            incidents: stream_incidents(Duration::from_mins(10)),
        }),
    );
    entries.push((
        "sim/storms_and_drift_shifts_lava",
        fold(result_words(&storms.result)),
    ));

    let least_loaded = |threads| {
        run_fleet_spec(fleet_spec(
            4,
            RouterSpec::LeastLoaded,
            threads,
            sim(Algorithm::Nilas, PredictorSpec::Oracle),
        ))
    };
    let serial = least_loaded(1);
    assert_eq!(
        serial,
        least_loaded(2),
        "fleet diverged across thread counts"
    );
    entries.push(("fleet/four_cells_least_loaded", fold(fleet_words(&serial))));

    let cold_fleet = run_fleet_spec(fleet_spec(
        3,
        RouterSpec::LifetimeAware,
        2,
        sim(Algorithm::Lava, NOISY_70).warmup(Duration::ZERO),
    ));
    entries.push(("fleet/cold_start_lava", fold(fleet_words(&cold_fleet))));
    entries
}

/// One `["name", "digest"]` pair per line, so a diff shows one entry per
/// changed line.
fn render(entries: &BTreeMap<String, String>) -> String {
    let lines: Vec<String> = entries
        .iter()
        .map(|pair| {
            format!(
                "  {}",
                serde_json::to_string(&pair).expect("strings serialize")
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn digests_match_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("tests/golden.json")).expect("golden file");
    let golden: BTreeMap<String, String> = serde_json::from_str(&text).expect("golden JSON");

    let mut actual = BTreeMap::new();
    for (name, spec) in serve_specs() {
        let report = run_serve(&spec).expect("golden spec runs");
        assert!(report.conservation_holds(), "{name}");
        actual.insert(name.to_string(), format!("{:016x}", fold_serve(&report)));
    }
    for (name, digest) in sim_entries() {
        actual.insert(name.to_string(), format!("{digest:016x}"));
    }

    if actual != golden {
        let out = root.join("target/golden.actual.json");
        std::fs::create_dir_all(out.parent().expect("target dir")).expect("create target/");
        std::fs::write(&out, render(&actual)).expect("write actual digests");
        let changed: BTreeSet<&String> = actual
            .keys()
            .chain(golden.keys())
            .filter(|name| actual.get(*name) != golden.get(*name))
            .collect();
        panic!(
            "golden digests differ for {changed:?}; actual digests are in {}",
            out.display()
        );
    }
}
