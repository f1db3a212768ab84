//! Golden decision digests: each entry is one quick serving spec whose
//! report folds to a 64-bit digest recorded in `tests/golden.json`.
//!
//! The digest covers the run's decision digest plus every terminal and
//! non-terminal counter, so any change that moves one decision, one
//! counter or their order shows up as a changed entry. On a mismatch the
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
use lava::sim::chaos::{DegradedPredictor, Incident, IncidentPlan, OutageMode};
use lava::sim::experiment::{Experiment, ExperimentSpec, PredictorSpec};
use lava::sim::fleet::{FleetConfig, RouterSpec};
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

/// The report's decision digest folded with every outcome counter.
fn fold(r: &ServeReport) -> u64 {
    [
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
    ]
    .into_iter()
    .fold(0, |acc, x| mix64(acc ^ mix64(x)))
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
fn serve_digests_match_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("tests/golden.json")).expect("golden file");
    let golden: BTreeMap<String, String> = serde_json::from_str(&text).expect("golden JSON");

    let mut actual = golden.clone();
    actual.retain(|name, _| !name.starts_with("serve/"));
    for (name, spec) in serve_specs() {
        let report = run_serve(&spec).expect("golden spec runs");
        assert!(report.conservation_holds(), "{name}");
        actual.insert(name.to_string(), format!("{:016x}", fold(&report)));
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
