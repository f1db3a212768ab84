//! Integration tests for the fault-injection layer and the adaptation
//! loop, at the experiment-API level.
//!
//! The load-bearing guarantees:
//!
//! * spec JSON with an `incidents` plan and `adaptation` knobs
//!   round-trips, and pre-incident JSON (neither field present) parses to
//!   the defaults;
//! * a spec whose incident plan and adaptation are empty produces a
//!   **bit-identical** report to the same spec run before this layer
//!   existed (the chaos path is only entered when something is scheduled);
//! * chaos runs are deterministic: the same spec produces the same report
//!   twice, and injections provably perturb the run;
//! * a predictor degradation shows up in the live accuracy probe, and the
//!   online recalibrator pulls the error back down;
//! * degenerate plans are rejected through `ExperimentSpec::validate`.

use lava::core::time::Duration;
use lava::sched::Algorithm;
use lava::sim::chaos::DegradedPredictor;
use lava::sim::experiment::{Experiment, ExperimentSpec, SpecError};
use lava::sim::workload::PoolConfig;
use lava::sim::{AdaptationSpec, Incident, IncidentPlan, OutageMode, RecalibrationSpec};

fn base_spec(seed: u64, hosts: usize, hours: u64) -> ExperimentSpec {
    Experiment::builder()
        .name("chaos-test")
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

fn degradation(at_hours: u64, recovery_hours: Option<u64>) -> Incident {
    Incident::PredictorDegradation {
        degraded: DegradedPredictor::Biased { bias_pct: -90 },
        at: Duration::from_hours(at_hours),
        recovery: recovery_hours.map(Duration::from_hours),
    }
}

#[test]
fn incident_spec_json_round_trips_and_pre_incident_json_parses() {
    let mut spec = base_spec(3, 16, 24);
    spec.incidents = IncidentPlan {
        seed: 99,
        incidents: vec![
            Incident::CellOutage {
                cell: 0,
                hosts: Some(4),
                mode: OutageMode::HardKill,
                at: Duration::from_hours(6),
                recovery: Some(Duration::from_hours(3)),
            },
            degradation(10, Some(4)),
            Incident::DriftShift {
                at: Duration::from_hours(12),
                lifetime_scale: 3.0,
            },
            Incident::ArrivalStorm {
                at: Duration::from_hours(14),
                duration: Duration::from_mins(30),
                vms: 50,
                cores: None,
                lifetime: None,
            },
        ],
    };
    spec.adaptation = AdaptationSpec {
        recalibration: Some(RecalibrationSpec {
            cadence: Duration::from_hours(2),
            min_samples: 8,
        }),
    };
    spec.validate().expect("valid incident spec");
    let json = spec.to_json().expect("serializes");
    let back = ExperimentSpec::from_json(&json).expect("parses");
    assert_eq!(back, spec, "incident spec must round-trip");

    // Pre-incident JSON has neither field; both must default to empty.
    let plain = base_spec(3, 16, 24);
    let stripped = plain
        .to_json()
        .expect("serializes")
        .replace(",\"incidents\":{\"seed\":0,\"incidents\":[]}", "")
        .replace(",\"adaptation\":{\"recalibration\":null}", "");
    assert!(
        !stripped.contains("\"incidents\"") && !stripped.contains("\"adaptation\""),
        "test setup failed to strip the chaos fields"
    );
    let parsed = ExperimentSpec::from_json(&stripped).expect("pre-incident JSON parses");
    assert_eq!(parsed, plain);
    assert!(parsed.incidents.is_empty());
    assert!(parsed.adaptation.is_empty());
}

#[test]
fn empty_plan_is_bit_identical_to_the_plain_engine() {
    let plain = Experiment::new(base_spec(17, 20, 30)).expect("valid").run();
    // Same spec, explicitly-set (but empty) chaos fields: a non-zero plan
    // seed matters only to scheduled injections, of which there are none.
    let mut spec = base_spec(17, 20, 30);
    spec.incidents = IncidentPlan {
        seed: 0xdead_beef,
        incidents: Vec::new(),
    };
    spec.adaptation = AdaptationSpec::default();
    let chaos = Experiment::new(spec).expect("valid").run();
    assert_eq!(
        plain.result, chaos.result,
        "an empty incident plan must not perturb the run"
    );
}

#[test]
fn chaos_runs_are_deterministic_and_injections_perturb_the_run() {
    let baseline = Experiment::new(base_spec(23, 18, 30)).expect("valid").run();
    let build = || {
        let mut spec = base_spec(23, 18, 30);
        spec.incidents = IncidentPlan {
            seed: 7,
            incidents: vec![
                Incident::CellOutage {
                    cell: 0,
                    hosts: Some(6),
                    mode: OutageMode::HardKill,
                    at: Duration::from_hours(8),
                    recovery: Some(Duration::from_hours(6)),
                },
                Incident::ArrivalStorm {
                    at: Duration::from_hours(16),
                    duration: Duration::from_hours(1),
                    vms: 120,
                    cores: Some(2),
                    lifetime: Some(Duration::from_hours(2)),
                },
            ],
        };
        spec
    };
    let first = Experiment::new(build()).expect("valid").run();
    let second = Experiment::new(build()).expect("valid").run();
    assert_eq!(first.result, second.result, "chaos runs must be replayable");
    assert_ne!(
        baseline.result, first.result,
        "a hard-kill outage plus a 120-VM storm must perturb the run"
    );
    // The storm's extra creations flow through the scheduler: strictly
    // more placement work than the incident-free run.
    let attempts = |r: &lava::sim::metrics::SimulationResult| {
        r.scheduler_stats.placed + r.scheduler_stats.failed + r.rejected_vms
    };
    assert!(
        attempts(&first.result) > attempts(&baseline.result),
        "storm arrivals never reached the scheduler"
    );
}

#[test]
fn degradation_is_visible_in_the_probe_and_recalibration_recovers() {
    // Oracle predictions are exact, so the live accuracy probe reads ~0
    // until the biased degradation lands at hour 10 (no recovery) — then
    // every prediction is 10× short, a +1.0 error in log10 space. The
    // hourly recalibrator observes the residuals at exits and shifts the
    // live model back; by the final quarter of the run the error must have
    // dropped well below the incident's first hours.
    let mut spec = base_spec(31, 16, 48);
    spec.incidents = IncidentPlan {
        seed: 1,
        incidents: vec![degradation(10, None)],
    };
    spec.adaptation = AdaptationSpec {
        recalibration: Some(RecalibrationSpec {
            cadence: Duration::from_hours(1),
            min_samples: 8,
        }),
    };
    let report = Experiment::new(spec).expect("valid").run();
    let series = &report.result.series;
    assert!(!series.is_empty());

    let hour = |h: u64| lava::core::time::SimTime::ZERO + Duration::from_hours(h);
    let before = series.between(hour(4), hour(10)).mean_abs_log10_error();
    let after = series.between(hour(36), hour(48)).mean_abs_log10_error();
    assert!(
        before < 0.1,
        "oracle predictions should probe near-zero error, got {before}"
    );

    // The frozen arm of the same incident: no recalibration, so the probe
    // shows the raw, uncorrected degradation for the rest of the run.
    let mut frozen = base_spec(31, 16, 48);
    frozen.incidents = IncidentPlan {
        seed: 1,
        incidents: vec![degradation(10, None)],
    };
    let frozen_report = Experiment::new(frozen).expect("valid").run();
    let frozen_during = frozen_report
        .result
        .series
        .between(hour(10), hour(14))
        .mean_abs_log10_error();
    let frozen_after = frozen_report
        .result
        .series
        .between(hour(36), hour(48))
        .mean_abs_log10_error();
    assert!(
        frozen_during > 0.5,
        "a -90% bias must register in the live probe, got {frozen_during}"
    );
    assert!(
        after < frozen_during / 2.0,
        "recalibration failed to recover: raw degradation={frozen_during}, adaptive after={after}"
    );
    assert!(
        frozen_after > after,
        "without recalibration the error must stay higher: frozen={frozen_after}, adaptive={after}"
    );
}

#[test]
fn degenerate_plans_are_rejected_through_spec_validation() {
    let reject = |incidents: Vec<Incident>, expected: SpecError| {
        let mut spec = base_spec(1, 12, 24);
        spec.incidents = IncidentPlan { seed: 0, incidents };
        assert_eq!(spec.validate().unwrap_err(), expected);
    };
    reject(
        vec![Incident::CellOutage {
            cell: 0,
            hosts: Some(0),
            mode: OutageMode::Drain,
            at: Duration::from_hours(1),
            recovery: None,
        }],
        SpecError::ZeroDurationIncident { index: 0 },
    );
    // Single-cluster runs have exactly one cell: cell 1 is out of range.
    reject(
        vec![Incident::CellOutage {
            cell: 1,
            hosts: None,
            mode: OutageMode::Drain,
            at: Duration::from_hours(1),
            recovery: None,
        }],
        SpecError::IncidentCellOutOfRange { index: 0 },
    );
    reject(
        vec![degradation(2, Some(10)), degradation(5, Some(2))],
        SpecError::OverlappingIncidents {
            first: 0,
            second: 1,
        },
    );
    reject(
        vec![Incident::DriftShift {
            at: Duration::from_hours(1),
            lifetime_scale: 0.0,
        }],
        SpecError::InvalidDriftScale { index: 0 },
    );
}
