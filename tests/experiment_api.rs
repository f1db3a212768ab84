//! Integration tests for the declarative experiment API: spec
//! serialisation and validation, observer composition, and
//! reproduce-from-JSON guarantees.

use lava::core::host::HostId;
use lava::core::time::{Duration, SimTime};
use lava::core::vm::VmId;
use lava::sched::Algorithm;
use lava::sim::experiment::{
    CachePolicy, Cadence, Experiment, ExperimentSpec, PolicySpec, PredictorSpec, SpecError,
};
use lava::sim::observer::{MetricRecorder, ObserverContext, SimObserver};
use lava::sim::workload::PoolConfig;

fn tiny_spec(seed: u64) -> ExperimentSpec {
    Experiment::builder()
        .name("integration-tiny")
        .workload(PoolConfig {
            hosts: 24,
            duration: Duration::from_days(2),
            seed,
            ..PoolConfig::default()
        })
        .warmup(Duration::from_hours(6))
        .algorithm(Algorithm::Nilas)
        .build()
        .expect("valid spec")
}

/// A test-local observer: placements per controlling-policy segment (a
/// new segment starts whenever `ctx.policy` changes) and every sample's
/// `(time, empty_host_fraction)`.
#[derive(Debug, Default, PartialEq)]
struct PlacementTally {
    segments: Vec<(String, u64)>,
    samples: Vec<(SimTime, f64)>,
}

impl PlacementTally {
    fn placed(&self) -> u64 {
        self.segments.iter().map(|(_, placed)| placed).sum()
    }
}

impl SimObserver for PlacementTally {
    fn on_placed(&mut self, ctx: &ObserverContext<'_>, _vm: VmId, _host: HostId) {
        match self.segments.last_mut() {
            Some((policy, placed)) if policy == ctx.policy => *placed += 1,
            _ => self.segments.push((ctx.policy.to_string(), 1)),
        }
    }

    fn on_sample(&mut self, ctx: &ObserverContext<'_>) {
        self.samples
            .push((ctx.now, ctx.cluster.pool().empty_host_fraction()));
    }
}

#[test]
fn spec_round_trips_through_json_for_every_cadence_setting() {
    let steady = Cadence::default();
    let cadences = [
        steady,
        // Cold start.
        Cadence {
            warmup: Duration::ZERO,
            ..steady
        },
        // A pre/post arm.
        Cadence {
            sample_during_warmup: true,
            ..steady
        },
        // A defragmentation study.
        Cadence {
            warmup: Duration::ZERO,
            defrag_trigger: Some(Duration::from_hours(4)),
            ..steady
        },
    ];
    for cadence in cadences {
        let mut spec = tiny_spec(5);
        spec.cadence = cadence;
        spec.policy = PolicySpec::new(Algorithm::Lava)
            .with_cache(CachePolicy::RefreshSecs(120))
            .labeled("lava-2m");
        spec.predictor = PredictorSpec::Noisy {
            accuracy_pct: 85,
            bias_pct: 0,
        };
        spec.record_predictions = true;
        let json = spec.to_json().expect("spec serializes");
        let parsed = ExperimentSpec::from_json(&json).expect("spec parses");
        assert_eq!(parsed, spec, "round-trip changed the spec");
    }
    // Spec JSON from before the two timeline settings parses to defaults.
    let json = tiny_spec(5).to_json().expect("spec serializes");
    let older = json.replace(
        ",\"sample_during_warmup\":false,\"defrag_trigger\":null",
        "",
    );
    assert_ne!(older, json, "test setup failed to strip the cadence fields");
    assert_eq!(
        ExperimentSpec::from_json(&older).expect("parses"),
        tiny_spec(5)
    );
}

#[test]
fn validation_rejects_degenerate_specs() {
    let mut zero_hosts = tiny_spec(1);
    zero_hosts.workload.hosts = 0;
    assert_eq!(zero_hosts.validate().unwrap_err(), SpecError::ZeroHosts);
    assert!(Experiment::new(zero_hosts).is_err());

    let mut zero_horizon = tiny_spec(1);
    zero_horizon.workload.duration = Duration::ZERO;
    assert_eq!(zero_horizon.validate().unwrap_err(), SpecError::ZeroHorizon);

    // A degenerate spec parsed from JSON is still rejected at run time.
    let mut from_json = tiny_spec(1);
    from_json.workload.hosts = 0;
    let json = from_json.to_json().expect("serializes");
    let parsed = ExperimentSpec::from_json(&json).expect("parses");
    assert_eq!(Experiment::new(parsed).unwrap_err(), SpecError::ZeroHosts);
}

/// A spec that validates always finishes: a category the generator
/// cannot draw a VM from (no shapes, no lifetime modes, or modes of zero
/// total weight) is a typed error naming it, not a panic in the generator.
#[test]
fn a_category_the_generator_cannot_draw_from_is_rejected() {
    let run = |edit: &dyn Fn(&mut PoolConfig)| {
        let mut workload = tiny_spec(1).workload;
        edit(&mut workload);
        Experiment::builder().workload(workload).run().map(|_| ())
    };
    let second = PoolConfig::default().categories[1].category_id;
    let cases: [&dyn Fn(&mut PoolConfig); 3] = [
        &|w| w.categories[1].shapes.clear(),
        &|w| w.categories[1].lifetime_modes.clear(),
        &|w| {
            for m in &mut w.categories[1].lifetime_modes {
                m.weight = 0.0;
            }
        },
    ];
    for edit in cases {
        assert_eq!(
            run(edit).unwrap_err(),
            SpecError::EmptyCategory {
                category_id: second
            }
        );
    }
    let no_weight = |w: &mut PoolConfig| {
        for c in &mut w.categories {
            c.arrival_weight = 0.0;
        }
    };
    assert_eq!(run(&no_weight).unwrap_err(), SpecError::EmptyWorkloadMix);
    assert!(run(&|_| ()).is_ok());
}

#[test]
fn two_observers_see_identical_event_streams() {
    let experiment = Experiment::new(tiny_spec(11)).expect("valid spec");
    let mut first = PlacementTally::default();
    let mut second = PlacementTally::default();
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut first, &mut second];
    let report = experiment.run_with_observers(&mut observers);
    assert!(!first.segments.is_empty(), "observers saw no events");
    assert_eq!(first, second, "composed observers diverged on the same run");
    // The stream agrees with the built-in collection: every placement and
    // every metric sample was seen once.
    assert_eq!(first.placed(), report.result.scheduler_stats.placed);
    assert_eq!(first.samples.len(), report.result.series.len());
}

#[test]
fn heterogeneous_observers_agree_with_builtin_series() {
    let experiment = Experiment::new(tiny_spec(13)).expect("valid spec");
    let mut series = MetricRecorder::new();
    let mut tally = PlacementTally::default();
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut series, &mut tally];
    let report = experiment.run_with_observers(&mut observers);

    // The extra MetricRecorder saw exactly the samples the built-in one did.
    assert_eq!(series.series(), &report.result.series);
    // The tally sampled the same points and read the same fractions.
    assert_eq!(tally.samples.len(), report.result.series.len());
    for (&(at, fraction), sample) in tally.samples.iter().zip(report.result.series.samples()) {
        assert_eq!(at, sample.time);
        assert_eq!(fraction, sample.empty_host_fraction);
    }
    // Per-policy counters add up to the scheduler totals.
    assert_eq!(tally.placed(), report.result.scheduler_stats.placed);
    assert_eq!(tally.segments.len(), 2, "warm-up + evaluated policy");
}

#[test]
fn extra_observers_see_the_run() {
    let experiment = Experiment::new(tiny_spec(3)).expect("valid spec");
    let mut tally = PlacementTally::default();
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut tally];
    let report = experiment.run_with_observers(&mut observers);
    // The warm-up policy places first, then the evaluated one takes over
    // (a segment opens only on a placement, so both placed at least once).
    let policies: Vec<&str> = tally.segments.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(policies, ["waste-min", "nilas"]);
    assert_eq!(tally.placed(), report.result.scheduler_stats.placed);
}

#[test]
fn json_spec_reproduces_identical_results() {
    let spec = tiny_spec(17);
    let first = Experiment::new(spec.clone()).expect("valid").run();
    let json = spec.to_json().expect("serializes");
    let replayed = Experiment::new(ExperimentSpec::from_json(&json).expect("parses"))
        .expect("valid")
        .run();
    assert_eq!(first.result, replayed.result, "replay diverged");
    assert_eq!(first, replayed, "full report diverged");
}

#[test]
fn spec_json_from_before_the_scan_knob_was_removed_still_runs() {
    // Specs written up to PR 16 carry `"scan"` in every policy; the key is
    // ignored and the run is the default spec's.
    let mut spec = tiny_spec(23);
    spec.policy = PolicySpec::new(Algorithm::Lava);
    let json = spec.to_json().expect("serializes");
    let with_scan = json.replace("\"cache\"", "\"scan\":\"Linear\",\"cache\"");
    assert_ne!(with_scan, json, "the policy's first kept key moved");
    // Specs written up to PR 18 may also carry the removed `"source"` mode;
    // a spec that asked for `Streaming` now replays its trace, to the same
    // result.
    let with_source = json.replace("\"fleet\"", "\"source\":\"Streaming\",\"fleet\"");
    assert_ne!(with_source, json, "the key after `cadence` moved");
    let new = Experiment::new(spec.clone()).expect("valid").run();
    for old_json in [with_scan, with_source] {
        let parsed = ExperimentSpec::from_json(&old_json).expect("old spec parses");
        assert_eq!(parsed, spec);
        let old = Experiment::new(parsed).expect("valid").run();
        assert_eq!(old.result, new.result);
    }
}

#[test]
fn spec_json_naming_the_removed_learned_fast_variant_is_rejected() {
    // `Learned` is the one spelling of the learned model (and serves the
    // compiled engine `LearnedFast` used to select); the old name is an
    // unknown variant, not an alias. Likewise `RefreshSecs(0)` is the one
    // spelling of "no exit-time cache": the removed `Disabled` is unknown.
    let mut spec = tiny_spec(23);
    spec.predictor = PredictorSpec::Learned;
    let json = spec.to_json().expect("serializes");
    assert_eq!(ExperimentSpec::from_json(&json).expect("parses"), spec);
    for (current, removed, old) in [
        ("\"Learned\"", "LearnedFast", "\"LearnedFast\""),
        (
            "\"cache\":\"Default\"",
            "Disabled",
            "\"cache\":\"Disabled\"",
        ),
    ] {
        let old_json = json.replace(current, old);
        assert_ne!(old_json, json, "{current} is no longer in the spec JSON");
        let error = ExperimentSpec::from_json(&old_json).expect_err("removed variant");
        assert!(
            error
                .to_string()
                .contains(&format!("unknown variant `{removed}`")),
            "unexpected error: {error}"
        );
    }
}

#[test]
fn cold_start_and_steady_state_differ_only_in_warmup() {
    let mut spec = tiny_spec(29);
    spec.cadence.warmup = Duration::ZERO;
    let cold = Experiment::new(spec.clone()).expect("valid").run();
    assert_eq!(cold.result.series.samples()[0].time, SimTime::ZERO);
    spec.cadence.warmup = Duration::from_hours(6);
    let steady = Experiment::new(spec).expect("valid").run();
    assert!(
        steady.result.series.samples()[0].time >= SimTime::ZERO + Duration::from_hours(6),
        "steady state must not sample during warm-up"
    );
}
