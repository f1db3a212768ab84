//! Integration tests for the streaming discrete-event engine: the
//! pull-based sources, the unified timeline's defrag cadence, and the
//! parallel experiment suite.
//!
//! The load-bearing guarantees:
//!
//! * `StreamingWorkload` emits its events already in canonical order:
//!   `WorkloadGenerator::generate` collects the same stream and sorts it,
//!   and the two agree event for event (property test);
//! * the engine (`drive`) fed by a `StreamingWorkload` — last arrival
//!   unknown until the generator crosses the horizon — produces
//!   bit-identical scheduler counters, rejections and metric samples to
//!   the same run fed by a `TraceSource`, which knows it up front
//!   (property test over seeds/pool shapes/algorithms);
//! * the streaming source's pending-event buffer is bounded by the live
//!   VM population, independent of the horizon length;
//! * defrag triggers routed through the unified timeline drain the same
//!   hosts on the same cadence as the original per-event legacy collector
//!   (regression for the PR 2 tick-drift);
//! * an `ExperimentSuite` is bit-identical per arm regardless of thread
//!   count.

use lava::core::prelude::*;
use lava::model::predictor::OraclePredictor;
use lava::sched::cluster::Cluster;
use lava::sched::scheduler::{Scheduler, SchedulerStats};
use lava::sched::Algorithm;
use lava::sim::defrag::EvacuationCollector;
use lava::sim::experiment::{drive, DriveTiming, Experiment};
use lava::sim::metrics::MetricSeries;
use lava::sim::observer::MetricRecorder;
use lava::sim::suite::ExperimentSuite;
use lava::sim::workload::{PoolConfig, StreamingWorkload, WorkloadGenerator};
use lava::sim::SimObserver;
use proptest::prelude::*;
use std::sync::Arc;

fn config(seed: u64, hosts: usize, hours: u64, utilization: f64) -> PoolConfig {
    PoolConfig {
        hosts,
        duration: Duration::from_hours(hours),
        target_utilization: utilization,
        seed,
        ..PoolConfig::default()
    }
}

/// One steady-state pass of the engine over `source`, set up the way
/// `Experiment::run` sets up a default spec: baseline during a 4 h
/// warm-up, `algorithm` switched in at the boundary, oracle lifetimes.
fn steady_state_drive(
    workload: &PoolConfig,
    algorithm: Algorithm,
    source: &mut dyn EventSource,
) -> (SchedulerStats, u64, MetricSeries) {
    let predictor = Arc::new(OraclePredictor::new());
    let pool = Pool::with_uniform_hosts(workload.pool_id, workload.hosts, workload.host_spec());
    let mut scheduler = Scheduler::new(
        Cluster::new(pool),
        Algorithm::Baseline.build_policy(predictor.clone()),
        predictor.clone(),
    );
    let timing = DriveTiming {
        warmup: Duration::from_hours(4),
        warmup_with_baseline: true,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    };
    let mut metrics = MetricRecorder::new();
    let rejected = drive(
        source,
        &mut scheduler,
        Some(algorithm.build_policy(predictor)),
        &timing,
        &mut [&mut metrics],
    );
    (scheduler.stats(), rejected, metrics.into_series())
}

proptest! {
    #[test]
    fn streaming_source_emits_the_materialized_stream(
        seed in 0u64..100_000,
        hosts in 4usize..32,
        hours in 12u64..72,
        utilization in 0.3f64..0.9,
    ) {
        let config = config(seed, hosts, hours, utilization);
        let trace = WorkloadGenerator::new(config.clone()).generate();
        let mut source = StreamingWorkload::new(config);
        let streamed: Vec<_> = std::iter::from_fn(|| source.next_event()).collect();
        prop_assert_eq!(streamed.len(), trace.events().len());
        // Event-for-event identity, reported by position for debuggability.
        for (i, (s, m)) in streamed.iter().zip(trace.events()).enumerate() {
            prop_assert_eq!(s, m, "streams diverged at event {}", i);
        }
        prop_assert_eq!(
            source.last_arrival_time(),
            Some(trace.last_arrival_time())
        );
    }

    #[test]
    fn streaming_experiment_is_bit_identical_to_materialized(
        seed in 0u64..100_000,
        hosts in 8usize..24,
        hours in 18u64..40,
        algorithm_idx in 0usize..5,
    ) {
        let algorithm = Algorithm::ALL[algorithm_idx % Algorithm::ALL.len()];
        let workload = config(seed, hosts, hours, 0.75);
        let trace = WorkloadGenerator::new(workload.clone()).generate();
        let (stats, rejected, series) =
            steady_state_drive(&workload, algorithm, &mut trace.source());
        let (lazy_stats, lazy_rejected, lazy_series) = steady_state_drive(
            &workload,
            algorithm,
            &mut StreamingWorkload::new(workload.clone()),
        );
        prop_assert!(stats.placed > 0 && !series.is_empty());
        prop_assert_eq!(stats, lazy_stats, "{}: scheduler counters", algorithm);
        prop_assert_eq!(rejected, lazy_rejected, "{}: rejections", algorithm);
        prop_assert_eq!(
            series.samples(),
            lazy_series.samples(),
            "{}: metric samples diverged between sources",
            algorithm
        );
    }
}

#[test]
fn pending_buffer_is_bounded_and_horizon_independent() {
    // The same pool streamed over a 3x longer horizon must not grow the
    // pending buffer: it tracks the live VM population, not the total
    // event count.
    let drain = |days: u64| {
        let mut source = StreamingWorkload::new(PoolConfig {
            hosts: 120,
            duration: Duration::from_days(days),
            ..PoolConfig::small(71)
        });
        let mut events = 0u64;
        while source.next_event().is_some() {
            events += 1;
        }
        (events, source.max_pending_len())
    };
    let (short_events, short_pending) = drain(30);
    let (long_events, long_pending) = drain(90);
    assert!(
        long_events > 200_000,
        "horizon too small to be meaningful: {long_events} events"
    );
    assert!(
        long_events > short_events * 2,
        "long horizon should produce ~3x the events ({short_events} -> {long_events})"
    );
    // Fixed cap: the pending buffer holds the standing population's exits
    // plus one look-ahead arrival — a few hundred events for this pool.
    assert!(
        long_pending < 5_000,
        "pending buffer {long_pending} exceeded the fixed cap"
    );
    // Horizon independence: tripling the event count must leave the peak
    // buffer essentially unchanged (identical prefix => identical peak up
    // to late-horizon noise).
    assert!(
        long_pending <= short_pending.saturating_add(short_pending / 4),
        "pending buffer grew with the horizon: {short_pending} -> {long_pending}"
    );
}

/// The original (pre-experiment-API) defragmentation collector: replays
/// the trace event-by-event with no ticks, checking the drain trigger
/// *before* applying each event once the due time has passed. Returns
/// `(trigger time, drained VM ids)` per drain.
fn legacy_defrag_reference(
    workload: &PoolConfig,
    threshold: f64,
    hosts_per_trigger: usize,
    interval: Duration,
) -> Vec<(SimTime, Vec<VmId>)> {
    let trace = WorkloadGenerator::new(workload.clone()).generate();
    let predictor = Arc::new(OraclePredictor::new());
    let pool = Pool::with_uniform_hosts(workload.pool_id, workload.hosts, workload.host_spec());
    let cluster = Cluster::new(pool);
    let policy = Algorithm::Baseline.build_policy(predictor.clone());
    let mut scheduler = Scheduler::new(cluster, policy, predictor);

    let mut drains = Vec::new();
    let mut rejected = std::collections::BTreeSet::new();
    let mut next_trigger = SimTime::ZERO + interval;
    for event in trace.events() {
        if event.time >= next_trigger {
            next_trigger = event.time + interval;
            let pool = scheduler.cluster().pool();
            if pool.empty_host_fraction() < threshold {
                let mut candidates: Vec<_> = pool
                    .hosts()
                    .filter(|h| !h.is_empty() && !h.is_unavailable())
                    .map(|h| (std::cmp::Reverse(h.free().cpu_milli), h.vm_count(), h.id()))
                    .collect();
                candidates.sort();
                for (_, _, host_id) in candidates.into_iter().take(hosts_per_trigger) {
                    let host = scheduler.cluster().host(host_id).expect("host exists");
                    let vms: Vec<VmId> = host.vm_ids().collect();
                    if !vms.is_empty() {
                        drains.push((event.time, vms));
                    }
                }
            }
        }
        match &event.kind {
            TraceEventKind::Create { vm, spec, lifetime } => {
                let record = Vm::new(*vm, spec.clone(), event.time, *lifetime);
                if scheduler.schedule(record, event.time).is_err() {
                    rejected.insert(*vm);
                }
            }
            TraceEventKind::Exit { vm } => {
                if !rejected.remove(vm) {
                    let _ = scheduler.exit(*vm, event.time);
                }
            }
        }
    }
    drains
}

#[test]
fn timeline_defrag_cadence_matches_the_legacy_per_event_collector() {
    // Regression for the PR 2 tick-drift: the interim collector quantised
    // drain triggers onto the 5-minute tick grid, shifting every trigger
    // by up to one tick (and compounding). The unified timeline fires
    // triggers at their exact due times, which is the same pool state the
    // legacy per-event collector observed (it checked before applying the
    // first event past the due time) — so both must drain the same hosts,
    // with trigger times differing only by the sub-tick gap to the next
    // trace event.
    let workload = PoolConfig {
        hosts: 16,
        target_utilization: 0.85,
        duration: Duration::from_days(2),
        ..PoolConfig::small(5)
    };
    let (threshold, hosts_per_trigger) = (0.5, 2);
    let interval = Duration::from_hours(3);

    let legacy = legacy_defrag_reference(&workload, threshold, hosts_per_trigger, interval);

    // Two collectors on one run see the same timeline triggers.
    let experiment = Experiment::new(
        Experiment::builder()
            .workload(workload)
            .warmup(Duration::ZERO)
            .defrag_every(interval)
            .build()
            .expect("valid spec"),
    )
    .expect("valid spec");
    let mut probe = EvacuationCollector::new(threshold, hosts_per_trigger);
    let mut twin = EvacuationCollector::new(threshold, hosts_per_trigger);
    let mut observers: Vec<&mut dyn SimObserver> = vec![&mut probe, &mut twin];
    experiment.run_with_observers(&mut observers);

    let timeline: Vec<(SimTime, Vec<VmId>)> = probe
        .tasks()
        .iter()
        .map(|t| (t.start, t.vms.iter().map(|v| v.vm).collect()))
        .collect();
    assert!(!timeline.is_empty(), "no drains triggered");
    assert_eq!(probe.tasks(), twin.tasks(), "two collectors diverged");

    // The cadence comparison is meaningful inside the arrival window,
    // where trace events are seconds apart. (Past the last arrival only
    // sparse long-tail exits remain, so the legacy collector's
    // next-event-quantised due times stretch by hours there — the very
    // artefact exact-time triggers remove.)
    let window_end = SimTime::ZERO + Duration::from_days(2);
    let in_window = |drains: &[(SimTime, Vec<VmId>)]| -> Vec<(SimTime, Vec<VmId>)> {
        drains
            .iter()
            .filter(|(at, _)| *at < window_end)
            .cloned()
            .collect()
    };
    let legacy = in_window(&legacy);
    let timeline = in_window(&timeline);
    assert!(legacy.len() > 5, "too few in-window drains to compare");
    assert_eq!(
        legacy.len(),
        timeline.len(),
        "in-window drain counts diverged"
    );

    // The core regression assertion: timeline triggers sit *exactly* on
    // the trigger-interval grid. The interim tick-quantised collector
    // shifted every trigger onto the next 5-minute tick and rescheduled
    // from there, so its trigger times compounded off-grid — exactly what
    // routing triggers through the timeline removes.
    let grid_start = timeline[0].0;
    assert_eq!(grid_start, SimTime::ZERO + interval, "first trigger time");
    for (k, (at, _)) in timeline.iter().enumerate() {
        // Two tasks can share one trigger (hosts_per_trigger = 2), so the
        // grid index is derived from the time itself.
        let offset = at.saturating_since(grid_start).as_secs();
        assert_eq!(
            offset % interval.as_secs(),
            0,
            "drain {k} at {at} is off the exact trigger grid"
        );
    }

    // One-to-one cadence agreement with the legacy per-event collector:
    // drain k pairs with drain k, the timeline firing at the exact due
    // time and the legacy at the first trace event past its (cumulatively
    // event-gap-delayed) due — always after, and by less than one
    // interval, so neither collector ever skips or doubles a trigger the
    // other saw.
    for (i, ((legacy_at, _), (timeline_at, _))) in legacy.iter().zip(&timeline).enumerate() {
        let delta = legacy_at.saturating_since(*timeline_at);
        assert!(
            *timeline_at <= *legacy_at && delta < interval,
            "drain {i}: timeline at {timeline_at}, legacy at {legacy_at}"
        );
    }

    // At the first trigger the due times are one interval in for both
    // collectors and no trace event separates the two checks (the legacy
    // one fires at the first event past the due time, before applying
    // it), so the drained hosts must match exactly.
    assert_eq!(
        legacy[0].1, timeline[0].1,
        "first drain selected different VMs"
    );
}

#[test]
fn suite_is_bit_identical_per_arm_across_thread_counts() {
    let arms = || {
        let specs = [
            (1u64, Algorithm::Nilas),
            (1, Algorithm::Lava),
            (2, Algorithm::Baseline),
            (3, Algorithm::Nilas),
        ]
        .map(|(seed, algorithm)| {
            Experiment::builder()
                .workload(PoolConfig {
                    hosts: 16,
                    duration: Duration::from_days(1),
                    ..PoolConfig::small(seed)
                })
                .warmup(Duration::from_hours(6))
                .algorithm(algorithm)
                .build()
                .expect("valid spec")
        });
        ExperimentSuite::from_specs(specs).expect("valid specs")
    };
    let serial = arms().with_threads(1).run();
    let parallel = arms().with_threads(4).run();
    assert_eq!(serial, parallel, "thread count changed a result");
    // Arms over the same workload share one trace cell.
    let suite = arms();
    assert!(std::ptr::eq(
        suite.experiments()[0].trace(),
        suite.experiments()[1].trace()
    ));
}
