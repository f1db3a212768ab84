//! Property tests for the fault-tolerant serving tier: 64 chaos-enabled
//! configurations, each asserting (a) the decision digest is bit-identical
//! across reruns, (b) it is bit-identical when runs execute concurrently
//! on different numbers of threads (thread scheduling can never leak into
//! results), and (c) terminal-outcome conservation holds
//! over the extended outcome set (placed + no_capacity + shed +
//! queue_full + deadline_exceeded == offered) with retries and failovers
//! in play.
//!
//! Beside the grid, one pinned outage scenario asserts that the breaker
//! layer earns its keep: with breakers the service places more during a
//! cell outage and recovers its p99 SLO sooner than without.

use lava_core::latency::LatencyHistogram;
use lava_core::serve::Micros;
use lava_core::time::Duration;
use lava_sched::Algorithm;
use lava_serve::{run_serve, EpochStats, ServeReport};
use lava_sim::arrivals::{BreakerConfig, ServeConfig, ServiceModel};
use lava_sim::chaos::{DegradedPredictor, Incident, IncidentPlan, OutageMode};
use lava_sim::experiment::{Experiment, ExperimentSpec, PredictorSpec};
use lava_sim::workload::{LifetimeMode, VmCategory};
use lava_sim::{FleetConfig, RouterSpec};
use std::sync::Mutex;

const SEEDS: u64 = 16;
const VARIANTS: u64 = 4;

/// A deliberately slow decision server (~500 decisions/s) offered ~2× its
/// capacity for 20 virtual seconds, under one of four chaos shapes.
fn chaos_spec(seed: u64, variant: u64) -> ExperimentSpec {
    let slow = ServiceModel {
        base_decision_us: 2000,
        per_host_ns: 500,
        per_vm_ns: 100,
    };
    let serve = match variant {
        // Breakers + deadline + retries: expiry and re-queue paths.
        0 => ServeConfig::at_rate(1000.0)
            .with_service(slow)
            .with_deadline(Micros::from_millis(80))
            .with_retry_budget(2)
            .with_breakers(BreakerConfig::default()),
        // Breakers + epoch series, storm-heavy load.
        1 => ServeConfig::at_rate(800.0)
            .with_service(slow)
            .with_breakers(BreakerConfig::default())
            .with_epoch(Micros::from_secs(1)),
        // No health layer at all: the pre-fault-tolerance engine under the
        // same incidents.
        2 => ServeConfig::at_rate(1000.0)
            .with_service(slow)
            .with_deadline(Micros::from_millis(60)),
        // Aggressive breakers + retries, degradation + drift incidents.
        _ => ServeConfig::at_rate(900.0)
            .with_service(slow)
            .with_retry_budget(3)
            .with_breakers(BreakerConfig {
                failure_threshold: 3,
                base_backoff_us: 10_000,
                max_backoff_us: 200_000,
                jitter: 0.2,
            }),
    };
    let incidents = match variant {
        0 | 1 => vec![
            Incident::CellOutage {
                cell: 1,
                hosts: None,
                mode: if variant == 0 {
                    OutageMode::Drain
                } else {
                    OutageMode::HardKill
                },
                at: Duration::from_secs(5),
                recovery: Some(Duration::from_secs(8)),
            },
            Incident::ArrivalStorm {
                at: Duration::from_secs(6),
                duration: Duration::from_secs(4),
                vms: 200,
                cores: None,
                lifetime: Some(Duration::from_secs(120)),
            },
        ],
        2 => vec![Incident::CellOutage {
            cell: 0,
            hosts: Some(4),
            mode: OutageMode::Drain,
            at: Duration::from_secs(4),
            recovery: Some(Duration::from_secs(10)),
        }],
        _ => vec![
            Incident::PredictorDegradation {
                degraded: DegradedPredictor::Stale,
                at: Duration::from_secs(3),
                recovery: Some(Duration::from_secs(9)),
            },
            Incident::DriftShift {
                at: Duration::from_secs(10),
                lifetime_scale: 0.5,
            },
        ],
    };
    let mut spec = Experiment::builder()
        .name("serve-chaos-prop")
        .hosts(32)
        .duration(Duration::from_secs(20))
        .seed(seed)
        .predictor(PredictorSpec::Oracle)
        .algorithm(Algorithm::Nilas)
        .serve(serve)
        .build()
        .expect("valid spec");
    spec.fleet = Some(FleetConfig::new(4).with_router(RouterSpec::Hash));
    spec.incidents = IncidentPlan {
        seed: seed ^ 0xc4a05,
        incidents,
    };
    spec.validate().expect("chaos spec validates");
    spec
}

fn run_case(seed: u64, variant: u64) -> ServeReport {
    run_serve(&chaos_spec(seed, variant)).expect("chaos run succeeds")
}

#[test]
fn chaos_digests_replay_across_reruns_and_conservation_holds() {
    let mut digests = Vec::new();
    for seed in 0..SEEDS {
        for variant in 0..VARIANTS {
            let first = run_case(seed, variant);
            let second = run_case(seed, variant);
            assert_eq!(
                first.decision_digest, second.decision_digest,
                "seed {seed} variant {variant}: rerun digest drift"
            );
            assert_eq!(first.offered, second.offered);
            assert_eq!(first.placed, second.placed);
            assert_eq!(first.retried, second.retried);
            assert_eq!(first.failovers, second.failovers);
            assert!(
                first.conservation_holds(),
                "seed {seed} variant {variant}: {} != {} + {} + {} + {} + {}",
                first.offered,
                first.placed,
                first.no_capacity,
                first.shed,
                first.queue_full,
                first.deadline_exceeded
            );
            // Terminal decisions — and only those — report a latency.
            assert_eq!(first.latency.count(), first.placed + first.no_capacity);
            digests.push(first.decision_digest);
        }
    }
    // The 64 cases are genuinely distinct scenarios, not one digest
    // repeated: virtually all must differ.
    digests.sort_unstable();
    digests.dedup();
    assert!(
        digests.len() as u64 >= SEEDS * VARIANTS - 2,
        "digest collisions: {} distinct of {}",
        digests.len(),
        SEEDS * VARIANTS
    );
}

#[test]
fn chaos_digests_are_identical_across_worker_thread_counts() {
    // Sample one seed per variant (the rerun test above covers the full
    // grid serially); here the same case runs concurrently on 2 and 4
    // threads, twice per thread, and every execution context must produce
    // the identical digest.
    for variant in 0..VARIANTS {
        let seed = 41 + variant;
        let serial = run_case(seed, variant);
        for workers in [2usize, 4] {
            let digests: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for thread in 0..workers {
                    let digests = &digests;
                    scope.spawn(move || {
                        for round in 0..2 {
                            let report = run_case(seed, variant);
                            let job = (thread * 2 + round) as u64;
                            digests.lock().unwrap().push((job, report.decision_digest));
                        }
                    });
                }
            });
            let digests = digests.into_inner().unwrap();
            assert_eq!(digests.len(), workers * 2);
            for (job, digest) in digests {
                assert_eq!(
                    digest, serial.decision_digest,
                    "variant {variant}, {workers} threads, job {job}: \
                     digest diverged from the serial run"
                );
            }
        }
    }
}

/// The outage scenario's epoch windows (1 epoch = 1 virtual second):
/// `[0, OUTAGE)` steady, `[OUTAGE, RECOVER)` the incident, `[RECOVER,
/// HORIZON)` recovery.
const HORIZON_SECS: u64 = 45;
const OUTAGE_SECS: u64 = 15;
const RECOVER_SECS: u64 = 30;

/// 768 hosts in 4 hash-routed cells at 0.7× a fixed 2 ms decision server
/// (500/s, independent of fleet size), with deadlines and a retry budget,
/// on a short-lived mix (45 s median lifetimes, 2-core shapes) so the pool
/// reaches equilibrium inside the horizon. Cell 1 drains at 15 s and
/// recovers at 30 s while a 500-VM storm lands on the freshly dead cell.
/// The hash router keeps sending cell-1 traffic there, so without breakers
/// the service burns its retry budget against the dead cell.
fn outage_spec(breakers: bool) -> ExperimentSpec {
    let service = ServiceModel {
        base_decision_us: 2000,
        per_host_ns: 0,
        per_vm_ns: 0,
    };
    let mut serve = ServeConfig::at_rate(service.capacity_per_sec(768 / 4, 0) * 0.7)
        .with_service(service)
        .with_queue_bound(4096)
        .with_deadline(Micros::from_secs(2))
        .with_retry_budget(2)
        .with_epoch(Micros::from_secs(1));
    if breakers {
        serve = serve.with_breakers(BreakerConfig::default());
    }
    let seed = 42;
    let mut spec = Experiment::builder()
        .name("serve-chaos")
        .hosts(768)
        .duration(Duration::from_secs(HORIZON_SECS))
        .seed(seed)
        .predictor(PredictorSpec::Oracle)
        .algorithm(Algorithm::Nilas)
        .fleet(FleetConfig::new(4).with_router(RouterSpec::Hash))
        .serve(serve)
        .build()
        .expect("valid serve spec");
    spec.workload.categories = vec![VmCategory {
        category_id: 1,
        arrival_weight: 1.0,
        lifetime_modes: vec![LifetimeMode {
            weight: 1.0,
            median_hours: 45.0 / 3600.0,
            sigma_log10: 0.15,
        }],
        shapes: vec![(2, 8)],
        ssd_probability: 0.0,
        spot: false,
    }];
    spec.workload.initial_fill_fraction = 0.0;
    spec.incidents = IncidentPlan {
        seed: seed ^ 0x0bad_ce11,
        incidents: vec![
            Incident::CellOutage {
                cell: 1,
                hosts: None,
                mode: OutageMode::Drain,
                at: Duration::from_secs(OUTAGE_SECS),
                recovery: Some(Duration::from_secs(RECOVER_SECS - OUTAGE_SECS)),
            },
            Incident::ArrivalStorm {
                at: Duration::from_secs(OUTAGE_SECS),
                duration: Duration::from_secs(5),
                vms: 500,
                cores: None,
                lifetime: Some(Duration::from_secs(45)),
            },
        ],
    };
    spec.validate().expect("chaos spec validates");
    spec
}

fn epoch_index(epoch: &EpochStats) -> u64 {
    epoch.start.0 / Micros::PER_SEC
}

/// p99 placement latency over the merged epochs in `[from, to)`.
fn phase_p99(report: &ServeReport, from: u64, to: u64) -> f64 {
    let mut merged = LatencyHistogram::new();
    for epoch in &report.epochs {
        if (from..to).contains(&epoch_index(epoch)) {
            merged.merge(&epoch.latency);
        }
    }
    merged.quantile(0.99)
}

/// SLO-recovery accounting for one arm.
struct Recovery {
    /// Requests placed during the incident window.
    outage_placed: u64,
    /// Epochs after the cell recovers until an epoch's p99 re-enters the
    /// steady band (1.5× the pre-incident p99, at least 5 ms above it);
    /// the whole recovery window if none does.
    recovery_epochs: u64,
}

fn recovery_stats(report: &ServeReport) -> Recovery {
    let outage_placed = report
        .epochs
        .iter()
        .filter(|e| (OUTAGE_SECS..RECOVER_SECS).contains(&epoch_index(e)))
        .map(|e| e.placed)
        .sum();
    let pre_p99 = phase_p99(report, 0, OUTAGE_SECS);
    let band_us = (1.5 * pre_p99).max(pre_p99 + 5_000.0);
    let recovery_epochs = report
        .epochs
        .iter()
        .find(|e| epoch_index(e) >= RECOVER_SECS && e.latency.quantile(0.99) <= band_us)
        .map_or(HORIZON_SECS - RECOVER_SECS, |e| {
            epoch_index(e) - RECOVER_SECS
        });
    Recovery {
        outage_placed,
        recovery_epochs,
    }
}

#[test]
fn breakers_beat_breakerless_through_a_cell_outage() {
    let breakerless = run_serve(&outage_spec(false)).expect("breaker-less run");
    let breakers = run_serve(&outage_spec(true)).expect("breaker run");
    for (arm, r) in [("breaker-less", &breakerless), ("breakers", &breakers)] {
        assert!(
            r.conservation_holds(),
            "{arm}: {} != {} + {} + {} + {} + {}",
            r.offered,
            r.placed,
            r.no_capacity,
            r.shed,
            r.queue_full,
            r.deadline_exceeded
        );
        assert_eq!(r.latency.count(), r.placed + r.no_capacity, "{arm}");
    }
    assert!(
        breakers.breaker_trips > 0 && breakers.failovers > 0,
        "the outage must trip breakers and drive failovers"
    );
    let (with, without) = (recovery_stats(&breakers), recovery_stats(&breakerless));
    assert!(
        with.outage_placed > without.outage_placed,
        "failover must place more during the outage: {} vs {}",
        with.outage_placed,
        without.outage_placed
    );
    assert!(
        with.recovery_epochs < without.recovery_epochs,
        "failover must recover the p99 SLO sooner: {} vs {} epochs",
        with.recovery_epochs,
        without.recovery_epochs
    );
    assert!(
        with.recovery_epochs <= 4,
        "the breaker arm took {} epochs to recover its p99 SLO (ceiling 4)",
        with.recovery_epochs
    );
}

#[test]
fn retry_and_expiry_paths_are_exercised_by_the_grid() {
    // The conservation law is only interesting if the extended outcomes
    // actually occur: across the grid, deadline expiries and retries must
    // both show up (variant 0 is built to produce them).
    let mut saw_deadline_exceeded = false;
    let mut saw_retries = false;
    let mut saw_failovers = false;
    for seed in 0..4 {
        let report = run_case(seed, 0);
        saw_deadline_exceeded |= report.deadline_exceeded > 0;
        saw_retries |= report.retried > 0;
        saw_failovers |= report.failovers > 0;
    }
    assert!(saw_deadline_exceeded, "no deadline expiries in variant 0");
    assert!(saw_retries, "no retries in variant 0");
    assert!(saw_failovers, "no failovers in variant 0");
}
