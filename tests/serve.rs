//! Integration tests for the serving tier: arrival-stream determinism
//! (including across spawned threads), mean-rate normalisation of the
//! inhomogeneous processes, spec backward compatibility, validation,
//! end-to-end serving determinism with backpressure, and behaviour past
//! saturation.
//!
//! The load-bearing guarantees:
//!
//! * an [`ArrivalGenerator`] stream is a pure function of (workload
//!   config, process, rate): same seed ⇒ bit-identical requests, no
//!   matter which thread generates them (64 randomized cases);
//! * `Burst` and `Diurnal` are rate-normalised — their mean offered rate
//!   matches the configured target within sampling tolerance;
//! * pre-serve `ExperimentSpec` JSON (no `serve` field) still parses and
//!   round-trips;
//! * degenerate serve configs are rejected at validation, not at run
//!   time;
//! * `run_serve` replays bit-identically (decision digest) and its
//!   backpressure counters conserve every offered request;
//! * goodput at twice the nominal decision capacity stays at least half
//!   of goodput at capacity, and under a burst storm depth shedding beats
//!   naive FIFO on p99 placement latency.

use lava::core::serve::Micros;
use lava::core::time::Duration;
use lava::sched::Algorithm;
use lava::serve::run_serve;
use lava::sim::arrivals::{
    AdmissionPolicy, ArrivalGenerator, ArrivalProcess, ServeConfig, ServiceModel,
};
use lava::sim::experiment::{Experiment, ExperimentSpec, PredictorSpec, SpecError};
use lava::sim::fleet::{FleetConfig, RouterSpec};
use lava::sim::workload::{PoolConfig, WorkloadGenerator};
use proptest::prelude::*;

fn serve_spec(seed: u64, serve: ServeConfig) -> ExperimentSpec {
    Experiment::builder()
        .name("serve-integration")
        .hosts(16)
        .duration(Duration::from_secs(20))
        .seed(seed)
        .predictor(PredictorSpec::Oracle)
        .algorithm(Algorithm::Nilas)
        .serve(serve)
        .build()
        .expect("valid serve spec")
}

/// A service model slow enough (~500 decisions/s) that modest offered
/// rates exercise queueing and admission control in debug builds.
fn slow_service() -> ServiceModel {
    ServiceModel {
        base_decision_us: 2000,
        per_host_ns: 500,
        per_vm_ns: 100,
    }
}

#[test]
fn pre_serve_spec_json_round_trips() {
    let spec = Experiment::builder()
        .name("pre-serve")
        .workload(PoolConfig::small(7))
        .build()
        .expect("valid spec");
    assert!(spec.serve.is_none());

    // A pre-serve spec JSON has no `serve` key at all; serde-defaulting
    // must fill in `None` and the parsed spec must round-trip.
    let json = spec.to_json().expect("serializes");
    let pre_serve_json = json.replace(",\"serve\":null", "");
    assert!(
        !pre_serve_json.contains("\"serve\":"),
        "test setup failed to strip the serve field"
    );
    let parsed = ExperimentSpec::from_json(&pre_serve_json).expect("pre-serve JSON parses");
    assert_eq!(parsed, spec, "pre-serve JSON must round-trip");
}

#[test]
fn serve_config_round_trips_through_spec_json() {
    let serve = ServeConfig::at_rate(250.0)
        .with_queue_bound(64)
        .with_admission(AdmissionPolicy::LifetimeShed {
            shed_threshold: 32,
            min_predicted: Duration::from_hours(6),
        })
        .with_arrival(ArrivalProcess::Diurnal {
            period: Duration::from_hours(24),
            amplitude: 0.5,
        })
        .with_service(slow_service());
    let spec = serve_spec(3, serve);
    let parsed =
        ExperimentSpec::from_json(&spec.to_json().expect("serializes")).expect("parses back");
    assert_eq!(parsed, spec);
    assert_eq!(parsed.serve, spec.serve);
}

#[test]
fn validation_rejects_degenerate_serve_configs() {
    let reject = |serve: ServeConfig, expected: SpecError| {
        let mut spec = serve_spec(1, ServeConfig::default());
        spec.serve = Some(serve);
        assert_eq!(spec.validate(), Err(expected));
    };
    reject(
        ServeConfig::default().with_queue_bound(0),
        SpecError::ServeZeroQueueBound,
    );
    reject(ServeConfig::at_rate(0.0), SpecError::ServeZeroTargetRate);
    reject(
        ServeConfig::default()
            .with_queue_bound(8)
            .with_admission(AdmissionPolicy::DepthShed { shed_threshold: 8 }),
        SpecError::ServeShedThresholdTooHigh,
    );
    reject(
        ServeConfig::default().with_arrival(ArrivalProcess::Burst {
            period: Duration::from_secs(10),
            burst_len: Duration::from_secs(10),
            amplitude: 4.0,
        }),
        SpecError::ServeInvalidArrival,
    );
}

#[test]
fn serve_run_replays_bit_identically() {
    let spec = serve_spec(42, ServeConfig::at_rate(800.0).with_service(slow_service()));
    let first = run_serve(&spec).expect("first run");
    let second = run_serve(&spec).expect("second run");
    assert_eq!(first.decision_digest, second.decision_digest);
    assert_eq!(first.offered, second.offered);
    assert_eq!(first.placed, second.placed);
    assert_eq!(first.latency.count(), second.latency.count());

    let other = run_serve(&serve_spec(
        43,
        ServeConfig::at_rate(800.0).with_service(slow_service()),
    ))
    .expect("other seed");
    assert_ne!(
        first.decision_digest, other.decision_digest,
        "different seeds must produce different decision sequences"
    );
}

#[test]
fn backpressure_conserves_every_offered_request() {
    // Overloaded FIFO with a tiny queue: the physical bound must reject,
    // and every offered request must be accounted for exactly once.
    let fifo = run_serve(&serve_spec(
        9,
        ServeConfig::at_rate(1500.0)
            .with_service(slow_service())
            .with_queue_bound(16),
    ))
    .expect("fifo run");
    assert!(fifo.queue_full > 0, "overload must hit the queue bound");
    assert_eq!(fifo.shed, 0, "FIFO never sheds");
    assert_eq!(fifo.queue_high_water, 16);
    assert_eq!(
        fifo.offered,
        fifo.shed + fifo.queue_full + fifo.latency.count(),
        "every offered request is admitted or rejected exactly once"
    );

    // Same storm with depth shedding: the backlog stays at the threshold
    // and rejections become explicit sheds instead of queue-full errors.
    let shed = run_serve(&serve_spec(
        9,
        ServeConfig::at_rate(1500.0)
            .with_service(slow_service())
            .with_queue_bound(16)
            .with_admission(AdmissionPolicy::DepthShed { shed_threshold: 8 }),
    ))
    .expect("shed run");
    assert!(shed.shed > 0, "overload must trigger shedding");
    assert_eq!(shed.queue_full, 0, "shedding keeps the queue under bound");
    assert!(shed.queue_high_water <= 8);
    assert_eq!(
        shed.offered,
        shed.shed + shed.queue_full + shed.latency.count()
    );
    // A bounded backlog means bounded queueing delay.
    assert!(shed.latency.quantile(0.99) < fifo.latency.quantile(0.99));
}

/// The offered-load claims on a 32-host, 4-cell fleet behind the
/// lifetime-aware router, against a ~1 ms virtual decision server, all on
/// the virtual clock: past saturation the service sheds and slows but its
/// goodput does not collapse, and under a burst storm depth shedding beats
/// naive FIFO on p99 placement latency.
#[test]
fn goodput_degrades_gracefully_and_depth_shed_beats_fifo_under_burst() {
    const HOSTS: usize = 32;
    const CELLS: usize = 4;
    let service = ServiceModel {
        base_decision_us: 1000,
        per_host_ns: 500,
        per_vm_ns: 100,
    };
    // Nominal decisions/sec against an empty cell: the x-axis the load
    // multipliers scale.
    let capacity = service.capacity_per_sec(HOSTS / CELLS, 0);
    let run = |serve: ServeConfig| {
        let spec = Experiment::builder()
            .name("serve-latency")
            .hosts(HOSTS)
            .duration(Duration::from_secs(20))
            .seed(42)
            .predictor(PredictorSpec::Oracle)
            .algorithm(Algorithm::Nilas)
            .fleet(
                FleetConfig::new(CELLS)
                    .with_router(RouterSpec::LifetimeAware)
                    .with_summary_refresh(Duration::from_secs(5)),
            )
            .serve(serve.with_service(service))
            .build()
            .expect("valid serve spec");
        run_serve(&spec).expect("serving run")
    };

    let good_1x = run(ServeConfig::at_rate(capacity)).goodput_per_sec();
    let good_2x = run(ServeConfig::at_rate(capacity * 2.0)).goodput_per_sec();
    assert!(good_1x > 0.0, "the 1.0x arm must place something");
    assert!(
        good_2x >= 0.5 * good_1x,
        "goodput must not collapse past saturation: {good_2x:.1}/s at 2.0x vs {good_1x:.1}/s at 1.0x"
    );

    // 1.2x mean load arriving as 6x-amplitude bursts. The FIFO arm queues
    // the whole storm; the shedding arm bounds the backlog, and with it
    // the queueing delay, at the threshold.
    let storm = || {
        ServeConfig::at_rate(capacity * 1.2)
            .with_arrival(ArrivalProcess::Burst {
                period: Duration::from_secs(10),
                burst_len: Duration::from_secs(2),
                amplitude: 6.0,
            })
            .with_queue_bound(4096)
    };
    let fifo = run(storm());
    let shed = run(storm().with_admission(AdmissionPolicy::DepthShed { shed_threshold: 64 }));
    let (fifo_p99, shed_p99) = (fifo.latency.quantile(0.99), shed.latency.quantile(0.99));
    assert!(shed.shed > 0, "the storm must actually trigger shedding");
    assert!(
        shed_p99 < fifo_p99,
        "depth shedding must beat naive FIFO on p99 under burst: {shed_p99:.0}us vs {fifo_p99:.0}us"
    );
}

fn arrival_process(kind: u8, period_secs: u64, amplitude: f64) -> ArrivalProcess {
    match kind % 3 {
        0 => ArrivalProcess::Poisson,
        1 => ArrivalProcess::Burst {
            period: Duration::from_secs(period_secs),
            burst_len: Duration::from_secs((period_secs / 4).max(1)),
            amplitude: 1.0 + amplitude * 7.0,
        },
        _ => ArrivalProcess::Diurnal {
            period: Duration::from_secs(period_secs),
            amplitude: amplitude * 0.9,
        },
    }
}

proptest! {
    /// The headline determinism guarantee: an arrival stream is a pure
    /// function of (workload config, process, rate) — the main thread and
    /// two spawned threads generate bit-identical streams.
    #[test]
    fn arrival_streams_are_identical_across_threads(
        seed in 0u64..100_000,
        rate in 10.0f64..500.0,
        horizon_secs in 5u64..40,
        kind in 0u8..3,
        period_secs in 4u64..60,
        amplitude in 0.0f64..1.0,
    ) {
        let process = arrival_process(kind, period_secs, amplitude);
        let horizon = Micros::from_secs(horizon_secs);
        let config = PoolConfig::small(seed);
        let generate = move || {
            let workload = WorkloadGenerator::new(config.clone());
            ArrivalGenerator::new(workload, process, rate, horizon).collect_all()
        };
        let reference = generate();
        let handles: Vec<_> = (0..2).map(|_| std::thread::spawn(generate.clone())).collect();
        for handle in handles {
            let stream = handle.join().expect("generator thread");
            prop_assert_eq!(&stream, &reference);
        }
        // Ids are dense from 1 and timestamps are monotone non-decreasing
        // within the horizon.
        for (i, request) in reference.iter().enumerate() {
            prop_assert_eq!(request.id.0, i as u64 + 1);
            prop_assert!(request.submitted < horizon);
            if i > 0 {
                prop_assert!(reference[i - 1].submitted <= request.submitted);
            }
        }
    }

    /// Rate normalisation: Burst and Diurnal offer the same mean load as
    /// Poisson at the same target rate. Count over a long horizon of full
    /// cycles and check the realised rate against the target.
    #[test]
    fn inhomogeneous_processes_respect_the_mean_rate(
        seed in 0u64..100_000,
        rate in 50.0f64..200.0,
        kind in 0u8..3,
        period_secs in 10u64..40,
        amplitude in 0.0f64..1.0,
        cycles in 10u64..20,
    ) {
        let process = arrival_process(kind, period_secs, amplitude);
        // A whole number of cycles (so the sinusoid/burst mean is exact),
        // at least 200s long (so sampling noise stays well under 8%).
        let cycles = cycles.max(200u64.div_ceil(period_secs));
        let horizon_secs = period_secs * cycles;
        let horizon = Micros::from_secs(horizon_secs);
        let workload = WorkloadGenerator::new(PoolConfig::small(seed));
        let count = ArrivalGenerator::new(workload, process, rate, horizon)
            .collect_all()
            .len() as f64;
        let expected = rate * horizon_secs as f64;
        let realised = count / horizon_secs as f64;
        // Poisson sampling noise: at >= 10k expected arrivals, 5 sigma is
        // under 5%; allow 8% for headroom.
        prop_assert!(
            (count - expected).abs() <= 0.08 * expected,
            "realised rate {:.1}/s vs target {:.1}/s ({})",
            realised,
            rate,
            process
        );
    }
}
