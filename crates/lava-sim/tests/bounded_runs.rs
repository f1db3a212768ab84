//! A validated spec is a bounded run: a run whose exits stretch far past
//! its arrivals costs what its events cost, not the span they cover. The
//! drive loop ticks only up to the last arrival, and the fleet steps no
//! empty epoch and takes no summary once nothing can arrive.
//!
//! Both runs replay 24 hosts for one day under LAVA with oracle
//! predictions, cold-started so LAVA places every VM. A drift shift at
//! time zero multiplies every lifetime by 1e5 (one cell) or 1e4 (three
//! least-loaded cells), so the last exits lie hundreds to thousands of
//! years out, or by 1e300, which puts them at the end of time. Stepping
//! that span every tick or epoch took minutes (1e300: forever); CI runs
//! this file in release under a 60 s timeout.

use lava_core::host::HostId;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::adaptive::SwappablePredictor;
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sched::Algorithm;
use lava_sim::chaos::ChaosSource;
use lava_sim::experiment::{DriveTiming, Experiment, ExperimentSpec, PredictorSpec};
use lava_sim::fleet::{run_fleet, FleetChaos, FleetConfig, FleetReport, RouterSpec};
use lava_sim::observer::{ObserverContext, SimObserver};
use lava_sim::{Incident, IncidentPlan};
use std::sync::{Arc, Mutex};

/// `years` years past time zero.
fn years(years: u64) -> SimTime {
    SimTime::ZERO + Duration::from_days(365 * years)
}

fn spec(lifetime_scale: f64, fleet: Option<FleetConfig>) -> ExperimentSpec {
    let mut builder = Experiment::builder()
        .name("bounded-run")
        .hosts(24)
        .duration(Duration::from_days(1))
        .algorithm(Algorithm::Lava)
        .predictor(PredictorSpec::Oracle)
        .warmup(Duration::ZERO)
        .incidents(IncidentPlan {
            seed: 0,
            incidents: vec![Incident::DriftShift {
                at: Duration::ZERO,
                lifetime_scale,
            }],
        });
    if let Some(fleet) = fleet {
        builder = builder.fleet(fleet);
    }
    builder.build().expect("a valid spec")
}

/// The run's event feed as the engine sees it (the drift shift applied)
/// and its latest event time.
fn last_event(experiment: &Experiment) -> SimTime {
    let replay = Box::new(experiment.trace().source());
    let mut source = ChaosSource::new(replay, &experiment.spec().incidents);
    std::iter::from_fn(|| source.next_event())
        .map(|event| event.time)
        .max()
        .expect("a non-empty trace")
}

/// The tick count of a run whose last arrival is `last_arrival`: one at
/// time zero and one per interval up to the last arrival.
fn tick_bound(experiment: &Experiment, last_arrival: SimTime) -> u64 {
    last_arrival.as_secs() / experiment.spec().cadence.tick_interval.as_secs() + 1
}

/// Counts ticks and keeps the latest tick time.
#[derive(Debug, Default)]
struct Ticks {
    count: u64,
    latest: SimTime,
}

impl Ticks {
    fn record(&mut self, now: SimTime) {
        self.count += 1;
        self.latest = self.latest.max(now);
    }
}

impl SimObserver for Ticks {
    fn on_tick(&mut self, ctx: &ObserverContext<'_>) {
        self.record(ctx.now);
    }
}

#[test]
fn a_drift_shifted_run_on_one_cell_ticks_only_to_its_last_arrival() {
    let experiment = Experiment::new(spec(1e5, None)).expect("a valid spec");
    let last_arrival = experiment.trace().last_arrival_time();
    assert!(last_event(&experiment) > years(1000));

    let mut ticks = Ticks::default();
    let report = experiment.run_with_observers(&mut [&mut ticks]);

    assert_eq!(ticks.count, tick_bound(&experiment, last_arrival));
    assert!(ticks.latest <= last_arrival);
    let stats = report.result.scheduler_stats;
    assert!(stats.placed > 0);
    assert_eq!(stats.exited, stats.placed, "every VM exits, however late");
}

/// A cell's policy with its ticks counted.
struct CountTicks {
    inner: Box<dyn PlacementPolicy>,
    ticks: Arc<Mutex<Ticks>>,
}

impl PlacementPolicy for CountTicks {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        self.inner.choose_host(cluster, vm, now, exclude)
    }

    fn on_vm_placed(&mut self, cluster: &mut Cluster, vm: VmId, host: HostId, now: SimTime) {
        self.inner.on_vm_placed(cluster, vm, host, now)
    }

    fn on_vm_exited(&mut self, cluster: &mut Cluster, host: HostId, now: SimTime) {
        self.inner.on_vm_exited(cluster, host, now)
    }

    fn on_tick(&mut self, cluster: &mut Cluster, now: SimTime) {
        self.ticks.lock().unwrap().record(now);
        self.inner.on_tick(cluster, now)
    }

    fn on_model_health(&mut self, error: f64, samples: usize) {
        self.inner.on_model_health(error, samples)
    }
}

#[test]
fn a_drift_shifted_fleet_of_three_cells_ticks_only_to_its_last_arrival() {
    let fleet = FleetConfig::new(3).with_router(RouterSpec::LeastLoaded);
    let experiment = Experiment::new(spec(1e4, Some(fleet.clone()))).expect("a valid spec");
    let spec = experiment.spec();
    let last_arrival = experiment.trace().last_arrival_time();
    assert!(last_event(&experiment) > years(100));

    // The run `Experiment::run` makes, wired by hand so that every cell's
    // policy counts its ticks.
    let predictor = experiment.predictor();
    let chaos = FleetChaos {
        incidents: spec.incidents.clone(),
        adaptation: spec.adaptation,
        swaps: (0..fleet.cells)
            .map(|_| SwappablePredictor::new(predictor.clone()))
            .collect(),
    };
    let ticks: Vec<Arc<Mutex<Ticks>>> = (0..fleet.cells).map(|_| Arc::default()).collect();
    let cells = fleet.build_cells(&spec.workload, |cell| {
        let swap: Arc<dyn LifetimePredictor> = chaos.swaps[cell.0 as usize].clone();
        let policy = CountTicks {
            inner: spec.policy.build(swap),
            ticks: ticks[cell.0 as usize].clone(),
        };
        (Box::new(policy) as Box<dyn PlacementPolicy>, None)
    });
    let timing = DriveTiming {
        warmup: spec.cadence.warmup,
        warmup_with_baseline: true,
        tick_interval: spec.cadence.tick_interval,
        sample_interval: spec.cadence.sample_interval,
        sample_during_warmup: spec.cadence.sample_during_warmup,
        defrag_trigger: spec.cadence.defrag_trigger,
    };
    let mut source = ChaosSource::new(Box::new(experiment.trace().source()), &spec.incidents);
    let outcome = run_fleet(
        cells,
        predictor.clone(),
        fleet.router,
        fleet.summary_refresh,
        &timing,
        &mut source,
        fleet.threads,
        Some(&chaos),
        None,
    );

    for (cell, ticks) in ticks.iter().enumerate() {
        let ticks = ticks.lock().unwrap();
        assert_eq!(
            ticks.count,
            tick_bound(&experiment, last_arrival),
            "cell {cell}"
        );
        assert!(ticks.latest <= last_arrival, "cell {cell}");
    }
    let report = FleetReport::from_outcome(
        outcome,
        fleet.router,
        &spec.policy.display_name(),
        predictor.name(),
    );
    assert!(report.cells.iter().all(|cell| cell.routed_vms > 0));
    assert_eq!(Some(report), experiment.run().fleet);
}

#[test]
fn a_drift_shift_past_the_end_of_time_still_ends() {
    // A scale of 1e300 saturates every exit at the last representable
    // instant, where the epoch grid saturates too: that last epoch takes
    // every event left.
    for fleet in [
        None,
        Some(FleetConfig::new(3).with_router(RouterSpec::LeastLoaded)),
    ] {
        let experiment = Experiment::new(spec(1e300, fleet)).expect("a valid spec");
        assert_eq!(last_event(&experiment), SimTime(u64::MAX));
        let stats = experiment.run().result.scheduler_stats;
        assert!(stats.placed > 0);
        assert_eq!(stats.exited, stats.placed);
    }
}
