//! What observers hear from the drive loop: every placement, rejection and
//! exit, in the order the scheduler made them, with the cluster as it
//! stood right after each.

use lava_core::events::TraceEvent;
use lava_core::host::{HostId, HostSpec};
use lava_core::pool::{Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId, VmSpec};
use lava_model::predictor::OraclePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::Scheduler;
use lava_sim::chaos::{Incident, IncidentPlan, OutageMode};
use lava_sim::experiment::{drive, DriveTiming, Experiment, ExperimentSpec};
use lava_sim::observer::{ObserverContext, SimObserver};
use lava_sim::trace::Trace;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Placed,
    Rejected,
    Exited,
}

/// Records `(hook, vm, host, at)` for every placement, rejection and exit,
/// and whether each exit's VM had already left the cluster.
#[derive(Default)]
struct Recorder {
    heard: Vec<(Hook, VmId, Option<HostId>, SimTime)>,
    /// Per `on_exited`: the ids among `watch` still live in the cluster.
    live_at_exit: Vec<Vec<VmId>>,
    watch: Vec<VmId>,
}

impl SimObserver for Recorder {
    fn on_placed(&mut self, ctx: &ObserverContext<'_>, vm: VmId, host: HostId) {
        self.heard.push((Hook::Placed, vm, Some(host), ctx.now));
    }

    fn on_rejected(&mut self, ctx: &ObserverContext<'_>, vm: VmId) {
        self.heard.push((Hook::Rejected, vm, None, ctx.now));
    }

    fn on_exited(&mut self, ctx: &ObserverContext<'_>, vm: VmId, host: HostId) {
        self.heard.push((Hook::Exited, vm, Some(host), ctx.now));
        let live = self.watch.iter().copied();
        let live = live.filter(|&id| ctx.cluster.vm(id).is_some());
        self.live_at_exit.push(live.collect());
    }
}

fn cores(n: u64) -> VmSpec {
    VmSpec::builder(Resources::cores_gib(n, 4 * n)).build()
}

#[test]
fn observers_hear_each_decision_in_order_through_the_engine() {
    // Two 32-core hosts. VM 1 fills one; VM 2 takes half of the other;
    // VM 3 fits nowhere; VM 4 takes the other half and exits. A hard-kill
    // outage of both hosts then exits the residents, VMs 1 and 2, whose
    // trace exits (like VM 3's) find nothing and reach no observer.
    let mut spec = ExperimentSpec::default();
    spec.workload.hosts = 2;
    spec.workload.host_cores = 32;
    spec.workload.host_memory_gib = 128;
    spec.workload.host_ssd_gib = 0;
    spec.incidents = IncidentPlan {
        seed: 0,
        incidents: vec![Incident::CellOutage {
            cell: 0,
            hosts: None,
            mode: OutageMode::HardKill,
            at: Duration(700),
            recovery: None,
        }],
    };
    let day = Duration::from_days(1);
    let events = vec![
        TraceEvent::create(SimTime(100), VmId(1), cores(32), day),
        TraceEvent::create(SimTime(200), VmId(2), cores(16), day),
        TraceEvent::create(SimTime(300), VmId(3), cores(32), day),
        TraceEvent::create(SimTime(400), VmId(4), cores(16), Duration(100)),
        TraceEvent::exit(SimTime(500), VmId(4)),
        TraceEvent::exit(SimTime(600), VmId(3)),
        TraceEvent::exit(SimTime(100) + day, VmId(1)),
        TraceEvent::exit(SimTime(200) + day, VmId(2)),
    ];
    let experiment = Experiment::new(spec.clone()).unwrap();
    assert!(experiment.set_trace(Trace::new(spec.workload.pool_id, events)));

    let mut recorder = Recorder {
        watch: vec![VmId(1), VmId(2)],
        ..Recorder::default()
    };
    let report = experiment.run_with_observers(&mut [&mut recorder]);

    let full = recorder.heard[0].2.expect("a placement names its host");
    let half = HostId(1 - full.0);
    assert_eq!(
        recorder.heard,
        vec![
            (Hook::Placed, VmId(1), Some(full), SimTime(100)),
            (Hook::Placed, VmId(2), Some(half), SimTime(200)),
            (Hook::Rejected, VmId(3), None, SimTime(300)),
            (Hook::Placed, VmId(4), Some(half), SimTime(400)),
            (Hook::Exited, VmId(4), Some(half), SimTime(500)),
            (Hook::Exited, VmId(1), Some(full), SimTime(700)),
            (Hook::Exited, VmId(2), Some(half), SimTime(700)),
        ]
    );
    // VM 4's exit sees both residents; each outage exit sees neither.
    let none: Vec<VmId> = Vec::new();
    assert_eq!(
        recorder.live_at_exit,
        vec![vec![VmId(1), VmId(2)], none.clone(), none]
    );
    let stats = report.result.scheduler_stats;
    assert_eq!((stats.placed, stats.failed, stats.exited), (3, 1, 3));
    assert_eq!(report.result.rejected_vms, 1);
}

/// Always picks host 0, whether or not the VM fits there.
struct Host0;

impl PlacementPolicy for Host0 {
    fn name(&self) -> &'static str {
        "host-0"
    }

    fn choose_host(
        &mut self,
        _cluster: &Cluster,
        _vm: &Vm,
        _now: SimTime,
        _exclude: Option<HostId>,
    ) -> Option<HostId> {
        Some(HostId(0))
    }
}

#[test]
fn a_placement_the_host_refuses_is_a_rejection_everywhere() {
    let pool = Pool::with_uniform_hosts(PoolId(0), 1, HostSpec::new(Resources::cores_gib(4, 16)));
    let predictor = Arc::new(OraclePredictor::new());
    let mut scheduler = Scheduler::new(Cluster::new(pool), Box::new(Host0), predictor);
    let trace = Trace::new(
        PoolId(0),
        vec![
            TraceEvent::create(SimTime(10), VmId(1), cores(8), Duration(50)),
            TraceEvent::exit(SimTime(60), VmId(1)),
        ],
    );
    let mut source = trace.source();
    let timing = DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_hours(1),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    };
    let mut recorder = Recorder::default();
    let unplaced = drive(
        &mut source,
        &mut scheduler,
        None,
        &timing,
        &mut [&mut recorder],
    );

    assert_eq!(unplaced, 1);
    assert_eq!(scheduler.stats().failed, 1);
    assert_eq!(scheduler.stats().placed, 0);
    assert_eq!(
        recorder.heard,
        vec![(Hook::Rejected, VmId(1), None, SimTime(10))]
    );
    assert!(scheduler
        .cluster()
        .pool()
        .host(HostId(0))
        .unwrap()
        .is_empty());
}
