//! Proof of the zero-allocation steady-state drive contract.
//!
//! A counting global allocator wraps the system allocator; an observer
//! snapshots the allocation count between two placement milestones deep
//! inside a [`lava_sim::experiment::drive`] run. Everything that grows —
//! the timeline heap, the pool's registry slab and its paged id table —
//! must have reached steady capacity by the window's start (the registry
//! is pre-sized with `Cluster::reserve_vm_capacity`), so the count must
//! not move at all inside the window: the event hot path (pull event →
//! route through the policy → mutate pool state → dispatch observers) is
//! allocation-free.
//!
//! The scenario is sized to keep every `BTreeMap`/`BTreeSet` on the hot
//! path within a single root node (≤ 11 entries — hosts and concurrently
//! live VMs both), since node splits allocate. One `#[test]` per file:
//! the counter is process-global, so a parallel test would pollute the
//! window.
//!
//! It runs twice: under best-fit, which never asks for a lifetime, and
//! under LAVA, whose every placement finds the one-minute exit cache
//! expired and so runs the batched refresh pass
//! (`Cluster::refresh_exit_entries`) over every occupied host — that
//! pass must reuse the cache's scratch buffers, not build a `Vec` per
//! call.

use lava_core::events::TraceEvent;
use lava_core::host::{HostId, HostSpec};
use lava_core::pool::{Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{VmId, VmSpec};
use lava_model::predictor::OraclePredictor;
use lava_sched::baseline::BestFitPolicy;
use lava_sched::cluster::Cluster;
use lava_sched::lava::LavaPolicy;
use lava_sched::policy::PlacementPolicy;
use lava_sched::scheduler::Scheduler;
use lava_sim::experiment::{drive, DriveTiming};
use lava_sim::observer::{ObserverContext, SimObserver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocator call that can return fresh memory. Frees are
/// deliberately ignored: releasing an emptied page is fine in steady
/// state, acquiring one is not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A pre-materialised source: pulling from it never allocates
/// ([`TraceEvent`] is plain data, so the clone is a memcpy).
struct VecSource {
    events: Vec<TraceEvent>,
    next: usize,
    last_arrival: Option<SimTime>,
}

impl EventSource for VecSource {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let event = self.events.get(self.next).cloned();
        if event.is_some() {
            self.next += 1;
        }
        event
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.events.get(self.next)
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        self.last_arrival
    }

    fn pending_len(&self) -> usize {
        self.events.len() - self.next
    }
}

/// Placement milestones at which the global allocation count is
/// snapshotted. The first window opens at placement 200: long enough for
/// every buffer on the drive path to reach steady capacity.
const MILESTONES: [u64; 4] = [200, 250, 300, 350];

/// Snapshots the global allocation count at each placement milestone.
#[derive(Default)]
struct AllocWindow {
    placed: u64,
    rejected: u64,
    counts: [Option<u64>; MILESTONES.len()],
}

impl SimObserver for AllocWindow {
    fn on_placed(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId, _host: HostId) {
        self.placed += 1;
        if let Some(slot) = MILESTONES.iter().position(|&m| m == self.placed) {
            self.counts[slot] = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
    }

    fn on_rejected(&mut self, _ctx: &ObserverContext<'_>, _vm: VmId) {
        self.rejected += 1;
    }
}

/// Drive the scenario under `policy`; returns the allocation count of
/// each window between consecutive milestones.
fn allocations_per_window(policy: Box<dyn PlacementPolicy>) -> Vec<u64> {
    const VMS: u64 = 400;
    const HOSTS: usize = 6;
    // One arrival every 10 minutes, each living 50 minutes: five VMs live
    // in steady state — never zero (the exit-cache root node survives),
    // never above 11 (no node splits), and far below the 6 × 16-core
    // capacity, so every VM is placed.
    let gap = Duration::from_mins(10);
    let lifetime = Duration::from_mins(50);
    let spec = VmSpec::builder(Resources::cores_gib(2, 8)).build();

    let mut events: Vec<TraceEvent> = Vec::with_capacity(2 * VMS as usize);
    let mut last_arrival = SimTime::ZERO;
    for i in 0..VMS {
        let at = SimTime::ZERO + Duration(gap.0 * i);
        events.push(TraceEvent::create(at, VmId(i), spec.clone(), lifetime));
        events.push(TraceEvent::exit(at + lifetime, VmId(i)));
        last_arrival = at;
    }
    events.sort_by_key(TraceEvent::sort_key);
    let mut source = VecSource {
        events,
        next: 0,
        last_arrival: Some(last_arrival),
    };

    let pool = Pool::with_uniform_hosts(
        PoolId(0),
        HOSTS,
        HostSpec::new(Resources::cores_gib(16, 64)),
    );
    let mut cluster = Cluster::new(pool);
    cluster.reserve_vm_capacity(VMS + 1, 16);
    let mut scheduler = Scheduler::new(cluster, policy, Arc::new(OraclePredictor::new()));

    // Cadences pushed past the horizon: the window times only the event
    // hot path (a sample would grow a recorder's series mid-window in
    // real runs; recorders opt out of the zero-alloc contract).
    let timing = DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_days(3650),
        sample_interval: Duration::from_days(3650),
        sample_during_warmup: false,
        defrag_trigger: None,
    };

    let mut window = AllocWindow::default();
    let unplaced = drive(
        &mut source,
        &mut scheduler,
        None,
        &timing,
        &mut [&mut window],
    );

    assert_eq!(unplaced, 0, "scenario must be rejection-free");
    assert_eq!(window.rejected, 0);
    assert_eq!(window.placed, VMS, "every VM must be placed");
    let counts: Vec<u64> = window
        .counts
        .iter()
        .map(|c| c.expect("milestone reached"))
        .collect();
    counts.windows(2).map(|w| w[1] - w[0]).collect()
}

#[test]
fn steady_state_drive_performs_zero_allocations() {
    let arms: [(&str, Box<dyn PlacementPolicy>); 2] = [
        ("best-fit", Box::new(BestFitPolicy::new())),
        (
            "lava",
            Box::new(LavaPolicy::with_defaults(Arc::new(OraclePredictor::new()))),
        ),
    ];
    for (name, policy) in arms {
        // The test thread is the only one doing simulation work, but the
        // harness's own threads may allocate at any moment — so require
        // at least one fully clean window rather than all of them. An
        // actual per-event allocation on the hot path dirties every
        // window.
        let deltas = allocations_per_window(policy);
        assert!(
            deltas.contains(&0),
            "{name}: every steady-state window between placements {MILESTONES:?} saw \
             allocations ({deltas:?}): the event hot path is no longer allocation-free"
        );
    }
}
