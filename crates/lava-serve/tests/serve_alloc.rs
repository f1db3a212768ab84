//! Proof that steady-state serving decisions are allocation-free.
//!
//! Same counting-allocator technique as `lava-sim/tests/drive_alloc.rs`,
//! pointed at the online path: [`PlacementService::offer`] → queue →
//! route (hash) → `Scheduler::schedule_costed` → SoA state mutation →
//! internal release scheduling → latency histogram. After
//! [`PlacementService::reserve_vm_capacity`] pre-sizes the per-cell
//! registries and the early offers grow every queue/heap to steady capacity,
//! a window of hundreds of offer-decide-release cycles must not touch
//! the allocator at all.
//!
//! Scenario constraints mirror the drive test: breakers, epochs,
//! deadlines and retries off (their bookkeeping is epoch/series-shaped,
//! not hot-path); concurrently live VMs held in 1..=11 so every
//! `BTreeMap` on the placement path stays a single root node. One
//! `#[test]` per file — the counter is process-global.

use lava_core::host::HostSpec;
use lava_core::pool::{Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::serve::{Micros, PlaceRequest, RequestId};
use lava_core::time::Duration;
use lava_core::vm::{VmId, VmSpec};
use lava_model::predictor::OraclePredictor;
use lava_sched::baseline::BestFitPolicy;
use lava_serve::PlacementService;
use lava_sim::arrivals::ServeConfig;
use lava_sim::fleet::{FleetCell, FleetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocator call that can return fresh memory; frees are
/// ignored (releasing is fine in steady state, acquiring is not).
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

#[test]
fn steady_state_serve_decisions_perform_zero_allocations() {
    const OFFERS: u64 = 400;
    /// Offer milestones at which the allocation count is snapshotted;
    /// the first sits past every buffer's warm-up growth.
    const MILESTONES: [u64; 4] = [200, 260, 320, 380];

    // One request per virtual second, each VM living five seconds: ~5
    // concurrently live VMs against 6 hosts × 16 cores — no capacity
    // failures, exit-cache/free-index root nodes never split and never
    // empty.
    let gap = Micros(Micros::PER_SEC);
    let lifetime = Duration::from_secs(5);
    let spec = VmSpec::builder(Resources::cores_gib(2, 8)).build();

    let pool = Pool::with_uniform_hosts(PoolId(0), 6, HostSpec::new(Resources::cores_gib(16, 64)));
    let cells = vec![FleetCell {
        pool,
        policy: Box::new(BestFitPolicy::new()),
        deferred_policy: None,
    }];
    let config = ServeConfig::at_rate(1.0);
    let mut service = PlacementService::new(
        config,
        &FleetConfig::new(1),
        cells,
        Arc::new(OraclePredictor::new()),
        7,
    );
    service.reserve_vm_capacity(OFFERS + 1, 16);

    let mut counts: Vec<u64> = Vec::with_capacity(MILESTONES.len());
    for i in 0..OFFERS {
        if MILESTONES.contains(&i) {
            counts.push(ALLOCATIONS.load(Ordering::Relaxed));
        }
        let submitted = Micros(gap.0 * i);
        let request = PlaceRequest {
            id: RequestId(i),
            vm: VmId(i),
            spec: spec.clone(),
            lifetime,
            submitted,
            deadline: None,
            retries: 0,
        };
        service.offer(request).expect("uncontended offer admitted");
    }

    assert_eq!(counts.len(), MILESTONES.len());
    // The harness's own threads may allocate at any moment, so require at
    // least one fully clean window rather than all of them. An actual
    // per-decision allocation dirties every window.
    let deltas: Vec<u64> = counts.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.contains(&0),
        "every steady-state window between offers {MILESTONES:?} saw allocations \
         ({deltas:?}): the decision hot path is no longer allocation-free"
    );

    let report = service.finish(Micros(gap.0 * (OFFERS + 10)));
    assert!(report.conservation_holds());
    assert_eq!(report.placed, OFFERS, "every offer must end in a placement");
}
