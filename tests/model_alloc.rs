//! Zero-allocation guarantee of the compiled prediction hot path.
//!
//! The scoring hot path repredicts every VM on every candidate host
//! (§5 / Fig. 8); one heap allocation per prediction would dominate the
//! compiled engine's latency and fragment the allocator under production
//! traffic. This test swaps in a counting global allocator and asserts
//! that the compiled path performs zero heap allocations per prediction,
//! single and batched, once every spec it is asked about has its uptime
//! step table (building a table allocates; looking one up may not); that
//! the tree walk behind those tables — **feature encoding included** —
//! allocates nothing either; and that the legacy `FeatureSchema::encode`
//! Vec path visibly does allocate (i.e. the counter works).
//!
//! Training is held to a budget too: `GbdtRegressor::fit` allocates its
//! working set once (flat binned matrix, index array, partition scratch,
//! histogram, growth heap) and then one node `Vec` per tree, so a fit makes
//! a handful of allocations per tree and the same number whatever the
//! example count — a retrain inside a running fleet does not churn the
//! allocator the cell workers share.
//!
//! The file intentionally holds a single `#[test]` so no concurrent test
//! can perturb the allocation counter.

use lava::core::resources::Resources;
use lava::core::time::{Duration, SimTime};
use lava::core::vm::{Vm, VmId, VmSpec};
use lava::model::dataset::DatasetBuilder;
use lava::model::gbdt::{GbdtConfig, GbdtRegressor};
use lava::model::predictor::{GbdtPredictor, LifetimePredictor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made through the
/// global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn compiled_prediction_path_is_allocation_free() {
    // --- setup (allowed to allocate freely) -----------------------------
    let mut builder = DatasetBuilder::new();
    for i in 0..400u64 {
        let spec = VmSpec::builder(Resources::cores_gib(2 + (i % 4), 8))
            .category((i % 3) as u32)
            .build();
        builder.push(spec, Duration::from_hours(1 + (i % 96)));
    }
    let reference = GbdtPredictor::train(GbdtConfig::fast(), &builder.build());
    let compiled = reference.compile();

    let now = SimTime::ZERO + Duration::from_hours(500);
    let vms: Vec<Vm> = (0..64u64)
        .map(|i| {
            let spec = VmSpec::builder(Resources::cores_gib(2 + (i % 4), 8))
                .category((i % 3) as u32)
                .build();
            Vm::new(
                VmId(i),
                spec,
                SimTime::ZERO + Duration::from_hours(i),
                Duration::from_hours(1000),
            )
        })
        .collect();

    // Warm up: the first prediction for a spec builds its step table,
    // which allocates. Twelve distinct specs among the 64 VMs.
    let before = allocations();
    for vm in &vms {
        let _ = compiled.predict_remaining(vm, now);
    }
    assert_eq!(compiled.spec_tables(), 12);
    assert!(allocations() > before, "table fills should allocate");
    let mut sink_count = 0usize;
    compiled.predict_remaining_batch(&mut vms.iter(), now, &mut |_, _| sink_count += 1);
    assert_eq!(sink_count, vms.len());

    // --- single path (table hit): zero allocations per prediction -------
    let before = allocations();
    for _ in 0..10 {
        for vm in &vms {
            let _ = compiled.predict_remaining(vm, now);
        }
    }
    assert_eq!(allocations() - before, 0, "compiled single path allocated");

    // --- batched path (one lock, a table hit per VM): also zero ---------
    let before = allocations();
    for _ in 0..10 {
        compiled.predict_remaining_batch(&mut vms.iter(), now, &mut |_, _| {});
    }
    assert_eq!(allocations() - before, 0, "compiled batched path allocated");

    // --- the tree walk that fills the tables: zero as well --------------
    let before = allocations();
    for vm in &vms {
        let _ = compiled.predict_spec(vm.spec(), vm.uptime(now));
    }
    assert_eq!(allocations() - before, 0, "compiled tree walk allocated");
    assert_eq!(compiled.table_overflows(), 0);

    // --- reference predictor's hot path is also allocation-free now -----
    // (`FeatureSchema::encode_into` killed its per-prediction Vec).
    let before = allocations();
    for vm in &vms {
        let _ = reference.predict_remaining(vm, now);
    }
    assert_eq!(
        allocations() - before,
        0,
        "reference predictor's encode_into path allocated"
    );

    // --- training: a fixed working set plus one node Vec per tree --------
    let fit_allocations = |examples: u64| {
        let mut builder = DatasetBuilder::new().augment(false);
        for i in 0..examples {
            let spec = VmSpec::builder(Resources::cores_gib(2 + (i % 4), 8))
                .category((i % 3) as u32)
                .build();
            builder.push(spec, Duration::from_secs(600 + 37 * i));
        }
        let dataset = builder.build();
        let (rows, labels) = (dataset.feature_rows(), dataset.labels());
        let config = GbdtConfig::fast();
        let budget = 8 * config.num_trees as u64 + 64;
        let before = allocations();
        let model = GbdtRegressor::fit(config, &rows, &labels);
        let spent = allocations() - before;
        assert!(
            spent <= budget,
            "fit on {examples} examples made {spent} allocations (budget {budget})"
        );
        assert!(model.feature_importance().iter().any(|&g| g > 0.0));
        spent
    };
    assert_eq!(
        fit_allocations(2_000),
        fit_allocations(8_000),
        "fit's allocation count depends on the example count"
    );

    // --- sanity: the counter actually counts ----------------------------
    let before = allocations();
    let v = compiled
        .schema()
        .encode(vms[0].spec(), Duration::from_hours(3));
    assert_eq!(v.len(), lava::model::features::FEATURE_COUNT);
    assert!(
        allocations() - before >= 1,
        "legacy Vec encoding should register on the allocation counter"
    );
}
