//! Four bytes per VM id: what one fleet cell's id index costs.
//!
//! A fleet router spreads consecutive VM ids over every cell, so a cell
//! of a 16-cell fleet holds every 16th id, and its dense id table touches
//! every page of the covered id range. A cell keeps one live-VM registry,
//! whose id table slots are bare `u32`s, so a [`Cluster`] must cost at
//! most 4 bytes per covered id (plus one small header per page) more than
//! the same cluster holding the same VMs under consecutive ids. A counting
//! global allocator tracks live heap bytes and their high-water mark, so
//! the check is a deterministic byte count.
//!
//! One `#[test]` in this file: the allocator is process-global, so a
//! parallel test would pollute the high-water mark.

use lava_core::host::{HostId, HostSpec};
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId, VmSpec};
use lava_sched::cluster::Cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator, keeping the bytes currently allocated and
/// their high-water mark.
struct LiveHeap;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returns, so callers get `System`'s guarantees; the
// bookkeeping around each call only touches two atomics.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveHeap = LiveHeap;

/// The id range one cell's share spans.
const COVERED: u64 = 1 << 20;
/// Cells of the fleet: the cell holds every `CELLS`-th id.
const CELLS: u64 = 16;
/// Hosts of the cell's pool.
const HOSTS: usize = 16;
/// Budget for the page vector: one header per 4096-id page, with room
/// for its doubling growth.
const PAGE_VECTOR_BYTES: usize = (COVERED as usize / 4096) * 64;

/// Run `f`, returning what it returns and its peak live heap above the
/// heap live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

/// A cell of `HOSTS` hosts holding one record per id of `ids`, the i-th
/// on host `i % HOSTS`.
fn cell_holding(ids: impl Iterator<Item = u64>) -> Cluster {
    let spec = HostSpec::new(Resources::cores_gib(64, 256));
    let request = VmSpec::builder(Resources {
        cpu_milli: 1,
        memory_mib: 1,
        ssd_gib: 0,
    })
    .build();
    let mut cell = Cluster::with_uniform_hosts(HOSTS, spec);
    for (i, id) in ids.enumerate() {
        let vm = Vm::new(
            VmId(id),
            request.clone(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        cell.place(vm, HostId((i % HOSTS) as u64))
            .expect("the hosts have room");
    }
    cell
}

#[test]
fn a_cell_pays_four_bytes_per_covered_id_in_its_one_index() {
    // Measured: 3 937 920 B above the packed cell, against a budget of
    // 4 210 688 B; a cell with two id tables paid 7 875 840 B.
    let budget = 4 * COVERED as usize + PAGE_VECTOR_BYTES;
    let records = (COVERED / CELLS) as usize;

    let (spread, spread_peak) = peak_of(|| cell_holding((0..COVERED).step_by(CELLS as usize)));
    assert_eq!(spread.vm_count(), records);
    drop(spread);
    let (packed, packed_peak) = peak_of(|| cell_holding(0..COVERED / CELLS));
    assert_eq!(packed.vm_count(), records);
    drop(packed);

    // The same records on the same hosts: only the id pages differ.
    let index_peak = spread_peak.saturating_sub(packed_peak);
    assert!(
        index_peak <= budget,
        "a cell holding every {CELLS}th id of {COVERED} peaked at {spread_peak} B, \
         {index_peak} B above the same cell holding ids 0..{records} \
         (> {budget} B: more than 4 B per covered id)"
    );
}
