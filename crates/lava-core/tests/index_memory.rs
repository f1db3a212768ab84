//! Four bytes per VM id: what one fleet cell's id indexes cost.
//!
//! A fleet router spreads consecutive VM ids over every cell, so a cell
//! of a 16-cell fleet holds every 16th id, and its dense id tables touch
//! every page of the covered id range. Each slot of a [`VmTable`] is a
//! bare `u32`, so both the table itself and the vm → host index of a
//! [`Pool`] must cost at most 4 bytes per covered id (plus one small
//! header per page). A counting global allocator tracks live heap bytes
//! and their high-water mark, so the check is a deterministic byte count.
//!
//! One `#[test]` in this file: the allocator is process-global, so a
//! parallel test would pollute the high-water mark.

use lava_core::arena::VmTable;
use lava_core::host::{Host, HostId, HostSpec};
use lava_core::pool::{Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::vm::VmId;
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
const COVERED: usize = 1 << 20;
/// Cells of the fleet: the cell holds every `CELLS`-th id.
const CELLS: usize = 16;
/// Hosts of the cell's pool.
const HOSTS: usize = 16;
/// Budget for the page vector: one header per 4096-id page, with room
/// for its doubling growth.
const PAGE_VECTOR_BYTES: usize = (COVERED / 4096) * 64;

fn cell_ids() -> impl Iterator<Item = VmId> {
    (0..COVERED as u64).step_by(CELLS).map(VmId)
}

/// Run `f`, returning what it returns and its peak live heap above the
/// heap live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - start)
}

#[test]
fn a_cell_pays_four_bytes_per_covered_id_in_each_index() {
    // Measured: the table peaks at 4 200 448 B and the pool's index at
    // 4 200 552 B, against a budget of 4 210 688 B.
    let budget = 4 * COVERED + PAGE_VECTOR_BYTES;

    let (table, table_peak) = peak_of(|| {
        let mut table = VmTable::new();
        for (i, id) in cell_ids().enumerate() {
            table.insert(id, i as u32);
        }
        table
    });
    assert_eq!(table.len(), COVERED / CELLS);
    assert_eq!(table.allocated_pages(), COVERED / 4096);
    drop(table);
    assert!(
        table_peak <= budget,
        "a VmTable holding every {CELLS}th id of {COVERED} peaked at {table_peak} B \
         (> {budget} B: more than 4 B per covered id)"
    );

    // The pool's peak over its empty baseline, less what the same
    // placements cost on bare hosts (each host's own VM list), is its
    // vm -> host index.
    let spec = HostSpec::new(Resources::cores_gib(64, 256));
    let request = Resources {
        cpu_milli: 1,
        memory_mib: 1,
        ssd_gib: 0,
    };
    let mut pool = Pool::with_uniform_hosts(PoolId(0), HOSTS, spec);
    let ((), pool_peak) = peak_of(|| {
        for (i, id) in cell_ids().enumerate() {
            pool.place_vm(HostId((i % HOSTS) as u64), id, request)
                .expect("the hosts have room");
        }
    });
    assert_eq!(pool.vm_count(), COVERED / CELLS);
    drop(pool);
    let mut hosts: Vec<Host> = (0..HOSTS as u64)
        .map(|h| Host::new(HostId(h), spec))
        .collect();
    let ((), host_peak) = peak_of(|| {
        for (i, id) in cell_ids().enumerate() {
            hosts[i % HOSTS]
                .place(id, request)
                .expect("the hosts have room");
        }
    });
    drop(hosts);
    let index_peak = pool_peak.saturating_sub(host_peak);
    assert!(
        index_peak <= budget,
        "a pool holding every {CELLS}th id of {COVERED} peaked {pool_peak} B over its \
         empty baseline, {index_peak} B above its hosts' VM lists \
         (> {budget} B: more than 4 B per covered id)"
    );
}
