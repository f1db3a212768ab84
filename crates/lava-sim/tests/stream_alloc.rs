//! Proof that generating the synthetic stream is allocation-free in
//! steady state.
//!
//! A counting global allocator wraps the system allocator. A 4-day,
//! 200-host [`StreamingWorkload`] is pulled event by event, alternating
//! `peek` and `next_event` the way `drive` does; the allocation count is
//! snapshotted at the first event of the second day and of the third.
//! By then the pending-exit heap has reached the live population's size,
//! so every arrival drawn inside the window (category, lifetime, spec,
//! create and exit key) must reuse what is already there. One `#[test]`
//! per file: the counter is process-global, so a parallel test would
//! pollute the window.

use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_sim::workload::{PoolConfig, StreamingWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator call that can return fresh memory. Frees are
/// deliberately ignored.
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
fn steady_state_generation_performs_zero_allocations() {
    let mut source = StreamingWorkload::new(PoolConfig {
        hosts: 200,
        duration: Duration::from_days(4),
        seed: 17,
        ..PoolConfig::default()
    });
    let opens = SimTime::ZERO + Duration::from_days(1);
    let closes = SimTime::ZERO + Duration::from_days(2);
    let (mut start, mut end) = (None, None);
    let mut in_window = 0u64;
    while let Some(time) = source.peek().map(|event| event.time) {
        if time >= opens && start.is_none() {
            start = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
        if time >= closes {
            end = Some(ALLOCATIONS.load(Ordering::Relaxed));
            break;
        }
        let event = source.next_event().expect("peeked event");
        in_window += u64::from(start.is_some());
        std::hint::black_box(event);
    }
    let (start, end) = (start.expect("window opened"), end.expect("window closed"));
    assert!(
        in_window > 5_000,
        "window too small to be meaningful: {in_window} events"
    );
    assert_eq!(
        end - start,
        0,
        "{} allocations over {in_window} steady-state events: generation is no longer \
         allocation-free",
        end - start
    );
}
