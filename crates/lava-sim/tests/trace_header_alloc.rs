//! A binary trace's header event count is untrusted input: decoding must
//! not size its buffers from it.
//!
//! A 25-byte file whose header claims `u64::MAX` events and then ends
//! must fail with a [`TraceCodecError`] after requesting well under 1 MiB.
//! A counting global allocator tracks the high-water mark of live bytes;
//! one `#[test]` per file, because the counter is process-global.

use lava_sim::trace::{Trace, TraceCodecError, FORMAT_VERSION, MAGIC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live bytes and their high-water mark.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

#[test]
fn a_lying_event_count_is_refused_without_a_large_allocation() {
    let mut file = Vec::with_capacity(25);
    file.extend_from_slice(&MAGIC);
    file.push(FORMAT_VERSION);
    file.extend_from_slice(&0u32.to_le_bytes()); // pool
    file.extend_from_slice(&u64::MAX.to_le_bytes()); // event count
    file.extend_from_slice(&0u64.to_le_bytes()); // last arrival
    assert_eq!(file.len(), 25);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = Trace::from_binary(&file);
    let requested = PEAK.load(Ordering::Relaxed) - before;

    assert!(
        matches!(result, Err(TraceCodecError::Corrupt(_))),
        "a header-only file must not decode: {result:?}"
    );
    assert!(
        requested < 1 << 20,
        "decoding requested {requested} bytes for a 25-byte file"
    );
}
