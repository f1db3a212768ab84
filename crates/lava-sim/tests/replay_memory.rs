//! Flat memory in the horizon: replaying an LVTR trace through
//! [`BinaryTraceSource`] → [`drive`] holds O(live VMs) heap, not O(events).
//!
//! The source decodes through a fixed read buffer, the engine's paged vm
//! tables free each id page once its last VM has left, and the timeline
//! holds only pending exits. So tripling the horizon, and with it the
//! trace on disk and the id space, must leave the replay's peak live heap
//! flat. A counting global allocator tracks live heap bytes and their
//! high-water mark, which makes the check a deterministic byte count
//! rather than a reading of the process's resident set.
//!
//! One `#[test]` in this file: the allocator is process-global, so a
//! parallel test would pollute the high-water mark.

use lava_core::pool::Pool;
use lava_core::source::EventSource;
use lava_core::time::Duration;
use lava_model::predictor::OraclePredictor;
use lava_sched::baseline::BestFitPolicy;
use lava_sched::cluster::Cluster;
use lava_sched::scheduler::Scheduler;
use lava_sim::experiment::{drive, DriveTiming};
use lava_sim::trace::{BinaryTraceSource, BinaryTraceWriter};
use lava_sim::workload::{PoolConfig, StreamingWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

struct Replay {
    events: u64,
    /// Peak live heap during the replay, above what was live at its start.
    peak_bytes: usize,
}

/// Stream a `days`-long 120-host workload into an LVTR file under `dir`
/// (never materialising it), then replay the file through the engine.
fn record_and_replay(days: u64, dir: &Path) -> Replay {
    let pool_config = PoolConfig {
        hosts: 120,
        duration: Duration::from_days(days),
        seed: 2424,
        ..PoolConfig::default()
    };
    let path = dir.join(format!("trace-{days}d.lvtr"));
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = BinaryTraceWriter::new(std::io::BufWriter::new(file), pool_config.pool_id)
        .expect("write trace header");
    let mut generator = StreamingWorkload::new(pool_config.clone());
    while let Some(event) = generator.next_event() {
        writer.push(&event).expect("canonical event order");
    }
    writer.finish().expect("finalise trace");
    drop(generator);

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let file = std::fs::File::open(&path).expect("open trace file");
    let mut source = BinaryTraceSource::new(file).expect("valid trace header");
    let pool = Pool::with_uniform_hosts(
        pool_config.pool_id,
        pool_config.hosts,
        pool_config.host_spec(),
    );
    let mut scheduler = Scheduler::new(
        Cluster::new(pool),
        Box::new(BestFitPolicy::new()),
        Arc::new(OraclePredictor::new()),
    );
    let timing = DriveTiming {
        warmup: Duration::ZERO,
        warmup_with_baseline: false,
        tick_interval: Duration::from_mins(5),
        sample_interval: Duration::from_hours(1),
        sample_during_warmup: false,
        defrag_trigger: None,
    };
    drive(&mut source, &mut scheduler, None, &timing, &mut []);
    assert!(
        source.error().is_none(),
        "{days}-day replay hit a decode error: {:?}",
        source.error()
    );
    let peak_bytes = PEAK.load(Ordering::Relaxed) - start;
    let stats = scheduler.stats();
    // Every pulled event was a create (placed or failed) or an exit
    // (processed, or suppressed because its create was rejected).
    Replay {
        events: stats.placed + stats.exited + 2 * stats.failed,
        peak_bytes,
    }
}

#[test]
fn tripling_the_replay_horizon_leaves_peak_heap_flat() {
    let dir = std::env::temp_dir().join(format!("lava-replay-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let short = record_and_replay(30, &dir);
    let long = record_and_replay(90, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        long.events > 2 * short.events,
        "the 90-day horizon should replay far more events ({} vs {})",
        long.events,
        short.events
    );
    // Measured: 107 690 → 321 350 events, 482 424 → 516 040 B
    // (+7.0 %; 691 704 → 742 856 B with two id tables per cell). The
    // bound is 1.25× the 30-day peak; anything held per event or per VM
    // id ever seen would triple instead.
    assert!(
        long.peak_bytes * 4 <= short.peak_bytes * 5,
        "peak live heap grew from {} B to {} B across 30 -> 90 days: \
         memory is not flat in the horizon",
        short.peak_bytes,
        long.peak_bytes
    );
}
