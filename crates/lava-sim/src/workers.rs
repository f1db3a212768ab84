//! The persistent worker pool behind every parallel construct in the
//! simulator: fleet cell execution ([`crate::fleet::run_fleet`]) and
//! experiment sweeps ([`crate::suite::ExperimentSuite`]).
//!
//! # Why a pool
//!
//! The fleet tier's first implementation spawned `std::thread::scope`
//! workers *per epoch* — fine at production summary cadences, ruinous at
//! fleet scale where a run crosses thousands of epoch barriers. The pool
//! replaces that with the classic sharded-allocator recipe: long-lived
//! workers that own their shard of the state for a whole run and a cheap
//! cross-epoch hand-off instead of thread creation. When one worker
//! suffices the fleet coordinator does not come here at all: it runs its
//! one session inline on the calling thread.
//!
//! # Two kinds of work
//!
//! * **Pinned jobs** (`submit_pinned`) target one specific worker. The
//!   fleet coordinator pins one long-lived *session* job per worker; the
//!   job owns its assigned cells' engines for the entire run (thread-local
//!   cell ownership — cell state never crosses a thread boundary
//!   mid-run) and loops on a **bounded** epoch channel. The bound is the
//!   backpressure: the coordinator can route at most
//!   [`PIPELINE_DEPTH`] epochs ahead of the slowest worker before its
//!   `send` blocks, so run-ahead memory stays O(cells + one epoch's
//!   events) no matter how fast routing is.
//! * **Shared jobs** (`run_indexed`) go to a common steal queue that any
//!   worker drains — suite arms, where dynamic balancing matters and jobs
//!   are independent. The submitting thread *helps*: it drains the shared
//!   queue itself while waiting, so `run_indexed` completes even when
//!   every worker is parked on a long job (and is deadlock-free when
//!   called from inside a pool worker).
//!
//! # Sessions and nesting
//!
//! A fleet run on pooled lanes holds the pool's **session lock** from
//! start to finish: two concurrent fleet runs pinning long-lived jobs onto
//! overlapping workers would otherwise deadlock on each other's bounded
//! channels. A suite arm executing *on* a pool worker that itself starts
//! a fleet run is detected via [`on_pool_worker`], and the fleet
//! coordinator — the same epoch loop — keeps its single session on the
//! inline lane: a session pinned to the very worker the coordinator
//! occupies could never run. Nothing is pinned, locked or spawned for it.
//!
//! Determinism is unaffected by any of this: work distribution never
//! influences results (cells are independent given routing, arms are
//! independent by construction), so every schedule the pool produces
//! yields bit-identical reports.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Lock a mutex, recovering from poisoning (the vendored `parking_lot`
/// shim has no `Condvar`, so this module uses `std::sync` directly and
/// mirrors the shim's non-poisoning semantics; worker jobs are panic-
/// guarded, so a poisoned lock only means a job panicked mid-update of
/// its own bookkeeping, which the panic capture already reports).
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// How many epochs a fleet coordinator may run ahead of a session worker:
/// the bound of each session's epoch channel. Depth 2 lets routing of the
/// next epoch overlap execution of the current one (the whole point)
/// while keeping queued-event memory bounded.
pub const PIPELINE_DEPTH: usize = 2;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker executing a job (or the
/// submitting thread of [`WorkerPool::run_indexed`] helping to drain the
/// shared queue). Parallel constructs use this to keep their work on the
/// calling thread instead of submitting jobs they would then occupy a
/// worker waiting for.
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(|flag| flag.get())
}

/// Run `f` with the current thread marked as a pool worker.
fn as_pool_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_WORKER.with(|flag| {
        let was = flag.replace(true);
        let result = f();
        flag.set(was);
        result
    })
}

struct PoolState {
    /// Per-worker mailboxes for pinned jobs (fleet sessions).
    pinned: Vec<VecDeque<Job>>,
    /// The shared steal queue (suite arms).
    shared: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Panic payloads the worker loop swallowed (a pinned job that died),
    /// tagged with the worker index. Coordinators that detect a dead
    /// session through a closed channel harvest these via
    /// [`WorkerPool::take_panic`] to build a structured error instead of
    /// reporting a bare hang-up.
    panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>>,
}

/// Book-keeping for one [`WorkerPool::run_indexed`] call.
struct IndexedSync {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A persistent pool of worker threads. See the [module docs](self).
///
/// The pool only ever grows ([`WorkerPool::ensure_workers`]); workers are
/// joined when the pool is dropped. Most callers use the process-wide
/// [`WorkerPool::global`] instance — explicit pools exist so tests can
/// prove runs on a shared pool leak no state into each other.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Held by a fleet coordinator for its whole run; see module docs.
    session: Mutex<()>,
}

impl WorkerPool {
    /// A pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    pinned: Vec::new(),
                    shared: VecDeque::new(),
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                panics: Mutex::new(Vec::new()),
            }),
            handles: Mutex::new(Vec::new()),
            session: Mutex::new(()),
        };
        pool.ensure_workers(workers.max(1));
        pool
    }

    /// The process-wide pool, created on first use with one worker per
    /// available CPU. Parallel constructs asking for more workers grow it
    /// ([`WorkerPool::ensure_workers`]); it is never dropped.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Current worker count.
    pub fn workers(&self) -> usize {
        lock(&self.shared.state).pinned.len()
    }

    /// Grow the pool to at least `workers` threads (never shrinks).
    pub fn ensure_workers(&self, workers: usize) {
        // The handles lock doubles as the grow lock, serialising
        // concurrent growers; workers only read `pinned` under the state
        // lock, so growing while the pool is busy is safe.
        let mut handles = lock(&self.handles);
        let current = lock(&self.shared.state).pinned.len();
        for index in current..workers {
            lock(&self.shared.state).pinned.push(VecDeque::new());
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(shared, index)));
        }
    }

    /// Acquire the session lock for the duration of a fleet run.
    pub(crate) fn session(&self) -> MutexGuard<'_, ()> {
        lock(&self.session)
    }

    /// Queue a job on worker `index`'s pinned mailbox. The caller must
    /// have grown the pool to cover `index` first.
    pub(crate) fn submit_pinned(&self, index: usize, job: Job) {
        {
            let mut state = lock(&self.shared.state);
            assert!(
                index < state.pinned.len(),
                "pinned submit to unknown worker"
            );
            state.pinned[index].push_back(job);
        }
        self.shared.work_ready.notify_all();
    }

    fn submit_shared(&self, job: Job) {
        lock(&self.shared.state).shared.push_back(job);
        self.shared.work_ready.notify_all();
    }

    fn try_steal_shared(&self) -> Option<Job> {
        lock(&self.shared.state).shared.pop_front()
    }

    /// Run `f(0..count)` across the pool's shared queue and wait for all
    /// of them; panics from any invocation are re-raised here after every
    /// job has finished. The calling thread helps drain the shared queue
    /// while it waits, so this completes (and stays deadlock-free) even
    /// when all workers are busy — including when called from a pool
    /// worker itself.
    pub fn run_indexed<F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if count == 0 {
            return;
        }
        if count == 1 {
            f(0);
            return;
        }
        let sync = Arc::new(IndexedSync {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        // Jobs are `'static`, the closure is not: erase the lifetime. This
        // is sound because we wait below until every job has run (the
        // completion count is decremented after `f` returns, panics
        // included), so `f` outlives all uses of the erased reference.
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        let f_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(f_ref) };
        for i in 0..count {
            let sync = Arc::clone(&sync);
            self.submit_shared(Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f_static(i))) {
                    *lock(&sync.panic) = Some(payload);
                }
                let mut remaining = lock(&sync.remaining);
                *remaining -= 1;
                if *remaining == 0 {
                    sync.done.notify_all();
                }
            }));
        }
        loop {
            if *lock(&sync.remaining) == 0 {
                break;
            }
            match self.try_steal_shared() {
                // Help: run shared jobs inline (possibly other callers' —
                // their own sync tracks them). The job has its own panic
                // guard.
                Some(job) => as_pool_worker(job),
                None => {
                    let remaining = lock(&sync.remaining);
                    if *remaining != 0 {
                        // Re-checked under the notifier's lock: no lost
                        // wakeup between the check and the wait.
                        drop(sync.done.wait(remaining).unwrap_or_else(|p| p.into_inner()));
                    }
                }
            }
        }
        let payload = lock(&sync.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Take the panic payload a pinned job left behind on worker `index`,
    /// if any (oldest first when several died).
    ///
    /// Callers reach for this after observing the job's channel hang up,
    /// which happens *during* the unwind — strictly before the worker
    /// loop stores the payload — so this waits briefly for the store to
    /// land rather than racing it. `None` after the wait means the
    /// channel closed without a panic (e.g. the job returned early).
    pub fn take_panic(&self, index: usize) -> Option<Box<dyn std::any::Any + Send>> {
        for attempt in 0..200 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let mut panics = lock(&self.shared.panics);
            if let Some(pos) = panics.iter().position(|(worker, _)| *worker == index) {
                return Some(panics.remove(pos).1);
            }
        }
        None
    }
}

/// Render a captured panic payload as a message: the `&str` / `String`
/// payloads `panic!` produces, or a placeholder for exotic `panic_any`
/// payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        let handles = self.handles.get_mut().unwrap_or_else(|p| p.into_inner());
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    let mut state = lock(&shared.state);
    loop {
        let job = state.pinned[index]
            .pop_front()
            .or_else(|| state.shared.pop_front());
        if let Some(job) = job {
            drop(state);
            // A panicking job must not take the worker down with it (the
            // global pool lives for the whole process). Session jobs
            // surface the failure to their coordinator through their
            // dropped reply channel; the payload is kept so the
            // coordinator can say *what* died (`take_panic`). Shared jobs
            // carry their own panic capture and never reach this store.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                lock(&shared.panics).push((index, payload));
            }
            state = lock(&shared.state);
            continue;
        }
        if state.shutdown {
            return;
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(|p| p.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_indexed_visits_every_index_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let pool = WorkerPool::new(2);
        pool.run_indexed(0, |_| panic!("no jobs expected"));
        let hit = AtomicUsize::new(0);
        pool.run_indexed(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_indexed_propagates_panics_after_draining() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(8, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 3, "boom");
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // Every job still ran (the panic is re-raised only after the
        // barrier), so borrowed captures stayed valid throughout.
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn run_indexed_is_reentrant_from_a_worker() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        pool.run_indexed(4, |_| {
            // Nested fan-out from inside a pool job: the helper protocol
            // keeps this from deadlocking even on a 1-worker pool.
            pool.run_indexed(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_grows_but_never_shrinks() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        pool.ensure_workers(4);
        assert_eq!(pool.workers(), 4);
        pool.ensure_workers(1);
        assert_eq!(pool.workers(), 4);
    }

    #[test]
    fn worker_flag_is_visible_inside_jobs() {
        let pool = WorkerPool::new(2);
        assert!(!on_pool_worker());
        let seen = AtomicUsize::new(0);
        pool.run_indexed(4, |_| {
            if on_pool_worker() {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pinned_panics_are_harvestable_by_worker() {
        let pool = WorkerPool::new(2);
        pool.submit_pinned(1, Box::new(|| panic!("session job died mid-epoch")));
        let payload = pool.take_panic(1).expect("payload captured");
        assert_eq!(
            panic_message(payload.as_ref()),
            "session job died mid-epoch"
        );
        // The payload is consumed, and worker 0 never panicked. The pool
        // itself survived: worker 1 still runs jobs.
        assert!(pool.take_panic(0).is_none());
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_pinned(1, Box::new(move || tx.send(41 + 1).unwrap()));
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn pinned_jobs_run_on_their_worker() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for w in 0..2 {
            let tx = tx.clone();
            pool.submit_pinned(
                w,
                Box::new(move || {
                    tx.send(w).unwrap();
                }),
            );
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }
}
