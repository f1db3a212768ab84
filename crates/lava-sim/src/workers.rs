//! The persistent worker pool the fleet tier pins its cell-owning
//! sessions on ([`crate::fleet::run_fleet`]'s pooled lanes).
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
//! # Pinned sessions
//!
//! Every job targets one specific worker (`submit_pinned`). The fleet
//! coordinator pins one long-lived *session* job per worker; the job owns
//! its assigned cells' engines for the entire run (thread-local cell
//! ownership — cell state never crosses a thread boundary mid-run) and
//! loops on a **bounded** epoch channel. The bound is the backpressure:
//! the coordinator can route at most [`PIPELINE_DEPTH`] epochs ahead of
//! the slowest worker before its `send` blocks, so run-ahead memory stays
//! O(cells + one epoch's events) no matter how fast routing is.
//!
//! A fleet run on pooled lanes holds the pool's **session lock** from
//! start to finish: two concurrent fleet runs pinning long-lived jobs onto
//! overlapping workers would otherwise deadlock on each other's bounded
//! channels, so concurrent runs (say, fleet arms of a parallel
//! [`ExperimentSuite`](crate::suite::ExperimentSuite)) take turns. Pool
//! workers only ever run sessions, and a session never starts a fleet
//! run, so no worker waits on the pool it belongs to.
//!
//! Determinism is unaffected by any of this: work distribution never
//! influences results (cells are independent given routing), so every
//! schedule the pool produces yields bit-identical reports.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

struct PoolState {
    /// Per-worker mailboxes for pinned jobs (fleet sessions).
    pinned: Vec<VecDeque<Job>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
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
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            session: Mutex::new(()),
        };
        pool.ensure_workers(workers.max(1));
        pool
    }

    /// The process-wide pool, created on first use with one worker per
    /// available CPU. Fleet runs asking for more workers grow it
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
    let mut state = lock(&shared.state);
    loop {
        if let Some(job) = state.pinned[index].pop_front() {
            drop(state);
            // A panicking job must not take the worker down with it (the
            // global pool lives for the whole process). Fleet sessions
            // catch their own unwind and send the payload to their
            // coordinator; this guard only keeps the worker alive.
            let _ = catch_unwind(AssertUnwindSafe(job));
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
