//! Span recording for the traced repetition, done entirely from the
//! benchmark's side: decorators around the trait objects the system
//! already takes ([`EventSource`], [`LifetimePredictor`],
//! [`PlacementPolicy`], [`SimObserver`]) plus `Instant` pairs the
//! workloads put around `drive` / `run_fleet` / `offer` / `finish`.
//!
//! Every span site keeps a call count, a log-bucket histogram (the
//! repository's own [`LatencyHistogram`]) of the calls it timed and the part of those calls its child (predictor)
//! spans covered; a site's self time is its spans minus that part. Cheap,
//! per-event sites time every `stride`-th call and scale by the exact
//! call count, so tracing a 1 µs/event engine does not double its cost.
//! Independently, every [`TREE_EVERY`]-th event has its full span tree
//! (name, start, end, parent, event index) recorded.

use lava_core::events::TraceEvent;
use lava_core::host::HostId;
use lava_core::latency::LatencyHistogram;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use lava_sched::cluster::Cluster;
use lava_sched::policy::PlacementPolicy;
use lava_sim::observer::{ObserverContext, SimObserver};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One event in this many gets its whole span tree written out.
pub const TREE_EVERY: u64 = 1024;

/// Stride for sites that fire once or more per event on workloads whose
/// per-event cost is under a microsecond. Strides are powers of two, so
/// "is this call timed" is a mask of the call counter the site keeps
/// anyway.
pub const HOT_STRIDE: u64 = 32;

/// Span records kept at most; a run that would exceed it keeps the first.
const MAX_SPANS: usize = 1 << 20;

/// Empty spans a new tracer times to learn its own overhead.
const CALIBRATION_SPANS: usize = 2048;

/// Parent id of a span opened directly under the run.
const ROOT: u32 = u32::MAX;

/// The span sites, one per layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// `EventSource::next_event` (LVTR decode).
    Source,
    /// Every `LifetimePredictor` entry point.
    Model,
    /// `PlacementPolicy::choose_host`.
    PolicyChoose,
    /// The policy's placed/exited/tick/model-health hooks.
    PolicyHooks,
    /// `SimObserver` hooks other than `on_sample`.
    Observer,
    /// `SimObserver::on_sample`.
    ObserverSample,
    /// `PlacementService::offer`.
    Offer,
    /// `PlacementService::finish`.
    Finish,
}

impl Site {
    /// Every site, in table order.
    pub const ALL: [Site; 8] = [
        Site::Source,
        Site::Model,
        Site::PolicyChoose,
        Site::PolicyHooks,
        Site::Observer,
        Site::ObserverSample,
        Site::Offer,
        Site::Finish,
    ];

    /// The name spans and trace files carry.
    pub fn name(self) -> &'static str {
        match self {
            Site::Source => "source.next_event",
            Site::Model => "model.predict",
            Site::PolicyChoose => "policy.choose_host",
            Site::PolicyHooks => "policy.hooks",
            Site::Observer => "observer.hooks",
            Site::ObserverSample => "observer.on_sample",
            Site::Offer => "serve.offer",
            Site::Finish => "serve.finish",
        }
    }
}

/// What one site accumulated: exact call count, the timed calls and the
/// child time inside them.
#[derive(Clone, Default)]
pub struct SiteStats {
    /// Calls made, timed or not.
    pub calls: u64,
    /// Durations of the timed calls, in nanoseconds.
    pub timed: LatencyHistogram,
    /// Nanoseconds of the timed calls that child spans covered.
    pub nested_ns: u64,
}

impl SiteStats {
    fn scale(&self) -> f64 {
        if self.timed.count() == 0 {
            0.0
        } else {
            self.calls as f64 / self.timed.count() as f64
        }
    }

    /// Nanoseconds of the timed calls together.
    pub fn timed_ns(&self) -> f64 {
        self.timed.mean() * self.timed.count() as f64
    }

    /// Estimated total nanoseconds across all calls.
    pub fn total_ns(&self) -> f64 {
        self.timed_ns() * self.scale()
    }

    /// Estimated self nanoseconds: total minus what child spans covered.
    pub fn self_ns(&self) -> f64 {
        (self.timed_ns() - self.nested_ns as f64).max(0.0) * self.scale()
    }

    fn merge(&mut self, other: &SiteStats) {
        self.calls += other.calls;
        self.timed.merge(&other.timed);
        self.nested_ns += other.nested_ns;
    }
}

/// One recorded span of a sampled event's tree. Times are nanoseconds
/// since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The site that opened it.
    pub site: Site,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` directly under the run.
    pub parent: Option<u32>,
    /// Index of the event (pull, offer or decision) that started the tree.
    pub event: u64,
}

/// Counters the policies keep themselves, summed over cells when the
/// policies are dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Host exit times served from the exit cache.
    pub cache_hits: u64,
    /// Host exit times recomputed.
    pub cache_misses: u64,
    /// LAVA deadline-expiry corrections.
    pub deadline_corrections: u64,
}

/// What a traced policy can report about its own bookkeeping.
pub trait PolicyProbe {
    /// The policy's internal counters at this moment.
    fn counters(&self) -> PolicyCounters;
}

#[derive(Clone, Copy)]
struct Sampled {
    event: u64,
    parent: u32,
}

thread_local! {
    /// Estimated nanoseconds this thread has spent in predictor spans;
    /// an enclosing span reads it before and after to find its child time.
    static MODEL_NS: Cell<u64> = const { Cell::new(0) };
    /// The event whose span tree this thread is recording, with the
    /// innermost open span.
    static SAMPLED: Cell<Option<Sampled>> = const { Cell::new(None) };
}

/// Start recording the span tree of `event` on this thread (`None` stops).
pub fn sample_event(event: Option<u64>) {
    SAMPLED.set(event.map(|event| Sampled {
        event,
        parent: ROOT,
    }));
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    start: Instant,
    model_before: u64,
    counted: bool,
    tree: Option<(u32, Sampled)>,
}

/// The shared sink of one traced repetition.
pub struct Tracer {
    origin: Instant,
    /// What an empty span measures (the clock read inside every timed
    /// interval); taken off each span so that 50 ns calls are not doubled.
    overhead_ns: u64,
    sites: Mutex<Vec<SiteStats>>,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<PolicyCounters>,
}

impl Tracer {
    /// A fresh tracer; span times count from now.
    pub fn new() -> Arc<Tracer> {
        let mut tracer = Tracer {
            origin: Instant::now(),
            overhead_ns: 0,
            sites: Mutex::new(vec![SiteStats::default(); Site::ALL.len()]),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(PolicyCounters::default()),
        };
        let mut empty: Vec<u64> = (0..CALIBRATION_SPANS)
            .map(|_| tracer.close(tracer.open(Site::Source, true)).0)
            .collect();
        empty.sort_unstable();
        tracer.overhead_ns = empty[empty.len() / 2];
        Arc::new(tracer)
    }

    fn open(&self, site: Site, counted: bool) -> Open {
        let start = Instant::now();
        let tree = SAMPLED.get().and_then(|outer| {
            let mut spans = self.spans.lock().expect("no tracer user panics");
            if spans.len() >= MAX_SPANS {
                return None;
            }
            let id = spans.len() as u32;
            let at = start.duration_since(self.origin).as_nanos() as u64;
            spans.push(SpanRecord {
                site,
                start_ns: at,
                end_ns: at,
                parent: (outer.parent != ROOT).then_some(outer.parent),
                event: outer.event,
            });
            SAMPLED.set(Some(Sampled {
                event: outer.event,
                parent: id,
            }));
            Some((id, outer))
        });
        Open {
            start,
            model_before: MODEL_NS.get(),
            counted,
            tree,
        }
    }

    /// Close a span: `(duration, child predictor time)` in nanoseconds.
    fn close(&self, open: Open) -> (u64, u64) {
        let ns = (open.start.elapsed().as_nanos() as u64).saturating_sub(self.overhead_ns);
        if let Some((id, outer)) = open.tree {
            let mut spans = self.spans.lock().expect("no tracer user panics");
            let span = &mut spans[id as usize];
            span.end_ns = span.start_ns + ns;
            SAMPLED.set(Some(outer));
        }
        (ns, MODEL_NS.get() - open.model_before)
    }

    /// Fold a decorator's local statistics into the shared table.
    pub fn absorb(&self, site: Site, stats: &SiteStats) {
        // Also called from `Drop`, which must not panic on a poisoned lock.
        if let Ok(mut sites) = self.sites.lock() {
            sites[site as usize].merge(stats);
        }
    }

    /// The merged statistics of `site`.
    pub fn site(&self, site: Site) -> SiteStats {
        self.sites.lock().expect("no tracer user panics")[site as usize].clone()
    }

    /// The policies' own counters, summed over every dropped policy.
    pub fn policy_counters(&self) -> PolicyCounters {
        *self.counters.lock().expect("no tracer user panics")
    }

    /// The recorded span trees.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("no tracer user panics").clone()
    }
}

fn stride_mask(stride: u64) -> u64 {
    assert!(stride.is_power_of_two(), "strides are powers of two");
    stride - 1
}

/// A span site local to one decorator: counts every call, times every
/// `stride`-th and every call inside a sampled event's tree.
pub struct LocalSite {
    site: Site,
    stride_mask: u64,
    stats: SiteStats,
}

impl LocalSite {
    /// A site timing every `stride`-th call.
    pub fn new(site: Site, stride: u64) -> LocalSite {
        LocalSite {
            site,
            stride_mask: stride_mask(stride),
            stats: SiteStats::default(),
        }
    }

    /// Count a call; returns the open span when this call is timed.
    pub fn enter(&mut self, tracer: &Tracer) -> Option<Open> {
        let counted = self.stats.calls & self.stride_mask == 0;
        self.stats.calls += 1;
        (counted || SAMPLED.get().is_some()).then(|| tracer.open(self.site, counted))
    }

    /// Close the span `enter` returned; its duration in nanoseconds when
    /// the call was timed.
    pub fn exit(&mut self, tracer: &Tracer, open: Option<Open>) -> Option<u64> {
        let open = open?;
        let counted = open.counted;
        let (ns, nested) = tracer.close(open);
        if counted {
            self.stats.timed.record(ns as f64);
            self.stats.nested_ns += nested.min(ns);
        }
        Some(ns)
    }

    /// Calls seen so far.
    pub fn calls(&self) -> u64 {
        self.stats.calls
    }

    /// Hand the statistics to the tracer.
    pub fn flush(&self, tracer: &Tracer) {
        tracer.absorb(self.site, &self.stats);
    }
}

/// Times `next_event` and picks the events whose span trees are kept.
pub struct TracedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    pulls: LocalSite,
}

impl<S: EventSource> TracedSource<S> {
    /// Wrap `inner`, timing every `stride`-th pull.
    pub fn new(inner: S, tracer: Arc<Tracer>, stride: u64) -> TracedSource<S> {
        TracedSource {
            inner,
            tracer,
            pulls: LocalSite::new(Site::Source, stride),
        }
    }

    /// Flush the statistics and give the source back.
    pub fn finish(self) -> S {
        sample_event(None);
        self.pulls.flush(&self.tracer);
        self.inner
    }
}

impl<S: EventSource> EventSource for TracedSource<S> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        // The tree of event k is everything this thread does from pulling
        // k until it pulls k + 1.
        let index = self.pulls.calls();
        sample_event(index.is_multiple_of(TREE_EVERY).then_some(index));
        let open = self.pulls.enter(&self.tracer);
        let event = self.inner.next_event();
        self.pulls.exit(&self.tracer, open);
        event
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.inner.peek()
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        self.inner.last_arrival_time()
    }

    fn pending_len(&self) -> usize {
        self.inner.pending_len()
    }
}

/// One thread's share of a [`TracedPredictor`]'s statistics, on a cache
/// line of its own so that fleet workers do not contend for it.
#[repr(align(64))]
#[derive(Default)]
struct Shard {
    /// Calls of any entry point; single predictions are calls minus
    /// batch calls, so the common path pays for one counter only.
    calls: AtomicU64,
    batch_calls: AtomicU64,
    batched: AtomicU64,
    timed: Mutex<LatencyHistogram>,
}

const SHARDS: usize = 8;

/// The shard this thread uses (threads beyond `SHARDS` share).
fn shard_index() -> usize {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) as usize % SHARDS;
    }
    MINE.with(|index| *index)
}

/// Times every predictor entry point and counts predictions and batches.
/// One predictor serves every cell and the router, so its counters are
/// per-thread atomics (statistics only, hence `Relaxed`) summed at the end.
///
/// An oracle prediction costs ~15 ns and a LAVA decision makes twenty of
/// them, so the counting itself must stay under a few ns: a locked
/// read-modify-write per call alone cost `serve_open` 5 %. Where the
/// workload runs on one thread (`one_thread`) the counters are therefore
/// bumped with a plain load and store.
pub struct TracedPredictor {
    inner: Arc<dyn LifetimePredictor>,
    tracer: Arc<Tracer>,
    stride: u64,
    stride_mask: u64,
    one_thread: bool,
    shards: [Shard; SHARDS],
}

impl TracedPredictor {
    /// Wrap `inner`, timing every `stride`-th call of each thread.
    /// `one_thread` promises that no two threads call it at once.
    pub fn new(
        inner: Arc<dyn LifetimePredictor>,
        tracer: Arc<Tracer>,
        stride: u64,
        one_thread: bool,
    ) -> Arc<TracedPredictor> {
        Arc::new(TracedPredictor {
            inner,
            tracer,
            stride,
            stride_mask: stride_mask(stride),
            one_thread,
            shards: Default::default(),
        })
    }

    fn shard(&self) -> &Shard {
        &self.shards[if self.one_thread { 0 } else { shard_index() }]
    }

    /// Add `by` to `counter`; returns what it held before.
    fn bump(&self, counter: &AtomicU64, by: u64) -> u64 {
        if self.one_thread {
            let before = counter.load(Ordering::Relaxed);
            counter.store(before + by, Ordering::Relaxed);
            before
        } else {
            counter.fetch_add(by, Ordering::Relaxed)
        }
    }

    fn total(&self, counter: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Calls to `predict_remaining_batch`.
    pub fn batch_calls(&self) -> u64 {
        self.total(|s| &s.batch_calls)
    }

    /// Predictions made through batch calls.
    pub fn batched_predictions(&self) -> u64 {
        self.total(|s| &s.batched)
    }

    /// Individual predictions made, batched or not.
    pub fn predictions(&self) -> u64 {
        self.total(|s| &s.calls) - self.batch_calls() + self.batched_predictions()
    }

    /// Hand the statistics to the tracer (call once, after the run).
    pub fn flush(&self) {
        let mut stats = SiteStats {
            calls: self.total(|s| &s.calls),
            ..SiteStats::default()
        };
        for shard in &self.shards {
            stats
                .timed
                .merge(&shard.timed.lock().expect("no tracer user panics"));
        }
        self.tracer.absorb(Site::Model, &stats);
    }

    fn span<R>(&self, shard: &Shard, call: impl FnOnce() -> R) -> R {
        let counted = self.bump(&shard.calls, 1) & self.stride_mask == 0;
        if !counted && SAMPLED.get().is_none() {
            return call();
        }
        let open = self.tracer.open(Site::Model, counted);
        let result = call();
        let (ns, _) = self.tracer.close(open);
        if counted {
            // Scaled by the stride so an enclosing span's child time is an
            // unbiased estimate even when most predictor calls go untimed.
            MODEL_NS.set(MODEL_NS.get() + ns * self.stride);
            shard
                .timed
                .lock()
                .expect("no tracer user panics")
                .record(ns as f64);
        }
        result
    }
}

impl LifetimePredictor for TracedPredictor {
    fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
        self.span(self.shard(), || self.inner.predict_remaining(vm, now))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict_at_creation(&self, vm: &Vm) -> Duration {
        self.span(self.shard(), || self.inner.predict_at_creation(vm))
    }

    fn predict_remaining_batch<'a>(
        &self,
        vms: &mut dyn Iterator<Item = &'a Vm>,
        now: SimTime,
        sink: &mut dyn FnMut(&'a Vm, Duration),
    ) {
        // Forwarded as a batch, so the batched code path is the one
        // measured; the sink (policy code, a few ns per VM) runs inside
        // the predictor's span.
        let shard = self.shard();
        self.bump(&shard.batch_calls, 1);
        let mut count = 0;
        self.span(shard, || {
            self.inner
                .predict_remaining_batch(vms, now, &mut |vm, remaining| {
                    count += 1;
                    sink(vm, remaining);
                })
        });
        self.bump(&shard.batched, count);
    }
}

/// Times `choose_host` and every hook; on drop, hands its statistics and
/// the inner policy's own counters to the tracer (the engine owns the
/// policy, so drop is the only moment the benchmark sees it again).
pub struct TracedPolicy<P: PlacementPolicy + PolicyProbe> {
    inner: P,
    tracer: Arc<Tracer>,
    choose: LocalSite,
    hooks: LocalSite,
}

impl<P: PlacementPolicy + PolicyProbe> TracedPolicy<P> {
    /// Wrap `inner`, timing every `stride`-th `choose_host`; the hooks
    /// are sub-microsecond for every policy and always strided.
    pub fn new(inner: P, tracer: Arc<Tracer>, stride: u64) -> TracedPolicy<P> {
        TracedPolicy {
            inner,
            tracer,
            choose: LocalSite::new(Site::PolicyChoose, stride),
            hooks: LocalSite::new(Site::PolicyHooks, HOT_STRIDE),
        }
    }
}

impl<P: PlacementPolicy + PolicyProbe> Drop for TracedPolicy<P> {
    fn drop(&mut self) {
        self.choose.flush(&self.tracer);
        self.hooks.flush(&self.tracer);
        let mine = self.inner.counters();
        if let Ok(mut total) = self.tracer.counters.lock() {
            total.cache_hits += mine.cache_hits;
            total.cache_misses += mine.cache_misses;
            total.deadline_corrections += mine.deadline_corrections;
        }
    }
}

impl<P: PlacementPolicy + PolicyProbe> PlacementPolicy for TracedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        // On a thread that pulls no events (a fleet worker) the decision
        // itself starts the sampled tree.
        let index = self.choose.calls();
        let starts_tree = index.is_multiple_of(TREE_EVERY) && SAMPLED.get().is_none();
        if starts_tree {
            sample_event(Some(index));
        }
        let open = self.choose.enter(&self.tracer);
        let host = self.inner.choose_host(cluster, vm, now, exclude);
        self.choose.exit(&self.tracer, open);
        if starts_tree {
            sample_event(None);
        }
        host
    }

    fn on_vm_placed(&mut self, cluster: &mut Cluster, vm: VmId, host: HostId, now: SimTime) {
        let open = self.hooks.enter(&self.tracer);
        self.inner.on_vm_placed(cluster, vm, host, now);
        self.hooks.exit(&self.tracer, open);
    }

    fn on_vm_exited(&mut self, cluster: &mut Cluster, host: HostId, now: SimTime) {
        let open = self.hooks.enter(&self.tracer);
        self.inner.on_vm_exited(cluster, host, now);
        self.hooks.exit(&self.tracer, open);
    }

    fn on_tick(&mut self, cluster: &mut Cluster, now: SimTime) {
        let open = self.hooks.enter(&self.tracer);
        self.inner.on_tick(cluster, now);
        self.hooks.exit(&self.tracer, open);
    }

    fn on_model_health(&mut self, error: f64, samples: usize) {
        let open = self.hooks.enter(&self.tracer);
        self.inner.on_model_health(error, samples);
        self.hooks.exit(&self.tracer, open);
    }
}

/// Times every observer hook; `on_sample` (the O(hosts) one) has its own
/// site and is always timed.
pub struct TracedObserver<O> {
    inner: O,
    tracer: Arc<Tracer>,
    hooks: LocalSite,
    samples: LocalSite,
}

impl<O: SimObserver> TracedObserver<O> {
    /// Wrap `inner`, timing every `stride`-th per-event hook.
    pub fn new(inner: O, tracer: Arc<Tracer>, stride: u64) -> TracedObserver<O> {
        TracedObserver {
            inner,
            tracer,
            hooks: LocalSite::new(Site::Observer, stride),
            samples: LocalSite::new(Site::ObserverSample, 1),
        }
    }

    /// Flush the statistics and give the observer back.
    pub fn finish(self) -> O {
        self.hooks.flush(&self.tracer);
        self.samples.flush(&self.tracer);
        self.inner
    }

    fn hook(&mut self, call: impl FnOnce(&mut O)) {
        let open = self.hooks.enter(&self.tracer);
        call(&mut self.inner);
        self.hooks.exit(&self.tracer, open);
    }
}

impl<O: SimObserver> SimObserver for TracedObserver<O> {
    fn on_placed(&mut self, ctx: &ObserverContext<'_>, vm: VmId, host: HostId) {
        self.hook(|o| o.on_placed(ctx, vm, host));
    }

    fn on_rejected(&mut self, ctx: &ObserverContext<'_>, vm: VmId) {
        self.hook(|o| o.on_rejected(ctx, vm));
    }

    fn on_exited(&mut self, ctx: &ObserverContext<'_>, vm: VmId, host: HostId) {
        self.hook(|o| o.on_exited(ctx, vm, host));
    }

    fn on_migrated(&mut self, ctx: &ObserverContext<'_>, vm: VmId, from: HostId, to: HostId) {
        self.hook(|o| o.on_migrated(ctx, vm, from, to));
    }

    fn on_tick(&mut self, ctx: &ObserverContext<'_>) {
        self.hook(|o| o.on_tick(ctx));
    }

    fn on_sample(&mut self, ctx: &ObserverContext<'_>) {
        let open = self.samples.enter(&self.tracer);
        self.inner.on_sample(ctx);
        self.samples.exit(&self.tracer, open);
    }

    fn on_defrag_trigger(&mut self, ctx: &ObserverContext<'_>) {
        self.hook(|o| o.on_defrag_trigger(ctx));
    }

    fn on_policy_switched(&mut self, ctx: &ObserverContext<'_>) {
        self.hook(|o| o.on_policy_switched(ctx));
    }

    fn on_finish(&mut self, ctx: &ObserverContext<'_>) {
        self.hook(|o| o.on_finish(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::resources::Resources;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;

    fn vm(id: u64) -> Vm {
        let spec = VmSpec::builder(Resources::cores_gib(2, 8)).build();
        Vm::new(VmId(id), spec, SimTime::ZERO, Duration::from_hours(1))
    }

    #[test]
    fn self_time_is_total_minus_children_scaled_by_stride() {
        let mut stats = SiteStats {
            calls: 40,
            ..SiteStats::default()
        };
        // Four of forty calls timed: 1000 ns each, 300 ns of each in a child.
        for _ in 0..4 {
            stats.timed.record(1_000.0);
            stats.nested_ns += 300;
        }
        assert_eq!(stats.total_ns(), 40_000.0);
        assert_eq!(stats.self_ns(), 28_000.0);
        assert_eq!(SiteStats::default().self_ns(), 0.0);

        // Two decorators' statistics absorbed by one tracer add up.
        let tracer = Tracer::new();
        tracer.absorb(Site::PolicyHooks, &stats);
        tracer.absorb(Site::PolicyHooks, &stats);
        let merged = tracer.site(Site::PolicyHooks);
        assert_eq!((merged.calls, merged.timed.count()), (80, 8));
        assert_eq!(merged.nested_ns, 2_400);
        assert_eq!(merged.self_ns(), 56_000.0);
    }

    #[test]
    fn local_site_counts_every_call_and_times_every_stride_th() {
        let tracer = Tracer::new();
        let mut site = LocalSite::new(Site::Observer, 4);
        for _ in 0..10 {
            let open = site.enter(&tracer);
            site.exit(&tracer, open);
        }
        site.flush(&tracer);
        let stats = tracer.site(Site::Observer);
        assert_eq!(stats.calls, 10);
        assert_eq!(stats.timed.count(), 3); // calls 0, 4 and 8
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn predictor_time_inside_a_span_is_its_child_time() {
        let tracer = Tracer::new();
        let predictor =
            TracedPredictor::new(Arc::new(OraclePredictor::new()), tracer.clone(), 1, true);
        let mut outer = LocalSite::new(Site::PolicyChoose, 1);
        sample_event(Some(7));
        let open = outer.enter(&tracer);
        let record = vm(1);
        let mut seen = 0;
        predictor.predict_remaining_batch(
            &mut [&record, &record].into_iter(),
            SimTime::ZERO,
            &mut |_, _| seen += 1,
        );
        predictor.predict_remaining(&record, SimTime::ZERO);
        outer.exit(&tracer, open);
        sample_event(None);
        outer.flush(&tracer);
        predictor.flush();

        assert_eq!(seen, 2);
        assert_eq!((predictor.batch_calls(), predictor.predictions()), (1, 3));
        assert_eq!(predictor.batched_predictions(), 2);
        let (policy, model) = (tracer.site(Site::PolicyChoose), tracer.site(Site::Model));
        assert_eq!((policy.calls, model.calls), (1, 2));
        assert!((policy.nested_ns as f64 - model.timed_ns()).abs() < 1.0);
        assert!(policy.self_ns() <= policy.total_ns());

        // The tree: one policy span under the run, two model spans under it.
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].site, spans[0].parent), (Site::PolicyChoose, None));
        for child in &spans[1..] {
            assert_eq!(
                (child.site, child.parent, child.event),
                (Site::Model, Some(0), 7)
            );
            assert!(child.start_ns >= spans[0].start_ns && child.end_ns <= spans[0].end_ns);
        }
    }
}
