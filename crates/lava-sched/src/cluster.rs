//! Cluster state: a pool of hosts, whose registry holds the live VM
//! records, plus the host exit-time cache.
//!
//! The scheduler algorithms need both views: the hosts (occupancy, LAVA
//! state) and the VM records (uptime, initial predictions) so that they can
//! repredict the remaining lifetime of every VM on a candidate host.
//!
//! # The host exit-time cache
//!
//! NILAS scores a candidate host by its expected *exit time* — the max
//! predicted remaining lifetime over its VMs. Recomputing that for every
//! host on every placement is the dominant cost at scale (Appendix G.3
//! introduces a per-host score cache for exactly this reason). The cache
//! lives here, on the cluster rather than inside one policy, so that every
//! lifetime-aware policy (and the embedded NILAS tie-breaker inside LAVA)
//! shares one view with **event-driven invalidation**:
//!
//! * placing a VM marks the host entry pending; the policy's placement
//!   hook then *raises* the cached max with the new VM's predicted exit
//!   instead of recomputing the whole host (incremental max maintenance);
//! * removing a VM invalidates the entry (the removed VM may
//!   have been the max);
//! * entries expire when their refresh interval lapses or the cached exit
//!   time itself passes (`exit < now` means the prediction was wrong);
//! * clean entries are kept in an exit-time-ordered index so a scoring
//!   pass can walk hosts from latest-exiting to earliest and stop at the
//!   first temporal-cost bucket boundary it cannot improve on.
//!
//! A host awaiting a recompute is in one of two places. **Pending**: it
//! changed since the last refresh pass (a placement no hint healed, a
//! removal, a flush) and no pass has looked at it since.
//! **Parked**: a pass looked at it and its request did not fit — an index
//! ordered by free CPU, so a later pass range-scans only the hosts with
//! at least its request's CPU free. Any change to a host's free capacity
//! moves it back to pending (`place` / `remove` mark it; a
//! mutation through `pool_mut` trips the epoch flush, which unparks every
//! host); whether a host is withheld from scheduling is asked afresh by
//! `can_fit` each time it is looked at. A pass therefore costs
//! O(changed + expired + parked hosts with CPU room for the request),
//! not O(every full host).

use crate::policy::CacheCounters;
use lava_core::error::CoreError;
use lava_core::host::{Host, HostId, HostSpec};
use lava_core::pool::{HostMut, Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};

/// One cached host exit time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExitEntry {
    /// The cached exit time (max predicted VM exit on the host).
    pub(crate) exit: SimTime,
    /// When the entry was (re)computed.
    computed_at: SimTime,
    /// The entry is valid while `now <= expires_at`.
    expires_at: SimTime,
    /// Clean entries appear in `by_exit` / `by_expiry`.
    clean: bool,
    /// Placements since the entry was last clean. Exactly one pending
    /// placement can be healed by an exit-time hint; anything else needs a
    /// recompute.
    pending_places: u8,
    /// A VM left the host (or something else unknowable happened): the
    /// cached max may be stale in either direction, recompute required.
    hard_dirty: bool,
}

/// The shared host exit-time cache (Appendix G.3, promoted to the cluster).
#[derive(Debug, Clone, Default)]
pub(crate) struct ExitCache {
    entries: BTreeMap<HostId, ExitEntry>,
    /// Clean entries ordered by exit time (ascending; scans iterate `.rev()`).
    pub(crate) by_exit: BTreeSet<(SimTime, HostId)>,
    /// Clean entries ordered by expiry time, for O(#expired) staleness sweeps.
    by_expiry: BTreeSet<(SimTime, HostId)>,
    /// Hosts that changed since the last refresh pass and that no pass has
    /// looked at since.
    pending: BTreeSet<HostId>,
    /// Hosts a pass looked at and could not fit its request on, keyed by
    /// their free CPU: a later pass range-scans from its request's CPU
    /// upward and never touches a host with less. The key is current
    /// because every free-capacity change unparks the host.
    parked: BTreeSet<(u64, HostId)>,
    /// Per host, indexed by id: the free CPU it is parked under, or
    /// [`NOT_PARKED`].
    parked_cpu: Vec<u64>,
    /// The pool mutation epoch this cache last synchronized with. A
    /// mismatch at refresh time means occupancy changed behind the
    /// cluster's event feed (via `pool_mut`, or before the cache was
    /// live), and the cache flushes.
    synced_epoch: u64,
    /// Whether the cluster's event feed keeps the cache up: false until
    /// the first refresh pass reads it. Until then `place` / `remove`
    /// and the policy hints leave it alone, and that first pass builds
    /// it from the pool through the epoch flush.
    live: bool,
    /// Buffers of the refresh pass, kept here so that a pass allocates
    /// nothing once they have grown to the pool's working size.
    scratch: RefreshScratch,
}

/// No host has this much CPU free.
const NOT_PARKED: u64 = u64::MAX;

/// What one [`Cluster::refresh_exit_entries`] pass collects before it
/// asks the predictor anything. Empty between passes.
#[derive(Debug, Clone, Default)]
struct RefreshScratch {
    /// Hosts to recompute, in collection order.
    hosts: Vec<HostId>,
    /// Running max exit time per entry of `hosts`.
    exits: Vec<SimTime>,
    /// Per entry of `hosts`: how many VMs had been handed to the predictor
    /// when the last VM of that host was (`u32::MAX` until then).
    handed_by_end: Vec<u32>,
}

impl RefreshScratch {
    /// Queue `host` for recomputation and count the miss it is.
    fn collect(&mut self, host: &Host, repredict: bool, counters: &mut CacheCounters) {
        counters.misses += 1;
        if repredict {
            counters.predictions += host.vm_count() as u64;
        }
        self.hosts.push(host.id());
    }
}

impl ExitCache {
    /// Size the per-host state for `hosts` hosts. Hosts added to the pool
    /// later grow it when they are first parked.
    fn reserve_hosts(&mut self, hosts: usize) {
        if self.parked_cpu.len() < hosts {
            self.parked_cpu.resize(hosts, NOT_PARKED);
        }
    }

    /// Take the host out of `parked`, if it is there.
    fn unpark(&mut self, id: HostId) {
        if let Some(cpu) = self.parked_cpu.get_mut(id.0 as usize) {
            if *cpu != NOT_PARKED {
                self.parked.remove(&(*cpu, id));
                *cpu = NOT_PARKED;
            }
        }
    }

    /// The host changed: whatever a pass concluded about it is void, and
    /// the next pass looks at it.
    fn mark_dirty(&mut self, id: HostId) {
        self.unpark(id);
        self.pending.insert(id);
    }

    /// The host no longer awaits a recompute (fresh entry, or no entry
    /// wanted).
    fn clear_dirty(&mut self, id: HostId) {
        self.unpark(id);
        self.pending.remove(&id);
    }

    /// A pass looked at the host (not parked at that point) and its
    /// request does not fit: park it under its free CPU.
    fn park(&mut self, id: HostId, free_cpu: u64) {
        let i = id.0 as usize;
        self.reserve_hosts(i + 1);
        debug_assert_eq!(self.parked_cpu[i], NOT_PARKED, "{id} parked twice");
        self.parked.insert((free_cpu, id));
        self.parked_cpu[i] = free_cpu;
    }

    /// Occupancy changed behind the cluster's event feed: no entry and no
    /// parking key can be trusted. Every entry goes stale, empty and
    /// vanished hosts are forgotten, and every occupied host is pending
    /// for the pass that follows.
    fn flush(&mut self, pool: &Pool) {
        self.by_exit.clear();
        self.by_expiry.clear();
        self.entries.retain(|&id, e| {
            e.clean = false;
            e.hard_dirty = true;
            pool.host(id).is_some_and(|h| !h.is_empty())
        });
        for &(_, id) in &self.parked {
            self.parked_cpu[id.0 as usize] = NOT_PARKED;
        }
        self.parked.clear();
        self.pending.clear();
        self.pending
            .extend(pool.hosts().filter(|h| !h.is_empty()).map(Host::id));
        self.synced_epoch = pool.mutation_epoch();
    }

    /// Drop a clean entry out of the ordered indexes (before mutating it).
    fn detach(&mut self, id: HostId) {
        if let Some(e) = self.entries.get_mut(&id) {
            if e.clean {
                self.by_exit.remove(&(e.exit, id));
                self.by_expiry.remove(&(e.expires_at, id));
                e.clean = false;
            }
        }
    }

    /// Install a freshly computed entry.
    fn install(&mut self, id: HostId, exit: SimTime, now: SimTime, refresh: Duration) {
        let expires_at = (now + refresh).min(exit).max(now);
        let fresh = ExitEntry {
            exit,
            computed_at: now,
            expires_at,
            clean: true,
            pending_places: 0,
            hard_dirty: false,
        };
        // One descent swaps the entry in and hands back the old one, whose
        // keys (if it was clean) leave the ordered indexes.
        if let Some(old) = self.entries.insert(id, fresh).filter(|old| old.clean) {
            self.by_exit.remove(&(old.exit, id));
            self.by_expiry.remove(&(old.expires_at, id));
        }
        self.by_exit.insert((exit, id));
        self.by_expiry.insert((expires_at, id));
        self.clear_dirty(id);
    }

    /// Remove all trace of a host (it became empty or disappeared).
    fn forget(&mut self, id: HostId) {
        self.detach(id);
        self.entries.remove(&id);
        self.clear_dirty(id);
    }

    /// A VM was placed on the host: the entry can be healed by a hint.
    pub(crate) fn mark_placement(&mut self, id: HostId) {
        self.detach(id);
        if let Some(e) = self.entries.get_mut(&id) {
            e.pending_places = e.pending_places.saturating_add(1);
        }
        self.mark_dirty(id);
    }

    /// Something invalidating happened on the host: recompute required.
    pub(crate) fn mark_hard(&mut self, id: HostId) {
        self.detach(id);
        if let Some(e) = self.entries.get_mut(&id) {
            e.hard_dirty = true;
        }
        self.mark_dirty(id);
    }

    /// The cached exit of a host after a refresh pass (empty hosts exit
    /// "now", as in [`Cluster::host_exit_time`]).
    pub(crate) fn exit_or_now(&self, id: HostId, now: SimTime) -> SimTime {
        self.entries.get(&id).map(|e| e.exit).unwrap_or(now)
    }

    /// True if the host's entry predates `now` — i.e. a lookup at `now`
    /// is genuinely answered from cache rather than from a recompute made
    /// in the same pass. Used for honest hit accounting in the candidate walks.
    pub(crate) fn cached_before(&self, id: HostId, now: SimTime) -> bool {
        self.entries.get(&id).is_some_and(|e| e.computed_at < now)
    }
}

/// A pool of hosts, whose registry holds the live VM records, plus the
/// host exit-time cache.
///
/// The registry's one id table (4-byte slots over the pages its ids
/// touch) is the cluster's only VM-keyed table. As one cell of a fleet
/// whose router spreads consecutive ids over every cell, it touches every
/// page of the live id window, so it pays 4 bytes per id of that window,
/// however few of those ids it holds. Lookups are one table read plus one
/// slot read; create/exit churn re-uses warm slots without allocating.
///
/// The exit cache sits in a `RefCell`, because a decision refreshes it
/// through `&Cluster`. A cluster moves between threads but is never shared
/// by two, so it is `Send` and not `Sync`.
#[derive(Debug)]
pub struct Cluster {
    pool: Pool,
    exit_cache: RefCell<ExitCache>,
}

impl Clone for Cluster {
    fn clone(&self) -> Cluster {
        Cluster {
            pool: self.pool.clone(),
            exit_cache: RefCell::new(self.exit_cache.borrow().clone()),
        }
    }
}

impl Cluster {
    /// Create a cluster around an existing pool.
    pub fn new(pool: Pool) -> Cluster {
        let mut exit_cache = ExitCache::default();
        exit_cache.reserve_hosts(pool.host_count());
        Cluster {
            pool,
            exit_cache: RefCell::new(exit_cache),
        }
    }

    /// Create a cluster of `hosts` identical hosts.
    pub fn with_uniform_hosts(hosts: usize, spec: HostSpec) -> Cluster {
        Cluster::new(Pool::with_uniform_hosts(PoolId(0), hosts, spec))
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Mutable access to the underlying pool.
    ///
    /// Mutating occupancy through the pool directly bypasses the exit-time
    /// cache's event feed; the cache detects this through the pool's
    /// mutation epoch and flushes itself on the next refresh pass.
    pub fn pool_mut(&mut self) -> &mut Pool {
        &mut self.pool
    }

    /// A live VM record by id.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.pool.vm(id)
    }

    /// Iterator over the live VM records in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> + '_ {
        self.pool.vms()
    }

    /// Number of live VM records.
    pub fn vm_count(&self) -> usize {
        self.pool.record_count()
    }

    /// Pre-size the pool's registry for ids below `max_id` and at most
    /// `live` concurrent VMs: steady-state churn within those bounds then
    /// never allocates (the drive contract the counting-allocator tests
    /// pin down).
    pub fn reserve_vm_capacity(&mut self, max_id: u64, live: usize) {
        self.pool.reserve_vms(max_id, live);
        self.exit_cache
            .get_mut()
            .reserve_hosts(self.pool.host_count());
    }

    /// A bounded, deterministic sample of at most `cap` live VMs: every
    /// ⌈n/cap⌉-th VM in placement order (exits swap-remove, perturbing but
    /// never randomising the order). O(cap) regardless of the live-VM
    /// count — this is what keeps fleet `CellSummary` extraction bounded.
    pub fn sampled_vms(&self, cap: usize) -> impl Iterator<Item = &Vm> + '_ {
        self.pool.sampled_vms(cap)
    }

    /// A host by id.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.pool.host(id)
    }

    /// A mutable host by id (guarded: the pool's candidate indexes are
    /// updated when the guard drops).
    pub fn host_mut(&mut self, id: HostId) -> Option<HostMut<'_>> {
        self.pool.host_mut(id)
    }

    /// Iterator over hosts in id order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> + '_ {
        self.pool.hosts()
    }

    /// Place a VM record on a host, registering it in the pool.
    ///
    /// # Errors
    ///
    /// Propagates host capacity and duplicate errors; nothing changes then.
    pub fn place(&mut self, vm: Vm, host: HostId) -> Result<(), CoreError> {
        self.pool.place_record(host, vm)?;
        let cache = self.exit_cache.get_mut();
        if cache.live {
            cache.mark_placement(host);
            // Advance by exactly the one pool mutation made above: setting
            // to the pool's epoch outright would absorb (and mask) any
            // bypass mutations made through pool_mut since the last refresh.
            cache.synced_epoch += 1;
        }
        Ok(())
    }

    /// Remove a VM entirely (it exited). Returns the record and the host it
    /// was on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if no live VM of this id has a
    /// record (a bypass placement has none); nothing changes then.
    pub fn remove(&mut self, vm: VmId) -> Result<(Vm, HostId), CoreError> {
        let (record, host) = self.pool.remove_record(vm)?;
        let cache = self.exit_cache.get_mut();
        if cache.live {
            if self.pool.host(host).is_none_or(|h| h.is_empty()) {
                cache.forget(host);
            } else {
                cache.mark_hard(host);
            }
            cache.synced_epoch += 1;
        }
        Ok((record, host))
    }

    /// The feasible hosts for a request: available hosts with enough free
    /// resources, in deterministic id order.
    pub fn feasible_hosts(&self, request: Resources) -> impl Iterator<Item = &Host> + '_ {
        self.pool.hosts().filter(move |h| h.can_fit(request))
    }

    /// The repredicted exit time of a host: `now + max` over its VMs of the
    /// predicted remaining lifetime. Empty hosts exit "now". Uncached.
    ///
    /// All of the host's VMs are repredicted through **one**
    /// [`LifetimePredictor::predict_remaining_batch`] call rather than N
    /// virtual dispatches; scalar predictors fall back to the equivalent
    /// per-VM loop. Results are bit-identical either way.
    pub fn host_exit_time(
        &self,
        host: &Host,
        predictor: &dyn LifetimePredictor,
        now: SimTime,
    ) -> SimTime {
        let mut latest: Option<SimTime> = None;
        let mut vms = host.vm_ids().filter_map(|id| self.vm(id));
        predictor.predict_remaining_batch(&mut vms, now, &mut |_, remaining| {
            let exit = now + remaining;
            latest = Some(latest.map_or(exit, |m| m.max(exit)));
        });
        latest.unwrap_or(now)
    }

    /// The host exit time based on **initial** (scheduling-time) predictions
    /// only — the one-shot view used by LA (Barbalho et al.).
    pub fn host_exit_time_initial(&self, host: &Host, now: SimTime) -> SimTime {
        host.vm_ids()
            .filter_map(|id| self.vm(id))
            .map(|vm| {
                let lifetime = vm.initial_prediction().unwrap_or_default();
                vm.created_at() + lifetime
            })
            .max()
            .unwrap_or(now)
    }

    // --- exit-time cache operations --------------------------------------

    /// Borrow the exit cache for a read-only scan. Callers should run
    /// [`Cluster::refresh_exit_entries`] first so every occupied host has a
    /// valid entry.
    pub(crate) fn exit_cache(&self) -> Ref<'_, ExitCache> {
        self.exit_cache.borrow()
    }

    /// Bring the cache up to date at `now` for a placement of `request`:
    /// recompute the entries of hosts that changed, restore coverage, and
    /// sweep entries whose refresh interval or exit time has passed. Hosts
    /// that cannot fit `request` are *not* recomputed — the scan skips
    /// them anyway — and are parked under their free CPU instead, until a
    /// request they can fit comes along: only hosts that would actually be
    /// scored cost predictions.
    ///
    /// A pass looks at the parked hosts with at least the request's CPU
    /// free — one range scan; a host with less is never touched, a host
    /// with the CPU but not the memory (or withheld from scheduling) is
    /// looked at and left parked — at the hosts that changed since the
    /// last pass (`pending`), and at the expired entries:
    /// O(changed + expired + parked hosts with CPU room), counted in
    /// [`CacheCounters::examined`].
    ///
    /// The pass first collects every host to recompute, then repredicts
    /// all of their VMs through **one**
    /// [`LifetimePredictor::predict_remaining_batch`] call and installs the
    /// per-host maxima: one virtual dispatch (and, for the compiled GBDT,
    /// one table lock) per placement instead of one per stale host. The
    /// entries, indexes and counters it leaves are those of recomputing
    /// host by host, changed hosts in id order and then expired ones in
    /// expiry order — which is also the order the predictor is handed
    /// their VMs in.
    ///
    /// After this returns, every occupied host that can fit `request` has
    /// a valid entry in `by_exit`. An entry stays valid for `refresh` after
    /// it was computed, or until its own exit time if that comes first; with
    /// a `refresh` of zero that is the instant it was computed and no later.
    pub(crate) fn refresh_exit_entries(
        &self,
        predictor: &dyn LifetimePredictor,
        now: SimTime,
        refresh: Duration,
        repredict: bool,
        request: Resources,
        counters: &mut CacheCounters,
    ) {
        let mut guard = self.exit_cache.borrow_mut();
        let cache = &mut *guard;
        // 1. Bypass detection: if the pool's occupancy changed without the
        //    cluster seeing it (mutations through `pool_mut`), no entry can
        //    be trusted — flush everything and rebuild lazily. The epoch
        //    comparison is O(1) and never fires for cluster-routed events
        //    once the cache is live; the first pass over an occupied pool
        //    builds the cache this way.
        if cache.synced_epoch != self.pool.mutation_epoch() {
            cache.flush(&self.pool);
        }
        cache.live = true;
        // 2. Parked hosts with the CPU for this request; the ones it fits
        //    on altogether leave the index once the range borrow ends.
        for &(_, id) in cache.parked.range((request.cpu_milli, HostId(0))..) {
            counters.examined += 1;
            if let Some(h) = self.pool.host(id).filter(|h| h.can_fit(request)) {
                cache.scratch.collect(h, repredict, counters);
            }
        }
        for i in 0..cache.scratch.hosts.len() {
            cache.unpark(cache.scratch.hosts[i]);
        }
        // 3. Hosts that changed (placements without hints, removals, a
        //    flush), in id order. Feasible ones are
        //    collected, the rest parked.
        while let Some(id) = cache.pending.pop_first() {
            counters.examined += 1;
            match self.pool.host(id) {
                Some(h) if h.is_empty() => cache.forget(id),
                Some(h) if h.can_fit(request) => cache.scratch.collect(h, repredict, counters),
                Some(h) => cache.park(id, h.free().cpu_milli),
                None => cache.forget(id),
            }
        }
        cache.scratch.hosts.sort_unstable();
        // 4. Expired entries, in expiry order: O(#expired), not O(hosts).
        //    Every arm takes the entry out of `by_expiry`, which is what
        //    advances the sweep. Infeasible expired hosts are parked
        //    instead of being recomputed.
        while let Some(&(expires_at, id)) = cache.by_expiry.iter().next() {
            if expires_at >= now {
                break;
            }
            counters.examined += 1;
            match self.pool.host(id) {
                Some(h) if h.is_empty() => cache.forget(id),
                Some(h) if h.can_fit(request) => {
                    cache.detach(id);
                    cache.scratch.collect(h, repredict, counters);
                }
                Some(h) => {
                    cache.detach(id);
                    cache.park(id, h.free().cpu_milli);
                }
                None => cache.forget(id),
            }
        }
        // 5. One predictor call over the VMs of every collected host. An
        //    empty host exits "now" and `now + remaining >= now`, so the
        //    running maxima start there.
        let scratch = &mut cache.scratch;
        if scratch.hosts.is_empty() {
            return;
        }
        scratch.exits.resize(scratch.hosts.len(), now);
        if !repredict {
            for (&id, exit) in scratch.hosts.iter().zip(&mut scratch.exits) {
                if let Some(h) = self.pool.host(id) {
                    *exit = self.host_exit_time_initial(h, now);
                }
            }
        } else {
            // The sink is told VMs in hand-out order but not whose they
            // are, and the predictor may pull any number of VMs before it
            // reports the first. So the iterator notes, as it leaves each
            // host, how many VMs it has handed out by then; the sink's
            // n-th VM belongs to the first host whose note exceeds n (an
            // unwritten note reads `u32::MAX`: still on that host).
            scratch.handed_by_end.resize(scratch.hosts.len(), u32::MAX);
            let handed_by_end = Cell::from_mut(&mut scratch.handed_by_end[..]).as_slice_of_cells();
            let hosts = &scratch.hosts;
            let exits = &mut scratch.exits;
            let mut current = self.pool.host(hosts[0]).map(Host::vm_ids);
            let (mut entered, mut handed) = (1, 0u32);
            let mut vms = std::iter::from_fn(|| loop {
                let ids = current.as_mut();
                if let Some(vm) = ids.and_then(|ids| ids.find_map(|id| self.vm(id))) {
                    handed += 1;
                    return Some(vm);
                }
                handed_by_end[entered - 1].set(handed);
                let &id = hosts.get(entered)?;
                entered += 1;
                current = self.pool.host(id).map(Host::vm_ids);
            });
            let (mut reported, mut slot) = (0u32, 0);
            predictor.predict_remaining_batch(&mut vms, now, &mut |_, remaining| {
                while reported >= handed_by_end[slot].get() {
                    slot += 1;
                }
                reported += 1;
                exits[slot] = exits[slot].max(now + remaining);
            });
        }
        for i in 0..cache.scratch.hosts.len() {
            let (id, exit) = (cache.scratch.hosts[i], cache.scratch.exits[i]);
            cache.install(id, exit, now, refresh);
        }
        cache.scratch.hosts.clear();
        cache.scratch.exits.clear();
        cache.scratch.handed_by_end.clear();
    }

    /// Incremental max-exit maintenance: after a placement, raise the
    /// host's cached exit time with the placed VM's predicted exit instead
    /// of repredicting every VM on the host. Only heals an entry whose sole
    /// pending event is that single placement; in every other situation the
    /// entry stays dirty and the next refresh pass recomputes it. A cache
    /// no pass has read yet ignores the hint.
    pub(crate) fn apply_exit_hint(
        &mut self,
        host: HostId,
        vm_exit: SimTime,
        now: SimTime,
        refresh: Duration,
    ) {
        let cache = self.exit_cache.get_mut();
        if !cache.live {
            return;
        }
        let Some(h) = self.pool.host(host) else {
            return;
        };
        if h.is_empty() {
            return;
        }
        let single_vm = h.vm_count() == 1;
        match cache.entries.get(&host) {
            Some(e) if !e.hard_dirty && e.pending_places == 1 && !e.clean => {
                let exit = e.exit.max(vm_exit);
                let computed_at = e.computed_at;
                let expires_at = (computed_at + refresh).min(exit).max(computed_at);
                cache.entries.insert(
                    host,
                    ExitEntry {
                        exit,
                        computed_at,
                        expires_at,
                        clean: true,
                        pending_places: 0,
                        hard_dirty: false,
                    },
                );
                cache.by_exit.insert((exit, host));
                cache.by_expiry.insert((expires_at, host));
                cache.clear_dirty(host);
            }
            None if single_vm => {
                // First VM on the host: its exit *is* the host exit.
                cache.install(host, vm_exit, now, refresh);
            }
            _ => {}
        }
    }

    /// Invalidate the cached exit time of one host (recompute on next use).
    /// A cache no pass has read yet has nothing to invalidate.
    pub(crate) fn invalidate_exit(&mut self, host: HostId) {
        let cache = self.exit_cache.get_mut();
        if cache.live {
            cache.mark_hard(host);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::time::Duration;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;

    fn cluster() -> Cluster {
        Cluster::with_uniform_hosts(4, HostSpec::new(Resources::cores_gib(32, 128)))
    }

    fn vm(id: u64, hours: u64) -> Vm {
        Vm::new(
            VmId(id),
            VmSpec::builder(Resources::cores_gib(4, 16)).build(),
            SimTime::ZERO,
            Duration::from_hours(hours),
        )
    }

    #[test]
    fn place_remove_roundtrip() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        assert_eq!(c.vm_count(), 1);
        assert_eq!(c.pool().host_of(VmId(1)), Some(HostId(0)));
        let (record, host) = c.remove(VmId(1)).unwrap();
        assert_eq!(host, HostId(0));
        assert_eq!(record.id(), VmId(1));
        assert_eq!(c.pool().host_of(VmId(1)), None);
        assert_eq!(c.vm_count(), 0);
        assert!(c.host(HostId(0)).unwrap().is_empty());
    }

    #[test]
    fn removing_a_vm_without_a_record_fails_and_changes_nothing() {
        let mut c = cluster();
        let request = Resources::cores_gib(2, 8);
        c.pool_mut().place_vm(HostId(1), VmId(9), request).unwrap();
        assert_eq!(
            c.remove(VmId(9)),
            Err(CoreError::VmNotFound { vm: VmId(9) })
        );
        assert_eq!(c.pool().host_of(VmId(9)), Some(HostId(1)));
        assert_eq!(c.pool().vm_count(), 1);
        assert_eq!(c.pool().total_used(), request);
        c.pool().validate_index().unwrap();
        // A record that leaves through the pool leaves for good: its
        // slot, re-used by VM 9, does not bring it back.
        c.place(vm(1, 5), HostId(0)).unwrap();
        c.pool_mut().remove_vm(VmId(9)).unwrap();
        c.pool_mut().remove_vm(VmId(1)).unwrap();
        c.pool_mut().place_vm(HostId(2), VmId(9), request).unwrap();
        assert!(c.vm(VmId(1)).is_none() && c.vm(VmId(9)).is_none());
        assert_eq!((c.vm_count(), c.vms().count()), (0, 0));
        c.pool().validate_index().unwrap();
    }

    #[test]
    fn feasible_hosts_respects_capacity_and_availability() {
        let mut c = cluster();
        c.host_mut(HostId(3)).unwrap().set_unavailable(true);
        let feasible: Vec<HostId> = c
            .feasible_hosts(Resources::cores_gib(4, 16))
            .map(|h| h.id())
            .collect();
        assert_eq!(feasible, vec![HostId(0), HostId(1), HostId(2)]);
    }

    #[test]
    fn host_exit_time_uses_repredictions() {
        let mut c = cluster();
        c.place(vm(1, 2), HostId(0)).unwrap();
        c.place(vm(2, 10), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let now = SimTime::ZERO + Duration::from_hours(1);
        let exit = c.host_exit_time(c.host(HostId(0)).unwrap(), &oracle, now);
        assert_eq!(exit, SimTime::ZERO + Duration::from_hours(10));
        // Empty host exits immediately.
        let empty_exit = c.host_exit_time(c.host(HostId(1)).unwrap(), &oracle, now);
        assert_eq!(empty_exit, now);
    }

    #[test]
    fn host_exit_time_batched_matches_reference_engine() {
        // The compiled predictor answers `host_exit_time` through its
        // batched override; the reference engine goes VM by VM. Same VMs,
        // same clock — the exit times must be identical.
        use lava_model::dataset::DatasetBuilder;
        use lava_model::gbdt::GbdtConfig;
        use lava_model::predictor::GbdtPredictor;

        let mut builder = DatasetBuilder::new();
        for i in 0..200u64 {
            let spec = VmSpec::builder(Resources::cores_gib(1 + (i % 4), 8))
                .category((i % 2) as u32)
                .build();
            builder.push(spec, Duration::from_hours(1 + (i % 72)));
        }
        let reference = GbdtPredictor::train(GbdtConfig::fast(), &builder.build());
        let compiled = reference.compile();

        let mut c = Cluster::with_uniform_hosts(1, HostSpec::new(Resources::cores_gib(256, 1024)));
        for i in 0..70u64 {
            let spec = VmSpec::builder(Resources::cores_gib(1 + (i % 4), 8))
                .category((i % 2) as u32)
                .build();
            let vm = Vm::new(
                VmId(i),
                spec,
                SimTime::ZERO + Duration::from_mins(i),
                Duration::from_hours(500),
            );
            c.place(vm, HostId(0)).unwrap();
        }
        let now = SimTime::ZERO + Duration::from_hours(9);
        let host = c.host(HostId(0)).unwrap();
        assert_eq!(
            c.host_exit_time(host, &reference, now),
            c.host_exit_time(host, &compiled, now),
        );
    }

    #[test]
    fn host_exit_time_initial_uses_one_shot_predictions() {
        let mut c = cluster();
        let mut v = vm(1, 10);
        v.set_initial_prediction(Duration::from_hours(2)); // wrong prediction
        c.place(v, HostId(0)).unwrap();
        let now = SimTime::ZERO + Duration::from_hours(5);
        let exit = c.host_exit_time_initial(c.host(HostId(0)).unwrap(), now);
        // LA still believes the host frees up at t=2h even though the VM is
        // alive at t=5h.
        assert_eq!(exit, SimTime::ZERO + Duration::from_hours(2));
    }

    #[test]
    fn refresh_builds_exact_exit_order() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        c.place(vm(2, 2), HostId(1)).unwrap();
        c.place(vm(3, 30), HostId(3)).unwrap();
        let oracle = OraclePredictor::new();
        let mut counters = CacheCounters::default();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            Duration::from_mins(1),
            true,
            Resources::ZERO,
            &mut counters,
        );
        let cache = c.exit_cache();
        let order: Vec<HostId> = cache.by_exit.iter().rev().map(|&(_, id)| id).collect();
        assert_eq!(order, vec![HostId(3), HostId(0), HostId(1)]);
        assert_eq!(counters.misses, 3);
        assert_eq!(counters.predictions, 3);
    }

    #[test]
    fn cache_heals_after_direct_pool_mutation() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let mut counters = CacheCounters::default();
        let refresh = Duration::from_hours(1);
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        // Mutate occupancy behind the cluster's back.
        c.pool_mut()
            .place_vm(HostId(2), VmId(9), Resources::cores_gib(2, 8))
            .unwrap();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        let cache = c.exit_cache();
        assert!(cache.valid_exit(HostId(2), SimTime::ZERO).is_some());
    }

    #[test]
    fn bypass_mutation_not_masked_by_later_cluster_ops() {
        // A pool_mut bypass followed by a cluster-routed op before the next
        // refresh: the cluster op must not absorb the bypass's epoch bump.
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let refresh = Duration::from_hours(1);
        let mut counters = CacheCounters::default();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        // Swap occupancy behind the cluster's back: empty host 0, occupy
        // host 2 — entry count stays equal, only the epoch can tell.
        c.pool_mut().remove_vm(VmId(1)).unwrap();
        c.pool_mut()
            .place_vm(HostId(2), VmId(9), Resources::cores_gib(2, 8))
            .unwrap();
        // A cluster-routed placement happens before any refresh.
        c.place(vm(3, 4), HostId(1)).unwrap();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        let cache = c.exit_cache();
        assert!(
            cache.valid_exit(HostId(0), SimTime::ZERO).is_none(),
            "stale entry for the emptied host must be flushed"
        );
        assert!(
            cache.valid_exit(HostId(2), SimTime::ZERO).is_some(),
            "the bypass-occupied host must be covered"
        );
        assert!(cache.valid_exit(HostId(1), SimTime::ZERO).is_some());
    }

    /// The refresh pass as it was before batching and before the dirty
    /// set was split: one ordered set of hosts awaiting a recompute,
    /// walked whole on every pass, every stale feasible host recomputed
    /// on the spot through its own predictor call. Kept as the oracle the
    /// real pass must leave identical state to.
    impl Cluster {
        /// Runs the oracle pass and returns the dirty set it leaves.
        fn refresh_exit_entries_per_host(
            &self,
            predictor: &dyn LifetimePredictor,
            now: SimTime,
            refresh: Duration,
            repredict: bool,
            request: Resources,
            counters: &mut CacheCounters,
        ) -> BTreeSet<HostId> {
            let mut cache = self.exit_cache.borrow_mut();
            let mut dirty = cache.dirty_set();
            let recompute = |cache: &mut ExitCache, counters: &mut CacheCounters, h: &Host| {
                counters.misses += 1;
                if repredict {
                    counters.predictions += h.vm_count() as u64;
                }
                let exit = if repredict {
                    self.host_exit_time(h, predictor, now)
                } else {
                    self.host_exit_time_initial(h, now)
                };
                cache.install(h.id(), exit, now, refresh);
            };
            if cache.synced_epoch != self.pool.mutation_epoch() {
                let ids: Vec<HostId> = cache.entries.keys().copied().collect();
                for id in ids {
                    cache.mark_hard(id);
                    dirty.insert(id);
                }
                for h in self.pool.hosts().filter(|h| !h.is_empty()) {
                    if !cache.entries.contains_key(&h.id()) {
                        dirty.insert(h.id());
                    }
                }
                cache.synced_epoch = self.pool.mutation_epoch();
            }
            cache.live = true;
            let mut cursor = HostId(0);
            while let Some(&id) = dirty.range(cursor..).next() {
                cursor = HostId(id.0 + 1);
                match self.pool.host(id) {
                    Some(h) if h.is_empty() => cache.forget(id),
                    Some(h) if h.can_fit(request) => recompute(&mut cache, counters, h),
                    Some(_) => continue,
                    None => cache.forget(id),
                }
                dirty.remove(&id);
            }
            while let Some(&(expires_at, id)) = cache.by_expiry.iter().next() {
                if expires_at >= now {
                    break;
                }
                match self.pool.host(id) {
                    Some(h) if h.is_empty() => cache.forget(id),
                    Some(h) if h.can_fit(request) => recompute(&mut cache, counters, h),
                    Some(_) => {
                        cache.detach(id);
                        dirty.insert(id);
                    }
                    None => cache.forget(id),
                }
            }
            dirty
        }

        /// The entries, both orderings, the epoch and the liveness of the
        /// exit cache, for comparing two clusters.
        fn exit_cache_view(&self) -> String {
            let cache = self.exit_cache.borrow();
            assert!(
                cache.scratch.hosts.is_empty()
                    && cache.scratch.exits.is_empty()
                    && cache.scratch.handed_by_end.is_empty(),
                "refresh scratch must be empty between passes"
            );
            format!(
                "{:?} {:?} {:?} {} {}",
                cache.entries, cache.by_exit, cache.by_expiry, cache.synced_epoch, cache.live
            )
        }

        /// The hosts awaiting a recompute after a pass (see
        /// [`ExitCache::dirty_set`]); every parking key must be the
        /// host's free CPU.
        fn dirty_hosts(&self) -> BTreeSet<HostId> {
            let cache = self.exit_cache.borrow();
            assert_eq!(cache.synced_epoch, self.pool.mutation_epoch());
            for &(cpu, id) in &cache.parked {
                assert_eq!(cpu, self.pool.host(id).unwrap().free().cpu_milli, "{id}");
            }
            cache.dirty_set()
        }
    }

    impl ExitCache {
        /// The cached exit time of a host, if its entry is valid at `now`.
        fn valid_exit(&self, id: HostId, now: SimTime) -> Option<SimTime> {
            self.entries
                .get(&id)
                .filter(|e| e.clean && now <= e.expires_at)
                .map(|e| e.exit)
        }

        /// `pending ∪ parked` — what the oracle's one `dirty` set holds —
        /// after checking that the two are disjoint and that the index
        /// and the per-host keys tell the same story.
        fn dirty_set(&self) -> BTreeSet<HostId> {
            let mut dirty = self.pending.clone();
            for &(cpu, id) in &self.parked {
                assert_eq!(self.parked_cpu[id.0 as usize], cpu, "{id} key");
                assert!(dirty.insert(id), "{id} pending and parked");
            }
            let keyed = self.parked_cpu.iter().filter(|&&cpu| cpu != NOT_PARKED);
            assert_eq!(
                keyed.count(),
                self.parked.len(),
                "keys without a parked host"
            );
            dirty
        }
    }

    /// An oracle that pulls the whole batch before it reports the first
    /// prediction — the opposite extreme from the default per-VM loop, and
    /// what a vectorised predictor is free to do.
    struct PullAheadOracle;

    impl LifetimePredictor for PullAheadOracle {
        fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
            OraclePredictor.predict_remaining(vm, now)
        }
        fn name(&self) -> &'static str {
            "pull-ahead-oracle"
        }
        fn predict_remaining_batch<'a>(
            &self,
            vms: &mut dyn Iterator<Item = &'a Vm>,
            now: SimTime,
            sink: &mut dyn FnMut(&'a Vm, Duration),
        ) {
            let pulled: Vec<&Vm> = vms.collect();
            for vm in pulled {
                sink(vm, self.predict_remaining(vm, now));
            }
        }
    }

    /// Notes every VM the wrapped predictor is handed, in hand-out order.
    struct HandOuts<'p> {
        inner: &'p dyn LifetimePredictor,
        seen: std::sync::Mutex<Vec<VmId>>,
    }

    impl<'p> HandOuts<'p> {
        fn of(inner: &'p dyn LifetimePredictor) -> HandOuts<'p> {
            HandOuts {
                inner,
                seen: std::sync::Mutex::new(Vec::new()),
            }
        }
    }

    impl LifetimePredictor for HandOuts<'_> {
        fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
            self.seen.lock().unwrap().push(vm.id());
            self.inner.predict_remaining(vm, now)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn predict_remaining_batch<'a>(
            &self,
            vms: &mut dyn Iterator<Item = &'a Vm>,
            now: SimTime,
            sink: &mut dyn FnMut(&'a Vm, Duration),
        ) {
            let mut noted = vms.inspect(|vm| self.seen.lock().unwrap().push(vm.id()));
            self.inner.predict_remaining_batch(&mut noted, now, sink);
        }
    }

    /// Run the oracle pass on one clone of `c` and the real pass on
    /// another, once per way of draining a batch, and require the same
    /// counters, cache state, dirty set and VM hand-out sequence.
    fn assert_pass_matches_oracle(
        c: &Cluster,
        now: SimTime,
        refresh: Duration,
        repredict: bool,
        request: Resources,
    ) {
        let per_host = c.clone();
        let mut expected = CacheCounters::default();
        let spec = HandOuts::of(&OraclePredictor);
        let expected_dirty = per_host.refresh_exit_entries_per_host(
            &spec,
            now,
            refresh,
            repredict,
            request,
            &mut expected,
        );
        let expected_handed = spec.seen.into_inner().unwrap();
        let predictors: [&dyn LifetimePredictor; 2] = [&OraclePredictor, &PullAheadOracle];
        for predictor in predictors {
            let context = format!(
                "{} at {now:?}, request {request:?}, repredict {repredict}",
                predictor.name()
            );
            let real = c.clone();
            let mut counters = CacheCounters::default();
            let noted = HandOuts::of(predictor);
            real.refresh_exit_entries(&noted, now, refresh, repredict, request, &mut counters);
            // The oracle has no notion of hosts looked at.
            counters.examined = 0;
            assert_eq!(counters, expected, "{context}");
            assert_eq!(
                real.exit_cache_view(),
                per_host.exit_cache_view(),
                "{context}"
            );
            assert_eq!(real.dirty_hosts(), expected_dirty, "{context}");
            assert_eq!(
                noted.seen.into_inner().unwrap(),
                expected_handed,
                "{context}"
            );
        }
    }

    mod refresh_parity {
        use super::*;
        use crate::nilas::NilasPolicy;
        use crate::policy::PlacementPolicy;
        use proptest::prelude::*;
        use std::sync::Arc;

        /// First id of the VMs placed straight into the pool, which carry
        /// no record.
        const BYPASS_ID_BASE: u64 = 1 << 20;

        proptest! {
            /// Over random placements, exits and clock advances (the grid
            /// of `tests/scan_parity.rs`) plus hosts withheld and released
            /// through `host_mut`, VMs placed and removed behind the
            /// cluster's back, and hosts emptied outright — all with hosts
            /// parked — the real refresh pass leaves the entries, both
            /// orderings, the hosts awaiting a recompute and the counters
            /// that walking one dirty set and recomputing host by host
            /// leaves, and hands the predictor the same VMs in the same
            /// order: for requests that fit everywhere, somewhere and
            /// nowhere, short of CPU or only of memory, with and without
            /// repredictions, whichever way the predictor drains a batch.
            ///
            /// The ops start after a random-length warm-up of best-fit
            /// placements and exits that no pass reads, as a baseline
            /// warm-up leaves the cluster for NILAS or LAVA.
            #[test]
            fn pass_matches_per_host_recompute_of_one_dirty_set(
                warmup in proptest::collection::vec((0u8..3, 1u64..16, 1u64..8), 0..40),
                ops in proptest::collection::vec((0u8..9, 0u64..600, 1u64..16, 1u64..8), 1..60),
            ) {
                let refresh = Duration::from_mins(1);
                let mut policy = NilasPolicy::with_defaults(Arc::new(OraclePredictor::new()));
                let mut c =
                    Cluster::with_uniform_hosts(12, HostSpec::new(Resources::cores_gib(32, 128)));
                let mut now = SimTime::ZERO;
                let mut next_id = 0u64;
                let mut bypassed: Vec<VmId> = Vec::new();
                for (action, hours, cores) in warmup {
                    drive_best_fit(&mut c, action, next_id, hours, cores, now);
                    next_id += 1;
                }
                for (action, delay, hours, cores) in ops {
                    now += Duration::from_secs(delay);
                    let pick = hours as usize * 7 + cores as usize;
                    match action {
                        0..=3 => {
                            let v = Vm::new(
                                VmId(next_id),
                                VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
                                now,
                                Duration::from_hours(hours * hours),
                            );
                            next_id += 1;
                            let requests = [
                                v.resources(),
                                Resources::ZERO,
                                Resources::cores_gib(16, 64),
                                Resources::cores_gib(64, 256),
                                // CPU on most hosts, memory on few or none.
                                Resources::cores_gib(1, 112),
                                Resources::cores_gib(0, 256),
                            ];
                            for request in requests {
                                for repredict in [true, false] {
                                    assert_pass_matches_oracle(&c, now, refresh, repredict, request);
                                }
                            }
                            // A probe that finds no room leaves hosts
                            // parked in the state the next steps start from.
                            c.refresh_exit_entries(
                                &OraclePredictor,
                                now,
                                refresh,
                                true,
                                requests[2 + pick % 4],
                                &mut CacheCounters::default(),
                            );
                            if let Some(host) = policy.choose_host(&c, &v, now, None) {
                                let id = v.id();
                                c.place(v, host).unwrap();
                                policy.on_vm_placed(&mut c, id, host, now);
                            }
                        }
                        4 | 5 => {
                            let live: Vec<VmId> = c.vms().map(|v| v.id()).collect();
                            if !live.is_empty() {
                                let victim = live[pick % live.len()];
                                let (_, host) = c.remove(victim).unwrap();
                                policy.on_vm_exited(&mut c, host, now);
                            }
                        }
                        6 => {
                            // Every VM the cluster knows of on one host.
                            let host = HostId(pick as u64 % 12);
                            let on_host: Vec<VmId> = c
                                .vms()
                                .filter(|v| c.pool().host_of(v.id()) == Some(host))
                                .map(|v| v.id())
                                .collect();
                            for victim in on_host {
                                c.remove(victim).unwrap();
                                policy.on_vm_exited(&mut c, host, now);
                            }
                        }
                        7 => {
                            let mut host = c.host_mut(HostId(pick as u64 % 12)).unwrap();
                            let withheld = host.is_unavailable();
                            host.set_unavailable(!withheld);
                        }
                        _ => {
                            if cores % 2 == 0 && !bypassed.is_empty() {
                                let victim = bypassed.swap_remove(pick % bypassed.len());
                                c.pool_mut().remove_vm(victim).unwrap();
                            } else {
                                let id = VmId(BYPASS_ID_BASE + next_id);
                                next_id += 1;
                                let placed = c.pool_mut().place_vm(
                                    HostId(pick as u64 % 12),
                                    id,
                                    Resources::cores_gib(cores, cores * 4),
                                );
                                if placed.is_ok() {
                                    bypassed.push(id);
                                }
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn pass_matches_after_a_pool_bypass() {
            // A VM the pool holds without a record (placed behind the
            // cluster's back) is counted but never handed to the predictor:
            // the per-host hand-out notes must not slip because of it.
            let mut c = cluster();
            c.place(vm(1, 10), HostId(0)).unwrap();
            c.place(vm(2, 30), HostId(1)).unwrap();
            c.pool_mut()
                .place_vm(HostId(0), VmId(9), Resources::cores_gib(2, 8))
                .unwrap();
            c.place(vm(3, 20), HostId(0)).unwrap();
            let refresh = Duration::from_mins(1);
            assert_pass_matches_oracle(&c, SimTime::ZERO, refresh, true, Resources::ZERO);
            let mut counters = CacheCounters::default();
            c.refresh_exit_entries(
                &PullAheadOracle,
                SimTime::ZERO,
                refresh,
                true,
                Resources::ZERO,
                &mut counters,
            );
            assert_eq!(counters.predictions, 4, "three records and the bypass VM");
            assert_eq!(counters.examined, 2);
            assert_eq!(
                c.exit_cache().valid_exit(HostId(0), SimTime::ZERO),
                Some(SimTime::ZERO + Duration::from_hours(20))
            );
        }

        #[test]
        fn a_cache_no_pass_reads_is_never_fed_and_its_first_pass_builds_it() {
            let mut c =
                Cluster::with_uniform_hosts(12, HostSpec::new(Resources::cores_gib(32, 128)));
            let mut now = SimTime::ZERO;
            // Forty placements, then churn that keeps about forty VMs.
            for i in 0..300u64 {
                now += Duration::from_mins(7);
                let action = if i < 40 || i % 2 == 0 { 0 } else { 2 };
                drive_best_fit(&mut c, action, i, 1 + i % 15, 1 + i % 7, now);
            }
            {
                let cache = c.exit_cache();
                assert!(!cache.live);
                assert!(cache.entries.is_empty(), "{:?}", cache.entries);
                assert!(cache.pending.is_empty(), "{:?}", cache.pending);
                assert!(cache.parked.is_empty(), "{:?}", cache.parked);
                assert_eq!(cache.dirty_set(), BTreeSet::new());
            }
            let occupied: Vec<HostId> = c.hosts().filter(|h| !h.is_empty()).map(Host::id).collect();
            assert!(
                (2..12).contains(&occupied.len()),
                "{} occupied hosts",
                occupied.len()
            );
            let refresh = Duration::from_mins(1);
            for request in [Resources::ZERO, Resources::cores_gib(16, 64)] {
                for repredict in [true, false] {
                    assert_pass_matches_oracle(&c, now, refresh, repredict, request);
                }
            }
            let first = pass(&c, now, Resources::ZERO);
            assert_eq!(first.examined, occupied.len() as u64);
            assert_eq!(first.misses, occupied.len() as u64);
            let cache = c.exit_cache();
            assert!(cache.live);
            let covered: Vec<HostId> = cache.entries.keys().copied().collect();
            assert_eq!(covered, occupied);
        }
    }

    /// One step of a best-fit run that never refreshes the exit cache:
    /// actions 0 and 1 place a VM of `cores` cores and `hours²` hours,
    /// any other removes a live VM picked by `hours`.
    fn drive_best_fit(c: &mut Cluster, action: u8, id: u64, hours: u64, cores: u64, now: SimTime) {
        use crate::baseline::BestFitPolicy;
        use crate::policy::PlacementPolicy;

        if action < 2 {
            let v = Vm::new(
                VmId(id),
                VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
                now,
                Duration::from_hours(hours * hours),
            );
            if let Some(host) = BestFitPolicy::new().choose_host(c, &v, now, None) {
                c.place(v, host).unwrap();
            }
        } else {
            let live: Vec<VmId> = c.vms().map(|v| v.id()).collect();
            if !live.is_empty() {
                c.remove(live[hours as usize % live.len()]).unwrap();
            }
        }
    }

    /// One refresh pass with default settings; returns its counters.
    fn pass(c: &Cluster, now: SimTime, request: Resources) -> CacheCounters {
        let mut counters = CacheCounters::default();
        c.refresh_exit_entries(
            &OraclePredictor,
            now,
            Duration::from_mins(1),
            true,
            request,
            &mut counters,
        );
        counters
    }

    #[test]
    fn parked_hosts_cost_nothing_until_a_request_has_their_cpu() {
        use crate::nilas::NilasPolicy;
        use crate::policy::PlacementPolicy;
        use std::sync::Arc;

        const FULL: u64 = 500;
        const ROOMY: u64 = 12;
        let mut policy = NilasPolicy::with_defaults(Arc::new(OraclePredictor::new()));
        let mut c = Cluster::with_uniform_hosts(
            (FULL + ROOMY) as usize,
            HostSpec::new(Resources::cores_gib(32, 128)),
        );
        let resident = |id: u64, cores: u64| {
            Vm::new(
                VmId(id),
                VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
                SimTime::ZERO,
                Duration::from_hours(1000),
            )
        };
        // One pass makes the cache live, so the placement hints below
        // install each resident host's entry as they would in a run.
        pass(&c, SimTime::ZERO, Resources::ZERO);
        for h in 0..FULL + ROOMY {
            let cores = if h < FULL { 32 } else { 16 };
            c.place(resident(h, cores), HostId(h)).unwrap();
            policy.on_vm_placed(&mut c, VmId(h), HostId(h), SimTime::ZERO);
        }

        // 200 one-core arrivals, each leaving eight steps later: only the
        // twelve half-full hosts ever have room.
        let mut now = SimTime::ZERO;
        let mut total = 0;
        for i in 0..200u64 {
            now += Duration::from_secs(20);
            let v = Vm::new(
                VmId(1000 + i),
                VmSpec::builder(Resources::cores_gib(1, 4)).build(),
                now,
                Duration::from_mins(30),
            );
            let expired = {
                let cache = c.exit_cache();
                cache.by_expiry.iter().take_while(|e| e.0 < now).count() as u64
            };
            // Since the last pass: one placement and at most one exit.
            let changed = c.exit_cache().pending.len() as u64;
            assert!(changed <= 2, "step {i}: {changed} hosts changed");
            let before = policy.stats().refresh_examined;
            let host = policy.choose_host(&c, &v, now, None).expect("room");
            let examined = policy.stats().refresh_examined - before;
            assert!(host.0 >= FULL, "step {i}: placed on a full host");
            assert!(
                examined <= changed + expired + ROOMY,
                "step {i}: looked at {examined} hosts ({changed} changed, {expired} expired)"
            );
            total += examined;
            c.place(v, host).unwrap();
            policy.on_vm_placed(&mut c, VmId(1000 + i), host, now);
            if i >= 8 {
                let (_, host) = c.remove(VmId(1000 + i - 8)).unwrap();
                policy.on_vm_exited(&mut c, host, now);
            }
        }
        // Each full host was looked at when its first entry expired, and
        // has sat parked under zero free CPU since.
        assert_eq!(c.exit_cache().parked.len() as u64, FULL);
        assert!(total <= FULL + 200 * (2 + ROOMY), "{total} hosts looked at");

        // A request for more CPU than any host has free looks at the host
        // that just changed, parks it, and then at nothing at all; one
        // for no CPU has every parked host looked at, whatever else it
        // asks for.
        let huge = Resources::cores_gib(64, 256);
        pass(&c, now, huge);
        let parked = c.exit_cache().parked.len() as u64;
        assert!(parked >= FULL);
        assert_eq!(pass(&c, now, huge), CacheCounters::default());
        let memory_only = pass(&c, now, Resources::cores_gib(0, 256));
        assert_eq!((memory_only.examined, memory_only.misses), (parked, 0));
    }

    #[test]
    fn parked_host_lifecycle() {
        let mut c = cluster();
        let big = |id: u64, cores: u64, gib: u64| {
            Vm::new(
                VmId(id),
                VmSpec::builder(Resources::cores_gib(cores, gib)).build(),
                SimTime::ZERO,
                Duration::from_hours(10),
            )
        };
        // Host 0 keeps CPU but no memory, host 1 neither, host 2 both.
        c.place(big(1, 4, 128), HostId(0)).unwrap();
        c.place(big(2, 32, 128), HostId(1)).unwrap();
        c.place(big(3, 4, 16), HostId(2)).unwrap();
        let request = Resources::cores_gib(4, 16);
        let now = SimTime::ZERO;
        let first = pass(&c, now, request);
        assert_eq!((first.examined, first.misses), (3, 1));
        let parked =
            |c: &Cluster| -> Vec<(u64, HostId)> { c.exit_cache().parked.iter().copied().collect() };
        assert_eq!(parked(&c), [(0, HostId(1)), (28_000, HostId(0))]);

        // Host 0 has the CPU, so it is looked at again and stays; host 1
        // is below the range.
        let second = pass(&c, now, request);
        assert_eq!((second.examined, second.misses), (1, 0));
        assert_eq!(parked(&c).len(), 2);

        // Withholding and releasing a host moves no capacity, hence no
        // key: feasibility is asked afresh each time.
        c.place(big(4, 20, 16), HostId(2)).unwrap();
        c.host_mut(HostId(2)).unwrap().set_unavailable(true);
        let withheld = pass(&c, now, request);
        assert_eq!((withheld.examined, withheld.misses), (2, 0));
        assert_eq!(parked(&c).len(), 3);
        c.host_mut(HostId(2)).unwrap().set_unavailable(false);
        let released = pass(&c, now, request);
        assert_eq!((released.examined, released.misses), (2, 1));
        assert_eq!(parked(&c).len(), 2);

        // A parked host that empties leaves the index and the cache.
        c.remove(VmId(2)).unwrap();
        assert_eq!(parked(&c), [(28_000, HostId(0))]);
        assert!(c.exit_cache().dirty_set().contains(&HostId(0)));
        assert!(!c.exit_cache().dirty_set().contains(&HostId(1)));

        // A change behind the cluster's back unparks whatever is left.
        c.pool_mut().remove_vm(VmId(1)).unwrap();
        let flushed = pass(&c, now, request);
        assert_eq!((flushed.examined, flushed.misses), (1, 1));
        assert!(parked(&c).is_empty());
        assert!(c.exit_cache().dirty_set().is_empty());
        assert!(c.exit_cache().valid_exit(HostId(0), now).is_none());
    }

    #[test]
    fn parking_keys_are_sized_to_the_pool() {
        let keys = |c: &Cluster| c.exit_cache().parked_cpu.len();
        let mut c = cluster();
        assert_eq!(keys(&c), 4);
        // A host added through `pool_mut` gets its key when it is first
        // parked, or when `reserve_vm_capacity` sizes for the pool again.
        let spec = HostSpec::new(Resources::cores_gib(32, 128));
        let added = c.pool_mut().add_host(spec);
        c.place(vm(1, 5), added).unwrap();
        pass(&c, SimTime::ZERO, Resources::cores_gib(64, 256));
        assert_eq!(keys(&c), 5);
        assert_eq!(c.exit_cache().dirty_set(), BTreeSet::from([added]));
        c.pool_mut().add_host(spec);
        c.reserve_vm_capacity(16, 4);
        assert_eq!(keys(&c), 6);
        // A host the pool never had is forgotten by the next pass.
        c.invalidate_exit(HostId(u64::MAX));
        pass(&c, SimTime::ZERO, Resources::ZERO);
        assert_eq!(keys(&c), 6);
        assert!(c.exit_cache().dirty_set().is_empty());
    }

    #[test]
    fn hint_raises_cached_max_without_recompute() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let refresh = Duration::from_hours(1);
        let mut counters = CacheCounters::default();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );

        // Place a longer VM and heal the entry with a hint.
        c.place(vm(2, 20), HostId(0)).unwrap();
        c.apply_exit_hint(
            HostId(0),
            SimTime::ZERO + Duration::from_hours(20),
            SimTime::ZERO,
            refresh,
        );
        let misses_before = counters.misses;
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        assert_eq!(counters.misses, misses_before, "hint avoided a recompute");
        let cache = c.exit_cache();
        assert_eq!(
            cache.valid_exit(HostId(0), SimTime::ZERO),
            Some(SimTime::ZERO + Duration::from_hours(20))
        );
    }

    #[test]
    fn removal_invalidates_cached_exit() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        c.place(vm(2, 20), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let refresh = Duration::from_hours(100);
        let mut counters = CacheCounters::default();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        // Remove the max VM: the cached exit must not survive.
        c.remove(VmId(2)).unwrap();
        c.refresh_exit_entries(
            &oracle,
            SimTime::ZERO,
            refresh,
            true,
            Resources::ZERO,
            &mut counters,
        );
        let cache = c.exit_cache();
        assert_eq!(
            cache.valid_exit(HostId(0), SimTime::ZERO),
            Some(SimTime::ZERO + Duration::from_hours(5))
        );
    }
}
