//! Cluster state: a pool of hosts plus the registry of live VM records.
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
//! * removing or migrating a VM invalidates the entry (the removed VM may
//!   have been the max);
//! * entries expire when their refresh interval lapses or the cached exit
//!   time itself passes (`exit < now` means the prediction was wrong);
//! * clean entries are kept in an exit-time-ordered index so a scoring
//!   pass can walk hosts from latest-exiting to earliest and stop at the
//!   first temporal-cost bucket boundary it cannot improve on.

use crate::policy::CacheCounters;
use lava_core::arena::VmArena;
use lava_core::error::CoreError;
use lava_core::host::{Host, HostId, HostSpec};
use lava_core::pool::{HostMut, Pool, PoolId};
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
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
    /// Hosts needing recompute (or first-time computation).
    dirty: BTreeSet<HostId>,
    /// The pool mutation epoch this cache last synchronized with. A
    /// mismatch at refresh time means occupancy changed behind the
    /// cluster's event feed (via `pool_mut`), and the cache flushes.
    synced_epoch: u64,
    /// Buffers of the refresh pass, kept here so that a pass allocates
    /// nothing once they have grown to the pool's working size.
    scratch: RefreshScratch,
}

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

impl ExitCache {
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
        self.dirty.remove(&id);
    }

    /// Remove all trace of a host (it became empty or disappeared).
    fn forget(&mut self, id: HostId) {
        self.detach(id);
        self.entries.remove(&id);
        self.dirty.remove(&id);
    }

    /// A VM was placed on the host: the entry can be healed by a hint.
    pub(crate) fn mark_placement(&mut self, id: HostId) {
        self.detach(id);
        if let Some(e) = self.entries.get_mut(&id) {
            e.pending_places = e.pending_places.saturating_add(1);
        }
        self.dirty.insert(id);
    }

    /// Something invalidating happened on the host: recompute required.
    pub(crate) fn mark_hard(&mut self, id: HostId) {
        self.detach(id);
        if let Some(e) = self.entries.get_mut(&id) {
            e.hard_dirty = true;
        }
        self.dirty.insert(id);
    }

    /// The cached exit time of a host, if its entry is valid at `now`.
    pub(crate) fn valid_exit(&self, id: HostId, now: SimTime) -> Option<SimTime> {
        self.entries
            .get(&id)
            .filter(|e| e.clean && now <= e.expires_at)
            .map(|e| e.exit)
    }

    /// The cached exit of a host after a refresh pass (empty hosts exit
    /// "now", mirroring `host_exit_time`'s `unwrap_or(now)`).
    pub(crate) fn exit_or_now(&self, id: HostId, now: SimTime) -> SimTime {
        self.entries.get(&id).map(|e| e.exit).unwrap_or(now)
    }

    /// True if the host's entry predates `now` — i.e. a lookup at `now`
    /// is genuinely answered from cache rather than from a recompute made
    /// in the same pass. Used for honest hit accounting in indexed scans.
    pub(crate) fn cached_before(&self, id: HostId, now: SimTime) -> bool {
        self.entries.get(&id).is_some_and(|e| e.computed_at < now)
    }
}

/// A pool of hosts together with the live VM records.
///
/// VM records live in a generational slab arena ([`VmArena`]): lookups
/// are one flat-table read plus one slot read, iteration is id-ordered,
/// and steady-state create/exit churn re-uses warm slots with zero heap
/// allocations (see the arena's placement-order live list, which also
/// backs [`Cluster::sampled_vms`]).
#[derive(Debug)]
pub struct Cluster {
    pool: Pool,
    vms: VmArena,
    exit_cache: Mutex<ExitCache>,
}

impl Clone for Cluster {
    fn clone(&self) -> Cluster {
        Cluster {
            pool: self.pool.clone(),
            vms: self.vms.clone(),
            exit_cache: Mutex::new(self.exit_cache.lock().clone()),
        }
    }
}

impl Cluster {
    /// Create a cluster around an existing pool.
    pub fn new(pool: Pool) -> Cluster {
        Cluster {
            pool,
            vms: VmArena::new(),
            exit_cache: Mutex::new(ExitCache::default()),
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
        self.vms.get(id)
    }

    /// A mutable live VM record by id.
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms.get_mut(id)
    }

    /// Iterator over the live VM records in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> + '_ {
        self.vms.iter()
    }

    /// Number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Pre-size the VM arena for a workload whose ids stay below
    /// `max_id` with at most `live` concurrent VMs: steady-state
    /// create/exit churn within those bounds then never grows the arena
    /// (the zero-allocation drive contract the counting-allocator tests
    /// pin down).
    pub fn reserve_vm_capacity(&mut self, max_id: u64, live: usize) {
        self.vms.reserve(max_id, live);
        self.pool.reserve_vm_index(max_id);
    }

    /// A bounded, deterministic sample of at most `cap` live VMs: every
    /// ⌈n/cap⌉-th VM in placement order (exits swap-remove, perturbing but
    /// never randomising the order). O(cap) regardless of the live-VM
    /// count — this is what keeps fleet `CellSummary` extraction bounded.
    pub fn sampled_vms(&self, cap: usize) -> impl Iterator<Item = &Vm> + '_ {
        self.vms.sampled(cap)
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

    /// Place a VM record on a host, registering it in the VM index.
    ///
    /// # Errors
    ///
    /// Propagates host capacity and duplicate errors.
    pub fn place(&mut self, mut vm: Vm, host: HostId) -> Result<(), CoreError> {
        self.pool.place_vm(host, vm.id(), vm.resources())?;
        vm.assign_host(host);
        self.vms.insert(vm);
        let cache = self.exit_cache.get_mut();
        cache.mark_placement(host);
        // Advance by exactly the one pool mutation made above: setting to
        // the pool's epoch outright would absorb (and mask) any bypass
        // mutations made through pool_mut since the last refresh.
        cache.synced_epoch += 1;
        Ok(())
    }

    /// Remove a VM entirely (it exited). Returns the record and the host it
    /// was on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if the VM is not live.
    pub fn remove(&mut self, vm: VmId) -> Result<(Vm, HostId), CoreError> {
        let (host, _) = self.pool.remove_vm(vm)?;
        let mut record = self.vms.remove(vm).ok_or(CoreError::VmNotFound { vm })?;
        record.clear_host();
        let cache = self.exit_cache.get_mut();
        if self.pool.host(host).is_none_or(|h| h.is_empty()) {
            cache.forget(host);
        } else {
            cache.mark_hard(host);
        }
        cache.synced_epoch += 1;
        Ok((record, host))
    }

    /// Move a VM from its current host to `target` (a live migration from
    /// the bookkeeping perspective — both reservations are never held
    /// simultaneously here; the simulator models the 20-minute dual-busy
    /// window separately).
    ///
    /// # Errors
    ///
    /// Fails if the VM is not live or the target host cannot fit it; in the
    /// failure case the VM stays on its original host.
    pub fn migrate(&mut self, vm: VmId, target: HostId) -> Result<HostId, CoreError> {
        let record = self.vms.get(vm).ok_or(CoreError::VmNotFound { vm })?;
        let request = record.resources();
        let source = record.host().ok_or(CoreError::VmNotFound { vm })?;
        // Check the target can fit before removing from the source.
        {
            let target_host = self
                .pool
                .host(target)
                .ok_or(CoreError::HostNotFound { host: target })?;
            if !target_host.can_fit(request) {
                return Err(CoreError::InsufficientCapacity { host: target, vm });
            }
        }
        self.pool.remove_vm(vm)?;
        self.pool.place_vm(target, vm, request)?;
        if let Some(record) = self.vms.get_mut(vm) {
            record.assign_host(target);
        }
        let cache = self.exit_cache.get_mut();
        if self.pool.host(source).is_none_or(|h| h.is_empty()) {
            cache.forget(source);
        } else {
            cache.mark_hard(source);
        }
        cache.mark_placement(target);
        // remove_vm + place_vm above: two pool mutations.
        cache.synced_epoch += 2;
        Ok(source)
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

    /// Recompute one host's exit time for the per-host lookup path
    /// ([`Cluster::cached_exit_time`]; the refresh pass batches across
    /// hosts instead).
    fn compute_exit(
        &self,
        host: &Host,
        predictor: &dyn LifetimePredictor,
        now: SimTime,
        repredict: bool,
    ) -> SimTime {
        if repredict {
            self.host_exit_time(host, predictor, now)
        } else {
            self.host_exit_time_initial(host, now)
        }
    }

    /// Lock the exit cache for a read-mostly scan. Callers should run
    /// [`Cluster::refresh_exit_entries`] first so every occupied host has a
    /// valid entry.
    pub(crate) fn exit_cache_lock(&self) -> MutexGuard<'_, ExitCache> {
        self.exit_cache.lock()
    }

    /// The (possibly cached) exit time of one host, with seed-compatible
    /// hit/miss semantics: a hit requires a clean entry whose refresh
    /// interval has not lapsed and whose exit time has not passed.
    pub(crate) fn cached_exit_time(
        &self,
        host: &Host,
        predictor: &dyn LifetimePredictor,
        now: SimTime,
        refresh: Option<Duration>,
        repredict: bool,
        counters: &mut CacheCounters,
    ) -> SimTime {
        let Some(refresh) = refresh else {
            // Caching disabled: every lookup recomputes.
            counters.misses += 1;
            if repredict {
                counters.predictions += host.vm_count() as u64;
            }
            return self.compute_exit(host, predictor, now, repredict);
        };
        let mut cache = self.exit_cache.lock();
        if let Some(exit) = cache.valid_exit(host.id(), now) {
            counters.hits += 1;
            return exit;
        }
        counters.misses += 1;
        if repredict {
            counters.predictions += host.vm_count() as u64;
        }
        let exit = self.compute_exit(host, predictor, now, repredict);
        if host.is_empty() {
            cache.forget(host.id());
        } else {
            cache.install(host.id(), exit, now, refresh);
        }
        exit
    }

    /// Bring the cache up to date at `now` for a placement of `request`:
    /// recompute dirty entries, restore coverage, and sweep entries whose
    /// refresh interval or exit time has passed. Hosts that cannot fit
    /// `request` are *not* recomputed — the scan skips them anyway — and
    /// instead stay parked in the dirty set until a request they can fit
    /// comes along. This mirrors the lazy semantics of the per-host lookup
    /// path: only hosts that would actually be scored cost predictions.
    ///
    /// The pass first collects every host to recompute, then repredicts
    /// all of their VMs through **one**
    /// [`LifetimePredictor::predict_remaining_batch`] call and installs the
    /// per-host maxima: one virtual dispatch (and, for the compiled GBDT,
    /// one table lock) per placement instead of one per stale host. The
    /// entries, indexes and counters it leaves are those of recomputing
    /// host by host.
    ///
    /// After this returns, every occupied host that can fit `request` has
    /// a valid entry in `by_exit`. No-op when caching is disabled.
    pub(crate) fn refresh_exit_entries(
        &self,
        predictor: &dyn LifetimePredictor,
        now: SimTime,
        refresh: Option<Duration>,
        repredict: bool,
        request: Resources,
        counters: &mut CacheCounters,
    ) {
        let Some(refresh) = refresh else { return };
        let mut guard = self.exit_cache.lock();
        let cache = &mut *guard;
        let mut collect = |scratch: &mut RefreshScratch, h: &Host| {
            counters.misses += 1;
            if repredict {
                counters.predictions += h.vm_count() as u64;
            }
            scratch.hosts.push(h.id());
        };
        // 1. Bypass detection: if the pool's occupancy changed without the
        //    cluster seeing it (mutations through `pool_mut`), no entry can
        //    be trusted — flush everything and rebuild lazily. The epoch
        //    comparison is O(1) and never fires for cluster-routed events.
        if cache.synced_epoch != self.pool.mutation_epoch() {
            let ids: Vec<HostId> = cache.entries.keys().copied().collect();
            for id in ids {
                cache.mark_hard(id);
            }
            for h in self.pool.occupied_hosts() {
                if !cache.entries.contains_key(&h.id()) {
                    cache.dirty.insert(h.id());
                }
            }
            cache.synced_epoch = self.pool.mutation_epoch();
        }
        // 2. Dirty hosts (placements without hints, removals, migrations,
        //    hosts parked as infeasible by earlier passes). Feasible ones
        //    are collected and leave the set when their new entry is
        //    installed; infeasible ones stay.
        let mut cursor = HostId(0);
        while let Some(&id) = cache.dirty.range(cursor..).next() {
            cursor = HostId(id.0 + 1);
            match self.pool.host(id) {
                Some(h) if h.is_empty() => cache.forget(id),
                Some(h) if h.can_fit(request) => collect(&mut cache.scratch, h),
                Some(_) => {}
                None => cache.forget(id),
            }
        }
        // 3. Expired entries, in expiry order: O(#expired), not O(hosts).
        //    Every arm takes the entry out of `by_expiry`, which is what
        //    advances the sweep. Infeasible expired hosts are parked in
        //    the dirty set instead of being recomputed.
        while let Some(&(expires_at, id)) = cache.by_expiry.iter().next() {
            if expires_at >= now {
                break;
            }
            match self.pool.host(id) {
                Some(h) if h.is_empty() => cache.forget(id),
                Some(h) if h.can_fit(request) => {
                    cache.detach(id);
                    collect(&mut cache.scratch, h);
                }
                Some(_) => {
                    cache.detach(id);
                    cache.dirty.insert(id);
                }
                None => cache.forget(id),
            }
        }
        // 4. One predictor call over the VMs of every collected host. An
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
    /// entry stays dirty and the next refresh pass recomputes it.
    pub(crate) fn apply_exit_hint(
        &mut self,
        host: HostId,
        vm_exit: SimTime,
        now: SimTime,
        refresh: Option<Duration>,
    ) {
        let Some(refresh) = refresh else { return };
        let Some(h) = self.pool.host(host) else {
            return;
        };
        if h.is_empty() {
            return;
        }
        let single_vm = h.vm_count() == 1;
        let cache = self.exit_cache.get_mut();
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
                cache.dirty.remove(&host);
            }
            None if single_vm => {
                // First VM on the host: its exit *is* the host exit.
                cache.install(host, vm_exit, now, refresh);
            }
            _ => {}
        }
    }

    /// Invalidate the cached exit time of one host (recompute on next use).
    pub(crate) fn invalidate_exit(&mut self, host: HostId) {
        self.exit_cache.get_mut().mark_hard(host);
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
        assert_eq!(c.vm(VmId(1)).unwrap().host(), Some(HostId(0)));
        let (record, host) = c.remove(VmId(1)).unwrap();
        assert_eq!(host, HostId(0));
        assert_eq!(record.host(), None);
        assert_eq!(c.vm_count(), 0);
        assert!(c.host(HostId(0)).unwrap().is_empty());
    }

    #[test]
    fn migrate_moves_reservation() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        let source = c.migrate(VmId(1), HostId(2)).unwrap();
        assert_eq!(source, HostId(0));
        assert!(c.host(HostId(0)).unwrap().is_empty());
        assert!(c.host(HostId(2)).unwrap().contains(VmId(1)));
        assert_eq!(c.vm(VmId(1)).unwrap().host(), Some(HostId(2)));
    }

    #[test]
    fn migrate_to_full_host_fails_and_keeps_vm() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        // Fill host 1 completely.
        let big = Vm::new(
            VmId(2),
            VmSpec::builder(Resources::cores_gib(32, 128)).build(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        c.place(big, HostId(1)).unwrap();
        let err = c.migrate(VmId(1), HostId(1)).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientCapacity { .. }));
        assert!(c.host(HostId(0)).unwrap().contains(VmId(1)));
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
            Some(Duration::from_mins(1)),
            true,
            Resources::ZERO,
            &mut counters,
        );
        let cache = c.exit_cache_lock();
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
        let refresh = Some(Duration::from_hours(1));
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
        let cache = c.exit_cache_lock();
        assert!(cache.valid_exit(HostId(2), SimTime::ZERO).is_some());
    }

    #[test]
    fn bypass_mutation_not_masked_by_later_cluster_ops() {
        // A pool_mut bypass followed by a cluster-routed op before the next
        // refresh: the cluster op must not absorb the bypass's epoch bump.
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let refresh = Some(Duration::from_hours(1));
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
        let cache = c.exit_cache_lock();
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

    /// The refresh pass as it was before batching: every stale feasible
    /// host recomputed on the spot through its own predictor call. Kept
    /// as the oracle the batched pass must leave identical state to.
    impl Cluster {
        fn refresh_exit_entries_per_host(
            &self,
            predictor: &dyn LifetimePredictor,
            now: SimTime,
            refresh: Duration,
            repredict: bool,
            request: Resources,
            counters: &mut CacheCounters,
        ) {
            let mut cache = self.exit_cache.lock();
            let recompute = |cache: &mut ExitCache, counters: &mut CacheCounters, h: &Host| {
                counters.misses += 1;
                if repredict {
                    counters.predictions += h.vm_count() as u64;
                }
                let exit = self.compute_exit(h, predictor, now, repredict);
                cache.install(h.id(), exit, now, refresh);
            };
            if cache.synced_epoch != self.pool.mutation_epoch() {
                let ids: Vec<HostId> = cache.entries.keys().copied().collect();
                for id in ids {
                    cache.mark_hard(id);
                }
                for h in self.pool.occupied_hosts() {
                    if !cache.entries.contains_key(&h.id()) {
                        cache.dirty.insert(h.id());
                    }
                }
                cache.synced_epoch = self.pool.mutation_epoch();
            }
            let mut cursor = HostId(0);
            while let Some(&id) = cache.dirty.range(cursor..).next() {
                cursor = HostId(id.0 + 1);
                match self.pool.host(id) {
                    Some(h) if h.is_empty() => cache.forget(id),
                    Some(h) if h.can_fit(request) => recompute(&mut cache, counters, h),
                    Some(_) => {}
                    None => cache.forget(id),
                }
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
                        cache.dirty.insert(id);
                    }
                    None => cache.forget(id),
                }
            }
        }

        /// Everything the exit cache holds, for comparing two clusters.
        fn exit_cache_view(&self) -> String {
            let cache = self.exit_cache.lock();
            assert!(
                cache.scratch.hosts.is_empty()
                    && cache.scratch.exits.is_empty()
                    && cache.scratch.handed_by_end.is_empty(),
                "refresh scratch must be empty between passes"
            );
            format!(
                "{:?} {:?} {:?} {:?} {}",
                cache.entries, cache.by_exit, cache.by_expiry, cache.dirty, cache.synced_epoch
            )
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

    mod refresh_parity {
        use super::*;
        use crate::nilas::NilasPolicy;
        use crate::policy::PlacementPolicy;
        use proptest::prelude::*;
        use std::sync::Arc;

        proptest! {
            /// Over random placements, exits and clock advances (the grid
            /// of `tests/scan_parity.rs`), the batched refresh pass leaves
            /// the entries, both orderings, the dirty set and the counters
            /// that recomputing host by host leaves — for requests that
            /// fit everywhere, somewhere and nowhere, with and without
            /// repredictions, whichever way the predictor drains a batch.
            #[test]
            fn batched_pass_matches_per_host_recompute(
                ops in proptest::collection::vec((0u8..5, 0u64..600, 1u64..16, 1u64..8), 1..60),
            ) {
                let refresh = Duration::from_mins(1);
                let mut policy = NilasPolicy::with_defaults(Arc::new(OraclePredictor::new()));
                let mut c =
                    Cluster::with_uniform_hosts(12, HostSpec::new(Resources::cores_gib(32, 128)));
                let mut now = SimTime::ZERO;
                let mut next_id = 0u64;
                for (action, delay, hours, cores) in ops {
                    now += Duration::from_secs(delay);
                    if action < 3 {
                        let v = Vm::new(
                            VmId(next_id),
                            VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
                            now,
                            Duration::from_hours(hours * hours),
                        );
                        next_id += 1;
                        for request in [
                            v.resources(),
                            Resources::ZERO,
                            Resources::cores_gib(16, 64),
                            Resources::cores_gib(64, 256),
                        ] {
                            for repredict in [true, false] {
                                let per_host = c.clone();
                                let mut expected = CacheCounters::default();
                                per_host.refresh_exit_entries_per_host(
                                    &OraclePredictor, now, refresh, repredict, request, &mut expected,
                                );
                                let predictors: [&dyn LifetimePredictor; 2] =
                                    [&OraclePredictor, &PullAheadOracle];
                                for predictor in predictors {
                                    let batched = c.clone();
                                    let mut counters = CacheCounters::default();
                                    batched.refresh_exit_entries(
                                        predictor, now, Some(refresh), repredict, request, &mut counters,
                                    );
                                    prop_assert_eq!(counters, expected);
                                    prop_assert_eq!(
                                        batched.exit_cache_view(),
                                        per_host.exit_cache_view(),
                                        "{} at {:?}, request {:?}, repredict {}",
                                        predictor.name(), now, request, repredict
                                    );
                                }
                            }
                        }
                        if let Some(host) = policy.choose_host(&c, &v, now, None) {
                            let id = v.id();
                            c.place(v, host).unwrap();
                            policy.on_vm_placed(&mut c, id, host, now);
                        }
                    } else {
                        let live: Vec<VmId> = c.vms().map(|v| v.id()).collect();
                        if !live.is_empty() {
                            let victim = live[(hours as usize * 7 + cores as usize) % live.len()];
                            let (_, host) = c.remove(victim).unwrap();
                            policy.on_vm_exited(&mut c, host, now);
                        }
                    }
                }
            }
        }

        #[test]
        fn batched_pass_matches_after_a_pool_bypass() {
            // A VM the pool holds but the arena does not (placed behind the
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
            let per_host = c.clone();
            let mut expected = CacheCounters::default();
            per_host.refresh_exit_entries_per_host(
                &OraclePredictor,
                SimTime::ZERO,
                refresh,
                true,
                Resources::ZERO,
                &mut expected,
            );
            let mut counters = CacheCounters::default();
            c.refresh_exit_entries(
                &PullAheadOracle,
                SimTime::ZERO,
                Some(refresh),
                true,
                Resources::ZERO,
                &mut counters,
            );
            assert_eq!(counters, expected);
            assert_eq!(counters.predictions, 4, "three records and the bypass VM");
            assert_eq!(c.exit_cache_view(), per_host.exit_cache_view());
            assert_eq!(
                c.exit_cache_lock().valid_exit(HostId(0), SimTime::ZERO),
                Some(SimTime::ZERO + Duration::from_hours(20))
            );
        }
    }

    #[test]
    fn hint_raises_cached_max_without_recompute() {
        let mut c = cluster();
        c.place(vm(1, 5), HostId(0)).unwrap();
        let oracle = OraclePredictor::new();
        let refresh = Some(Duration::from_hours(1));
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
        let cache = c.exit_cache_lock();
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
        let refresh = Some(Duration::from_hours(100));
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
        let cache = c.exit_cache_lock();
        assert_eq!(
            cache.valid_exit(HostId(0), SimTime::ZERO),
            Some(SimTime::ZERO + Duration::from_hours(5))
        );
    }
}
