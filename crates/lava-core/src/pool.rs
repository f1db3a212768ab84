//! Pools: collections of hosts managed by one scheduler instance.
//!
//! A pool corresponds to the paper's "host pool" (§2.2): a set of identical
//! hosts in one zone serving one VM family. All empty-host / stranding
//! metrics are computed per pool.
//!
//! # Candidate indexes
//!
//! Placement is the hottest path in the system: Algorithm 3 orders
//! candidates by host state and lifetime class, and the paper notes that
//! scoring every host "can become a bottleneck in very large pools"
//! (Appendix G.3). The pool therefore maintains secondary indexes that are
//! updated incrementally on every mutation:
//!
//! * hosts bucketed by `(HostLifetimeState, Option<LifetimeClass>)`, so a
//!   scheduler can walk exactly the preference level it needs;
//! * the set of empty hosts grouped by capacity shape (also powering
//!   O(1) [`Pool::empty_host_count`]). An empty host's free capacity is
//!   its capacity, so empty hosts of one shape score alike and
//!   [`Pool::empty_leaders`] hands a scheduler one candidate per shape:
//!   O(shapes), not O(empty hosts);
//! * an ordering by free capacity (CPU, then memory, then SSD).
//!
//! Three aggregates ride along — total capacity, total free capacity and
//! the capacity of the empty hosts — so the pool-wide bin-packing metrics
//! are O(1).
//!
//! The pool is also the one registry of its live VMs: one id table maps
//! a live VM to its host and, if placed with one, its [`Vm`] record.
//! Occupancy changes only through the pool's `place_*` / `remove_*`
//! methods; everything else about a host through the [`HostMut`] guard
//! returned by [`Pool::host_mut`], which re-indexes the host when
//! dropped. There is deliberately no unguarded `&mut Host` access.

use crate::arena::{table_value, VmArena};
use crate::error::CoreError;
use crate::host::{Host, HostId, HostLifetimeState, HostSpec};
use crate::lifetime::LifetimeClass;
use crate::resources::Resources;
use crate::vm::{Vm, VmId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Identifier of a pool (zone + family combination).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool-{}", self.0)
    }
}

/// Number of distinct `(state, class)` buckets: 3 states × (no class +
/// 4 classes).
const BUCKET_COUNT: usize = 15;

/// The key a host occupies in the secondary indexes. Cheap to compute and
/// compare; index maintenance only touches the structures whose component
/// actually changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexKey {
    bucket: usize,
    is_empty: bool,
    free: Resources,
}

fn bucket_slot(state: HostLifetimeState, class: Option<LifetimeClass>) -> usize {
    let s = match state {
        HostLifetimeState::Empty => 0,
        HostLifetimeState::Open => 1,
        HostLifetimeState::Recycling => 2,
    };
    let c = class.map(|c| c.index() as usize).unwrap_or(0);
    s * 5 + c
}

fn key_of(host: &Host) -> IndexKey {
    IndexKey {
        bucket: bucket_slot(host.lifetime_state(), host.lifetime_class()),
        is_empty: host.is_empty(),
        free: host.free(),
    }
}

fn free_key(free: Resources, id: HostId) -> (u64, u64, u64, HostId) {
    (free.cpu_milli, free.memory_mib, free.ssd_gib, id)
}

/// Incrementally-maintained secondary indexes over the hosts of a pool.
#[derive(Debug, Clone)]
struct HostIndex {
    /// `(state, class)` buckets, indexed by [`bucket_slot`].
    buckets: Vec<BTreeSet<HostId>>,
    /// Hosts with no VMs, keyed `(shape, id)`: grouped by capacity shape,
    /// in id order within a shape. The id is narrowed to `u32` (see
    /// [`HostIndex::add`]) so the key is no larger than a bare [`HostId`].
    empty: BTreeSet<(u32, u32)>,
    /// The distinct host capacities, in order of first appearance.
    shapes: Vec<Resources>,
    /// Each host's index into `shapes`, by `HostId.0` (static after
    /// [`Pool::add_host`]).
    shape_of: Vec<u32>,
    /// Hosts ordered by ascending free capacity (CPU, memory, SSD, id).
    by_free: BTreeSet<(u64, u64, u64, HostId)>,
    /// Total capacity of the hosts in `empty`.
    empty_capacity: Resources,
}

impl Default for HostIndex {
    fn default() -> HostIndex {
        HostIndex::new()
    }
}

impl HostIndex {
    fn new() -> HostIndex {
        HostIndex {
            buckets: vec![BTreeSet::new(); BUCKET_COUNT],
            empty: BTreeSet::new(),
            shapes: Vec::new(),
            shape_of: Vec::new(),
            by_free: BTreeSet::new(),
            empty_capacity: Resources::ZERO,
        }
    }

    /// Index a newly added host, recording its shape. [`Pool::add_host`]
    /// keeps host ids below `u32::MAX`.
    fn add(&mut self, host: &Host) {
        let capacity = host.capacity();
        let shape = match self.shapes.iter().position(|&s| s == capacity) {
            Some(shape) => shape,
            None => {
                self.shapes.push(capacity);
                self.shapes.len() - 1
            }
        };
        self.shape_of.push(shape as u32);
        let (id, key) = (host.id(), key_of(host));
        self.buckets[key.bucket].insert(id);
        if key.is_empty {
            self.empty.insert(self.empty_key(id));
            self.empty_capacity += capacity;
        }
        self.by_free.insert(free_key(key.free, id));
    }

    /// The host's key in the empty set.
    fn empty_key(&self, id: HostId) -> (u32, u32) {
        (self.shape_of[id.0 as usize], id.0 as u32)
    }

    fn update(&mut self, id: HostId, before: IndexKey, after: IndexKey) {
        if before == after {
            return;
        }
        if before.bucket != after.bucket {
            self.buckets[before.bucket].remove(&id);
            self.buckets[after.bucket].insert(id);
        }
        if before.is_empty != after.is_empty {
            let empty_key = self.empty_key(id);
            let capacity = self.shapes[empty_key.0 as usize];
            if before.is_empty {
                self.empty.remove(&empty_key);
                self.empty_capacity -= capacity;
            } else {
                self.empty.insert(empty_key);
                self.empty_capacity += capacity;
            }
        }
        if before.free != after.free {
            self.by_free.remove(&free_key(before.free, id));
            self.by_free.insert(free_key(after.free, id));
        }
    }
}

/// A pool of hosts and the registry of the VMs live on them.
#[derive(Debug, Clone)]
pub struct Pool {
    id: PoolId,
    /// Hosts stored densely: `hosts[i].id() == HostId(i)`. Host ids are
    /// assigned sequentially by [`Pool::add_host`] and hosts are never
    /// deleted, so every host lookup on the placement hot path is one
    /// bounds-checked index.
    hosts: Vec<Host>,
    /// The live-VM registry: one id table of 4-byte slots into a slab of
    /// host + record slots. A fleet cell touches every page of the live
    /// id window, so it pays 4 bytes per id of that window here.
    vms: VmArena,
    /// Secondary candidate indexes, maintained on every mutation.
    index: HostIndex,
    /// Incremented on every placement and removal. Consumers holding
    /// derived state (the cluster's exit-time cache) compare epochs to
    /// detect mutations that bypassed their event feed.
    mutation_epoch: u64,
    /// Pool-wide capacity, maintained by [`Pool::add_host`] so
    /// [`Pool::total_capacity`] is O(1).
    agg_capacity: Resources,
    /// Pool-wide free capacity, maintained on every mutation so
    /// [`Pool::total_free`] / [`Pool::total_used`] are O(1) — they sit on
    /// the fleet tier's per-epoch `CellSummary` extraction hot path.
    agg_free: Resources,
}

impl Pool {
    /// Create an empty pool.
    pub fn new(id: PoolId) -> Pool {
        Pool {
            id,
            hosts: Vec::new(),
            vms: VmArena::default(),
            index: HostIndex::new(),
            mutation_epoch: 0,
            agg_capacity: Resources::ZERO,
            agg_free: Resources::ZERO,
        }
    }

    /// Create a pool of `count` identical hosts.
    pub fn with_uniform_hosts(id: PoolId, count: usize, spec: HostSpec) -> Pool {
        let mut pool = Pool::new(id);
        for _ in 0..count {
            pool.add_host(spec);
        }
        pool
    }

    /// The pool identifier.
    #[inline]
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// The current occupancy-mutation epoch: changes whenever any host's
    /// occupancy or free capacity changes, however the mutation was made.
    #[inline]
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Add a host with the given spec, returning its new id.
    ///
    /// # Panics
    ///
    /// If the pool already holds `u32::MAX` hosts: the registry stores
    /// host ids as `u32`.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let raw = table_value(self.hosts.len()).expect("a pool holds fewer than u32::MAX hosts");
        let id = HostId(u64::from(raw));
        let host = Host::new(id, spec);
        self.index.add(&host);
        self.agg_capacity += host.capacity();
        self.agg_free += host.free();
        self.hosts.push(host);
        id
    }

    /// Number of hosts in the pool.
    #[inline]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// A host by id.
    #[inline]
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id.0 as usize)
    }

    /// A mutable host by id, behind a guard that re-indexes the host when
    /// dropped (state and class changes move the host between index
    /// buckets). Occupancy changes only through the pool's placement and
    /// removal methods.
    pub fn host_mut(&mut self, id: HostId) -> Option<HostMut<'_>> {
        let before = key_of(self.hosts.get(id.0 as usize)?);
        Some(HostMut {
            pool: self,
            id,
            before,
        })
    }

    /// Iterator over all hosts in deterministic (id) order.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> + '_ {
        self.hosts.iter()
    }

    /// Which host a VM is currently placed on.
    #[inline]
    pub fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.vms.entry(vm).map(|(host, _)| HostId(u64::from(host)))
    }

    /// Number of VMs currently placed in the pool, with or without a record.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The record of a live VM placed with one.
    #[inline]
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.entry(id)?.1
    }

    /// The live VM records in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> + '_ {
        self.vms.entries().filter_map(|(_, _, record)| record)
    }

    /// Number of live VM records.
    #[inline]
    pub fn record_count(&self) -> usize {
        self.vms.records()
    }

    /// Every ⌈n/cap⌉-th of the n live records in placement order (exits
    /// swap-remove, perturbing but never randomising it): O(cap).
    pub fn sampled_vms(&self, cap: usize) -> impl Iterator<Item = &Vm> + '_ {
        self.vms.sampled(cap)
    }

    /// Place a VM on a specific host: counted, but with no record.
    ///
    /// # Errors
    ///
    /// Returns the underlying host error, [`CoreError::HostNotFound`] if
    /// the host id is unknown, or [`CoreError::DuplicateVm`] naming the
    /// VM's current host if the VM is already placed in this pool.
    /// Nothing changes on error.
    pub fn place_vm(
        &mut self,
        host: HostId,
        vm: VmId,
        request: Resources,
    ) -> Result<(), CoreError> {
        self.place_entry(host, vm, request, None)
    }

    /// Place a VM record on a specific host.
    ///
    /// # Errors
    ///
    /// As [`Pool::place_vm`]; nothing changes on error.
    pub fn place_record(&mut self, host: HostId, vm: Vm) -> Result<(), CoreError> {
        self.place_entry(host, vm.id(), vm.resources(), Some(vm))
    }

    fn place_entry(
        &mut self,
        host: HostId,
        vm: VmId,
        request: Resources,
        record: Option<Vm>,
    ) -> Result<(), CoreError> {
        if let Some(existing) = self.host_of(vm) {
            return Err(CoreError::DuplicateVm { host: existing, vm });
        }
        let h = self
            .hosts
            .get_mut(host.0 as usize)
            .ok_or(CoreError::HostNotFound { host })?;
        let before = key_of(h);
        h.place(vm, request)?;
        self.reindex(host, before);
        // `add_host` keeps every host id below `u32::MAX`.
        self.vms.insert(vm, host.0 as u32, record);
        Ok(())
    }

    /// Remove a VM from whatever host it is on, returning the host id and
    /// released resources. Its record, if it had one, leaves with it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if the VM is not placed anywhere
    /// in this pool. Nothing changes on error.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(HostId, Resources), CoreError> {
        self.remove_entry(vm, false)
            .map(|(host, released, _)| (host, released))
    }

    /// Remove a VM placed with its record, returning the record and the
    /// host it was on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if no live VM of this id has a
    /// record. Nothing changes on error.
    pub fn remove_record(&mut self, vm: VmId) -> Result<(Vm, HostId), CoreError> {
        let (host, _, record) = self.remove_entry(vm, true)?;
        Ok((record.expect("remove_entry checked for a record"), host))
    }

    fn remove_entry(
        &mut self,
        vm: VmId,
        with_record: bool,
    ) -> Result<(HostId, Resources, Option<Vm>), CoreError> {
        let host = match self.vms.entry(vm) {
            Some((host, record)) if record.is_some() || !with_record => HostId(u64::from(host)),
            _ => return Err(CoreError::VmNotFound { vm }),
        };
        let h = &mut self.hosts[host.0 as usize];
        let before = key_of(h);
        let released = h.remove(vm)?;
        self.reindex(host, before);
        let (_, record) = self.vms.remove(vm).expect("looked up above");
        Ok((host, released, record))
    }

    /// Fold an occupancy change of `host`, whose index key was `before`,
    /// into the candidate indexes and the aggregates.
    fn reindex(&mut self, host: HostId, before: IndexKey) {
        let after = key_of(&self.hosts[host.0 as usize]);
        self.index.update(host, before, after);
        self.agg_free = self.agg_free - before.free + after.free;
        self.mutation_epoch += 1;
    }

    /// Pre-size the registry for ids below `max_id` and at most `live`
    /// concurrent VMs: steady-state churn within those bounds then never
    /// touches the allocator.
    pub fn reserve_vms(&mut self, max_id: u64, live: usize) {
        self.vms.reserve(max_id, live);
    }

    // --- candidate index queries -----------------------------------------

    /// Hosts currently in `(state, class)`, in id order. `class == None`
    /// matches hosts without an assigned class.
    pub fn hosts_in_state_class(
        &self,
        state: HostLifetimeState,
        class: Option<LifetimeClass>,
    ) -> impl Iterator<Item = &Host> + '_ {
        self.index.buckets[bucket_slot(state, class)]
            .iter()
            .filter_map(move |id| self.host(*id))
    }

    /// Per capacity shape that can hold `request`, in order of the shapes'
    /// first appearance: the lowest-id empty host of that shape that can
    /// fit `request` and is not `exclude`. Unavailable and excluded hosts
    /// are walked past within their shape.
    ///
    /// An empty host's free capacity is its capacity and it has no VMs, so
    /// any score built from those — and a host's id, on ties — ranks the
    /// empty hosts of one shape by id: the winner among all empty hosts is
    /// one of these leaders. [`EmptyLeaders::examined`] counts the hosts
    /// the walk looked at.
    pub fn empty_leaders(&self, request: Resources, exclude: Option<HostId>) -> EmptyLeaders<'_> {
        EmptyLeaders {
            pool: self,
            request,
            exclude,
            next_shape: 0,
            examined: 0,
        }
    }

    /// Hosts ordered by ascending free capacity (CPU, then memory, then
    /// SSD, then id) — the natural scan order for tight-fit placement;
    /// reverse it for emptiest-first (drain candidate selection).
    pub fn hosts_by_free(&self) -> impl DoubleEndedIterator<Item = &Host> + '_ {
        self.index
            .by_free
            .iter()
            .filter_map(move |(_, _, _, id)| self.host(*id))
    }

    /// Verify that every index agrees with the authoritative host map,
    /// and the registry with the hosts' VM lists. Used by tests;
    /// O(hosts × log hosts + live VMs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate_index(&self) -> Result<(), String> {
        let mut bucket_total = 0;
        for (slot, bucket) in self.index.buckets.iter().enumerate() {
            bucket_total += bucket.len();
            for id in bucket {
                let host = self
                    .host(*id)
                    .ok_or_else(|| format!("bucket {slot} contains unknown host {id}"))?;
                if bucket_slot(host.lifetime_state(), host.lifetime_class()) != slot {
                    return Err(format!("host {id} is in the wrong bucket {slot}"));
                }
            }
        }
        if bucket_total != self.hosts.len() {
            return Err(format!(
                "buckets cover {bucket_total} hosts, pool has {}",
                self.hosts.len()
            ));
        }
        for (i, shape) in self.index.shapes.iter().enumerate() {
            if self.index.shapes[..i].contains(shape) {
                return Err(format!("shape {shape:?} is listed twice"));
            }
        }
        if self.index.shape_of.len() != self.hosts.len() {
            return Err("shape_of has the wrong length".to_string());
        }
        for &(shape, id) in &self.index.empty {
            if self.index.shape_of.get(id as usize) != Some(&shape) {
                return Err(format!(
                    "host {id} is keyed under shape {shape} in the empty set"
                ));
            }
        }
        for host in self.hosts() {
            let key = key_of(host);
            let shape = self.index.shape_of[host.id().0 as usize];
            if self.index.shapes.get(shape as usize) != Some(&host.capacity()) {
                return Err(format!(
                    "host {} has shape {shape}, not its capacity",
                    host.id()
                ));
            }
            if key.is_empty != self.index.empty.contains(&self.index.empty_key(host.id())) {
                return Err(format!("host {} empty set inconsistent", host.id()));
            }
            if !self.index.by_free.contains(&free_key(key.free, host.id())) {
                return Err(format!("host {} missing from by_free", host.id()));
            }
        }
        // Each registered VM is on its host, and the hosts hold no VM
        // besides.
        for (id, host, record) in self.vms.entries() {
            let host = HostId(u64::from(host));
            let on_host = self.host(host).is_some_and(|h| h.contains(id));
            if !on_host || record.is_some_and(|r| r.id() != id) {
                return Err(format!("{id:?} is not on {host} as registered"));
            }
        }
        let on_hosts: usize = self.hosts().map(Host::vm_count).sum();
        let registered = self.vms.len();
        if on_hosts != registered {
            return Err(format!("{registered} registered, {on_hosts} on hosts"));
        }
        if self.index.by_free.len() != self.hosts.len() {
            return Err("by_free has stale entries".to_string());
        }
        let scan_capacity: Resources = self.hosts().map(|h| h.capacity()).sum();
        let scan_free: Resources = self.hosts().map(|h| h.free()).sum();
        let scan_empty: Resources = self
            .hosts()
            .filter(|h| h.is_empty())
            .map(|h| h.capacity())
            .sum();
        if scan_capacity != self.agg_capacity
            || scan_free != self.agg_free
            || scan_empty != self.index.empty_capacity
        {
            return Err(format!(
                "aggregates drifted: capacity {:?} vs scan {scan_capacity:?}, \
                 free {:?} vs scan {scan_free:?}, \
                 empty capacity {:?} vs scan {scan_empty:?}",
                self.agg_capacity, self.agg_free, self.index.empty_capacity
            ));
        }
        Ok(())
    }

    // --- aggregate metrics ------------------------------------------------

    /// Number of completely empty hosts (O(1), via the occupancy index).
    pub fn empty_host_count(&self) -> usize {
        self.index.empty.len()
    }

    /// Fraction of hosts that are empty, in `[0, 1]` (0 for an empty pool).
    pub fn empty_host_fraction(&self) -> f64 {
        if self.hosts.is_empty() {
            0.0
        } else {
            self.empty_host_count() as f64 / self.hosts.len() as f64
        }
    }

    /// Total capacity across all hosts (O(1), incrementally maintained).
    pub fn total_capacity(&self) -> Resources {
        self.agg_capacity
    }

    /// Total reserved resources across all hosts (O(1)).
    pub fn total_used(&self) -> Resources {
        self.agg_capacity - self.agg_free
    }

    /// Total free resources across all hosts (O(1), incrementally
    /// maintained on every placement and removal).
    pub fn total_free(&self) -> Resources {
        self.agg_free
    }

    /// Total capacity of the empty hosts (O(1), maintained as hosts flip
    /// between empty and occupied). An empty host reserves nothing, so
    /// this is also the free capacity on empty hosts.
    pub fn empty_capacity(&self) -> Resources {
        self.index.empty_capacity
    }
}

/// The per-shape leaders of a pool's empty hosts for one request, from
/// [`Pool::empty_leaders`].
pub struct EmptyLeaders<'a> {
    pool: &'a Pool,
    request: Resources,
    exclude: Option<HostId>,
    next_shape: usize,
    examined: u64,
}

impl EmptyLeaders<'_> {
    /// The hosts looked at so far: each leader yielded, plus each
    /// unavailable or excluded empty host walked past. Shapes too small
    /// for the request cost nothing.
    pub fn examined(&self) -> u64 {
        self.examined
    }
}

impl<'a> Iterator for EmptyLeaders<'a> {
    type Item = &'a Host;

    fn next(&mut self) -> Option<&'a Host> {
        let (pool, index) = (self.pool, &self.pool.index);
        while let Some(capacity) = index.shapes.get(self.next_shape) {
            let shape = self.next_shape as u32;
            self.next_shape += 1;
            if !capacity.fits(&self.request) {
                continue;
            }
            for &(_, id) in index.empty.range((shape, 0)..=(shape, u32::MAX)) {
                self.examined += 1;
                let host = &pool.hosts[id as usize];
                if Some(host.id()) != self.exclude && host.can_fit(self.request) {
                    return Some(host);
                }
            }
        }
        None
    }
}

/// Mutable access to one host, keeping the pool's candidate indexes
/// consistent: when the guard is dropped, any change to the host's state,
/// class or availability is folded back into the indexes. Occupancy is
/// not the guard's to change, so the registry never loses sight of a VM:
///
/// ```compile_fail,E0624
/// # use lava_core::prelude::*;
/// let mut pool = Pool::with_uniform_hosts(PoolId(0), 1, HostSpec::new(Resources::ZERO));
/// let _ = pool.host_mut(HostId(0)).unwrap().place(VmId(5), Resources::ZERO);
/// ```
pub struct HostMut<'a> {
    pool: &'a mut Pool,
    id: HostId,
    before: IndexKey,
}

impl Deref for HostMut<'_> {
    type Target = Host;

    fn deref(&self) -> &Host {
        self.pool.host(self.id).expect("guarded host exists")
    }
}

impl DerefMut for HostMut<'_> {
    fn deref_mut(&mut self) -> &mut Host {
        self.pool
            .hosts
            .get_mut(self.id.0 as usize)
            .expect("guarded host exists")
    }
}

impl Drop for HostMut<'_> {
    fn drop(&mut self) {
        let after = key_of(&self.pool.hosts[self.id.0 as usize]);
        self.pool.index.update(self.id, self.before, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn pool(n: usize) -> Pool {
        Pool::with_uniform_hosts(PoolId(0), n, HostSpec::new(Resources::cores_gib(32, 128)))
    }

    #[test]
    fn uniform_pool_construction() {
        let p = pool(10);
        assert_eq!(p.host_count(), 10);
        assert_eq!(p.empty_host_count(), 10);
        assert!((p.empty_host_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(p.total_capacity(), Resources::cores_gib(320, 1280));
        assert_eq!(p.id(), PoolId(0));
        p.validate_index().unwrap();
    }

    #[test]
    fn place_and_remove_updates_index() {
        let mut p = pool(3);
        let host = HostId(1);
        p.place_vm(host, VmId(7), Resources::cores_gib(4, 16))
            .unwrap();
        assert_eq!(p.host_of(VmId(7)), Some(host));
        assert_eq!(p.vm_count(), 1);
        assert_eq!(p.empty_host_count(), 2);
        p.validate_index().unwrap();

        let (h, released) = p.remove_vm(VmId(7)).unwrap();
        assert_eq!(h, host);
        assert_eq!(released, Resources::cores_gib(4, 16));
        assert_eq!(p.host_of(VmId(7)), None);
        assert_eq!(p.empty_host_count(), 3);
        p.validate_index().unwrap();
    }

    #[test]
    fn errors_propagate() {
        let mut p = pool(1);
        assert_eq!(
            p.place_vm(HostId(99), VmId(1), Resources::ZERO),
            Err(CoreError::HostNotFound { host: HostId(99) })
        );
        assert_eq!(
            p.remove_vm(VmId(1)),
            Err(CoreError::VmNotFound { vm: VmId(1) })
        );
    }

    #[test]
    fn placing_a_live_vm_again_is_refused_before_any_change() {
        let mut p = pool(2);
        let request = Resources::cores_gib(2, 8);
        p.place_vm(HostId(0), VmId(1), request).unwrap();
        for host in [HostId(1), HostId(0)] {
            assert_eq!(
                p.place_vm(host, VmId(1), request),
                Err(CoreError::DuplicateVm {
                    host: HostId(0),
                    vm: VmId(1)
                })
            );
        }
        assert!(p.host(HostId(1)).unwrap().is_empty());
        assert_eq!(p.vm_count(), 1);
        assert_eq!(p.total_used(), request);
        p.validate_index().unwrap();
        // One remove clears the VM everywhere: no phantom stays behind.
        assert_eq!(p.remove_vm(VmId(1)), Ok((HostId(0), request)));
        assert_eq!(p.total_used(), Resources::ZERO);
        assert_eq!(p.empty_host_count(), 2);
        p.validate_index().unwrap();
    }

    #[test]
    fn validation_catches_a_host_out_of_step_with_the_registry() {
        let request = Resources::cores_gib(2, 8);
        let registry_error = |p: &Pool| p.validate_index().err().filter(|e| e.contains("regist"));
        // Occupancy changed through the guard, which only the crate can
        // do: a VM on a host that the registry never saw...
        let mut p = pool(2);
        p.host_mut(HostId(0))
            .unwrap()
            .place(VmId(5), request)
            .unwrap();
        assert!(registry_error(&p).is_some(), "{:?}", p.validate_index());
        // ...and a registered VM its host no longer holds.
        let mut p = pool(2);
        p.place_vm(HostId(1), VmId(5), request).unwrap();
        p.validate_index().unwrap();
        p.host_mut(HostId(1)).unwrap().remove(VmId(5)).unwrap();
        assert!(registry_error(&p).is_some(), "{:?}", p.validate_index());
    }

    #[test]
    fn empty_pool_fraction_is_zero() {
        let p = Pool::new(PoolId(5));
        assert_eq!(p.empty_host_fraction(), 0.0);
        assert_eq!(p.total_capacity(), Resources::ZERO);
    }

    #[test]
    fn totals_are_consistent() {
        let mut p = pool(4);
        p.place_vm(HostId(0), VmId(1), Resources::cores_gib(8, 32))
            .unwrap();
        p.place_vm(HostId(2), VmId(2), Resources::cores_gib(16, 64))
            .unwrap();
        assert_eq!(p.total_used(), Resources::cores_gib(24, 96));
        assert_eq!(p.total_used() + p.total_free(), p.total_capacity());
    }

    #[test]
    fn host_mut_guard_reindexes_state_transitions() {
        let mut p = pool(2);
        p.place_vm(HostId(0), VmId(1), Resources::cores_gib(4, 16))
            .unwrap();
        p.host_mut(HostId(0))
            .unwrap()
            .open_with_class(LifetimeClass::Lc2, SimTime(100));
        p.validate_index().unwrap();
        assert_eq!(
            p.hosts_in_state_class(HostLifetimeState::Open, Some(LifetimeClass::Lc2))
                .map(|h| h.id())
                .collect::<Vec<_>>(),
            vec![HostId(0)]
        );
        assert_eq!(
            p.hosts_in_state_class(HostLifetimeState::Open, Some(LifetimeClass::Lc2))
                .count(),
            1
        );
        assert_eq!(
            p.hosts_in_state_class(HostLifetimeState::Empty, None)
                .count(),
            1
        );

        p.host_mut(HostId(0)).unwrap().start_recycling();
        p.validate_index().unwrap();
        assert_eq!(
            p.hosts_in_state_class(HostLifetimeState::Recycling, Some(LifetimeClass::Lc2))
                .count(),
            1
        );
        assert_eq!(
            p.hosts_in_state_class(HostLifetimeState::Open, Some(LifetimeClass::Lc2))
                .count(),
            0
        );
    }

    #[test]
    fn hosts_by_free_orders_ascending() {
        let mut p = pool(3);
        p.place_vm(HostId(1), VmId(1), Resources::cores_gib(24, 96))
            .unwrap();
        p.place_vm(HostId(2), VmId(2), Resources::cores_gib(8, 32))
            .unwrap();
        let order: Vec<HostId> = p.hosts_by_free().map(|h| h.id()).collect();
        // Host 1 has 8 cores free, host 2 has 24, host 0 has 32.
        assert_eq!(order, vec![HostId(1), HostId(2), HostId(0)]);
    }

    /// Three shapes, two of them with the same CPU: `[A, B, A, C, B, A]`
    /// for `n = 6`, A = 32 cores / 128 GiB, B = 32 / 256, C = 16 / 64.
    fn mixed_pool(n: usize) -> Pool {
        let shapes = [
            Resources::cores_gib(32, 128),
            Resources::cores_gib(32, 256),
            Resources::cores_gib(16, 64),
        ];
        let mut p = Pool::new(PoolId(0));
        for i in 0..n {
            p.add_host(HostSpec::new(shapes[[0, 1, 0, 2, 1][i % 5]]));
        }
        p
    }

    /// `(leaders, hosts examined)` of [`Pool::empty_leaders`].
    fn leaders(p: &Pool, request: Resources, exclude: Option<HostId>) -> (Vec<HostId>, u64) {
        let mut walk = p.empty_leaders(request, exclude);
        let ids = walk.by_ref().map(|h| h.id()).collect();
        (ids, walk.examined())
    }

    #[test]
    fn empty_leaders_pick_one_host_per_shape() {
        let mut p = mixed_pool(6);
        p.place_vm(HostId(0), VmId(1), Resources::cores_gib(4, 16))
            .unwrap();
        assert_eq!(p.empty_capacity(), Resources::cores_gib(144, 832));
        let small = Resources::cores_gib(4, 16);
        // One leader per shape, in shape order: A, B, C.
        assert_eq!(
            leaders(&p, small, None),
            (vec![HostId(2), HostId(1), HostId(3)], 3)
        );
        // An excluded or unavailable leader is walked past within its shape.
        assert_eq!(
            leaders(&p, small, Some(HostId(2))),
            (vec![HostId(5), HostId(1), HostId(3)], 4)
        );
        p.host_mut(HostId(1)).unwrap().set_unavailable(true);
        assert_eq!(
            leaders(&p, small, None),
            (vec![HostId(2), HostId(4), HostId(3)], 4)
        );
        // A shape the request does not fit costs nothing; a shape with no
        // eligible empty host yields nothing.
        assert_eq!(
            leaders(&p, Resources::cores_gib(20, 80), Some(HostId(4))),
            (vec![HostId(2)], 3)
        );
        p.validate_index().unwrap();
    }

    proptest! {
        /// The VM reverse index always agrees with per-host membership.
        #[test]
        fn prop_index_consistency(ops in proptest::collection::vec((0u64..6, 0u64..30, 1u64..8), 1..80)) {
            let mut p = pool(6);
            for (host, vm, cores) in ops {
                let host = HostId(host);
                let vm = VmId(vm);
                let r = Resources::cores_gib(cores, cores * 4);
                if p.host_of(vm).is_some() {
                    p.remove_vm(vm).unwrap();
                } else if p.host(host).map(|h| h.can_fit(r)).unwrap_or(false) {
                    p.place_vm(host, vm, r).unwrap();
                }
            }
            for h in p.hosts() {
                for (vm, _) in h.vms() {
                    prop_assert_eq!(p.host_of(vm), Some(h.id()));
                }
            }
            let total_on_hosts: usize = p.hosts().map(|h| h.vm_count()).sum();
            prop_assert_eq!(total_on_hosts, p.vm_count());
        }

        /// The candidate indexes stay consistent under random mutation
        /// sequences, including lifetime state transitions.
        #[test]
        fn prop_candidate_index_consistency(
            ops in proptest::collection::vec((0u64..6, 0u64..30, 1u64..8, 0u8..6), 1..120)
        ) {
            check_candidate_index(pool(6), ops)?;
        }

        /// The same on a pool of three capacity shapes, with hosts also
        /// withheld from and returned to scheduling.
        #[test]
        fn prop_candidate_index_consistency_mixed_shapes(
            ops in proptest::collection::vec((0u64..6, 0u64..30, 1u64..8, 0u8..7), 1..120)
        ) {
            check_candidate_index(mixed_pool(6), ops)?;
        }
    }

    /// Apply `(host, vm, cores, action)` steps to `p`, validating the
    /// indexes after each, then check the indexed enumerations against
    /// brute-force scans.
    fn check_candidate_index(
        mut p: Pool,
        ops: Vec<(u64, u64, u64, u8)>,
    ) -> Result<(), proptest::TestCaseError> {
        for (host, vm, cores, action) in ops {
            let host = HostId(host);
            let vm = VmId(vm);
            let r = Resources::cores_gib(cores, cores * 4);
            match action {
                0..=2 => {
                    if p.host_of(vm).is_some() {
                        p.remove_vm(vm).unwrap();
                    } else if p.host(host).map(|h| h.can_fit(r)).unwrap_or(false) {
                        p.place_vm(host, vm, r).unwrap();
                    }
                }
                3 => {
                    if let Some(mut h) = p.host_mut(host) {
                        let class = LifetimeClass::from_index_clamped(cores as i32 % 5);
                        h.open_with_class(class, SimTime(cores * 100));
                    }
                }
                4 => {
                    if let Some(mut h) = p.host_mut(host) {
                        h.start_recycling();
                    }
                }
                5 => {
                    if let Some(mut h) = p.host_mut(host) {
                        if h.is_empty() {
                            h.reset_lifetime_state();
                        } else {
                            h.step_class_down(SimTime(cores * 50));
                        }
                    }
                }
                _ => {
                    if let Some(mut h) = p.host_mut(host) {
                        let withheld = h.is_unavailable();
                        h.set_unavailable(!withheld);
                    }
                }
            }
            prop_assert!(p.validate_index().is_ok(), "{:?}", p.validate_index());
        }
        // The indexed enumerations agree with brute-force scans.
        let exclusions = std::iter::once(None).chain(p.hosts().map(|h| Some(h.id())));
        for exclude in exclusions {
            for cores in [1, 4, 16, 20, 32, 40] {
                let request = Resources::cores_gib(cores, cores * 4);
                prop_assert_eq!(
                    leaders(&p, request, exclude),
                    brute_leaders(&p, request, exclude)
                );
            }
        }
        for state in [
            HostLifetimeState::Empty,
            HostLifetimeState::Open,
            HostLifetimeState::Recycling,
        ] {
            for class in [
                None,
                Some(LifetimeClass::Lc1),
                Some(LifetimeClass::Lc2),
                Some(LifetimeClass::Lc3),
                Some(LifetimeClass::Lc4),
            ] {
                let brute: Vec<HostId> = p
                    .hosts()
                    .filter(|h| h.lifetime_state() == state && h.lifetime_class() == class)
                    .map(|h| h.id())
                    .collect();
                let indexed: Vec<HostId> = p
                    .hosts_in_state_class(state, class)
                    .map(|h| h.id())
                    .collect();
                prop_assert_eq!(brute, indexed);
            }
        }
        Ok(())
    }

    /// [`Pool::empty_leaders`] by scanning: group `hosts().filter(is_empty)`
    /// by capacity, shapes in order of first appearance among all hosts,
    /// and walk each fitting group in id order to its first eligible host.
    fn brute_leaders(p: &Pool, request: Resources, exclude: Option<HostId>) -> (Vec<HostId>, u64) {
        let mut shapes: Vec<Resources> = Vec::new();
        for h in p.hosts() {
            if !shapes.contains(&h.capacity()) {
                shapes.push(h.capacity());
            }
        }
        let (mut ids, mut examined) = (Vec::new(), 0);
        for shape in shapes.into_iter().filter(|s| s.fits(&request)) {
            let group = p
                .hosts()
                .filter(|h| h.is_empty())
                .filter(|h| h.capacity() == shape);
            for h in group {
                examined += 1;
                if Some(h.id()) != exclude && h.can_fit(request) {
                    ids.push(h.id());
                    break;
                }
            }
        }
        (ids, examined)
    }
}
