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
//! * the set of occupied hosts, and the set of empty hosts grouped by
//!   capacity shape (also powering O(1) [`Pool::empty_host_count`]). An
//!   empty host's free capacity is its capacity, so empty hosts of one
//!   shape score alike and [`Pool::empty_leaders`] hands a scheduler one
//!   candidate per shape: O(shapes), not O(empty hosts);
//! * an ordering by free capacity (CPU, then memory, then SSD).
//!
//! Mutations flow through [`Pool::place_vm`] / [`Pool::remove_vm`] or
//! through the [`HostMut`] guard returned by [`Pool::host_mut`], which
//! re-indexes the host when dropped. There is deliberately no unguarded
//! `&mut Host` access.

use crate::arena::VmTable;
use crate::host::{Host, HostId, HostLifetimeState, HostSpec};
use crate::lifetime::LifetimeClass;
use crate::resources::Resources;
use crate::vm::VmId;
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
#[derive(Debug, Clone, PartialEq)]
struct HostIndex {
    /// `(state, class)` buckets, indexed by [`bucket_slot`].
    buckets: Vec<BTreeSet<HostId>>,
    /// Hosts with at least one VM.
    occupied: BTreeSet<HostId>,
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
            occupied: BTreeSet::new(),
            empty: BTreeSet::new(),
            shapes: Vec::new(),
            shape_of: Vec::new(),
            by_free: BTreeSet::new(),
        }
    }

    /// Index a newly added host, recording its shape.
    fn add(&mut self, host: &Host) {
        assert!(
            u32::try_from(host.id().0).is_ok(),
            "a pool holds fewer than 2^32 hosts"
        );
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
        } else {
            self.occupied.insert(id);
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
            if before.is_empty {
                self.empty.remove(&empty_key);
                self.occupied.insert(id);
            } else {
                self.occupied.remove(&id);
                self.empty.insert(empty_key);
            }
        }
        if before.free != after.free {
            self.by_free.remove(&free_key(before.free, id));
            self.by_free.insert(free_key(after.free, id));
        }
    }
}

/// Hot per-host fields mirrored into contiguous parallel arrays
/// (structure-of-arrays), maintained in lock-step with the host records
/// on every mutation. Pool-wide walks that only need these fields —
/// metric sampling, capacity profiling, state/class censuses — touch
/// four dense arrays instead of striding through full [`Host`] records.
#[derive(Debug, Clone, PartialEq, Default)]
struct HostHot {
    /// Free (unreserved) resources per host.
    free: Vec<Resources>,
    /// LAVA lifetime state per host.
    state: Vec<HostLifetimeState>,
    /// LAVA lifetime class per host.
    class: Vec<Option<LifetimeClass>>,
    /// Number of VMs per host.
    vm_count: Vec<u32>,
}

impl HostHot {
    fn push(&mut self, host: &Host) {
        self.free.push(host.free());
        self.state.push(host.lifetime_state());
        self.class.push(host.lifetime_class());
        self.vm_count.push(host.vm_count() as u32);
    }

    fn sync(&mut self, idx: usize, host: &Host) {
        self.free[idx] = host.free();
        self.state[idx] = host.lifetime_state();
        self.class[idx] = host.lifetime_class();
        self.vm_count[idx] = host.vm_count() as u32;
    }
}

/// A read-only view over the pool's structure-of-arrays hot fields: the
/// cache-dense way to walk per-host capacity state. All slices but
/// `shapes` are indexed by `HostId.0` and have length
/// [`Pool::host_count`].
#[derive(Debug, Clone, Copy)]
pub struct CapacityProfile<'a> {
    /// Free resources per host.
    pub free: &'a [Resources],
    /// Capacity shape per host: its total capacity is `shapes[shape]`.
    pub shape: &'a [u32],
    /// The pool's distinct host capacities, in order of first appearance.
    pub shapes: &'a [Resources],
    /// Lifetime state per host.
    pub state: &'a [HostLifetimeState],
    /// Lifetime class per host.
    pub class: &'a [Option<LifetimeClass>],
    /// VM count per host.
    pub vm_count: &'a [u32],
}

/// A pool of hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Pool {
    id: PoolId,
    /// Hosts stored densely: `hosts[i].id() == HostId(i)`. Host ids are
    /// assigned sequentially by [`Pool::add_host`] and hosts are never
    /// deleted, so every host lookup on the placement hot path is one
    /// bounds-checked index.
    hosts: Vec<Host>,
    /// Reverse index from VM to host: a flat dense table for the
    /// sequential ids real workloads use (one array read per lookup),
    /// with an ordered spill for sparse synthetic ids.
    vm_index: VmTable<HostId>,
    /// Secondary candidate indexes, maintained on every mutation.
    index: HostIndex,
    /// Structure-of-arrays mirror of the hot host fields.
    hot: HostHot,
    /// Incremented on every occupancy-affecting mutation (placements,
    /// removals, including those made through a [`HostMut`] guard).
    /// Consumers holding derived state (the cluster's exit-time cache)
    /// compare epochs to detect mutations that bypassed their event feed.
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
            vm_index: VmTable::new(),
            index: HostIndex::new(),
            hot: HostHot::default(),
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
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u64);
        let host = Host::new(id, spec);
        self.index.add(&host);
        self.agg_capacity += host.capacity();
        self.agg_free += host.free();
        self.hot.push(&host);
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
    /// dropped (state, class, occupancy or free-capacity changes all move
    /// the host between index buckets).
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

    /// The structure-of-arrays view of the hot host fields (free,
    /// capacity shape, state, class, VM count), indexed by `HostId.0` —
    /// the cache-dense input for pool-wide capacity walks.
    pub fn capacity_profile(&self) -> CapacityProfile<'_> {
        CapacityProfile {
            free: &self.hot.free,
            shape: &self.index.shape_of,
            shapes: &self.index.shapes,
            state: &self.hot.state,
            class: &self.hot.class,
            vm_count: &self.hot.vm_count,
        }
    }

    /// Which host a VM is currently placed on.
    #[inline]
    pub fn host_of(&self, vm: VmId) -> Option<HostId> {
        self.vm_index.get(vm).copied()
    }

    /// Number of VMs currently placed in the pool.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vm_index.len()
    }

    /// Place a VM on a specific host, updating the reverse index and the
    /// candidate indexes.
    ///
    /// # Errors
    ///
    /// Returns the underlying host error, or [`crate::error::CoreError::HostNotFound`]
    /// if the host id is unknown.
    pub fn place_vm(
        &mut self,
        host: HostId,
        vm: VmId,
        request: Resources,
    ) -> Result<(), crate::error::CoreError> {
        let record = self
            .hosts
            .get_mut(host.0 as usize)
            .ok_or(crate::error::CoreError::HostNotFound { host })?;
        let before = key_of(record);
        record.place(vm, request)?;
        let after = key_of(record);
        self.hot.sync(host.0 as usize, record);
        self.index.update(host, before, after);
        self.agg_free -= before.free;
        self.agg_free += after.free;
        self.vm_index.insert(vm, host);
        self.mutation_epoch += 1;
        Ok(())
    }

    /// Remove a VM from whatever host it is on, returning the host id and
    /// released resources.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::CoreError::VmNotFound`] if the VM is not
    /// placed anywhere in this pool.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(HostId, Resources), crate::error::CoreError> {
        let host_id = self
            .vm_index
            .remove(vm)
            .ok_or(crate::error::CoreError::VmNotFound { vm })?;
        let record = self
            .hosts
            .get_mut(host_id.0 as usize)
            .ok_or(crate::error::CoreError::HostNotFound { host: host_id })?;
        let before = key_of(record);
        let released = record.remove(vm)?;
        let after = key_of(record);
        self.hot.sync(host_id.0 as usize, record);
        self.index.update(host_id, before, after);
        self.agg_free -= before.free;
        self.agg_free += after.free;
        self.mutation_epoch += 1;
        Ok((host_id, released))
    }

    /// Pre-size the vm → host table for a workload whose ids stay below
    /// `max_id`: the covering pages are allocated and pinned up front, so
    /// steady-state place/remove churn never touches the allocator.
    pub fn reserve_vm_index(&mut self, max_id: u64) {
        self.vm_index.reserve_dense(max_id);
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

    /// Hosts with at least one VM, in id order.
    pub fn occupied_hosts(&self) -> impl Iterator<Item = &Host> + '_ {
        self.index
            .occupied
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

    /// Verify that every index agrees with the authoritative host map.
    /// Used by tests; O(hosts × log hosts).
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
            let in_empty = self.index.empty.contains(&self.index.empty_key(host.id()));
            let in_occupied = self.index.occupied.contains(&host.id());
            if key.is_empty != in_empty || key.is_empty == in_occupied {
                return Err(format!("host {} occupancy sets inconsistent", host.id()));
            }
            if !self.index.by_free.contains(&free_key(key.free, host.id())) {
                return Err(format!("host {} missing from by_free", host.id()));
            }
            let idx = host.id().0 as usize;
            if self.hot.free[idx] != host.free()
                || self.hot.state[idx] != host.lifetime_state()
                || self.hot.class[idx] != host.lifetime_class()
                || self.hot.vm_count[idx] != host.vm_count() as u32
            {
                return Err(format!("host {} hot arrays out of sync", host.id()));
            }
        }
        if self.index.by_free.len() != self.hosts.len() {
            return Err("by_free has stale entries".to_string());
        }
        if self.hot.free.len() != self.hosts.len() {
            return Err("hot arrays have the wrong length".to_string());
        }
        let scan_capacity: Resources = self.hosts().map(|h| h.capacity()).sum();
        let scan_free: Resources = self.hosts().map(|h| h.free()).sum();
        if scan_capacity != self.agg_capacity || scan_free != self.agg_free {
            return Err(format!(
                "aggregates drifted: capacity {:?} vs scan {scan_capacity:?}, \
                 free {:?} vs scan {scan_free:?}",
                self.agg_capacity, self.agg_free
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
    /// maintained on every placement, removal and [`HostMut`] mutation).
    pub fn total_free(&self) -> Resources {
        self.agg_free
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
/// class, occupancy or free capacity is folded back into the indexes.
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
        let idx = self.id.0 as usize;
        let host = self.pool.hosts.get(idx).expect("guarded host exists");
        let after = key_of(host);
        if after.is_empty != self.before.is_empty || after.free != self.before.free {
            self.pool.mutation_epoch += 1;
        }
        self.pool.agg_free -= self.before.free;
        self.pool.agg_free += after.free;
        self.pool.hot.sync(idx, &self.pool.hosts[idx]);
        self.pool.index.update(self.id, self.before, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
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
        let occupied: Vec<HostId> = p.occupied_hosts().map(|h| h.id()).collect();
        assert_eq!(occupied, vec![HostId(0)]);
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
