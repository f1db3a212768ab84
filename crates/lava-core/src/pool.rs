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
//! * the sets of occupied and empty hosts (also powering O(1)
//!   [`Pool::empty_host_count`]);
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
    /// Hosts with no VMs.
    empty: BTreeSet<HostId>,
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
            by_free: BTreeSet::new(),
        }
    }

    fn insert(&mut self, id: HostId, key: IndexKey) {
        self.buckets[key.bucket].insert(id);
        if key.is_empty {
            self.empty.insert(id);
        } else {
            self.occupied.insert(id);
        }
        self.by_free.insert(free_key(key.free, id));
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
            if before.is_empty {
                self.empty.remove(&id);
                self.occupied.insert(id);
            } else {
                self.occupied.remove(&id);
                self.empty.insert(id);
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
    /// Total capacity per host (static after [`Pool::add_host`]).
    capacity: Vec<Resources>,
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
        self.capacity.push(host.capacity());
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
/// cache-dense way to walk per-host capacity state. All slices are
/// indexed by `HostId.0` and have length [`Pool::host_count`].
#[derive(Debug, Clone, Copy)]
pub struct CapacityProfile<'a> {
    /// Free resources per host.
    pub free: &'a [Resources],
    /// Total capacity per host.
    pub capacity: &'a [Resources],
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
        self.index.insert(id, key_of(&host));
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
    /// capacity, state, class, VM count), indexed by `HostId.0` — the
    /// cache-dense input for pool-wide capacity walks.
    pub fn capacity_profile(&self) -> CapacityProfile<'_> {
        CapacityProfile {
            free: &self.hot.free,
            capacity: &self.hot.capacity,
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

    /// Number of hosts currently in `(state, class)`.
    pub fn state_class_count(
        &self,
        state: HostLifetimeState,
        class: Option<LifetimeClass>,
    ) -> usize {
        self.index.buckets[bucket_slot(state, class)].len()
    }

    /// Hosts with at least one VM, in id order.
    pub fn occupied_hosts(&self) -> impl Iterator<Item = &Host> + '_ {
        self.index
            .occupied
            .iter()
            .filter_map(move |id| self.host(*id))
    }

    /// Hosts with no VMs, in id order.
    pub fn empty_hosts(&self) -> impl Iterator<Item = &Host> + '_ {
        self.index.empty.iter().filter_map(move |id| self.host(*id))
    }

    /// Number of hosts with at least one VM.
    #[inline]
    pub fn occupied_host_count(&self) -> usize {
        self.index.occupied.len()
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
        for host in self.hosts() {
            let key = key_of(host);
            let in_empty = self.index.empty.contains(&host.id());
            let in_occupied = self.index.occupied.contains(&host.id());
            if key.is_empty != in_empty || key.is_empty == in_occupied {
                return Err(format!("host {} occupancy sets inconsistent", host.id()));
            }
            if !self.index.by_free.contains(&free_key(key.free, host.id())) {
                return Err(format!("host {} missing from by_free", host.id()));
            }
            let idx = host.id().0 as usize;
            if self.hot.free[idx] != host.free()
                || self.hot.capacity[idx] != host.capacity()
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
        assert_eq!(p.occupied_host_count(), 1);
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
            p.state_class_count(HostLifetimeState::Open, Some(LifetimeClass::Lc2)),
            1
        );
        assert_eq!(p.state_class_count(HostLifetimeState::Empty, None), 1);

        p.host_mut(HostId(0)).unwrap().start_recycling();
        p.validate_index().unwrap();
        assert_eq!(
            p.state_class_count(HostLifetimeState::Recycling, Some(LifetimeClass::Lc2)),
            1
        );
        assert_eq!(
            p.state_class_count(HostLifetimeState::Open, Some(LifetimeClass::Lc2)),
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

    #[test]
    fn empty_hosts_iterator_matches_scan() {
        let mut p = pool(4);
        p.place_vm(HostId(1), VmId(1), Resources::cores_gib(4, 16))
            .unwrap();
        p.place_vm(HostId(3), VmId(2), Resources::cores_gib(4, 16))
            .unwrap();
        let empties: Vec<HostId> = p.empty_hosts().map(|h| h.id()).collect();
        assert_eq!(empties, vec![HostId(0), HostId(2)]);
        let occupied: Vec<HostId> = p.occupied_hosts().map(|h| h.id()).collect();
        assert_eq!(occupied, vec![HostId(1), HostId(3)]);
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
            let mut p = pool(6);
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
                    _ => {
                        if let Some(mut h) = p.host_mut(host) {
                            if h.is_empty() {
                                h.reset_lifetime_state();
                            } else {
                                h.step_class_down(SimTime(cores * 50));
                            }
                        }
                    }
                }
                prop_assert!(p.validate_index().is_ok(), "{:?}", p.validate_index());
            }
            // The indexed enumerations agree with brute-force scans.
            let brute_empty: Vec<HostId> =
                p.hosts().filter(|h| h.is_empty()).map(|h| h.id()).collect();
            let indexed_empty: Vec<HostId> = p.empty_hosts().map(|h| h.id()).collect();
            prop_assert_eq!(brute_empty, indexed_empty);
            for state in [
                HostLifetimeState::Empty,
                HostLifetimeState::Open,
                HostLifetimeState::Recycling,
            ] {
                for class in [None, Some(LifetimeClass::Lc1), Some(LifetimeClass::Lc2),
                              Some(LifetimeClass::Lc3), Some(LifetimeClass::Lc4)] {
                    let brute: Vec<HostId> = p
                        .hosts()
                        .filter(|h| h.lifetime_state() == state && h.lifetime_class() == class)
                        .map(|h| h.id())
                        .collect();
                    let indexed: Vec<HostId> =
                        p.hosts_in_state_class(state, class).map(|h| h.id()).collect();
                    prop_assert_eq!(brute, indexed);
                }
            }
        }
    }
}
