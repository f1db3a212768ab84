//! Arena-backed storage for the simulation hot path: a flat vm→`u32`
//! table and a slab arena for live VM records.
//!
//! The original state layout paid a `BTreeMap` pointer-chase per VM on
//! every placement (`Pool::vm_index`, `Cluster::vms`) and re-allocated a
//! node per insert at scale. This module replaces both with
//! cache-dense, allocation-amortised structures:
//!
//! * [`VmTable`] — a paged dense array of `u32` indexed directly by
//!   [`VmId`] for the sequential ids the workload generator produces,
//!   with a `BTreeMap` spill for sparse synthetic ids (chaos storms use
//!   ids from `1 << 48`). A slot is 4 bytes: `u32::MAX` marks it empty,
//!   so no stored value may equal it. Lookup on the hot path is two
//!   bounds checks and two array reads; iteration is id-ordered (dense
//!   ascending, then spill ascending — every spill id is larger than
//!   every dense id). Pages are allocated on first touch and freed when
//!   their last entry is removed, so a multi-month streaming replay —
//!   where ids grow without bound but the *live* id window does not —
//!   holds memory proportional to the live window, not the total id
//!   space. A fleet cell behind a router that spreads consecutive ids
//!   over every cell touches every page of the live window, so each of
//!   its two tables (the arena's slot index and the pool's host index)
//!   costs 4 bytes per id of that window.
//! * [`VmArena`] — a slab of `Option<Vm>` slots holding the live [`Vm`]
//!   records. Slots are recycled through a LIFO free list, so a
//!   steady-state create/exit churn re-uses the same few cache-warm
//!   slots and never allocates. Every lookup goes through the id index;
//!   nothing outside the arena holds a slot number.

use crate::vm::{Vm, VmId};
use std::collections::BTreeMap;

/// Ids below this limit live in the dense array of a [`VmTable`]; ids at
/// or above it go to the spill map. Workload-generated ids are
/// sequential from zero and stay dense; chaos-storm ids start at
/// `1 << 48` and always spill.
pub const DENSE_ID_LIMIT: u64 = 1 << 24;

/// The empty marker of a [`VmTable`] slot, and "slot is not live" in
/// [`VmArena`]'s position table.
const VACANT: u32 = u32::MAX;

/// Ids per dense page of a [`VmTable`].
const PAGE_IDS: usize = 4096;

/// `n` as a value a [`VmTable`] can store: `None` if it does not fit in
/// a `u32` or would alias the empty marker.
pub(crate) fn table_value(n: usize) -> Option<u32> {
    u32::try_from(n).ok().filter(|&v| v != VACANT)
}

/// One dense page: a fixed slab of slots plus its occupancy count (so an
/// emptied page can be released without scanning it).
#[derive(Debug, Clone)]
struct Page {
    live: u32,
    slots: Box<[u32]>,
}

impl Page {
    fn new() -> Page {
        Page {
            live: 0,
            slots: vec![VACANT; PAGE_IDS].into_boxed_slice(),
        }
    }
}

/// A flat map from [`VmId`] to `u32`: paged dense array for small ids,
/// ordered spill for sparse ones.
///
/// A dense slot is 4 bytes, with `u32::MAX` as its empty marker:
/// [`VmTable::insert`] panics on that value. Dense pages are allocated on
/// first touch and freed when their last entry leaves (unless covered by
/// [`VmTable::reserve_dense`], which pins its pages so steady-state churn
/// inside the reservation never touches the allocator). Logical equality
/// ignores page layout, so two tables with identical contents compare
/// equal regardless of growth history.
#[derive(Debug, Clone, Default)]
pub struct VmTable {
    pages: Vec<Option<Page>>,
    /// Pages below this index are pinned: never freed on empty, so a
    /// reservation guarantees allocation-free churn within its bounds.
    reserved_pages: usize,
    spill: BTreeMap<u64, u32>,
    len: usize,
}

impl VmTable {
    /// Create an empty table.
    pub fn new() -> VmTable {
        VmTable::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-size the dense side to cover ids `0..max_id`: every covering
    /// page is allocated up front and pinned (never freed on empty), so
    /// steady-state churn within the reservation performs zero heap
    /// allocations. Ids beyond [`DENSE_ID_LIMIT`] are clamped (they spill
    /// regardless).
    pub fn reserve_dense(&mut self, max_id: u64) {
        let want_pages = (max_id.min(DENSE_ID_LIMIT) as usize).div_ceil(PAGE_IDS);
        if want_pages > self.pages.len() {
            self.pages.resize_with(want_pages, || None);
        }
        for slot in &mut self.pages[..want_pages] {
            if slot.is_none() {
                *slot = Some(Page::new());
            }
        }
        self.reserved_pages = self.reserved_pages.max(want_pages);
    }

    /// Insert or replace, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// If `value` is `u32::MAX`, the empty marker.
    pub fn insert(&mut self, id: VmId, value: u32) -> Option<u32> {
        assert!(
            value != VACANT,
            "VmTable cannot store u32::MAX: it marks an empty slot"
        );
        if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            let (page_idx, slot_idx) = (idx / PAGE_IDS, idx % PAGE_IDS);
            if page_idx >= self.pages.len() {
                let target = (page_idx + 1).max(self.pages.len() * 2).max(16);
                self.pages
                    .resize_with(target.min(DENSE_ID_LIMIT as usize / PAGE_IDS), || None);
            }
            let page = self.pages[page_idx].get_or_insert_with(Page::new);
            let prev = std::mem::replace(&mut page.slots[slot_idx], value);
            if prev == VACANT {
                page.live += 1;
                self.len += 1;
                None
            } else {
                Some(prev)
            }
        } else {
            let prev = self.spill.insert(id.0, value);
            if prev.is_none() {
                self.len += 1;
            }
            prev
        }
    }

    /// Remove an entry, returning its value. An unpinned page whose last
    /// entry leaves is released, so memory tracks the live id window.
    pub fn remove(&mut self, id: VmId) -> Option<u32> {
        if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            let (page_idx, slot_idx) = (idx / PAGE_IDS, idx % PAGE_IDS);
            let slot = self.pages.get_mut(page_idx)?;
            let page = slot.as_mut()?;
            let prev = std::mem::replace(&mut page.slots[slot_idx], VACANT);
            if prev == VACANT {
                return None;
            }
            page.live -= 1;
            self.len -= 1;
            if page.live == 0 && page_idx >= self.reserved_pages {
                *slot = None;
            }
            Some(prev)
        } else {
            let prev = self.spill.remove(&id.0);
            if prev.is_some() {
                self.len -= 1;
            }
            prev
        }
    }

    /// Look up an entry.
    #[inline]
    pub fn get(&self, id: VmId) -> Option<u32> {
        if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            let value = self.pages.get(idx / PAGE_IDS)?.as_ref()?.slots[idx % PAGE_IDS];
            (value != VACANT).then_some(value)
        } else {
            self.spill.get(&id.0).copied()
        }
    }

    /// Whether the table holds an entry for `id`.
    #[inline]
    pub fn contains(&self, id: VmId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, u32)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| page.as_ref().map(|page| (p, page)))
            .flat_map(|(p, page)| {
                page.slots
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != VACANT)
                    .map(move |(s, &v)| (VmId((p * PAGE_IDS + s) as u64), v))
            })
            .chain(self.spill.iter().map(|(&k, &v)| (VmId(k), v)))
    }

    /// Remove all entries. Reserved pages are retained (still pinned);
    /// unpinned pages are released.
    pub fn clear(&mut self) {
        for (page_idx, slot) in self.pages.iter_mut().enumerate() {
            if page_idx < self.reserved_pages {
                if let Some(page) = slot.as_mut() {
                    page.live = 0;
                    page.slots.fill(VACANT);
                }
            } else {
                *slot = None;
            }
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Number of dense pages currently allocated (diagnostics / tests).
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

impl PartialEq for VmTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Slab arena of live [`Vm`] records with id-ordered iteration and O(1)
/// placement-order sampling.
///
/// Invariants:
/// * `index` maps every live id to its slot; `iter` walks it in id order.
/// * `live` holds the live slots in *placement order* (swap-removal on
///   exit), `pos` is its inverse — both are what
///   `Cluster::sampled_vms` strides over without any map lookups.
/// * released slots join a LIFO `free` list, so churn re-uses warm slots.
#[derive(Debug, Clone, Default)]
pub struct VmArena {
    slots: Vec<Option<Vm>>,
    free: Vec<u32>,
    index: VmTable,
    live: Vec<u32>,
    pos: Vec<u32>,
}

impl VmArena {
    /// Create an empty arena.
    pub fn new() -> VmArena {
        VmArena::default()
    }

    /// Number of live VMs.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True if no VMs are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Pre-size for a workload: dense ids up to `max_id` and `live`
    /// concurrently-running VMs. After this, steady-state churn within
    /// those bounds performs zero heap allocations.
    pub fn reserve(&mut self, max_id: u64, live: usize) {
        self.index.reserve_dense(max_id);
        let extra = live.saturating_sub(self.slots.len());
        self.slots.reserve(extra);
        self.pos.reserve(extra);
        self.free.reserve(live.saturating_sub(self.free.len()));
        self.live.reserve(live.saturating_sub(self.live.len()));
    }

    /// Insert a VM record.
    ///
    /// Inserting an id that is already live replaces the record in its
    /// existing slot and keeps its placement-order position (mirroring
    /// the legacy `BTreeMap::insert` overwrite semantics).
    pub fn insert(&mut self, vm: Vm) {
        let id = vm.id();
        if let Some(slot) = self.index.get(id) {
            self.slots[slot as usize] = Some(vm);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(vm);
                slot
            }
            None => {
                let slot = table_value(self.slots.len())
                    .expect("a VmArena holds fewer than u32::MAX slots");
                self.slots.push(Some(vm));
                self.pos.push(VACANT);
                slot
            }
        };
        self.index.insert(id, slot);
        self.pos[slot as usize] =
            table_value(self.live.len()).expect("a VmArena has fewer live VMs than slots");
        self.live.push(slot);
    }

    /// Remove a VM record by id, releasing its slot to the free list.
    pub fn remove(&mut self, id: VmId) -> Option<Vm> {
        let slot = self.index.remove(id)?;
        let vm = self.slots[slot as usize].take();
        let p = self.pos[slot as usize] as usize;
        self.live.swap_remove(p);
        if p < self.live.len() {
            self.pos[self.live[p] as usize] = p as u32;
        }
        self.pos[slot as usize] = VACANT;
        self.free.push(slot);
        vm
    }

    /// Look up a live VM by id.
    #[inline]
    pub fn get(&self, id: VmId) -> Option<&Vm> {
        let slot = self.index.get(id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Whether a VM with this id is live.
    #[inline]
    pub fn contains(&self, id: VmId) -> bool {
        self.index.contains(id)
    }

    /// Iterate live VMs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &Vm> + '_ {
        self.index
            .iter()
            .map(|(_, slot)| self.slots[slot as usize].as_ref().unwrap())
    }

    /// Every ⌈n/cap⌉-th live VM in placement order — the O(cap) sampling
    /// walk `Scheduler::cell_summary` uses. No map lookups: two array
    /// reads per sample.
    pub fn sampled(&self, cap: usize) -> impl Iterator<Item = &Vm> + '_ {
        let step = self.live.len().div_ceil(cap.max(1)).max(1);
        self.live
            .iter()
            .step_by(step)
            .map(|&slot| self.slots[slot as usize].as_ref().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use crate::time::{Duration, SimTime};
    use crate::vm::VmSpec;

    fn vm(id: u64) -> Vm {
        Vm::new(
            VmId(id),
            VmSpec::builder(Resources::cores_gib(2, 8)).build(),
            SimTime(id),
            Duration::from_hours(1),
        )
    }

    #[test]
    fn table_dense_and_spill_roundtrip() {
        let mut t = VmTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(VmId(3), 30), None);
        assert_eq!(t.insert(VmId(0), 10), None);
        let sparse = VmId(DENSE_ID_LIMIT + 7);
        assert_eq!(t.insert(sparse, 99), None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(VmId(3)), Some(30));
        assert_eq!(t.get(sparse), Some(99));
        assert_eq!(t.get(VmId(1)), None);
        assert!(t.contains(VmId(0)));
        // Id-ordered iteration: dense first, spill after.
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 3, DENSE_ID_LIMIT + 7]);
        assert_eq!(t.insert(VmId(3), 31), Some(30));
        assert_eq!(t.remove(VmId(3)), Some(31));
        assert_eq!(t.remove(VmId(3)), None);
        assert_eq!(t.remove(sparse), Some(99));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn table_equality_ignores_capacity() {
        let mut a = VmTable::new();
        let mut b = VmTable::new();
        b.reserve_dense(10_000);
        a.insert(VmId(5), 1);
        b.insert(VmId(5), 1);
        assert_eq!(a, b);
        b.insert(VmId(6), 2);
        assert_ne!(a, b);
        b.remove(VmId(6));
        assert_eq!(a, b);
    }

    #[test]
    fn table_pages_allocate_on_touch_and_free_on_empty() {
        let mut t = VmTable::new();
        assert_eq!(t.allocated_pages(), 0);
        // Two ids far apart: only their two pages exist.
        let far = (PAGE_IDS as u64) * 100;
        t.insert(VmId(1), 10);
        t.insert(VmId(far), 20);
        assert_eq!(t.allocated_pages(), 2);
        // Id order survives the page gap.
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, far]);
        // Emptying a page releases it; the other survives.
        t.remove(VmId(far));
        assert_eq!(t.allocated_pages(), 1);
        assert_eq!(t.get(VmId(1)), Some(10));
        t.remove(VmId(1));
        assert_eq!(t.allocated_pages(), 0);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "VmTable cannot store u32::MAX")]
    fn table_rejects_the_empty_marker() {
        let mut t = VmTable::new();
        // Every other value round-trips, the largest included...
        t.insert(VmId(1), u32::MAX - 1);
        assert_eq!(t.get(VmId(1)), Some(u32::MAX - 1));
        // ...but the marker would read back as an empty slot.
        t.insert(VmId(2), u32::MAX);
    }

    #[test]
    fn table_reserved_pages_survive_emptying() {
        let mut t = VmTable::new();
        t.reserve_dense(2 * PAGE_IDS as u64);
        assert_eq!(t.allocated_pages(), 2);
        t.insert(VmId(0), 1);
        t.remove(VmId(0));
        // Pinned page stays allocated through an empty cycle...
        assert_eq!(t.allocated_pages(), 2);
        // ...and through clear(); an unpinned page does not.
        t.insert(VmId(3 * PAGE_IDS as u64), 2);
        assert_eq!(t.allocated_pages(), 3);
        t.clear();
        assert_eq!(t.allocated_pages(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn arena_insert_remove_and_slot_reuse() {
        let mut a = VmArena::new();
        a.insert(vm(1));
        a.insert(vm(2));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(VmId(1)).unwrap().id(), VmId(1));
        assert!(a.contains(VmId(2)));

        let out = a.remove(VmId(1)).unwrap();
        assert_eq!(out.id(), VmId(1));
        assert_eq!(a.len(), 1);
        assert!(a.get(VmId(1)).is_none());
        assert!(!a.contains(VmId(1)));

        // The freed slot is re-used (LIFO) for the next insert: the slab
        // does not grow across a remove + insert.
        let slots = a.slots.len();
        a.insert(vm(3));
        assert_eq!(a.len(), 2);
        assert_eq!(a.slots.len(), slots);
        assert!(a.get(VmId(1)).is_none());
        assert_eq!(a.get(VmId(3)).unwrap().id(), VmId(3));
    }

    #[test]
    fn arena_iterates_in_id_order_and_samples_in_placement_order() {
        let mut a = VmArena::new();
        for id in [5u64, 1, 9, 3] {
            a.insert(vm(id));
        }
        let ids: Vec<u64> = a.iter().map(|v| v.id().0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        // cap >= n: every VM, in placement order.
        let sampled: Vec<u64> = a.sampled(10).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![5, 1, 9, 3]);
        // cap 2 over 4 live → stride 2.
        let sampled: Vec<u64> = a.sampled(2).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![5, 9]);
    }

    #[test]
    fn arena_swap_removal_keeps_positions_consistent() {
        let mut a = VmArena::new();
        for id in 0..6u64 {
            a.insert(vm(id));
        }
        a.remove(VmId(2)); // last live slot swaps into position 2
        a.remove(VmId(0));
        let sampled: Vec<u64> = a.sampled(usize::MAX).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![4, 1, 5, 3]);
        // Every remaining id still resolves.
        for id in [1u64, 3, 4, 5] {
            assert_eq!(a.get(VmId(id)).unwrap().id(), VmId(id));
        }
        assert_eq!(a.remove(VmId(0)), None);
    }

    #[test]
    fn arena_duplicate_insert_replaces_in_place() {
        let mut a = VmArena::new();
        a.insert(vm(1));
        a.insert(vm(2));
        let mut replacement = vm(1);
        replacement.assign_host(crate::host::HostId(9));
        a.insert(replacement);
        assert_eq!(a.len(), 2);
        // Placement order unchanged: id 1 still samples first.
        let sampled: Vec<u64> = a.sampled(usize::MAX).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![1, 2]);
        assert_eq!(a.get(VmId(1)).unwrap().host(), Some(crate::host::HostId(9)));
    }

    #[test]
    fn arena_reserve_prevents_steady_state_growth() {
        let mut a = VmArena::new();
        a.reserve(1 << 16, 128);
        for id in 0..128u64 {
            a.insert(vm(id));
        }
        let cap = a.slots.capacity();
        for id in 0..1000u64 {
            a.remove(VmId(id % 128));
            a.insert(vm(128 + id));
            a.remove(VmId(128 + id));
            a.insert(vm(id % 128));
        }
        assert_eq!(a.slots.capacity(), cap);
        assert_eq!(a.len(), 128);
    }
}
