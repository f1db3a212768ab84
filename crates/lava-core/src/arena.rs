//! Arena-backed storage for a pool's live VMs: a flat vm → `u32` table
//! and the slab registry built on it.
//!
//! The original state layout paid a `BTreeMap` pointer-chase per VM on
//! every placement and re-allocated a node per insert at scale. This
//! module replaces it with one cache-dense, allocation-amortised registry:
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
//!   over every cell touches every page of the live window, so its one
//!   table costs 4 bytes per id of that window.
//! * [`VmArena`] — the pool's registry: a slab whose slots hold a live
//!   VM's host and, when it was placed with one, its [`Vm`] record.
//!   Slots are recycled through a LIFO free list, so a steady-state
//!   create/exit churn re-uses the same few cache-warm slots and never
//!   allocates. Every lookup goes through the one id table; nothing
//!   outside the arena holds a slot number.

use crate::vm::{Vm, VmId};
use std::collections::BTreeMap;

/// Ids below this limit live in the dense array of a [`VmTable`]; ids at
/// or above it go to the spill map. Workload-generated ids are
/// sequential from zero and stay dense; chaos-storm ids start at
/// `1 << 48` and always spill.
pub(crate) const DENSE_ID_LIMIT: u64 = 1 << 24;

/// The empty marker of a [`VmTable`] slot, and "none" for a [`VmArena`]
/// slot's host and record position.
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
/// inside the reservation never touches the allocator).
#[derive(Debug, Clone, Default)]
pub(crate) struct VmTable {
    pages: Vec<Option<Page>>,
    /// Pages below this index are pinned: never freed on empty, so a
    /// reservation guarantees allocation-free churn within its bounds.
    reserved_pages: usize,
    spill: BTreeMap<u64, u32>,
    len: usize,
}

impl VmTable {
    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Pre-size the dense side to cover ids `0..max_id`: every covering
    /// page is allocated up front and pinned (never freed on empty), so
    /// steady-state churn within the reservation performs zero heap
    /// allocations. Ids beyond [`DENSE_ID_LIMIT`] are clamped (they spill
    /// regardless).
    pub(crate) fn reserve_dense(&mut self, max_id: u64) {
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

    /// Insert an entry for an id the table does not hold.
    ///
    /// # Panics
    ///
    /// If `value` is `u32::MAX`, the empty marker, or `id` has an entry.
    pub(crate) fn insert(&mut self, id: VmId, value: u32) {
        assert!(
            value != VACANT,
            "VmTable cannot store u32::MAX: it marks an empty slot"
        );
        let prev = if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            let (page_idx, slot_idx) = (idx / PAGE_IDS, idx % PAGE_IDS);
            if page_idx >= self.pages.len() {
                let target = (page_idx + 1).max(self.pages.len() * 2).max(16);
                self.pages
                    .resize_with(target.min(DENSE_ID_LIMIT as usize / PAGE_IDS), || None);
            }
            let page = self.pages[page_idx].get_or_insert_with(Page::new);
            page.live += 1;
            std::mem::replace(&mut page.slots[slot_idx], value)
        } else {
            self.spill.insert(id.0, value).unwrap_or(VACANT)
        };
        assert!(prev == VACANT, "{id:?} is already in the VmTable");
        self.len += 1;
    }

    /// Remove an entry, returning its value. An unpinned page whose last
    /// entry leaves is released, so memory tracks the live id window.
    pub(crate) fn remove(&mut self, id: VmId) -> Option<u32> {
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
    pub(crate) fn get(&self, id: VmId) -> Option<u32> {
        if id.0 < DENSE_ID_LIMIT {
            let idx = id.0 as usize;
            let value = self.pages.get(idx / PAGE_IDS)?.as_ref()?.slots[idx % PAGE_IDS];
            (value != VACANT).then_some(value)
        } else {
            self.spill.get(&id.0).copied()
        }
    }

    /// Iterate entries in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VmId, u32)> + '_ {
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
}

/// A pool's registry of live VMs: one [`VmTable`] from id to a slab slot
/// holding the VM's host and, if it was placed with one, its record.
///
/// Invariants:
/// * `index` maps every live id to its slot; iteration walks it in id order.
/// * `hosts` (`HostId.0`), `records` and `pos` are the slab, by slot; a
///   free slot holds [`VACANT`], `None` and [`VACANT`].
/// * `live` holds the slots with a record in *placement order* (swap-removal
///   on exit); their `pos` is their index there, the others' [`VACANT`]:
///   [`VmArena::sampled`] strides over it without any map lookup.
/// * released slots join a LIFO `free` list, so churn re-uses warm slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct VmArena {
    hosts: Vec<u32>,
    records: Vec<Option<Vm>>,
    pos: Vec<u32>,
    free: Vec<u32>,
    index: VmTable,
    live: Vec<u32>,
}

impl VmArena {
    /// Number of live VMs, with or without a record.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of live VMs that carry a record.
    #[inline]
    pub(crate) fn records(&self) -> usize {
        self.live.len()
    }

    /// Pre-size for a workload: dense ids up to `max_id` and `live`
    /// concurrently-running VMs. After this, steady-state churn within
    /// those bounds performs zero heap allocations.
    pub(crate) fn reserve(&mut self, max_id: u64, live: usize) {
        self.index.reserve_dense(max_id);
        let extra = live.saturating_sub(self.records.len());
        self.hosts.reserve(extra);
        self.records.reserve(extra);
        self.pos.reserve(extra);
        self.free.reserve(live.saturating_sub(self.free.len()));
        self.live.reserve(live.saturating_sub(self.live.len()));
    }

    /// Register a VM that is not live yet (the pool refuses a live id
    /// before it gets here) on host `host`, with or without its record.
    pub(crate) fn insert(&mut self, id: VmId, host: u32, record: Option<Vm>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.hosts.push(VACANT);
            self.records.push(None);
            self.pos.push(VACANT);
            table_value(self.hosts.len() - 1).expect("a VmArena holds fewer than u32::MAX slots")
        });
        let s = slot as usize;
        if record.is_some() {
            // No more records than slots, so `pos` stays below the marker.
            self.pos[s] = self.live.len() as u32;
            self.live.push(slot);
        }
        self.hosts[s] = host;
        self.records[s] = record;
        self.index.insert(id, slot);
    }

    /// Deregister a VM, returning its host and its record (if it had
    /// one) and releasing its slot to the free list.
    pub(crate) fn remove(&mut self, id: VmId) -> Option<(u32, Option<Vm>)> {
        let slot = self.index.remove(id)?;
        let s = slot as usize;
        let p = std::mem::replace(&mut self.pos[s], VACANT);
        if p != VACANT {
            self.live.swap_remove(p as usize);
            if let Some(&moved) = self.live.get(p as usize) {
                self.pos[moved as usize] = p;
            }
        }
        self.free.push(slot);
        Some((
            std::mem::replace(&mut self.hosts[s], VACANT),
            self.records[s].take(),
        ))
    }

    /// The host of a live VM and its record, if it has one.
    #[inline]
    pub(crate) fn entry(&self, id: VmId) -> Option<(u32, Option<&Vm>)> {
        let s = self.index.get(id)? as usize;
        Some((self.hosts[s], self.records[s].as_ref()))
    }

    /// Every live VM in ascending id order: its id, host and record.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (VmId, u32, Option<&Vm>)> + '_ {
        self.index.iter().map(|(id, s)| {
            (
                id,
                self.hosts[s as usize],
                self.records[s as usize].as_ref(),
            )
        })
    }

    /// Every ⌈n/cap⌉-th record in placement order, over the n live VMs
    /// that carry one — the O(cap) sampling walk `Scheduler::cell_summary`
    /// uses. No map lookups: two array reads per sample.
    pub(crate) fn sampled(&self, cap: usize) -> impl Iterator<Item = &Vm> + '_ {
        let step = self.live.len().div_ceil(cap.max(1)).max(1);
        self.live
            .iter()
            .step_by(step)
            .filter_map(|&slot| self.records[slot as usize].as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use crate::time::{Duration, SimTime};
    use crate::vm::VmSpec;

    /// Logical equality: page layout is ignored.
    impl PartialEq for VmTable {
        fn eq(&self, other: &Self) -> bool {
            self.len == other.len && self.iter().eq(other.iter())
        }
    }

    impl VmTable {
        /// Number of dense pages currently allocated.
        fn allocated_pages(&self) -> usize {
            self.pages.iter().filter(|p| p.is_some()).count()
        }
    }

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
        let mut t = VmTable::default();
        assert_eq!(t.len(), 0);
        t.insert(VmId(3), 30);
        t.insert(VmId(0), 10);
        let sparse = VmId(DENSE_ID_LIMIT + 7);
        t.insert(sparse, 99);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(VmId(3)), Some(30));
        assert_eq!(t.get(sparse), Some(99));
        assert_eq!(t.get(VmId(1)), None);
        // Id-ordered iteration: dense first, spill after.
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 3, DENSE_ID_LIMIT + 7]);
        assert_eq!(t.remove(VmId(3)), Some(30));
        assert_eq!(t.remove(VmId(3)), None);
        assert_eq!(t.remove(sparse), Some(99));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(VmId(0)), Some(10));
    }

    #[test]
    fn table_equality_ignores_capacity() {
        let mut a = VmTable::default();
        let mut b = VmTable::default();
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
        let mut t = VmTable::default();
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
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "VmTable cannot store u32::MAX")]
    fn table_rejects_the_empty_marker() {
        let mut t = VmTable::default();
        // Every other value round-trips, the largest included...
        t.insert(VmId(1), u32::MAX - 1);
        assert_eq!(t.get(VmId(1)), Some(u32::MAX - 1));
        // ...but the marker would read back as an empty slot.
        t.insert(VmId(2), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "is already in the VmTable")]
    fn table_refuses_a_second_entry_for_an_id() {
        let mut t = VmTable::default();
        t.insert(VmId(DENSE_ID_LIMIT + 1), 1);
        t.insert(VmId(3), 1);
        t.insert(VmId(3), 2);
    }

    #[test]
    fn table_reserved_pages_survive_emptying() {
        let mut t = VmTable::default();
        t.reserve_dense(2 * PAGE_IDS as u64);
        assert_eq!(t.allocated_pages(), 2);
        t.insert(VmId(0), 1);
        t.remove(VmId(0));
        // Pinned page stays allocated through an empty cycle; an
        // unpinned page does not.
        assert_eq!(t.allocated_pages(), 2);
        t.insert(VmId(3 * PAGE_IDS as u64), 2);
        assert_eq!(t.allocated_pages(), 3);
        t.remove(VmId(3 * PAGE_IDS as u64));
        assert_eq!(t.allocated_pages(), 2);
        assert_eq!(t.len(), 0);
    }

    /// Register `id` on host `id % 4` with its record.
    fn place(a: &mut VmArena, id: u64) {
        a.insert(VmId(id), (id % 4) as u32, Some(vm(id)));
    }

    fn record_id(a: &VmArena, id: u64) -> Option<u64> {
        a.entry(VmId(id))?.1.map(|v| v.id().0)
    }

    #[test]
    fn arena_insert_remove_and_slot_reuse() {
        let mut a = VmArena::default();
        place(&mut a, 1);
        place(&mut a, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(record_id(&a, 1), Some(1));
        assert_eq!(a.entry(VmId(2)).map(|(host, _)| host), Some(2));

        let (host, out) = a.remove(VmId(1)).unwrap();
        assert_eq!((host, out.unwrap().id()), (1, VmId(1)));
        assert_eq!(a.len(), 1);
        assert!(a.entry(VmId(1)).is_none());

        // The freed slot is re-used (LIFO) for the next insert: the slab
        // does not grow across a remove + insert.
        let slots = a.records.len();
        place(&mut a, 3);
        assert_eq!(a.len(), 2);
        assert_eq!(a.records.len(), slots);
        assert!(a.entry(VmId(1)).is_none());
        assert_eq!(record_id(&a, 3), Some(3));
    }

    #[test]
    fn arena_iterates_in_id_order_and_samples_in_placement_order() {
        let mut a = VmArena::default();
        for id in [5u64, 1, 9, 3] {
            place(&mut a, id);
        }
        let ids: Vec<u64> = a.entries().map(|(id, _, _)| id.0).collect();
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
        let mut a = VmArena::default();
        for id in 0..6u64 {
            place(&mut a, id);
        }
        a.remove(VmId(2)); // last live slot swaps into position 2
        a.remove(VmId(0));
        let sampled: Vec<u64> = a.sampled(usize::MAX).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![4, 1, 5, 3]);
        // Every remaining id still resolves.
        for id in [1u64, 3, 4, 5] {
            assert_eq!(record_id(&a, id), Some(id));
        }
        assert_eq!(a.remove(VmId(0)), None);
    }

    #[test]
    fn arena_entries_without_a_record_stay_out_of_the_record_list() {
        let mut a = VmArena::default();
        place(&mut a, 1);
        a.insert(VmId(2), 7, None);
        place(&mut a, 3);
        assert_eq!((a.len(), a.records()), (3, 2));
        assert_eq!(a.entry(VmId(2)), Some((7, None)));
        let sampled: Vec<u64> = a.sampled(usize::MAX).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![1, 3]);
        // Removing it leaves the record list as it was; its slot comes
        // back for a VM that has a record.
        assert_eq!(a.remove(VmId(2)), Some((7, None)));
        place(&mut a, 4);
        assert_eq!(a.records.len(), 3);
        a.remove(VmId(1));
        let sampled: Vec<u64> = a.sampled(usize::MAX).map(|v| v.id().0).collect();
        assert_eq!(sampled, vec![4, 3]);
    }

    #[test]
    fn arena_reserve_prevents_steady_state_growth() {
        let mut a = VmArena::default();
        a.reserve(1 << 16, 128);
        for id in 0..128u64 {
            place(&mut a, id);
        }
        let cap = a.records.capacity();
        for id in 0..1000u64 {
            a.remove(VmId(id % 128));
            place(&mut a, 128 + id);
            a.remove(VmId(128 + id));
            place(&mut a, id % 128);
        }
        assert_eq!(a.records.capacity(), cap);
        assert_eq!(a.len(), 128);
    }
}
