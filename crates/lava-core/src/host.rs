//! Hosts: capacity, occupancy bookkeeping and the LAVA host state machine.
//!
//! A [`Host`] tracks which VMs are placed on it and how much of its capacity
//! they reserve. It also carries the per-host state required by the LAVA
//! algorithm (§4.3): a lifetime class, the *empty / open / recycling* state,
//! the set of *residual* VMs (those present when the host last changed
//! class/state) and a deadline after which an under-prediction is assumed.

use crate::error::CoreError;
use crate::lifetime::LifetimeClass;
use crate::resources::Resources;
use crate::time::SimTime;
use crate::vm::VmId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a host within a pool.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HostId(pub u64);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host-{}", self.0)
    }
}

/// Static description of a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HostSpec {
    capacity: Resources,
}

impl HostSpec {
    /// Create a host spec with the given total capacity.
    pub fn new(capacity: Resources) -> HostSpec {
        HostSpec { capacity }
    }

    /// Total capacity of the host.
    #[inline]
    pub fn capacity(&self) -> Resources {
        self.capacity
    }
}

/// LAVA host lifetime state (§4.3, mirroring LLAMA's page states).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default, PartialOrd, Ord,
)]
pub enum HostLifetimeState {
    /// No VMs and no assigned lifetime class.
    #[default]
    Empty,
    /// The host accepts VMs of its own lifetime class.
    Open,
    /// The host is being drained: it only accepts VMs of a strictly lower
    /// lifetime class.
    Recycling,
}

impl fmt::Display for HostLifetimeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostLifetimeState::Empty => write!(f, "empty"),
            HostLifetimeState::Open => write!(f, "open"),
            HostLifetimeState::Recycling => write!(f, "recycling"),
        }
    }
}

/// A host with occupancy bookkeeping and LAVA state.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    id: HostId,
    spec: HostSpec,
    used: Resources,
    /// Resources reserved per VM, as a dense id-sorted list: iteration
    /// order stays deterministic (ascending id, like the `BTreeMap` this
    /// replaced) while the per-host VM walk — the unit of work for exit
    /// -time recomputes and defrag candidate scoring — is one contiguous
    /// scan instead of a pointer chase. Hosts hold tens of VMs, so the
    /// O(n) sorted insert is a short `memmove` within one cache line
    /// region.
    vms: Vec<(VmId, Resources)>,
    /// Whether the host is withheld from scheduling (defragmentation /
    /// maintenance in progress, §4.4).
    unavailable: bool,

    // --- LAVA per-host state (§4.3) ---
    state: HostLifetimeState,
    lifetime_class: Option<LifetimeClass>,
    /// VMs that were present when the host last (re-)entered a class; the
    /// host steps its class down when all of them have exited. Id-sorted
    /// for the same determinism/contiguity reasons as `vms`.
    residual_vms: Vec<VmId>,
    /// Deadline after which the host is assumed to be under-predicted and is
    /// bumped one class up.
    deadline: Option<SimTime>,
}

impl Host {
    /// Create a new, empty host.
    pub fn new(id: HostId, spec: HostSpec) -> Host {
        Host {
            id,
            spec,
            used: Resources::ZERO,
            vms: Vec::new(),
            unavailable: false,
            state: HostLifetimeState::Empty,
            lifetime_class: None,
            residual_vms: Vec::new(),
            deadline: None,
        }
    }

    /// The host identifier.
    #[inline]
    pub fn id(&self) -> HostId {
        self.id
    }

    /// The host's static spec.
    #[inline]
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> Resources {
        self.spec.capacity()
    }

    /// Resources currently reserved by VMs.
    #[inline]
    pub fn used(&self) -> Resources {
        self.used
    }

    /// Free (unreserved) resources.
    #[inline]
    pub fn free(&self) -> Resources {
        self.capacity().saturating_sub(&self.used)
    }

    /// Number of VMs on the host.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// True if the host has no VMs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Iterator over the VMs on the host and their reservations, in
    /// deterministic (id) order.
    pub fn vms(&self) -> impl Iterator<Item = (VmId, Resources)> + '_ {
        self.vms.iter().copied()
    }

    /// Ids of the VMs on the host, in deterministic order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.iter().map(|(id, _)| *id)
    }

    /// Position of `vm` in the sorted list, or the insertion point.
    #[inline]
    fn vm_idx(&self, vm: VmId) -> Result<usize, usize> {
        self.vms.binary_search_by_key(&vm, |(id, _)| *id)
    }

    /// Whether a VM with this id is on the host.
    #[inline]
    pub fn contains(&self, vm: VmId) -> bool {
        self.vm_idx(vm).is_ok()
    }

    /// The reservation of a specific VM, if present.
    #[inline]
    pub fn reservation(&self, vm: VmId) -> Option<Resources> {
        self.vm_idx(vm).ok().map(|i| self.vms[i].1)
    }

    /// True if `request` fits in the currently free resources and the host
    /// is available for scheduling.
    #[inline]
    pub fn can_fit(&self, request: Resources) -> bool {
        !self.unavailable && self.free().fits(&request)
    }

    /// The largest utilisation fraction across CPU and memory, in `[0, 1]`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.used.dominant_fraction_of(&self.capacity())
    }

    /// Place a VM reserving `request` resources (only the pool does).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientCapacity`] if the request does not
    /// fit and [`CoreError::DuplicateVm`] if the VM is already present.
    pub(crate) fn place(&mut self, vm: VmId, request: Resources) -> Result<(), CoreError> {
        let idx = match self.vm_idx(vm) {
            Ok(_) => return Err(CoreError::DuplicateVm { host: self.id, vm }),
            Err(idx) => idx,
        };
        if !self.free().fits(&request) {
            return Err(CoreError::InsufficientCapacity { host: self.id, vm });
        }
        self.used += request;
        self.vms.insert(idx, (vm, request));
        Ok(())
    }

    /// Remove a VM, releasing its reservation. Also drops it from the
    /// residual set. Only the pool calls this.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if the VM is not on this host.
    pub(crate) fn remove(&mut self, vm: VmId) -> Result<Resources, CoreError> {
        let idx = self.vm_idx(vm).map_err(|_| CoreError::VmNotFound { vm })?;
        let (_, request) = self.vms.remove(idx);
        self.used = self.used.saturating_sub(&request);
        if let Ok(r) = self.residual_vms.binary_search(&vm) {
            self.residual_vms.remove(r);
        }
        Ok(request)
    }

    /// Whether the host is withheld from scheduling.
    #[inline]
    pub fn is_unavailable(&self) -> bool {
        self.unavailable
    }

    /// Withhold or release the host for scheduling (defragmentation and
    /// maintenance mark hosts unavailable while they are drained).
    pub fn set_unavailable(&mut self, unavailable: bool) {
        self.unavailable = unavailable;
    }

    // --- LAVA state machine accessors ---

    /// Current LAVA lifetime state.
    #[inline]
    pub fn lifetime_state(&self) -> HostLifetimeState {
        self.state
    }

    /// Current LAVA lifetime class, if the host has one.
    #[inline]
    pub fn lifetime_class(&self) -> Option<LifetimeClass> {
        self.lifetime_class
    }

    /// The deadline after which the host is considered under-predicted.
    #[inline]
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The residual VM ids (those present at the last class transition).
    pub fn residual_vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.residual_vms.iter().copied()
    }

    /// Number of residual VMs still running.
    #[inline]
    pub fn residual_count(&self) -> usize {
        self.residual_vms.len()
    }

    /// Open the host with a lifetime class (first VM placed on an empty
    /// host). The current VMs (if any) become residual.
    pub fn open_with_class(&mut self, class: LifetimeClass, deadline: SimTime) {
        self.state = HostLifetimeState::Open;
        self.lifetime_class = Some(class);
        self.deadline = Some(deadline);
        self.mark_all_residual();
    }

    /// Transition the host to the recycling state, keeping its class. The
    /// VMs currently on the host become the residual set.
    pub fn start_recycling(&mut self) {
        self.state = HostLifetimeState::Recycling;
        self.mark_all_residual();
    }

    /// Step the class down by one (all residual VMs exited, §4.3 / Fig. 5b).
    /// Remaining VMs become the new residual set.
    pub fn step_class_down(&mut self, new_deadline: SimTime) {
        if let Some(class) = self.lifetime_class {
            self.lifetime_class = Some(class.step_down());
        }
        self.deadline = Some(new_deadline);
        self.mark_all_residual();
    }

    /// Step the class up by one (deadline expired → misprediction,
    /// §4.3 / Fig. 5c). Remaining VMs become the new residual set.
    pub fn step_class_up(&mut self, new_deadline: SimTime) {
        if let Some(class) = self.lifetime_class {
            self.lifetime_class = Some(class.step_up());
        }
        self.deadline = Some(new_deadline);
        self.mark_all_residual();
    }

    /// Add a single VM to the residual set (used by LAVA when a VM of the
    /// host's own class is placed on an *open* host, so that the class only
    /// steps down once all same-class VMs have exited).
    pub fn mark_residual(&mut self, vm: VmId) {
        if self.contains(vm) {
            if let Err(idx) = self.residual_vms.binary_search(&vm) {
                self.residual_vms.insert(idx, vm);
            }
        }
    }

    /// Reset the host to the empty state (no VMs, no class). Intended to be
    /// called when the last VM exits.
    pub fn reset_lifetime_state(&mut self) {
        self.state = HostLifetimeState::Empty;
        self.lifetime_class = None;
        self.deadline = None;
        self.residual_vms.clear();
    }

    fn mark_all_residual(&mut self) {
        self.residual_vms.clear();
        self.residual_vms.extend(self.vms.iter().map(|(id, _)| *id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use proptest::prelude::*;

    fn host() -> Host {
        Host::new(HostId(1), HostSpec::new(Resources::cores_gib(32, 128)))
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let mut h = host();
        let r = Resources::cores_gib(8, 32);
        h.place(VmId(1), r).unwrap();
        assert_eq!(h.used(), r);
        assert_eq!(h.vm_count(), 1);
        assert!(h.contains(VmId(1)));
        assert_eq!(h.reservation(VmId(1)), Some(r));
        let released = h.remove(VmId(1)).unwrap();
        assert_eq!(released, r);
        assert!(h.is_empty());
        assert_eq!(h.used(), Resources::ZERO);
    }

    #[test]
    fn place_rejects_overcommit_and_duplicates() {
        let mut h = host();
        h.place(VmId(1), Resources::cores_gib(30, 100)).unwrap();
        assert_eq!(
            h.place(VmId(2), Resources::cores_gib(4, 8)),
            Err(CoreError::InsufficientCapacity {
                host: HostId(1),
                vm: VmId(2)
            })
        );
        assert_eq!(
            h.place(VmId(1), Resources::cores_gib(1, 1)),
            Err(CoreError::DuplicateVm {
                host: HostId(1),
                vm: VmId(1)
            })
        );
    }

    #[test]
    fn remove_missing_vm_errors() {
        let mut h = host();
        assert_eq!(
            h.remove(VmId(7)),
            Err(CoreError::VmNotFound { vm: VmId(7) })
        );
    }

    #[test]
    fn unavailable_hosts_reject_fits() {
        let mut h = host();
        assert!(h.can_fit(Resources::cores_gib(1, 1)));
        h.set_unavailable(true);
        assert!(!h.can_fit(Resources::cores_gib(1, 1)));
        assert!(h.is_unavailable());
        h.set_unavailable(false);
        assert!(h.can_fit(Resources::cores_gib(1, 1)));
    }

    #[test]
    fn utilization_tracks_dominant_dimension() {
        let mut h = host();
        h.place(VmId(1), Resources::cores_gib(16, 32)).unwrap();
        // CPU at 50%, memory at 25% → dominant 0.5.
        assert!((h.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lava_state_machine_transitions() {
        let mut h = host();
        assert_eq!(h.lifetime_state(), HostLifetimeState::Empty);
        assert_eq!(h.lifetime_class(), None);

        h.place(VmId(1), Resources::cores_gib(4, 16)).unwrap();
        let deadline = SimTime::ZERO + Duration::from_hours(11);
        h.open_with_class(LifetimeClass::Lc2, deadline);
        assert_eq!(h.lifetime_state(), HostLifetimeState::Open);
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc2));
        assert_eq!(h.deadline(), Some(deadline));
        assert_eq!(h.residual_count(), 1);

        h.place(VmId(2), Resources::cores_gib(4, 16)).unwrap();
        h.start_recycling();
        assert_eq!(h.lifetime_state(), HostLifetimeState::Recycling);
        assert_eq!(h.residual_count(), 2);

        // Residual VM exits are tracked through remove().
        h.remove(VmId(1)).unwrap();
        assert_eq!(h.residual_count(), 1);
        h.remove(VmId(2)).unwrap();
        assert_eq!(h.residual_count(), 0);

        h.reset_lifetime_state();
        assert_eq!(h.lifetime_state(), HostLifetimeState::Empty);
        assert_eq!(h.lifetime_class(), None);
        assert_eq!(h.deadline(), None);
    }

    #[test]
    fn class_stepping() {
        let mut h = host();
        h.place(VmId(1), Resources::cores_gib(4, 16)).unwrap();
        h.open_with_class(LifetimeClass::Lc3, SimTime(100));
        h.step_class_down(SimTime(200));
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc2));
        assert_eq!(h.deadline(), Some(SimTime(200)));
        h.step_class_up(SimTime(300));
        h.step_class_up(SimTime(400));
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc4));
        assert_eq!(h.deadline(), Some(SimTime(400)));
    }

    #[test]
    fn display_impls() {
        assert_eq!(HostId(2).to_string(), "host-2");
        assert_eq!(HostLifetimeState::Recycling.to_string(), "recycling");
    }

    proptest! {
        /// Accounting invariant: used + free == capacity and used equals the
        /// sum of reservations after any sequence of places and removes.
        #[test]
        fn prop_accounting_invariant(ops in proptest::collection::vec((0u64..20, 1u64..8, 1u64..32), 1..50)) {
            let mut h = Host::new(HostId(0), HostSpec::new(Resources::cores_gib(64, 256)));
            for (id, cores, mem) in ops {
                let vm = VmId(id);
                let r = Resources::cores_gib(cores, mem);
                if h.contains(vm) {
                    h.remove(vm).unwrap();
                } else if h.can_fit(r) {
                    h.place(vm, r).unwrap();
                }
                let sum: Resources = h.vms().map(|(_, r)| r).sum();
                prop_assert_eq!(sum, h.used());
                prop_assert_eq!(h.used() + h.free(), h.capacity());
            }
        }
    }
}
