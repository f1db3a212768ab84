//! VM specifications and runtime records.
//!
//! A [`VmSpec`] captures the request-time attributes of a VM — exactly the
//! features available to the lifetime model (Appendix A of the paper): the
//! resource shape, VM family, zone, category, metadata id, SSD attachment,
//! provisioning model, priority and admission policy. A [`Vm`] is the
//! runtime record the scheduler keeps: the spec plus creation time, the
//! ground-truth lifetime from the trace (used only by oracles and for
//! evaluation) and the scheduling-time prediction. Which host a live VM
//! is on is the pool registry's to say (`Pool::host_of`).

use crate::resources::Resources;
use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a VM within a trace / simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VmId(pub u64);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// VM product family (§2.2).
///
/// * `C2` — performance-optimised, slice-of-hardware: each VM gets a fixed
///   partition of the host's resources.
/// * `E2` — cost-optimised, dynamically sized: unused resources are shared,
///   so the scheduler reserves a configurable fraction of the nominal shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VmFamily {
    /// Performance-optimised, slice-of-hardware family.
    C2,
    /// Cost-optimised, dynamically sized family.
    E2,
}

impl VmFamily {
    /// All families.
    pub const ALL: [VmFamily; 2] = [VmFamily::C2, VmFamily::E2];
}

impl fmt::Display for VmFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmFamily::C2 => write!(f, "C2"),
            VmFamily::E2 => write!(f, "E2"),
        }
    }
}

/// Whether a VM is a preemptible spot instance or on-demand (Appendix A,
/// "Provisioning Model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ProvisioningModel {
    /// Standard on-demand VM.
    #[default]
    OnDemand,
    /// Preemptible spot VM.
    Spot,
}

impl fmt::Display for ProvisioningModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvisioningModel::OnDemand => write!(f, "on-demand"),
            ProvisioningModel::Spot => write!(f, "spot"),
        }
    }
}

/// Scheduling priority of a VM (Appendix A, "Priority").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum VmPriority {
    /// Low priority; may be preempted.
    Preemptible,
    /// Default production priority.
    #[default]
    Production,
    /// Elevated priority used by internal/system VMs.
    System,
}

impl fmt::Display for VmPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmPriority::Preemptible => write!(f, "preemptible"),
            VmPriority::Production => write!(f, "production"),
            VmPriority::System => write!(f, "system"),
        }
    }
}

/// Request-time attributes of a VM (the model features of Appendix A).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VmSpec {
    resources: Resources,
    family: VmFamily,
    /// Geographical zone the VM runs in (categorical, high cardinality).
    zone: u32,
    /// Internal VM categorisation tag (categorical, high cardinality).
    category: u32,
    /// Internal id grouping related VMs (categorical, high cardinality).
    metadata_id: u32,
    has_ssd: bool,
    provisioning: ProvisioningModel,
    priority: VmPriority,
    /// Whether the VM is admitted without a quota check (special VMs).
    admission_bypass: bool,
}

impl VmSpec {
    /// Start building a spec with the given resource shape.
    pub fn builder(resources: Resources) -> VmSpecBuilder {
        VmSpecBuilder {
            spec: VmSpec {
                resources,
                family: VmFamily::C2,
                zone: 0,
                category: 0,
                metadata_id: 0,
                has_ssd: resources.ssd_gib > 0,
                provisioning: ProvisioningModel::OnDemand,
                priority: VmPriority::Production,
                admission_bypass: false,
            },
        }
    }

    /// The resource shape requested by the VM.
    #[inline]
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// The VM product family.
    #[inline]
    pub fn family(&self) -> VmFamily {
        self.family
    }

    /// The zone the VM was requested in.
    #[inline]
    pub fn zone(&self) -> u32 {
        self.zone
    }

    /// The internal VM category tag.
    #[inline]
    pub fn category(&self) -> u32 {
        self.category
    }

    /// The internal metadata grouping id.
    #[inline]
    pub fn metadata_id(&self) -> u32 {
        self.metadata_id
    }

    /// Whether local SSD is attached.
    #[inline]
    pub fn has_ssd(&self) -> bool {
        self.has_ssd
    }

    /// On-demand vs spot.
    #[inline]
    pub fn provisioning(&self) -> ProvisioningModel {
        self.provisioning
    }

    /// Scheduling priority.
    #[inline]
    pub fn priority(&self) -> VmPriority {
        self.priority
    }

    /// Whether the VM bypasses quota admission (special VMs).
    #[inline]
    pub fn admission_bypass(&self) -> bool {
        self.admission_bypass
    }
}

/// Builder for [`VmSpec`].
#[derive(Debug, Clone)]
pub struct VmSpecBuilder {
    spec: VmSpec,
}

impl VmSpecBuilder {
    /// Set the VM family.
    pub fn family(mut self, family: VmFamily) -> Self {
        self.spec.family = family;
        self
    }

    /// Set the zone id.
    pub fn zone(mut self, zone: u32) -> Self {
        self.spec.zone = zone;
        self
    }

    /// Set the category tag.
    pub fn category(mut self, category: u32) -> Self {
        self.spec.category = category;
        self
    }

    /// Set the metadata grouping id.
    pub fn metadata_id(mut self, metadata_id: u32) -> Self {
        self.spec.metadata_id = metadata_id;
        self
    }

    /// Attach or detach local SSD.
    pub fn has_ssd(mut self, has_ssd: bool) -> Self {
        self.spec.has_ssd = has_ssd;
        self
    }

    /// Set the provisioning model.
    pub fn provisioning(mut self, provisioning: ProvisioningModel) -> Self {
        self.spec.provisioning = provisioning;
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, priority: VmPriority) -> Self {
        self.spec.priority = priority;
        self
    }

    /// Mark the VM as bypassing quota admission.
    pub fn admission_bypass(mut self, bypass: bool) -> Self {
        self.spec.admission_bypass = bypass;
        self
    }

    /// Finish building the spec.
    pub fn build(self) -> VmSpec {
        self.spec
    }
}

/// Runtime record of a VM, as tracked by the scheduler/simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    id: VmId,
    spec: VmSpec,
    created_at: SimTime,
    /// Ground-truth total lifetime from the trace. Only oracles and the
    /// evaluation harness may read this; learned predictors must not.
    actual_lifetime: Duration,
    /// The remaining-lifetime prediction made when the VM was scheduled.
    initial_prediction: Option<Duration>,
}

impl Vm {
    /// Create a runtime record for a VM created at `created_at` whose
    /// ground-truth lifetime (from the trace) is `actual_lifetime`.
    pub fn new(id: VmId, spec: VmSpec, created_at: SimTime, actual_lifetime: Duration) -> Vm {
        Vm {
            id,
            spec,
            created_at,
            actual_lifetime,
            initial_prediction: None,
        }
    }

    /// The VM's identifier.
    #[inline]
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The request-time spec.
    #[inline]
    pub fn spec(&self) -> &VmSpec {
        &self.spec
    }

    /// Shorthand for `spec().resources()`.
    #[inline]
    pub fn resources(&self) -> Resources {
        self.spec.resources()
    }

    /// When the VM was created.
    #[inline]
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Ground-truth lifetime (oracle/evaluation only).
    #[inline]
    pub fn actual_lifetime(&self) -> Duration {
        self.actual_lifetime
    }

    /// Ground-truth exit time (oracle/evaluation only).
    #[inline]
    pub fn actual_exit_time(&self) -> SimTime {
        self.created_at + self.actual_lifetime
    }

    /// How long the VM has been running at `now` (zero if `now` precedes the
    /// creation time).
    #[inline]
    pub fn uptime(&self, now: SimTime) -> Duration {
        now.saturating_since(self.created_at)
    }

    /// Ground-truth remaining lifetime at `now`, saturating at zero.
    #[inline]
    pub fn actual_remaining(&self, now: SimTime) -> Duration {
        self.actual_exit_time().saturating_since(now)
    }

    /// The prediction recorded when the VM was first scheduled, if any.
    #[inline]
    pub fn initial_prediction(&self) -> Option<Duration> {
        self.initial_prediction
    }

    /// The recorded prediction, if `now` is the instant it speaks for. The
    /// initial prediction is the remaining lifetime predicted when the VM
    /// was created (every consumer adds it to [`Vm::created_at`]), so at
    /// exactly that instant it is what the predictor would answer again,
    /// and a placement decision taken then need not ask. Any later
    /// decision gets `None` and repredicts.
    #[inline]
    pub fn initial_prediction_at(&self, now: SimTime) -> Option<Duration> {
        self.initial_prediction.filter(|_| now == self.created_at)
    }

    /// Record the scheduling-time prediction (first write wins).
    pub fn set_initial_prediction(&mut self, prediction: Duration) {
        if self.initial_prediction.is_none() {
            self.initial_prediction = Some(prediction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VmSpec {
        VmSpec::builder(Resources::cores_gib(4, 16))
            .family(VmFamily::E2)
            .zone(3)
            .category(7)
            .metadata_id(42)
            .provisioning(ProvisioningModel::Spot)
            .priority(VmPriority::Preemptible)
            .admission_bypass(true)
            .build()
    }

    #[test]
    fn builder_sets_all_fields() {
        let s = spec();
        assert_eq!(s.resources(), Resources::cores_gib(4, 16));
        assert_eq!(s.family(), VmFamily::E2);
        assert_eq!(s.zone(), 3);
        assert_eq!(s.category(), 7);
        assert_eq!(s.metadata_id(), 42);
        assert!(!s.has_ssd());
        assert_eq!(s.provisioning(), ProvisioningModel::Spot);
        assert_eq!(s.priority(), VmPriority::Preemptible);
        assert!(s.admission_bypass());
    }

    #[test]
    fn ssd_inferred_from_shape() {
        let s = VmSpec::builder(Resources::new(1000, 1024, 375)).build();
        assert!(s.has_ssd());
    }

    #[test]
    fn uptime_and_remaining() {
        let vm = Vm::new(VmId(1), spec(), SimTime(100), Duration::from_secs(1000));
        assert_eq!(vm.uptime(SimTime(50)), Duration::ZERO);
        assert_eq!(vm.uptime(SimTime(600)), Duration(500));
        assert_eq!(vm.actual_exit_time(), SimTime(1100));
        assert_eq!(vm.actual_remaining(SimTime(600)), Duration(500));
        assert_eq!(vm.actual_remaining(SimTime(2000)), Duration::ZERO);
    }

    #[test]
    fn initial_prediction_first_write_wins() {
        let mut vm = Vm::new(VmId(1), spec(), SimTime::ZERO, Duration::from_hours(1));
        assert_eq!(vm.initial_prediction(), None);
        vm.set_initial_prediction(Duration::from_hours(2));
        vm.set_initial_prediction(Duration::from_hours(9));
        assert_eq!(vm.initial_prediction(), Some(Duration::from_hours(2)));
        // Reusable only at the instant of creation.
        assert_eq!(
            vm.initial_prediction_at(vm.created_at()),
            Some(Duration::from_hours(2))
        );
        assert_eq!(vm.initial_prediction_at(SimTime(1)), None);
    }

    #[test]
    fn display_impls() {
        assert_eq!(VmId(3).to_string(), "vm-3");
        assert_eq!(VmFamily::C2.to_string(), "C2");
        assert_eq!(ProvisioningModel::Spot.to_string(), "spot");
        assert_eq!(VmPriority::System.to_string(), "system");
    }
}
