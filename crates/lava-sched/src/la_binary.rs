//! LA-Binary: the prior state of the art (Barbalho et al., MLSys 2023), as
//! re-implemented for comparison in §5.3 of the LAVA paper.
//!
//! LA predicts a VM's lifetime **once**, at creation, and classifies it as
//! short- or long-lived against a two-hour threshold. Each host's lifetime
//! class is the class implied by the longest *initially predicted* remaining
//! time of any VM on it — predictions are never updated, which is exactly
//! the weakness LAVA attacks. Placement prefers a host of the same class
//! (using Best Fit within the class), then any suitable host, then an empty
//! host.

use crate::cluster::Cluster;
use crate::policy::PlacementPolicy;
use crate::scoring::{best_fit_score, ScoreVector};
use lava_core::host::{Host, HostId};
use lava_core::time::{Duration, SimTime};
use lava_core::vm::Vm;
use lava_model::predictor::LifetimePredictor;
use std::sync::Arc;

/// Configuration for [`LaBinaryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaBinaryConfig {
    /// The short/long classification threshold (the LA paper uses 2 hours).
    pub threshold: Duration,
}

impl Default for LaBinaryConfig {
    fn default() -> Self {
        LaBinaryConfig {
            threshold: Duration::from_hours(2),
        }
    }
}

/// The LA-Binary placement policy.
pub struct LaBinaryPolicy {
    predictor: Arc<dyn LifetimePredictor>,
    config: LaBinaryConfig,
}

impl LaBinaryPolicy {
    /// Create the policy with the given one-shot predictor.
    pub fn new(predictor: Arc<dyn LifetimePredictor>, config: LaBinaryConfig) -> LaBinaryPolicy {
        LaBinaryPolicy { predictor, config }
    }

    /// Whether a predicted lifetime counts as long-lived.
    fn is_long(&self, lifetime: Duration) -> bool {
        lifetime > self.config.threshold
    }

    /// The binary class of a host, based on initial predictions only:
    /// `None` for an empty host, otherwise `Some(is_long)`.
    fn host_class(&self, cluster: &Cluster, host: &Host, now: SimTime) -> Option<bool> {
        if host.is_empty() {
            return None;
        }
        let exit = cluster.host_exit_time_initial(host, now);
        Some(self.is_long(exit.saturating_since(now)))
    }
}

impl PlacementPolicy for LaBinaryPolicy {
    fn name(&self) -> &'static str {
        "la-binary"
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        // One-shot prediction: reuse the initial prediction if the VM has
        // one, otherwise predict now and treat it as the VM's fixed
        // lifetime.
        let predicted = vm
            .initial_prediction()
            .unwrap_or_else(|| self.predictor.predict_remaining(vm, now));
        let vm_long = self.is_long(predicted);

        crate::baseline::argmin_host(cluster, vm, exclude, |host| {
            let preference = match self.host_class(cluster, host, now) {
                Some(class) if class == vm_long => 0.0, // same lifetime class
                Some(_) => 1.0,                         // other suitable host
                None => 2.0,                            // previously empty host
            };
            ScoreVector::new([preference, best_fit_score(host, vm.resources())])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::HostSpec;
    use lava_core::resources::Resources;
    use lava_core::vm::{VmId, VmSpec};
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

    fn placed_vm(c: &mut Cluster, id: u64, hours: u64, host: HostId, predicted_hours: u64) {
        let mut v = vm(id, hours);
        v.set_initial_prediction(Duration::from_hours(predicted_hours));
        c.place(v, host).unwrap();
    }

    fn policy() -> LaBinaryPolicy {
        LaBinaryPolicy::new(Arc::new(OraclePredictor::new()), LaBinaryConfig::default())
    }

    #[test]
    fn prefers_host_of_same_class() {
        let mut c = cluster();
        placed_vm(&mut c, 1, 100, HostId(0), 100); // long host
        placed_vm(&mut c, 2, 1, HostId(1), 1); // short host
        let mut p = policy();

        // A long-lived VM goes to the long host.
        let long_vm = vm(10, 50);
        assert_eq!(
            p.choose_host(&c, &long_vm, SimTime::ZERO, None),
            Some(HostId(0))
        );
        // A short-lived VM goes to the short host.
        let short_vm = vm(11, 1);
        assert_eq!(
            p.choose_host(&c, &short_vm, SimTime::ZERO, None),
            Some(HostId(1))
        );
        assert_eq!(p.name(), "la-binary");
    }

    #[test]
    fn empty_host_is_last_resort() {
        let mut c = cluster();
        placed_vm(&mut c, 1, 1, HostId(0), 1); // short host only
        let mut p = policy();
        let long_vm = vm(10, 50);
        // No long host exists: prefer the mismatched non-empty host over an
        // empty one.
        assert_eq!(
            p.choose_host(&c, &long_vm, SimTime::ZERO, None),
            Some(HostId(0))
        );
    }

    #[test]
    fn does_not_correct_mispredictions() {
        let mut c = cluster();
        // VM 1 was predicted to live 1h but actually lives 100h. At t=50h it
        // is still running, yet LA still believes the host frees up at 1h
        // and therefore classifies the host as short.
        placed_vm(&mut c, 1, 100, HostId(0), 1);
        let mut p = policy();
        let now = SimTime::ZERO + Duration::from_hours(50);

        let mut short_vm = Vm::new(
            VmId(10),
            VmSpec::builder(Resources::cores_gib(4, 16)).build(),
            now,
            Duration::from_hours(1),
        );
        short_vm.set_initial_prediction(Duration::from_hours(1));
        // The mispredicted host is still treated as a "short" host.
        assert_eq!(p.choose_host(&c, &short_vm, now, None), Some(HostId(0)));
    }

    #[test]
    fn falls_back_to_empty_host_when_nothing_else_fits() {
        let c = cluster();
        let mut p = policy();
        assert_eq!(
            p.choose_host(&c, &vm(1, 1), SimTime::ZERO, None),
            Some(HostId(0))
        );
    }
}
