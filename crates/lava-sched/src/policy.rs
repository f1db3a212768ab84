//! The placement-policy interface and the scheduling error type.
//!
//! Every algorithm in this crate (baseline, LA-Binary, NILAS, LAVA)
//! implements [`PlacementPolicy`]: given the cluster state and a VM request,
//! pick the best feasible host. Hooks notify the policy of placements,
//! exits and periodic ticks so that stateful algorithms (NILAS's score
//! cache, LAVA's host state machine) can update their bookkeeping.

use crate::cluster::Cluster;
use lava_core::error::CoreError;
use lava_core::host::HostId;
use lava_core::time::SimTime;
use lava_core::vm::{Vm, VmId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Cache-effort counters produced by an exit-time cache refresh pass,
/// absorbed into [`crate::nilas::NilasStats`] by the policies (hits are
/// counted by the candidate walk, which is what reads the entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Host exit times recomputed.
    pub misses: u64,
    /// Individual VM lifetime predictions issued.
    pub predictions: u64,
    /// Hosts a refresh pass looked at: the ones that changed since the
    /// last pass, the parked ones with CPU room for the request, and the
    /// ones whose entry expired.
    pub examined: u64,
}

/// When a lifetime-aware policy should stop trusting its model: once the
/// measured misprediction error crosses `threshold`, NILAS/LAVA zero their
/// temporal (exit-time) score terms and fall back toward best-fit — the
/// Theorem 1 regime, whose guarantee holds without lifetime knowledge. The
/// fallback is hysteretic: the policy re-engages the model once the error
/// drops below 80 % of the threshold, so a run hovering at the boundary
/// does not flap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackSpec {
    /// Mean absolute log10 misprediction error above which the policy
    /// degrades to best-fit (e.g. `0.5` = predictions off by ~3× on
    /// average).
    pub threshold: f64,
    /// Minimum number of observed exits before the measured error is
    /// trusted at all.
    pub min_samples: usize,
}

impl Default for FallbackSpec {
    fn default() -> FallbackSpec {
        FallbackSpec {
            threshold: 0.5,
            min_samples: 32,
        }
    }
}

impl FallbackSpec {
    /// Whether a policy with this spec should be degraded given the
    /// currently measured error, its previous degraded state (hysteresis)
    /// and the observation count.
    pub fn should_degrade(&self, error: f64, samples: usize, currently_degraded: bool) -> bool {
        if samples < self.min_samples {
            return false;
        }
        if currently_degraded {
            error >= self.threshold * 0.8
        } else {
            error >= self.threshold
        }
    }
}

/// A VM-to-host placement algorithm.
pub trait PlacementPolicy: Send {
    /// Short name used in reports and experiment output.
    fn name(&self) -> &'static str;

    /// Choose a host for `vm` among the feasible hosts of `cluster`,
    /// excluding `exclude`. Returns `None` if no feasible host exists.
    /// (Every shipped caller passes `None`; `exclude` stays because
    /// `bench/` implements this method, until ROADMAP item (f).)
    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId>;

    /// Called after `vm` has been placed on `host`.
    fn on_vm_placed(&mut self, _cluster: &mut Cluster, _vm: VmId, _host: HostId, _now: SimTime) {}

    /// Called after a VM has exited from `host`.
    fn on_vm_exited(&mut self, _cluster: &mut Cluster, _host: HostId, _now: SimTime) {}

    /// Called periodically by the simulator so that deadline-based state
    /// transitions (LAVA's misprediction detection) can run.
    fn on_tick(&mut self, _cluster: &mut Cluster, _now: SimTime) {}

    /// Called by the scheduler whenever its measured model health changes
    /// (after each observed exit): `error` is the mean absolute log10
    /// misprediction error over the scheduler's recent-exit window,
    /// `samples` the window's size. Policies with a [`FallbackSpec`] use
    /// this to degrade toward best-fit; the default implementation ignores
    /// model health entirely.
    fn on_model_health(&mut self, _error: f64, _samples: usize) {}
}

/// Errors returned by [`crate::scheduler::Scheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// No feasible host had enough free resources for the VM.
    NoFeasibleHost {
        /// The VM that could not be placed.
        vm: VmId,
    },
    /// A bookkeeping error occurred while applying the placement.
    Core(CoreError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoFeasibleHost { vm } => {
                write!(f, "no feasible host for vm {vm}")
            }
            ScheduleError::Core(e) => write!(f, "placement bookkeeping failed: {e}"),
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ScheduleError {
    fn from(e: CoreError) -> ScheduleError {
        ScheduleError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ScheduleError::NoFeasibleHost { vm: VmId(1) };
        assert!(e.to_string().contains("vm-1"));
        assert!(e.source().is_none());

        let core = CoreError::VmNotFound { vm: VmId(2) };
        let wrapped: ScheduleError = core.clone().into();
        assert_eq!(wrapped, ScheduleError::Core(core));
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScheduleError>();
    }

    #[test]
    fn fallback_spec_is_hysteretic_and_needs_samples() {
        let spec = FallbackSpec::default();
        assert_eq!(spec.threshold, 0.5);
        // Not enough samples: never degrade, whatever the error.
        assert!(!spec.should_degrade(10.0, spec.min_samples - 1, false));
        // Healthy model stays engaged below the threshold.
        assert!(!spec.should_degrade(0.49, spec.min_samples, false));
        assert!(spec.should_degrade(0.5, spec.min_samples, false));
        // Hysteresis: once degraded, recovery needs error < 0.8 × threshold.
        assert!(spec.should_degrade(0.45, spec.min_samples, true));
        assert!(!spec.should_degrade(0.39, spec.min_samples, true));
        // Round-trips through serde.
        let json = serde_json::to_string(&spec).unwrap();
        let back: FallbackSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
