//! The scheduler driver: the mini-Borg Prime loop that ties a cluster, a
//! placement policy and a lifetime predictor together.
//!
//! The driver is what the simulator (and the examples) talk to: it records
//! the initial prediction on every VM, asks the policy for a host, applies
//! the placement, and routes exit events and periodic ticks to the policy.

use crate::cluster::Cluster;
use crate::policy::{PlacementPolicy, ScheduleError};
use lava_core::cell::{CellId, CellSummary};
use lava_core::error::CoreError;
use lava_core::host::HostId;
use lava_core::time::SimTime;
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Counters describing what the scheduler did; consumed by the simulator's
/// metric collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// VMs successfully placed.
    pub placed: u64,
    /// VM placement requests that found no feasible host.
    pub failed: u64,
    /// VM exits processed.
    pub exited: u64,
    /// Live migrations performed (always 0: nothing migrates). Stays
    /// because `bench/` reads it and the golden digests fold it, until
    /// ROADMAP item (f) shrinks the benchmark's frozen surface.
    pub migrations: u64,
}

/// The deterministic size of one placement decision's work, captured from
/// cluster state at decision time.
///
/// The serving tier converts this into a virtual service time (its latency
/// model): using measured wall-clock time would make replays
/// machine-dependent, while host and live-VM counts are bit-reproducible
/// and are what candidate generation and scoring actually scale with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCost {
    /// Hosts in the cluster at decision time.
    pub hosts: usize,
    /// Live VMs in the cluster at decision time.
    pub live_vms: usize,
}

/// One scheduler action, emitted on the scheduler's event stream when event
/// logging is enabled (see [`Scheduler::enable_event_log`]).
///
/// The stream is how external observers (the `lava-sim` experiment loop's
/// `SimObserver`s) learn about placements, rejections and exits without
/// the scheduler knowing anything about metric collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A VM was placed on a host.
    Placed {
        /// The placed VM.
        vm: VmId,
        /// The chosen host.
        host: HostId,
        /// When the placement happened.
        at: SimTime,
    },
    /// A VM placement request found no feasible host.
    Rejected {
        /// The VM that could not be placed.
        vm: VmId,
        /// When the request was rejected.
        at: SimTime,
    },
    /// A VM exited from a host.
    Exited {
        /// The VM that exited.
        vm: VmId,
        /// The host it was on.
        host: HostId,
        /// When the exit was processed.
        at: SimTime,
    },
}

/// A bounded window of observed misprediction residuals: for each VM exit
/// the scheduler compares the scheduling-time total-lifetime prediction
/// against the lifetime actually observed (exit time − creation time) and
/// records the signed log10 residual `log10(observed) − log10(predicted)`.
///
/// Two consumers read it:
///
/// * **model health** — the mean *absolute* residual over the window (kept
///   as a running sum, O(1) per exit), pushed to the policy via
///   [`PlacementPolicy::on_model_health`] and surfaced on
///   [`CellSummary::misprediction_log10`] for misprediction-aware routing;
/// * **recalibration** — [`ModelHealth::take_residuals`] drains the signed
///   residuals so an online recalibrator can fit a correction against
///   observations made *since its last fit* (draining prevents one biased
///   era from being corrected twice).
#[derive(Debug, Default)]
pub struct ModelHealth {
    residuals: std::collections::VecDeque<f64>,
    abs_sum: f64,
}

impl ModelHealth {
    /// Window size: enough exits to average over, small enough that the
    /// health signal tracks a mid-run model swap within a few thousand
    /// simulated seconds at production exit rates.
    pub const WINDOW: usize = 256;

    fn observe(&mut self, residual: f64) {
        if !residual.is_finite() {
            return;
        }
        if self.residuals.len() == Self::WINDOW {
            if let Some(old) = self.residuals.pop_front() {
                self.abs_sum -= old.abs();
            }
        }
        self.residuals.push_back(residual);
        self.abs_sum += residual.abs();
    }

    /// Mean absolute log10 error over the window (0 when empty).
    pub fn mean_abs_error(&self) -> f64 {
        if self.residuals.is_empty() {
            0.0
        } else {
            // Guard against accumulated floating-point drift going
            // fractionally negative on an all-zero window.
            (self.abs_sum / self.residuals.len() as f64).max(0.0)
        }
    }

    /// Number of residuals currently in the window.
    pub fn len(&self) -> usize {
        self.residuals.len()
    }

    /// Whether no exits have been observed yet.
    pub fn is_empty(&self) -> bool {
        self.residuals.is_empty()
    }

    /// Drain the signed residuals (oldest first), resetting the window.
    pub fn take_residuals(&mut self) -> Vec<f64> {
        self.abs_sum = 0.0;
        self.residuals.drain(..).collect()
    }
}

/// The scheduling driver.
pub struct Scheduler {
    cluster: Cluster,
    policy: Box<dyn PlacementPolicy>,
    predictor: Arc<dyn LifetimePredictor>,
    stats: SchedulerStats,
    /// Event stream buffer; populated only while event logging is enabled
    /// so the hot path stays allocation-free by default.
    events: Vec<SchedulerEvent>,
    log_events: bool,
    /// Misprediction observations from exited VMs.
    model_health: ModelHealth,
}

impl Scheduler {
    /// Create a scheduler over a cluster with the given policy and
    /// predictor. A lifetime-aware policy should be built around the same
    /// predictor: when it places an arriving VM it uses the prediction
    /// this scheduler recorded for it rather than asking its own.
    pub fn new(
        cluster: Cluster,
        policy: Box<dyn PlacementPolicy>,
        predictor: Arc<dyn LifetimePredictor>,
    ) -> Scheduler {
        Scheduler {
            cluster,
            policy,
            predictor,
            stats: SchedulerStats::default(),
            events: Vec::new(),
            log_events: false,
            model_health: ModelHealth::default(),
        }
    }

    /// Start recording [`SchedulerEvent`]s. Events accumulate until drained
    /// with [`Scheduler::swap_events`]; logging is off by default so plain
    /// scheduling pays no bookkeeping cost.
    pub fn enable_event_log(&mut self) {
        self.log_events = true;
    }

    /// Drain the recorded events by swapping them into `buffer` (which must
    /// be empty). Callers that drain once per trace event reuse one scratch
    /// buffer this way, keeping the replay loop allocation-free in steady
    /// state.
    pub fn swap_events(&mut self, buffer: &mut Vec<SchedulerEvent>) {
        debug_assert!(buffer.is_empty(), "swap_events expects a drained buffer");
        std::mem::swap(&mut self.events, buffer);
    }

    fn record(&mut self, event: SchedulerEvent) {
        if self.log_events {
            self.events.push(event);
        }
    }

    /// The cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the cluster state (used by the defragmentation
    /// simulator to mark hosts unavailable).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Replace the placement policy mid-run.
    ///
    /// Used by the simulator to model the production rollout: VMs placed
    /// during warm-up use the lifetime-agnostic baseline, after which the
    /// evaluated algorithm takes over (Appendix F / G.2).
    pub fn set_policy(&mut self, policy: Box<dyn PlacementPolicy>) {
        self.policy = policy;
    }

    /// The predictor in use.
    pub fn predictor(&self) -> &Arc<dyn LifetimePredictor> {
        &self.predictor
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Extract a bounded-staleness [`CellSummary`] of this scheduler's
    /// cluster, as consumed by a fleet routing tier.
    ///
    /// The capacity figures come straight from the pool's O(1)
    /// incremental aggregates; the predicted exit-time profile repredicts
    /// a deterministic **sample** of at most `sample_cap` live VMs (every
    /// ⌈n/cap⌉-th VM in placement order, via `Cluster::sampled_vms`)
    /// through this scheduler's predictor. Extraction is therefore
    /// O(cap), not O(cell size) — it runs once per cell per refresh epoch
    /// on the fleet hot path. Deterministic: the same placement/removal
    /// history always yields the same summary.
    pub fn cell_summary(&self, cell: CellId, now: SimTime, sample_cap: usize) -> CellSummary {
        let pool = self.cluster.pool();
        let live_vms = self.cluster.vm_count();
        let mut mean_predicted_exit = now;
        if live_vms > 0 && sample_cap > 0 {
            let mut sum: u128 = 0;
            let mut count: u64 = 0;
            for vm in self.cluster.sampled_vms(sample_cap) {
                let exit = now + self.predictor.predict_remaining(vm, now);
                sum += exit.as_secs() as u128;
                count += 1;
            }
            if count > 0 {
                mean_predicted_exit = SimTime((sum / count as u128) as u64);
            }
        }
        CellSummary {
            cell,
            as_of: now,
            hosts: pool.host_count(),
            empty_hosts: pool.empty_host_count(),
            capacity: pool.total_capacity(),
            free: pool.total_free(),
            live_vms,
            mean_predicted_exit,
            misprediction_log10: self.model_health.mean_abs_error(),
        }
    }

    /// Schedule a new VM at `now`.
    ///
    /// Predicts the VM once and records that on the VM record (a VM is
    /// scheduled at the instant it is created, and lifetime-aware policies
    /// deciding at that instant read the prediction back instead of asking
    /// the predictor again), asks the policy for a host, and applies the
    /// placement.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoFeasibleHost`] if no host can fit the VM,
    /// or a wrapped bookkeeping error.
    pub fn schedule(&mut self, mut vm: Vm, now: SimTime) -> Result<HostId, ScheduleError> {
        let prediction = self.predictor.predict_remaining(&vm, now);
        vm.set_initial_prediction(prediction);
        let vm_id = vm.id();
        let Some(host) = self.policy.choose_host(&self.cluster, &vm, now, None) else {
            self.stats.failed += 1;
            self.record(SchedulerEvent::Rejected { vm: vm_id, at: now });
            return Err(ScheduleError::NoFeasibleHost { vm: vm_id });
        };
        self.cluster.place(vm, host)?;
        self.policy
            .on_vm_placed(&mut self.cluster, vm_id, host, now);
        self.stats.placed += 1;
        self.record(SchedulerEvent::Placed {
            vm: vm_id,
            host,
            at: now,
        });
        Ok(host)
    }

    /// Schedule a new VM at `now`, also reporting the [`DecisionCost`] of
    /// the decision — the deterministic size of the work the policy just
    /// did, captured from cluster state at decision time.
    ///
    /// The serving tier uses this as the service-time input for its
    /// virtual-clock latency model: wall-clock timing would make replays
    /// machine-dependent, whereas (host count, live-VM count) reproduces
    /// bit-identically and tracks how decision work actually scales.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scheduler::schedule`]; the cost is reported for
    /// rejected decisions too (a "no feasible host" answer still cost a
    /// candidate scan).
    pub fn schedule_costed(
        &mut self,
        vm: Vm,
        now: SimTime,
    ) -> (Result<HostId, ScheduleError>, DecisionCost) {
        let cost = DecisionCost {
            hosts: self.cluster.pool().host_count(),
            live_vms: self.cluster.vm_count(),
        };
        (self.schedule(vm, now), cost)
    }

    /// Process a VM exit at `now`. Returns the host it was on.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VmNotFound`] if the VM is not live (e.g. its
    /// creation was rejected earlier).
    pub fn exit(&mut self, vm: VmId, now: SimTime) -> Result<HostId, CoreError> {
        let (record, host) = self.cluster.remove(vm)?;
        if let Some(predicted) = record.initial_prediction() {
            // Observed lifetime is "however long it actually ran" — honest
            // even for VMs killed early by an incident, which *is* a
            // misprediction from the model's point of view.
            let observed = record.uptime(now);
            let residual = observed.log10_secs() - predicted.log10_secs();
            self.model_health.observe(residual);
            self.policy
                .on_model_health(self.model_health.mean_abs_error(), self.model_health.len());
        }
        self.policy.on_vm_exited(&mut self.cluster, host, now);
        self.stats.exited += 1;
        self.record(SchedulerEvent::Exited { vm, host, at: now });
        Ok(host)
    }

    /// The scheduler's current model-health window: `(mean absolute log10
    /// misprediction error, number of observed exits in the window)`.
    pub fn model_health(&self) -> (f64, usize) {
        (self.model_health.mean_abs_error(), self.model_health.len())
    }

    /// Drain the signed log10 misprediction residuals accumulated since the
    /// last drain (oldest first). Used by the simulation's online
    /// recalibrator to fit a correction from fresh observations only.
    pub fn take_model_residuals(&mut self) -> Vec<f64> {
        self.model_health.take_residuals()
    }

    /// Periodic tick: lets the policy run deadline-based corrections.
    pub fn tick(&mut self, now: SimTime) {
        self.policy.on_tick(&mut self.cluster, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::WasteMinimizationPolicy;
    use lava_core::host::HostSpec;
    use lava_core::resources::Resources;
    use lava_core::time::Duration;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;

    fn scheduler(policy: Box<dyn PlacementPolicy>) -> Scheduler {
        let cluster = Cluster::with_uniform_hosts(4, HostSpec::new(Resources::cores_gib(32, 128)));
        Scheduler::new(cluster, policy, Arc::new(OraclePredictor::new()))
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
    fn schedule_and_exit_lifecycle() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        let host = s.schedule(vm(1, 5), SimTime::ZERO).unwrap();
        assert_eq!(s.cluster().vm_count(), 1);
        assert_eq!(
            s.cluster().vm(VmId(1)).unwrap().initial_prediction(),
            Some(Duration::from_hours(5))
        );
        let exited_from = s
            .exit(VmId(1), SimTime::ZERO + Duration::from_hours(5))
            .unwrap();
        assert_eq!(exited_from, host);
        assert_eq!(s.cluster().vm_count(), 0);
        let stats = s.stats();
        assert_eq!(stats.placed, 1);
        assert_eq!(stats.exited, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(s.policy_name(), "waste-min");
    }

    #[test]
    fn schedule_failure_counts() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        let huge = Vm::new(
            VmId(9),
            VmSpec::builder(Resources::cores_gib(128, 512)).build(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        let err = s.schedule(huge, SimTime::ZERO).unwrap_err();
        assert_eq!(err, ScheduleError::NoFeasibleHost { vm: VmId(9) });
        assert_eq!(s.stats().failed, 1);
    }

    #[test]
    fn exit_unknown_vm_errors() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        assert!(s.exit(VmId(5), SimTime::ZERO).is_err());
    }

    #[test]
    fn event_log_records_lifecycle_when_enabled() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        let mut events = Vec::new();
        // Disabled by default: nothing is recorded.
        s.schedule(vm(1, 5), SimTime::ZERO).unwrap();
        s.swap_events(&mut events);
        assert!(events.is_empty());

        s.enable_event_log();
        let host = s.schedule(vm(2, 5), SimTime::ZERO).unwrap();
        let exit_at = SimTime::ZERO + Duration::from_hours(5);
        s.exit(VmId(2), exit_at).unwrap();
        let huge = Vm::new(
            VmId(3),
            VmSpec::builder(Resources::cores_gib(128, 512)).build(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        let _ = s.schedule(huge, exit_at);
        s.swap_events(&mut events);
        assert_eq!(
            events,
            vec![
                SchedulerEvent::Placed {
                    vm: VmId(2),
                    host,
                    at: SimTime::ZERO
                },
                SchedulerEvent::Exited {
                    vm: VmId(2),
                    host,
                    at: exit_at
                },
                SchedulerEvent::Rejected {
                    vm: VmId(3),
                    at: exit_at
                },
            ]
        );
        // Draining resets the buffer.
        events.clear();
        s.swap_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn predictor_accessor_returns_shared_instance() {
        let s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        assert_eq!(s.predictor().name(), "oracle");
    }

    #[test]
    fn schedule_costed_reports_decision_time_state() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        let (placed, cost) = s.schedule_costed(vm(1, 4), SimTime::ZERO);
        assert!(placed.is_ok());
        assert_eq!(
            cost,
            DecisionCost {
                hosts: 4,
                live_vms: 0
            }
        );

        // The second decision sees the first VM live.
        let (placed, cost) = s.schedule_costed(vm(2, 4), SimTime::ZERO);
        assert!(placed.is_ok());
        assert_eq!(
            cost,
            DecisionCost {
                hosts: 4,
                live_vms: 1
            }
        );

        // Cost is reported for rejected decisions too.
        let huge = Vm::new(
            VmId(3),
            VmSpec::builder(Resources::cores_gib(1000, 4000)).build(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        let (placed, cost) = s.schedule_costed(huge, SimTime::ZERO);
        assert!(placed.is_err());
        assert_eq!(cost.live_vms, 2);
    }

    #[test]
    fn cell_summary_reflects_cluster_state() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        let empty = s.cell_summary(CellId(2), SimTime::ZERO, 64);
        assert_eq!(empty.cell, CellId(2));
        assert_eq!(empty.hosts, 4);
        assert_eq!(empty.empty_hosts, 4);
        assert_eq!(empty.live_vms, 0);
        assert_eq!(empty.free, empty.capacity);
        assert_eq!(empty.mean_predicted_exit, SimTime::ZERO);

        s.schedule(vm(1, 4), SimTime::ZERO).unwrap();
        s.schedule(vm(2, 8), SimTime::ZERO).unwrap();
        let summary = s.cell_summary(CellId(2), SimTime::ZERO, 64);
        assert_eq!(summary.live_vms, 2);
        assert!(summary.empty_hosts < 4);
        assert!(summary.free.cpu_milli < summary.capacity.cpu_milli);
        // Oracle predictions: exits at 4h and 8h, mean 6h.
        assert_eq!(
            summary.mean_predicted_exit,
            SimTime::ZERO + Duration::from_hours(6)
        );
        assert_eq!(summary.as_of, SimTime::ZERO);
    }

    #[test]
    fn model_health_tracks_misprediction_on_exit() {
        let mut s = scheduler(Box::new(WasteMinimizationPolicy::new()));
        assert_eq!(s.model_health(), (0.0, 0));

        // Oracle prediction honoured exactly: zero residual.
        s.schedule(vm(1, 5), SimTime::ZERO).unwrap();
        s.exit(VmId(1), SimTime::ZERO + Duration::from_hours(5))
            .unwrap();
        let (error, samples) = s.model_health();
        assert_eq!(samples, 1);
        assert!(error.abs() < 1e-12, "on-time exit has zero residual");

        // A VM killed at 1/10th of its predicted lifetime is one decade of
        // log10 error.
        s.schedule(vm(2, 10), SimTime::ZERO).unwrap();
        s.exit(VmId(2), SimTime::ZERO + Duration::from_hours(1))
            .unwrap();
        let (error, samples) = s.model_health();
        assert_eq!(samples, 2);
        assert!((error - 0.5).abs() < 1e-9, "mean of 0 and 1.0, got {error}");

        // The summary surfaces the same figure, and draining resets it.
        let summary = s.cell_summary(CellId(0), SimTime::ZERO, 64);
        assert!((summary.misprediction_log10 - error).abs() < 1e-12);
        let residuals = s.take_model_residuals();
        assert_eq!(residuals.len(), 2);
        assert!((residuals[1] + 1.0).abs() < 1e-9, "signed, oldest first");
        assert_eq!(s.model_health(), (0.0, 0));
    }

    #[test]
    fn model_health_window_is_bounded() {
        let mut health = ModelHealth::default();
        for _ in 0..ModelHealth::WINDOW {
            health.observe(2.0);
        }
        assert_eq!(health.len(), ModelHealth::WINDOW);
        assert!((health.mean_abs_error() - 2.0).abs() < 1e-9);
        // New observations evict the oldest; non-finite ones are dropped.
        health.observe(f64::NAN);
        health.observe(f64::INFINITY);
        assert_eq!(health.len(), ModelHealth::WINDOW);
        for _ in 0..ModelHealth::WINDOW {
            health.observe(0.0);
        }
        assert_eq!(health.len(), ModelHealth::WINDOW);
        assert_eq!(health.mean_abs_error(), 0.0);
    }

    #[test]
    fn cell_summary_sampling_is_deterministic_and_bounded() {
        let cluster = Cluster::with_uniform_hosts(64, HostSpec::new(Resources::cores_gib(64, 256)));
        let mut s = Scheduler::new(
            cluster,
            Box::new(WasteMinimizationPolicy::new()),
            Arc::new(OraclePredictor::new()),
        );
        for i in 0..200u64 {
            s.schedule(vm(i, 1 + i % 50), SimTime::ZERO).unwrap();
        }
        // A capped sample still yields a stable profile, identical across
        // calls on identical state.
        let a = s.cell_summary(CellId(0), SimTime::ZERO, 16);
        let b = s.cell_summary(CellId(0), SimTime::ZERO, 16);
        assert_eq!(a, b);
        let full = s.cell_summary(CellId(0), SimTime::ZERO, usize::MAX);
        // Both profiles land inside the lifetime range.
        for summary in [a, full] {
            assert!(summary.mean_predicted_exit > SimTime::ZERO);
            assert!(summary.mean_predicted_exit <= SimTime::ZERO + Duration::from_hours(50));
        }
    }
}
