//! LAVA: Lifetime-Aware VM Allocation (§4.3).
//!
//! Where LA and NILAS place VMs with *similar* lifetimes together, LAVA does
//! the opposite: it fills gaps on hosts that already contain longer-lived
//! VMs with VMs that are at least one lifetime class (≥10×) shorter, so
//! placements never extend the time at which the host frees up — even when
//! predictions are somewhat wrong.
//!
//! Each host carries a lifetime class (LC1–LC4) and one of three states
//! (mirroring LLAMA's page states):
//!
//! * **empty** — no VMs, no class;
//! * **open** — accepts VMs of its own class; transitions to *recycling*
//!   once ≥ 90 % of CPU or memory is occupied;
//! * **recycling** — only accepts VMs of a strictly lower class.
//!
//! Misprediction handling: when all *residual* VMs (those present at the
//! last transition) have exited, the host's class steps **down** one level
//! (over-prediction recovery, Fig. 5b); when a host outlives its deadline
//! (1.1 × its class upper bound), its class steps **up** one level
//! (under-prediction recovery, Fig. 5c).
//!
//! Candidate ordering per Algorithm 3: recycling hosts with a higher class
//! (closest class first), then open hosts of the same class, then any
//! non-empty host, then empty hosts — ties broken by NILAS.
//!
//! A decision is NILAS's candidate walk (see [`crate::nilas`]) with the
//! class levels placed in front: each is a scan of one of the pool's
//! `(state, class)` buckets, and the walk returns at the **first level
//! containing a feasible host**. The last two levels are NILAS's own: the
//! occupied hosts in exit order, then one empty host per capacity shape
//! ([`NilasStats::empty_examined`] counts them). On a large pool a
//! placement usually touches a handful of hosts instead of all of them.
//! The score-everything enumeration it must agree with is the oracle of
//! `tests/scan_parity.rs`.

use crate::cluster::Cluster;
use crate::nilas::{NilasConfig, NilasPolicy, NilasStats};
use crate::policy::PlacementPolicy;
use lava_core::host::{HostId, HostLifetimeState};
use lava_core::lifetime::LifetimeClass;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use lava_model::predictor::LifetimePredictor;
use std::sync::Arc;

/// Utilisation (CPU or memory) at which an *open* host transitions to
/// *recycling* (paper: 90 %).
const RECYCLING_THRESHOLD: f64 = 0.9;

/// Slack multiplier applied to the class upper bound when setting host
/// deadlines (paper: 1.1×).
const DEADLINE_SLACK: f64 = 1.1;

/// The deadline of a host of `class` (re)classified at `now`.
fn deadline_for(class: LifetimeClass, now: SimTime) -> SimTime {
    let horizon = class.upper_bound().as_secs() as f64 * DEADLINE_SLACK;
    now + Duration::from_secs_f64(horizon)
}

/// Algorithm 3's class levels for a VM of class `vm_class`, most
/// preferred first: recycling hosts of each strictly higher class,
/// closest class first (each distance is its own sub-rank), then open
/// hosts of the VM's own class.
fn class_levels(
    vm_class: LifetimeClass,
) -> impl Iterator<Item = (HostLifetimeState, LifetimeClass)> {
    ((vm_class.index() + 1)..=4)
        .map(|idx| {
            let class = LifetimeClass::from_index_clamped(idx as i32);
            (HostLifetimeState::Recycling, class)
        })
        .chain(std::iter::once((HostLifetimeState::Open, vm_class)))
}

/// The LAVA placement policy.
pub struct LavaPolicy {
    /// The NILAS tie-breaker within each preference level (Algorithm 3's
    /// final line). It also holds the predictor, the configuration and
    /// whether the fallback has degraded the policy.
    nilas: NilasPolicy,
    /// Number of deadline-expiry (class-up) corrections applied.
    deadline_corrections: u64,
    /// Number of class-down steps applied after residual VMs exited.
    class_downgrades: u64,
}

impl LavaPolicy {
    /// Create the policy around the configuration of its NILAS
    /// tie-breaker.
    pub fn new(predictor: Arc<dyn LifetimePredictor>, config: NilasConfig) -> LavaPolicy {
        LavaPolicy {
            nilas: NilasPolicy::new(predictor, config),
            deadline_corrections: 0,
            class_downgrades: 0,
        }
    }

    /// Create the policy with default configuration.
    pub fn with_defaults(predictor: Arc<dyn LifetimePredictor>) -> LavaPolicy {
        LavaPolicy::new(predictor, NilasConfig::default())
    }

    /// Prediction/cache counters of the embedded NILAS tie-breaker.
    pub fn nilas_stats(&self) -> NilasStats {
        self.nilas.stats()
    }

    /// Number of deadline-expiry (under-prediction) corrections applied.
    pub fn deadline_corrections(&self) -> u64 {
        self.deadline_corrections
    }

    /// Number of class-down (over-prediction) steps applied.
    pub fn class_downgrades(&self) -> u64 {
        self.class_downgrades
    }

    /// Whether the policy is currently degraded to the best-fit regime.
    pub fn is_degraded(&self) -> bool {
        self.nilas.is_degraded()
    }

    /// The remaining lifetime of the VM being placed: the prediction the
    /// scheduler recorded if `now` is the instant it was made for (the
    /// VM's creation), a fresh one otherwise (callers that bypass the
    /// scheduler).
    fn vm_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
        vm.initial_prediction_at(now)
            .unwrap_or_else(|| self.nilas.predictor().predict_remaining(vm, now))
    }
}

impl PlacementPolicy for LavaPolicy {
    fn name(&self) -> &'static str {
        "lava"
    }

    /// Walk Algorithm 3's preference levels and return at the first level
    /// that contains a feasible host.
    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        let vm_remaining = self.vm_remaining(vm, now);
        let vm_class = LifetimeClass::from_lifetime(vm_remaining);
        let mut walk = self
            .nilas
            .walk(cluster, now + vm_remaining, vm.resources(), now, exclude);
        // While degraded the class levels are suppressed: every occupied
        // host ranks with every other and every empty host after them (the
        // only lifetime-agnostic distinction), so with the temporal cost
        // also zeroed the ranking collapses to occupied-first waste
        // minimisation.
        if !self.nilas.is_degraded() {
            let pool = cluster.pool();
            for (state, class) in class_levels(vm_class) {
                walk.scan(pool.hosts_in_state_class(state, Some(class)));
                if walk.found() {
                    return self.nilas.finish(walk);
                }
            }
        }
        // Any occupied host: a feasible host of the class levels would
        // have been returned above, so every one left ranks the same and
        // the level's order is NILAS's. Empty hosts are the last resort.
        walk.occupied();
        if !walk.found() {
            walk.empty();
        }
        self.nilas.finish(walk)
    }

    fn on_vm_placed(&mut self, cluster: &mut Cluster, vm: VmId, host_id: HostId, now: SimTime) {
        self.nilas.on_vm_placed(cluster, vm, host_id, now);
        // Determine the class of the placed VM from its recorded initial
        // prediction (set by the scheduler just before placement).
        let vm_class = cluster
            .vm(vm)
            .map(|record| {
                let remaining = record
                    .initial_prediction()
                    .unwrap_or_else(|| self.nilas.predictor().predict_remaining(record, now));
                LifetimeClass::from_lifetime(remaining)
            })
            .unwrap_or(LifetimeClass::Lc1);

        let deadline_same = deadline_for(vm_class, now);
        let Some(mut host) = cluster.host_mut(host_id) else {
            return;
        };
        match host.lifetime_state() {
            HostLifetimeState::Empty => {
                // First VM on an empty host: open it with the VM's class.
                host.open_with_class(vm_class, deadline_same);
            }
            HostLifetimeState::Open => {
                // Same-class VMs on an open host join the residual set so
                // the class only steps down when all of them have exited.
                if host.lifetime_class() == Some(vm_class) {
                    host.mark_residual(vm);
                }
                if host.utilization() >= RECYCLING_THRESHOLD {
                    host.start_recycling();
                }
            }
            HostLifetimeState::Recycling => {
                // Gap-filling VMs are strictly shorter-lived; they are not
                // residual.
            }
        }
    }

    fn on_vm_exited(&mut self, cluster: &mut Cluster, host_id: HostId, now: SimTime) {
        self.nilas.on_vm_exited(cluster, host_id, now);
        let Some(mut host) = cluster.host_mut(host_id) else {
            return;
        };
        if host.is_empty() {
            host.reset_lifetime_state();
            return;
        }
        if host.lifetime_state() == HostLifetimeState::Recycling && host.residual_count() == 0 {
            // All residual VMs exited: the remaining VMs are at least one
            // class shorter (Fig. 5b).
            let new_class = host
                .lifetime_class()
                .map(LifetimeClass::step_down)
                .unwrap_or(LifetimeClass::Lc1);
            let deadline = deadline_for(new_class, now);
            host.step_class_down(deadline);
            self.class_downgrades += 1;
        }
    }

    fn on_tick(&mut self, cluster: &mut Cluster, now: SimTime) {
        // Deadline expiry → under-prediction → bump the class up (Fig. 5c).
        let expired: Vec<HostId> = cluster
            .hosts()
            .filter(|h| !h.is_empty())
            .filter(|h| h.deadline().map(|d| d < now).unwrap_or(false))
            .map(|h| h.id())
            .collect();
        for id in expired {
            let new_class = cluster
                .host(id)
                .and_then(|h| h.lifetime_class())
                .map(LifetimeClass::step_up)
                .unwrap_or(LifetimeClass::Lc4);
            let deadline = deadline_for(new_class, now);
            if let Some(mut host) = cluster.host_mut(id) {
                host.step_class_up(deadline);
                self.deadline_corrections += 1;
            }
        }
    }

    fn on_model_health(&mut self, error: f64, samples: usize) {
        self.nilas.on_model_health(error, samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::HostSpec;
    use lava_core::resources::Resources;
    use lava_core::vm::VmSpec;
    use lava_model::predictor::OraclePredictor;

    fn cluster(hosts: usize) -> Cluster {
        Cluster::with_uniform_hosts(hosts, HostSpec::new(Resources::cores_gib(32, 128)))
    }

    fn vm_with(id: u64, hours: u64, cores: u64, created: SimTime) -> Vm {
        Vm::new(
            VmId(id),
            VmSpec::builder(Resources::cores_gib(cores, cores * 4)).build(),
            created,
            Duration::from_hours(hours),
        )
    }

    fn vm(id: u64, hours: u64) -> Vm {
        vm_with(id, hours, 4, SimTime::ZERO)
    }

    fn policy() -> LavaPolicy {
        LavaPolicy::with_defaults(Arc::new(OraclePredictor::new()))
    }

    /// Helper mimicking the scheduler: predict, place, notify.
    fn schedule(p: &mut LavaPolicy, c: &mut Cluster, mut v: Vm, now: SimTime) -> HostId {
        let pred = p.nilas.predictor().predict_remaining(&v, now);
        v.set_initial_prediction(pred);
        let host = p.choose_host(c, &v, now, None).expect("feasible host");
        let id = v.id();
        c.place(v, host).unwrap();
        p.on_vm_placed(c, id, host, now);
        host
    }

    fn exit(p: &mut LavaPolicy, c: &mut Cluster, vm: VmId, now: SimTime) {
        let (_, host) = c.remove(vm).unwrap();
        p.on_vm_exited(c, host, now);
    }

    #[test]
    fn first_vm_opens_host_with_its_class() {
        let mut c = cluster(2);
        let mut p = policy();
        let host = schedule(&mut p, &mut c, vm(1, 50), SimTime::ZERO); // LC3
        let h = c.host(host).unwrap();
        assert_eq!(h.lifetime_state(), HostLifetimeState::Open);
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc3));
        assert!(h.deadline().unwrap() > SimTime::ZERO + Duration::from_hours(100));
        assert_eq!(p.name(), "lava");
    }

    #[test]
    fn open_host_preferred_for_same_class_and_empty_hosts_avoided() {
        let mut c = cluster(3);
        let mut p = policy();
        let h0 = schedule(&mut p, &mut c, vm(1, 50), SimTime::ZERO); // LC3 open host
                                                                     // Another LC3 VM joins the same open host (preference level 1).
        let h1 = schedule(&mut p, &mut c, vm(2, 60), SimTime::ZERO);
        assert_eq!(h0, h1);
        // An LC1 VM has no recycling or matching open host; per Algorithm 3
        // it still prefers the non-empty host over opening an empty one.
        let h2 = schedule(&mut p, &mut c, vm(3, 0), SimTime::ZERO);
        assert_eq!(h2, h0);
        assert_eq!(c.pool().empty_host_count(), 2);
    }

    #[test]
    fn host_transitions_to_recycling_at_90_percent() {
        let mut c = cluster(2);
        let mut p = policy();
        // Each VM takes 8/32 cores = 25%; after 4 VMs utilisation is 100%,
        // crossing 90% on the 4th placement. Use 3 VMs → 75% (still open),
        // then a 6-core VM → ~94% (recycling).
        let mut host = HostId(0);
        for id in 1..=3 {
            host = schedule(
                &mut p,
                &mut c,
                vm_with(id, 50, 8, SimTime::ZERO),
                SimTime::ZERO,
            );
        }
        assert_eq!(
            c.host(host).unwrap().lifetime_state(),
            HostLifetimeState::Open
        );
        let h = schedule(
            &mut p,
            &mut c,
            vm_with(4, 50, 6, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(h, host);
        assert_eq!(
            c.host(host).unwrap().lifetime_state(),
            HostLifetimeState::Recycling
        );
        // All four same-class VMs are residual.
        assert_eq!(c.host(host).unwrap().residual_count(), 4);
    }

    /// Build an LC3 host and drive it into the recycling state: three
    /// 8-core VMs (75 %) then a 6-core VM (~94 % ≥ 90 %).
    fn build_recycling_host(p: &mut LavaPolicy, c: &mut Cluster) -> HostId {
        let mut host = HostId(0);
        for id in 1..=3 {
            host = schedule(p, c, vm_with(id, 50, 8, SimTime::ZERO), SimTime::ZERO);
        }
        let h = schedule(p, c, vm_with(4, 50, 6, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(h, host);
        host
    }

    #[test]
    fn recycling_host_preferred_for_shorter_vms() {
        let mut c = cluster(3);
        let mut p = policy();
        let host = build_recycling_host(&mut p, &mut c);
        assert_eq!(
            c.host(host).unwrap().lifetime_state(),
            HostLifetimeState::Recycling
        );
        // A short (LC1) VM prefers the recycling LC3 host over opening a new
        // one.
        let h = schedule(
            &mut p,
            &mut c,
            vm_with(10, 0, 2, SimTime::ZERO),
            SimTime::ZERO,
        );
        assert_eq!(h, host);
        // The gap-filling VM is not residual.
        assert_eq!(c.host(host).unwrap().residual_count(), 4);
    }

    #[test]
    fn class_steps_down_when_residuals_exit() {
        let mut c = cluster(3);
        let mut p = policy();
        let host = build_recycling_host(&mut p, &mut c);
        // Fill a gap with an LC1 VM.
        let now = SimTime::ZERO + Duration::from_hours(1);
        schedule(&mut p, &mut c, vm_with(10, 0, 2, now), now);
        assert_eq!(
            c.host(host).unwrap().lifetime_class(),
            Some(LifetimeClass::Lc3)
        );

        // All residual (LC3) VMs exit; the gap VM remains.
        let later = SimTime::ZERO + Duration::from_hours(50);
        for id in 1..=4 {
            exit(&mut p, &mut c, VmId(id), later);
        }
        let h = c.host(host).unwrap();
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc2));
        assert_eq!(h.residual_count(), 1, "remaining VM becomes residual");
        assert_eq!(p.class_downgrades(), 1);
    }

    #[test]
    fn deadline_expiry_bumps_class_up() {
        let mut c = cluster(2);
        let mut p = policy();
        // A 30-minute VM (LC1) — pretend it actually runs longer by ticking
        // past the deadline while it is still on the host.
        let short = Vm::new(
            VmId(1),
            VmSpec::builder(Resources::cores_gib(4, 16)).build(),
            SimTime::ZERO,
            Duration::from_mins(30),
        );
        let host = schedule(&mut p, &mut c, short, SimTime::ZERO);
        assert_eq!(
            c.host(host).unwrap().lifetime_class(),
            Some(LifetimeClass::Lc1)
        );
        let deadline = c.host(host).unwrap().deadline().unwrap();
        p.on_tick(&mut c, deadline + Duration::from_mins(5));
        let h = c.host(host).unwrap();
        assert_eq!(h.lifetime_class(), Some(LifetimeClass::Lc2));
        assert!(h.deadline().unwrap() > deadline);
        assert_eq!(p.deadline_corrections(), 1);
    }

    #[test]
    fn host_resets_when_emptied() {
        let mut c = cluster(1);
        let mut p = policy();
        let host = schedule(&mut p, &mut c, vm(1, 5), SimTime::ZERO);
        exit(
            &mut p,
            &mut c,
            VmId(1),
            SimTime::ZERO + Duration::from_hours(5),
        );
        let h = c.host(host).unwrap();
        assert_eq!(h.lifetime_state(), HostLifetimeState::Empty);
        assert_eq!(h.lifetime_class(), None);
        assert_eq!(h.deadline(), None);
    }

    #[test]
    fn empty_hosts_are_last_resort() {
        let mut c = cluster(3);
        let mut p = policy();
        // An occupied (open, same-class) host exists: prefer it to empties.
        let first = schedule(&mut p, &mut c, vm(1, 5), SimTime::ZERO);
        let second = schedule(&mut p, &mut c, vm(2, 6), SimTime::ZERO);
        assert_eq!(first, second);
        assert_eq!(c.pool().empty_host_count(), 2);
    }

    #[test]
    fn degraded_lava_ignores_lifetime_classes() {
        use crate::policy::FallbackSpec;
        let fallback_config = NilasConfig {
            fallback: Some(FallbackSpec {
                threshold: 0.5,
                min_samples: 1,
            }),
            ..NilasConfig::default()
        };
        let mut c = cluster(3);
        let mut p = LavaPolicy::new(Arc::new(OraclePredictor::new()), fallback_config);
        // A recycling LC3 host that a healthy LAVA prefers for short VMs.
        let recycling = build_recycling_host(&mut p, &mut c);
        // A second occupied host with more free room, placed directly so
        // healthy LAVA's gap-filling does not route it to the recycling
        // host.
        let other = HostId(1);
        assert_ne!(recycling, other);
        let mut second = vm_with(20, 50, 2, SimTime::ZERO);
        second.set_initial_prediction(Duration::from_hours(50));
        c.place(second, other).unwrap();
        p.on_vm_placed(&mut c, VmId(20), other, SimTime::ZERO);

        // Healthy: a short VM gap-fills the recycling host (level 0) and a
        // same-class VM joins the open LC3 host (level 1).
        let short = vm_with(30, 0, 2, SimTime::ZERO);
        let same_class = vm_with(31, 50, 2, SimTime::ZERO);
        let choose = |p: &mut LavaPolicy, v: &Vm| p.choose_host(&c, v, SimTime::ZERO, None);
        assert_eq!(choose(&mut p, &short), Some(recycling));
        assert_eq!(choose(&mut p, &same_class), Some(other));

        // Cross the threshold: class preference and temporal cost are
        // suppressed, so best-fit decides among the occupied hosts and the
        // fuller (recycling) one wastes least, whatever the VM's class.
        p.on_model_health(0.9, 8);
        assert!(p.is_degraded());
        assert_eq!(choose(&mut p, &short), Some(recycling));
        assert_eq!(choose(&mut p, &same_class), Some(recycling));
        // Recovery below 80% of the threshold re-engages the classes.
        p.on_model_health(0.1, 8);
        assert!(!p.is_degraded());
        assert_eq!(choose(&mut p, &same_class), Some(other));
    }

    mod properties {
        use super::*;
        use crate::la_binary::{LaBinaryConfig, LaBinaryPolicy};
        use lava_model::adaptive::BiasedPredictor;
        use proptest::prelude::*;

        proptest! {
            /// Under an adversarially biased predictor (every prediction
            /// scaled far below the truth), LAVA's deadline-expiry
            /// correction fires **exactly once per expiry** — never twice
            /// at the same tick, never without an expired deadline — and
            /// each firing steps the host's class up exactly one level, so
            /// the class converges until its slacked horizon covers the
            /// resident VM's real lifetime. LA-Binary on the same inputs
            /// never revises its one-shot prediction: hundreds of hours
            /// after the predicted exit it still classifies the host as
            /// short and keeps routing short arrivals onto it.
            #[test]
            fn step_up_fires_once_per_expiry_and_converges(
                actual_hours in 120u64..900,
                bias_pct in -95i16..=-60,
                tick_mins in 30u64..360,
            ) {
                let biased: Arc<dyn LifetimePredictor> = Arc::new(BiasedPredictor::new(
                    Arc::new(OraclePredictor::new()),
                    bias_pct,
                ));
                let mut c = cluster(2);
                let mut p = LavaPolicy::with_defaults(biased.clone());
                let host = schedule(
                    &mut p,
                    &mut c,
                    vm_with(1, actual_hours, 4, SimTime::ZERO),
                    SimTime::ZERO,
                );
                let initial_class = c.host(host).unwrap().lifetime_class().unwrap();
                let true_class =
                    LifetimeClass::from_lifetime(Duration::from_hours(actual_hours));
                prop_assert!(initial_class <= true_class);

                let exit_time = SimTime::ZERO + Duration::from_hours(actual_hours);
                let step = Duration::from_mins(tick_mins);
                let mut now = SimTime::ZERO;
                while now < exit_time {
                    now += step;
                    let before = c.host(host).unwrap();
                    let before_class = before.lifetime_class().unwrap();
                    let expired = before.deadline().map(|d| d < now).unwrap_or(false);
                    let fired_before = p.deadline_corrections();
                    p.on_tick(&mut c, now);
                    let fired = p.deadline_corrections() - fired_before;
                    let class_now = c.host(host).unwrap().lifetime_class().unwrap();
                    if expired {
                        prop_assert_eq!(fired, 1, "an expiry fires exactly one step-up");
                        prop_assert_eq!(class_now, before_class.step_up());
                    } else {
                        prop_assert_eq!(fired, 0, "no expiry, no correction");
                        prop_assert_eq!(class_now, before_class);
                    }
                    // Re-ticking the same instant must not double-fire: the
                    // correction pushed the deadline past `now`.
                    p.on_tick(&mut c, now);
                    prop_assert_eq!(p.deadline_corrections(), fired_before + fired);
                }
                // Converged: the corrections stopped because the (slacked)
                // horizon now covers the VM's real exit.
                let final_host = c.host(host).unwrap();
                prop_assert!(final_host.deadline().unwrap() >= exit_time);
                prop_assert!(final_host.lifetime_class().unwrap() >= initial_class);

                // LA-Binary contrast: same biased predictor, no correction
                // machinery. One hour before the VM's *real* exit the host
                // has long outlived its one-shot predicted drain time, yet
                // LA still classifies it as short-lived and routes a short
                // arrival onto it in preference to the empty host.
                let mut la = LaBinaryPolicy::new(biased.clone(), LaBinaryConfig::default());
                let mut c2 = cluster(2);
                let mut resident = vm_with(1, actual_hours, 4, SimTime::ZERO);
                resident.set_initial_prediction(
                    biased.predict_remaining(&resident, SimTime::ZERO),
                );
                c2.place(resident, HostId(0)).unwrap();
                let late = SimTime::ZERO + Duration::from_hours(actual_hours - 1);
                let mut probe = vm_with(99, 1, 2, late);
                probe.set_initial_prediction(Duration::from_mins(30));
                prop_assert_eq!(
                    la.choose_host(&c2, &probe, late, None),
                    Some(HostId(0)),
                    "LA-Binary never corrects the stale one-shot prediction"
                );
            }
        }
    }
}
