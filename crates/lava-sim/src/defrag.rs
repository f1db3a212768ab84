//! Defragmentation / maintenance simulation and the LARS comparison
//! (§4.4, §6.3, Appendix H, Table 2).
//!
//! The paper's methodology: from a trace, collect the live migrations that
//! defragmentation would perform during an interval; migrations run in a
//! fixed order with at most three in flight and each keeps both hosts busy
//! for a conservative 20 minutes. Because migrations queue behind the
//! limited slots, some VMs exit *before their migration starts* — those
//! migrations are saved. LARS maximises the savings by migrating the VMs
//! with the longest predicted remaining lifetime first.
//!
//! This module has three parts:
//!
//! * [`EvacuationCollector`] — a [`SimObserver`] that records the hosts a
//!   drain-based defragmenter would evacuate (with each VM's remaining
//!   lifetime at that moment) whenever the empty-host fraction is below a
//!   threshold at a trigger point. Triggers arrive through
//!   [`SimObserver::on_defrag_trigger`]: the unified timeline schedules
//!   them at the *exact* trigger cadence, firing before the events of
//!   their timestamp — the same semantics as the original per-event
//!   collector (which checked its trigger before applying the first event
//!   past the due time), without the up-to-one-tick drift the interim
//!   tick-quantised collector had;
//! * [`simulate_migration_queue`] — evaluates a migration *ordering*
//!   against the recorded evacuation tasks and counts how many migrations
//!   actually had to be performed;
//! * [`DefragReport::evaluate`] — both orderings over one task set.
//!
//! A study is one run: set
//! [`Cadence::defrag_trigger`](crate::experiment::Cadence::defrag_trigger)
//! (and a zero warm-up, so the evaluated policy places every VM), pass the
//! collector to
//! [`Experiment::run_with_observers`](crate::experiment::Experiment::run_with_observers)
//! and evaluate its tasks.

use crate::observer::{ObserverContext, SimObserver};
use lava_core::host::HostId;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{Vm, VmId};
use serde::{Deserialize, Serialize};

/// One VM that needs to be evacuated from a host being drained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvacuationVm {
    /// The VM to migrate.
    pub vm: VmId,
    /// Ground-truth remaining lifetime at the time the drain started
    /// (used to decide whether the VM exits before its migration slot).
    pub actual_remaining: Duration,
    /// Predicted remaining lifetime at the same moment (what LARS sorts by).
    pub predicted_remaining: Duration,
}

/// A host drain event: a set of VMs that must be migrated off one host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvacuationTask {
    /// When the drain started.
    pub start: SimTime,
    /// The VMs on the host at that time.
    pub vms: Vec<EvacuationVm>,
}

/// A [`SimObserver`] that records the evacuation tasks a drain-based
/// defragmenter would generate.
///
/// At every defrag trigger point (scheduled on the unified timeline at
/// the run's exact trigger cadence) it checks the pool's empty-host
/// fraction; below the threshold it picks the non-empty hosts with the
/// most excess (free) resources as drain candidates (§4.4) and records
/// each candidate's VMs with their actual and predicted remaining
/// lifetimes. The pool itself is not mutated — the recorded tasks feed
/// [`simulate_migration_queue`].
#[derive(Debug, Clone)]
pub struct EvacuationCollector {
    empty_host_threshold: f64,
    hosts_per_trigger: usize,
    tasks: Vec<EvacuationTask>,
}

impl EvacuationCollector {
    /// Create a collector that drains `hosts_per_trigger` hosts whenever a
    /// trigger fires while the empty-host fraction is below
    /// `empty_host_threshold`. The trigger cadence itself belongs to the
    /// timeline (see
    /// [`Cadence::defrag_trigger`](crate::experiment::Cadence::defrag_trigger)).
    pub fn new(empty_host_threshold: f64, hosts_per_trigger: usize) -> EvacuationCollector {
        EvacuationCollector {
            empty_host_threshold,
            hosts_per_trigger,
            tasks: Vec::new(),
        }
    }

    /// The tasks recorded so far.
    pub fn tasks(&self) -> &[EvacuationTask] {
        &self.tasks
    }
}

impl SimObserver for EvacuationCollector {
    fn on_defrag_trigger(&mut self, ctx: &ObserverContext<'_>) {
        let pool = ctx.cluster.pool();
        if pool.empty_host_fraction() >= self.empty_host_threshold {
            return;
        }
        // Pick the non-empty hosts with the most excess (free) resources as
        // drain candidates (§4.4), walking the pool's free-capacity order
        // (emptiest first) instead of sorting all hosts. Hosts tying on
        // free CPU are all collected so the fewest-VMs-then-id tiebreak
        // matches a full sort.
        let mut candidates: Vec<(u64, usize, HostId)> = Vec::new();
        for h in pool
            .hosts_by_free()
            .rev()
            .filter(|h| !h.is_empty() && !h.is_unavailable())
        {
            let free_cpu = h.free().cpu_milli;
            // Descending order: once k hosts are collected, a host with
            // strictly less free CPU cannot reach the top k, but ties at
            // the boundary still can (vm_count decides).
            if candidates.len() >= self.hosts_per_trigger
                && candidates.last().is_some_and(|&(cpu, _, _)| free_cpu < cpu)
            {
                break;
            }
            candidates.push((free_cpu, h.vm_count(), h.id()));
        }
        candidates.sort_by_key(|&(cpu, vms, id)| (std::cmp::Reverse(cpu), vms, id));
        for (_, _, host_id) in candidates.into_iter().take(self.hosts_per_trigger) {
            let host = ctx.cluster.host(host_id).expect("host exists");
            let vms: Vec<EvacuationVm> = host
                .vm_ids()
                .filter_map(|id| ctx.cluster.vm(id).cloned())
                .map(|vm: Vm| EvacuationVm {
                    vm: vm.id(),
                    actual_remaining: vm.actual_remaining(ctx.now),
                    predicted_remaining: ctx.predictor.predict_remaining(&vm, ctx.now),
                })
                .collect();
            if !vms.is_empty() {
                self.tasks.push(EvacuationTask {
                    start: ctx.now,
                    vms,
                });
            }
        }
    }
}

/// How migrations are ordered within one evacuation task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOrder {
    /// The production baseline: the order VMs appear on the host (creation
    /// order in our traces).
    Baseline,
    /// LARS: longest predicted remaining lifetime first.
    Lars,
}

/// The outcome of evaluating one migration ordering over a set of
/// evacuation tasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationOutcome {
    /// Total VM migrations that were scheduled (every VM in every task).
    pub scheduled: u64,
    /// Migrations actually performed.
    pub performed: u64,
    /// Migrations avoided because the VM exited before its slot started.
    pub avoided: u64,
}

impl MigrationOutcome {
    /// Fraction of scheduled migrations that were avoided.
    pub fn reduction_vs(&self, baseline: &MigrationOutcome) -> f64 {
        if baseline.performed == 0 {
            0.0
        } else {
            1.0 - self.performed as f64 / baseline.performed as f64
        }
    }
}

/// Both migration orderings evaluated over one set of evacuation tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefragReport {
    /// Number of host-drain events recorded.
    pub drain_events: usize,
    /// Total VM evacuations scheduled across all drains.
    pub evacuated_vms: usize,
    /// Migration-queue outcome with the production (host) ordering.
    pub baseline: MigrationOutcome,
    /// Migration-queue outcome with LARS ordering.
    pub lars: MigrationOutcome,
}

impl DefragReport {
    /// Run [`simulate_migration_queue`] over `tasks` with both orderings.
    ///
    /// # Panics
    ///
    /// Panics when `concurrent_slots` is zero.
    pub fn evaluate(
        tasks: &[EvacuationTask],
        concurrent_slots: usize,
        migration_duration: Duration,
    ) -> DefragReport {
        let queue =
            |order| simulate_migration_queue(tasks, order, concurrent_slots, migration_duration);
        DefragReport {
            drain_events: tasks.len(),
            evacuated_vms: tasks.iter().map(|t| t.vms.len()).sum(),
            baseline: queue(MigrationOrder::Baseline),
            lars: queue(MigrationOrder::Lars),
        }
    }

    /// Fraction of baseline migrations LARS avoided.
    pub fn reduction(&self) -> f64 {
        self.lars.reduction_vs(&self.baseline)
    }
}

/// Evaluate a migration ordering against evacuation tasks.
///
/// The slot limit is pool-wide (the paper limits concurrent live migrations
/// to batches of 3 per pool): all hosts drained at the same trigger share
/// the `concurrent_slots` migration slots, and slots remain busy across
/// triggers if a backlog builds up. Within each drained host the VMs are
/// migrated in the given order; a VM whose exit time precedes the start of
/// its migration slot exits naturally and saves the migration.
pub fn simulate_migration_queue(
    tasks: &[EvacuationTask],
    order: MigrationOrder,
    concurrent_slots: usize,
    migration_duration: Duration,
) -> MigrationOutcome {
    assert!(concurrent_slots > 0, "need at least one migration slot");
    let mut outcome = MigrationOutcome::default();
    // Absolute times at which each slot becomes free.
    let mut slot_free = vec![SimTime::ZERO; concurrent_slots];
    let mut tasks: Vec<&EvacuationTask> = tasks.iter().collect();
    tasks.sort_by_key(|t| t.start);
    for task in tasks {
        for vm in &migration_order(&task.vms, order) {
            outcome.scheduled += 1;
            // The migration starts when the earliest slot frees up, but not
            // before the drain begins.
            let (slot_idx, free_at) = slot_free
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|(_, t)| *t)
                .expect("at least one slot");
            let start_time = free_at.max(task.start);
            if task.start + vm.actual_remaining <= start_time {
                // The VM exited before its migration would have begun.
                outcome.avoided += 1;
            } else {
                outcome.performed += 1;
                slot_free[slot_idx] = start_time + migration_duration;
            }
        }
    }
    outcome
}

/// One task's VMs in migration order: task order for the baseline;
/// descending predicted remaining lifetime, ties by ascending VM id, for
/// LARS.
fn migration_order(vms: &[EvacuationVm], order: MigrationOrder) -> Vec<EvacuationVm> {
    let mut vms = vms.to_vec();
    if order == MigrationOrder::Lars {
        vms.sort_by(|a, b| {
            b.predicted_remaining
                .cmp(&a.predicted_remaining)
                .then(a.vm.cmp(&b.vm))
        });
    }
    vms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PoolConfig;

    fn task(remainings_minutes: &[u64]) -> EvacuationTask {
        EvacuationTask {
            start: SimTime::ZERO,
            vms: remainings_minutes
                .iter()
                .enumerate()
                .map(|(i, &m)| EvacuationVm {
                    vm: VmId(i as u64),
                    actual_remaining: Duration::from_mins(m),
                    predicted_remaining: Duration::from_mins(m),
                })
                .collect(),
        }
    }

    #[test]
    fn lars_saves_migrations_for_short_lived_vms() {
        // Six VMs, one slot, 20-minute migrations. Short VMs (5, 15, 25 min)
        // can exit while long ones migrate — but only if the long ones go
        // first.
        let tasks = vec![task(&[5, 15, 25, 600, 700, 800])];
        let baseline =
            simulate_migration_queue(&tasks, MigrationOrder::Baseline, 1, Duration::from_mins(20));
        let lars =
            simulate_migration_queue(&tasks, MigrationOrder::Lars, 1, Duration::from_mins(20));
        assert_eq!(baseline.scheduled, 6);
        assert_eq!(lars.scheduled, 6);
        assert!(lars.performed < baseline.performed);
        assert!(lars.reduction_vs(&baseline) > 0.0);
        assert_eq!(lars.performed + lars.avoided, lars.scheduled);
    }

    #[test]
    fn all_long_lived_vms_cannot_be_saved() {
        let tasks = vec![task(&[600, 700, 800])];
        let baseline =
            simulate_migration_queue(&tasks, MigrationOrder::Baseline, 3, Duration::from_mins(20));
        let lars =
            simulate_migration_queue(&tasks, MigrationOrder::Lars, 3, Duration::from_mins(20));
        assert_eq!(baseline.performed, 3);
        assert_eq!(lars.performed, 3);
        assert_eq!(lars.reduction_vs(&baseline), 0.0);
    }

    #[test]
    fn more_slots_reduce_savings() {
        let tasks = vec![task(&[5, 15, 25, 35, 600, 700, 800, 900])];
        let one_slot =
            simulate_migration_queue(&tasks, MigrationOrder::Lars, 1, Duration::from_mins(20));
        let many_slots =
            simulate_migration_queue(&tasks, MigrationOrder::Lars, 8, Duration::from_mins(20));
        assert!(one_slot.avoided >= many_slots.avoided);
        // With a slot per VM every migration starts immediately.
        assert_eq!(many_slots.avoided, 0);
    }

    fn order_ids(remainings_minutes: &[u64], order: MigrationOrder) -> Vec<VmId> {
        let task = task(remainings_minutes);
        migration_order(&task.vms, order)
            .iter()
            .map(|v| v.vm)
            .collect()
    }

    #[test]
    fn lars_orders_longest_first() {
        assert_eq!(
            order_ids(&[2, 50, 10, 1], MigrationOrder::Lars),
            vec![VmId(1), VmId(2), VmId(0), VmId(3)]
        );
    }

    #[test]
    fn baseline_keeps_task_order() {
        assert_eq!(
            order_ids(&[2, 50, 10, 1], MigrationOrder::Baseline),
            vec![VmId(0), VmId(1), VmId(2), VmId(3)]
        );
    }

    #[test]
    fn ties_broken_by_vm_id() {
        assert_eq!(
            order_ids(&[5, 5, 5], MigrationOrder::Lars),
            vec![VmId(0), VmId(1), VmId(2)]
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            /// Both orderings enumerate exactly the task's VM set; LARS
            /// sorts by descending predicted remaining lifetime with an
            /// ascending VM-id tiebreak; the baseline keeps task order.
            #[test]
            fn lars_and_baseline_orders_agree_with_their_specifications(
                // Few distinct predictions, so ties are common.
                predicted_hours in proptest::collection::vec(0u64..6, 1..30),
            ) {
                // Ids descend along the task, so neither task order nor a
                // stable sort can pass for the id tiebreak.
                let vms: Vec<EvacuationVm> = predicted_hours
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| EvacuationVm {
                        vm: VmId(1_000 - i as u64),
                        actual_remaining: Duration::from_hours(h),
                        predicted_remaining: Duration::from_hours(h),
                    })
                    .collect();
                let lars = migration_order(&vms, MigrationOrder::Lars);
                let baseline = migration_order(&vms, MigrationOrder::Baseline);

                let ids = |order: &[EvacuationVm]| -> BTreeSet<VmId> {
                    order.iter().map(|v| v.vm).collect()
                };
                prop_assert_eq!(lars.len(), vms.len());
                prop_assert_eq!(ids(&lars).len(), lars.len(), "duplicate VM in LARS order");
                prop_assert_eq!(ids(&lars), ids(&baseline), "orders cover different VM sets");
                prop_assert_eq!(&baseline, &vms);

                for (i, pair) in lars.windows(2).enumerate() {
                    let (a, b) = (&pair[0], &pair[1]);
                    prop_assert!(
                        a.predicted_remaining >= b.predicted_remaining,
                        "prediction increased at {}", i
                    );
                    if a.predicted_remaining == b.predicted_remaining {
                        prop_assert!(a.vm < b.vm, "tie not broken by ascending id at {}", i);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one migration slot")]
    fn zero_slots_panics() {
        let _ = simulate_migration_queue(&[], MigrationOrder::Lars, 0, Duration::from_mins(20));
    }

    #[test]
    fn defrag_scenario_produces_tasks_on_a_busy_pool() {
        // A small, highly utilised pool dips below the empty-host threshold
        // quickly, triggering drains. The triggers fire on the unified
        // timeline at their exact cadence.
        use crate::experiment::Experiment;
        let config = PoolConfig {
            hosts: 16,
            target_utilization: 0.85,
            duration: Duration::from_days(2),
            ..PoolConfig::small(5)
        };
        let experiment = Experiment::builder()
            .workload(config)
            .warmup(Duration::ZERO)
            .defrag_every(Duration::from_hours(3))
            .build()
            .and_then(Experiment::new)
            .expect("valid spec");
        let mut collector = EvacuationCollector::new(0.5, 2);
        experiment.run_with_observers(&mut [&mut collector]);
        let defrag = DefragReport::evaluate(collector.tasks(), 3, Duration::from_mins(20));
        assert!(defrag.drain_events > 0, "expected at least one drain");
        assert!(defrag.evacuated_vms > 0);
        // Evaluating both orderings on the same tasks must keep the number
        // of scheduled migrations identical.
        assert_eq!(defrag.baseline.scheduled, defrag.lars.scheduled);
        assert!(defrag.lars.performed <= defrag.baseline.performed);
        assert!(defrag.reduction() >= 0.0);
    }
}
