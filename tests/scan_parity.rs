//! Property-based parity tests for the indexed candidate scans.
//!
//! The indexed `choose_host` paths (pool candidate indexes + exit-time
//! order, see `lava-sched`) must return exactly the same winner as the
//! brute-force linear scans across randomized workloads — placements,
//! exits, time advancement, and LAVA's host state machine transitions all
//! included. A second set of tests checks that the refactor did not
//! inflate the `NilasStats` prediction/cache counters relative to the
//! linear reference. A third counts the calls that reach the predictor:
//! one batch per refresh pass, one prediction per arriving VM. (The
//! state-level oracle for the batched refresh pass — identical cache
//! entries, orderings and dirty set to a host-by-host recompute — needs
//! the cache's private fields and lives in `lava-sched`'s `cluster.rs`.)

use lava::core::prelude::*;
use lava::model::predictor::{LifetimePredictor, OraclePredictor};
use lava::sched::cluster::Cluster;
use lava::sched::lava::{LavaConfig, LavaPolicy};
use lava::sched::nilas::{NilasConfig, NilasPolicy, NilasStats};
use lava::sched::policy::{CandidateScan, PlacementPolicy};
use lava::sched::scheduler::Scheduler;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const HOSTS: usize = 12;

fn cluster() -> Cluster {
    Cluster::with_uniform_hosts(HOSTS, HostSpec::new(Resources::cores_gib(32, 128)))
}

fn vm(id: u64, hours: u64, cores: u64, created: SimTime) -> Vm {
    Vm::new(
        VmId(id),
        VmSpec::builder(Resources::cores_gib(cores, cores * 4))
            .category((id % 5) as u32)
            .build(),
        created,
        Duration::from_hours(hours),
    )
}

/// One random workload step: schedule (actions 0-2) or exit (action 3+),
/// then advance time.
type Op = (u8, u64, u64, u64);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..5, 0u64..600, 1u64..16, 1u64..8), 1..60)
}

/// Drive a workload applying decisions from `primary` (whose hooks also
/// maintain LAVA's host state machine), checking before every placement
/// that `reference` — sharing the same cluster and exit-time cache —
/// picks the same host.
fn run_parity(
    mut primary: Box<dyn PlacementPolicy>,
    mut reference: Box<dyn PlacementPolicy>,
    ops: Vec<Op>,
) -> Result<(), proptest::TestCaseError> {
    let predictor = OraclePredictor::new();
    let mut c = cluster();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for (action, delay, hours, cores) in ops {
        now += Duration::from_secs(delay);
        if action < 3 {
            let mut v = vm(next_id, hours * hours, cores, now);
            next_id += 1;
            let prediction =
                lava::model::predictor::LifetimePredictor::predict_remaining(&predictor, &v, now);
            v.set_initial_prediction(prediction);
            let fast = primary.choose_host(&c, &v, now, None);
            let slow = reference.choose_host(&c, &v, now, None);
            prop_assert_eq!(
                fast,
                slow,
                "diverged at t={:?} for vm {:?} ({}h, {} cores)",
                now,
                v.id(),
                hours * hours,
                cores
            );
            if let Some(host) = fast {
                let id = v.id();
                c.place(v, host).unwrap();
                primary.on_vm_placed(&mut c, id, host, now);
            }
        } else {
            // Exit a pseudo-random live VM.
            let live: Vec<VmId> = c.vms().map(|v| v.id()).collect();
            if !live.is_empty() {
                let victim = live[(hours as usize * 7 + cores as usize) % live.len()];
                let (_, host) = c.remove(victim).unwrap();
                primary.on_vm_exited(&mut c, host, now);
            }
        }
        primary.on_tick(&mut c, now);
        prop_assert!(c.pool().validate_index().is_ok(), "index diverged");
    }
    Ok(())
}

fn lava_policy(scan: CandidateScan) -> Box<dyn PlacementPolicy> {
    Box::new(LavaPolicy::new(
        Arc::new(OraclePredictor::new()),
        LavaConfig {
            nilas: NilasConfig {
                scan,
                ..NilasConfig::default()
            },
            ..LavaConfig::default()
        },
    ))
}

fn nilas_policy(scan: CandidateScan) -> Box<dyn PlacementPolicy> {
    Box::new(NilasPolicy::new(
        Arc::new(OraclePredictor::new()),
        NilasConfig {
            scan,
            ..NilasConfig::default()
        },
    ))
}

proptest! {
    #[test]
    fn lava_indexed_matches_linear(ops in ops_strategy()) {
        run_parity(
            lava_policy(CandidateScan::Indexed),
            lava_policy(CandidateScan::Linear),
            ops,
        )?;
    }

    #[test]
    fn nilas_indexed_matches_linear(ops in ops_strategy()) {
        run_parity(
            nilas_policy(CandidateScan::Indexed),
            nilas_policy(CandidateScan::Linear),
            ops,
        )?;
    }
}

/// Run a fixed workload end to end with one policy, returning its stats.
fn run_workload_nilas(scan: CandidateScan) -> (NilasStats, Vec<Option<HostId>>) {
    let mut policy = NilasPolicy::new(
        Arc::new(OraclePredictor::new()),
        NilasConfig {
            scan,
            ..NilasConfig::default()
        },
    );
    let predictor = OraclePredictor::new();
    let mut c = cluster();
    let mut decisions = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..120u64 {
        now += Duration::from_secs(20);
        let mut v = vm(i, 1 + (i % 50), 1 + (i % 6), now);
        let prediction =
            lava::model::predictor::LifetimePredictor::predict_remaining(&predictor, &v, now);
        v.set_initial_prediction(prediction);
        let choice = policy.choose_host(&c, &v, now, None);
        decisions.push(choice);
        if let Some(host) = choice {
            let id = v.id();
            c.place(v, host).unwrap();
            policy.on_vm_placed(&mut c, id, host, now);
        }
        if i % 4 == 3 {
            let victim = VmId(i - 3);
            if c.vm(victim).is_some() {
                let (_, host) = c.remove(victim).unwrap();
                policy.on_vm_exited(&mut c, host, now);
            }
        }
    }
    (policy.stats(), decisions)
}

#[test]
fn nilas_stats_not_inflated_by_indexed_scan() {
    let (indexed, indexed_decisions) = run_workload_nilas(CandidateScan::Indexed);
    let (linear, linear_decisions) = run_workload_nilas(CandidateScan::Linear);
    assert_eq!(indexed_decisions, linear_decisions, "decisions must match");
    assert!(
        indexed.predictions <= linear.predictions,
        "indexed scan issued more predictions ({} > {})",
        indexed.predictions,
        linear.predictions
    );
    assert!(
        indexed.cache_misses <= linear.cache_misses,
        "indexed scan recomputed more host scores ({} > {})",
        indexed.cache_misses,
        linear.cache_misses
    );
    assert!(
        indexed.cache_hits <= linear.cache_hits,
        "indexed scan consulted the cache more often ({} > {})",
        indexed.cache_hits,
        linear.cache_hits
    );
    // The cache and the incremental-hint machinery must actually be doing
    // work, not just disabled.
    assert!(indexed.cache_hits > 0, "indexed scan never hit the cache");
}

/// An oracle that counts how it is called. With `batching` off it keeps
/// the trait's default batch method, i.e. one `predict_remaining` per VM.
#[derive(Default)]
struct CountingOracle {
    batching: bool,
    singles: AtomicU64,
    batch_calls: AtomicU64,
    batched: AtomicU64,
}

impl CountingOracle {
    fn new(batching: bool) -> Arc<CountingOracle> {
        Arc::new(CountingOracle {
            batching,
            ..CountingOracle::default()
        })
    }

    /// `(single calls, batch calls, predictions made through batch calls)`.
    fn calls(&self) -> (u64, u64, u64) {
        (
            self.singles.load(Ordering::Relaxed),
            self.batch_calls.load(Ordering::Relaxed),
            self.batched.load(Ordering::Relaxed),
        )
    }
}

impl LifetimePredictor for CountingOracle {
    fn predict_remaining(&self, vm: &Vm, now: SimTime) -> Duration {
        self.singles.fetch_add(1, Ordering::Relaxed);
        OraclePredictor.predict_remaining(vm, now)
    }

    fn name(&self) -> &'static str {
        "counting-oracle"
    }

    fn predict_remaining_batch<'a>(
        &self,
        vms: &mut dyn Iterator<Item = &'a Vm>,
        now: SimTime,
        sink: &mut dyn FnMut(&'a Vm, Duration),
    ) {
        if !self.batching {
            for vm in vms {
                sink(vm, self.predict_remaining(vm, now));
            }
            return;
        }
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        for vm in vms {
            self.batched.fetch_add(1, Ordering::Relaxed);
            sink(vm, OraclePredictor.predict_remaining(vm, now));
        }
    }
}

#[test]
fn scheduling_a_vm_costs_one_prediction_and_at_most_one_batch() {
    let oracle = CountingOracle::new(true);
    // Twice the hosts of the parity grid, so the migration at the end
    // finds room.
    let mut scheduler = Scheduler::new(
        Cluster::with_uniform_hosts(2 * HOSTS, HostSpec::new(Resources::cores_gib(32, 128))),
        Box::new(LavaPolicy::with_defaults(oracle.clone())),
        oracle.clone(),
    );
    let mut now = SimTime::ZERO;
    let mut batches_used = 0;
    for i in 0..160u64 {
        now += Duration::from_secs(45);
        let before = oracle.calls();
        let placed = scheduler.schedule(vm(i, 1 + (i % 50), 1 + (i % 6), now), now);
        let after = oracle.calls();
        assert_eq!(
            after.0 - before.0,
            1,
            "vm {i}: the scheduler's prediction is the only single one"
        );
        assert!(
            after.1 - before.1 <= 1,
            "vm {i}: one refresh pass, one batch"
        );
        batches_used += after.1 - before.1;
        if i % 4 == 3 && placed.is_ok() {
            scheduler.exit(VmId(i - 3), now).ok();
        }
        scheduler.tick(now);
    }
    assert!(batches_used > 0, "the refresh pass never repredicted");
    assert!(
        oracle.calls().2 > batches_used,
        "batches should carry several hosts' VMs"
    );

    // A migration decides at a later instant than the VM was scheduled
    // at: the recorded prediction is stale and the policy asks again.
    now += Duration::from_hours(2);
    let victim = scheduler.cluster().vms().next().expect("a live VM").id();
    let before = oracle.calls();
    let target = scheduler
        .choose_migration_target(victim, now)
        .expect("another host has room");
    assert!(oracle.calls().0 > before.0, "migration target repredicts");
    let before = oracle.calls();
    scheduler.migrate(victim, target, now).unwrap();
    assert!(oracle.calls().0 > before.0, "placement hint repredicts");
}

/// Run the fixed workload under indexed LAVA with a counting oracle.
fn run_workload_lava(batching: bool) -> (NilasStats, Vec<Option<HostId>>, (u64, u64, u64)) {
    let oracle = CountingOracle::new(batching);
    let mut policy = LavaPolicy::with_defaults(oracle.clone());
    let mut c = cluster();
    let mut decisions = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..160u64 {
        now += Duration::from_secs(45);
        let mut v = vm(i, 1 + (i % 50), 1 + (i % 6), now);
        v.set_initial_prediction(OraclePredictor.predict_remaining(&v, now));
        let choice = policy.choose_host(&c, &v, now, None);
        decisions.push(choice);
        if let Some(host) = choice {
            let id = v.id();
            c.place(v, host).unwrap();
            policy.on_vm_placed(&mut c, id, host, now);
        }
        if i % 4 == 3 && c.vm(VmId(i - 3)).is_some() {
            let (_, host) = c.remove(VmId(i - 3)).unwrap();
            policy.on_vm_exited(&mut c, host, now);
        }
        policy.on_tick(&mut c, now);
    }
    (policy.nilas_stats(), decisions, oracle.calls())
}

#[test]
fn batched_refresh_changes_no_decision_and_no_counter() {
    let (batched_stats, batched_decisions, batched_calls) = run_workload_lava(true);
    let (stats, decisions, calls) = run_workload_lava(false);
    assert_eq!(batched_decisions, decisions);
    assert_eq!(batched_stats, stats);
    // The arriving VM carries the prediction made at its own `now`, so
    // every call that reaches the predictor is a resident's reprediction,
    // and the policy's counter owns up to each one.
    assert_eq!(batched_calls.0, 0);
    assert_eq!(batched_calls.2, batched_stats.predictions);
    assert_eq!(calls, (stats.predictions, 0, 0));
    assert!(batched_calls.1 < stats.cache_misses, "hosts share batches");
}
