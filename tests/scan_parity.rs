//! Property-based parity tests for the NILAS and LAVA candidate walks.
//!
//! `choose_host` (pool candidate indexes + exit-time order, see
//! `lava-sched`) must return exactly the winner of a brute-force scoring
//! of every feasible host across randomized workloads — placements, exits,
//! time advancement, LAVA's host state machine transitions and the
//! misprediction fallback all included. Every grid runs on two pools (see
//! [`Grid`]): identical hosts, and hosts of three capacity shapes with
//! random hosts withheld from scheduling and a random excluded host — the
//! pool where picking one empty host per shape differs from scoring them
//! all. The brute force ([`brute_force`])
//! is written on the public API only and recomputes every host exit time
//! from scratch, so it also checks cached exit times against fresh ones:
//! exactly at a zero refresh interval, where every entry is recomputed at
//! each new instant, for any predictor; and at the default interval for
//! the oracle predictor, whose answer for a live VM does not move between
//! refreshes. A second set of tests bounds the `NilasStats`
//! prediction/cache counters by what the brute force would have spent. A
//! third counts the calls that reach the predictor: one batch per refresh
//! pass, one prediction per arriving VM. (The state-level oracle for the
//! batched refresh pass — identical cache entries, orderings and dirty set
//! to a host-by-host recompute — needs the cache's private fields and
//! lives in `lava-sched`'s `cluster.rs`.)

use lava::core::prelude::*;
use lava::model::dataset::DatasetBuilder;
use lava::model::gbdt::GbdtConfig;
use lava::model::predictor::{GbdtPredictor, LifetimePredictor, OraclePredictor};
use lava::sched::cluster::Cluster;
use lava::sched::lava::{LavaConfig, LavaPolicy};
use lava::sched::nilas::{NilasConfig, NilasPolicy, NilasStats};
use lava::sched::policy::{FallbackSpec, PlacementPolicy};
use lava::sched::scheduler::Scheduler;
use lava::sched::scoring::{waste_minimization_score, ScoreVector};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const HOSTS: usize = 12;

fn cluster() -> Cluster {
    Cluster::with_uniform_hosts(HOSTS, HostSpec::new(Resources::cores_gib(32, 128)))
}

/// Shape `i % 3` of a mixed pool: two shapes with the same CPU and
/// different memory, and one too small for the largest requests.
fn mixed_shape(i: usize) -> HostSpec {
    HostSpec::new(match i % 3 {
        0 => Resources::cores_gib(32, 128),
        1 => Resources::cores_gib(32, 256),
        _ => Resources::cores_gib(6, 24),
    })
}

/// `hosts` hosts whose shapes follow `shape_of` (an index into
/// [`mixed_shape`] per host).
fn mixed_cluster(hosts: usize, shape_of: impl Fn(usize) -> usize) -> Cluster {
    let mut pool = Pool::new(PoolId(0));
    for i in 0..hosts {
        pool.add_host(mixed_shape(shape_of(i)));
    }
    Cluster::new(pool)
}

fn vm_spec(id: u64, cores: u64) -> VmSpec {
    VmSpec::builder(Resources::cores_gib(cores, cores * 4))
        .category((id % 5) as u32)
        .build()
}

fn vm(id: u64, hours: u64, cores: u64, created: SimTime) -> Vm {
    Vm::new(
        VmId(id),
        vm_spec(id, cores),
        created,
        Duration::from_hours(hours),
    )
}

/// The policy under test, by its concrete type: the brute force has to
/// know which score to build and whether the fallback has engaged.
enum Subject {
    Nilas(NilasPolicy),
    Lava(LavaPolicy),
}

impl Subject {
    fn nilas(predictor: Arc<dyn LifetimePredictor>, config: NilasConfig) -> Subject {
        Subject::Nilas(NilasPolicy::new(predictor, config))
    }

    fn lava(predictor: Arc<dyn LifetimePredictor>, nilas: NilasConfig) -> Subject {
        let config = LavaConfig {
            nilas,
            ..LavaConfig::default()
        };
        Subject::Lava(LavaPolicy::new(predictor, config))
    }

    fn policy(&mut self) -> &mut dyn PlacementPolicy {
        match self {
            Subject::Nilas(p) => p,
            Subject::Lava(p) => p,
        }
    }

    fn is_degraded(&self) -> bool {
        match self {
            Subject::Nilas(p) => p.is_degraded(),
            Subject::Lava(p) => p.is_degraded(),
        }
    }

    fn stats(&self) -> NilasStats {
        match self {
            Subject::Nilas(p) => p.stats(),
            Subject::Lava(p) => p.nilas_stats(),
        }
    }
}

/// What scoring every feasible host came to.
struct BruteForce {
    winner: Option<HostId>,
    /// Feasible occupied hosts: each one's exit time was recomputed.
    occupied: u64,
    /// The VMs on them: each one was repredicted.
    repredicted: u64,
}

/// Algorithms 2 and 3 as written: the full lexicographic score of every
/// feasible host — for LAVA `(preference level, class distance, temporal
/// cost, waste)`, for NILAS the last two — from exit times repredicted on
/// the spot, lowest id on ties, `exclude` left out. While the fallback is
/// engaged the class levels collapse to occupied-before-empty and the
/// temporal cost to zero.
fn brute_force(
    subject: &Subject,
    c: &Cluster,
    predictor: &dyn LifetimePredictor,
    vm: &Vm,
    now: SimTime,
    exclude: Option<HostId>,
) -> BruteForce {
    let degraded = subject.is_degraded();
    let buckets = TemporalCostBuckets::default();
    let request = vm.resources();
    let remaining = predictor.predict_remaining(vm, now);
    let vm_class = LifetimeClass::from_lifetime(remaining);
    let vm_exit = now + remaining;
    let mut found = BruteForce {
        winner: None,
        occupied: 0,
        repredicted: 0,
    };
    let mut best: Option<ScoreVector> = None;
    let eligible = c
        .hosts()
        .filter(|h| h.can_fit(request) && Some(h.id()) != exclude);
    for host in eligible {
        if !host.is_empty() {
            found.occupied += 1;
            found.repredicted += host.vm_count() as u64;
        }
        let host_exit = c.host_exit_time(host, predictor, now);
        let cost = if degraded {
            0
        } else {
            buckets.cost(vm_exit.saturating_since(host_exit))
        };
        let tail = [cost as f64, waste_minimization_score(host, request)];
        let score = match subject {
            Subject::Nilas(_) => ScoreVector::new(tail),
            Subject::Lava(_) => {
                let (level, distance) = match (host.lifetime_state(), host.lifetime_class()) {
                    _ if degraded => (if host.is_empty() { 3 } else { 2 }, 0),
                    (HostLifetimeState::Recycling, Some(class)) if class > vm_class => {
                        (0, class.distance(vm_class))
                    }
                    (HostLifetimeState::Open, Some(class)) if class == vm_class => (1, 0),
                    _ if !host.is_empty() => (2, 0),
                    _ => (3, 0),
                };
                ScoreVector::new([level as f64, distance as f64, tail[0], tail[1]])
            }
        };
        // Hosts come in id order, so only a strictly better score displaces.
        if best.as_ref().is_none_or(|b| score.is_better_than(b)) {
            best = Some(score);
            found.winner = Some(host.id());
        }
    }
    found
}

/// One random workload step: schedule (actions 0-2) or exit (action 3+),
/// then advance time. The last field picks the host a [`Grid::Mixed`] step
/// excludes and withholds or returns.
type Op = (u8, u64, u64, u64, u64);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let pick = 0..2 * HOSTS as u64;
    proptest::collection::vec((0u8..5, 0u64..600, 1u64..16, 1u64..8, pick), 1..60)
}

/// The pools every parity grid runs on.
#[derive(Debug, Clone, Copy)]
enum Grid {
    /// [`HOSTS`] identical hosts; no host withheld or excluded.
    Uniform,
    /// [`HOSTS`] hosts of the three [`mixed_shape`]s, not in shape order.
    /// A step whose pick is below [`HOSTS`] excludes that host from its
    /// decision, and a step whose pick is a multiple of 3 withholds the
    /// picked empty host from scheduling or returns it.
    Mixed,
}

impl Grid {
    fn cluster(self) -> Cluster {
        match self {
            Grid::Uniform => cluster(),
            Grid::Mixed => mixed_cluster(HOSTS, |i| [0, 1, 0, 2, 1, 0, 2, 2, 1, 0, 0, 1][i]),
        }
    }
}

/// A fallback that any reported error of 0.5 engages, from the first exit.
const EAGER_FALLBACK: FallbackSpec = FallbackSpec {
    threshold: 0.5,
    min_samples: 1,
};

/// Run the workload on every [`Grid`] pool, each with a fresh subject.
fn run_parity(
    subject: impl Fn() -> Subject,
    predictor: &dyn LifetimePredictor,
    ops: Vec<Op>,
) -> Result<(), proptest::TestCaseError> {
    for grid in [Grid::Uniform, Grid::Mixed] {
        run_grid(subject(), grid, predictor, &ops)?;
    }
    Ok(())
}

/// Drive a workload applying the subject's decisions (its hooks also
/// maintain LAVA's host state machine), checking before every placement
/// that the brute force picks the same host. Every exit also reports a
/// model health that is bad on even `cores` and good on odd, which moves a
/// subject configured with a fallback in and out of its degraded regime
/// and is ignored by one without.
fn run_grid(
    mut subject: Subject,
    grid: Grid,
    predictor: &dyn LifetimePredictor,
    ops: &[Op],
) -> Result<(), proptest::TestCaseError> {
    let mut c = grid.cluster();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for &(action, delay, hours, cores, pick) in ops {
        now += Duration::from_secs(delay);
        let (exclude, toggled) = match grid {
            Grid::Uniform => (None, None),
            Grid::Mixed => (
                (pick < HOSTS as u64).then_some(HostId(pick)),
                (pick % 3 == 0).then_some(HostId(pick % HOSTS as u64)),
            ),
        };
        if let Some(mut host) = toggled.and_then(|id| c.host_mut(id)) {
            // Only empty hosts are withheld, so a withheld host is empty.
            if host.is_empty() {
                let withheld = host.is_unavailable();
                host.set_unavailable(!withheld);
            }
        }
        if action < 3 {
            let mut v = vm(next_id, hours * hours, cores, now);
            next_id += 1;
            v.set_initial_prediction(predictor.predict_remaining(&v, now));
            let expected = brute_force(&subject, &c, predictor, &v, now, exclude).winner;
            let chosen = subject.policy().choose_host(&c, &v, now, exclude);
            prop_assert_eq!(
                chosen,
                expected,
                "{:?} pool diverged at t={:?} for vm {:?} ({}h, {} cores), \
                 excluding {:?}, degraded: {}",
                grid,
                now,
                v.id(),
                hours * hours,
                cores,
                exclude,
                subject.is_degraded()
            );
            if let Some(host) = chosen {
                let id = v.id();
                c.place(v, host).unwrap();
                subject.policy().on_vm_placed(&mut c, id, host, now);
            }
        } else {
            // Exit a pseudo-random live VM.
            let live: Vec<VmId> = c.vms().map(|v| v.id()).collect();
            if !live.is_empty() {
                let victim = live[(hours as usize * 7 + cores as usize) % live.len()];
                let (_, host) = c.remove(victim).unwrap();
                subject.policy().on_vm_exited(&mut c, host, now);
            }
            let error = if cores % 2 == 0 { 0.9 } else { 0.1 };
            subject.policy().on_model_health(error, 8);
        }
        subject.policy().on_tick(&mut c, now);
        prop_assert!(c.pool().validate_index().is_ok(), "index diverged");
    }
    Ok(())
}

fn oracle() -> Arc<dyn LifetimePredictor> {
    Arc::new(OraclePredictor::new())
}

/// A compiled GBDT trained once on lifetimes that depend on the features
/// the grid varies, so that repredictions move as VMs age.
fn compiled_gbdt() -> Arc<dyn LifetimePredictor> {
    static MODEL: OnceLock<Arc<dyn LifetimePredictor>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let mut builder = DatasetBuilder::new();
            for i in 0..400u64 {
                let cores = 1 + i % 7;
                let hours = (1 + i % 15).pow(2) * (1 + i % 5) / 3 + cores;
                builder.push(vm_spec(i, cores), Duration::from_hours(hours));
            }
            Arc::new(GbdtPredictor::train(GbdtConfig::fast(), &builder.build()).compile())
        })
        .clone()
}

fn zero_refresh() -> NilasConfig {
    NilasConfig {
        cache_refresh: Duration::ZERO,
        ..NilasConfig::default()
    }
}

fn with_fallback() -> NilasConfig {
    NilasConfig {
        fallback: Some(EAGER_FALLBACK),
        ..NilasConfig::default()
    }
}

proptest! {
    // The two grids below predate the brute force and keep their names:
    // "linear" is now the scoring of every host in this file.
    #[test]
    fn lava_indexed_matches_linear(ops in ops_strategy()) {
        run_parity(|| Subject::lava(oracle(), NilasConfig::default()), &OraclePredictor, ops)?;
    }

    #[test]
    fn nilas_indexed_matches_linear(ops in ops_strategy()) {
        run_parity(|| Subject::nilas(oracle(), NilasConfig::default()), &OraclePredictor, ops)?;
    }

    #[test]
    fn lava_matches_brute_force_at_zero_refresh_with_a_gbdt(ops in ops_strategy()) {
        let gbdt = compiled_gbdt();
        run_parity(|| Subject::lava(gbdt.clone(), zero_refresh()), gbdt.as_ref(), ops)?;
    }

    #[test]
    fn nilas_matches_brute_force_at_zero_refresh_with_a_gbdt(ops in ops_strategy()) {
        let gbdt = compiled_gbdt();
        run_parity(|| Subject::nilas(gbdt.clone(), zero_refresh()), gbdt.as_ref(), ops)?;
    }

    #[test]
    fn lava_matches_brute_force_in_and_out_of_fallback(ops in ops_strategy()) {
        run_parity(|| Subject::lava(oracle(), with_fallback()), &OraclePredictor, ops)?;
    }

    #[test]
    fn nilas_matches_brute_force_in_and_out_of_fallback(ops in ops_strategy()) {
        run_parity(|| Subject::nilas(oracle(), with_fallback()), &OraclePredictor, ops)?;
    }
}

#[test]
fn nilas_stats_not_inflated_by_indexed_scan() {
    let mut subject = Subject::nilas(oracle(), NilasConfig::default());
    let mut c = cluster();
    let mut now = SimTime::ZERO;
    // What scoring every feasible host afresh would have recomputed and
    // repredicted over the run.
    let (mut occupied, mut repredicted) = (0u64, 0u64);
    for i in 0..120u64 {
        now += Duration::from_secs(20);
        let mut v = vm(i, 1 + (i % 50), 1 + (i % 6), now);
        v.set_initial_prediction(OraclePredictor.predict_remaining(&v, now));
        let expected = brute_force(&subject, &c, &OraclePredictor, &v, now, None);
        occupied += expected.occupied;
        repredicted += expected.repredicted;
        let choice = subject.policy().choose_host(&c, &v, now, None);
        assert_eq!(choice, expected.winner, "vm {i}");
        if let Some(host) = choice {
            let id = v.id();
            c.place(v, host).unwrap();
            subject.policy().on_vm_placed(&mut c, id, host, now);
        }
        if i % 4 == 3 {
            let victim = VmId(i - 3);
            if c.vm(victim).is_some() {
                let (_, host) = c.remove(victim).unwrap();
                subject.policy().on_vm_exited(&mut c, host, now);
            }
        }
    }
    let stats = subject.stats();
    // A walked host is a hit or a miss, never both, and the walk only
    // looks at feasible occupied hosts — fewer than all of them when it
    // stops early.
    assert!(
        stats.cache_hits + stats.cache_misses <= occupied,
        "{stats:?}: more lookups than the {occupied} feasible occupied hosts"
    );
    assert!(
        stats.predictions <= repredicted,
        "{stats:?}: more predictions than the {repredicted} VMs on those hosts"
    );
    // The cache and the incremental-hint machinery must actually be doing
    // work, not just disabled.
    assert!(stats.cache_hits > 0, "{stats:?}: never hit the cache");
}

/// One decision for a fresh `cores`-core VM at time zero, checked against
/// the brute force: the host chosen and the empty hosts examined.
fn decide_counting(
    subject: &mut Subject,
    c: &Cluster,
    cores: u64,
    exclude: Option<HostId>,
) -> (Option<HostId>, u64) {
    let now = SimTime::ZERO;
    let mut v = vm(0, 5, cores, now);
    v.set_initial_prediction(OraclePredictor.predict_remaining(&v, now));
    let expected = brute_force(subject, c, &OraclePredictor, &v, now, exclude).winner;
    let before = subject.stats().empty_examined;
    let chosen = subject.policy().choose_host(c, &v, now, exclude);
    assert_eq!(chosen, expected, "{cores} cores, excluding {exclude:?}");
    (chosen, subject.stats().empty_examined - before)
}

/// The empty-host level looks at one host per capacity shape that can
/// hold the request, plus one per unavailable or excluded empty host it
/// walks past — not at every empty host.
#[test]
fn empty_level_examines_one_host_per_shape() {
    let subjects: [fn() -> Subject; 2] = [
        || Subject::nilas(oracle(), NilasConfig::default()),
        || Subject::lava(oracle(), NilasConfig::default()),
    ];
    for make in subjects {
        // 512 identical hosts; host 0 is full, so every decision falls
        // through to the empty hosts.
        let mut subject = make();
        let mut c = Cluster::with_uniform_hosts(512, HostSpec::new(Resources::cores_gib(32, 128)));
        c.place(vm(1000, 5, 32, SimTime::ZERO), HostId(0)).unwrap();
        let mut decide = |c: &Cluster, exclude| decide_counting(&mut subject, c, 4, exclude);
        assert_eq!(decide(&c, None), (Some(HostId(1)), 1));
        assert_eq!(decide(&c, Some(HostId(1))), (Some(HostId(2)), 2));
        for id in [2, 3] {
            c.host_mut(HostId(id)).unwrap().set_unavailable(true);
        }
        assert_eq!(decide(&c, Some(HostId(1))), (Some(HostId(4)), 4));

        // 512 empty hosts of the three mixed shapes, host i of shape i % 3.
        let mut subject = make();
        let mut c = mixed_cluster(512, |i| i % 3);
        let mut decide = |c: &Cluster, cores, exclude| {
            let (chosen, examined) = decide_counting(&mut subject, c, cores, exclude);
            assert!(chosen.is_some(), "{cores} cores, excluding {exclude:?}");
            examined
        };
        assert_eq!(decide(&c, 4, None), 3);
        assert_eq!(decide(&c, 4, Some(HostId(0))), 4);
        // A 7-core VM does not fit the 6-core shape: none of its hosts is
        // looked at.
        assert_eq!(decide(&c, 7, None), 2);
        c.host_mut(HostId(1)).unwrap().set_unavailable(true);
        assert_eq!(decide(&c, 4, Some(HostId(0))), 5);
        assert_eq!(decide(&c, 7, Some(HostId(0))), 4);
    }
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
