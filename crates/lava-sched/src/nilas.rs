//! NILAS: Non-Invasive Lifetime-Aware Scheduling (§4.2).
//!
//! For every candidate host, NILAS repredicts the remaining lifetime of all
//! VMs currently on it, takes the maximum as the host's expected exit time,
//! and computes the temporal cost
//! `ΔT = max(vm_predicted_exit − host_exit, 0)` quantised into the bucket
//! boundaries of [`TemporalCostBuckets`]. The temporal cost sits one level
//! above the bin-packing score in the lexicographic scoring function, so it
//! only decides among hosts that are otherwise equivalent — hence
//! *non-invasive*.
//!
//! Because repredicting every VM on every host can become a bottleneck in
//! very large pools, host exit times come from the cluster-level cache of
//! Appendix G.3 (see [`crate::cluster`]): entries are invalidated by
//! placement/removal events, raised incrementally on placement,
//! and refreshed when their interval or their own exit time passes.
//!
//! The candidate scan exploits that the temporal cost is monotone in the
//! host exit time: hosts are visited from latest-exiting to earliest via
//! the cache's exit-time order and the scan stops as soon as the cost
//! bucket can no longer match the best candidate, instead of scoring all
//! hosts. Empty hosts (exit time = now, free = capacity) tie on everything
//! but id within a capacity shape, so the empty tail scores one leader per
//! shape from the pool's shape-grouped empty index: O(shapes), counted in
//! [`NilasStats::empty_examined`]. The brute-force scoring of every
//! feasible host it must agree with is the oracle of `tests/scan_parity.rs`.

use crate::cluster::Cluster;
use crate::policy::{CacheCounters, FallbackSpec, PlacementPolicy};
use crate::scoring::waste_minimization_score;
use lava_core::host::HostId;
use lava_core::lifetime::TemporalCostBuckets;
use lava_core::resources::Resources;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::Vm;
use lava_model::predictor::LifetimePredictor;
use std::sync::Arc;

/// Configuration for [`NilasPolicy`].
#[derive(Debug, Clone)]
pub struct NilasConfig {
    /// Temporal-cost bucket boundaries (defaults to the paper's).
    pub buckets: TemporalCostBuckets,
    /// How long a cached host exit time stays valid when nothing changes on
    /// the host. [`Duration::ZERO`] is "no cache": an entry is valid only at
    /// the instant it was computed, so every later decision repredicts.
    pub cache_refresh: Duration,
    /// If `false`, use only the initial (scheduling-time) predictions — the
    /// "no reprediction" ablation of Fig. 16, which behaves like LA's
    /// one-shot view with NILAS's scoring.
    pub repredict: bool,
    /// When set, the policy listens to the scheduler's measured model
    /// health and — past the spec's misprediction threshold — zeroes its
    /// temporal cost term, degrading to pure waste-minimisation (the
    /// Theorem 1 best-fit regime, whose bound holds without lifetime
    /// knowledge). `None` (the default) trusts the model unconditionally.
    pub fallback: Option<FallbackSpec>,
}

impl Default for NilasConfig {
    fn default() -> Self {
        NilasConfig {
            buckets: TemporalCostBuckets::default(),
            cache_refresh: Duration::from_mins(1),
            repredict: true,
            fallback: None,
        }
    }
}

/// Counters describing how much prediction work NILAS performed; used by
/// the model-latency and cache-ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NilasStats {
    /// Number of individual VM repredictions issued.
    pub predictions: u64,
    /// Number of host scores answered from the cache.
    pub cache_hits: u64,
    /// Number of host scores recomputed.
    pub cache_misses: u64,
    /// Number of hosts the cache refresh passes looked at (changed, parked
    /// with CPU room for the request, or expired) — the work a placement
    /// pays before it scores anything.
    pub refresh_examined: u64,
    /// Number of empty hosts the empty-host level looked at (NILAS's empty
    /// tail, LAVA's last level): one leader per capacity shape that can
    /// hold the request, plus each unavailable or excluded empty host
    /// walked past — not every empty host.
    pub empty_examined: u64,
}

impl NilasStats {
    /// Fold cache-operation counters into the running totals.
    pub(crate) fn absorb(&mut self, counters: CacheCounters) {
        self.predictions += counters.predictions;
        self.cache_misses += counters.misses;
        self.refresh_examined += counters.examined;
    }
}

/// A candidate under consideration: `(temporal cost, waste, id)`, compared
/// with the same semantics as the lexicographic [`crate::scoring::ScoreVector`] (NaN is
/// worst, lowest id wins ties).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) cost: usize,
    pub(crate) waste: f64,
    pub(crate) id: HostId,
}

impl Candidate {
    pub(crate) fn better_than(&self, other: &Candidate) -> bool {
        if self.cost != other.cost {
            return self.cost < other.cost;
        }
        let a = if self.waste.is_nan() {
            f64::INFINITY
        } else {
            self.waste
        };
        let b = if other.waste.is_nan() {
            f64::INFINITY
        } else {
            other.waste
        };
        if a != b {
            return a < b;
        }
        self.id < other.id
    }
}

/// Replace `best` if `candidate` wins.
pub(crate) fn consider(best: &mut Option<Candidate>, candidate: Candidate) {
    match best {
        Some(current) if !candidate.better_than(current) => {}
        _ => *best = Some(candidate),
    }
}

/// The NILAS placement policy.
pub struct NilasPolicy {
    predictor: Arc<dyn LifetimePredictor>,
    config: NilasConfig,
    stats: NilasStats,
    /// Whether the policy is currently degraded to best-fit because the
    /// measured misprediction error crossed the fallback threshold.
    degraded: bool,
}

impl NilasPolicy {
    /// Create the policy.
    pub fn new(predictor: Arc<dyn LifetimePredictor>, config: NilasConfig) -> NilasPolicy {
        NilasPolicy {
            predictor,
            config,
            stats: NilasStats::default(),
            degraded: false,
        }
    }

    /// Create the policy with default configuration.
    pub fn with_defaults(predictor: Arc<dyn LifetimePredictor>) -> NilasPolicy {
        NilasPolicy::new(predictor, NilasConfig::default())
    }

    /// Prediction/cache counters accumulated so far.
    pub fn stats(&self) -> NilasStats {
        self.stats
    }

    /// The configured temporal-cost buckets.
    pub fn buckets(&self) -> &TemporalCostBuckets {
        &self.config.buckets
    }

    /// Whether the policy is currently degraded to the best-fit regime.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Force the degraded state (used by LAVA, which owns the fallback
    /// decision for its embedded tie-breaker).
    pub(crate) fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// The quantised temporal cost between a VM exit and a host exit —
    /// zero while degraded, so the lexicographic score collapses to pure
    /// waste minimisation.
    fn quantised_cost(&self, vm_exit: SimTime, host_exit: SimTime) -> usize {
        if self.degraded {
            0
        } else {
            self.config
                .buckets
                .cost(vm_exit.saturating_since(host_exit))
        }
    }

    /// `vm`'s predicted remaining lifetime at `now`. The scheduler predicts
    /// an arriving VM at the instant it is created, so a decision taken at
    /// that same instant reads the recorded answer instead of asking the
    /// predictor for it again; anything later (a resident VM) is a counted
    /// reprediction.
    fn repredict(&mut self, vm: &Vm, now: SimTime) -> Duration {
        vm.initial_prediction_at(now).unwrap_or_else(|| {
            self.stats.predictions += 1;
            self.predictor.predict_remaining(vm, now)
        })
    }

    /// The predicted exit time of the VM being scheduled.
    fn vm_exit_time(&mut self, vm: &Vm, now: SimTime) -> SimTime {
        let remaining = if self.config.repredict || vm.initial_prediction().is_none() {
            self.repredict(vm, now)
        } else {
            // One-shot view: remaining = initial prediction − uptime.
            vm.initial_prediction()
                .unwrap_or_default()
                .saturating_sub(vm.uptime(now))
        };
        now + remaining
    }

    /// The cached exit-time hint for a VM that was just placed: the exact
    /// value a full recompute would produce for this VM's contribution to
    /// its host's exit time.
    fn placement_hint(
        &mut self,
        cluster: &Cluster,
        vm: lava_core::vm::VmId,
        now: SimTime,
    ) -> Option<SimTime> {
        let record = cluster.vm(vm)?;
        if self.config.repredict {
            Some(now + self.repredict(record, now))
        } else {
            Some(record.created_at() + record.initial_prediction()?)
        }
    }

    /// Credit the cache hits and empty hosts examined by an embedding
    /// policy's candidate walk.
    pub(crate) fn add_walk_counts(&mut self, cache_hits: u64, empty_examined: u64) {
        self.stats.cache_hits += cache_hits;
        self.stats.empty_examined += empty_examined;
    }

    /// Bring the cluster exit cache up to date for a placement of
    /// `request` and absorb the counters.
    pub(crate) fn refresh_cache(&mut self, cluster: &Cluster, now: SimTime, request: Resources) {
        let mut counters = CacheCounters::default();
        cluster.refresh_exit_entries(
            self.predictor.as_ref(),
            now,
            self.config.cache_refresh,
            self.config.repredict,
            request,
            &mut counters,
        );
        self.stats.absorb(counters);
    }
}

impl PlacementPolicy for NilasPolicy {
    fn name(&self) -> &'static str {
        "nilas"
    }

    /// Walk occupied hosts in descending cached-exit order, stopping at the
    /// first cost bucket that cannot beat the best candidate, then consider
    /// empty hosts through the occupancy index.
    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        let vm_exit = self.vm_exit_time(vm, now);
        let request = vm.resources();
        self.refresh_cache(cluster, now, request);
        let mut hits = 0u64;
        let mut best: Option<Candidate> = None;
        {
            let cache = cluster.exit_cache_lock();
            for &(exit, id) in cache.by_exit.iter().rev() {
                let cost = self.quantised_cost(vm_exit, exit);
                if let Some(current) = &best {
                    if cost > current.cost {
                        // Exits are descending, so costs are non-decreasing:
                        // nothing further can win.
                        break;
                    }
                }
                if Some(id) == exclude {
                    continue;
                }
                let Some(host) = cluster.host(id) else {
                    continue;
                };
                if !host.can_fit(request) {
                    continue;
                }
                if cache.cached_before(id, now) {
                    hits += 1;
                }
                consider(
                    &mut best,
                    Candidate {
                        cost,
                        waste: waste_minimization_score(host, request),
                        id,
                    },
                );
            }
        }
        // Empty hosts all share exit == now, so only the leader of each
        // capacity shape can win.
        let empty_cost = self.quantised_cost(vm_exit, now);
        if best.as_ref().is_none_or(|b| empty_cost <= b.cost) {
            let mut leaders = cluster.pool().empty_leaders(request, exclude);
            for host in leaders.by_ref() {
                consider(
                    &mut best,
                    Candidate {
                        cost: empty_cost,
                        waste: waste_minimization_score(host, request),
                        id: host.id(),
                    },
                );
            }
            self.stats.empty_examined += leaders.examined();
        }
        self.stats.cache_hits += hits;
        best.map(|b| b.id)
    }

    fn on_vm_placed(
        &mut self,
        cluster: &mut Cluster,
        vm: lava_core::vm::VmId,
        host: HostId,
        now: SimTime,
    ) {
        // Incremental max-exit maintenance: raise the cached exit with the
        // placed VM's predicted exit instead of repredicting the host.
        match self.placement_hint(cluster, vm, now) {
            Some(vm_exit) => cluster.apply_exit_hint(host, vm_exit, now, self.config.cache_refresh),
            None => cluster.invalidate_exit(host),
        }
    }

    fn on_vm_exited(&mut self, cluster: &mut Cluster, host: HostId, _now: SimTime) {
        cluster.invalidate_exit(host);
    }

    fn on_model_health(&mut self, error: f64, samples: usize) {
        if let Some(spec) = self.config.fallback {
            self.degraded = spec.should_degrade(error, samples, self.degraded);
        }
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

    fn vm_at(id: u64, hours: u64, created: SimTime) -> Vm {
        Vm::new(
            VmId(id),
            VmSpec::builder(Resources::cores_gib(4, 16)).build(),
            created,
            Duration::from_hours(hours),
        )
    }

    fn vm(id: u64, hours: u64) -> Vm {
        vm_at(id, hours, SimTime::ZERO)
    }

    fn oracle_policy(config: NilasConfig) -> NilasPolicy {
        NilasPolicy::new(Arc::new(OraclePredictor::new()), config)
    }

    #[test]
    fn places_vm_on_host_it_does_not_outlive() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap(); // exits at 10h
        c.place(vm(2, 2), HostId(1)).unwrap(); // exits at 2h
        let mut p = oracle_policy(NilasConfig::default());
        // A 5h VM fits "inside" host 0 (ΔT = 0) but would extend host 1
        // (ΔT = 3h → cost 5); the paper's Figure 4 example.
        let chosen = p.choose_host(&c, &vm(10, 5), SimTime::ZERO, None).unwrap();
        assert_eq!(chosen, HostId(0));
        assert_eq!(p.name(), "nilas");
    }

    #[test]
    fn empty_host_is_least_preferred() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig::default());
        let chosen = p.choose_host(&c, &vm(10, 1), SimTime::ZERO, None).unwrap();
        assert_eq!(chosen, HostId(0), "should fill the occupied host first");
    }

    #[test]
    fn repredictions_correct_mispredicted_hosts() {
        // Host 0 holds a VM that outlived its initial 1h prediction and will
        // actually run for 100h. With repredictions NILAS sees the host as
        // long-lived and happily places a 50h VM there; without, it thinks
        // the host is about to free up and pays a large temporal cost.
        let now = SimTime::ZERO + Duration::from_hours(5);
        let mut c = cluster();
        let mut long_vm = vm(1, 100);
        long_vm.set_initial_prediction(Duration::from_hours(1));
        c.place(long_vm, HostId(0)).unwrap();
        // Host 1 holds a genuinely short VM (exits at 6h).
        let mut short_vm = vm(2, 6);
        short_vm.set_initial_prediction(Duration::from_hours(6));
        c.place(short_vm, HostId(1)).unwrap();

        let incoming = vm_at(10, 50, now);

        let mut with_repred = oracle_policy(NilasConfig::default());
        assert_eq!(
            with_repred.choose_host(&c, &incoming, now, None),
            Some(HostId(0))
        );

        let mut without = oracle_policy(NilasConfig {
            repredict: false,
            ..NilasConfig::default()
        });
        // One-shot view: host 0 "exits at 1h" (already past) and host 1
        // "exits at 6h"; both look equally bad temporally (max ΔT bucket),
        // so bin packing decides — and both hosts look identical there too,
        // meaning the mispredicted host is no longer protected.
        let chosen = without.choose_host(&c, &incoming, now, None).unwrap();
        assert_eq!(
            chosen,
            HostId(0),
            "tie broken by host id under one-shot view"
        );
    }

    /// One refresh pass for a request every host can fit; returns the
    /// misses it added.
    fn refresh_misses(p: &mut NilasPolicy, c: &Cluster, now: SimTime) -> u64 {
        let before = p.stats().cache_misses;
        p.refresh_cache(c, now, Resources::ZERO);
        p.stats().cache_misses - before
    }

    fn cached_exit(c: &Cluster, host: HostId, now: SimTime) -> SimTime {
        c.exit_cache_lock().exit_or_now(host, now)
    }

    #[test]
    fn cache_avoids_recomputation_within_refresh() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Duration::from_mins(15),
            ..NilasConfig::default()
        });
        let t0 = SimTime::ZERO;
        assert_eq!(p.choose_host(&c, &vm(10, 5), t0, None), Some(HostId(0)));
        let misses_before = p.stats().cache_misses;
        let later = t0 + Duration::from_mins(5);
        assert_eq!(
            p.choose_host(&c, &vm_at(11, 5, later), later, None),
            Some(HostId(0))
        );
        assert_eq!(p.stats().cache_misses, misses_before);
        assert!(p.stats().cache_hits >= 1);
        // After the refresh interval the score is recomputed.
        assert_eq!(refresh_misses(&mut p, &c, t0 + Duration::from_mins(30)), 1);
    }

    #[test]
    fn cache_invalidated_on_placement_and_exit() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Duration::from_hours(1),
            ..NilasConfig::default()
        });
        assert_eq!(refresh_misses(&mut p, &c, SimTime::ZERO), 1);
        // VM 2 has no record in the cluster, so no hint can be derived and
        // the entry must be invalidated outright.
        p.on_vm_placed(&mut c, VmId(2), HostId(0), SimTime::ZERO);
        assert_eq!(refresh_misses(&mut p, &c, SimTime(1)), 1);

        assert_eq!(refresh_misses(&mut p, &c, SimTime(2)), 0);
        p.on_vm_exited(&mut c, HostId(0), SimTime(2));
        assert_eq!(refresh_misses(&mut p, &c, SimTime(3)), 1);
    }

    #[test]
    fn placement_hint_keeps_cache_warm() {
        // When the placed VM has a live record, the placement hook heals
        // the cache entry instead of forcing a recompute.
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Duration::from_hours(1),
            ..NilasConfig::default()
        });
        assert_eq!(refresh_misses(&mut p, &c, SimTime::ZERO), 1);

        let mut v = vm(2, 20);
        v.set_initial_prediction(Duration::from_hours(20));
        c.place(v, HostId(0)).unwrap();
        p.on_vm_placed(&mut c, VmId(2), HostId(0), SimTime::ZERO);

        assert_eq!(
            refresh_misses(&mut p, &c, SimTime(1)),
            0,
            "served from cache"
        );
        assert_eq!(
            cached_exit(&c, HostId(0), SimTime(1)),
            SimTime::ZERO + Duration::from_hours(20)
        );
    }

    #[test]
    fn cache_expires_when_host_deadline_passes() {
        let mut c = cluster();
        c.place(vm(1, 1), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Duration::from_hours(100),
            ..NilasConfig::default()
        });
        assert_eq!(refresh_misses(&mut p, &c, SimTime::ZERO), 1);
        assert_eq!(
            cached_exit(&c, HostId(0), SimTime::ZERO),
            SimTime::ZERO + Duration::from_hours(1)
        );
        // Past the cached exit time the entry must be recomputed even though
        // the refresh interval has not elapsed.
        let later = SimTime::ZERO + Duration::from_hours(2);
        assert_eq!(refresh_misses(&mut p, &c, later), 1);
    }

    #[test]
    fn no_feasible_host_returns_none() {
        let c = cluster();
        let mut p = oracle_policy(NilasConfig::default());
        let huge = Vm::new(
            VmId(1),
            VmSpec::builder(Resources::cores_gib(64, 256)).build(),
            SimTime::ZERO,
            Duration::from_hours(1),
        );
        assert_eq!(p.choose_host(&c, &huge, SimTime::ZERO, None), None);
    }

    #[test]
    fn fallback_degrades_to_best_fit_and_recovers() {
        let mut c = cluster();
        c.place(vm(1, 2), HostId(0)).unwrap(); // exits at 2h
        c.place(vm(2, 10), HostId(1)).unwrap(); // exits at 10h
        let mut p = oracle_policy(NilasConfig {
            fallback: Some(FallbackSpec {
                threshold: 0.5,
                min_samples: 4,
            }),
            ..NilasConfig::default()
        });
        // Healthy: the temporal cost steers a 5h VM to the 10h host.
        let choose = |p: &mut NilasPolicy, id| p.choose_host(&c, &vm(id, 5), SimTime::ZERO, None);
        assert_eq!(choose(&mut p, 10), Some(HostId(1)), "healthy");
        // Error crosses the threshold: the cost is zeroed, both occupied
        // hosts tie on waste and the lowest id wins.
        p.on_model_health(0.9, 4);
        assert!(p.is_degraded());
        assert_eq!(choose(&mut p, 11), Some(HostId(0)), "degraded cost is zero");
        // Too few samples never degrade; recovery needs < 80% of the
        // threshold.
        p.on_model_health(0.45, 4);
        assert!(p.is_degraded(), "hysteresis holds at 0.45");
        p.on_model_health(0.3, 4);
        assert!(!p.is_degraded(), "recovered below 0.4");
        assert_eq!(choose(&mut p, 12), Some(HostId(1)), "model re-engaged");
        // Without a fallback spec, model health is ignored entirely.
        let mut p = oracle_policy(NilasConfig::default());
        p.on_model_health(10.0, 1000);
        assert!(!p.is_degraded());
    }

    #[test]
    fn zero_refresh_recomputes_at_every_new_instant() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Duration::ZERO,
            ..NilasConfig::default()
        });
        let decide = |p: &mut NilasPolicy, id, now| {
            let before = p.stats().cache_misses;
            assert_eq!(
                p.choose_host(&c, &vm_at(id, 5, now), now, None),
                Some(HostId(0))
            );
            p.stats().cache_misses - before
        };
        assert_eq!(decide(&mut p, 10, SimTime::ZERO), 1);
        // The entry is valid at the instant it was computed, and only then.
        assert_eq!(decide(&mut p, 11, SimTime::ZERO), 0);
        assert_eq!(decide(&mut p, 12, SimTime(1)), 1);
        assert_eq!(decide(&mut p, 13, SimTime(2)), 1);
        // An answer computed at the instant it is read is not a hit.
        assert_eq!(p.stats().cache_hits, 0);
    }
}
