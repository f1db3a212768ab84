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
//! placement/removal/migration events, raised incrementally on placement,
//! and refreshed when their interval or their own exit time passes.
//!
//! The default (indexed) candidate scan exploits that the temporal cost is
//! monotone in the host exit time: hosts are visited from latest-exiting to
//! earliest via the cache's exit-time order and the scan stops as soon as
//! the cost bucket can no longer match the best candidate, instead of
//! scoring all hosts. Empty hosts (exit time = now) are enumerated through
//! the pool's occupancy index. A linear reference scan is retained for
//! parity tests and benchmarks ([`CandidateScan::Linear`]).

use crate::cluster::Cluster;
use crate::policy::{CacheCounters, CandidateScan, FallbackSpec, PlacementPolicy};
use crate::scoring::{waste_minimization_score, ScoreVector};
use lava_core::host::{Host, HostId};
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
    /// the host. `None` disables caching (every scoring pass repredicts).
    pub cache_refresh: Option<Duration>,
    /// If `false`, use only the initial (scheduling-time) predictions — the
    /// "no reprediction" ablation of Fig. 16, which behaves like LA's
    /// one-shot view with NILAS's scoring.
    pub repredict: bool,
    /// How candidates are enumerated. `Indexed` requires caching; with
    /// `cache_refresh: None` the policy falls back to the linear scan.
    pub scan: CandidateScan,
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
            cache_refresh: Some(Duration::from_mins(1)),
            repredict: true,
            scan: CandidateScan::Indexed,
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
}

impl NilasStats {
    /// Fold cache-operation counters into the running totals.
    pub(crate) fn absorb(&mut self, counters: CacheCounters) {
        self.predictions += counters.predictions;
        self.cache_hits += counters.hits;
        self.cache_misses += counters.misses;
        self.refresh_examined += counters.examined;
    }
}

/// A candidate under consideration: `(temporal cost, waste, id)`, compared
/// with the same semantics as the lexicographic [`ScoreVector`] (NaN is
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

    /// The configured candidate scan mode.
    pub fn scan_mode(&self) -> CandidateScan {
        self.config.scan
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

    /// The (possibly cached) expected exit time of a host at `now`.
    pub fn host_exit_time(&mut self, cluster: &Cluster, host: &Host, now: SimTime) -> SimTime {
        let mut counters = CacheCounters::default();
        let exit = cluster.cached_exit_time(
            host,
            self.predictor.as_ref(),
            now,
            self.config.cache_refresh,
            self.config.repredict,
            &mut counters,
        );
        self.stats.absorb(counters);
        exit
    }

    /// The quantised temporal cost of placing a VM expected to exit at
    /// `vm_exit` onto `host`.
    pub fn temporal_cost(
        &mut self,
        cluster: &Cluster,
        host: &Host,
        vm_exit: SimTime,
        now: SimTime,
    ) -> usize {
        let host_exit = self.host_exit_time(cluster, host, now);
        self.quantised_cost(vm_exit, host_exit)
    }

    /// `vm`'s predicted remaining lifetime at `now`. The scheduler predicts
    /// an arriving VM at the instant it is created, so a decision taken at
    /// that same instant reads the recorded answer instead of asking the
    /// predictor for it again; anything later (a migration target, a
    /// resident VM) is a counted reprediction.
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

    /// Credit cache hits observed by an embedding policy's indexed scan.
    pub(crate) fn add_cache_hits(&mut self, hits: u64) {
        self.stats.cache_hits += hits;
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

    /// Reference implementation: score every feasible host (the seed's
    /// enumeration, kept for parity tests and benchmarks). Exit times come
    /// from the same shared cache as the indexed scan.
    pub fn choose_host_linear(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        let vm_exit = self.vm_exit_time(vm, now);
        let request = vm.resources();
        let mut best: Option<(ScoreVector, HostId)> = None;
        let mut counters = CacheCounters::default();
        for host in cluster.hosts() {
            if Some(host.id()) == exclude || !host.can_fit(request) {
                continue;
            }
            let host_exit = cluster.cached_exit_time(
                host,
                self.predictor.as_ref(),
                now,
                self.config.cache_refresh,
                self.config.repredict,
                &mut counters,
            );
            let cost = self.quantised_cost(vm_exit, host_exit);
            let score = ScoreVector::new([cost as f64, waste_minimization_score(host, request)]);
            match &best {
                Some((best_score, _)) if !score.is_better_than(best_score) => {}
                _ => best = Some((score, host.id())),
            }
        }
        self.stats.absorb(counters);
        best.map(|(_, id)| id)
    }

    /// Indexed scan: walk occupied hosts in descending cached-exit order,
    /// stopping at the first cost bucket that cannot beat the best
    /// candidate, then consider empty hosts through the occupancy index.
    fn choose_host_indexed(
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
        // Empty hosts all share exit == now.
        let empty_cost = self.quantised_cost(vm_exit, now);
        if best.as_ref().is_none_or(|b| empty_cost <= b.cost) {
            for host in cluster.pool().empty_hosts() {
                if Some(host.id()) == exclude || !host.can_fit(request) {
                    continue;
                }
                consider(
                    &mut best,
                    Candidate {
                        cost: empty_cost,
                        waste: waste_minimization_score(host, request),
                        id: host.id(),
                    },
                );
            }
        }
        self.stats.cache_hits += hits;
        best.map(|b| b.id)
    }
}

impl PlacementPolicy for NilasPolicy {
    fn name(&self) -> &'static str {
        "nilas"
    }

    fn choose_host(
        &mut self,
        cluster: &Cluster,
        vm: &Vm,
        now: SimTime,
        exclude: Option<HostId>,
    ) -> Option<HostId> {
        match self.config.scan {
            CandidateScan::Indexed if self.config.cache_refresh.is_some() => {
                self.choose_host_indexed(cluster, vm, now, exclude)
            }
            _ => self.choose_host_linear(cluster, vm, now, exclude),
        }
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

    #[test]
    fn cache_avoids_recomputation_within_refresh() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Some(Duration::from_mins(15)),
            ..NilasConfig::default()
        });
        let host = c.host(HostId(0)).unwrap().clone();
        let t0 = SimTime::ZERO;
        let _ = p.host_exit_time(&c, &host, t0);
        let misses_before = p.stats().cache_misses;
        let _ = p.host_exit_time(&c, &host, t0 + Duration::from_mins(5));
        assert_eq!(p.stats().cache_misses, misses_before);
        assert!(p.stats().cache_hits >= 1);
        // After the refresh interval the score is recomputed.
        let _ = p.host_exit_time(&c, &host, t0 + Duration::from_mins(30));
        assert_eq!(p.stats().cache_misses, misses_before + 1);
    }

    #[test]
    fn cache_invalidated_on_placement_and_exit() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Some(Duration::from_hours(1)),
            ..NilasConfig::default()
        });
        let host = c.host(HostId(0)).unwrap().clone();
        let _ = p.host_exit_time(&c, &host, SimTime::ZERO);
        // VM 2 has no record in the cluster, so no hint can be derived and
        // the entry must be invalidated outright.
        p.on_vm_placed(&mut c, VmId(2), HostId(0), SimTime::ZERO);
        let misses_before = p.stats().cache_misses;
        let _ = p.host_exit_time(&c, &host, SimTime(1));
        assert_eq!(p.stats().cache_misses, misses_before + 1);

        let _ = p.host_exit_time(&c, &host, SimTime(2));
        p.on_vm_exited(&mut c, HostId(0), SimTime(2));
        let misses_before = p.stats().cache_misses;
        let _ = p.host_exit_time(&c, &host, SimTime(3));
        assert_eq!(p.stats().cache_misses, misses_before + 1);
    }

    #[test]
    fn placement_hint_keeps_cache_warm() {
        // When the placed VM has a live record, the placement hook heals
        // the cache entry instead of forcing a recompute.
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Some(Duration::from_hours(1)),
            ..NilasConfig::default()
        });
        let host = c.host(HostId(0)).unwrap().clone();
        let _ = p.host_exit_time(&c, &host, SimTime::ZERO);

        let mut v = vm(2, 20);
        v.set_initial_prediction(Duration::from_hours(20));
        c.place(v, HostId(0)).unwrap();
        p.on_vm_placed(&mut c, VmId(2), HostId(0), SimTime::ZERO);

        let misses_before = p.stats().cache_misses;
        let exit = p.host_exit_time(&c, &host, SimTime(1));
        assert_eq!(p.stats().cache_misses, misses_before, "served from cache");
        assert_eq!(exit, SimTime::ZERO + Duration::from_hours(20));
    }

    #[test]
    fn cache_expires_when_host_deadline_passes() {
        let mut c = cluster();
        c.place(vm(1, 1), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: Some(Duration::from_hours(100)),
            ..NilasConfig::default()
        });
        let host = c.host(HostId(0)).unwrap().clone();
        let exit = p.host_exit_time(&c, &host, SimTime::ZERO);
        assert_eq!(exit, SimTime::ZERO + Duration::from_hours(1));
        // Past the cached exit time the entry must be recomputed even though
        // the refresh interval has not elapsed.
        let misses_before = p.stats().cache_misses;
        let _ = p.host_exit_time(&c, &host, SimTime::ZERO + Duration::from_hours(2));
        assert_eq!(p.stats().cache_misses, misses_before + 1);
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
    fn indexed_and_linear_scans_agree() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        c.place(vm(2, 2), HostId(1)).unwrap();
        c.place(vm(3, 40), HostId(2)).unwrap();
        for (id, hours) in [(10u64, 5u64), (11, 1), (12, 100), (13, 30)] {
            let mut indexed = oracle_policy(NilasConfig::default());
            let mut linear = oracle_policy(NilasConfig {
                scan: CandidateScan::Linear,
                ..NilasConfig::default()
            });
            let request = vm(id, hours);
            assert_eq!(
                indexed.choose_host(&c, &request, SimTime::ZERO, None),
                linear.choose_host(&c, &request, SimTime::ZERO, None),
                "vm {id} ({hours}h)"
            );
        }
    }

    #[test]
    fn fallback_degrades_to_best_fit_and_recovers() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap(); // exits at 10h
        c.place(vm(2, 2), HostId(1)).unwrap(); // exits at 2h
        let fallback = FallbackSpec {
            threshold: 0.5,
            min_samples: 4,
        };
        for scan in [CandidateScan::Indexed, CandidateScan::Linear] {
            let mut p = oracle_policy(NilasConfig {
                fallback: Some(fallback),
                scan,
                ..NilasConfig::default()
            });
            // Healthy: the temporal cost steers a 5h VM to the 10h host.
            let request = vm(10, 5);
            assert_eq!(
                p.choose_host(&c, &request, SimTime::ZERO, None),
                Some(HostId(0)),
                "{scan}: healthy"
            );
            // Error crosses the threshold: cost zeroed, both occupied
            // hosts tie on waste and the lowest id wins — but crucially
            // the temporal term no longer differentiates them. Verify via
            // the public temporal_cost figure.
            p.on_model_health(0.9, 4);
            assert!(p.is_degraded());
            let host1 = c.host(HostId(1)).unwrap().clone();
            assert_eq!(
                p.temporal_cost(
                    &c,
                    &host1,
                    SimTime::ZERO + Duration::from_hours(5),
                    SimTime::ZERO
                ),
                0,
                "{scan}: degraded cost is zero"
            );
            // Too few samples never degrade; recovery needs < 80% of the
            // threshold.
            p.on_model_health(0.45, 4);
            assert!(p.is_degraded(), "{scan}: hysteresis holds at 0.45");
            p.on_model_health(0.3, 4);
            assert!(!p.is_degraded(), "{scan}: recovered below 0.4");
            assert_eq!(
                p.choose_host(&c, &vm(11, 5), SimTime::ZERO, None),
                Some(HostId(0)),
                "{scan}: model re-engaged"
            );
        }
        // Without a fallback spec, model health is ignored entirely.
        let mut p = oracle_policy(NilasConfig::default());
        p.on_model_health(10.0, 1000);
        assert!(!p.is_degraded());
    }

    #[test]
    fn cache_disabled_falls_back_to_linear() {
        let mut c = cluster();
        c.place(vm(1, 10), HostId(0)).unwrap();
        let mut p = oracle_policy(NilasConfig {
            cache_refresh: None,
            ..NilasConfig::default()
        });
        let chosen = p.choose_host(&c, &vm(10, 5), SimTime::ZERO, None).unwrap();
        assert_eq!(chosen, HostId(0));
        assert_eq!(p.stats().cache_hits, 0);
        assert!(p.stats().cache_misses > 0);
    }
}
