//! Bin-packing quality metrics (§2.3, Appendix D).
//!
//! * **Empty hosts** — fraction of hosts with no VMs; the paper's primary
//!   metric (1 pp ≈ 1 % of pool capacity).
//! * **Empty-to-free ratio** — free CPU on completely empty hosts divided by
//!   all free CPU.
//! * **Packing density** — allocated cores on non-empty hosts divided by
//!   total cores on non-empty hosts (the metric used by Barbalho et al.).
//! * **Utilisation** — allocated CPU over total CPU, used for simulator
//!   validation (Fig. 14).
//!
//! [`SimulationResult`] is what one run hands back: its [`MetricSeries`]
//! plus the scheduler's counters.

use lava_core::pool::Pool;
use lava_core::resources::{ResourceKind, Resources};
use lava_core::time::SimTime;
use lava_sched::scheduler::SchedulerStats;
use serde::{Deserialize, Serialize};

/// A snapshot of the bin-packing metrics at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// Fraction of hosts that are completely empty.
    pub empty_host_fraction: f64,
    /// Free CPU on empty hosts / total free CPU.
    pub empty_to_free_ratio: f64,
    /// Allocated cores on non-empty hosts / total cores on non-empty hosts.
    pub packing_density: f64,
    /// Allocated CPU / total CPU across the pool.
    pub cpu_utilization: f64,
    /// Allocated memory / total memory across the pool.
    pub memory_utilization: f64,
    /// Number of live VMs.
    pub live_vms: usize,
    /// Mean |log10(predicted remaining) − log10(actual remaining)| over a
    /// strided sample of live VMs — the live prediction-accuracy probe.
    /// Only populated when the recorder's accuracy probe is enabled
    /// (chaos/adaptation runs); `0.0` otherwise and in pre-probe JSON.
    #[serde(default)]
    pub mean_abs_log10_error: f64,
}

/// Compute a metric snapshot for a pool: O(1), from the pool's
/// aggregates. An empty host reserves nothing, so the free CPU on empty
/// hosts is their capacity and every reserved core sits on a non-empty
/// host; the sums are exact, so each ratio is the one a walk over the
/// hosts would give.
pub fn sample_pool(pool: &Pool, time: SimTime) -> MetricSample {
    let cpu = |r: Resources| r.get(ResourceKind::Cpu);
    let capacity = pool.total_capacity();
    let used = pool.total_used();
    let empty_cpu = cpu(pool.empty_capacity());
    MetricSample {
        time,
        empty_host_fraction: pool.empty_host_fraction(),
        empty_to_free_ratio: ratio(empty_cpu, cpu(pool.total_free())),
        packing_density: ratio(cpu(used), cpu(capacity) - empty_cpu),
        cpu_utilization: ratio(cpu(used), cpu(capacity)),
        memory_utilization: ratio(
            used.get(ResourceKind::Memory),
            capacity.get(ResourceKind::Memory),
        ),
        live_vms: pool.vm_count(),
        mean_abs_log10_error: 0.0,
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// A recorded time series of metric samples with summary helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSeries {
    samples: Vec<MetricSample>,
}

impl MetricSeries {
    /// Create an empty series.
    pub fn new() -> MetricSeries {
        MetricSeries::default()
    }

    /// Append a sample.
    pub fn push(&mut self, sample: MetricSample) {
        self.samples.push(sample);
    }

    /// All samples, in insertion (time) order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of an arbitrary per-sample metric (0.0 when empty).
    pub fn mean_of<F: Fn(&MetricSample) -> f64>(&self, f: F) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(f).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean empty-host fraction over the series.
    pub fn mean_empty_host_fraction(&self) -> f64 {
        self.mean_of(|s| s.empty_host_fraction)
    }

    /// Mean packing density over the series.
    pub fn mean_packing_density(&self) -> f64 {
        self.mean_of(|s| s.packing_density)
    }

    /// Mean empty-to-free ratio over the series.
    pub fn mean_empty_to_free(&self) -> f64 {
        self.mean_of(|s| s.empty_to_free_ratio)
    }

    /// Mean CPU utilisation over the series.
    pub fn mean_cpu_utilization(&self) -> f64 {
        self.mean_of(|s| s.cpu_utilization)
    }

    /// Mean live prediction error (|log10| space) over the series. Zero
    /// unless the accuracy probe was enabled on the run.
    pub fn mean_abs_log10_error(&self) -> f64 {
        self.mean_of(|s| s.mean_abs_log10_error)
    }

    /// Restrict to samples inside `[start, end)` — phase slicing for
    /// before/during/after incident analysis.
    pub fn between(&self, start: SimTime, end: SimTime) -> MetricSeries {
        MetricSeries {
            samples: self
                .samples
                .iter()
                .filter(|s| s.time >= start && s.time < end)
                .copied()
                .collect(),
        }
    }

    /// Restrict to samples taken at or after `start`.
    pub fn since(&self, start: SimTime) -> MetricSeries {
        MetricSeries {
            samples: self
                .samples
                .iter()
                .filter(|s| s.time >= start)
                .copied()
                .collect(),
        }
    }

    /// The empty-host fraction values as a plain vector (for the causal /
    /// A/B analyses).
    pub fn empty_host_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.empty_host_fraction).collect()
    }
}

/// The outcome of one simulation run, assembled from the run's observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Name of the placement algorithm that was evaluated.
    pub algorithm: String,
    /// Name of the predictor that was used.
    pub predictor: String,
    /// Metric samples from the end of warm-up (from time zero with
    /// `sample_during_warmup`), up to the last arrival.
    pub series: MetricSeries,
    /// Scheduler counters (placements, failures, exits, migrations).
    pub scheduler_stats: SchedulerStats,
    /// Number of creation events that could not be placed.
    pub rejected_vms: u64,
}

impl SimulationResult {
    /// Mean post-warm-up empty-host fraction (the paper's headline metric).
    ///
    /// Delegates to [`MetricSeries::mean_empty_host_fraction`] — the series
    /// is the single source of truth for per-sample summary statistics.
    pub fn mean_empty_host_fraction(&self) -> f64 {
        self.series.mean_empty_host_fraction()
    }

    /// Mean packing density over the series (delegates to the series).
    pub fn mean_packing_density(&self) -> f64 {
        self.series.mean_packing_density()
    }

    /// Mean CPU utilisation over the series (delegates to the series).
    pub fn mean_cpu_utilization(&self) -> f64 {
        self.series.mean_cpu_utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::{HostId, HostSpec};
    use lava_core::pool::PoolId;
    use lava_core::vm::VmId;
    use proptest::prelude::*;

    fn pool_with_occupancy() -> Pool {
        let mut pool =
            Pool::with_uniform_hosts(PoolId(0), 4, HostSpec::new(Resources::cores_gib(32, 128)));
        pool.place_vm(HostId(0), VmId(1), Resources::cores_gib(16, 64))
            .unwrap();
        pool.place_vm(HostId(1), VmId(2), Resources::cores_gib(32, 128))
            .unwrap();
        pool
    }

    #[test]
    fn sample_metrics_are_consistent() {
        let pool = pool_with_occupancy();
        let s = sample_pool(&pool, SimTime(10));
        assert_eq!(s.live_vms, 2);
        assert!((s.empty_host_fraction - 0.5).abs() < 1e-12);
        // Free CPU: host0=16, host2=32, host3=32 → 80; empty free = 64.
        assert!((s.empty_to_free_ratio - 64.0 / 80.0).abs() < 1e-12);
        // Non-empty hosts: 48 allocated of 64 cores.
        assert!((s.packing_density - 48.0 / 64.0).abs() < 1e-12);
        assert!((s.cpu_utilization - 48.0 / 128.0).abs() < 1e-12);
        assert!((s.memory_utilization - 192.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_sample_is_all_zero_density() {
        let pool =
            Pool::with_uniform_hosts(PoolId(0), 2, HostSpec::new(Resources::cores_gib(32, 128)));
        let s = sample_pool(&pool, SimTime::ZERO);
        assert_eq!(s.packing_density, 0.0);
        assert_eq!(s.empty_host_fraction, 1.0);
        assert_eq!(s.empty_to_free_ratio, 1.0);
    }

    #[test]
    fn series_means_and_since() {
        let mut series = MetricSeries::new();
        for i in 0..10u64 {
            let mut s = sample_pool(&pool_with_occupancy(), SimTime(i * 100));
            s.empty_host_fraction = i as f64 / 10.0;
            series.push(s);
        }
        assert_eq!(series.len(), 10);
        assert!(!series.is_empty());
        assert!((series.mean_empty_host_fraction() - 0.45).abs() < 1e-12);
        let tail = series.since(SimTime(500));
        assert_eq!(tail.len(), 5);
        assert!((tail.mean_empty_host_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(series.empty_host_series().len(), 10);
        assert!(series.mean_packing_density() > 0.0);
        assert!(series.mean_empty_to_free() > 0.0);
        assert!(series.mean_cpu_utilization() > 0.0);
    }

    /// [`sample_pool`] by walking every host: the reference its O(1)
    /// sums must match.
    fn walked_sample(pool: &Pool, time: SimTime) -> MetricSample {
        let cpu = |r: Resources| r.get(ResourceKind::Cpu);
        let (mut empty_free, mut free, mut alloc, mut total) = (0, 0, 0, 0);
        for host in pool.hosts() {
            free += cpu(host.free());
            if host.vm_count() == 0 {
                empty_free += cpu(host.free());
            } else {
                alloc += cpu(host.capacity()) - cpu(host.free());
                total += cpu(host.capacity());
            }
        }
        let capacity: Resources = pool.hosts().map(|h| h.capacity()).sum();
        let used: Resources = pool.hosts().map(|h| h.used()).sum();
        let empty = pool.hosts().filter(|h| h.is_empty()).count();
        MetricSample {
            time,
            empty_host_fraction: empty as f64 / pool.host_count() as f64,
            empty_to_free_ratio: ratio(empty_free, free),
            packing_density: ratio(alloc, total),
            cpu_utilization: ratio(cpu(used), cpu(capacity)),
            memory_utilization: ratio(
                used.get(ResourceKind::Memory),
                capacity.get(ResourceKind::Memory),
            ),
            live_vms: pool.hosts().map(|h| h.vm_count()).sum(),
            mean_abs_log10_error: 0.0,
        }
    }

    /// Every field of a sample, floats as their bits.
    fn bits(s: &MetricSample) -> [u64; 8] {
        [
            s.time.as_secs(),
            s.empty_host_fraction.to_bits(),
            s.empty_to_free_ratio.to_bits(),
            s.packing_density.to_bits(),
            s.cpu_utilization.to_bits(),
            s.memory_utilization.to_bits(),
            s.live_vms as u64,
            s.mean_abs_log10_error.to_bits(),
        ]
    }

    proptest! {
        /// The O(1) sample matches a walk over the hosts bit for bit under
        /// place / remove / availability churn on a pool of two shapes.
        #[test]
        fn prop_sample_matches_a_host_walk(
            ops in proptest::collection::vec((0u64..8, 0u64..24, 1u64..20, 0u8..4), 1..150)
        ) {
            let mut pool = Pool::new(PoolId(0));
            for i in 0..8 {
                let cores = if i % 3 == 0 { 16 } else { 48 };
                pool.add_host(HostSpec::new(Resources::cores_gib(cores, cores * 4)));
            }
            for (step, (host, vm, cores, action)) in ops.into_iter().enumerate() {
                let (host, vm) = (HostId(host), VmId(vm));
                let request = Resources::cores_gib(cores, cores * 2);
                match action {
                    0 | 1 => {
                        if pool.host_of(vm).is_some() {
                            pool.remove_vm(vm).unwrap();
                        } else if pool.host(host).is_some_and(|h| h.can_fit(request)) {
                            pool.place_vm(host, vm, request).unwrap();
                        }
                    }
                    2 => {
                        if pool.host_of(vm).is_some() {
                            pool.remove_vm(vm).unwrap();
                        }
                    }
                    _ => {
                        let mut h = pool.host_mut(host).unwrap();
                        let withheld = h.is_unavailable();
                        h.set_unavailable(!withheld);
                    }
                }
                let at = SimTime(step as u64);
                prop_assert_eq!(bits(&sample_pool(&pool, at)), bits(&walked_sample(&pool, at)));
            }
            prop_assert!(pool.validate_index().is_ok(), "{:?}", pool.validate_index());
        }
    }

    #[test]
    fn empty_series_means_are_zero() {
        let series = MetricSeries::new();
        assert_eq!(series.mean_empty_host_fraction(), 0.0);
        assert!(series.is_empty());
    }
}
