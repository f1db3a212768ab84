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
use lava_core::resources::ResourceKind;
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

/// Compute a metric snapshot for a pool.
///
/// The per-host walk reads the pool's structure-of-arrays
/// [`capacity profile`](Pool::capacity_profile) — three contiguous
/// arrays — instead of striding through full host records, so the
/// per-sample cost is a cache-dense linear scan even at 100k+ hosts.
pub fn sample_pool(pool: &Pool, time: SimTime) -> MetricSample {
    let mut empty_free_cpu = 0u64;
    let mut total_free_cpu = 0u64;
    let mut nonempty_alloc_cpu = 0u64;
    let mut nonempty_total_cpu = 0u64;
    let profile = pool.capacity_profile();
    for ((free, &shape), vm_count) in profile
        .free
        .iter()
        .zip(profile.shape.iter())
        .zip(profile.vm_count.iter())
    {
        let free_cpu = free.get(ResourceKind::Cpu);
        total_free_cpu += free_cpu;
        if *vm_count == 0 {
            empty_free_cpu += free_cpu;
        } else {
            let capacity_cpu = profile.shapes[shape as usize].get(ResourceKind::Cpu);
            nonempty_alloc_cpu += capacity_cpu - free_cpu;
            nonempty_total_cpu += capacity_cpu;
        }
    }
    let capacity = pool.total_capacity();
    let used = pool.total_used();
    MetricSample {
        time,
        empty_host_fraction: pool.empty_host_fraction(),
        empty_to_free_ratio: ratio(empty_free_cpu, total_free_cpu),
        packing_density: ratio(nonempty_alloc_cpu, nonempty_total_cpu),
        cpu_utilization: ratio(used.get(ResourceKind::Cpu), capacity.get(ResourceKind::Cpu)),
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
    use lava_core::host::HostSpec;
    use lava_core::pool::PoolId;
    use lava_core::resources::Resources;
    use lava_core::vm::VmId;

    fn pool_with_occupancy() -> Pool {
        let mut pool =
            Pool::with_uniform_hosts(PoolId(0), 4, HostSpec::new(Resources::cores_gib(32, 128)));
        pool.place_vm(
            lava_core::host::HostId(0),
            VmId(1),
            Resources::cores_gib(16, 64),
        )
        .unwrap();
        pool.place_vm(
            lava_core::host::HostId(1),
            VmId(2),
            Resources::cores_gib(32, 128),
        )
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

    #[test]
    fn empty_series_means_are_zero() {
        let series = MetricSeries::new();
        assert_eq!(series.mean_empty_host_fraction(), 0.0);
        assert!(series.is_empty());
    }
}
