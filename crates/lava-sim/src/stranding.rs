//! Stranding measurement via inflation simulation (§2.3).
//!
//! The paper measures resource stranding by taking a representative mix of
//! VMs and simulating scheduling as many of them as possible until capacity
//! is exhausted; whatever free resources remain cannot fit any more VMs and
//! are therefore *stranded*. We reproduce that pipeline on a copy of each
//! host's free capacity: greedily pack VMs drawn from the representative
//! mix (best fit), and report the leftover CPU and memory fractions.

use lava_core::pool::Pool;
use lava_core::resources::{ResourceKind, Resources};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The outcome of an inflation simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrandingReport {
    /// Free CPU that could not be used by any VM in the mix, as a fraction
    /// of total pool CPU.
    pub stranded_cpu_fraction: f64,
    /// Free memory that could not be used, as a fraction of total memory.
    pub stranded_memory_fraction: f64,
    /// Number of synthetic VMs that were packed before capacity ran out.
    pub vms_packed: usize,
}

/// The representative VM mix used for inflation (shapes and weights).
///
/// The default mirrors the common shapes of the synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InflationMix {
    /// `(shape, weight)` pairs; the mix is cycled proportionally to weight.
    pub shapes: Vec<(Resources, u32)>,
}

impl Default for InflationMix {
    fn default() -> Self {
        InflationMix {
            shapes: vec![
                (Resources::cores_gib(2, 8), 4),
                (Resources::cores_gib(4, 16), 3),
                (Resources::cores_gib(8, 32), 2),
                (Resources::cores_gib(16, 64), 1),
            ],
        }
    }
}

impl InflationMix {
    /// The deterministic sequence of shapes to attempt, proportional to the
    /// weights, largest shapes first within each round (packing large shapes
    /// first measures obtainability more strictly).
    fn sequence(&self) -> Vec<Resources> {
        let mut seq: Vec<Resources> = Vec::new();
        for (shape, weight) in &self.shapes {
            for _ in 0..*weight {
                seq.push(*shape);
            }
        }
        seq.sort_by_key(|r| std::cmp::Reverse(r.cpu_milli));
        seq
    }
}

/// Run the inflation simulation against a snapshot of the pool and report
/// stranded resources.
///
/// The pool itself is not modified: packing happens on a copy of each
/// host's free capacity.
pub fn measure_stranding(pool: &Pool, mix: &InflationMix) -> StrandingReport {
    let capacity = pool.total_capacity();
    let sequence = mix.sequence();
    if sequence.is_empty() {
        return StrandingReport {
            stranded_cpu_fraction: 0.0,
            stranded_memory_fraction: 0.0,
            vms_packed: 0,
        };
    }
    // Free and total capacity of each host open to scheduling, in id order.
    let mut hosts: Vec<(Resources, Resources)> = pool
        .hosts()
        .filter(|h| !h.is_unavailable())
        .map(|h| (h.free(), h.capacity()))
        .collect();
    let mut total_free = pool.total_free();
    let mut packed = 0usize;
    loop {
        let mut placed_any = false;
        for shape in &sequence {
            // Best-fit placement of this synthetic VM: the first host the
            // shape leaves least free.
            let left = |h: &(Resources, Resources)| h.0.saturating_sub(shape).normalized_sum(&h.1);
            let target = hosts
                .iter_mut()
                .filter(|(free, _)| free.fits(shape))
                .min_by(|a, b| left(a).partial_cmp(&left(b)).unwrap_or(Ordering::Equal));
            if let Some((free, _)) = target {
                *free -= *shape;
                total_free -= *shape;
                packed += 1;
                placed_any = true;
            }
        }
        if !placed_any {
            break;
        }
    }
    StrandingReport {
        stranded_cpu_fraction: fraction(
            total_free.get(ResourceKind::Cpu),
            capacity.get(ResourceKind::Cpu),
        ),
        stranded_memory_fraction: fraction(
            total_free.get(ResourceKind::Memory),
            capacity.get(ResourceKind::Memory),
        ),
        vms_packed: packed,
    }
}

fn fraction(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::{HostId, HostSpec};
    use lava_core::pool::PoolId;
    use lava_core::vm::VmId;

    fn pool(hosts: usize) -> Pool {
        Pool::with_uniform_hosts(
            PoolId(0),
            hosts,
            HostSpec::new(Resources::cores_gib(32, 128)),
        )
    }

    #[test]
    fn empty_pool_has_no_stranding() {
        let report = measure_stranding(&pool(4), &InflationMix::default());
        assert!(report.stranded_cpu_fraction < 1e-9);
        assert!(report.vms_packed > 0);
    }

    #[test]
    fn imbalanced_occupancy_strands_memory() {
        // Occupy almost all CPU but little memory on every host: the
        // leftover memory cannot be used by any shape in the mix.
        let mut p = pool(4);
        for i in 0..4u64 {
            p.place_vm(HostId(i), VmId(i), Resources::new(31_000, 8 * 1024, 0))
                .unwrap();
        }
        let report = measure_stranding(&p, &InflationMix::default());
        assert!(
            report.stranded_memory_fraction > 0.5,
            "memory stranding {report:?}"
        );
        assert!(report.stranded_cpu_fraction < 0.05);
    }

    #[test]
    fn original_pool_is_untouched() {
        let p = pool(2);
        let before = p.vm_count();
        let _ = measure_stranding(&p, &InflationMix::default());
        assert_eq!(p.vm_count(), before);
    }

    #[test]
    fn empty_mix_reports_zero() {
        let report = measure_stranding(&pool(2), &InflationMix { shapes: vec![] });
        assert_eq!(report.vms_packed, 0);
        assert_eq!(report.stranded_cpu_fraction, 0.0);
    }
}
