//! Lexicographic host scoring, mirroring Borg's scoring structure (§2.2).
//!
//! Borg evaluates one scoring dimension at a time, using the next dimension
//! only to break ties. NILAS inserts its temporal cost one level above the
//! bin-packing score; LAVA adds a coarser class-preference dimension above
//! that. This module provides the [`ScoreVector`] type (lower is better,
//! compared lexicographically) and the shared bin-packing score dimensions.
//!
//! [`ScoreVector`] is a fixed-capacity inline value: scoring a candidate
//! host performs no heap allocation, which matters because the baseline
//! and LA-Binary policies score every feasible host per decision. NILAS
//! and LAVA rank hosts on their candidate walk with the narrower
//! `(temporal cost, waste, id)` triple of `crate::nilas`, reaching the
//! class levels through the pool's indexes instead of a score dimension.

use lava_core::host::Host;
use lava_core::resources::Resources;
use std::cmp::Ordering;

/// Maximum number of lexicographic dimensions a score can carry: four, the
/// most any scorer builds (the brute-force reading of LAVA's Algorithm 3
/// in `tests/scan_parity.rs`: level, class distance, temporal cost, waste).
pub const MAX_SCORE_DIMS: usize = 4;

/// A lexicographic score: earlier entries dominate later ones, and lower is
/// better in every dimension. Stored inline (no heap allocation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreVector {
    dims: [f64; MAX_SCORE_DIMS],
    len: u8,
}

impl ScoreVector {
    /// Create a score from its dimensions (most significant first).
    ///
    /// The dimension count is checked at compile time against
    /// [`MAX_SCORE_DIMS`].
    pub fn new<const N: usize>(dims: [f64; N]) -> ScoreVector {
        const {
            assert!(N <= MAX_SCORE_DIMS, "too many score dimensions");
        }
        let mut inline = [0.0; MAX_SCORE_DIMS];
        inline[..N].copy_from_slice(&dims);
        ScoreVector {
            dims: inline,
            len: N as u8,
        }
    }

    /// The raw dimensions.
    pub fn dims(&self) -> &[f64] {
        &self.dims[..self.len as usize]
    }

    /// Lexicographic comparison treating NaN as "worst".
    pub fn compare(&self, other: &ScoreVector) -> Ordering {
        for (a, b) in self.dims().iter().zip(other.dims().iter()) {
            let a = if a.is_nan() { f64::INFINITY } else { *a };
            let b = if b.is_nan() { f64::INFINITY } else { *b };
            match a.partial_cmp(&b).unwrap_or(Ordering::Equal) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.len.cmp(&other.len)
    }

    /// True if `self` is strictly better (lower) than `other`.
    pub fn is_better_than(&self, other: &ScoreVector) -> bool {
        self.compare(other) == Ordering::Less
    }
}

/// The classic Best Fit bin-packing score: the normalised free resources
/// left on the host *after* placing the request. Lower means a tighter fit.
///
/// This is the scoring used by LA (Barbalho et al., 2023).
pub fn best_fit_score(host: &Host, request: Resources) -> f64 {
    let free_after = host.free().saturating_sub(&request);
    free_after.normalized_sum(&host.capacity())
}

/// Borg's Waste-Minimisation score (§2.2): prefer placements that preserve
/// *useful empty shapes* for anticipated workloads.
///
/// The score combines two terms (both lower-is-better):
///
/// 1. the resource-imbalance of the host after placement — free CPU and
///    free memory fractions that diverge strand whichever resource is in
///    excess (§2.3's stranding example: "a host may contain free memory but
///    no free CPUs");
/// 2. the best-fit tightness, weighted less than imbalance.
///
/// Keeping the free shape balanced means the leftover space still matches
/// typical VM shapes, which is the essence of the production baseline
/// without modelling Google's specific shape forecast.
pub fn waste_minimization_score(host: &Host, request: Resources) -> f64 {
    let capacity = host.capacity();
    let free_after = host.free().saturating_sub(&request);
    let cpu_frac = free_after.fraction_of(&capacity, lava_core::resources::ResourceKind::Cpu);
    let mem_frac = free_after.fraction_of(&capacity, lava_core::resources::ResourceKind::Memory);
    let imbalance = (cpu_frac - mem_frac).abs();
    let tightness = free_after.normalized_sum(&capacity);
    2.0 * imbalance + tightness
}

/// Empty-host preservation dimension: 1.0 for an empty host, 0.0 otherwise.
/// Placing this dimension above the bin-packing score makes the scheduler
/// open a new (empty) host only when no occupied host fits, which is how the
/// production baseline protects empty hosts.
pub fn avoid_empty_host_score(host: &Host) -> f64 {
    if host.is_empty() {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::host::{HostId, HostSpec};
    use lava_core::pool::{Pool, PoolId};
    use lava_core::vm::VmId;

    fn host_with_used(used_cores: u64, used_mem_gib: u64) -> Host {
        let spec = HostSpec::new(Resources::cores_gib(32, 128));
        let mut pool = Pool::with_uniform_hosts(PoolId(0), 1, spec);
        if used_cores > 0 || used_mem_gib > 0 {
            pool.place_vm(
                HostId(0),
                VmId(1),
                Resources::cores_gib(used_cores, used_mem_gib),
            )
            .unwrap();
        }
        pool.host(HostId(0)).unwrap().clone()
    }

    #[test]
    fn score_vector_lexicographic() {
        let a = ScoreVector::new([1.0, 5.0]);
        let b = ScoreVector::new([1.0, 7.0]);
        let c = ScoreVector::new([0.0, 100.0]);
        assert!(a.is_better_than(&b));
        assert!(c.is_better_than(&a));
        assert_eq!(a.compare(&a), Ordering::Equal);
        assert_eq!(a.dims(), &[1.0, 5.0]);
    }

    #[test]
    fn score_vector_nan_is_worst() {
        let nan = ScoreVector::new([f64::NAN]);
        let fine = ScoreVector::new([1e9]);
        assert!(fine.is_better_than(&nan));
    }

    #[test]
    fn shorter_vector_wins_ties() {
        let a = ScoreVector::new([1.0]);
        let b = ScoreVector::new([1.0, 0.0]);
        assert!(a.is_better_than(&b));
    }

    #[test]
    fn score_vector_is_inline_copy() {
        // The score must be Copy (no heap state) for the hot path.
        fn assert_copy<T: Copy>() {}
        assert_copy::<ScoreVector>();
        assert!(std::mem::size_of::<ScoreVector>() <= (MAX_SCORE_DIMS + 1) * 8);
    }

    #[test]
    fn best_fit_prefers_tighter_host() {
        let tight = host_with_used(24, 96);
        let loose = host_with_used(4, 16);
        let request = Resources::cores_gib(4, 16);
        assert!(best_fit_score(&tight, request) < best_fit_score(&loose, request));
    }

    #[test]
    fn waste_minimization_penalises_imbalance() {
        // Host A would be left with balanced free resources, host B with
        // free memory but no free CPU (stranded memory).
        let host = host_with_used(0, 0);
        let balanced_request = Resources::cores_gib(16, 64);
        let imbalanced_request = Resources::cores_gib(31, 16);
        assert!(
            waste_minimization_score(&host, balanced_request)
                < waste_minimization_score(&host, imbalanced_request)
        );
    }

    #[test]
    fn avoid_empty_host_dimension() {
        assert_eq!(avoid_empty_host_score(&host_with_used(0, 0)), 1.0);
        assert_eq!(avoid_empty_host_score(&host_with_used(1, 1)), 0.0);
    }
}
