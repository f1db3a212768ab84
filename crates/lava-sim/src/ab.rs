//! A/B experiment analysis (§5.2, Table 1).
//!
//! In production the paper splits a pool's hosts in half and applies the new
//! scheduling algorithm to one half. In simulation we run the control and
//! treatment configurations on the same trace and compare the resulting
//! empty-host time series with a paired analysis: the mean difference in
//! percentage points and an approximate p-value from a paired t-test
//! (normal approximation, which is accurate for the series lengths used in
//! the experiments).

use serde::{Deserialize, Serialize};

/// The result of comparing a treatment time series against a control.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbResult {
    /// Mean difference (treatment − control) in percentage points.
    pub mean_difference_pp: f64,
    /// Two-sided p-value of the paired test.
    pub p_value: f64,
    /// Number of paired samples used.
    pub samples: usize,
}

/// Paired comparison of two equally sampled fraction series (values in
/// `[0, 1]`); the difference is reported in percentage points.
///
/// Series of different lengths are truncated to the shorter one. Returns a
/// degenerate result (p-value 1.0) when fewer than two pairs are available.
pub fn paired_comparison(treatment: &[f64], control: &[f64]) -> AbResult {
    let n = treatment.len().min(control.len());
    if n < 2 {
        return AbResult {
            mean_difference_pp: 0.0,
            p_value: 1.0,
            samples: n,
        };
    }
    let diffs: Vec<f64> = treatment
        .iter()
        .zip(control.iter())
        .take(n)
        .map(|(t, c)| (t - c) * 100.0)
        .collect();
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    let se = (var / n as f64).sqrt();
    let p_value = if se <= f64::EPSILON {
        if mean.abs() <= f64::EPSILON {
            1.0
        } else {
            0.0
        }
    } else {
        let t = mean / se;
        2.0 * (1.0 - standard_normal_cdf(t.abs()))
    };
    AbResult {
        mean_difference_pp: mean,
        p_value,
        samples: n,
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max error ~1.5e-7, plenty for reporting p-values).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clear_improvement_is_significant() {
        let control: Vec<f64> = (0..100).map(|i| 0.20 + 0.001 * (i % 7) as f64).collect();
        let treatment: Vec<f64> = control.iter().map(|c| c + 0.05).collect();
        let result = paired_comparison(&treatment, &control);
        assert!((result.mean_difference_pp - 5.0).abs() < 0.2);
        assert!(result.p_value < 0.01);
        assert_eq!(result.samples, 100);
    }

    #[test]
    fn identical_series_are_not_significant() {
        let series: Vec<f64> = (0..50).map(|i| 0.3 + 0.01 * (i % 5) as f64).collect();
        let result = paired_comparison(&series, &series);
        assert_eq!(result.mean_difference_pp, 0.0);
        assert!(result.p_value > 0.9);
    }

    #[test]
    fn noisy_zero_effect_is_not_significant() {
        // Alternating +/- differences cancel out.
        let control: Vec<f64> = (0..100).map(|_| 0.3).collect();
        let treatment: Vec<f64> = (0..100)
            .map(|i| 0.3 + if i % 2 == 0 { 0.02 } else { -0.02 })
            .collect();
        let result = paired_comparison(&treatment, &control);
        assert!(result.mean_difference_pp.abs() < 0.5);
        assert!(result.p_value > 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(paired_comparison(&[], &[]).samples, 0);
        assert_eq!(paired_comparison(&[0.5], &[0.4]).p_value, 1.0);
        // Constant nonzero difference with zero variance → p-value 0.
        let result = paired_comparison(&[0.5, 0.5], &[0.4, 0.4]);
        assert_eq!(result.p_value, 0.0);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn prop_pvalue_in_unit_interval(
            t in proptest::collection::vec(0.0f64..1.0, 2..50),
            c in proptest::collection::vec(0.0f64..1.0, 2..50),
        ) {
            let r = paired_comparison(&t, &c);
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }
    }
}
