//! A CausalImpact-style pre/post counterfactual analysis (§6.2, Fig. 7).
//!
//! The paper uses Brodersen et al.'s Bayesian structural time-series
//! CausalImpact to estimate the effect of enabling NILAS on a whole pool.
//! We reproduce the same report structure with a simpler, dependency-free
//! counterfactual: a flat forecast at the pre-period mean, with
//! uncertainty estimated from the pre-period residuals via a normal
//! approximation. The output mirrors CausalImpact's
//! three panels: observed vs counterfactual, point-wise effect and
//! cumulative effect, plus an average effect with a confidence interval.
//!
//! A whole-pool rollout is two suite arms over one workload
//! ([`pre_post_arms`]): the treated arm switches from the baseline to the
//! evaluated policy at its warm-up boundary, the control arm runs the
//! baseline throughout, and both sample from time zero. [`pre_post_impact`]
//! analyses the treated-minus-control series, which removes the pool's
//! background occupancy trend.

use crate::ab::standard_normal_cdf;
use crate::experiment::{ExperimentSpec, PolicySpec};
use crate::metrics::SimulationResult;
use lava_core::time::SimTime;
use lava_sched::Algorithm;
use serde::{Deserialize, Serialize};

/// The result of a pre/post causal analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalImpactReport {
    /// Counterfactual prediction for each post-period point.
    pub counterfactual: Vec<f64>,
    /// Point-wise effect: observed − counterfactual.
    pub pointwise_effect: Vec<f64>,
    /// Cumulative sum of the point-wise effect.
    pub cumulative_effect: Vec<f64>,
    /// Average effect over the post period.
    pub average_effect: f64,
    /// Lower bound of the 95 % confidence interval on the average
    /// effect.
    pub ci_low: f64,
    /// Upper bound of the confidence interval.
    pub ci_high: f64,
    /// Two-sided p-value for the null hypothesis of zero average effect.
    pub p_value: f64,
}

/// Estimate the effect of an intervention from a pre-period and a
/// post-period series of the same metric, against a flat counterfactual:
/// the pre-period mean, with a 95 % interval from the pre-period residuals.
///
/// Returns a degenerate zero-effect report if either period has fewer than
/// two points.
fn causal_impact(pre: &[f64], post: &[f64]) -> CausalImpactReport {
    if pre.len() < 2 || post.len() < 2 {
        return CausalImpactReport {
            counterfactual: post.to_vec(),
            pointwise_effect: vec![0.0; post.len()],
            cumulative_effect: vec![0.0; post.len()],
            average_effect: 0.0,
            ci_low: 0.0,
            ci_high: 0.0,
            p_value: 1.0,
        };
    }

    let n = pre.len() as f64;
    let level = pre.iter().sum::<f64>() / n;
    // Residual standard deviation of the pre-period fit.
    let residual_var = pre.iter().map(|y| (y - level).powi(2)).sum::<f64>() / (n - 1.0);
    let residual_sd = residual_var.sqrt();

    let counterfactual = vec![level; post.len()];
    let pointwise_effect: Vec<f64> = post.iter().map(|obs| obs - level).collect();
    let cumulative_effect: Vec<f64> = pointwise_effect
        .iter()
        .scan(0.0, |acc, e| {
            *acc += e;
            Some(*acc)
        })
        .collect();

    let m = post.len() as f64;
    let average_effect = pointwise_effect.iter().sum::<f64>() / m;
    // Standard error of the average effect under the pre-period noise model.
    let se = residual_sd * (1.0 / m + 1.0 / n).sqrt();
    let (ci_low, ci_high) = (average_effect - Z_95 * se, average_effect + Z_95 * se);
    let p_value = if se <= f64::EPSILON {
        if average_effect.abs() <= f64::EPSILON {
            1.0
        } else {
            0.0
        }
    } else {
        2.0 * (1.0 - standard_normal_cdf((average_effect / se).abs()))
    };

    CausalImpactReport {
        counterfactual,
        pointwise_effect,
        cumulative_effect,
        average_effect,
        ci_low,
        ci_high,
        p_value,
    }
}

/// Two-sided 95 % critical value of the standard normal: the point where
/// [`standard_normal_cdf`] reaches 0.975, as found by bisection on it.
const Z_95: f64 = 1.959_962_803_274_672_5;

/// The two arms of a whole-pool rollout of `treated`: the treated spec and
/// its control, which runs the production baseline throughout and records
/// no predictions. Both sample from time zero.
pub fn pre_post_arms(mut treated: ExperimentSpec) -> [ExperimentSpec; 2] {
    treated.cadence.sample_during_warmup = true;
    let control = ExperimentSpec {
        policy: PolicySpec::new(Algorithm::Baseline),
        record_predictions: false,
        ..treated.clone()
    };
    [treated, control]
}

/// The causal effect of a policy switch at `switch_at`: the empty-host
/// difference `treated − control`, sample by sample, split into the
/// samples before the switch and those at or after it, analysed with a
/// flat (no-trend) counterfactual.
pub fn pre_post_impact(
    treated: &SimulationResult,
    control: &SimulationResult,
    switch_at: SimTime,
) -> CausalImpactReport {
    let (mut pre, mut post) = (Vec::new(), Vec::new());
    for (t, c) in treated
        .series
        .samples()
        .iter()
        .zip(control.series.samples())
    {
        let diff = t.empty_host_fraction - c.empty_host_fraction;
        if t.time < switch_at {
            pre.push(diff);
        } else {
            post.push(diff);
        }
    }
    causal_impact(&pre, &post)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_series(base: f64, len: usize, amplitude: f64) -> Vec<f64> {
        (0..len)
            .map(|i| base + amplitude * ((i % 7) as f64 - 3.0) / 3.0)
            .collect()
    }

    #[test]
    fn detects_a_step_increase() {
        let pre = noisy_series(0.20, 100, 0.005);
        let post = noisy_series(0.26, 80, 0.005);
        let report = causal_impact(&pre, &post);
        assert!((report.average_effect - 0.06).abs() < 0.01, "{report:?}");
        assert!(report.ci_low > 0.0, "the interval excludes zero");
        assert!(report.p_value < 0.01);
        assert_eq!(report.counterfactual.len(), 80);
        assert_eq!(report.cumulative_effect.len(), 80);
        // Cumulative effect grows roughly linearly.
        assert!(report.cumulative_effect.last().unwrap() > &(0.05 * 70.0));
    }

    #[test]
    fn no_change_is_not_significant() {
        let pre = noisy_series(0.3, 100, 0.01);
        let post = noisy_series(0.3, 60, 0.01);
        let report = causal_impact(&pre, &post);
        assert!(report.average_effect.abs() < 0.01);
        assert!(report.ci_low <= 0.0 && report.ci_high >= 0.0);
        assert!(report.p_value > 0.05);
    }

    #[test]
    fn degenerate_inputs_yield_zero_effect() {
        let report = causal_impact(&[0.5], &[0.9, 0.9]);
        assert_eq!(report.average_effect, 0.0);
        assert_eq!(report.p_value, 1.0);
        assert!(report.ci_low <= 0.0 && report.ci_high >= 0.0);
    }

    #[test]
    fn critical_value_is_the_975_quantile() {
        assert_eq!(Z_95.to_bits(), 0x3fff_5c01_f4d7_0f28);
        assert!((standard_normal_cdf(Z_95) - 0.975).abs() < 1e-9);
    }
}
