//! A CausalImpact-style pre/post counterfactual analysis (§6.2, Fig. 7).
//!
//! The paper uses Brodersen et al.'s Bayesian structural time-series
//! CausalImpact to estimate the effect of enabling NILAS on a whole pool.
//! We reproduce the same report structure with a simpler, dependency-free
//! counterfactual: a local-level forecast fitted on the pre-period
//! (mean + linear trend), with uncertainty estimated from the pre-period
//! residuals via a normal approximation. The output mirrors CausalImpact's
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
    /// Lower bound of the (1 − alpha) confidence interval on the average
    /// effect.
    pub ci_low: f64,
    /// Upper bound of the confidence interval.
    pub ci_high: f64,
    /// Two-sided p-value for the null hypothesis of zero average effect.
    pub p_value: f64,
}

impl CausalImpactReport {
    /// Whether the estimated effect is significant at the chosen level.
    pub fn is_significant(&self) -> bool {
        self.ci_low > 0.0 || self.ci_high < 0.0
    }
}

/// Configuration for [`causal_impact`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CausalConfig {
    /// Significance level for the confidence interval (default 0.05 → 95 %).
    pub alpha: f64,
    /// Whether to include a linear trend in the counterfactual (otherwise a
    /// flat mean forecast is used).
    pub fit_trend: bool,
}

impl Default for CausalConfig {
    fn default() -> Self {
        CausalConfig {
            alpha: 0.05,
            fit_trend: true,
        }
    }
}

/// Estimate the causal effect of an intervention from a pre-period and a
/// post-period series of the same metric.
///
/// Returns a degenerate zero-effect report if either period has fewer than
/// two points.
pub fn causal_impact(pre: &[f64], post: &[f64], config: CausalConfig) -> CausalImpactReport {
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

    // Fit mean + optional linear trend on the pre period by least squares.
    let n = pre.len() as f64;
    let mean_y = pre.iter().sum::<f64>() / n;
    let mean_x = (n - 1.0) / 2.0;
    let slope = if config.fit_trend {
        let sxy: f64 = pre
            .iter()
            .enumerate()
            .map(|(i, y)| (i as f64 - mean_x) * (y - mean_y))
            .sum();
        let sxx: f64 = (0..pre.len()).map(|i| (i as f64 - mean_x).powi(2)).sum();
        if sxx > 0.0 {
            sxy / sxx
        } else {
            0.0
        }
    } else {
        0.0
    };
    let intercept = mean_y - slope * mean_x;

    // Residual standard deviation of the pre-period fit.
    let residual_var = pre
        .iter()
        .enumerate()
        .map(|(i, y)| {
            let fitted = intercept + slope * i as f64;
            (y - fitted).powi(2)
        })
        .sum::<f64>()
        / (n - 1.0);
    let residual_sd = residual_var.sqrt();

    // Counterfactual forecast over the post period.
    let counterfactual: Vec<f64> = (0..post.len())
        .map(|i| intercept + slope * (pre.len() + i) as f64)
        .collect();
    let pointwise_effect: Vec<f64> = post
        .iter()
        .zip(&counterfactual)
        .map(|(obs, cf)| obs - cf)
        .collect();
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
    let z = z_for_alpha(config.alpha);
    let (ci_low, ci_high) = (average_effect - z * se, average_effect + z * se);
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
    causal_impact(
        &pre,
        &post,
        CausalConfig {
            fit_trend: false,
            ..CausalConfig::default()
        },
    )
}

/// Two-sided critical value of the standard normal for a given alpha
/// (e.g. 0.05 → 1.96), via bisection on the CDF.
fn z_for_alpha(alpha: f64) -> f64 {
    let target = 1.0 - alpha.clamp(1e-9, 0.999_999) / 2.0;
    let (mut lo, mut hi) = (0.0f64, 10.0f64);
    for _ in 0..80 {
        let mid = (lo + hi) / 2.0;
        if standard_normal_cdf(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
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
        let report = causal_impact(&pre, &post, CausalConfig::default());
        assert!((report.average_effect - 0.06).abs() < 0.01, "{report:?}");
        assert!(report.is_significant());
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
        let report = causal_impact(&pre, &post, CausalConfig::default());
        assert!(report.average_effect.abs() < 0.01);
        assert!(!report.is_significant());
        assert!(report.p_value > 0.05);
    }

    #[test]
    fn trend_is_extrapolated_into_the_counterfactual() {
        // Pre-period grows linearly; the post period continues the same
        // trend, so the effect should be ~zero when the trend is modelled.
        let pre: Vec<f64> = (0..50).map(|i| 0.2 + 0.001 * i as f64).collect();
        let post: Vec<f64> = (0..30).map(|i| 0.2 + 0.001 * (50 + i) as f64).collect();
        let with_trend = causal_impact(&pre, &post, CausalConfig::default());
        assert!(with_trend.average_effect.abs() < 1e-6);
        let without_trend = causal_impact(
            &pre,
            &post,
            CausalConfig {
                fit_trend: false,
                ..CausalConfig::default()
            },
        );
        assert!(without_trend.average_effect > 0.02);
    }

    #[test]
    fn degenerate_inputs_yield_zero_effect() {
        let report = causal_impact(&[0.5], &[0.9, 0.9], CausalConfig::default());
        assert_eq!(report.average_effect, 0.0);
        assert_eq!(report.p_value, 1.0);
        assert!(!report.is_significant());
    }
}
