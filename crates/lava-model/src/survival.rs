//! Survival-analysis models: Kaplan–Meier curves, empirical lifetime
//! distributions with conditional expectations, and a linear Cox
//! proportional-hazards baseline.
//!
//! The paper's key modelling insight (§3, Fig. 2) is to treat VM lifetimes
//! as *distributions* and compute the conditional expected remaining
//! lifetime `E(T_r | T_u)` — "given the VM has been running for `T_u`, how
//! much longer will it run?". [`EmpiricalDistribution`] implements exactly
//! that calculation; [`KaplanMeier`] adds right-censoring support (VMs still
//! running at the end of the trace); [`CoxModel`] is the linear survival
//! baseline of Appendix B (Table 4).

use lava_core::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An empirical lifetime distribution built from completed lifetimes.
///
/// Stores the sorted lifetimes (in seconds) and answers CDF / quantile /
/// conditional-expectation queries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalDistribution {
    /// Sorted observed lifetimes, in seconds.
    sorted_secs: Vec<u64>,
}

impl EmpiricalDistribution {
    /// Build from an iterator of observed lifetimes.
    pub fn from_lifetimes<I: IntoIterator<Item = Duration>>(lifetimes: I) -> EmpiricalDistribution {
        let mut sorted_secs: Vec<u64> = lifetimes.into_iter().map(|d| d.as_secs()).collect();
        sorted_secs.sort_unstable();
        EmpiricalDistribution { sorted_secs }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted_secs.len()
    }

    /// True if there are no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted_secs.is_empty()
    }

    /// Empirical CDF: fraction of lifetimes `<= t`.
    pub fn cdf(&self, t: Duration) -> f64 {
        if self.sorted_secs.is_empty() {
            return 0.0;
        }
        let idx = self.sorted_secs.partition_point(|&x| x <= t.as_secs());
        idx as f64 / self.sorted_secs.len() as f64
    }

    /// Survival function: fraction of lifetimes `> t`.
    pub fn survival(&self, t: Duration) -> f64 {
        1.0 - self.cdf(t)
    }

    /// The `q`-quantile of the lifetime distribution (`q` clamped to
    /// `[0, 1]`). Returns zero for an empty distribution.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.sorted_secs.is_empty() {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted_secs.len() - 1) as f64 * q).round() as usize;
        Duration(self.sorted_secs[idx])
    }

    /// Mean lifetime.
    pub fn mean(&self) -> Duration {
        if self.sorted_secs.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = self.sorted_secs.iter().map(|&s| s as u128).sum();
        Duration((sum / self.sorted_secs.len() as u128) as u64)
    }

    /// Conditional expected **remaining** lifetime given the VM has already
    /// run for `uptime`: `E(T - uptime | T > uptime)`.
    ///
    /// If no observed lifetime exceeds `uptime` (the VM has outlived every
    /// training example), falls back to the largest observed remaining tail
    /// (zero for an empty distribution) — the caller typically treats such
    /// VMs as long-lived.
    pub fn expected_remaining(&self, uptime: Duration) -> Duration {
        if self.sorted_secs.is_empty() {
            return Duration::ZERO;
        }
        let cut = self.sorted_secs.partition_point(|&x| x <= uptime.as_secs());
        if cut >= self.sorted_secs.len() {
            return Duration::ZERO;
        }
        let tail = &self.sorted_secs[cut..];
        let sum: u128 = tail.iter().map(|&s| (s - uptime.as_secs()) as u128).sum();
        Duration((sum / tail.len() as u128) as u64)
    }
}

/// A Kaplan–Meier survival-curve estimator with right censoring.
///
/// Observations are `(time, event)` pairs where `event = true` means the VM
/// exited at `time` and `event = false` means it was still running when the
/// trace ended (censored).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KaplanMeier {
    /// Step function: (time_secs, survival probability just after that
    /// time), ascending in time.
    steps: Vec<(u64, f64)>,
    num_observations: usize,
}

impl KaplanMeier {
    /// Fit the estimator from `(lifetime, observed_exit)` pairs.
    pub fn fit<I: IntoIterator<Item = (Duration, bool)>>(observations: I) -> KaplanMeier {
        let mut obs: Vec<(u64, bool)> = observations
            .into_iter()
            .map(|(d, e)| (d.as_secs(), e))
            .collect();
        obs.sort_unstable();
        let n = obs.len();

        // Group events by time.
        let mut deaths: BTreeMap<u64, usize> = BTreeMap::new();
        let mut censored: BTreeMap<u64, usize> = BTreeMap::new();
        for (t, event) in &obs {
            if *event {
                *deaths.entry(*t).or_insert(0) += 1;
            } else {
                *censored.entry(*t).or_insert(0) += 1;
            }
        }

        let mut at_risk = n as f64;
        let mut survival = 1.0;
        let mut steps = Vec::new();
        let mut times: Vec<u64> = deaths.keys().chain(censored.keys()).copied().collect();
        times.sort_unstable();
        times.dedup();
        for t in times {
            let d = *deaths.get(&t).unwrap_or(&0) as f64;
            if d > 0.0 && at_risk > 0.0 {
                survival *= 1.0 - d / at_risk;
                steps.push((t, survival));
            }
            at_risk -= d + *censored.get(&t).unwrap_or(&0) as f64;
        }
        KaplanMeier {
            steps,
            num_observations: n,
        }
    }

    /// Number of observations used to fit the curve.
    pub fn observation_count(&self) -> usize {
        self.num_observations
    }

    /// Survival probability at time `t` (probability of living longer than
    /// `t`).
    pub fn survival(&self, t: Duration) -> f64 {
        let mut s = 1.0;
        for &(time, surv) in &self.steps {
            if time <= t.as_secs() {
                s = surv;
            } else {
                break;
            }
        }
        s
    }

    /// Median survival time: the first time at which survival drops to 0.5
    /// or below, if it ever does.
    pub fn median(&self) -> Option<Duration> {
        self.steps
            .iter()
            .find(|(_, s)| *s <= 0.5)
            .map(|&(t, _)| Duration(t))
    }

    /// Expected remaining lifetime at `uptime`, computed by integrating the
    /// conditional survival curve (restricted to the observed horizon).
    pub fn expected_remaining(&self, uptime: Duration) -> Duration {
        let s_u = self.survival(uptime);
        if s_u <= 0.0 || self.steps.is_empty() {
            return Duration::ZERO;
        }
        // Integrate S(t)/S(u) for t from uptime to the last observed time
        // using the step representation.
        let mut total = 0.0;
        let mut prev_t = uptime.as_secs();
        let mut prev_s = s_u;
        for &(t, s) in &self.steps {
            if t <= uptime.as_secs() {
                continue;
            }
            total += (t - prev_t) as f64 * (prev_s / s_u);
            prev_t = t;
            prev_s = s;
        }
        Duration(total.round() as u64)
    }
}

/// A stratified Kaplan–Meier model: one survival curve per stratum key
/// (e.g. per VM category), the "lookup table of survival curves" the paper's
/// production experience section describes as their first model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StratifiedKaplanMeier {
    curves: BTreeMap<u64, KaplanMeier>,
    overall: KaplanMeier,
}

impl StratifiedKaplanMeier {
    /// Fit from `(stratum, lifetime, observed_exit)` triples.
    pub fn fit<I: IntoIterator<Item = (u64, Duration, bool)>>(observations: I) -> Self {
        let mut per_stratum: BTreeMap<u64, Vec<(Duration, bool)>> = BTreeMap::new();
        let mut all = Vec::new();
        for (stratum, lifetime, event) in observations {
            per_stratum
                .entry(stratum)
                .or_default()
                .push((lifetime, event));
            all.push((lifetime, event));
        }
        StratifiedKaplanMeier {
            curves: per_stratum
                .into_iter()
                .map(|(k, v)| (k, KaplanMeier::fit(v)))
                .collect(),
            overall: KaplanMeier::fit(all),
        }
    }

    /// The curve for a stratum, falling back to the overall curve.
    pub fn curve(&self, stratum: u64) -> &KaplanMeier {
        self.curves.get(&stratum).unwrap_or(&self.overall)
    }

    /// Expected remaining lifetime for a stratum at the given uptime.
    pub fn expected_remaining(&self, stratum: u64, uptime: Duration) -> Duration {
        self.curve(stratum).expected_remaining(uptime)
    }
}

/// A linear Cox proportional-hazards model trained by gradient ascent on the
/// Breslow partial likelihood. Used only as the Appendix B baseline
/// (Table 4); the production model is the GBDT.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoxModel {
    /// Feature coefficients (the linear risk score is `beta . x`).
    coefficients: Vec<f64>,
    /// Per-feature means used to centre inputs.
    means: Vec<f64>,
    /// Per-feature standard deviations used to scale inputs.
    stds: Vec<f64>,
}

/// Hyperparameters for [`CoxModel::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoxConfig {
    /// Number of gradient-ascent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for CoxConfig {
    fn default() -> Self {
        CoxConfig {
            iterations: 200,
            learning_rate: 0.05,
            l2: 1e-3,
        }
    }
}

impl CoxModel {
    /// Fit the model on `(features, lifetime)` rows. All lifetimes are
    /// treated as observed events (our traces are complete).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths mismatch.
    pub fn fit(config: CoxConfig, rows: &[&[f64]], lifetimes: &[Duration]) -> CoxModel {
        assert_eq!(
            rows.len(),
            lifetimes.len(),
            "rows/lifetimes length mismatch"
        );
        assert!(!rows.is_empty(), "cannot train on an empty dataset");
        let p = rows[0].len();
        let n = rows.len();

        // Standardise features.
        let mut means = vec![0.0; p];
        let mut stds = vec![0.0; p];
        for j in 0..p {
            let sum: f64 = rows.iter().map(|r| r[j]).sum();
            means[j] = sum / n as f64;
            let var: f64 = rows.iter().map(|r| (r[j] - means[j]).powi(2)).sum::<f64>() / n as f64;
            stds[j] = var.sqrt().max(1e-9);
        }
        let x: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| (0..p).map(|j| (r[j] - means[j]) / stds[j]).collect())
            .collect();

        // Sort by descending lifetime so that the risk set of example i is
        // the prefix [0, i] when walking in ascending event-time order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| lifetimes[i].as_secs());

        let mut beta = vec![0.0; p];
        for _ in 0..config.iterations {
            // Risk scores.
            let scores: Vec<f64> = x
                .iter()
                .map(|xi| xi.iter().zip(&beta).map(|(a, b)| a * b).sum::<f64>())
                .map(|s: f64| s.clamp(-30.0, 30.0).exp())
                .collect();

            // Suffix sums over the event-time ordering: risk set of the
            // k-th smallest lifetime is everything with lifetime >= it.
            let mut suffix_score = vec![0.0; n + 1];
            let mut suffix_weighted = vec![vec![0.0; p]; n + 1];
            for k in (0..n).rev() {
                let i = order[k];
                suffix_score[k] = suffix_score[k + 1] + scores[i];
                for j in 0..p {
                    suffix_weighted[k][j] = suffix_weighted[k + 1][j] + scores[i] * x[i][j];
                }
            }

            let mut grad = vec![0.0; p];
            for k in 0..n {
                let i = order[k];
                let denom = suffix_score[k].max(1e-12);
                for j in 0..p {
                    grad[j] += x[i][j] - suffix_weighted[k][j] / denom;
                }
            }
            for j in 0..p {
                grad[j] = grad[j] / n as f64 - config.l2 * beta[j];
                beta[j] += config.learning_rate * grad[j];
            }
        }

        CoxModel {
            coefficients: beta,
            means,
            stds,
        }
    }

    /// The linear risk score of a feature row. Higher risk means an earlier
    /// expected exit (shorter lifetime).
    pub fn risk_score(&self, features: &[f64]) -> f64 {
        self.coefficients
            .iter()
            .enumerate()
            .map(|(j, b)| {
                let x = features.get(j).copied().unwrap_or(0.0);
                b * (x - self.means[j]) / self.stds[j]
            })
            .sum()
    }

    /// The fitted coefficients (standardised feature space).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hours(h: u64) -> Duration {
        Duration::from_hours(h)
    }

    #[test]
    fn empirical_cdf_and_quantiles() {
        let d = EmpiricalDistribution::from_lifetimes(vec![hours(1), hours(2), hours(3), hours(4)]);
        assert_eq!(d.len(), 4);
        assert!((d.cdf(hours(2)) - 0.5).abs() < 1e-12);
        assert!((d.survival(hours(2)) - 0.5).abs() < 1e-12);
        assert_eq!(d.quantile(0.0), hours(1));
        assert_eq!(d.quantile(1.0), hours(4));
        assert_eq!(d.mean(), Duration::from_mins(150));
    }

    #[test]
    fn empirical_conditional_expectation_matches_paper_intuition() {
        // Bi-modal: many short (1h) and some long (168h) lifetimes. After
        // surviving 2h, the expectation should jump to the long mode.
        let mut lifetimes = vec![hours(1); 90];
        lifetimes.extend(vec![hours(168); 10]);
        let d = EmpiricalDistribution::from_lifetimes(lifetimes);
        let at_start = d.expected_remaining(Duration::ZERO);
        let after_2h = d.expected_remaining(hours(2));
        assert!(at_start < hours(20));
        assert_eq!(after_2h, hours(166));
        assert!(after_2h > at_start);
    }

    #[test]
    fn empirical_empty_and_exhausted() {
        let d = EmpiricalDistribution::default();
        assert!(d.is_empty());
        assert_eq!(d.cdf(hours(1)), 0.0);
        assert_eq!(d.expected_remaining(hours(1)), Duration::ZERO);
        assert_eq!(d.quantile(0.5), Duration::ZERO);
        assert_eq!(d.mean(), Duration::ZERO);

        let d = EmpiricalDistribution::from_lifetimes(vec![hours(1)]);
        assert_eq!(d.expected_remaining(hours(2)), Duration::ZERO);
    }

    #[test]
    fn kaplan_meier_no_censoring_matches_empirical() {
        let lifetimes = [hours(1), hours(2), hours(3), hours(4)];
        let km = KaplanMeier::fit(lifetimes.iter().map(|&l| (l, true)));
        assert_eq!(km.observation_count(), 4);
        assert!((km.survival(hours(2)) - 0.5).abs() < 1e-9);
        assert!((km.survival(hours(4)) - 0.0).abs() < 1e-9);
        assert_eq!(km.median(), Some(hours(2)));
    }

    #[test]
    fn kaplan_meier_censoring_raises_survival() {
        // Same exit times, but half the long observations are censored: the
        // curve should not drop to zero.
        let km = KaplanMeier::fit(vec![
            (hours(1), true),
            (hours(2), true),
            (hours(3), false),
            (hours(4), false),
        ]);
        assert!(km.survival(hours(10)) > 0.0);
        assert_eq!(km.median(), Some(hours(2)));
    }

    #[test]
    fn kaplan_meier_expected_remaining_decreases_then_restricts() {
        let lifetimes: Vec<Duration> = (1..=10).map(hours).collect();
        let km = KaplanMeier::fit(lifetimes.iter().map(|&l| (l, true)));
        let e0 = km.expected_remaining(Duration::ZERO);
        let e5 = km.expected_remaining(hours(5));
        assert!(e0 > e5);
        assert!(e5 > Duration::ZERO);
        assert_eq!(km.expected_remaining(hours(100)), Duration::ZERO);
    }

    #[test]
    fn stratified_km_falls_back_to_overall() {
        let model = StratifiedKaplanMeier::fit(vec![
            (1, hours(1), true),
            (1, hours(2), true),
            (2, hours(100), true),
            (2, hours(120), true),
        ]);
        assert_eq!(model.curves.len(), 2);
        assert!(model.expected_remaining(1, Duration::ZERO) < hours(5));
        assert!(model.expected_remaining(2, Duration::ZERO) > hours(50));
        // Unknown stratum uses the overall curve.
        let overall = model.expected_remaining(99, Duration::ZERO);
        assert!(overall > Duration::ZERO);
    }

    #[test]
    fn cox_learns_sign_of_risk() {
        // Feature x strongly determines lifetime: higher x → longer life →
        // lower hazard → negative coefficient.
        let mut rows = Vec::new();
        let mut lifetimes = Vec::new();
        for i in 0..200u64 {
            let x = (i % 10) as f64;
            rows.push(vec![x, 1.0]);
            lifetimes.push(Duration::from_hours(1 + (i % 10) * 10));
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = CoxModel::fit(CoxConfig::default(), &refs, &lifetimes);
        assert!(model.coefficients()[0] < 0.0, "{:?}", model.coefficients());
        // Risk of a short-lived (x=0) VM should exceed risk of a long-lived one.
        assert!(model.risk_score(&[0.0, 1.0]) > model.risk_score(&[9.0, 1.0]));
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(lifetimes in proptest::collection::vec(0u64..1_000_000, 1..100), a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let d = EmpiricalDistribution::from_lifetimes(lifetimes.into_iter().map(Duration));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(d.cdf(Duration(lo)) <= d.cdf(Duration(hi)));
            prop_assert!(d.cdf(Duration(hi)) <= 1.0);
        }

        #[test]
        fn prop_km_survival_monotone_decreasing(lifetimes in proptest::collection::vec(1u64..1_000_000, 1..100)) {
            let km = KaplanMeier::fit(lifetimes.iter().map(|&l| (Duration(l), true)));
            let mut prev = 1.0;
            for t in [0u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
                let s = km.survival(Duration(t));
                prop_assert!(s <= prev + 1e-12);
                prop_assert!((0.0..=1.0).contains(&s));
                prev = s;
            }
        }
    }
}
