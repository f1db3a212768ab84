//! Parallel experiment suites: run a set of experiment arms across
//! threads with bit-identical per-arm results.
//!
//! A sweep (Fig. 6's fleet, Fig. 15's accuracy dial, Table 1's pilots…)
//! is a list of independent [`Experiment`]s, and an A/B split is such a
//! list over one workload (arm 0 the control, compared with
//! [`paired_comparison`](crate::ab::paired_comparison)).
//! [`ExperimentSuite`] runs them on scoped threads:
//!
//! * **Determinism** — every arm is fully determined by its own spec
//!   (workload seed included), so an arm's [`ExperimentReport`] is
//!   bit-identical whether the suite runs on one thread or many, and
//!   reports come back in arm order regardless of completion order.
//! * **Artifact sharing** — arms pushed into a suite adopt each other's
//!   memoised trace/predictor cells (via
//!   [`Experiment::share_artifacts_from`]) whenever their workload (and
//!   predictor) specs agree. The cells are thread-safe, so whichever
//!   worker needs a shared artifact first materialises it exactly once
//!   for every arm.
//! * **Scheduling** — each thread takes the next arm index from a shared
//!   counter, so a long arm does not hold up the remaining work. An arm
//!   that starts a fleet run is an ordinary caller of
//!   [`run_fleet`](crate::fleet::run_fleet), which spawns that run's own
//!   lane threads ([`crate::fleet`]): concurrent fleet arms run side by
//!   side, on at most suite threads × min(fleet threads, cells) lane
//!   threads.
//!
//! ```
//! use lava_core::time::Duration;
//! use lava_sched::Algorithm;
//! use lava_sim::experiment::Experiment;
//! use lava_sim::suite::ExperimentSuite;
//!
//! let mut suite = ExperimentSuite::new().with_threads(2);
//! for seed in [1u64, 2] {
//!     suite
//!         .push_spec(
//!             Experiment::builder()
//!                 .hosts(16)
//!                 .duration(Duration::from_days(1))
//!                 .seed(seed)
//!                 .algorithm(Algorithm::Nilas)
//!                 .build()
//!                 .expect("valid spec"),
//!         )
//!         .expect("valid spec");
//! }
//! let reports = suite.run();
//! assert_eq!(reports.len(), 2);
//! ```

use crate::experiment::{Experiment, ExperimentReport, ExperimentSpec, SpecError};
use crate::fleet::worker_count;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A set of experiment arms executed across worker threads.
#[derive(Debug, Default)]
pub struct ExperimentSuite {
    experiments: Vec<Experiment>,
    /// Worker count; 0 means "one per available CPU" (capped at the arm
    /// count either way).
    threads: usize,
}

impl ExperimentSuite {
    /// An empty suite running with automatic thread count.
    pub fn new() -> ExperimentSuite {
        ExperimentSuite::default()
    }

    /// Build a suite from specs (validating each).
    ///
    /// # Errors
    ///
    /// Returns the first spec's validation error.
    pub fn from_specs(
        specs: impl IntoIterator<Item = ExperimentSpec>,
    ) -> Result<ExperimentSuite, SpecError> {
        let mut suite = ExperimentSuite::new();
        for spec in specs {
            suite.push_spec(spec)?;
        }
        Ok(suite)
    }

    /// Set the worker thread count (0 = one per available CPU).
    pub fn with_threads(mut self, threads: usize) -> ExperimentSuite {
        self.threads = threads;
        self
    }

    /// Add an arm. The new arm adopts the memoised-artifact cells of every
    /// earlier arm whose specs agree, so a sweep over one workload
    /// generates its trace (and trains its model) once in total.
    pub fn push(&mut self, mut experiment: Experiment) {
        for donor in &self.experiments {
            experiment.share_artifacts_from(donor);
        }
        self.experiments.push(experiment);
    }

    /// Validate `spec` and add it as an arm.
    ///
    /// # Errors
    ///
    /// Returns the spec's validation error.
    pub fn push_spec(&mut self, spec: ExperimentSpec) -> Result<(), SpecError> {
        self.push(Experiment::new(spec)?);
        Ok(())
    }

    /// The arms, in push order.
    pub fn experiments(&self) -> &[Experiment] {
        &self.experiments
    }

    /// Number of arms.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the suite has no arms.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Run every arm and return the reports in arm order.
    ///
    /// With one worker this is a plain serial loop; with more, scoped
    /// threads take arm indices from a shared counter until none are left
    /// and hand their `(arm, report)` pairs back when joined.
    /// Either way each report is bit-identical to a serial
    /// [`Experiment::run`] of that arm.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking arm's payload once every thread has
    /// finished; the other arms still run to completion first.
    pub fn run(&self) -> Vec<ExperimentReport> {
        let workers = worker_count(self.threads, self.experiments.len());
        if workers <= 1 {
            return self.experiments.iter().map(Experiment::run).collect();
        }
        let next = AtomicUsize::new(0);
        let mut done = Vec::with_capacity(self.experiments.len());
        let mut first_panic = None;
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut done, mut panic) = (Vec::new(), None);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(arm) = self.experiments.get(i) else {
                                return (done, panic);
                            };
                            match catch_unwind(AssertUnwindSafe(|| arm.run())) {
                                Ok(report) => done.push((i, report)),
                                Err(payload) => panic = panic.or(Some(payload)),
                            }
                        }
                    })
                })
                .collect();
            for thread in threads {
                let (arms, panic) = thread.join().expect("arm panics are caught");
                done.extend(arms);
                first_panic = first_panic.take().or(panic);
            }
        });
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, report)| report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PredictorSpec;
    use crate::workload::PoolConfig;
    use lava_core::time::Duration;
    use lava_sched::Algorithm;

    fn arm_spec(seed: u64, algorithm: Algorithm) -> ExperimentSpec {
        Experiment::builder()
            .workload(PoolConfig {
                hosts: 16,
                duration: Duration::from_days(1),
                ..PoolConfig::small(seed)
            })
            .warmup(Duration::from_hours(6))
            .algorithm(algorithm)
            .build()
            .expect("valid spec")
    }

    #[test]
    fn empty_suite_runs_to_nothing() {
        let suite = ExperimentSuite::new();
        assert!(suite.is_empty());
        assert_eq!(suite.len(), 0);
        assert!(suite.run().is_empty());
    }

    #[test]
    fn parallel_runs_are_bit_identical_to_serial() {
        let arms = || {
            ExperimentSuite::from_specs([
                arm_spec(1, Algorithm::Baseline),
                arm_spec(2, Algorithm::Nilas),
                arm_spec(3, Algorithm::Lava),
                arm_spec(1, Algorithm::BestFit),
            ])
            .expect("valid specs")
        };
        let serial = arms().with_threads(1).run();
        let parallel = arms().with_threads(3).run();
        assert_eq!(serial.len(), 4);
        assert_eq!(serial, parallel, "threading changed a result");
        // Reports come back in arm order.
        assert_eq!(serial[0].result.algorithm, "baseline");
        assert_eq!(serial[3].result.algorithm, "best-fit");
    }

    #[test]
    fn pushed_arms_share_artifacts_when_workloads_agree() {
        let mut suite = ExperimentSuite::new();
        suite
            .push_spec(arm_spec(7, Algorithm::Baseline))
            .expect("valid");
        suite
            .push_spec(arm_spec(7, Algorithm::Nilas))
            .expect("valid");
        suite
            .push_spec(arm_spec(8, Algorithm::Nilas))
            .expect("valid");
        let arms = suite.experiments();
        // Same workload: the trace cell is shared (same allocation).
        assert!(std::ptr::eq(arms[0].trace(), arms[1].trace()));
        // Different workload: independent trace.
        assert!(!std::ptr::eq(arms[0].trace(), arms[2].trace()));
        // Same predictor spec on the same workload: one predictor instance.
        assert!(std::sync::Arc::ptr_eq(
            &arms[0].predictor(),
            &arms[1].predictor()
        ));
    }

    #[test]
    fn auto_thread_count_is_bounded_by_arms() {
        let suite =
            ExperimentSuite::from_specs([arm_spec(1, Algorithm::Baseline)]).expect("valid specs");
        assert_eq!(worker_count(suite.threads, suite.len()), 1);
        let reports = suite.run();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn suite_handles_heterogeneous_scenarios() {
        use lava_core::time::SimTime;
        // A pre/post rollout (treated + baseline control, both sampling
        // through warm-up) beside a cold-start arm under another predictor.
        let pre_post = |algorithm| {
            let mut spec = arm_spec(5, algorithm);
            spec.cadence.sample_during_warmup = true;
            spec
        };
        let mut cold = arm_spec(5, Algorithm::Lava);
        cold.cadence.warmup = Duration::ZERO;
        cold.predictor = PredictorSpec::Noisy {
            accuracy_pct: 80,
            bias_pct: 0,
        };
        let suite = ExperimentSuite::from_specs([
            pre_post(Algorithm::Nilas),
            pre_post(Algorithm::Baseline),
            cold,
        ])
        .expect("valid specs")
        .with_threads(2);
        let reports = suite.run();
        let (treated, control) = (&reports[0].result, &reports[1].result);
        assert_eq!(control.algorithm, "baseline");
        let switch_at = SimTime::ZERO + Duration::from_hours(6);
        let causal = crate::causal::pre_post_impact(treated, control, switch_at);
        assert_eq!(
            causal.counterfactual.len(),
            treated.series.since(switch_at).len()
        );
        assert_eq!(reports[2].result.predictor, "noisy-oracle");
        assert_eq!(reports[2].result.series.samples()[0].time, SimTime::ZERO);
    }

    #[test]
    fn a_panicking_arm_reraises_after_the_other_arms_finish() {
        use crate::trace::Trace;
        use lava_core::time::SimTime;
        use lava_core::vm::Vm;
        use lava_model::predictor::LifetimePredictor;

        /// Panics on the first VM it is asked about.
        struct Doomed;
        impl LifetimePredictor for Doomed {
            fn predict_remaining(&self, _vm: &Vm, _now: SimTime) -> Duration {
                panic!("the doomed arm's predictor gives up");
            }
            fn name(&self) -> &'static str {
                "doomed"
            }
        }

        let doomed = Experiment::new(arm_spec(9, Algorithm::Baseline)).expect("valid spec");
        assert!(doomed.set_predictor(std::sync::Arc::new(Doomed)));
        let pool = doomed.spec().workload.pool_id;
        let mut suite = ExperimentSuite::new().with_threads(2);
        suite.push(doomed);
        for seed in [2, 3, 4] {
            suite
                .push_spec(arm_spec(seed, Algorithm::Nilas))
                .expect("valid spec");
        }

        let result = catch_unwind(AssertUnwindSafe(|| suite.run()));
        let payload = result.expect_err("the arm's panic propagates");
        assert!(crate::fleet::panic_message(payload.as_ref())
            .contains("the doomed arm's predictor gives up"));
        // Every other arm was still run (each generated its own trace, so
        // the cell refuses an injection) before the panic was re-raised.
        for arm in &suite.experiments()[1..] {
            assert!(!arm.set_trace(Trace::new(pool, Vec::new())));
        }
    }
}
