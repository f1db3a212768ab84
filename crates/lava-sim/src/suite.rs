//! Parallel experiment suites: run a set of experiment arms across
//! threads with bit-identical per-arm results.
//!
//! A sweep (Fig. 6's fleet, Fig. 15's accuracy dial, Table 1's pilots…)
//! is a list of independent [`Experiment`]s. [`ExperimentSuite`] runs them
//! across the persistent [`WorkerPool`]
//! (the same primitive the fleet tier executes on — one pool, not two
//! threading schemes):
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
//! * **Scheduling** — arms go to the pool's shared queue, which any
//!   worker (and the submitting thread) drains, so a long arm does not
//!   hold up the remaining work. An arm that itself starts a fleet run
//!   is on a pool worker, so the fleet coordinator keeps its one session
//!   on the inline lane ([`crate::fleet`]) — same epoch loop, same
//!   results, nothing pinned, so no pinned-session deadlock.
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
use crate::workers::WorkerPool;
use parking_lot::Mutex;

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

    fn worker_count(&self) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let requested = if self.threads == 0 {
            auto()
        } else {
            self.threads
        };
        requested.clamp(1, self.experiments.len().max(1))
    }

    /// Run every arm and return the reports in arm order.
    ///
    /// With one worker this is a plain serial loop; with more, arms go to
    /// the shared queue of the process-wide [`WorkerPool`] (grown to the
    /// requested width first). Either way each report is bit-identical to
    /// a serial [`Experiment::run`] of that arm.
    pub fn run(&self) -> Vec<ExperimentReport> {
        let n = self.experiments.len();
        let workers = self.worker_count();
        if n == 0 {
            return Vec::new();
        }
        if workers <= 1 {
            return self.experiments.iter().map(Experiment::run).collect();
        }

        let pool = WorkerPool::global();
        pool.ensure_workers(workers);
        let slots: Vec<Mutex<Option<ExperimentReport>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        pool.run_indexed(n, |i| {
            *slots[i].lock() = Some(self.experiments[i].run());
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every arm was run"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{PolicySpec, PredictorSpec};
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
        assert_eq!(suite.worker_count(), 1);
        let reports = suite.run();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn suite_handles_heterogeneous_scenarios() {
        let mut ab = arm_spec(5, Algorithm::Nilas);
        ab.scenario = crate::experiment::Scenario::AbSplit {
            arms: vec![
                PolicySpec::new(Algorithm::Baseline),
                PolicySpec::new(Algorithm::Nilas),
            ],
        };
        let mut noisy = arm_spec(5, Algorithm::Lava);
        noisy.predictor = PredictorSpec::Noisy {
            accuracy_pct: 80,
            bias_pct: 0,
        };
        let suite = ExperimentSuite::from_specs([ab, noisy])
            .expect("valid specs")
            .with_threads(2);
        let reports = suite.run();
        assert_eq!(reports[0].arms.len(), 2);
        assert_eq!(reports[1].result.predictor, "noisy-oracle");
    }
}
