//! Scheduling algorithms for lifetime-aware VM allocation.
//!
//! This crate contains the mini-Borg scheduling substrate and the
//! algorithms compared in the LAVA paper:
//!
//! * [`baseline`] — lifetime-agnostic Best Fit and Waste-Minimisation (the
//!   production baseline),
//! * [`la_binary`] — LA-Binary, the prior state of the art (Barbalho et al.
//!   2023) with one-shot predictions,
//! * [`nilas`] — NILAS, reprediction-based temporal-cost scoring with the
//!   host score cache,
//! * [`lava`] — LAVA, the host lifetime-class state machine with
//!   misprediction correction,
//! * [`cluster`], [`scheduler`], [`policy`], [`scoring`] — the shared
//!   substrate (cluster state, driver loop, policy trait, lexicographic
//!   scoring). A fleet deployment runs one [`scheduler::Scheduler`]
//!   instance per cell; [`scheduler::Scheduler::cell_summary`] extracts
//!   the bounded-staleness cell summary the fleet routing tier consumes.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use lava_core::prelude::*;
//! use lava_model::predictor::OraclePredictor;
//! use lava_sched::cluster::Cluster;
//! use lava_sched::nilas::NilasPolicy;
//! use lava_sched::scheduler::Scheduler;
//!
//! let cluster = Cluster::with_uniform_hosts(8, HostSpec::new(Resources::cores_gib(32, 128)));
//! let predictor = Arc::new(OraclePredictor::new());
//! let mut scheduler = Scheduler::new(
//!     cluster,
//!     Box::new(NilasPolicy::with_defaults(predictor.clone())),
//!     predictor,
//! );
//! let vm = Vm::new(
//!     VmId(1),
//!     VmSpec::builder(Resources::cores_gib(4, 16)).build(),
//!     SimTime::ZERO,
//!     Duration::from_hours(3),
//! );
//! let host = scheduler.schedule(vm, SimTime::ZERO)?;
//! assert!(scheduler.cluster().host(host).unwrap().contains(VmId(1)));
//! # Ok::<(), lava_sched::policy::ScheduleError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod cluster;
pub mod la_binary;
pub mod lava;
pub mod nilas;
pub mod policy;
pub mod scheduler;
pub mod scoring;

use lava_model::predictor::LifetimePredictor;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The scheduling algorithms compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Lifetime-agnostic Best Fit.
    BestFit,
    /// The production baseline: Waste Minimisation.
    Baseline,
    /// LA-Binary (Barbalho et al. 2023), one-shot predictions.
    LaBinary,
    /// NILAS (§4.2), reprediction-based temporal cost.
    Nilas,
    /// LAVA (§4.3), lifetime-class state machine.
    Lava,
}

impl Algorithm {
    /// All algorithms, baseline first.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::BestFit,
        Algorithm::Baseline,
        Algorithm::LaBinary,
        Algorithm::Nilas,
        Algorithm::Lava,
    ];

    /// Instantiate the placement policy for this algorithm with default
    /// configuration, sharing the given predictor.
    pub fn build_policy(
        self,
        predictor: Arc<dyn LifetimePredictor>,
    ) -> Box<dyn policy::PlacementPolicy> {
        match self {
            Algorithm::BestFit => Box::new(baseline::BestFitPolicy::new()),
            Algorithm::Baseline => Box::new(baseline::WasteMinimizationPolicy::new()),
            Algorithm::LaBinary => Box::new(la_binary::LaBinaryPolicy::new(
                predictor,
                la_binary::LaBinaryConfig::default(),
            )),
            Algorithm::Nilas => Box::new(nilas::NilasPolicy::with_defaults(predictor)),
            Algorithm::Lava => Box::new(lava::LavaPolicy::with_defaults(predictor)),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::BestFit => write!(f, "best-fit"),
            Algorithm::Baseline => write!(f, "baseline"),
            Algorithm::LaBinary => write!(f, "la-binary"),
            Algorithm::Nilas => write!(f, "nilas"),
            Algorithm::Lava => write!(f, "lava"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_model::predictor::OraclePredictor;

    #[test]
    fn factory_builds_every_algorithm() {
        let predictor: Arc<dyn LifetimePredictor> = Arc::new(OraclePredictor::new());
        let expected = ["best-fit", "waste-min", "la-binary", "nilas", "lava"];
        for (algo, expected_name) in Algorithm::ALL.into_iter().zip(expected) {
            let policy = algo.build_policy(predictor.clone());
            assert_eq!(policy.name(), expected_name);
            assert!(!algo.to_string().is_empty());
        }
    }
}
