//! Lifetime prediction models for LAVA.
//!
//! The paper (§3, Appendix A/B) predicts the **remaining lifetime** of a VM
//! as a function of its request-time features and its uptime so far, turning
//! a regression model into a survival-style model via training-set
//! augmentation. This crate provides, from scratch:
//!
//! * [`features`] — the Appendix A feature schema, rare-category collapsing
//!   and numeric encoding,
//! * [`dataset`] — labelled example construction, log10 labels, 7-day
//!   capping and uptime augmentation,
//! * [`gbdt`] — gradient-boosted regression trees (best-first growth,
//!   histogram splits, split-score feature importance),
//! * [`compiled`] — the flat, structure-of-arrays inference engine the
//!   paper compiles into the production binary (§5 / Fig. 8): bit-identical
//!   to the reference trees, allocation-free, with batched prediction,
//! * [`uptime_steps`] — the compiled predictor specialised per VM spec:
//!   for a fixed spec the ensemble is a step function of integer uptime,
//!   so a reprediction is a table lookup instead of a tree walk,
//! * [`survival`] — Kaplan–Meier curves, empirical lifetime distributions
//!   and conditional expectations `E(T_r | T_u)`, plus a linear Cox
//!   proportional-hazards baseline,
//! * [`nn`] — a small MLP regressor (the Keras baseline stand-in),
//! * [`metrics`] — precision/recall/F1, concordance index and log-domain
//!   error statistics,
//! * [`predictor`] — the [`predictor::LifetimePredictor`] trait consumed by
//!   the scheduler, with GBDT, distribution, oracle and noisy-oracle
//!   implementations,
//! * [`adaptive`] — adaptive model management: the hot-swappable predictor
//!   seam, degraded (stale/biased) variants and the online quantile
//!   recalibration fit used by the simulation's incident layer.
//!
//! # Example
//!
//! ```
//! use lava_core::prelude::*;
//! use lava_model::predictor::{LifetimePredictor, OraclePredictor};
//!
//! let spec = VmSpec::builder(Resources::cores_gib(2, 8)).build();
//! let vm = Vm::new(VmId(0), spec, SimTime::ZERO, Duration::from_hours(5));
//! let oracle = OraclePredictor::new();
//! let remaining = oracle.predict_remaining(&vm, SimTime::ZERO + Duration::from_hours(2));
//! assert_eq!(remaining, Duration::from_hours(3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod compiled;
pub mod dataset;
pub mod features;
pub mod gbdt;
pub mod metrics;
pub mod nn;
pub mod predictor;
pub mod survival;
pub mod uptime_steps;

/// The 7-day lifetime cap applied to labels and predictions (Appendix B):
/// "all VMs with a lifetime longer than 7 days are capped".
pub const LIFETIME_CAP: lava_core::time::Duration = lava_core::time::Duration(7 * 86_400);

/// The short/long classification threshold used for precision/recall/F1
/// throughout the paper: 7 days (168 hours).
pub const LONG_LIVED_THRESHOLD: lava_core::time::Duration = lava_core::time::Duration(7 * 86_400);
