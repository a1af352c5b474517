//! # kml-continual — closed-loop online learning for the KML stack
//!
//! The paper's workflow is "train offline for minutes → deploy →
//! hot-swap"; `kml-lifecycle` (PR 8) built the deploy half. This crate
//! closes the loop so no operator sits in it:
//!
//! * [`drift::DriftDetector`] — per-channel distribution sketches over
//!   the live window stream with a z-score divergence and K-consecutive
//!   block hysteresis: a *sustained* feature-distribution shift is the
//!   retrain trigger, noise never is. On trigger it re-baselines, so
//!   one shift fires exactly once.
//! * [`reservoir::Reservoir`] — seeded bottom-k priority sampling over
//!   the window stream. The kept training set is a pure function of
//!   `(seed, ids seen)`: byte-identical at any `--threads`, mergeable
//!   across shards, order-independent.
//! * [`retrain`] — a deterministic reservoir→`.kmlm` candidate trainer
//!   through `kml_core::train::TrainSpec`, run on the thread whose window
//!   triggered it.
//! * [`controller::ContinualController`] — the state machine: window →
//!   reservoir + drift → (on trigger) retrain + stage as lifecycle
//!   shadow → watchdog promotes after K clean windows or the candidate
//!   is discarded on regression. A candidate **never** actuates before
//!   promotion.
//!
//! The loop plugs into anything implementing
//! `kml_lifecycle::LifecycleTarget` — the readahead `KmlTuner`, the
//! netfs `RsizeTuner`, and the fleet `InferenceServer` lanes.

#![warn(missing_docs)]

pub mod controller;
pub mod drift;
pub mod reservoir;
pub mod retrain;

pub use controller::{
    ContinualConfig, ContinualController, ContinualError, WindowOutcome, DRIFT_CHANNELS,
};
pub use drift::{DriftConfig, DriftDetector};
pub use reservoir::{Reservoir, ReservoirSample, RESERVOIR_DIM};
pub use retrain::{train_candidate, RetrainSpec};
