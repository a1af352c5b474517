//! # readahead — the paper's §4 use case on top of KML
//!
//! Everything specific to *"Use case: improving readahead"*:
//!
//! - [`features`] — turns the tracepoint stream into the paper's five
//!   features, windowed once per (simulated) second.
//! - [`study`] — §4 "Studying the problem": sweeps readahead sizes across
//!   workloads and devices, building the workload-class → best-readahead
//!   mapping (experiment E1 / the motivating curves).
//! - [`datagen`] — collects labeled training windows by running the four
//!   training workloads (readrandom, readseq, readreverse,
//!   readrandomwriterandom) on NVMe, as the paper does.
//! - [`model`] — builds/trains the readahead neural network (three linear
//!   layers + sigmoids, cross-entropy, SGD lr=0.01 momentum=0.99) and the
//!   comparison decision tree, with k-fold validation (E2).
//! - [`tuner`] — the deployed KML application: drains tracepoints, extracts
//!   features once a second, infers the workload class, and actuates the
//!   readahead size (Figure 1's green closed loop).
//! - [`closed_loop`] — end-to-end vanilla-vs-KML benchmark runs producing
//!   Table 2 rows (E3) and the Figure 2 timeline (E4).
//! - [`rl`] — the paper's future-work reinforcement-learning direction: a
//!   UCB1 bandit that tunes readahead from throughput feedback alone.
//!
//! ## Quick taste
//!
//! ```no_run
//! use readahead::closed_loop;
//! use readahead::model::LoopConfig;
//! use kernel_sim::DeviceProfile;
//! use kvstore::Workload;
//!
//! let cfg = LoopConfig::default();
//! let trained = readahead::model::train_paper_model(&cfg).unwrap();
//! let outcome = closed_loop::compare(
//!     Workload::MixGraph,
//!     DeviceProfile::nvme(),
//!     &trained,
//!     &cfg,
//! ).unwrap();
//! println!("mixgraph speedup on NVMe: {:.2}x", outcome.speedup);
//! ```

pub mod closed_loop;
pub mod datagen;
pub mod features;
pub mod model;
pub mod rl;
pub mod study;
pub mod tuner;

pub use features::{FeatureExtractor, FeatureVector, WindowMoments, NUM_FEATURES};
pub use study::{ReadaheadStudy, RA_SWEEP_KB};
pub use tuner::{KmlTuner, RaPolicy, TunerModel};
