//! # kml-core — the KML machine-learning library
//!
//! From-scratch ML library reproducing §2 of *"A Machine Learning Framework
//! to Improve Storage System Performance"* (HotStorage '21). The original is
//! written so the **same code** runs in the Linux kernel and in user space;
//! this crate keeps that discipline by using only [`kml_platform`] wrappers
//! for memory, threads, files and by implementing every math primitive
//! (logarithm, exponential, sigmoid, softmax, ...) from scratch with
//! approximation algorithms — no `libm`-style shortcuts on the hot paths.
//!
//! ## Components (paper §2)
//!
//! - [`math`] — approximation algorithms for `exp`, `ln`, `sigmoid`,
//!   `softmax`, `tanh`, `sqrt`.
//! - [`matrix`] — dense row-major [`matrix::Matrix`] over any [`scalar::Scalar`]:
//!   `f32`, `f64`, and [`fixed::Fix32`] (Q16.16 fixed point), mirroring KML's
//!   *integer, floating-point, and double precision* matrix support (§3.1).
//! - [`layers`] — differentiable components (linear, sigmoid, ReLU, tanh,
//!   softmax) each implementing forward and backward propagation.
//! - [`loss`] — cross-entropy, mean-squared-error, and binary cross-entropy
//!   loss functions with gradients.
//! - [`graph`] — the chain of layers traversed forward for inference and
//!   backward for reverse-mode automatic differentiation (back-propagation).
//! - [`scratch`] — the [`scratch::ScratchArena`] of reusable buffers behind
//!   the allocation-free steady-state inference/training hot path.
//! - [`optimizer`] — stochastic gradient descent with momentum.
//! - [`model`] — the high-level sequential model: build, train, infer,
//!   save/load in the KML binary model-file format ([`modelfile`]).
//! - [`dtree`] — CART decision trees (the paper's second model family).
//! - [`quant`] — post-training int8 quantization for inference (the §3.1
//!   compact-representation option), including the bounded-error Q8
//!   serving engine used by the fleet tier.
//! - [`simd`] — runtime-dispatched AVX2/AVX-512 kernel backends,
//!   bit-identical to the scalar blocked kernels (`KML_FORCE_SCALAR=1`
//!   pins the scalar reference).
//! - [`dataset`] / [`validate`] — in-memory datasets, Z-score normalization,
//!   k-fold cross-validation.
//! - [`train`] — the one training path every deployed model takes
//!   ([`train::TrainSpec`]) and the f32 model-file round trip
//!   ([`train::deploy`]).
//!
//! ## Quickstart
//!
//! ```
//! use kml_core::prelude::*;
//!
//! // 2-class toy problem: classify points by sign of x0 + x1.
//! let mut rng = KmlRng::seed_from_u64(7);
//! let mut xs = Vec::new();
//! let mut ys = Vec::new();
//! for _ in 0..200 {
//!     let a: f64 = rng.gen_range(-1.0..1.0);
//!     let b: f64 = rng.gen_range(-1.0..1.0);
//!     xs.push(vec![a, b]);
//!     ys.push(usize::from(a + b > 0.0));
//! }
//! let data = Dataset::from_rows(&xs, &ys).unwrap();
//!
//! let mut model = ModelBuilder::new(2)
//!     .linear(8)
//!     .sigmoid()
//!     .linear(2)
//!     .build::<f64>()
//!     .unwrap();
//! let mut sgd = Sgd::new(0.5, 0.9);
//! for _ in 0..300 {
//!     model.train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng).unwrap();
//! }
//! let acc = model.accuracy(&data).unwrap();
//! assert!(acc > 0.95, "accuracy was {acc}");
//! ```

pub mod dataset;
pub mod dtree;
pub mod fixed;
pub mod graph;
pub mod layers;
pub mod loss;
pub mod math;
pub mod matrix;
pub mod model;
pub mod modelfile;
pub mod optimizer;
pub mod quant;
pub mod scalar;
pub mod scratch;
pub mod simd;
pub mod train;
pub mod validate;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::dtree::{DecisionTree, DecisionTreeConfig};
    pub use crate::layers::{Activation, Layer};
    pub use crate::loss::{BceLoss, CrossEntropyLoss, Loss, MseLoss};
    pub use crate::matrix::Matrix;
    pub use crate::model::{Model, ModelBuilder};
    pub use crate::optimizer::Sgd;
    pub use crate::scalar::Scalar;
    pub use crate::validate::{accuracy, k_fold_cross_validate};
    pub use crate::{KmlError, KmlRng};
    pub use rand::{Rng, SeedableRng};
}

/// The deterministic RNG used across the library (seedable for reproducible
/// experiments, as all paper experiments are scripted with fixed seeds).
pub type KmlRng = rand::rngs::StdRng;

/// Errors produced by kml-core.
#[derive(Debug, Clone, PartialEq)]
pub enum KmlError {
    /// Operand shapes are incompatible (e.g. matmul of `m×k` with `j×n`, `k != j`).
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left operand shape `(rows, cols)`.
        lhs: (usize, usize),
        /// Right operand shape `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A model or layer was configured inconsistently.
    InvalidConfig(String),
    /// The model file is corrupt or has an unsupported version.
    BadModelFile(String),
    /// The dataset is unusable (empty, ragged rows, label out of range...).
    BadDataset(String),
    /// An underlying platform operation failed.
    Platform(kml_platform::PlatformError),
}

impl std::fmt::Display for KmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmlError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            KmlError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            KmlError::BadModelFile(msg) => write!(f, "bad model file: {msg}"),
            KmlError::BadDataset(msg) => write!(f, "bad dataset: {msg}"),
            KmlError::Platform(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for KmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KmlError::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kml_platform::PlatformError> for KmlError {
    fn from(e: kml_platform::PlatformError) -> Self {
        KmlError::Platform(e)
    }
}

impl From<kml_platform::bytes::Truncated> for KmlError {
    fn from(e: kml_platform::bytes::Truncated) -> Self {
        KmlError::BadModelFile(e.to_string())
    }
}

/// Result alias for kml-core operations.
pub type Result<T> = std::result::Result<T, KmlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_mentions_shapes() {
        let e = KmlError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn platform_errors_convert() {
        let p = kml_platform::PlatformError::File("x".into());
        let e: KmlError = p.into();
        assert!(matches!(e, KmlError::Platform(_)));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KmlError>();
    }
}
