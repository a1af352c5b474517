//! Property suite for the `.kmlm` artifact format.
//!
//! The lifecycle's whole safety story rests on two artifact properties, so
//! they get exhaustive randomized coverage here:
//!
//! 1. **Round-trip fidelity** — for arbitrary models (every shipped dtype,
//!    random q8-compatible topologies, optional normalizer, optional q8
//!    calibration tables), `save → load → save` is bit-identical and the
//!    reloaded model predicts identically to the original.
//! 2. **All-or-nothing load** — any single-byte corruption and any
//!    truncation is rejected with a typed [`ArtifactError`], never a panic
//!    and never a partially constructed model.

use kml_core::dataset::Normalizer;
use kml_core::matrix::Matrix;
use kml_core::model::{Model, ModelBuilder};
use kml_core::scalar::Scalar;
use kml_lifecycle::{load_model, save_model, ArtifactKind};
use proptest::prelude::*;

/// Random artifact shape: everything that varies between deployments.
#[derive(Debug, Clone)]
struct Shape {
    kind: ArtifactKind,
    hidden: Vec<(usize, bool)>, // (width, relu-instead-of-sigmoid)
    classes: usize,
    seed: u64,
    normalized: bool,
    q8: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        0usize..ArtifactKind::ALL.len(),
        proptest::collection::vec((1usize..12, proptest::any::<bool>()), 0..3),
        (2usize..5, proptest::any::<u64>()),
        (proptest::any::<bool>(), proptest::any::<bool>()),
    )
        .prop_map_shape()
}

/// The vendored proptest has no `prop_map`; a tiny adapter keeps the
/// strategy composition readable.
trait ShapeMap {
    fn prop_map_shape(self) -> MappedShape<Self>
    where
        Self: Sized,
    {
        MappedShape(self)
    }
}

type RawShape = (usize, Vec<(usize, bool)>, (usize, u64), (bool, bool));

impl<S: Strategy<Value = RawShape>> ShapeMap for S {}

struct MappedShape<S>(S);

impl<S: Strategy<Value = RawShape>> Strategy for MappedShape<S> {
    type Value = Shape;
    fn sample(&self, rng: &mut rand::rngs::StdRng) -> Shape {
        let (kind_ix, hidden, (classes, seed), (normalized, q8)) = self.0.sample(rng);
        Shape {
            kind: ArtifactKind::ALL[kind_ix],
            hidden,
            classes,
            seed,
            normalized,
            q8,
        }
    }
}

/// Builds the model a `Shape` describes. Activations are restricted to
/// sigmoid/relu so every generated topology is q8-compatible.
fn build_model<S: Scalar>(shape: &Shape) -> Model<S> {
    let input_dim = shape.kind.feature_names().len();
    let mut b = ModelBuilder::new(input_dim).seed(shape.seed);
    for &(width, relu) in &shape.hidden {
        b = b.linear(width);
        b = if relu { b.relu() } else { b.sigmoid() };
    }
    let mut model = b
        .linear(shape.classes)
        .build::<S>()
        .expect("generated topology builds");
    if shape.normalized {
        // Three seed-derived rows are enough for distinct per-feature
        // means/stds without degenerate zero variance.
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|r| {
                (0..input_dim)
                    .map(|c| {
                        let x = shape.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ ((r * input_dim + c) as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                        (x % 1000) as f64 / 10.0 + r as f64
                    })
                    .collect()
            })
            .collect();
        let m = Matrix::from_rows(&rows).expect("rectangular");
        model.set_normalizer(Normalizer::fit(&m).expect("non-empty"));
    }
    if shape.q8 {
        model.enable_q8().expect("sigmoid/relu chains quantize");
    }
    model
}

fn probe(input_dim: usize) -> Vec<f64> {
    (0..input_dim).map(|i| (i as f64 + 1.0) * 3.5).collect()
}

/// Round-trip one shape at one dtype: save → load → save must be
/// bit-identical, and the reloaded model must predict identically.
fn check_round_trip<S: Scalar>(shape: &Shape) -> Result<(), TestCaseError> {
    let mut original = build_model::<S>(shape);
    let bytes = match save_model(shape.kind, &mut original) {
        Ok(b) => b,
        Err(e) => return Err(TestCaseError(format!("save failed: {e}"))),
    };
    let loaded = match load_model::<S>(&bytes) {
        Ok(l) => l,
        Err(e) => return Err(TestCaseError(format!("load failed: {e}"))),
    };
    prop_assert_eq!(loaded.kind, shape.kind);
    prop_assert_eq!(&loaded.dtype, S::DTYPE);
    prop_assert_eq!(loaded.q8, shape.q8);
    let mut reloaded = loaded.model;
    prop_assert_eq!(reloaded.q8_enabled(), shape.q8);
    let again = match save_model(shape.kind, &mut reloaded) {
        Ok(b) => b,
        Err(e) => return Err(TestCaseError(format!("re-save failed: {e}"))),
    };
    prop_assert_eq!(&bytes, &again, "save→load→save not bit-identical");
    let p = probe(shape.kind.feature_names().len());
    let a = original
        .predict(&p)
        .map_err(|e| TestCaseError(e.to_string()))?;
    let b = reloaded
        .predict(&p)
        .map_err(|e| TestCaseError(e.to_string()))?;
    prop_assert_eq!(a, b, "reloaded model predicts differently");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip fidelity at f32 — the fleet's serving dtype.
    #[test]
    fn round_trip_f32(shape in shape_strategy()) {
        check_round_trip::<f32>(&shape)?;
    }

    /// Round-trip fidelity at f64 — the training dtype.
    #[test]
    fn round_trip_f64(shape in shape_strategy()) {
        check_round_trip::<f64>(&shape)?;
    }

    /// Any single flipped byte is rejected with a typed error: the
    /// whole-artifact checksum catches every bit flip before any field is
    /// trusted, so there is no partially loaded model to observe.
    #[test]
    fn single_byte_corruption_is_rejected(
        shape in shape_strategy(),
        at in proptest::any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut model = build_model::<f32>(&shape);
        let bytes = save_model(shape.kind, &mut model)
            .map_err(|e| TestCaseError(format!("save failed: {e}")))?;
        let mut corrupt = bytes.clone();
        let i = (at as usize) % corrupt.len();
        corrupt[i] ^= mask;
        prop_assert!(
            load_model::<f32>(&corrupt).is_err(),
            "corruption at byte {} (mask {:#04x}) was accepted", i, mask
        );
    }

    /// Any truncation — including an empty buffer — is rejected with a
    /// typed error, never a panic.
    #[test]
    fn truncation_is_rejected(shape in shape_strategy(), cut in proptest::any::<u64>()) {
        let mut model = build_model::<f32>(&shape);
        let bytes = save_model(shape.kind, &mut model)
            .map_err(|e| TestCaseError(format!("save failed: {e}")))?;
        let keep = (cut as usize) % bytes.len(); // strictly shorter than full
        prop_assert!(
            load_model::<f32>(&bytes[..keep]).is_err(),
            "truncation to {} of {} bytes was accepted", keep, bytes.len()
        );
    }

    /// Appending trailing garbage is rejected: an artifact is exactly its
    /// declared bytes.
    #[test]
    fn trailing_bytes_are_rejected(shape in shape_strategy(), extra in 1usize..16) {
        let mut model = build_model::<f32>(&shape);
        let mut bytes = save_model(shape.kind, &mut model)
            .map_err(|e| TestCaseError(format!("save failed: {e}")))?;
        bytes.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert!(load_model::<f32>(&bytes).is_err());
    }
}
