//! The retrainer: reservoir samples → trained candidate → `.kmlm` bytes.
//!
//! [`train_candidate`] is a deterministic function from
//! `(spec, token, samples)` to artifact bytes: one thread, full-batch
//! steps through [`TrainSpec`], so the candidate bytes are the same at
//! `--threads 1/3/8`. It runs on the thread that calls it.

use kml_core::prelude::*;
use kml_core::train::{deploy, TrainSpec};
use kml_lifecycle::{save_model, ArtifactKind};

use crate::reservoir::{ReservoirSample, RESERVOIR_DIM};

/// What to train when drift fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainSpec {
    /// Artifact kind the candidate is packaged as (fixes schema hash and
    /// feature naming at install time).
    pub kind: ArtifactKind,
    /// Output classes of the policy head.
    pub classes: usize,
    /// Full-batch epochs over the reservoir.
    pub epochs: u32,
    /// Base seed; the retrain token is folded in so successive candidates
    /// start from distinct (but deterministic) initializations.
    pub seed: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trains a candidate from reservoir samples and packages it as `.kmlm`
/// bytes. Deterministic: same `(spec, token, samples)` in, same bytes
/// out.
///
/// # Errors
///
/// Returns a description when the sample set is empty or degenerate
/// (e.g. a label outside `spec.classes`) or when model building,
/// training, or encoding fails.
pub fn train_candidate(
    spec: &RetrainSpec,
    token: u64,
    samples: &[ReservoirSample],
) -> Result<Vec<u8>, String> {
    if samples.is_empty() {
        return Err("retrain with empty reservoir".into());
    }
    if let Some(bad) = samples.iter().find(|s| s.label >= spec.classes) {
        return Err(format!(
            "reservoir label {} out of range for {} classes",
            bad.label, spec.classes
        ));
    }
    // The reservoir staged straight into one row-major matrix.
    let flat: Vec<f64> = samples.iter().flat_map(|s| s.features).collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
    let data = Matrix::from_vec(samples.len(), RESERVOIR_DIM, flat)
        .and_then(|features| Dataset::from_matrix(features, labels))
        .map_err(|e| e.to_string())?;
    let recipe = TrainSpec {
        topology: ModelBuilder::readahead_paper_topology(RESERVOIR_DIM, spec.classes)
            .seed(spec.seed ^ token.wrapping_mul(GOLDEN)),
        // The paper's SGD (§4), one full-batch step per epoch.
        learning_rate: 0.01,
        momentum: 0.99,
        epochs: spec.epochs as usize,
        shuffle: None,
    };
    // Serve in f32 like every deployed artifact, wrapped in the .kmlm
    // envelope.
    let mut m32 = recipe
        .train(&data)
        .and_then(|(model, _)| deploy(&model))
        .map_err(|e| e.to_string())?;
    save_model(spec.kind, &mut m32).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::Reservoir;

    fn spec() -> RetrainSpec {
        RetrainSpec {
            kind: ArtifactKind::Readahead,
            classes: 2,
            epochs: 20,
            seed: 0x5EED,
        }
    }

    fn filled_reservoir(n: u64) -> Reservoir {
        let mut r = Reservoir::new(96, 0xC0FFEE);
        for id in 0..n {
            // Two separable clusters so training has something to learn.
            let (base, label) = if id % 2 == 0 { (10.0, 0) } else { (500.0, 1) };
            let x = base + (id % 7) as f64;
            r.offer(id, [x, x * 2.0, x * 0.5, x + 3.0, 128.0], label);
        }
        r
    }

    #[test]
    fn train_candidate_is_deterministic_and_loadable() {
        let r = filled_reservoir(200);
        let a = train_candidate(&spec(), 1, r.samples()).expect("train");
        let b = train_candidate(&spec(), 1, r.samples()).expect("train again");
        assert_eq!(a, b, "same inputs must give byte-identical artifacts");
        let loaded =
            kml_lifecycle::load_model_for::<f32>(&a, ArtifactKind::Readahead).expect("load");
        assert_eq!(loaded.model.input_dim(), RESERVOIR_DIM);
        assert_eq!(loaded.model.output_dim(), 2);
    }

    /// The artifact for a fixed seeded reservoir, pinned as an FNV-1a of
    /// its bytes. Recorded before the training step was first rewritten
    /// (blocked softmax, one-pass activation backward) and unchanged since,
    /// through the feature-major step (the batch across the lanes of the
    /// forward pass and of `W·dYᵀ`, `dW` and `db` from gathered columns of
    /// `dYᵀ`); every kernel backend must reproduce it.
    #[test]
    fn train_candidate_artifact_matches_golden() {
        let r = filled_reservoir(200);
        let golden_spec = RetrainSpec {
            epochs: 300,
            ..spec()
        };
        let bytes = train_candidate(&golden_spec, 7, r.samples()).expect("train");
        let fnv = kml_platform::bytes::Fnv1a::of(&bytes);
        assert_eq!(
            fnv,
            0x5c41_a18e_644f_67f5,
            "artifact FNV-1a {fnv:#018x} over {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn distinct_tokens_give_distinct_candidates() {
        let r = filled_reservoir(200);
        let a = train_candidate(&spec(), 1, r.samples()).expect("train");
        let b = train_candidate(&spec(), 2, r.samples()).expect("train");
        assert_ne!(a, b, "the token folds into the init seed");
    }

    #[test]
    fn empty_and_bad_label_inputs_are_rejected() {
        assert!(train_candidate(&spec(), 1, &[]).is_err());
        let mut r = Reservoir::new(4, 1);
        r.offer(0, [1.0; RESERVOIR_DIM], 7);
        assert!(train_candidate(&spec(), 1, r.samples()).is_err());
    }

    /// One non-finite feature among the samples would fit a NaN mean into
    /// the normalizer and install a model whose every output is NaN.
    #[test]
    fn a_non_finite_sample_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut r = filled_reservoir(63);
            r.offer(63, [bad, 1.0, 1.0, 1.0, 128.0], 0);
            assert_eq!(r.len(), 64);
            assert!(train_candidate(&spec(), 1, r.samples()).is_err());
        }
    }
}
