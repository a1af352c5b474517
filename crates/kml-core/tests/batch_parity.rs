//! Property tests: batched inference over a row-stacked feature matrix is
//! bit-identical to N single-row inferences — the guarantee the fleet's
//! shared model-inference server rests on. A batch forward runs one
//! `B × input_dim` matmul per linear layer (the blocked-GEMM path) instead
//! of B single-row passes, so this property is what lets the server batch
//! per-tenant windows without changing a single decision.
//!
//! Covered across all three scalar types (f32, f64, Q16.16 fixed point),
//! with and without a fitted normalizer, and including ragged final
//! batches: chunking the rows into uneven batches must reproduce the
//! full-batch output bit for bit, and a single row run after those
//! batches must answer as it does on a fresh model.

use kml_core::dataset::Normalizer;
use kml_core::fixed::Fix32;
use kml_core::matrix::Matrix;
use kml_core::model::{Model, ModelBuilder};
use kml_core::scalar::Scalar;
use proptest::prelude::*;

/// Builds the test network: wide enough that the hidden dimension crosses
/// the blocked kernel's tile boundaries for some draws.
fn build_model<S: Scalar>(
    input_dim: usize,
    hidden: usize,
    output_dim: usize,
    seed: u64,
    normalize: bool,
    rows: &[Vec<f64>],
) -> Model<S> {
    let mut model = ModelBuilder::new(input_dim)
        .linear(hidden)
        .sigmoid()
        .linear(output_dim)
        .seed(seed)
        .build::<S>()
        .expect("valid topology");
    if normalize {
        let features = Matrix::from_rows(rows).expect("rectangular rows");
        model.set_normalizer(Normalizer::fit(&features).expect("fit succeeds"));
    }
    model
}

#[allow(clippy::too_many_arguments)]
fn check_batch_parity<S: Scalar>(
    input_dim: usize,
    hidden: usize,
    output_dim: usize,
    seed: u64,
    normalize: bool,
    data: &[f64],
    n_rows: usize,
    chunk: usize,
) {
    let rows: Vec<Vec<f64>> = (0..n_rows)
        .map(|r| data[r * input_dim..(r + 1) * input_dim].to_vec())
        .collect();
    let mut model = build_model::<S>(input_dim, hidden, output_dim, seed, normalize, &rows);

    // Serial reference: one infer_into / predict per row.
    let mut serial_out = Vec::new();
    let mut serial_classes = Vec::new();
    let mut row_out = Vec::new();
    for row in &rows {
        model.infer_into(row, &mut row_out).expect("serial infer");
        serial_out.extend_from_slice(&row_out);
        serial_classes.push(model.predict(row).expect("serial predict"));
    }

    // Full batch: one forward pass over all rows.
    let stacked: Vec<f64> = rows.iter().flatten().copied().collect();
    let mut batch_out = Vec::new();
    model
        .infer_batch_into(&stacked, n_rows, &mut batch_out)
        .expect("batch infer");
    assert_eq!(batch_out.len(), n_rows * output_dim);
    for (i, (s, b)) in serial_out.iter().zip(&batch_out).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "output {i}: serial {s} vs batched {b}"
        );
    }
    let mut batch_classes = Vec::new();
    model
        .predict_batch_into(&stacked, n_rows, &mut batch_classes)
        .expect("batch predict");
    assert_eq!(serial_classes, batch_classes);

    // Ragged chunking: uneven batch sizes (final chunk smaller) must
    // reproduce the full-batch output bit for bit.
    let mut chunked_out = Vec::new();
    let mut chunk_buf = Vec::new();
    for rows_chunk in rows.chunks(chunk) {
        let flat: Vec<f64> = rows_chunk.iter().flatten().copied().collect();
        model
            .infer_batch_into(&flat, rows_chunk.len(), &mut chunk_buf)
            .expect("chunked infer");
        chunked_out.extend_from_slice(&chunk_buf);
    }
    for (i, (s, c)) in serial_out.iter().zip(&chunked_out).enumerate() {
        assert_eq!(
            s.to_bits(),
            c.to_bits(),
            "output {i}: serial {s} vs chunked {c}"
        );
    }

    // A single row is a one-row batch on the same staging matrix: after
    // the batches above, the model answers each row exactly as a fresh
    // model does.
    let mut fresh = build_model::<S>(input_dim, hidden, output_dim, seed, normalize, &rows);
    let mut fresh_out = Vec::new();
    for row in &rows {
        model
            .infer_into(row, &mut row_out)
            .expect("row after batch");
        fresh.infer_into(row, &mut fresh_out).expect("fresh row");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&row_out),
            bits(&fresh_out),
            "row {row:?} after a batch"
        );
        assert_eq!(model.predict(row).unwrap(), fresh.predict(row).unwrap());
    }
}

/// Dimensions: hidden up to 20 so some draws cross the blocked kernel's
/// tile edges; rows up to 37 and chunks up to 7 so final chunks are ragged
/// for most draws. Values stay within ±8 so Q16.16 stays unsaturated.
const MAX_ROWS: usize = 37;
const MAX_DIM: usize = 6;

type Params = ((usize, usize, usize), (u64, bool), (usize, usize));

fn params() -> impl Strategy<Value = Params> {
    (
        // (input_dim, hidden, output_dim)
        (1..=MAX_DIM, 1..=20usize, 2..=5usize),
        // (seed, normalizer attached?)
        (0..1000u64, any::<bool>()),
        // (rows, chunk size — ragged final batch for most draws)
        (1..=MAX_ROWS, 1..=7usize),
    )
}

fn values() -> proptest::collection::VecStrategy<std::ops::Range<f64>> {
    proptest::collection::vec(-8.0f64..8.0, MAX_ROWS * MAX_DIM..MAX_ROWS * MAX_DIM + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_inference_matches_serial_f32(
        ((input_dim, hidden, output_dim), (seed, normalize), (rows, chunk)) in params(),
        data in values(),
    ) {
        check_batch_parity::<f32>(input_dim, hidden, output_dim, seed, normalize, &data, rows, chunk);
    }

    #[test]
    fn batched_inference_matches_serial_f64(
        ((input_dim, hidden, output_dim), (seed, normalize), (rows, chunk)) in params(),
        data in values(),
    ) {
        check_batch_parity::<f64>(input_dim, hidden, output_dim, seed, normalize, &data, rows, chunk);
    }

    #[test]
    fn batched_inference_matches_serial_fix32(
        ((input_dim, hidden, output_dim), (seed, normalize), (rows, chunk)) in params(),
        data in values(),
    ) {
        check_batch_parity::<Fix32>(input_dim, hidden, output_dim, seed, normalize, &data, rows, chunk);
    }
}

#[test]
fn empty_batch_is_a_clean_no_op() {
    let mut model = ModelBuilder::new(3)
        .linear(4)
        .sigmoid()
        .linear(2)
        .seed(1)
        .build::<f32>()
        .unwrap();
    let mut out = vec![1.0, 2.0];
    model.infer_batch_into(&[], 0, &mut out).unwrap();
    assert!(out.is_empty());
    let mut classes = vec![9usize];
    model.predict_batch_into(&[], 0, &mut classes).unwrap();
    assert!(classes.is_empty());
}

#[test]
fn wrong_batch_shape_is_rejected() {
    let mut model = ModelBuilder::new(3)
        .linear(4)
        .sigmoid()
        .linear(2)
        .seed(1)
        .build::<f32>()
        .unwrap();
    let mut out = Vec::new();
    // 5 values cannot be 2 rows of 3 features.
    let err = model.infer_batch_into(&[0.0; 5], 2, &mut out).unwrap_err();
    assert!(matches!(err, kml_core::KmlError::ShapeMismatch { .. }));
}

/// Seven values are not zero rows of five features: the shape is checked
/// before the empty batch returns, on the exact path and the q8 engine, and
/// neither output buffer is touched.
#[test]
fn zero_rows_with_features_is_a_shape_mismatch() {
    let build = || {
        ModelBuilder::readahead_paper_topology(5, 4)
            .build::<f32>()
            .unwrap()
    };
    let shape =
        |r: kml_core::Result<()>| matches!(r, Err(kml_core::KmlError::ShapeMismatch { .. }));
    let mut q8 = build();
    q8.enable_q8().unwrap();
    for mut model in [build(), q8] {
        let (mut out, mut classes) = (vec![1.0], vec![9usize]);
        assert!(shape(model.infer_batch_into(&[1.0; 7], 0, &mut out)));
        assert!(shape(model.predict_batch_into(&[1.0; 7], 0, &mut classes)));
        assert_eq!((out, classes), (vec![1.0], vec![9]));
    }
}
