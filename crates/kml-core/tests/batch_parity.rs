//! Property tests: batched inference over a row-stacked feature matrix is
//! bit-identical to N single-row inferences — the guarantee the fleet's
//! shared model-inference server rests on. A batch forward runs one
//! `B × input_dim` matmul per linear layer (the blocked-GEMM path) instead
//! of B single-row passes, so this property is what lets the server batch
//! per-tenant windows without changing a single decision.
//!
//! Covered across both scalar types (f32, f64),
//! with and without a fitted normalizer, and including ragged final
//! batches: chunking the rows into uneven batches must reproduce the
//! full-batch output bit for bit, and a single row run after those
//! batches must answer as it does on a fresh model.
//!
//! A batch of ten rows or more is staged feature-major, the batch
//! across the SIMD lanes (`Model`'s layout switch); a smaller one stays
//! row-major. The deterministic tests below take every batch size from 1
//! to 300 — both layouts, the switch, and the 8- and 16-lane edges of
//! both x86 arms — through the fleet's three topologies and a
//! softmax-ended one, with tiny activations in every lane position and
//! NaN and ±inf features, and then put the two products themselves
//! through every x86 arm the host has. CI runs this file on the
//! dispatched backend and under `KML_FORCE_SCALAR=1`.

use kml_core::dataset::Normalizer;
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
/// for most draws. Values stay within ±8.
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

/// A layer of width zero leaves nothing to compare: every batch size, in
/// either layout, answers as one-row passes do — no values, class 0.
#[test]
fn a_zero_width_output_answers_every_batch_size() {
    let mut model = ModelBuilder::new(3).linear(0).build::<f32>().unwrap();
    let (mut out, mut classes) = (vec![1.0], vec![9usize]);
    for rows in [1usize, 9, 10, 70] {
        let features = vec![0.5; 3 * rows];
        model.infer_batch_into(&features, rows, &mut out).unwrap();
        model
            .predict_batch_into(&features, rows, &mut classes)
            .unwrap();
        assert_eq!(
            (out.len(), &classes[..]),
            (0, &vec![0; rows][..]),
            "{rows} rows"
        );
    }
    assert_eq!(model.predict(&[0.5; 3]).unwrap(), 0);
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

/// Largest batch of the every-size tests.
const MAX_BATCH: usize = 300;
/// Rows of test data: a batch of size `b` starts at row `b % 17`, so a
/// given row meets every lane position across the sizes.
const DATA_ROWS: usize = MAX_BATCH + 17;

/// The fleet's three topologies (readahead 5→15→10→4, iosched 4→10→2,
/// netfs 5→10→2, sigmoid between linear layers) and the first again with
/// a softmax head.
fn fleet_models<S: Scalar>() -> Vec<Model<S>> {
    let chain = |input: usize, widths: &[usize], softmax: bool, seed: u64| {
        let mut b = ModelBuilder::new(input).seed(seed);
        for (i, &w) in widths.iter().enumerate() {
            b = b.linear(w);
            if i + 1 < widths.len() {
                b = b.sigmoid();
            }
        }
        if softmax {
            b = b.softmax();
        }
        b.build::<S>().expect("valid topology")
    };
    vec![
        chain(5, &[15, 10, 4], false, 1),
        chain(4, &[10, 2], false, 2),
        chain(5, &[10, 2], false, 3),
        chain(5, &[15, 10, 4], true, 4),
    ]
}

/// [`DATA_ROWS`] feature rows for `model`, row-stacked: values in ±3;
/// every third row moved along feature 0 until one first-layer unit —
/// which one changes with the row — sits at −95 before its sigmoid, where
/// σ is an f32 subnormal (a tiny activation the f32 arms route); and a
/// NaN, a +inf or a −inf feature in some rows.
fn feature_rows<S: Scalar>(model: &Model<S>, seed: u64) -> Vec<f64> {
    let dim = model.input_dim();
    let first = model.graph().layers().next().expect("a layer").params();
    let (w, bias) = (first[0], first[1]);
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 6.0 - 3.0
    };
    let mut out = Vec::with_capacity(DATA_ROWS * dim);
    for r in 0..DATA_ROWS {
        let mut f: Vec<f64> = (0..dim).map(|_| next()).collect();
        if r % 3 == 0 {
            let u = (r / 3) % w.cols();
            let z: f64 = (0..dim).map(|p| f[p] * w.get(p, u).to_f64()).sum();
            f[0] += (-95.0 - z - bias.get(0, u).to_f64()) / w.get(0, u).to_f64();
        }
        match r % 23 {
            5 => f[r % dim] = f64::NAN,
            11 => f[r % dim] = f64::INFINITY,
            17 => f[r % dim] = f64::NEG_INFINITY,
            _ => {}
        }
        out.extend(f);
    }
    out
}

/// How many of `rows`' first hidden layers (after the sigmoid, in f32)
/// hold an activation below 2^-100 that is not zero.
fn rows_with_tiny_activations(model: &Model<f32>, rows: &[f64]) -> usize {
    let first = model.graph().layers().next().expect("a layer").params();
    let dim = model.input_dim();
    let mut pre = Matrix::zeros(0, 0);
    let mut act = Matrix::zeros(0, 0);
    let x = Matrix::<f32>::from_f64_vec(rows.len() / dim, dim, rows).unwrap();
    x.matmul_bias_into(first[0], Some(first[1]), &mut pre)
        .unwrap();
    pre.sigmoid_into(&mut act);
    (0..act.rows())
        .filter(|&r| {
            act.row(r)
                .iter()
                .any(|v| *v != 0.0 && v.abs() < 2f32.powi(-100))
        })
        .count()
}

/// Row `i` of every batch size from 1 to [`MAX_BATCH`] answers bit for
/// bit as a one-row pass of the same row does, raw values and class.
fn check_every_batch_size<S: Scalar>() {
    for (m, mut model) in fleet_models::<S>().into_iter().enumerate() {
        let (dim, width) = (model.input_dim(), model.output_dim());
        let data = feature_rows(&model, m as u64);
        let (mut want, mut classes, mut row) = (Vec::new(), Vec::new(), Vec::new());
        for f in data.chunks(dim) {
            model.infer_into(f, &mut row).expect("one row");
            want.extend(row.iter().map(|v| v.to_bits()));
            classes.push(model.predict(f).expect("one row"));
        }
        let (mut got, mut got_classes) = (Vec::new(), Vec::new());
        for b in 1..=MAX_BATCH {
            let s = b % 17;
            let batch = &data[s * dim..(s + b) * dim];
            model.infer_batch_into(batch, b, &mut got).expect("batch");
            let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits,
                want[s * width..(s + b) * width],
                "model {m}, batch {b}"
            );
            model
                .predict_batch_into(batch, b, &mut got_classes)
                .expect("batch");
            assert_eq!(got_classes, classes[s..s + b], "model {m}, batch {b}");
        }
    }
}

#[test]
fn every_batch_size_matches_one_row_passes_f32() {
    // The rows do put tiny activations in front of the second layer.
    for (m, model) in fleet_models::<f32>().iter().enumerate() {
        let tiny = rows_with_tiny_activations(model, &feature_rows(model, m as u64));
        assert!(tiny >= DATA_ROWS / 3 - 20, "model {m}: {tiny} rows");
    }
    check_every_batch_size::<f32>();
}

#[test]
fn every_batch_size_matches_one_row_passes_f64() {
    check_every_batch_size::<f64>();
}

/// The two products behind the layouts, on every x86 arm the host has:
/// the feature-major one (`transpose_matmul` with a bias: weights `kd ×
/// mm`, activations `kd × n`) is the row-major one (`matmul` with a bias:
/// activations `n × kd`) transposed, bit for bit, for every `n` from 1 to
/// [`MAX_BATCH`] and each layer shape of the fleet models — with a tiny
/// activation in every third row, so in every lane position, and NaN and
/// ±inf among them. The dispatched `Matrix` products must agree too.
#[cfg(target_arch = "x86_64")]
#[test]
fn every_arm_puts_the_batch_across_its_lanes_bit_for_bit() {
    use kml_core::simd::testing as arms;
    type Product = fn(&[f32], &[f32], Option<&[f32]>, &mut [f32], usize, usize, usize) -> bool;
    let table: [(&str, Product, Product); 2] = [
        (
            "avx2",
            arms::avx2_matmul_f32,
            arms::avx2_transpose_matmul_f32,
        ),
        (
            "avx512",
            arms::avx512_matmul_f32,
            arms::avx512_transpose_matmul_f32,
        ),
    ];
    let tiny = [1.0e-41f32, -3.0e-39, 7.5e-33, f32::from_bits(1)];
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
    };
    for (kd, mm) in [
        (5usize, 15usize),
        (15, 10),
        (10, 4),
        (4, 10),
        (10, 2),
        (5, 10),
    ] {
        let w: Vec<f32> = (0..kd * mm).map(|_| next()).collect();
        let bias: Vec<f32> = (0..mm).map(|_| next()).collect();
        for n in 1..=MAX_BATCH {
            let mut x: Vec<f32> = (0..n * kd).map(|_| next()).collect();
            for j in (0..n).step_by(3) {
                x[j * kd + j % kd] = tiny[j % tiny.len()];
            }
            for (j, v) in [(5, f32::NAN), (11, f32::INFINITY), (17, f32::NEG_INFINITY)] {
                if j < n {
                    x[j * kd + (j + 1) % kd] = v;
                }
            }
            let xt: Vec<f32> = (0..kd * n).map(|e| x[(e % n) * kd + e / n]).collect();
            let (wm, bm) = (
                Matrix::from_vec(kd, mm, w.clone()).unwrap(),
                Matrix::from_vec(1, mm, bias.clone()).unwrap(),
            );
            let mut want = Matrix::zeros(0, 0);
            Matrix::from_vec(n, kd, x.clone())
                .unwrap()
                .matmul_bias_into(&wm, Some(&bm), &mut want)
                .unwrap();
            let want = want.as_slice();
            let mut fm = Matrix::zeros(0, 0);
            wm.transpose_matmul_bias_into(
                &Matrix::from_vec(kd, n, xt.clone()).unwrap(),
                Some(&bm),
                &mut fm,
            )
            .unwrap();
            let transposed = |c: &[f32]| -> Vec<u32> {
                (0..n * mm)
                    .map(|e| c[(e % mm) * n + e / mm].to_bits())
                    .collect()
            };
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                transposed(fm.as_slice()),
                want_bits,
                "dispatched, {kd}x{mm}, n {n}"
            );
            for (name, row_major, feature_major) in table {
                let (mut rm, mut fm) = (vec![-7.0; n * mm], vec![-7.0; n * mm]);
                if !row_major(&x, &w, Some(&bias), &mut rm, n, kd, mm) {
                    continue;
                }
                assert!(feature_major(&w, &xt, Some(&bias), &mut fm, mm, kd, n));
                let rm_bits: Vec<u32> = rm.iter().map(|v| v.to_bits()).collect();
                assert_eq!(rm_bits, want_bits, "{name} row-major, {kd}x{mm}, n {n}");
                assert_eq!(
                    transposed(&fm),
                    want_bits,
                    "{name} feature-major, {kd}x{mm}, n {n}"
                );
            }
        }
    }
}
