//! Property tests: every `*_into` kernel with an allocating counterpart is
//! indistinguishable from it — same values, same shapes, same errors — and
//! every shape-checked kernel reports the one error its op defines, across
//! random shapes and both scalar types (f32, f64).
//!
//! `matmul` delegates to `matmul_into`, so their parity is bit-exact by
//! construction; these properties pin that contract down so a future
//! hand-optimized divergence (blocking, SIMD, a separate fast path) cannot
//! silently change numerics or error behavior. `map` and `map_into` are
//! separate loops.

use kml_core::matrix::Matrix;
use kml_core::scalar::Scalar;
use kml_core::KmlError;
use proptest::prelude::*;

/// Fresh out-buffer pre-dirtied with a wrong shape and garbage values, so
/// every property also exercises `ensure_shape` reuse rather than a
/// conveniently-zeroed destination.
fn dirty_out<S: Scalar>() -> Matrix<S> {
    Matrix::from_vec(2, 3, vec![S::from_f64(-77.25); 6]).unwrap()
}

fn to_matrix<S: Scalar>(rows: usize, cols: usize, data: &[f64]) -> Matrix<S> {
    Matrix::from_f64_vec(rows, cols, &data[..rows * cols]).unwrap()
}

fn assert_same<S: Scalar>(op: &str, alloc: &Matrix<S>, into: &Matrix<S>) {
    assert_eq!(alloc.shape(), into.shape(), "{op}: shape diverged");
    assert_eq!(
        alloc.as_slice(),
        into.as_slice(),
        "{op}: values diverged from allocating kernel"
    );
}

/// Runs every kernel pair on `a (m×k)` and `b (k×n)`.
fn check_parity<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    let b: Matrix<S> = to_matrix(k, n, &data[25..]);

    let mut out = dirty_out();
    a.matmul_into(&b, &mut out).unwrap();
    assert_same("matmul", &a.matmul(&b).unwrap(), &out);

    a.map_into(&mut out, |v| v.mul(S::from_f64(0.5)));
    assert_same("map", &a.map(|v| v.mul(S::from_f64(0.5))), &out);
}

/// Every shape-checked kernel must reject a mismatched shape with the one
/// error value that names its op and both shapes.
fn check_error_parity<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    // Each bad shape is off-by-one in the dimension its kernel checks, so a
    // mismatch is guaranteed for every (m, k, n).
    let bad_inner: Matrix<S> = to_matrix(k + 1, n, &data[25..]); // matmul: rows ≠ k
    let bad_dot: Matrix<S> = to_matrix(k + 1, n, &data[25..]); // matmul_dot: rows ≠ k
    let bad_grads: Matrix<S> = to_matrix(n, k + 1, &data[25..]); // linear_grads: cols ≠ k
    let bad_tm: Matrix<S> = to_matrix(m + 1, k, &data[25..]); // transpose_matmul: rows ≠ m
    let bad_ew: Matrix<S> = to_matrix(m, k + 1, &data[25..]); // element-wise: shape ≠ (m, k)
    let w: Matrix<S> = to_matrix(k, n, &data[25..]);
    let bad_bias: Matrix<S> = to_matrix(1, n + 1, &data[25..]); // bias: cols ≠ n
    let want = |op, rhs: &Matrix<S>| KmlError::ShapeMismatch {
        op,
        lhs: a.shape(),
        rhs: rhs.shape(),
    };
    let mut out = dirty_out();

    let cases = [
        ("matmul", a.matmul_into(&bad_inner, &mut out), &bad_inner),
        (
            "matmul_dot",
            a.matmul_dot_into(&bad_dot, None, &mut out),
            &bad_dot,
        ),
        (
            "linear_grads",
            a.linear_grads_into(&bad_grads, &mut out, &mut dirty_out()),
            &bad_grads,
        ),
        (
            "transpose_matmul",
            a.transpose_matmul_into(&bad_tm, &mut out),
            &bad_tm,
        ),
        (
            "bias",
            a.matmul_bias_into(&w, Some(&bad_bias), &mut out),
            &bad_bias,
        ),
    ];
    for (op, result, rhs) in cases {
        assert_eq!(result.expect_err(op), want(op, rhs), "{op}: wrong error");
    }
    let alloc_err = a.matmul(&bad_inner).expect_err("matmul");
    assert_eq!(
        alloc_err,
        want("matmul", &bad_inner),
        "matmul: error values diverged"
    );
    let alloc_err = a.hadamard(&bad_ew).expect_err("hadamard");
    assert_eq!(
        alloc_err,
        want("hadamard", &bad_ew),
        "hadamard: wrong error"
    );
}

// Dims stay in 1..6 and values in ±8. Slices used: a at 0, b and the bad
// shapes (up to 6×6) at 25 — 75 values
// cover every view.
const DIMS: (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
) = (1..6, 1..6, 1..6);

fn values() -> proptest::collection::VecStrategy<std::ops::Range<f64>> {
    proptest::collection::vec(-8.0f64..8.0, 75..76)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn into_kernels_match_allocating_kernels_f32((m, k, n) in DIMS, data in values()) {
        check_parity::<f32>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_kernels_f64((m, k, n) in DIMS, data in values()) {
        check_parity::<f64>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_errors_f32((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f32>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_errors_f64((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f64>(m, k, n, &data);
    }
}
