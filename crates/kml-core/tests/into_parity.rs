//! Property tests: every `*_into` kernel is indistinguishable from its
//! allocating counterpart — same values, same shapes, same errors — across
//! random shapes and all three scalar types (f32, f64, Q16.16 fixed point).
//!
//! The allocating kernels delegate to the `_into` forms, so today parity is
//! bit-exact by construction; these properties pin that contract down so a
//! future hand-optimized divergence (blocking, SIMD, a separate fast path)
//! cannot silently change numerics or error behavior.

use kml_core::fixed::Fix32;
use kml_core::matrix::Matrix;
use kml_core::scalar::Scalar;
use proptest::prelude::*;

/// Fresh out-buffer pre-dirtied with a wrong shape and garbage values, so
/// every property also exercises `ensure_shape` reuse rather than a
/// conveniently-zeroed destination.
fn dirty_out<S: Scalar>() -> Matrix<S> {
    let mut m = Matrix::zeros(2, 3);
    m.fill(S::from_f64(-77.25));
    m
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

/// Runs every kernel pair on `a (m×k)`, `b (k×n)`, `c (m×k)`, `bias (1×k)`.
fn check_parity<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    let b: Matrix<S> = to_matrix(k, n, &data[25..]);
    let c: Matrix<S> = to_matrix(m, k, &data[50..]);
    let bias: Matrix<S> = to_matrix(1, k, &data[50..]);

    let mut out = dirty_out();
    a.matmul_into(&b, &mut out).unwrap();
    assert_same("matmul", &a.matmul(&b).unwrap(), &out);

    // matmul_transpose computes self · rhsᵀ, so rhs must be (n × k).
    let bt: Matrix<S> = to_matrix(n, k, &data[25..]);
    a.matmul_transpose_into(&bt, &mut out).unwrap();
    assert_same("matmul_transpose", &a.matmul_transpose(&bt).unwrap(), &out);

    // transpose_matmul computes selfᵀ · rhs, so rhs shares self's row count.
    a.transpose_matmul_into(&c, &mut out).unwrap();
    assert_same("transpose_matmul", &a.transpose_matmul(&c).unwrap(), &out);

    a.hadamard_into(&c, &mut out).unwrap();
    assert_same("hadamard", &a.hadamard(&c).unwrap(), &out);

    a.add_row_broadcast_into(&bias, &mut out).unwrap();
    assert_same(
        "add_row_broadcast",
        &a.add_row_broadcast(&bias).unwrap(),
        &out,
    );

    a.sum_rows_into(&mut out);
    assert_same("sum_rows", &a.sum_rows(), &out);

    a.map_into(&mut out, |v| v.mul(S::from_f64(0.5)));
    assert_same("map", &a.map(|v| v.mul(S::from_f64(0.5))), &out);
}

type ErrorPair<'a, S> = (&'a str, kml_core::Result<Matrix<S>>, kml_core::Result<()>);

/// Every kernel pair must reject the same mismatched shapes with the same
/// error value (op name + reported shapes included).
fn check_error_parity<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    // Each bad shape is off-by-one in the dimension its kernel checks, so a
    // mismatch is guaranteed for every (m, k, n).
    let bad_inner: Matrix<S> = to_matrix(k + 1, n, &data[25..]); // matmul: rows ≠ k
    let bad_mt: Matrix<S> = to_matrix(n, k + 1, &data[25..]); // matmul_transpose: cols ≠ k
    let bad_tm: Matrix<S> = to_matrix(m + 1, k, &data[25..]); // transpose_matmul: rows ≠ m
    let bad_ew: Matrix<S> = to_matrix(m, k + 1, &data[25..]); // element-wise: shape ≠ (m, k)
    let bad_bias: Matrix<S> = to_matrix(1, k + 1, &data[25..]); // broadcast: cols ≠ k
    let mut out = dirty_out();

    let pairs: [ErrorPair<S>; 5] = [
        (
            "matmul",
            a.matmul(&bad_inner),
            a.matmul_into(&bad_inner, &mut out),
        ),
        (
            "matmul_transpose",
            a.matmul_transpose(&bad_mt),
            a.matmul_transpose_into(&bad_mt, &mut out),
        ),
        (
            "transpose_matmul",
            a.transpose_matmul(&bad_tm),
            a.transpose_matmul_into(&bad_tm, &mut out),
        ),
        (
            "hadamard",
            a.hadamard(&bad_ew),
            a.hadamard_into(&bad_ew, &mut out),
        ),
        (
            "add_row_broadcast",
            a.add_row_broadcast(&bad_bias),
            a.add_row_broadcast_into(&bad_bias, &mut out),
        ),
    ];
    for (op, alloc, into) in pairs {
        let alloc_err = alloc.expect_err(op);
        let into_err = into.expect_err(op);
        assert_eq!(alloc_err, into_err, "{op}: error values diverged");
    }
}

// Dims stay in 1..6 and values in ±8 so Q16.16 products (≤ 5·8·8 = 320) are
// exactly representable without saturation, keeping Fix32 parity meaningful.
// Slices used: a at 0, b at 25, c/bias at 50 — 75 values cover every view.
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
    fn into_kernels_match_allocating_kernels_fix32((m, k, n) in DIMS, data in values()) {
        check_parity::<Fix32>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_errors_f32((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f32>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_errors_f64((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f64>(m, k, n, &data);
    }

    #[test]
    fn into_kernels_match_allocating_errors_fix32((m, k, n) in DIMS, data in values()) {
        check_error_parity::<Fix32>(m, k, n, &data);
    }
}
