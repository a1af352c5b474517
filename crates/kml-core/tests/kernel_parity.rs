//! Property tests: the blocked/register-tiled GEMM kernels are bit-for-bit
//! indistinguishable from the retained naive triple-loop references in
//! `naive/mod.rs` beside this file — same values, same shapes, same errors —
//! across random shapes (including non-multiple-of-tile edges) and both
//! scalar types (f32, f64).
//!
//! Bit-exactness is the contract the deterministic simulation tests and the
//! pinned training artifacts stand on: every output element must be one
//! multiply-accumulate chain walking the shared dimension in ascending
//! order, no matter how the loops are tiled.

use kml_core::matrix::Matrix;
use kml_core::scalar::Scalar;
use proptest::prelude::*;

mod naive;

/// Out-buffer pre-dirtied with a wrong shape and garbage values so every
/// property also exercises `ensure_shape` reuse.
fn dirty_out<S: Scalar>() -> Matrix<S> {
    Matrix::from_vec(2, 3, vec![S::from_f64(-77.25); 6]).unwrap()
}

fn to_matrix<S: Scalar>(rows: usize, cols: usize, data: &[f64]) -> Matrix<S> {
    let need = rows * cols;
    let vals: Vec<f64> = data.iter().copied().cycle().take(need).collect();
    Matrix::from_f64_vec(rows, cols, &vals).unwrap()
}

fn assert_bits_equal<S: Scalar>(op: &str, reference: &Matrix<S>, blocked: &Matrix<S>) {
    assert_eq!(reference.shape(), blocked.shape(), "{op}: shape diverged");
    assert_eq!(
        reference.as_slice(),
        blocked.as_slice(),
        "{op}: blocked kernel diverged from naive reference"
    );
}

/// `m` transposed.
fn transposed<S: Scalar>(m: &Matrix<S>) -> Matrix<S> {
    let (rows, cols) = m.shape();
    let data = (0..rows * cols).map(|i| m.as_slice()[i % rows * cols + i / rows]);
    Matrix::from_vec(cols, rows, data.collect()).unwrap()
}

/// `g ⊙ (v ⊙ (1 − v))`, each element as the sigmoid's backward pass makes it.
fn through_sigmoid<S: Scalar>(g: &Matrix<S>, v: &Matrix<S>) -> Matrix<S> {
    let data = g.as_slice().iter().zip(v.as_slice());
    let data = data.map(|(&g, &v)| g.mul(v.mul(S::ONE.sub(v)))).collect();
    Matrix::from_vec(g.rows(), g.cols(), data).unwrap()
}

/// Blocked vs naive on `a (m×k) · b (k×n)`, plus the transpose forms, all on
/// the same operands.
fn check_kernels<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    let b: Matrix<S> = to_matrix(k, n, &data[7..]);

    let mut want = dirty_out();
    let mut got = dirty_out();

    naive::matmul_into(&a, &b, &mut want).unwrap();
    a.matmul_into(&b, &mut got).unwrap();
    assert_bits_equal("matmul", &want, &got);

    // matmul_dot is `a · b` in the dot schedule: the transpose of the
    // per-element dot products of bᵀ's rows with a's.
    let mut dots = dirty_out();
    naive::matmul_transpose_into(&transposed(&b), &a, &mut dots).unwrap();
    a.matmul_dot_into(&b, None, &mut got).unwrap();
    assert_bits_equal("matmul_dot", &transposed(&dots), &got);
    // With a sigmoid's output, each element times `v·(1 − v)` in the store.
    let v: Matrix<S> = to_matrix(m, n, &data[17..]);
    a.matmul_dot_into(&b, Some(&v), &mut got).unwrap();
    assert_bits_equal(
        "matmul_dot + sigmoid",
        &through_sigmoid(&transposed(&dots), &v),
        &got,
    );

    // linear_grads: `a` as a layer's input (m × k samples) against an
    // output gradient of n rows.
    let dy: Matrix<S> = to_matrix(n, k, &data[13..]);
    let (mut want_db, mut got_db) = (dirty_out(), dirty_out());
    naive::linear_grads_into(&a, &dy, &mut want, &mut want_db).unwrap();
    a.linear_grads_into(&dy, &mut got, &mut got_db).unwrap();
    assert_bits_equal("linear_grads dw", &want, &got);
    assert_bits_equal("linear_grads db", &want_db, &got_db);

    // transpose_matmul computes selfᵀ · rhs, so rhs shares self's row count.
    let c: Matrix<S> = to_matrix(m, n, &data[19..]);
    naive::transpose_matmul_into(&a, &c, &mut want).unwrap();
    a.transpose_matmul_into(&c, &mut got).unwrap();
    assert_bits_equal("transpose_matmul", &want, &got);

    // With a bias each finished chain gains one add in the store: per
    // column of the row-major product, per row of the transposed one.
    let biased = |want: &Matrix<S>, bias: &Matrix<S>, per_row: bool| {
        let n = want.cols();
        let v = want.as_slice().iter().enumerate();
        let data: Vec<S> = v
            .map(|(e, &x)| x.add(bias.as_slice()[if per_row { e / n } else { e % n }]))
            .collect();
        Matrix::from_vec(want.rows(), n, data).unwrap()
    };
    let bias: Matrix<S> = to_matrix(1, n, &data[23..]);
    naive::matmul_into(&a, &b, &mut want).unwrap();
    a.matmul_bias_into(&b, Some(&bias), &mut got).unwrap();
    assert_bits_equal("matmul + bias", &biased(&want, &bias, false), &got);
    let bias: Matrix<S> = to_matrix(1, k, &data[29..]);
    naive::transpose_matmul_into(&a, &c, &mut want).unwrap();
    a.transpose_matmul_bias_into(&c, Some(&bias), &mut got)
        .unwrap();
    assert_bits_equal("transpose_matmul + bias", &biased(&want, &bias, true), &got);
}

/// Blocked and naive kernels must reject the same mismatched shapes with the
/// same error value.
fn check_error_parity<S: Scalar>(m: usize, k: usize, n: usize, data: &[f64]) {
    let a: Matrix<S> = to_matrix(m, k, data);
    let bad_inner: Matrix<S> = to_matrix(k + 1, n, &data[7..]); // matmul: rows ≠ k
    let bad_grads: Matrix<S> = to_matrix(n, k + 1, &data[7..]); // linear_grads: cols ≠ k
    let bad_tm: Matrix<S> = to_matrix(m + 1, n, &data[7..]); // transpose_matmul: rows ≠ m
    let mut out = dirty_out();

    let e_naive = naive::matmul_into(&a, &bad_inner, &mut out).expect_err("matmul");
    let e_blocked = a.matmul_into(&bad_inner, &mut out).expect_err("matmul");
    assert_eq!(e_naive, e_blocked, "matmul error diverged");

    let mut db = dirty_out();
    let e_naive = naive::linear_grads_into(&a, &bad_grads, &mut out, &mut db).expect_err("lg");
    let e_blocked = a
        .linear_grads_into(&bad_grads, &mut out, &mut db)
        .expect_err("lg");
    assert_eq!(e_naive, e_blocked, "linear_grads error diverged");

    let e_naive = naive::transpose_matmul_into(&a, &bad_tm, &mut out).expect_err("tm");
    let e_blocked = a.transpose_matmul_into(&bad_tm, &mut out).expect_err("tm");
    assert_eq!(e_naive, e_blocked, "transpose_matmul error diverged");
}

// Dims span 1..13 so every property crosses the MR=4/NR=4 register-tile
// boundary both ways (full tiles plus 1–3-wide edges); values stay in ±8.
const DIMS: (
    std::ops::Range<usize>,
    std::ops::Range<usize>,
    std::ops::Range<usize>,
) = (1..13, 1..13, 1..13);

fn values() -> proptest::collection::VecStrategy<std::ops::Range<f64>> {
    proptest::collection::vec(-8.0f64..8.0, 64..65)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_kernels_match_naive_f32((m, k, n) in DIMS, data in values()) {
        check_kernels::<f32>(m, k, n, &data);
    }

    #[test]
    fn blocked_kernels_match_naive_f64((m, k, n) in DIMS, data in values()) {
        check_kernels::<f64>(m, k, n, &data);
    }

    #[test]
    fn blocked_kernels_match_naive_errors_f32((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f32>(m, k, n, &data);
    }

    #[test]
    fn blocked_kernels_match_naive_errors_f64((m, k, n) in DIMS, data in values()) {
        check_error_parity::<f64>(m, k, n, &data);
    }
}

// ---------------------------------------------------------------------------
// Per-ISA arm parity: drive each SIMD arm directly through
// `kml_core::simd::testing` — bypassing backend dispatch, so the AVX2 arm is
// exercised even on an AVX-512 host and every arm still runs under
// `KML_FORCE_SCALAR=1` — and compare bit patterns against the scalar chain
// contract. Dims reach 19 so shapes cross the 4/8/16-lane boundaries of every
// arm both ways, and the value strategy mixes NaN, subnormals, ±0 and the
// sigmoid clamp/saturation bands in with ordinary magnitudes. Arms return
// `false` when the host CPU lacks the feature; those are skipped.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod arm_parity {
    use super::*;
    use kml_core::simd::testing as arms;
    use proptest::prop_oneof;

    type GemmFn<T> = fn(&[T], &[T], Option<&[T]>, &mut [T], usize, usize, usize) -> bool;
    type TmmFn<T> = GemmFn<T>;
    type DotFn<T> = fn(&[T], &[T], Option<&[T]>, &mut [T], usize, usize, usize) -> bool;
    type GradsFn<T> = fn(&[T], &[T], &mut [T], &mut [T], usize, usize, usize) -> bool;
    type SigFn<T> = fn(&[T], &mut [T]) -> bool;

    /// One labelled fn-pointer table per kernel family, listing every arm
    /// x86-64 *could* have (runtime detection prunes the rest).
    macro_rules! arm_table {
        ($name:ident, $fnty:ty, x86: [$($xl:literal => $xf:path),*]) => {
            fn $name() -> Vec<(&'static str, $fnty)> {
                vec![$(($xl, $xf as $fnty)),*]
            }
        };
    }

    arm_table!(matmul_arms_f32, GemmFn<f32>,
        x86: ["avx2" => arms::avx2_matmul_f32, "avx512" => arms::avx512_matmul_f32]);
    arm_table!(matmul_arms_f64, GemmFn<f64>,
        x86: ["avx2" => arms::avx2_matmul_f64, "avx512" => arms::avx512_matmul_f64]);
    arm_table!(tmm_arms_f32, TmmFn<f32>,
        x86: ["avx2" => arms::avx2_transpose_matmul_f32,
              "avx512" => arms::avx512_transpose_matmul_f32]);
    arm_table!(tmm_arms_f64, TmmFn<f64>,
        x86: ["avx2" => arms::avx2_transpose_matmul_f64,
              "avx512" => arms::avx512_transpose_matmul_f64]);
    arm_table!(dot_arms_f32, DotFn<f32>,
        x86: ["avx2" => arms::avx2_matmul_dot_f32, "avx512" => arms::avx512_matmul_dot_f32]);
    arm_table!(dot_arms_f64, DotFn<f64>,
        x86: ["avx2" => arms::avx2_matmul_dot_f64, "avx512" => arms::avx512_matmul_dot_f64]);
    arm_table!(grads_arms_f32, GradsFn<f32>,
        x86: ["avx2" => arms::avx2_linear_grads_f32,
              "avx512" => arms::avx512_linear_grads_f32]);
    arm_table!(grads_arms_f64, GradsFn<f64>,
        x86: ["avx2" => arms::avx2_linear_grads_f64,
              "avx512" => arms::avx512_linear_grads_f64]);
    arm_table!(sig_arms_f32, SigFn<f32>,
        x86: ["avx2" => arms::avx2_sigmoid_f32, "avx512" => arms::avx512_sigmoid_f32]);
    arm_table!(sig_arms_f64, SigFn<f64>,
        x86: ["avx2" => arms::avx2_sigmoid_f64, "avx512" => arms::avx512_sigmoid_f64]);
    arm_table!(exp_arms, SigFn<f64>,
        x86: ["avx2" => arms::avx2_exp_f64, "avx512" => arms::avx512_exp_f64]);

    /// Bit-pattern access so the asserts distinguish NaN payloads and signed
    /// zeros the way the determinism contract demands.
    trait Bits: Scalar {
        fn bits(self) -> u64;
    }
    impl Bits for f32 {
        fn bits(self) -> u64 {
            u64::from(self.to_bits())
        }
    }
    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    fn assert_arm_bits<S: Bits>(op: &str, arm: &str, want: &[S], got: &[S]) {
        let wb: Vec<u64> = want.iter().map(|v| v.bits()).collect();
        let gb: Vec<u64> = got.iter().map(|v| v.bits()).collect();
        assert_eq!(wb, gb, "{op}: {arm} arm diverged from the scalar chain");
    }

    fn vals<S: Scalar>(count: usize, data: &[f64], offset: usize) -> Vec<S> {
        data.iter()
            .copied()
            .cycle()
            .skip(offset)
            .take(count)
            .map(S::from_f64)
            .collect()
    }

    fn dirty<S: Scalar>(count: usize) -> Vec<S> {
        vec![S::from_f64(-77.25); count]
    }

    /// `matmul` contract: `c[i·n+j]` is one ascending-k mul/add chain from
    /// zero — `acc = acc + a·b`, never a fused contraction — then plus
    /// `bias[j]` if there is a bias.
    fn ref_matmul<S: Scalar>(
        a: &[S],
        b: &[S],
        bias: Option<&[S]>,
        m: usize,
        kd: usize,
        n: usize,
    ) -> Vec<S> {
        let mut c = vec![S::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = S::ZERO;
                for p in 0..kd {
                    acc = acc.mul_acc(a[i * kd + p], b[p * n + j]);
                }
                c[i * n + j] = bias.map_or(acc, |v| acc.add(v[j]));
            }
        }
        c
    }

    /// `transpose_matmul` contract (`a` is kd×mm): same ascending-k chains,
    /// then plus `bias[i]` if there is a bias.
    fn ref_transpose_matmul<S: Scalar>(
        a: &[S],
        b: &[S],
        bias: Option<&[S]>,
        mm: usize,
        kd: usize,
        n: usize,
    ) -> Vec<S> {
        let mut c = vec![S::ZERO; mm * n];
        for i in 0..mm {
            for j in 0..n {
                let mut acc = S::ZERO;
                for p in 0..kd {
                    acc = acc.mul_acc(a[p * mm + i], b[p * n + j]);
                }
                c[i * n + j] = bias.map_or(acc, |v| acc.add(v[i]));
            }
        }
        c
    }

    fn check_matmul_arms<S: Bits>(
        table: &[(&str, GemmFn<S>)],
        m: usize,
        kd: usize,
        n: usize,
        data: &[f64],
    ) {
        let a: Vec<S> = vals(m * kd, data, 0);
        let b: Vec<S> = vals(kd * n, data, 7);
        let bias: Vec<S> = vals(n, data, 3);
        for bias in [None, Some(&bias[..])] {
            let want = ref_matmul(&a, &b, bias, m, kd, n);
            for &(name, f) in table {
                let mut c = dirty::<S>(m * n); // arms overwrite, never read, C
                if !f(&a, &b, bias, &mut c, m, kd, n) {
                    continue;
                }
                assert_arm_bits("matmul", name, &want, &c);
            }
        }
    }

    fn check_tmm_arms<S: Bits>(
        table: &[(&str, TmmFn<S>)],
        mm: usize,
        kd: usize,
        n: usize,
        data: &[f64],
    ) {
        let a: Vec<S> = vals(kd * mm, data, 0);
        let b: Vec<S> = vals(kd * n, data, 7);
        let bias: Vec<S> = vals(mm, data, 3);
        for bias in [None, Some(&bias[..])] {
            let want = ref_transpose_matmul(&a, &b, bias, mm, kd, n);
            for &(name, f) in table {
                let mut c = dirty::<S>(mm * n);
                if !f(&a, &b, bias, &mut c, mm, kd, n) {
                    continue;
                }
                assert_arm_bits("transpose_matmul", name, &want, &c);
            }
        }
    }

    fn check_sigmoid_arms<S: Bits>(table: &[(&str, SigFn<S>)], input: &[S]) {
        let want: Vec<S> = input.iter().map(|&x| x.sigmoid()).collect();
        for &(name, f) in table {
            let mut out = dirty::<S>(input.len());
            if !f(input, &mut out) {
                continue;
            }
            assert_arm_bits("sigmoid", name, &want, &out);
        }
    }

    fn check_exp_arms(input: &[f64]) {
        let want: Vec<f64> = input.iter().map(|&x| kml_core::math::exp(x)).collect();
        for (name, f) in exp_arms() {
            let mut out = dirty::<f64>(input.len());
            if !f(input, &mut out) {
                continue;
            }
            assert_arm_bits("exp", name, &want, &out);
        }
    }

    /// Equal bit for bit, or NaN on both sides: which operand's payload an
    /// `add` of two NaNs keeps is the compiler's choice (it may commute
    /// either side's operands), and a product like `inf · 0` mints a NaN
    /// of the other sign than `f64::NAN`'s.
    fn assert_arm_bits_nan_class<S: Bits>(op: &str, arm: &str, want: &[S], got: &[S]) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let both_nan = w.to_f64().is_nan() && g.to_f64().is_nan();
            assert!(
                w.bits() == g.bits() || both_nan,
                "{op}: {arm} arm diverged at element {i}: want {w:?}, got {g:?}"
            );
        }
    }

    /// The `matmul_dot` arms (a linear layer's `dXᵀ = W·dYᵀ`, the batch
    /// across the lanes) against the retained per-element
    /// [`naive::matmul_transpose_into`] (`Matrix::dot`'s schedule) of the
    /// row-major `dY·Wᵀ`, transposed — and with a sigmoid's output folded
    /// into the store, against that times `v·(1 − v)` element by element.
    fn check_dot_arms_against_naive<S: Bits>(
        table: &[(&str, DotFn<S>)],
        (mm, kd, n): (usize, usize, usize),
        data: &[f64],
    ) {
        let w: Vec<S> = vals(mm * kd, data, 0);
        let dy: Vec<S> = vals(kd * n, data, 13);
        let mut rows = Matrix::zeros(0, 0);
        naive::matmul_transpose_into(
            &transposed(&Matrix::from_vec(kd, n, dy.clone()).unwrap()),
            &Matrix::from_vec(mm, kd, w.clone()).unwrap(),
            &mut rows,
        )
        .unwrap();
        let plain = transposed(&rows);
        let v = Matrix::from_vec(mm, n, vals(mm * n, data, 29)).unwrap();
        let folded = through_sigmoid(&plain, &v);
        for (sigmoid, want) in [(None, &plain), (Some(v.as_slice()), &folded)] {
            for &(name, f) in table {
                let mut c = dirty::<S>(mm * n);
                if !f(&w, &dy, sigmoid, &mut c, mm, kd, n) {
                    continue;
                }
                assert_arm_bits_nan_class("matmul_dot", name, want.as_slice(), &c);
            }
        }
    }

    /// The `linear_grads` arms (a linear layer's `dW` and `db` over a
    /// feature-major batch, the outputs across the lanes) against
    /// [`naive::linear_grads_into`].
    fn check_grads_arms_against_naive<S: Bits>(
        table: &[(&str, GradsFn<S>)],
        (ind, outd, m): (usize, usize, usize),
        data: &[f64],
    ) {
        let x: Vec<S> = vals(ind * m, data, 0);
        let dy: Vec<S> = vals(outd * m, data, 13);
        let (mut dw, mut db) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        naive::linear_grads_into(
            &Matrix::from_vec(ind, m, x.clone()).unwrap(),
            &Matrix::from_vec(outd, m, dy.clone()).unwrap(),
            &mut dw,
            &mut db,
        )
        .unwrap();
        for &(name, f) in table {
            let (mut gw, mut gb) = (dirty::<S>(ind * outd), dirty::<S>(outd));
            if !f(&x, &dy, &mut gw, &mut gb, ind, outd, m) {
                continue;
            }
            assert_arm_bits_nan_class("linear_grads dw", name, dw.as_slice(), &gw);
            assert_arm_bits_nan_class("linear_grads db", name, db.as_slice(), &gb);
        }
    }

    /// `matmul_dot`: `mm` through several row blocks of either arm and
    /// every remainder, `kd` (the layer's outputs, the dot products' length)
    /// through every `kd % 4` and now and then a long chain, `n` (the
    /// batch) past two vectors of the widest arm with every ragged lane
    /// count.
    fn dot_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
        let kd = prop_oneof![8 => 0usize..=40, 1 => 250usize..=300];
        (1usize..=40, kd, 1usize..=70)
    }

    /// `linear_grads`: `ind` through the 8- and 16-row blocks with every
    /// first-block size, `outd` through one, two and three vectors of every
    /// arm with ragged lane counts, `m` (the batch, the chains' length)
    /// from none to a long chain.
    fn grads_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
        let m = prop_oneof![8 => 0usize..=70, 1 => 250usize..=300];
        (1usize..=40, 1usize..=40, m)
    }

    /// Operands swept by magnitude, not just by value: ordinary numbers,
    /// both zeros and subnormals of either width always; NaN, ±inf and
    /// values whose products overflow in one case of four (more often and
    /// a long dot product is NaN every time, which tests little).
    fn backward_values() -> impl Strategy<Value = Vec<f64>> {
        let finite = prop_oneof![
            24 => -8.0f64..8.0,
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(1.0e-41),   // subnormal once narrowed to f32
            1 => Just(-3.0e-310), // f64 subnormal
            1 => Just(f64::MIN_POSITIVE),
            1 => Just(-1.0e-160), // squares to a subnormal
        ];
        let hostile = prop_oneof![
            40 => -8.0f64..8.0,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(1.0e200),   // overflows when squared; inf as f32
            1 => Just(-4.0e-320),
        ];
        prop_oneof![
            3 => proptest::collection::vec(finite, 127..128),
            1 => proptest::collection::vec(hostile, 127..128),
        ]
    }

    // Dims reach 19: past two 8-lane f32 vectors, so every arm sees full
    // 2×L blocks, single-L blocks, and masked remainders of 1..L-1 lanes.
    const ARM_DIMS: (
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    ) = (1..20, 1..20, 1..20);

    /// Mostly ordinary magnitudes, salted with the values that break naive
    /// vectorizations: NaN (propagation), subnormals (FTZ/DAZ mismatches),
    /// f32 normals below 2^-100 (the f32 `matmul` arms' exact-product
    /// route), signed zeros, and the sigmoid clamp (|x| ≥ 700 takes the
    /// scalar fallback lane) and f32 saturation bands.
    fn special_values() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![
                10 => -8.0f64..8.0,
                1 => Just(f64::NAN),
                1 => Just(1.0e-41),   // subnormal once narrowed to f32
                1 => Just(-1.0e-310), // f64 subnormal (underflows to -0.0 as f32)
                1 => Just(3.0e-37),   // below 2^-100 as f32: products
                1 => Just(-1.17e-38), // with ordinary weights are f32
                1 => Just(9.0e-32),   // subnormals

                1 => Just(0.0),
                1 => Just(-0.0),
                1 => Just(750.0),     // past the f64 sigmoid clamp
                1 => Just(-750.0),
                1 => Just(-726.5),    // exp(-|x|) an f64 subnormal: the
                1 => Just(717.25),    // integer-halving tail of scale_by_pow2
                1 => Just(-703.0),    // past the vector band, result normal
                1 => Just(95.0),      // f32 sigmoid saturation band
                1 => Just(-95.0),
                // The fast f32 sigmoid's edges, each with an f32
                // neighbour: its saturation bounds, where σ leaves the f32
                // normals, and a lane its rounding test sends back.
                1 => Just(-104.0),
                1 => Just(-103.999_992_370_605_47),
                1 => Just(18.0),
                1 => Just(17.999_998_092_651_367),
                1 => Just(-87.339_996_337_890_62),
                1 => Just(-87.340_003_967_285_16),
                1 => Just(1.192_074_8e-7),
            ],
            64..65,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn simd_arms_match_scalar_chains_f32((m, k, n) in ARM_DIMS, data in special_values()) {
            check_matmul_arms(&matmul_arms_f32(), m, k, n, &data);
            check_tmm_arms(&tmm_arms_f32(), m, k, n, &data);
        }

        #[test]
        fn simd_arms_match_scalar_chains_f64((m, k, n) in ARM_DIMS, data in special_values()) {
            check_matmul_arms(&matmul_arms_f64(), m, k, n, &data);
            check_tmm_arms(&tmm_arms_f64(), m, k, n, &data);
        }

        #[test]
        fn matmul_dot_arms_match_naive_f32(shape in dot_shapes(), data in backward_values()) {
            check_dot_arms_against_naive(&dot_arms_f32(), shape, &data);
        }

        #[test]
        fn matmul_dot_arms_match_naive_f64(shape in dot_shapes(), data in backward_values()) {
            check_dot_arms_against_naive(&dot_arms_f64(), shape, &data);
        }

        #[test]
        fn linear_grads_arms_match_naive_f32(shape in grads_shapes(), data in backward_values()) {
            check_grads_arms_against_naive(&grads_arms_f32(), shape, &data);
        }

        #[test]
        fn linear_grads_arms_match_naive_f64(shape in grads_shapes(), data in backward_values()) {
            check_grads_arms_against_naive(&grads_arms_f64(), shape, &data);
        }

        #[test]
        fn simd_exp_arms_match_scalar(data in special_values(), len in 0usize..120) {
            let input: Vec<f64> = vals(len, &data, 0);
            check_exp_arms(&input);
        }

        #[test]
        fn simd_sigmoid_arms_match_scalar_f32(data in special_values(), len in 0usize..120) {
            let input: Vec<f32> = vals(len, &data, 0);
            check_sigmoid_arms(&sig_arms_f32(), &input);
        }

        #[test]
        fn simd_sigmoid_arms_match_scalar_f64(data in special_values(), len in 0usize..120) {
            let input: Vec<f64> = vals(len, &data, 0);
            check_sigmoid_arms(&sig_arms_f64(), &input);
        }
    }

    /// Every value that changes which path a lane takes — the vector band's
    /// edge (700), the clamp's (745), the subnormal band between them,
    /// infinities, NaN — in every lane position of every block shape, among
    /// ordinary and saturated neighbours: each lane must come out as the
    /// scalar function makes it, whatever shares its block.
    #[test]
    fn sigmoid_arms_hard_lane_in_every_position() {
        let hard = [
            -725.4151,
            731.0,
            -708.5,
            744.9,
            -744.0,
            700.0,
            -700.0,
            699.9999,
            745.0,
            -745.0,
            745.0001,
            -745.0001,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for len in 1..=19usize {
            for pos in 0..len {
                for (n, &h) in hard.iter().enumerate() {
                    let mut xs: Vec<f64> = (0..len).map(|i| i as f64 * 1.3 - 9.0).collect();
                    // Saturated and second hard neighbours now and then.
                    if n % 2 == 0 {
                        xs[(pos + 3) % len] = -1809.9;
                        xs[(pos + 5) % len] = 2833.9;
                    }
                    if n % 3 == 0 {
                        xs[(pos + 2) % len] = -hard[(n + 1) % hard.len()];
                    }
                    xs[pos] = h;
                    check_sigmoid_arms(&sig_arms_f64(), &xs);
                    let xs32: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
                    check_sigmoid_arms(&sig_arms_f32(), &xs32);
                }
            }
        }
    }

    /// The block `exp` against `math::exp` over every binade of both signs
    /// (three significands each, subnormals included), then the edges —
    /// the vector band's (±700), the underflow clamp (−745), the overflow
    /// clamp (709.78), infinities, NaN — in every lane position of every
    /// block shape.
    #[test]
    fn exp_arms_every_binade_and_a_hard_lane_in_every_position() {
        let mut sweep = vec![0.0, -0.0];
        for e in -1074..=1023 {
            let p = 2f64.powi(e);
            for s in [1.0, 1.5, 1.9999999999999998] {
                sweep.extend([p * s, -p * s]);
            }
        }
        check_exp_arms(&sweep);
        let hard = [
            700.0,
            -700.0,
            699.9999999999999,
            -699.9999999999999,
            700.0000000000001,
            -708.4,  // smallest normal results
            -708.5,  // first subnormal ones
            -744.99, // last non-zero
            -745.0,
            -745.0000000000001,
            709.78,
            709.7800000000001,
            709.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for len in 1..=19usize {
            for pos in 0..len {
                for (n, &h) in hard.iter().enumerate() {
                    let mut xs: Vec<f64> = (0..len).map(|i| i as f64 * 1.3 - 9.0).collect();
                    if n % 3 == 0 {
                        xs[(pos + 2) % len] = -hard[(n + 1) % hard.len()];
                    }
                    xs[pos] = h;
                    check_exp_arms(&xs);
                }
            }
        }
    }

    /// The f32 `matmul` arms' exact-product route through every tile and
    /// block shape: `m` past whole 4-row blocks with ragged rows after
    /// them, `n` through the 2-wide, 1-wide and masked tiles of both arms,
    /// `kd` from five terms to a chain of 300. Each routed block — every
    /// 4-row block and every ragged row — holds one activation below
    /// 2^-100, in a `p` of its own, among ordinary ones. Row `p` of B is
    /// scaled to bring that activation's products up among the chain's
    /// other terms (column `p` of A is zero elsewhere, so no other chain
    /// sees the scale): a narrowing that truncates, or a product fused
    /// into its add, moves the sums.
    #[test]
    fn matmul_arms_take_tiny_activations_exactly() {
        let tiny = [
            3.0e-37f32, -1.17e-38, 9.0e-32, 1.0e-41, -2.5e-44, -6.1e-33, 4.4e-40,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // ±2 with a full 24-bit significand.
        let mut ordinary = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
        };
        for (m, kd) in [(11usize, 5usize), (13, 37), (6, 300)] {
            for n in [2usize, 8, 10, 17] {
                let mut a: Vec<f32> = (0..m * kd).map(|_| ordinary()).collect();
                let mut b: Vec<f32> = (0..kd * n).map(|_| ordinary()).collect();
                let whole = m / 4 * 4;
                let blocks: Vec<(usize, usize)> = (0..whole)
                    .step_by(4)
                    .map(|i| (i, 4))
                    .chain((whole..m).map(|i| (i, 1)))
                    .collect();
                for (t, &(i, rows)) in blocks.iter().enumerate() {
                    let p = t * kd / blocks.len();
                    let v = tiny[t % tiny.len()];
                    for r in 0..m {
                        a[r * kd + p] = 0.0;
                    }
                    a[(i + t % rows) * kd + p] = v;
                    let scale = 2f32.powi((-v.abs().log2()).floor().min(125.0) as i32);
                    for w in &mut b[p * n..(p + 1) * n] {
                        *w *= scale;
                    }
                }
                let want = ref_matmul(&a, &b, None, m, kd, n);
                for (name, f) in matmul_arms_f32() {
                    let mut c = dirty::<f32>(m * n);
                    if f(&a, &b, None, &mut c, m, kd, n) {
                        assert_arm_bits(&format!("matmul {m}x{kd}x{n}"), name, &want, &c);
                    }
                }
            }
        }
    }

    /// The feature-major forward product (`transpose_matmul` with a bias:
    /// A the weights, B the activations with the batch across the lanes)
    /// routes each B vector holding a tiny activation, in any lane, and
    /// takes all of that vector's products exactly. For every lane
    /// position of every tile shape — `n` through the 2-wide, 1-wide and
    /// masked tiles, `mm` through 4-row blocks and ragged rows — a tiny
    /// activation goes into an ordinary row of B, so its vector's other
    /// lanes (full 24-bit significands) take the exact route and a
    /// truncating narrowing or a fused add moves their sums; and another
    /// alone in a zero row of B whose weights are scaled to bring its
    /// products up among the chain's other terms.
    #[test]
    fn feature_major_arms_take_tiny_activations_exactly() {
        let tiny = [3.0e-37f32, -1.17e-38, 9.0e-32, 1.0e-41, -2.5e-44, 4.4e-40];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut ordinary = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
        };
        for (mm, kd) in [(1usize, 5usize), (4, 19), (7, 5), (15, 19)] {
            for n in [1usize, 8, 15, 17, 33, 40] {
                let w: Vec<f32> = (0..kd * mm).map(|_| ordinary()).collect();
                let x: Vec<f32> = (0..kd * n).map(|_| ordinary()).collect();
                let bias: Vec<f32> = (0..mm).map(|_| ordinary()).collect();
                for lane in 0..n {
                    let (p0, p1) = (lane % kd, (lane + 1) % kd);
                    let (v0, v1) = (tiny[lane % tiny.len()], tiny[(lane + 3) % tiny.len()]);
                    let (mut w, mut x) = (w.clone(), x.clone());
                    x[p0 * n + lane] = v0;
                    if p1 != p0 {
                        x[p1 * n..(p1 + 1) * n].fill(0.0);
                        x[p1 * n + lane] = v1;
                        let scale = 2f32.powi((-v1.abs().log2()).floor().min(125.0) as i32);
                        for v in &mut w[p1 * mm..(p1 + 1) * mm] {
                            *v *= scale;
                        }
                    }
                    let want = ref_transpose_matmul(&w, &x, Some(&bias), mm, kd, n);
                    for (name, f) in tmm_arms_f32() {
                        let mut c = dirty::<f32>(mm * n);
                        if f(&w, &x, Some(&bias), &mut c, mm, kd, n) {
                            let op = format!("feature-major {mm}x{kd}x{n} lane {lane}");
                            assert_arm_bits(&op, name, &want, &c);
                        }
                    }
                }
            }
        }
    }

    /// The route's predicate is "nonzero and below 2^-100", nothing else: a
    /// zero costs `vmulps` no assist, and a block of saturated units (σ
    /// exactly 0) must not leave the ordinary tile for it.
    #[test]
    fn exact_route_takes_nonzero_activations_below_2_pow_minus_100() {
        let edge = 2f32.powi(-100);
        let tiny = [
            f32::from_bits(1),
            1.0e-41,
            1.17e-38,
            3.0e-37,
            9.0e-32,
            f32::from_bits(edge.to_bits() - 1),
        ];
        for v in tiny {
            assert!(arms::exact_product_route(v), "{v:e}");
            assert!(arms::exact_product_route(-v), "{:e}", -v);
        }
        for v in [
            0.0f32,
            edge,
            1.0e-30,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ] {
            assert!(!arms::exact_product_route(v), "{v:e}");
            assert!(!arms::exact_product_route(-v), "{:e}", -v);
        }
    }

    /// The feature-major route's vector predicate is the scalar one over
    /// every lane: one tiny activation in any lane position routes the
    /// vector, among zeros or ordinary values alike, and a vector of
    /// zeros, normals, 2^-100, infinities and NaNs is not routed. (A lane
    /// the predicate skipped would change no bits, only time.)
    #[test]
    fn feature_major_route_sees_a_tiny_lane_in_every_position() {
        let clean = [
            0.0f32,
            -0.0,
            2f32.powi(-100),
            1.0e-30,
            -1.5,
            f32::INFINITY,
            f32::NAN,
        ];
        for (arm, width) in [("avx2", 8usize), ("avx512", 16)] {
            for fill in clean {
                let mut v = vec![fill; width];
                if arms::exact_vector_route(arm, &v).is_none() {
                    break;
                }
                assert_eq!(
                    arms::exact_vector_route(arm, &v),
                    Some(false),
                    "{arm} {fill:e}"
                );
                for lane in 0..width {
                    for tiny in [f32::from_bits(1), -1.0e-41, 3.0e-37, -7.5e-33] {
                        v[lane] = tiny;
                        let routed = arms::exact_vector_route(arm, &v);
                        assert_eq!(routed, Some(true), "{arm} lane {lane} {tiny:e} in {fill:e}");
                    }
                    v[lane] = fill;
                }
            }
        }
    }

    /// Four-block groups: lengths through three or more groups of the
    /// widest arm (4 × 8 lanes; AVX2's are 4 × 4) and every kind of tail,
    /// all easy, then with one hard lane in every 4-lane block in turn — so
    /// in every block position of every group of both arms — at a
    /// different lane each time. Neighbouring blocks hold different values,
    /// so a block stored in another's place shows.
    #[test]
    fn sigmoid_and_exp_arms_over_four_block_groups() {
        let check = |xs: &[f64]| {
            check_sigmoid_arms(&sig_arms_f64(), xs);
            let xs32: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
            check_sigmoid_arms(&sig_arms_f32(), &xs32);
            check_exp_arms(xs);
        };
        for len in [96usize, 100, 107, 128] {
            let easy: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 30.0).collect();
            check(&easy);
            for blk in 0..len / 4 {
                for (h, hard) in [f64::NAN, -725.4151, 750.0, 700.0].into_iter().enumerate() {
                    let mut xs = easy.clone();
                    xs[blk * 4 + (blk + h) % 4] = hard;
                    check(&xs);
                }
            }
        }
    }

    /// The dispatch-facing sanity check: on an x86-64 host where
    /// the runtime picked a SIMD backend, at least one per-ISA arm must be
    /// reachable by the suite above (otherwise it silently tests nothing).
    #[test]
    fn arms_available_when_simd_backend_dispatched() {
        if kml_core::simd::backend_name() != "scalar" {
            assert!(
                !arms::available_arms().is_empty(),
                "SIMD backend {} dispatched but no testable arms",
                kml_core::simd::backend_name()
            );
        }
    }
}

/// One deterministic case with a long shared dimension (proptest dims stay
/// small for speed): 300 steps of every accumulator chain, edge tiles on
/// both sides.
#[test]
fn matmul_long_shared_dimension_bit_exact() {
    let k = 300;
    let (m, n) = (9, 11); // non-multiples of the 4×4 tile
    let a_vals: Vec<f64> = (0..m * k)
        .map(|i| ((i * 37) % 64) as f64 * 0.11 - 3.3)
        .collect();
    let b_vals: Vec<f64> = (0..k * n)
        .map(|i| ((i * 53) % 64) as f64 * 0.13 - 4.1)
        .collect();
    let a = Matrix::<f64>::from_f64_vec(m, k, &a_vals).unwrap();
    let b = Matrix::<f64>::from_f64_vec(k, n, &b_vals).unwrap();

    let mut want = Matrix::zeros(0, 0);
    naive::matmul_into(&a, &b, &mut want).unwrap();

    let mut got = Matrix::zeros(0, 0);
    a.matmul_into(&b, &mut got).unwrap();
    assert_eq!(want.as_slice(), got.as_slice(), "blocked kernel diverged");
}
