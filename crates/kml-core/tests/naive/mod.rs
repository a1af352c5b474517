//! Naive triple-loop reference kernels, kept verbatim from the
//! pre-blocking implementation (they lived in `kml_core::matrix` as
//! `pub mod naive` until their only caller was this test tree).
//!
//! These are the ground truth for `kernel_parity.rs`: the blocked kernels
//! must match them bit-for-bit on finite inputs, for every scalar.

use kml_core::matrix::Matrix;
use kml_core::scalar::Scalar;
use kml_core::{KmlError, Result};

/// `orow[j] += a * rrow[j]`, 4-way unrolled (the pre-blocking hot loop).
#[inline]
fn axpy_row<S: Scalar>(orow: &mut [S], rrow: &[S], a: S) {
    let mut oc = orow.chunks_exact_mut(4);
    let mut rc = rrow.chunks_exact(4);
    for (o4, b4) in (&mut oc).zip(&mut rc) {
        o4[0] = o4[0].mul_acc(a, b4[0]);
        o4[1] = o4[1].mul_acc(a, b4[1]);
        o4[2] = o4[2].mul_acc(a, b4[2]);
        o4[3] = o4[3].mul_acc(a, b4[3]);
    }
    for (o, &b) in oc.into_remainder().iter_mut().zip(rc.remainder()) {
        *o = o.mul_acc(a, b);
    }
}

/// Pre-blocking `matmul_into`: i-k-j loop order with zero-skip.
pub fn matmul_into<S: Scalar>(lhs: &Matrix<S>, rhs: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
    if lhs.cols() != rhs.rows() {
        return Err(KmlError::ShapeMismatch {
            op: "matmul",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    out.ensure_shape(lhs.rows(), rhs.cols());
    out.as_mut_slice().fill(S::ZERO);
    for i in 0..lhs.rows() {
        for k in 0..lhs.cols() {
            let a = lhs.as_slice()[i * lhs.cols() + k];
            if a == S::ZERO {
                continue;
            }
            let rrow = &rhs.as_slice()[k * rhs.cols()..(k + 1) * rhs.cols()];
            let orow = &mut out.as_mut_slice()[i * rhs.cols()..(i + 1) * rhs.cols()];
            axpy_row(orow, rrow, a);
        }
    }
    Ok(())
}

/// Pre-blocking `matmul_transpose_into`: per-element [`dot`] — the
/// reference for `Matrix::matmul_dot_into`, which is its transpose,
/// `(dY·Wᵀ)ᵀ = W·dYᵀ`, each element the same schedule.
pub fn matmul_transpose_into<S: Scalar>(
    lhs: &Matrix<S>,
    rhs: &Matrix<S>,
    out: &mut Matrix<S>,
) -> Result<()> {
    if lhs.cols() != rhs.cols() {
        return Err(KmlError::ShapeMismatch {
            op: "matmul_transpose",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    out.ensure_shape(lhs.rows(), rhs.rows());
    for i in 0..lhs.rows() {
        let arow = &lhs.as_slice()[i * lhs.cols()..(i + 1) * lhs.cols()];
        for j in 0..rhs.rows() {
            let brow = &rhs.as_slice()[j * rhs.cols()..(j + 1) * rhs.cols()];
            out.as_mut_slice()[i * rhs.rows() + j] = dot(arow, brow);
        }
    }
    Ok(())
}

/// Pre-blocking `transpose_matmul_into`: k-outer with zero-skip.
pub fn transpose_matmul_into<S: Scalar>(
    lhs: &Matrix<S>,
    rhs: &Matrix<S>,
    out: &mut Matrix<S>,
) -> Result<()> {
    if lhs.rows() != rhs.rows() {
        return Err(KmlError::ShapeMismatch {
            op: "transpose_matmul",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    out.ensure_shape(lhs.cols(), rhs.cols());
    out.as_mut_slice().fill(S::ZERO);
    for k in 0..lhs.rows() {
        let arow = &lhs.as_slice()[k * lhs.cols()..(k + 1) * lhs.cols()];
        let brow = &rhs.as_slice()[k * rhs.cols()..(k + 1) * rhs.cols()];
        for (i, &a) in arow.iter().enumerate() {
            if a == S::ZERO {
                continue;
            }
            let orow = &mut out.as_mut_slice()[i * rhs.cols()..(i + 1) * rhs.cols()];
            axpy_row(orow, brow, a);
        }
    }
    Ok(())
}

/// A linear layer's parameter gradients by their definition, over a
/// feature-major batch (`x` is `in × m`, `dy` is `out × m`): `dw[i][o]` is
/// the chain `0 + x[i][0]·dy[o][0] + x[i][1]·dy[o][1] + …` and `db[o]` the
/// chain `0 + dy[o][0] + dy[o][1] + …` — the chains the row-major step's
/// blocked `transpose_matmul` and column sums ran, without this file's
/// zero-skip.
pub fn linear_grads_into<S: Scalar>(
    x: &Matrix<S>,
    dy: &Matrix<S>,
    dw: &mut Matrix<S>,
    db: &mut Matrix<S>,
) -> Result<()> {
    if x.cols() != dy.cols() {
        return Err(KmlError::ShapeMismatch {
            op: "linear_grads",
            lhs: x.shape(),
            rhs: dy.shape(),
        });
    }
    let (ind, m, outd) = (x.rows(), x.cols(), dy.rows());
    dw.ensure_shape(ind, outd);
    db.ensure_shape(1, outd);
    for o in 0..outd {
        let g = &dy.as_slice()[o * m..(o + 1) * m];
        for i in 0..ind {
            let xs = &x.as_slice()[i * m..(i + 1) * m];
            let chain = xs
                .iter()
                .zip(g)
                .fold(S::ZERO, |acc, (&a, &b)| acc.mul_acc(a, b));
            dw.as_mut_slice()[i * outd + o] = chain;
        }
        db.as_mut_slice()[o] = g.iter().fold(S::ZERO, |acc, &b| acc.add(b));
    }
    Ok(())
}

/// `Matrix::dot`'s schedule (private to the library): four independent
/// accumulators over `chunks_exact(4)`, a serial tail, then the
/// `(0+1)+(2+3)+tail` fold.
#[inline]
fn dot<S: Scalar>(arow: &[S], brow: &[S]) -> S {
    let mut acc = [S::ZERO; 4];
    let mut ac = arow.chunks_exact(4);
    let mut bc = brow.chunks_exact(4);
    for (a4, b4) in (&mut ac).zip(&mut bc) {
        acc[0] = acc[0].mul_acc(a4[0], b4[0]);
        acc[1] = acc[1].mul_acc(a4[1], b4[1]);
        acc[2] = acc[2].mul_acc(a4[2], b4[2]);
        acc[3] = acc[3].mul_acc(a4[3], b4[3]);
    }
    let mut tail = S::ZERO;
    for (&a, &b) in ac.remainder().iter().zip(bc.remainder()) {
        tail = tail.mul_acc(a, b);
    }
    acc[0].add(acc[1]).add(acc[2].add(acc[3])).add(tail)
}
