//! Dense row-major matrices and the linear-algebra kernels KML needs (§2).
//!
//! The paper implements "commonly used matrix manipulation and linear algebra
//! functions" from scratch because none exist in the kernel. [`Matrix`] is
//! generic over [`Scalar`] so the same layer code runs in `f32` or `f64`,
//! and every fallible operation returns a typed error
//! rather than panicking — a kernel oops is not an acceptable failure mode.

use crate::scalar::Scalar;
use crate::{KmlError, KmlRng, Result};
use rand::Rng;

/// A dense, row-major matrix of [`Scalar`] elements.
///
/// # Example
///
/// ```
/// use kml_core::matrix::Matrix;
///
/// # fn main() -> kml_core::Result<()> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S: Scalar = f32> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

/// Runs `$body` once per block of columns covering `0..$cols`, widest
/// first — eights, then at most one 4, 2 and 1 — with `$c0` the block's
/// first column and `$w` its width as a constant, so a per-column
/// accumulator array stays in registers and its loop unrolls.
macro_rules! for_col_blocks {
    ($cols:expr, |$c0:ident, $w:ident| $body:block) => {{
        let mut $c0 = 0usize;
        while $c0 + 8 <= $cols {
            const $w: usize = 8;
            $body
            $c0 += 8;
        }
        if $c0 + 4 <= $cols {
            const $w: usize = 4;
            $body
            $c0 += 4;
        }
        if $c0 + 2 <= $cols {
            const $w: usize = 2;
            $body
            $c0 += 2;
        }
        if $c0 < $cols {
            const $w: usize = 1;
            $body
        }
    }};
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::ZERO; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<S>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(KmlError::BadDataset("matrix with zero rows".into()));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(KmlError::BadDataset("matrix with zero columns".into()));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(KmlError::BadDataset(format!(
                    "ragged matrix: row 0 has {cols} columns, row {i} has {}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(KmlError::BadDataset(format!(
                "buffer of {} elements cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a 1×n row vector.
    pub fn row_vector(v: &[S]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Xavier/Glorot-uniform initialization for a layer weight matrix:
    /// entries drawn from `U(-limit, limit)` with `limit = sqrt(6/(fan_in+fan_out))`.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut KmlRng) -> Self {
        let limit = crate::math::sqrt(6.0 / (rows + cols) as f64);
        let data = (0..rows * cols)
            .map(|_| S::from_f64(rng.gen_range(-limit..limit)))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of element storage (for §4 memory-footprint accounting).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * S::BYTES
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> S {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: S) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[S] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice (the bounds check happens once here, not
    /// per element as with repeated [`Matrix::set`] calls).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [S] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of all elements.
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Flat mutable row-major view of all elements.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Reshapes to `rows × cols`, reusing the existing element buffer.
    ///
    /// Grows the buffer only if its capacity is insufficient; in steady
    /// state (same shape, or any shape seen before on this buffer) this
    /// performs **no heap allocation**. New elements are zeroed; old
    /// contents are not preserved in any meaningful layout.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        let need = rows * cols;
        if self.data.len() != need {
            self.data.clear();
            self.data.resize(need, S::ZERO);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Copies `src` into `self`, reshaping as needed (allocation-free once
    /// `self`'s buffer capacity covers `src.len()`).
    pub fn copy_from(&mut self, src: &Matrix<S>) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// `selfᵀ` into `out` (reshaped as needed): a row-major batch staged
    /// feature-major, or back.
    pub(crate) fn transpose_into(&self, out: &mut Matrix<S>) {
        out.ensure_shape(self.cols, self.rows);
        for (c, line) in out.data.chunks_exact_mut(self.rows.max(1)).enumerate() {
            for (o, &v) in line
                .iter_mut()
                .zip(self.data[c..].iter().step_by(self.cols))
            {
                *o = v;
            }
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.cols == rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix<S>) -> Result<Matrix<S>> {
        let mut out: Matrix<S> = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into `out` (reshaped as needed).
    ///
    /// Allocation-free once `out`'s buffer has capacity for the result.
    /// Runs the register-tiled kernel (see [`kernel_matmul`]); every output
    /// element is a single accumulator chain over the shared dimension in
    /// ascending order, bit-identical to the naive triple loop kept in
    /// `tests/naive`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.cols == rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        self.matmul_bias_into(rhs, None, out)
    }

    /// [`Matrix::matmul_into`] plus a `1 × rhs.cols` `bias` on every row:
    /// a linear layer's row-major forward pass, `x·W + b`. The kernel adds
    /// `bias[j]` to each finished chain of column `j` as it stores it —
    /// the bits of a separate pass over the product, without the pass.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.cols == rhs.rows`
    /// and `bias` is `1 × rhs.cols`.
    pub fn matmul_bias_into(
        &self,
        rhs: &Matrix<S>,
        bias: Option<&Matrix<S>>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(KmlError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let bias = bias_slice(bias, self.shape(), rhs.cols)?;
        out.ensure_shape(self.rows, rhs.cols);
        let (m, kd, n) = (self.rows, self.cols, rhs.cols);
        if S::simd_matmul(&self.data, &rhs.data, bias, &mut out.data, m, kd, n) {
            return Ok(());
        }
        // SAFETY: the shape guards establish `self.data.len() == m·kd`,
        // `rhs.data.len() == kd·n` and a bias of `n`; `ensure_shape` sized
        // `out.data` to `m·n` — exactly the bounds the kernel requires.
        unsafe { kernel_matmul(&self.data, &rhs.data, bias, &mut out.data, m, kd, n) };
        Ok(())
    }

    /// `self · rhs` written into `out` (reshaped as needed), every element
    /// in the schedule of a four-lane dot product over the shared index
    /// `p`: four chains from zero, chain `l` taking the `p ≡ l (mod 4)`
    /// below `kd & !3` in ascending order, a sequential tail chain over the
    /// rest, reduced as `((l0 + l1) + (l2 + l3)) + tail`. Each term is
    /// `rhs[p][j] · self[i][p]`.
    ///
    /// A linear layer's input gradient over a feature-major batch: `self`
    /// its weights (`in × out`), `rhs` `∂L/∂Yᵀ` (`out × m`), `out` `∂L/∂Xᵀ`
    /// (`in × m`), element `(i, j)` the dot product of sample `j`'s output
    /// gradient with weight row `i` — with the batch across the SIMD lanes.
    /// With `sigmoid`, the output of a sigmoid shaped as the product (the
    /// layer's input), each element `g` leaves as `g · (v · (1 − v))` for
    /// `v` the sigmoid's element at its place: the sigmoid's backward pass
    /// folded into the store, the operations it would run on its own.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.cols == rhs.rows`
    /// and `sigmoid` is `self.rows × rhs.cols`.
    pub fn matmul_dot_into(
        &self,
        rhs: &Matrix<S>,
        sigmoid: Option<&Matrix<S>>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(KmlError::ShapeMismatch {
                op: "matmul_dot",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, kd, n) = (self.rows, self.cols, rhs.cols);
        if let Some(v) = sigmoid.filter(|v| v.shape() != (m, n)) {
            return Err(KmlError::ShapeMismatch {
                op: "sigmoid",
                lhs: (m, n),
                rhs: v.shape(),
            });
        }
        let sigmoid = sigmoid.map(Matrix::as_slice);
        out.ensure_shape(m, n);
        if S::simd_matmul_dot(&self.data, &rhs.data, sigmoid, &mut out.data, m, kd, n) {
            return Ok(());
        }
        let kd4 = kd & !3;
        for i in 0..m {
            let arow = &self.data[i * kd..(i + 1) * kd];
            let orow = &mut out.data[i * n..(i + 1) * n];
            for_col_blocks!(n, |j0, W| {
                let col = |p: usize| &rhs.data[p * n + j0..p * n + j0 + W];
                let mut acc = [[S::ZERO; W]; 4];
                let mut tail = [S::ZERO; W];
                for (p, &a) in arow.iter().enumerate() {
                    let chain = if p < kd4 { &mut acc[p % 4] } else { &mut tail };
                    for (s, &b) in chain.iter_mut().zip(col(p)) {
                        *s = s.mul_acc(b, a);
                    }
                }
                for (w, o) in orow[j0..j0 + W].iter_mut().enumerate() {
                    let lo = acc[0][w].add(acc[1][w]);
                    let g = lo.add(acc[2][w].add(acc[3][w])).add(tail[w]);
                    *o = match sigmoid {
                        Some(v) => {
                            let v = v[i * n + j0 + w];
                            g.mul(v.mul(S::ONE.sub(v)))
                        }
                        None => g,
                    };
                }
            });
        }
        Ok(())
    }

    /// A linear layer's parameter gradients over a feature-major batch:
    /// `self` is the layer's input `Xᵀ` (`in × m`), `dy` its output
    /// gradient `∂L/∂Yᵀ` (`out × m`). `dw` (`in × out`) receives `Xᵀ·dY`,
    /// element `(i, o)` one chain from zero of `x[i][s] · dy[o][s]` with
    /// `s` ascending; `db` (`1 × out`) the same chain of the `dy[o][s]`
    /// alone. Column `s` of `dy` is read where it lies, shared by every
    /// row of `dw`, with the layer's outputs across the SIMD lanes.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.cols == dy.cols`.
    pub fn linear_grads_into(
        &self,
        dy: &Matrix<S>,
        dw: &mut Matrix<S>,
        db: &mut Matrix<S>,
    ) -> Result<()> {
        if self.cols != dy.cols {
            return Err(KmlError::ShapeMismatch {
                op: "linear_grads",
                lhs: self.shape(),
                rhs: dy.shape(),
            });
        }
        let (ind, m, outd) = (self.rows, self.cols, dy.rows);
        dw.ensure_shape(ind, outd);
        db.ensure_shape(1, outd);
        if S::simd_linear_grads(
            &self.data,
            &dy.data,
            &mut dw.data,
            &mut db.data,
            ind,
            outd,
            m,
        ) {
            return Ok(());
        }
        // A block of outputs at a time: `x` is `None` for the sums.
        let chains = |x: Option<&[S]>, out: &mut [S]| {
            for_col_blocks!(outd, |o0, W| {
                let mut acc = [S::ZERO; W];
                for s in 0..m {
                    for (w, a) in acc.iter_mut().enumerate() {
                        let g = dy.data[(o0 + w) * m + s];
                        *a = match x {
                            Some(x) => a.mul_acc(x[s], g),
                            None => a.add(g),
                        };
                    }
                }
                out[o0..o0 + W].copy_from_slice(&acc);
            });
        };
        for i in 0..ind {
            chains(
                Some(&self.data[i * m..(i + 1) * m]),
                &mut dw.data[i * outd..(i + 1) * outd],
            );
        }
        chains(None, &mut db.data);
        Ok(())
    }

    /// `selfᵀ · rhs` written into `out` (reshaped as needed).
    ///
    /// Register-tiled like [`Matrix::matmul_into`] (A is read with a column
    /// stride instead of materializing the transpose); chains ascend the
    /// shared dimension, bit-identical to the naive loop in `tests/naive`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.rows == rhs.rows`.
    pub fn transpose_matmul_into(&self, rhs: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        self.transpose_matmul_bias_into(rhs, None, out)
    }

    /// [`Matrix::transpose_matmul_into`] plus a `1 × self.cols` `bias`
    /// down the columns (`bias[i]` on row `i`): a linear layer's
    /// feature-major forward pass, `Wᵀ·Xᵀ + bᵀ` for weights `self`
    /// (`in × out`) and a batch staged `in × m`. Element `(i, j)` is the
    /// chain of the row-major `x·W + b`'s element `(j, i)`, operation for
    /// operation (IEEE products commute), with the batch across the SIMD
    /// lanes; the f32 arms route tiny activations.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless `self.rows == rhs.rows`
    /// and `bias` is `1 × self.cols`.
    pub fn transpose_matmul_bias_into(
        &self,
        rhs: &Matrix<S>,
        bias: Option<&Matrix<S>>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(KmlError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let bias = bias_slice(bias, self.shape(), self.cols)?;
        out.ensure_shape(self.cols, rhs.cols);
        let (mm, kd, n) = (self.cols, self.rows, rhs.cols);
        if S::simd_transpose_matmul(&self.data, &rhs.data, bias, &mut out.data, mm, kd, n) {
            return Ok(());
        }
        // SAFETY: shape guards + ensure_shape establish the kernel bounds
        // (`self` is kd×mm, `rhs` is kd×n, a bias of `mm`, `out` is mm×n).
        unsafe { kernel_transpose_matmul(&self.data, &rhs.data, bias, &mut out.data, mm, kd, n) };
        Ok(())
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless shapes match.
    pub fn sub(&self, rhs: &Matrix<S>) -> Result<Matrix<S>> {
        self.zip_with(rhs, "sub", S::sub)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] unless shapes match.
    pub fn hadamard(&self, rhs: &Matrix<S>) -> Result<Matrix<S>> {
        self.zip_with(rhs, "hadamard", S::mul)
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: S) -> Matrix<S> {
        self.map(|v| v.mul(k))
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(S) -> S) -> Matrix<S> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Converts every element to `f64` (for loss computation / reporting).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|v| v.to_f64()).collect()
    }

    /// Builds a matrix from `f64` data, converting into `S`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if `data.len() != rows * cols`.
    pub fn from_f64_vec(rows: usize, cols: usize, data: &[f64]) -> Result<Matrix<S>> {
        if data.len() != rows * cols {
            return Err(KmlError::BadDataset(format!(
                "buffer of {} elements cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix {
            rows,
            cols,
            data: data.iter().map(|&v| S::from_f64(v)).collect(),
        })
    }

    fn zip_with(
        &self,
        rhs: &Matrix<S>,
        op: &'static str,
        f: impl Fn(S, S) -> S,
    ) -> Result<Matrix<S>> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.zip_with_into(rhs, &mut out, op, f)?;
        Ok(out)
    }

    pub(crate) fn zip_with_into(
        &self,
        rhs: &Matrix<S>,
        out: &mut Matrix<S>,
        op: &'static str,
        f: impl Fn(S, S) -> S,
    ) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(KmlError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.ensure_shape(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = f(a, b);
        }
        Ok(())
    }

    /// Element-wise sigmoid into `out` through the scalar type's slice hook
    /// ([`Scalar::sigmoid_map`]): the dispatched SIMD arm or the four-lane
    /// SLP `exp` path. Bit-identical to
    /// `self.map_into(out, Scalar::sigmoid)`.
    pub fn sigmoid_into(&self, out: &mut Matrix<S>) {
        out.ensure_shape(self.rows, self.cols);
        S::sigmoid_map(&self.data, &mut out.data);
    }

    /// Applies `f` element-wise, writing into `out` (reshaped as needed).
    pub fn map_into(&self, out: &mut Matrix<S>, f: impl Fn(S) -> S) {
        out.ensure_shape(self.rows, self.cols);
        // Four elements per step: for latency-bound maps (sigmoid/tanh run
        // a serial Taylor chain per element) this keeps four independent
        // chains in flight instead of one.
        let mut oc = out.data.chunks_exact_mut(4);
        let mut ic = self.data.chunks_exact(4);
        for (o4, i4) in (&mut oc).zip(&mut ic) {
            let (a, b, c, d) = (f(i4[0]), f(i4[1]), f(i4[2]), f(i4[3]));
            o4[0] = a;
            o4[1] = b;
            o4[2] = c;
            o4[3] = d;
        }
        for (o, &v) in oc.into_remainder().iter_mut().zip(ic.remainder()) {
            *o = f(v);
        }
    }
}

/// `bias`'s elements, checked to be `1 × len` for a product whose left
/// operand has shape `lhs` (the shape the error names beside the bias's).
fn bias_slice<S: Scalar>(
    bias: Option<&Matrix<S>>,
    lhs: (usize, usize),
    len: usize,
) -> Result<Option<&[S]>> {
    match bias {
        Some(b) if b.shape() != (1, len) => Err(KmlError::ShapeMismatch {
            op: "bias",
            lhs,
            rhs: b.shape(),
        }),
        b => Ok(b.map(Matrix::as_slice)),
    }
}

/// `s` plus `bias[k]` if there is a bias: a linear layer's bias add, made
/// on a finished chain as the kernel stores it.
///
/// SAFETY: a bias holds index `k`.
#[inline(always)]
unsafe fn biased<S: Scalar>(bias: Option<&[S]>, k: usize, s: S) -> S {
    match bias {
        Some(b) => s.add(*b.get_unchecked(k)),
        None => s,
    }
}

/// Register-tile height of the blocked kernels: MR×NR = 4×4 gives 16
/// independent accumulator chains, matching the 16 xmm registers of the
/// x86-64 SSE2 baseline so LLVM keeps the whole tile in registers.
const MR: usize = 4;
/// Register-tile width (see [`MR`]).
const NR: usize = 4;

/// `c = a · b` for row-major `a` (`m×kd`), `b` (`kd×n`), `c` (`m×n`).
///
/// Every `c[i·n+j]` is a single accumulator chain over ascending `p` using
/// `mul_acc` (= `add(mul)`, never an FMA contraction), the same evaluation
/// order as the naive i-k-j loop — so the result is bit-identical for both
/// scalars. The MR×NR tile body and
/// both edge paths all follow that one chain shape.
///
/// A bias adds `bias[j]` to each chain of column `j` as it is stored.
///
/// SAFETY: caller must guarantee `a.len() >= m·kd`, `b.len() >= kd·n`,
/// `c.len() >= m·n` and a bias of at least `n` elements.
unsafe fn kernel_matmul<S: Scalar>(
    a: &[S],
    b: &[S],
    bias: Option<&[S]>,
    c: &mut [S],
    m: usize,
    kd: usize,
    n: usize,
) {
    debug_assert!(a.len() >= m * kd && b.len() >= kd * n && c.len() >= m * n);
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[S::ZERO; NR]; MR];
            for p in 0..kd {
                let bp = p * n + j;
                let bv = [
                    *b.get_unchecked(bp),
                    *b.get_unchecked(bp + 1),
                    *b.get_unchecked(bp + 2),
                    *b.get_unchecked(bp + 3),
                ];
                for (mi, lane) in acc.iter_mut().enumerate() {
                    let av = *a.get_unchecked((i + mi) * kd + p);
                    for (s, &bj) in lane.iter_mut().zip(&bv) {
                        *s = s.mul_acc(av, bj);
                    }
                }
            }
            for (mi, lane) in acc.iter().enumerate() {
                let cp = (i + mi) * n + j;
                for (jj, &s) in lane.iter().enumerate() {
                    *c.get_unchecked_mut(cp + jj) = biased(bias, j + jj, s);
                }
            }
            j += NR;
        }
        while j < n {
            let mut acc = [S::ZERO; MR];
            for p in 0..kd {
                let bv = *b.get_unchecked(p * n + j);
                for (mi, s) in acc.iter_mut().enumerate() {
                    *s = s.mul_acc(*a.get_unchecked((i + mi) * kd + p), bv);
                }
            }
            for (mi, &s) in acc.iter().enumerate() {
                *c.get_unchecked_mut((i + mi) * n + j) = biased(bias, j, s);
            }
            j += 1;
        }
        i += MR;
    }
    while i < m {
        let arow = a.get_unchecked(i * kd..(i + 1) * kd);
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [S::ZERO; NR];
            for (p, &av) in arow.iter().enumerate() {
                let bp = p * n + j;
                for (jj, s) in acc.iter_mut().enumerate() {
                    *s = s.mul_acc(av, *b.get_unchecked(bp + jj));
                }
            }
            let cp = i * n + j;
            for (jj, &s) in acc.iter().enumerate() {
                *c.get_unchecked_mut(cp + jj) = biased(bias, j + jj, s);
            }
            j += NR;
        }
        while j < n {
            let mut s = S::ZERO;
            for (p, &av) in arow.iter().enumerate() {
                s = s.mul_acc(av, *b.get_unchecked(p * n + j));
            }
            *c.get_unchecked_mut(i * n + j) = biased(bias, j, s);
            j += 1;
        }
        i += 1;
    }
}

/// `c = aᵀ · b` for row-major `a` (`kd×mm`), `b` (`kd×n`), `c` (`mm×n`).
///
/// A is read with a column stride (`a[p·mm + i]`) instead of materializing
/// the transpose. Chain shape and order match [`kernel_matmul`]; a bias
/// adds `bias[i]` to each chain of row `i` as it is stored.
///
/// SAFETY: caller must guarantee `a.len() >= kd·mm`, `b.len() >= kd·n`,
/// `c.len() >= mm·n` and a bias of at least `mm` elements.
unsafe fn kernel_transpose_matmul<S: Scalar>(
    a: &[S],
    b: &[S],
    bias: Option<&[S]>,
    c: &mut [S],
    mm: usize,
    kd: usize,
    n: usize,
) {
    debug_assert!(a.len() >= kd * mm && b.len() >= kd * n && c.len() >= mm * n);
    let mut i = 0;
    while i + MR <= mm {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[S::ZERO; NR]; MR];
            for p in 0..kd {
                let ap = p * mm + i;
                let bp = p * n + j;
                let bv = [
                    *b.get_unchecked(bp),
                    *b.get_unchecked(bp + 1),
                    *b.get_unchecked(bp + 2),
                    *b.get_unchecked(bp + 3),
                ];
                for (mi, lane) in acc.iter_mut().enumerate() {
                    let av = *a.get_unchecked(ap + mi);
                    for (s, &bj) in lane.iter_mut().zip(&bv) {
                        *s = s.mul_acc(av, bj);
                    }
                }
            }
            for (mi, lane) in acc.iter().enumerate() {
                let cp = (i + mi) * n + j;
                for (jj, &s) in lane.iter().enumerate() {
                    *c.get_unchecked_mut(cp + jj) = biased(bias, i + mi, s);
                }
            }
            j += NR;
        }
        while j < n {
            let mut acc = [S::ZERO; MR];
            for p in 0..kd {
                let ap = p * mm + i;
                let bv = *b.get_unchecked(p * n + j);
                for (mi, s) in acc.iter_mut().enumerate() {
                    *s = s.mul_acc(*a.get_unchecked(ap + mi), bv);
                }
            }
            for (mi, &s) in acc.iter().enumerate() {
                *c.get_unchecked_mut((i + mi) * n + j) = biased(bias, i + mi, s);
            }
            j += 1;
        }
        i += MR;
    }
    while i < mm {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [S::ZERO; NR];
            for p in 0..kd {
                let av = *a.get_unchecked(p * mm + i);
                let bp = p * n + j;
                for (jj, s) in acc.iter_mut().enumerate() {
                    *s = s.mul_acc(av, *b.get_unchecked(bp + jj));
                }
            }
            let cp = i * n + j;
            for (jj, &s) in acc.iter().enumerate() {
                *c.get_unchecked_mut(cp + jj) = biased(bias, i, s);
            }
            j += NR;
        }
        while j < n {
            let mut s = S::ZERO;
            for p in 0..kd {
                s = s.mul_acc(*a.get_unchecked(p * mm + i), *b.get_unchecked(p * n + j));
            }
            *c.get_unchecked_mut(i * n + j) = biased(bias, i, s);
            j += 1;
        }
        i += 1;
    }
}

impl<S: Scalar> std::fmt::Display for Matrix<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn m(rows: &[Vec<f64>]) -> Matrix<f64> {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = m(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(KmlError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(&[vec![1.5, -2.0, 3.0], vec![0.0, 4.0, -1.0]]);
        let i = m(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    fn transposed(a: &Matrix<f64>) -> Matrix<f64> {
        let rows: Vec<Vec<f64>> = (0..a.cols())
            .map(|c| (0..a.rows()).map(|r| a.get(r, c)).collect())
            .collect();
        m(&rows)
    }

    /// What `kernel` writes into a fresh output matrix.
    fn fresh(kernel: impl FnOnce(&mut Matrix<f64>) -> Result<()>) -> Matrix<f64> {
        let mut out = Matrix::zeros(0, 0);
        kernel(&mut out).unwrap();
        out
    }

    #[test]
    fn transpose_kernels_match_explicit_transpose() {
        let mut rng = KmlRng::seed_from_u64(1);
        let a = Matrix::<f64>::xavier_uniform(4, 6, &mut rng);
        let b = Matrix::<f64>::xavier_uniform(5, 6, &mut rng);
        // The two backward products: `a·b` in the dot schedule, and
        // `a·bᵀ` with `b`'s row sums.
        let via_kernel = fresh(|o| a.matmul_dot_into(&transposed(&b), None, o));
        let via_explicit = a.matmul(&transposed(&b)).unwrap();
        for (x, y) in via_kernel.as_slice().iter().zip(via_explicit.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
        let mut sums = Matrix::zeros(0, 0);
        let via_kernel = fresh(|o| a.linear_grads_into(&b, o, &mut sums));
        for (x, y) in via_kernel.as_slice().iter().zip(via_explicit.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (r, &sum) in sums.as_slice().iter().enumerate() {
            assert!((sum - b.row(r).iter().sum::<f64>()).abs() < 1e-12);
        }

        let c = Matrix::<f64>::xavier_uniform(4, 3, &mut rng);
        let via_kernel = fresh(|o| a.transpose_matmul_into(&c, o));
        let via_explicit = transposed(&a).matmul(&c).unwrap();
        for (x, y) in via_kernel.as_slice().iter().zip(via_explicit.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn elementwise_operations() {
        let a = m(&[vec![1.0, 2.0]]);
        let b = m(&[vec![10.0, 20.0]]);
        assert_eq!(b.sub(&a).unwrap(), m(&[vec![9.0, 18.0]]));
        assert_eq!(a.hadamard(&b).unwrap(), m(&[vec![10.0, 40.0]]));
        assert_eq!(a.scale(3.0), m(&[vec![3.0, 6.0]]));
    }

    #[test]
    fn broadcast_and_reduce() {
        let x = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut sums = Matrix::zeros(0, 0);
        let dw = fresh(|o| x.linear_grads_into(&x, o, &mut sums));
        assert_eq!(dw, m(&[vec![5.0, 11.0], vec![11.0, 25.0]]));
        assert_eq!(sums, m(&[vec![3.0, 7.0]]));
        let mut t = Matrix::zeros(0, 0);
        x.transpose_into(&mut t);
        assert_eq!(t, m(&[vec![1.0, 3.0], vec![2.0, 4.0]]));
        // The bias rides in the product's store, in either orientation.
        let eye = m(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let bias = m(&[vec![10.0, 20.0]]);
        let row_major = fresh(|o| x.matmul_bias_into(&eye, Some(&bias), o));
        assert_eq!(row_major, m(&[vec![11.0, 22.0], vec![13.0, 24.0]]));
        let feature_major = fresh(|o| eye.transpose_matmul_bias_into(&x, Some(&bias), o));
        assert_eq!(feature_major, m(&[vec![11.0, 12.0], vec![23.0, 24.0]]));
    }

    #[test]
    fn ragged_and_empty_inputs_rejected() {
        assert!(Matrix::<f64>::from_rows(&[]).is_err());
        assert!(Matrix::<f64>::from_rows(&[vec![]]).is_err());
        assert!(Matrix::<f64>::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::<f64>::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn storage_bytes_counts_elements() {
        assert_eq!(Matrix::<f32>::zeros(3, 4).storage_bytes(), 48);
        assert_eq!(Matrix::<f64>::zeros(3, 4).storage_bytes(), 96);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = KmlRng::seed_from_u64(9);
        let w = Matrix::<f64>::xavier_uniform(10, 10, &mut rng);
        let limit = (6.0f64 / 20.0).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= limit));
        // Not all zero (i.e. it actually randomized).
        assert!(w.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn into_kernels_reuse_buffers_across_shapes() {
        let mut rng = KmlRng::seed_from_u64(11);
        let a = Matrix::<f64>::xavier_uniform(3, 5, &mut rng);
        let b = Matrix::<f64>::xavier_uniform(5, 4, &mut rng);
        let c = Matrix::<f64>::xavier_uniform(3, 4, &mut rng);
        let d = Matrix::<f64>::xavier_uniform(4, 5, &mut rng);
        let mut out = Matrix::<f64>::zeros(1, 1);
        // Same scratch matrix services differently-shaped kernels in
        // sequence, and each leaves what it leaves in a fresh one.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.matmul_dot_into(&b, None, &mut out).unwrap();
        assert_eq!(out, fresh(|o| a.matmul_dot_into(&b, None, o)));
        let mut sums = Matrix::zeros(1, 1);
        a.linear_grads_into(&d, &mut out, &mut sums).unwrap();
        let mut fresh_sums = Matrix::zeros(0, 0);
        assert_eq!(out, fresh(|o| a.linear_grads_into(&d, o, &mut fresh_sums)));
        assert_eq!(sums, fresh_sums);
        a.transpose_matmul_into(&c, &mut out).unwrap();
        assert_eq!(out, fresh(|o| a.transpose_matmul_into(&c, o)));
        a.sigmoid_into(&mut out);
        assert_eq!(
            out,
            fresh(|o| {
                a.sigmoid_into(o);
                Ok(())
            })
        );
    }

    #[test]
    fn into_kernels_report_the_same_shape_errors() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let mut out = Matrix::<f64>::zeros(1, 1);
        assert!(matches!(
            a.matmul_into(&b, &mut out),
            Err(KmlError::ShapeMismatch { op: "matmul", .. })
        ));
        let w = Matrix::<f64>::zeros(3, 4);
        for bias in [Matrix::zeros(1, 3), Matrix::zeros(2, 4)] {
            assert!(matches!(
                a.matmul_bias_into(&w, Some(&bias), &mut out),
                Err(KmlError::ShapeMismatch { op: "bias", .. })
            ));
        }
        assert!(matches!(
            w.transpose_matmul_bias_into(&Matrix::zeros(3, 5), Some(&b), &mut out),
            Err(KmlError::ShapeMismatch { op: "bias", .. })
        ));
    }

    #[test]
    fn copy_from_and_ensure_shape_track_shape() {
        let src = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut dst = Matrix::<f64>::zeros(5, 7);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.ensure_shape(1, 5);
        assert_eq!(dst.shape(), (1, 5));
        assert_eq!(dst.as_slice(), &[0.0; 5]);
    }

    #[test]
    fn display_is_nonempty() {
        let x = Matrix::<f64>::zeros(2, 2);
        assert!(!format!("{x}").is_empty());
        assert!(!format!("{x:?}").is_empty());
    }
}
