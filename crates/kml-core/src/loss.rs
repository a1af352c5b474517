//! Loss functions with gradients (paper §2 "Layer and loss functions").
//!
//! KML's readahead model uses the **cross-entropy** loss; MSE and binary
//! cross-entropy are implemented as the other "commonly used" losses the
//! framework supports. Each loss provides the forward value and the gradient
//! with respect to the network output, which seeds back-propagation.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::{KmlError, Result};

/// The supervision signal a loss is computed against.
#[derive(Debug, Clone, Copy)]
pub enum TargetRef<'a> {
    /// Class indices for classification (one per batch row).
    Classes(&'a [usize]),
    /// Dense regression targets, row-major, same shape as the prediction.
    Values(&'a [f64]),
}

/// A differentiable training objective.
///
/// `pred` is the raw network output (logits for the classification losses).
pub trait Loss: std::fmt::Debug {
    /// Stable numeric tag for model files.
    fn tag(&self) -> u8;

    /// Mean loss over the batch.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if the target does not match `pred`'s
    /// shape (wrong count, class index out of range, or wrong target variant).
    fn loss<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<f64>;

    /// Gradient of the mean loss with respect to `pred` (same shape).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::loss`].
    fn grad<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<Matrix<S>>;

    /// Writes the gradient of the mean loss into `out` (reshaped to match
    /// `pred`), reusing `out`'s buffer when its capacity already suffices.
    /// The default delegates to [`Loss::grad`] for external implementations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::loss`].
    fn grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        out.copy_from(&self.grad(pred, target)?);
        Ok(())
    }

    /// Fused mean loss + gradient in one pass over a prediction laid out
    /// *feature-major* (`outputs × batch`, column `j` sample `j`'s; the
    /// target stays per sample, as above) — the training step's entry
    /// point. The gradient is written feature-major into `out`, and each
    /// value is the bits [`Loss::loss`] / [`Loss::grad`] give for the same
    /// batch row-major. The losses here override it allocation-free in
    /// steady state, staging in the caller's `scratch`; `CrossEntropyLoss`
    /// shares one softmax pass between the loss and the gradient. The
    /// default transposes into row-major copies and back.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::loss`].
    fn loss_and_grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
        scratch: &mut LossScratch,
    ) -> Result<f64> {
        let _ = scratch;
        let mut rows = Matrix::zeros(0, 0);
        pred.transpose_into(&mut rows);
        let l = self.loss(&rows, target)?;
        self.grad(&rows, target)?.transpose_into(out);
        Ok(l)
    }
}

/// Reused `f64` staging for a loss's per-sample passes, owned by whoever
/// calls [`Loss::loss_and_grad_into`] step after step (a
/// [`crate::model::Model`] holds one): sized by the first call, never
/// reallocated for the same prediction shape after.
#[derive(Debug, Clone, Default)]
pub struct LossScratch {
    /// One block of samples' logits minus their maximum, class-major.
    shifted: Vec<f64>,
    /// `exp` of `shifted`.
    exps: Vec<f64>,
    /// Per-sample sums of `exps`.
    sums: Vec<f64>,
    /// Per-sample maxima, then the logarithms of `sums`.
    ln_sums: Vec<f64>,
}

/// Samples one block of the softmax pass covers: enough for the block `exp`
/// and `ln` to run lane-parallel end to end, small enough that the staging
/// stays in L1 at any batch size.
const SOFTMAX_BLOCK_ROWS: usize = 64;

/// The softmax pass behind every [`CrossEntropyLoss`] entry point, over
/// `pred` row-major (`samples × classes`) or, with `feature_major`,
/// `classes × samples`, a block of samples at a time: stage the block
/// class-major, shift each sample by its maximum, `exp` the whole block
/// lane-parallel ([`crate::simd::exp_slice`]), sum each sample in class
/// order, and — when `want_loss` — `ln` the block's sums lane-parallel and
/// fold `−log softmax[class]` into the total sample by sample. With `grad`
/// (laid out as `pred`), sample `r` of it becomes `(softmax(pred[r]) −
/// onehot(class[r])) / samples`. Returns the mean loss (0.0 without
/// `want_loss`).
///
/// Per element this is the operation sequence of [`crate::math::softmax_in_place`]
/// and [`crate::math::log_softmax_at`] — same max fold, same subtraction,
/// the same `exp` and `ln` bits (the block forms are bit-identical to the
/// scalar functions per lane), sums in the same order — so neither the
/// blocking nor the layout changes a result; each step runs across the
/// block's samples.
fn softmax_pass<S: Scalar>(
    pred: &Matrix<S>,
    feature_major: bool,
    classes: &[usize],
    scratch: &mut LossScratch,
    want_loss: bool,
    mut grad: Option<&mut Matrix<S>>,
) -> f64 {
    let (rows, cols) = if feature_major {
        (pred.cols(), pred.rows())
    } else {
        pred.shape()
    };
    // Where class `c` of sample `r` lies in `pred` and `grad`.
    let at = |r: usize, c: usize| {
        if feature_major {
            c * rows + r
        } else {
            r * cols + c
        }
    };
    let p = pred.as_slice();
    let n = rows as f64;
    let block = SOFTMAX_BLOCK_ROWS.min(rows);
    scratch.shifted.resize(block * cols, 0.0);
    scratch.exps.resize(block * cols, 0.0);
    scratch.sums.resize(block, 0.0);
    scratch.ln_sums.resize(block, 0.0);
    let mut total = 0.0;
    let mut r0 = 0;
    while r0 < rows {
        let br = block.min(rows - r0);
        // Class `c` of the block's sample `r` at `c·br + r`.
        let shifted = &mut scratch.shifted[..br * cols];
        let exps = &mut scratch.exps[..br * cols];
        let (sums, maxes) = (&mut scratch.sums[..br], &mut scratch.ln_sums[..br]);
        maxes.fill(f64::NEG_INFINITY);
        for (c, line) in shifted.chunks_exact_mut(br).enumerate() {
            for (r, (b, max)) in line.iter_mut().zip(maxes.iter_mut()).enumerate() {
                *b = p[at(r0 + r, c)].to_f64();
                *max = max.max(*b);
            }
        }
        for line in shifted.chunks_exact_mut(br) {
            for (b, max) in line.iter_mut().zip(maxes.iter()) {
                *b -= max;
            }
        }
        crate::simd::exp_slice(shifted, exps);
        sums.fill(0.0);
        for line in exps.chunks_exact(br) {
            for (sum, &e) in sums.iter_mut().zip(line) {
                *sum += e;
            }
        }
        if want_loss {
            let ln_sums = &mut scratch.ln_sums[..br];
            crate::math::ln_slice(sums, ln_sums);
            for (r, ln_sum) in ln_sums.iter().enumerate() {
                total -= shifted[classes[r0 + r] * br + r] - ln_sum;
            }
        }
        if let Some(grad) = grad.as_deref_mut() {
            let g = grad.as_mut_slice();
            for (c, line) in exps.chunks_exact(br).enumerate() {
                for (r, (&e, &sum)) in line.iter().zip(sums.iter()).enumerate() {
                    let s = if sum > 0.0 { e / sum } else { e };
                    let hot = if c == classes[r0 + r] { 1.0 } else { 0.0 };
                    g[at(r0 + r, c)] = S::from_f64((s - hot) / n);
                }
            }
        }
        r0 += br;
    }
    total / n
}

/// The one pass of a dense-target loss over `pred`, row-major or with
/// `feature_major` `outputs × samples`: `term(x, t)` summed over the
/// elements in the row-major order of the targets `vs` and divided by
/// their count when `want_loss` (0.0 otherwise), and `slope(x, t)` written
/// into `grad` (laid out as `pred`) where `pred` holds `x`.
fn dense_pass<S: Scalar>(
    pred: &Matrix<S>,
    feature_major: bool,
    vs: &[f64],
    want_loss: bool,
    mut grad: Option<&mut Matrix<S>>,
    term: impl Fn(f64, f64) -> f64,
    slope: impl Fn(f64, f64) -> f64,
) -> f64 {
    let (rows, cols) = pred.shape();
    if let Some(g) = grad.as_deref_mut() {
        g.ensure_shape(rows, cols);
    }
    let p = pred.as_slice();
    // Row-major element `i` of a `samples × rows` prediction stored
    // `rows × samples`.
    let at = |i: usize| {
        if feature_major {
            i % rows * cols + i / rows
        } else {
            i
        }
    };
    let total: f64 = vs
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let j = at(i);
            let x = p[j].to_f64();
            if let Some(g) = grad.as_deref_mut() {
                g.as_mut_slice()[j] = S::from_f64(slope(x, t));
            }
            if want_loss {
                term(x, t)
            } else {
                0.0
            }
        })
        .sum();
    total / pred.len() as f64
}

fn classes_for<'a>(
    pred_rows: usize,
    pred_cols: usize,
    target: TargetRef<'a>,
    loss_name: &str,
) -> Result<&'a [usize]> {
    match target {
        TargetRef::Classes(cs) => {
            if cs.len() != pred_rows {
                return Err(KmlError::BadDataset(format!(
                    "{loss_name}: {} labels for {} rows",
                    cs.len(),
                    pred_rows
                )));
            }
            if let Some(&bad) = cs.iter().find(|&&c| c >= pred_cols) {
                return Err(KmlError::BadDataset(format!(
                    "{loss_name}: class {bad} out of range for {pred_cols} outputs"
                )));
            }
            Ok(cs)
        }
        TargetRef::Values(_) => Err(KmlError::BadDataset(format!(
            "{loss_name} expects class-index targets"
        ))),
    }
}

fn values_for<'a>(pred_len: usize, target: TargetRef<'a>, loss_name: &str) -> Result<&'a [f64]> {
    match target {
        TargetRef::Values(vs) => {
            if vs.len() != pred_len {
                return Err(KmlError::BadDataset(format!(
                    "{loss_name}: {} target values for {} predictions",
                    vs.len(),
                    pred_len
                )));
            }
            Ok(vs)
        }
        TargetRef::Classes(_) => Err(KmlError::BadDataset(format!(
            "{loss_name} expects dense value targets"
        ))),
    }
}

/// Multi-class cross-entropy over raw logits, with softmax fused in
/// (numerically stable log-sum-exp form). This is the loss of the paper's
/// readahead workload classifier.
///
/// # Example
///
/// ```
/// use kml_core::loss::{CrossEntropyLoss, Loss, TargetRef};
/// use kml_core::matrix::Matrix;
///
/// # fn main() -> kml_core::Result<()> {
/// let logits = Matrix::from_rows(&[vec![4.0_f64, 0.0, 0.0]])?;
/// let loss = CrossEntropyLoss.loss(&logits, TargetRef::Classes(&[0]))?;
/// assert!(loss < 0.1); // confident and correct → small loss
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

impl Loss for CrossEntropyLoss {
    fn tag(&self) -> u8 {
        1
    }

    /// Stages its softmax block in a scratch of its own: one-off
    /// evaluation, not the training step ([`Loss::loss_and_grad_into`]).
    fn loss<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<f64> {
        let classes = classes_for(pred.rows(), pred.cols(), target, "cross-entropy")?;
        let mut scratch = LossScratch::default();
        Ok(softmax_pass(pred, false, classes, &mut scratch, true, None))
    }

    fn grad<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<Matrix<S>> {
        let mut out = Matrix::zeros(0, 0);
        self.grad_into(pred, target, &mut out)?;
        Ok(out)
    }

    /// Like [`CrossEntropyLoss::loss`], in a scratch of its own.
    fn grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        let classes = classes_for(pred.rows(), pred.cols(), target, "cross-entropy")?;
        out.ensure_shape(pred.rows(), pred.cols());
        let mut scratch = LossScratch::default();
        softmax_pass(pred, false, classes, &mut scratch, false, Some(out));
        Ok(())
    }

    fn loss_and_grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
        scratch: &mut LossScratch,
    ) -> Result<f64> {
        let classes = classes_for(pred.cols(), pred.rows(), target, "cross-entropy")?;
        out.ensure_shape(pred.rows(), pred.cols());
        Ok(softmax_pass(pred, true, classes, scratch, true, Some(out)))
    }
}

/// [`CrossEntropyLoss`] for a training step whose loss nobody reads: the
/// fused entry point runs the gradient-only softmax pass (no `ln`) and
/// reports a loss of 0.0. The gradient is the same bits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CrossEntropyGrad;

impl Loss for CrossEntropyGrad {
    fn tag(&self) -> u8 {
        CrossEntropyLoss.tag()
    }

    fn loss<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<f64> {
        classes_for(pred.rows(), pred.cols(), target, "cross-entropy").map(|_| 0.0)
    }

    fn grad<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<Matrix<S>> {
        CrossEntropyLoss.grad(pred, target)
    }

    fn loss_and_grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
        scratch: &mut LossScratch,
    ) -> Result<f64> {
        let classes = classes_for(pred.cols(), pred.rows(), target, "cross-entropy")?;
        out.ensure_shape(pred.rows(), pred.cols());
        Ok(softmax_pass(pred, true, classes, scratch, false, Some(out)))
    }
}

/// A loss that is the mean of a per-element `term(prediction, target)`
/// over dense value targets, its gradient the per-element `slope`.
trait DenseLoss: std::fmt::Debug {
    const TAG: u8;
    const NAME: &'static str;
    fn term(x: f64, t: f64) -> f64;
    /// The gradient of one of `n` terms.
    fn slope(x: f64, t: f64, n: f64) -> f64;
}

impl<D: DenseLoss> Loss for D {
    fn tag(&self) -> u8 {
        D::TAG
    }

    fn loss<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<f64> {
        let vs = values_for(pred.len(), target, D::NAME)?;
        Ok(dense_pass(pred, false, vs, true, None, D::term, |_, _| 0.0))
    }

    fn grad<S: Scalar>(&self, pred: &Matrix<S>, target: TargetRef<'_>) -> Result<Matrix<S>> {
        let mut out = Matrix::zeros(0, 0);
        self.grad_into(pred, target, &mut out)?;
        Ok(out)
    }

    fn grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
    ) -> Result<()> {
        let vs = values_for(pred.len(), target, D::NAME)?;
        let n = pred.len() as f64;
        dense_pass(pred, false, vs, false, Some(out), D::term, |x, t| {
            D::slope(x, t, n)
        });
        Ok(())
    }

    fn loss_and_grad_into<S: Scalar>(
        &self,
        pred: &Matrix<S>,
        target: TargetRef<'_>,
        out: &mut Matrix<S>,
        _scratch: &mut LossScratch,
    ) -> Result<f64> {
        let vs = values_for(pred.len(), target, D::NAME)?;
        let n = pred.len() as f64;
        let slope = |x, t| D::slope(x, t, n);
        Ok(dense_pass(pred, true, vs, true, Some(out), D::term, slope))
    }
}

/// Mean squared error: `mean((pred − target)²)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MseLoss;

impl DenseLoss for MseLoss {
    const TAG: u8 = 2;
    const NAME: &'static str = "mse";

    fn term(x: f64, t: f64) -> f64 {
        let d = x - t;
        d * d
    }

    fn slope(x: f64, t: f64, n: f64) -> f64 {
        2.0 * (x - t) / n
    }
}

/// Binary cross-entropy over a single logit column, stable on both tails.
///
/// Targets are dense values in `{0, 1}` (one per element of `pred`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BceLoss;

impl DenseLoss for BceLoss {
    const TAG: u8 = 3;
    const NAME: &'static str = "bce";

    /// `max(x, 0) − x·y + ln(1 + e^{−|x|})` (log-sum-exp form).
    fn term(x: f64, y: f64) -> f64 {
        x.max(0.0) - x * y + crate::math::ln(1.0 + crate::math::exp(-x.abs()))
    }

    fn slope(x: f64, y: f64, n: f64) -> f64 {
        (crate::math::sigmoid(x) - y) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(loss: &impl Loss, pred: &Matrix<f64>, target: TargetRef<'_>) {
        let grad = loss.grad(pred, target).unwrap();
        let eps = 1e-6;
        for r in 0..pred.rows() {
            for c in 0..pred.cols() {
                let mut pp = pred.clone();
                pp.set(r, c, pred.get(r, c) + eps);
                let mut pm = pred.clone();
                pm.set(r, c, pred.get(r, c) - eps);
                let numeric = (loss.loss(&pp, target).unwrap() - loss.loss(&pm, target).unwrap())
                    / (2.0 * eps);
                let analytic = grad.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "grad({r},{c}): numeric {numeric}, analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[vec![0.2, -1.0, 2.0], vec![1.5, 1.4, -0.3]]).unwrap();
        finite_diff_check(&CrossEntropyLoss, &pred, TargetRef::Classes(&[2, 0]));
    }

    /// The three cross-entropy entry points against the row-at-a-time
    /// scalar functions they replaced (`log_softmax_at`, `softmax_in_place`):
    /// every value bit for bit, on heads from 1 to 40 classes (past the old
    /// 32-wide stack row), batches across the 64-row block seam, and logits
    /// that put `exp` lanes in its clamps, its subnormal band and NaN.
    #[test]
    fn cross_entropy_blocks_match_the_per_row_functions_bit_for_bit() {
        fn check<S: Scalar>(rows: usize, cols: usize, scale: f64) {
            let vals: Vec<f64> = (0..rows * cols)
                .map(|i| {
                    let v = ((i * 37 + 11) % 101) as f64 / 101.0 - 0.5;
                    match i % 53 {
                        0 => -720.0 * scale, // exp's subnormal band once shifted
                        1 => -1000.0 * scale,
                        2 if scale > 2.0 => f64::NAN,
                        _ => v * scale,
                    }
                })
                .collect();
            let pred = Matrix::<S>::from_f64_vec(rows, cols, &vals).unwrap();
            let classes: Vec<usize> = (0..rows).map(|r| (r * 7) % cols).collect();
            let target = TargetRef::Classes(&classes);

            let n = rows as f64;
            let mut want_total = 0.0;
            let mut want_grad = Vec::new();
            for (r, &c) in classes.iter().enumerate() {
                let mut row: Vec<f64> = pred.row(r).iter().map(|v| v.to_f64()).collect();
                want_total -= crate::math::log_softmax_at(&row, c);
                crate::math::softmax_in_place(&mut row);
                for (j, s) in row.iter().enumerate() {
                    want_grad.push(S::from_f64((s - if j == c { 1.0 } else { 0.0 }) / n));
                }
            }
            let want_loss = want_total / n;
            let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            let same_grad = |got: &Matrix<S>| {
                got.shape() == (rows, cols)
                    && got
                        .as_slice()
                        .iter()
                        .zip(&want_grad)
                        .all(|(g, w)| same(g.to_f64(), w.to_f64()))
            };

            let ce = CrossEntropyLoss;
            assert!(same(ce.loss(&pred, target).unwrap(), want_loss), "loss");
            assert!(same_grad(&ce.grad(&pred, target).unwrap()), "grad");
            // The fused entry point runs feature-major, in a scratch
            // carried over from another shape, as a model's is.
            let (mut out, mut scratch) = (Matrix::zeros(1, 1), LossScratch::default());
            let warm = Matrix::<S>::from_f64_vec(2, 3, &[0.0; 6]).unwrap();
            let warm_classes = TargetRef::Classes(&[0, 1, 0]);
            ce.loss_and_grad_into(&warm, warm_classes, &mut out, &mut scratch)
                .unwrap();
            let fused = ce
                .loss_and_grad_into(&columns(&pred), target, &mut out, &mut scratch)
                .unwrap();
            assert!(same(fused, want_loss), "fused loss {rows}x{cols}");
            assert!(same_grad(&columns(&out)), "fused grad {rows}x{cols}");
        }
        for (rows, cols) in [(1, 1), (1, 2), (5, 4), (16, 4), (64, 2), (65, 3), (130, 40)] {
            for scale in [1.0, 30.0, 1.0e6] {
                check::<f64>(rows, cols, scale);
                check::<f32>(rows, cols, scale);
            }
            check::<crate::fixed::Fix32>(rows, cols, 1.0);
        }
    }

    /// `m` transposed: a row-major batch staged feature-major, or back.
    fn columns<S: Scalar>(m: &Matrix<S>) -> Matrix<S> {
        let mut out = Matrix::zeros(0, 0);
        m.transpose_into(&mut out);
        out
    }

    /// The dense losses' fused feature-major entry point against their
    /// row-major loss and gradient, bit for bit, on widths 1–3 and batches
    /// across the 4-, 8- and 16-lane edges, NaN and ±inf logits included.
    #[test]
    fn dense_losses_fused_feature_major_matches_row_major() {
        fn check<S: Scalar>(loss: &impl Loss, rows: usize, cols: usize) {
            let vals: Vec<f64> = (0..rows * cols)
                .map(|i| match i % 29 {
                    5 => f64::NAN,
                    11 => f64::INFINITY,
                    17 => -40.0,
                    _ => ((i * 37 + 11) % 101) as f64 / 25.0 - 2.0,
                })
                .collect();
            let pred = Matrix::<S>::from_f64_vec(rows, cols, &vals).unwrap();
            let targets: Vec<f64> = (0..rows * cols)
                .map(|i| (i % 3 == 0) as u8 as f64)
                .collect();
            let target = TargetRef::Values(&targets);
            let bits = |v: f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
            let want_loss = loss.loss(&pred, target).unwrap();
            let want_grad = loss.grad(&pred, target).unwrap();
            let mut out = Matrix::zeros(0, 0);
            let got = loss
                .loss_and_grad_into(
                    &columns(&pred),
                    target,
                    &mut out,
                    &mut LossScratch::default(),
                )
                .unwrap();
            assert_eq!(bits(got), bits(want_loss), "{loss:?} loss {rows}x{cols}");
            let got: Vec<u64> = columns(&out)
                .as_slice()
                .iter()
                .map(|g| bits(g.to_f64()))
                .collect();
            let want: Vec<u64> = want_grad
                .as_slice()
                .iter()
                .map(|g| bits(g.to_f64()))
                .collect();
            assert_eq!(got, want, "{loss:?} grad {rows}x{cols}");
        }
        for rows in [1, 3, 8, 9, 17, 33] {
            for cols in [1, 2, 3] {
                check::<f64>(&MseLoss, rows, cols);
                check::<f32>(&MseLoss, rows, cols);
                check::<f64>(&BceLoss, rows, cols);
                check::<f32>(&BceLoss, rows, cols);
            }
        }
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[vec![0.5, -0.5], vec![2.0, 1.0]]).unwrap();
        let target = [1.0, 0.0, 1.5, 1.0];
        finite_diff_check(&MseLoss, &pred, TargetRef::Values(&target));
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let pred = Matrix::from_rows(&[vec![0.3], vec![-2.0], vec![4.0]]).unwrap();
        let target = [1.0, 0.0, 1.0];
        finite_diff_check(&BceLoss, &pred, TargetRef::Values(&target));
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let confident_right = Matrix::from_rows(&[vec![5.0, 0.0]]).unwrap();
        let confident_wrong = Matrix::from_rows(&[vec![0.0, 5.0]]).unwrap();
        let right = CrossEntropyLoss
            .loss(&confident_right, TargetRef::Classes(&[0]))
            .unwrap();
        let wrong = CrossEntropyLoss
            .loss(&confident_wrong, TargetRef::Classes(&[0]))
            .unwrap();
        assert!(right < 0.01);
        assert!(wrong > 4.0);
    }

    #[test]
    fn cross_entropy_stable_for_extreme_logits() {
        let pred = Matrix::<f64>::from_rows(&[vec![1000.0, -1000.0]]).unwrap();
        let l = CrossEntropyLoss
            .loss(&pred, TargetRef::Classes(&[0]))
            .unwrap();
        assert!(l.is_finite());
        assert!(l < 1e-6);
        let g = CrossEntropyLoss
            .grad(&pred, TargetRef::Classes(&[0]))
            .unwrap();
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mse_of_exact_prediction_is_zero() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let l = MseLoss.loss(&pred, TargetRef::Values(&[1.0, 2.0])).unwrap();
        assert_eq!(l, 0.0);
    }

    #[test]
    fn bce_stable_for_extreme_logits() {
        let pred = Matrix::from_rows(&[vec![500.0], vec![-500.0]]).unwrap();
        let l = BceLoss.loss(&pred, TargetRef::Values(&[1.0, 0.0])).unwrap();
        assert!(l.is_finite());
        assert!(l < 1e-6);
    }

    #[test]
    fn wrong_target_variant_is_rejected() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(CrossEntropyLoss
            .loss(&pred, TargetRef::Values(&[1.0, 0.0]))
            .is_err());
        assert!(MseLoss.loss(&pred, TargetRef::Classes(&[0])).is_err());
    }

    #[test]
    fn class_out_of_range_is_rejected() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(CrossEntropyLoss
            .loss(&pred, TargetRef::Classes(&[2]))
            .is_err());
    }

    #[test]
    fn label_count_mismatch_is_rejected() {
        let pred = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(CrossEntropyLoss
            .loss(&pred, TargetRef::Classes(&[0]))
            .is_err());
        assert!(MseLoss.loss(&pred, TargetRef::Values(&[0.0])).is_err());
    }

    #[test]
    fn tags_are_distinct() {
        assert_ne!(CrossEntropyLoss.tag(), MseLoss.tag());
        assert_ne!(MseLoss.tag(), BceLoss.tag());
    }
}
