//! Post-training int8 quantization (paper §3.1).
//!
//! "One way to represent matrices compactly is using quantization.
//! Quantization can reduce both computational and memory overheads, but
//! often reduces accuracy." — the "accuracy vs. CPU/memory" trade-off §3.1
//! says KML lets users make.
//!
//! One scheme, the serving-tier **Q8 engine** ([`Q8Engine`]):
//! per-output-row *symmetric* scales (no zero point, so accumulation is a
//! pure `i32` dot product with no correction term), weights stored
//! transposed so each output neuron reads a contiguous `i8` row, and a
//! piecewise-linear sigmoid. This is the bounded-error fast path
//! `Model::enable_q8` routes inference through for fleet serving; its
//! error budget is documented on [`Q8Engine`] and enforced by the
//! decision-agreement gate in the fleet tests (DESIGN §10 explains why
//! the serving tier accepts bounded error while the kernel closed
//! loops stay bit-exact).

use crate::layers::LayerKind;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::{KmlError, Result};

/// Knot count for the piecewise-linear sigmoid: 257 knots over `[-8, 8]`
/// at spacing `h = 1/16`.
pub(crate) const Q8_SIGMOID_KNOTS: usize = 257;

/// Documented worst-case absolute error of [`q8_sigmoid`] against
/// [`crate::math::sigmoid`]: the linear-interpolation error inside
/// `[-8, 8]` is at most `h²/8 · max|σ''| < 5e-5`, and the saturated tails
/// clamp to `σ(±8)`, off by at most `σ(-8) ≈ 3.4e-4`. Enforced by test.
pub const Q8_SIGMOID_MAX_ERR: f32 = 4.0e-4;

fn q8_sigmoid_table() -> &'static [f32; Q8_SIGMOID_KNOTS] {
    static TABLE: std::sync::OnceLock<[f32; Q8_SIGMOID_KNOTS]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0f32; Q8_SIGMOID_KNOTS];
        for (i, v) in t.iter_mut().enumerate() {
            *v = crate::math::sigmoid(-8.0 + i as f64 / 16.0) as f32;
        }
        t
    })
}

/// Piecewise-linear sigmoid used by the Q8 serving engine: 257 knots of
/// [`crate::math::sigmoid`] over `[-8, 8]`, linear interpolation between
/// knots, saturation to the boundary knots outside. Max absolute error
/// [`Q8_SIGMOID_MAX_ERR`].
#[inline]
pub fn q8_sigmoid(x: f32) -> f32 {
    let table = q8_sigmoid_table();
    let t = (x + 8.0) * 16.0;
    if t <= 0.0 {
        table[0]
    } else if t >= (Q8_SIGMOID_KNOTS - 1) as f32 {
        table[Q8_SIGMOID_KNOTS - 1]
    } else {
        let idx = t as usize;
        let frac = t - idx as f32;
        let k0 = table[idx];
        table[idx] + (table[idx + 1] - k0) * frac
    }
}

/// An int8 linear layer with **per-output-row symmetric** scales.
///
/// Weights are stored transposed relative to [`crate::layers::Linear`]
/// (`out_dim` rows of `in_dim` contiguous `i8`s, one row per output
/// neuron) with one scale per row: `sw[o] = maxabs(W[:,o]) / 127`,
/// `wq = round_ties_even(w / sw)` clamped to `[-127, 127]`. No zero
/// point: symmetric quantization makes the accumulator a pure signed dot
/// product.
///
/// Error bounds (enforced by the round-trip proptest):
/// - general: `|w − sw·wq| ≤ sw/2` per element (half a quantization step);
/// - all-zero row: `sw = 0` and the reconstruction is exactly zero;
/// - single-weight row: the extreme element maps to ±127 exactly, so its
///   relative error is at most `1/254`.
#[derive(Debug, Clone)]
pub struct Q8Linear {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// `out_dim × in_dim`, row `o` = weights of output neuron `o`.
    wq: Vec<i8>,
    /// Per-output-row scale (`0.0` exactly for all-zero rows).
    sw: Vec<f32>,
    bias: Vec<f32>,
    /// Input pairs (`⌈in_dim/2⌉`) for the vector layout below.
    pub(crate) npairs: usize,
    /// Output vectors (`⌈out_dim/8⌉`) for the vector layout below.
    pub(crate) outv8: usize,
    /// `vpmaddwd` weight layout: per input pair and 8-output vector, 16
    /// interleaved `i16` lanes (see [`crate::simd::q8`]); zero-padded.
    pub(crate) wp: Vec<i16>,
    /// `sw` zero-padded to `8·outv8` (padding lanes compute `0·acc`).
    pub(crate) swp: Vec<f32>,
    /// `bias` zero-padded to `8·outv8`.
    pub(crate) biasp: Vec<f32>,
}

impl Q8Linear {
    /// Quantizes a trained linear layer (`weights: in×out`, `bias: 1×out`,
    /// any scalar type — values round-trip through `f64`).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if `in_dim` is large enough for
    /// the `i32` accumulator to overflow (`in_dim · 127² ≥ 2³¹`).
    pub fn from_params<S: Scalar>(weights: &Matrix<S>, bias: &Matrix<S>) -> Result<Q8Linear> {
        let (in_dim, out_dim) = (weights.rows(), weights.cols());
        if in_dim >= (i32::MAX as usize) / (127 * 127) {
            return Err(KmlError::InvalidConfig(format!(
                "q8: in_dim {in_dim} would overflow the i32 accumulator"
            )));
        }
        let w = weights.as_slice();
        let mut wq = vec![0i8; in_dim * out_dim];
        let mut sw = vec![0.0f32; out_dim];
        for o in 0..out_dim {
            let mut amax = 0.0f32;
            for i in 0..in_dim {
                amax = amax.max((w[i * out_dim + o].to_f64() as f32).abs());
            }
            if amax == 0.0 {
                continue; // sw[o] stays 0.0, row stays all-zero: exact.
            }
            let scale = amax / 127.0;
            sw[o] = scale;
            let inv = 1.0 / scale;
            for i in 0..in_dim {
                let v = w[i * out_dim + o].to_f64() as f32;
                wq[o * in_dim + i] = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i8;
            }
        }
        let biasf: Vec<f32> = bias.as_slice().iter().map(|b| b.to_f64() as f32).collect();

        // Pre-pack the vpmaddwd layout the AVX2 serving kernel streams
        // (cheap and small; built unconditionally so enabling Q8 on one
        // machine and serving on another never changes representation).
        let npairs = in_dim.div_ceil(2);
        let outv8 = out_dim.div_ceil(8);
        let mut wp = vec![0i16; npairs * outv8 * 16];
        for p in 0..npairs {
            for o in 0..out_dim {
                let g = (p * outv8 + o / 8) * 16 + (o % 8) * 2;
                wp[g] = wq[o * in_dim + 2 * p] as i16;
                if 2 * p + 1 < in_dim {
                    wp[g + 1] = wq[o * in_dim + 2 * p + 1] as i16;
                }
            }
        }
        let mut swp = vec![0.0f32; outv8 * 8];
        swp[..out_dim].copy_from_slice(&sw);
        let mut biasp = vec![0.0f32; outv8 * 8];
        biasp[..out_dim].copy_from_slice(&biasf);

        Ok(Q8Linear {
            in_dim,
            out_dim,
            wq,
            sw,
            bias: biasf,
            npairs,
            outv8,
            wp,
            swp,
            biasp,
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Per-output-row quantization scale.
    pub fn row_scale(&self, o: usize) -> f32 {
        self.sw[o]
    }

    /// Reconstructed weight `W[i, o] ≈ sw[o] · wq[o, i]` (for error-bound
    /// tests).
    pub fn dequantized_weight(&self, i: usize, o: usize) -> f32 {
        self.sw[o] * self.wq[o * self.in_dim + i] as f32
    }

    /// Bytes of parameter storage (i8 weights + f32 scales and biases).
    pub fn param_bytes(&self) -> usize {
        self.wq.len() + 4 * (self.sw.len() + self.bias.len())
    }

    /// `y[o] = (Σᵢ wq[o,i]·xq[i]) · (sx·sw[o]) + bias[o]` — pure `i32`
    /// accumulation, one f32 multiply-add epilogue per output. The scalar
    /// reference for the AVX2 serving GEMV in `crate::simd::q8`
    /// (activations are `i16` storage but always hold values in
    /// `[-127, 127]`).
    #[inline]
    fn forward(&self, xq: &[i16], sx: f32, out: &mut [f32]) {
        debug_assert_eq!(xq.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (o, y) in out.iter_mut().enumerate() {
            let row = &self.wq[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = 0i32;
            for (&wv, &xv) in row.iter().zip(xq) {
                acc += wv as i32 * xv as i32;
            }
            *y = acc as f32 * (sx * self.sw[o]) + self.bias[o];
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Q8EngineLayer {
    Linear(Q8Linear),
    Sigmoid,
    Relu,
}

/// The Q8 serving engine: a pre-quantized, inference-only copy of a chain
/// model's layers that [`Model::enable_q8`] routes `predict`/`infer_batch`
/// calls through.
///
/// **Number format.** Linear layers are [`Q8Linear`] (per-output-row
/// symmetric `i8`, `i32` accumulation); activations are applied in `f32`
/// between layers, with sigmoid evaluated by [`q8_sigmoid`]. Activation
/// rows are re-quantized per row with a symmetric per-tensor scale
/// `sx = maxabs(x)/127` (an all-zero row uses `sx = 1`, which quantizes —
/// and reconstructs — exactly).
///
/// **Error budget.** Per linear layer, quantization perturbs each logit by
/// at most `Σᵢ(|x̂ᵢ|·sw/2 + |ŵᵢ|·sx/2 + sx·sw/4)` (weight error times
/// activation, plus activation error times weight, plus the cross term);
/// the sigmoid adds
/// [`Q8_SIGMOID_MAX_ERR`] per lane and its slope ≤ ¼ contracts upstream
/// error. There is no bit-exactness claim — correctness is gated
/// *behaviourally*: the fleet sweep requires ≥99.5% decision agreement
/// with the f32 model and a bounded max logit error (see
/// `kml-fleet`'s `q8_agreement` test and DESIGN §10).
///
/// Supported layers: `Linear`, `Sigmoid`, `Relu`. `Tanh`/`Softmax` chains
/// are rejected at build time (the fleet topologies never use them; the
/// f32 path remains available).
#[derive(Debug, Clone)]
pub struct Q8Engine {
    layers: Vec<Q8EngineLayer>,
    input_dim: usize,
    output_dim: usize,
    // The working buffers hold the widest layer width rounded up to the
    // 8-lane boundary (zero-alloc steady state), and the slice
    // `[width..pad8(width)]` of the active buffer is kept zeroed so the
    // vector kernels can run unmasked over full lanes.
    xq: Vec<i16>,
    a: Vec<f32>,
    b: Vec<f32>,
    // Two-row staging for [`Q8Engine::infer_row_pair`]: row 0 at
    // `[0..stride]`, row 1 at `[stride..2·stride]`.
    stage: Vec<f32>,
    stride: usize,
}

/// Rounds a layer width up to the 8-lane vector boundary.
#[inline]
fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

impl Q8Engine {
    /// Builds the engine from a graph (any scalar type).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if the graph contains a layer
    /// kind the Q8 engine does not support.
    pub fn from_graph<S: Scalar>(
        graph: &crate::graph::Graph<S>,
        input_dim: usize,
        output_dim: usize,
    ) -> Result<Q8Engine> {
        let mut layers = Vec::new();
        let mut width = input_dim.max(output_dim);
        for layer in graph.layers() {
            match layer.kind() {
                LayerKind::Linear => {
                    let params = layer.params();
                    let q = Q8Linear::from_params(params[0], params[1])?;
                    width = width.max(q.in_dim).max(q.out_dim);
                    layers.push(Q8EngineLayer::Linear(q));
                }
                LayerKind::Sigmoid => layers.push(Q8EngineLayer::Sigmoid),
                LayerKind::Relu => layers.push(Q8EngineLayer::Relu),
                kind @ (LayerKind::Tanh | LayerKind::Softmax) => {
                    return Err(KmlError::InvalidConfig(format!(
                        "q8: unsupported layer kind {kind}"
                    )));
                }
            }
        }
        let width_pad = pad8(width);
        // The pair path keeps both rows register-resident, which wants row
        // slots exactly two vectors apart; wider (fallback-only) engines
        // just need room for two output rows.
        let stride = width_pad.max(16);
        Ok(Q8Engine {
            layers,
            input_dim,
            output_dim,
            xq: vec![0; width_pad],
            a: vec![0.0; width_pad],
            b: vec![0.0; width_pad],
            stage: vec![0.0; 2 * stride],
            stride,
        })
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Bytes of parameter storage.
    pub fn param_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Q8EngineLayer::Linear(q) => q.param_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Per-linear-layer calibration tables: the per-output-row symmetric
    /// scales `sw[o] = maxabs(W[:,o]) / 127`, one `Vec<f32>` per linear
    /// layer in chain order. A deterministic function of the weights, so
    /// artifact formats can embed them and verify on load that a rebuilt
    /// engine reproduces the calibration the model shipped with.
    pub fn row_scale_tables(&self) -> Vec<Vec<f32>> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Q8EngineLayer::Linear(q) => Some(q.sw.clone()),
                _ => None,
            })
            .collect()
    }

    /// Runs the engine on one **already normalized** feature row and
    /// returns the `f32` logit row (borrowed from the engine's scratch).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if `row.len() != input_dim`.
    pub fn infer_row(&mut self, row: &[f64]) -> Result<&[f32]> {
        if row.len() != self.input_dim {
            return Err(KmlError::ShapeMismatch {
                op: "q8 infer",
                lhs: (1, row.len()),
                rhs: (1, self.input_dim),
            });
        }
        for (dst, &src) in self.a.iter_mut().zip(row) {
            *dst = src as f32;
        }
        for v in &mut self.a[self.input_dim..pad8(self.input_dim)] {
            *v = 0.0;
        }

        // The vector fast path runs the whole chain in one fused kernel
        // (see `crate::simd::q8`); the scalar loop below is the reference
        // implementation and the fallback on non-AVX2 hosts or under
        // KML_FORCE_SCALAR=1.
        if crate::simd::q8::infer_chain(
            &self.layers,
            &mut self.a,
            &mut self.b,
            &mut self.xq,
            self.input_dim,
        ) {
            return Ok(&self.a[..self.output_dim]);
        }

        let mut width = self.input_dim;
        // Ping-pong between the two scratch rows; `a` always holds the
        // current activations (in `[..width]`) on entry to each layer.
        for layer in &self.layers {
            match layer {
                Q8EngineLayer::Linear(q) => {
                    // Per-row symmetric activation quantization.
                    let x = &self.a[..width];
                    let mut amax = 0.0f32;
                    for &v in x {
                        amax = amax.max(v.abs());
                    }
                    let sx = if amax == 0.0 { 1.0 } else { amax / 127.0 };
                    let inv = 1.0 / sx;
                    for (dst, &v) in self.xq.iter_mut().zip(x) {
                        *dst = (v * inv).round_ties_even().clamp(-127.0, 127.0) as i16;
                    }
                    q.forward(&self.xq[..width], sx, &mut self.b[..q.out_dim]);
                    width = q.out_dim;
                    std::mem::swap(&mut self.a, &mut self.b);
                }
                Q8EngineLayer::Sigmoid => {
                    for v in &mut self.a[..width] {
                        *v = q8_sigmoid(*v);
                    }
                }
                Q8EngineLayer::Relu => {
                    for v in &mut self.a[..width] {
                        // Mirrors Scalar::relu: anything not > 0 (incl. NaN) → 0.
                        *v = if *v > 0.0 { *v } else { 0.0 };
                    }
                }
            }
        }
        debug_assert_eq!(width, self.output_dim);
        Ok(&self.a[..self.output_dim])
    }

    /// Runs **two** already-normalized rows through the engine and returns
    /// both `f32` logit rows (borrowed from the engine's scratch).
    ///
    /// On register-narrow chains (every layer ≤ 16 wide — all the fleet
    /// topologies) the rows execute software-pipelined in one fused vector
    /// kernel, overlapping their latency chains; this is how the batched
    /// serving paths ([`crate::model::Model::infer_batch_into`] /
    /// `predict_batch_into`) consume the engine. Wide chains and scalar
    /// hosts fall back to two sequential [`Q8Engine::infer_row`] passes
    /// with identical results.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if either row's length differs
    /// from `input_dim`.
    pub fn infer_row_pair(&mut self, r0: &[f64], r1: &[f64]) -> Result<(&[f32], &[f32])> {
        for row in [r0, r1] {
            if row.len() != self.input_dim {
                return Err(KmlError::ShapeMismatch {
                    op: "q8 infer",
                    lhs: (1, row.len()),
                    rhs: (1, self.input_dim),
                });
            }
        }
        let stride = self.stride;
        let pad = pad8(self.input_dim);
        for (slot, row) in [(0, r0), (stride, r1)] {
            for (dst, &src) in self.stage[slot..].iter_mut().zip(row) {
                *dst = src as f32;
            }
            for v in &mut self.stage[slot + self.input_dim..slot + pad] {
                *v = 0.0;
            }
        }
        if !crate::simd::q8::infer_chain2(&self.layers, &mut self.stage, self.input_dim, stride) {
            // Fallback: two single-row passes (shapes validated above, so
            // `infer_row` cannot fail). The stage buffer is parked aside
            // while `infer_row` borrows the engine.
            let mut stage = std::mem::take(&mut self.stage);
            for (slot, row) in [(0, r0), (stride, r1)] {
                let out = self.infer_row(row).expect("shapes validated");
                stage[slot..slot + out.len()].copy_from_slice(out);
            }
            self.stage = stage;
        }
        let (s0, s1) = self.stage.split_at(stride);
        Ok((&s0[..self.output_dim], &s1[..self.output_dim]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Normalizer};
    use crate::loss::CrossEntropyLoss;
    use crate::model::{Model, ModelBuilder};
    use crate::optimizer::Sgd;
    use crate::KmlRng;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn trained_classifier() -> (Model<f32>, Dataset) {
        let mut rng = KmlRng::seed_from_u64(9);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..300 {
            let class = rng.gen_range(0..3usize);
            let c = [(0.0, 0.0), (4.0, 1.0), (1.0, 4.0)][class];
            rows.push(vec![
                c.0 + rng.gen_range(-1.0..1.0),
                c.1 + rng.gen_range(-1.0..1.0),
            ]);
            labels.push(class);
        }
        let data = Dataset::from_rows(&rows, &labels).unwrap();
        let mut f64_model = ModelBuilder::new(2)
            .linear(10)
            .sigmoid()
            .linear(3)
            .seed(4)
            .build::<f64>()
            .unwrap();
        f64_model.set_normalizer(Normalizer::fit(data.features()).unwrap());
        let mut sgd = Sgd::new(0.3, 0.9);
        for _ in 0..120 {
            f64_model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        let bytes = crate::modelfile::encode(&f64_model).unwrap();
        (crate::modelfile::decode::<f32>(&bytes).unwrap(), data)
    }

    proptest! {
        /// Q8 round trip: every weight reconstructs within half a
        /// quantization step of its own output row (f32 weights).
        #[test]
        fn prop_q8_round_trip_bound_f32(
            vals in proptest::collection::vec(-10.0f32..10.0, 6..60),
            out_dim in 1usize..6,
        ) {
            let in_dim = vals.len() / out_dim;
            let vals = vals[..in_dim * out_dim].to_vec();
            let w = Matrix::from_vec(in_dim, out_dim, vals).unwrap();
            let bias = Matrix::<f32>::zeros(1, out_dim);
            let q = Q8Linear::from_params(&w, &bias).unwrap();
            for o in 0..out_dim {
                let half_step = q.row_scale(o) * 0.5;
                for i in 0..in_dim {
                    let orig = w.as_slice()[i * out_dim + o];
                    let back = q.dequantized_weight(i, o);
                    prop_assert!(
                        (orig - back).abs() <= half_step * (1.0 + 1e-6),
                        "({i},{o}): |{orig} - {back}| > {half_step}"
                    );
                }
            }
        }

        /// Same bound for f64 source weights (quantization happens after a
        /// cast to f32, so the bound is against the f32 image).
        #[test]
        fn prop_q8_round_trip_bound_f64(
            vals in proptest::collection::vec(-100.0f64..100.0, 6..60),
            out_dim in 1usize..6,
        ) {
            let in_dim = vals.len() / out_dim;
            let vals = vals[..in_dim * out_dim].to_vec();
            let w = Matrix::from_vec(in_dim, out_dim, vals).unwrap();
            let bias = Matrix::<f64>::zeros(1, out_dim);
            let q = Q8Linear::from_params(&w, &bias).unwrap();
            for o in 0..out_dim {
                let half_step = q.row_scale(o) * 0.5;
                for i in 0..in_dim {
                    let orig = w.as_slice()[i * out_dim + o] as f32;
                    let back = q.dequantized_weight(i, o);
                    prop_assert!(
                        (orig - back).abs() <= half_step * (1.0 + 1e-6),
                        "({i},{o}): |{orig} - {back}| > {half_step}"
                    );
                }
            }
        }
    }

    /// Degenerate scales: an all-zero output row must quantize (scale 0)
    /// and reconstruct to exact zeros, and a row whose magnitude lives in
    /// a single weight must reconstruct that weight near-exactly (the
    /// extreme code ±127 maps back with relative error ≤ 1/254).
    #[test]
    fn q8_degenerate_rows_are_exact() {
        // Column 0: all zeros. Column 1: single non-zero weight.
        let w = Matrix::from_vec(3, 2, vec![0.0f32, 0.0, 0.0, -3.75, 0.0, 0.0]).unwrap();
        let bias = Matrix::from_vec(1, 2, vec![0.5f32, -0.25]).unwrap();
        let q = Q8Linear::from_params(&w, &bias).unwrap();

        assert_eq!(q.row_scale(0), 0.0);
        for i in 0..3 {
            assert_eq!(q.dequantized_weight(i, 0), 0.0);
        }
        // Zero row still contributes its bias through the forward pass.
        let xq = [127i16, 0, 0];
        let mut out = [0.0f32; 2];
        q.forward(&xq, 1.0 / 127.0, &mut out);
        assert_eq!(out[0], 0.5);

        // The dominant weight sits exactly on code -127.
        let back = q.dequantized_weight(1, 1);
        assert!(
            ((-3.75 - back) / 3.75).abs() <= 1.0 / 254.0,
            "single-weight row error: {back}"
        );
        assert_eq!(q.dequantized_weight(0, 1), 0.0);
    }

    /// The piecewise-linear sigmoid stays inside its documented error
    /// budget against the exact scalar sigmoid, across the knot range,
    /// both saturation tails, and non-finite inputs.
    #[test]
    fn q8_sigmoid_error_within_budget() {
        let mut max_err = 0.0f32;
        for i in 0..=200_000 {
            let x = -10.0 + i as f32 * (20.0 / 200_000.0);
            let got = q8_sigmoid(x);
            let want = crate::math::sigmoid(x as f64) as f32;
            max_err = max_err.max((got - want).abs());
        }
        assert!(
            max_err <= Q8_SIGMOID_MAX_ERR,
            "max |pwl - exact| = {max_err:e} > {Q8_SIGMOID_MAX_ERR:e}"
        );
        // The tails saturate to the boundary knots σ(±8); that saturation
        // error is exactly what the budget above accounts for.
        assert!(q8_sigmoid(f32::NEG_INFINITY) <= Q8_SIGMOID_MAX_ERR);
        assert!(1.0 - q8_sigmoid(f32::INFINITY) <= Q8_SIGMOID_MAX_ERR);
        // NaN propagates, matching the exact scalar sigmoid.
        assert!(q8_sigmoid(f32::NAN).is_nan());
    }

    /// Q8 engine construction rejects layer kinds it has no integer
    /// kernel for (tanh / softmax chains).
    #[test]
    fn q8_rejects_unsupported_layers() {
        let mut tanh_model = ModelBuilder::new(2)
            .linear(4)
            .tanh()
            .linear(2)
            .build::<f32>()
            .unwrap();
        assert!(tanh_model.enable_q8().is_err());
        assert!(!tanh_model.q8_enabled());

        let mut softmax_model = ModelBuilder::new(2)
            .linear(4)
            .softmax()
            .build::<f32>()
            .unwrap();
        assert!(softmax_model.enable_q8().is_err());
    }

    /// End-to-end Q8 serving on a trained classifier: decisions agree with
    /// the exact f32 path on ≥ 99.5% of the dataset and every logit stays
    /// within a small absolute band of the exact forward pass.
    #[test]
    fn q8_model_agreement_and_logit_error() {
        let (mut model, data) = trained_classifier();
        let mut exact = Vec::new();
        let mut exact_logits = Vec::new();
        for i in 0..data.len() {
            let (f, _) = data.sample(i);
            exact.push(model.predict(f).unwrap());
            exact_logits.push(model.infer(f).unwrap());
        }

        model.enable_q8().unwrap();
        assert!(model.q8_enabled());
        let mut agree = 0usize;
        let mut max_logit_err = 0.0f64;
        for i in 0..data.len() {
            let (f, _) = data.sample(i);
            if model.predict(f).unwrap() == exact[i] {
                agree += 1;
            }
            let q = model.infer(f).unwrap();
            for (a, b) in q.iter().zip(&exact_logits[i]) {
                max_logit_err = max_logit_err.max((a - b).abs());
            }
        }
        let ratio = agree as f64 / data.len() as f64;
        assert!(ratio >= 0.995, "q8 agreement {ratio:.4} < 0.995");
        // int8 resolves ~1/127 of each tensor's range per layer; on this
        // model's logit scale that lands well under 0.2 absolute.
        assert!(max_logit_err < 0.2, "q8 max logit error {max_logit_err:e}");

        // Batched entry points route through the same engine.
        let (f0, _) = data.sample(0);
        let mut batch = f0.to_vec();
        let (f1, _) = data.sample(1);
        batch.extend_from_slice(f1);
        let mut classes = Vec::new();
        model.predict_batch_into(&batch, 2, &mut classes).unwrap();
        assert_eq!(classes.len(), 2);
        let mut single0 = model.predict(f0).unwrap();
        assert_eq!(classes[0], single0);
        single0 = model.predict(f1).unwrap();
        assert_eq!(classes[1], single0);

        model.disable_q8();
        assert!(!model.q8_enabled());
        for (i, &want) in exact.iter().enumerate() {
            let (f, _) = data.sample(i);
            assert_eq!(model.predict(f).unwrap(), want);
        }
    }

    /// Training after `enable_q8` must transparently requantize: the
    /// serving engine tracks the updated weights, not the stale ones.
    #[test]
    fn q8_engine_refreshes_after_training() {
        let (mut model, data) = trained_classifier();
        model.enable_q8().unwrap();
        let (f, _) = data.sample(0);
        let _ = model.predict(f).unwrap();

        let mut rng = KmlRng::seed_from_u64(11);
        let mut sgd = Sgd::new(0.3, 0.9);
        model
            .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
            .unwrap();

        // A freshly quantized engine over the post-training graph must
        // produce exactly the logits the (lazily refreshed) live engine
        // serves.
        let after_live: Vec<f64> = model.infer(f).unwrap();
        model.disable_q8();
        model.enable_q8().unwrap();
        let after_fresh: Vec<f64> = model.infer(f).unwrap();
        assert_eq!(after_live, after_fresh);
    }
}
