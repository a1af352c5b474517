//! Differentiable layer components (paper §2 "Layer and loss functions").
//!
//! Each layer implements forward propagation (inference) and backward
//! propagation (training); the paper's extensibility recipe — "(i) building
//! and initializing the layer, (ii) forward propagation, (iii) backward
//! propagation" — maps onto a constructor, [`Layer::forward_into`] and
//! [`Layer::backward_into`].
//! Layers hold no forward state: the backward pass is handed the forward
//! input and output it differentiates, which [`crate::graph::Graph`]'s
//! activation arena already holds. Training runs feature-major — every
//! matrix of a backward pass is `dim × batch`, the batch across the SIMD
//! lanes — and inference either way round.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::{KmlError, KmlRng, Result};

/// Discriminates layer types for model files and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Fully connected (weights + bias).
    Linear,
    /// Element-wise sigmoid.
    Sigmoid,
    /// Element-wise rectified linear unit.
    Relu,
    /// Element-wise hyperbolic tangent.
    Tanh,
    /// Row-wise softmax.
    Softmax,
}

impl LayerKind {
    /// Stable numeric tag used in the KML model-file format.
    pub fn tag(self) -> u8 {
        match self {
            LayerKind::Linear => 1,
            LayerKind::Sigmoid => 2,
            LayerKind::Relu => 3,
            LayerKind::Tanh => 4,
            LayerKind::Softmax => 5,
        }
    }

    /// Inverse of [`LayerKind::tag`].
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadModelFile`] for unknown tags.
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            1 => LayerKind::Linear,
            2 => LayerKind::Sigmoid,
            3 => LayerKind::Relu,
            4 => LayerKind::Tanh,
            5 => LayerKind::Softmax,
            other => return Err(KmlError::BadModelFile(format!("unknown layer tag {other}"))),
        })
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            LayerKind::Linear => "linear",
            LayerKind::Sigmoid => "sigmoid",
            LayerKind::Relu => "relu",
            LayerKind::Tanh => "tanh",
            LayerKind::Softmax => "softmax",
        };
        f.write_str(name)
    }
}

/// A mutable parameter together with its most recent gradient, handed to the
/// optimizer one slot at a time.
#[derive(Debug)]
pub struct ParamGrad<'a, S: Scalar> {
    /// The parameter matrix to update in place.
    pub param: &'a mut Matrix<S>,
    /// The gradient computed by the latest backward pass (same shape).
    pub grad: &'a Matrix<S>,
}

/// A differentiable component of a KML computation graph.
///
/// Both passes write into caller-provided buffers (reshaped as needed), so
/// a graph that reuses its buffers runs every pass allocation-free after
/// the first — the in-place contract [`crate::graph::Graph`] drives.
/// Implementations keep no forward state: a backward pass takes the
/// `input` and `output` of the forward pass it differentiates, so a
/// forward pass copies nothing that only training would read.
pub trait Layer<S: Scalar>: std::fmt::Debug + Send + Sync {
    /// Which kind of layer this is (drives serialization).
    fn kind(&self) -> LayerKind;

    /// Forward propagation: consumes a `batch × in_dim` activation matrix
    /// and writes the `batch × out_dim` output into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if `input` does not match the
    /// layer's expected input width.
    fn forward_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()>;

    /// [`Layer::forward_into`] over a batch staged *feature-major*: `input`
    /// is `in_dim × batch` (column `j` is row `j` of the batch) and `out`
    /// receives `out_dim × batch`. Column `j` of `out` holds, bit for bit,
    /// what `forward_into` gives for row `j`; only the layout differs, so
    /// a kernel can put the batch across its lanes. This is the pass a
    /// backward pass differentiates.
    ///
    /// # Errors
    ///
    /// As for [`Layer::forward_into`].
    fn forward_feature_major_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()>;

    /// Backward propagation through the feature-major forward pass
    /// ([`Layer::forward_feature_major_into`]) that mapped `input` to
    /// `output`: consumes `∂L/∂output` (`out_dim × batch`), updates any
    /// internal parameter gradients, and writes `∂L/∂input` (`in_dim ×
    /// batch`) into `grad_in`. Column `j` of each is sample `j`'s.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if `grad_out` does not match
    /// the forward pass's shapes.
    fn backward_into(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<()>;

    /// Backward propagation for a caller that has no use for `∂L/∂input`
    /// (the first layer of a training step): leaves the same parameter
    /// gradients [`Layer::backward_into`] would. The default runs the full
    /// pass into a throwaway buffer; `Linear` overrides it to skip the
    /// `W · dYᵀ` product.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward_into`].
    fn backward_params(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
    ) -> Result<()> {
        self.backward_into(input, output, grad_out, &mut Matrix::zeros(0, 0))
    }

    /// [`Layer::backward_into`] for a layer whose `input` is the output of
    /// a sigmoid layer: `grad_in` receives ∂L/∂(the sigmoid's input), the
    /// sigmoid's backward pass folded in — per element the operations that
    /// pass runs on its own, `g · (v · (1 − v))`. Returns `Ok(false)`,
    /// having done nothing, for a layer that cannot fold it (the default);
    /// `Linear` folds it into its `W · dYᵀ` store.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward_into`].
    fn backward_through_sigmoid(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<bool> {
        let _ = (input, output, grad_out, grad_in);
        Ok(false)
    }

    /// Bytes of staging scratch this layer keeps resident between passes
    /// (softmax's row buffer) — counted into the measured scratch
    /// footprint alongside the graph's arena.
    fn scratch_bytes(&self) -> usize {
        0
    }

    /// Visits each parameter/gradient slot, in the stable order the
    /// optimizer keys its velocities by. The default visits nothing: a
    /// layer without parameters has no slots.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`.
    fn visit_param_grads(
        &mut self,
        _f: &mut dyn FnMut(ParamGrad<'_, S>) -> Result<()>,
    ) -> Result<()> {
        Ok(())
    }

    /// Deep-copies this layer for a serving replica
    /// ([`crate::graph::Graph::clone_for_workers`]).
    fn clone_box(&self) -> Box<dyn Layer<S>>;

    /// Read-only views of the parameters, in slot order (for serialization).
    fn params(&self) -> Vec<&Matrix<S>> {
        Vec::new()
    }

    /// Overwrites parameters from slices in slot order (for deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadModelFile`] on slot-count or shape mismatch.
    fn load_params(&mut self, params: &[Matrix<S>]) -> Result<()> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(KmlError::BadModelFile(format!(
                "layer {} takes no parameters but {} were supplied",
                self.kind(),
                params.len()
            )))
        }
    }

    /// Output width given an input width (`None` if incompatible).
    fn output_dim(&self, input_dim: usize) -> Option<usize>;

    /// Bytes of parameter storage (for §4 memory accounting).
    fn param_bytes(&self) -> usize {
        self.params().iter().map(|p| p.storage_bytes()).sum()
    }
}

/// Fully connected layer: `y = x·W + b` with `W: in×out`, `b: 1×out`.
#[derive(Debug, Clone)]
pub struct Linear<S: Scalar> {
    weights: Matrix<S>,
    bias: Matrix<S>,
    grad_w: Matrix<S>,
    grad_b: Matrix<S>,
}

impl<S: Scalar> Linear<S> {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut KmlRng) -> Self {
        Linear {
            weights: Matrix::xavier_uniform(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
        }
    }

    /// Creates a layer from explicit parameters (used by model loading).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] unless `bias` is `1 × weights.cols()`.
    pub fn from_params(weights: Matrix<S>, bias: Matrix<S>) -> Result<Self> {
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(KmlError::InvalidConfig(format!(
                "bias {}x{} does not match weights {}x{}",
                bias.rows(),
                bias.cols(),
                weights.rows(),
                weights.cols()
            )));
        }
        let (in_dim, out_dim) = weights.shape();
        Ok(Linear {
            weights,
            bias,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
        })
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix<S> {
        &self.weights
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Matrix<S> {
        &self.bias
    }
}

impl<S: Scalar> Layer<S> for Linear<S> {
    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn forward_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        input.matmul_bias_into(&self.weights, Some(&self.bias), out)
    }

    fn forward_feature_major_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        // (x·W + b)ᵀ = Wᵀ·xᵀ + bᵀ, each element the same chain.
        self.weights
            .transpose_matmul_bias_into(input, Some(&self.bias), out)
    }

    fn backward_into(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<()> {
        // dW, db as below ; dXᵀ = W · dYᵀ, each element the four-chain dot
        // product over the outputs the row-major `dY · Wᵀ` took.
        self.backward_params(input, output, grad_out)?;
        self.weights.matmul_dot_into(grad_out, None, grad_in)
    }

    fn backward_through_sigmoid(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<bool> {
        self.backward_params(input, output, grad_out)?;
        self.weights
            .matmul_dot_into(grad_out, Some(input), grad_in)?;
        Ok(true)
    }

    fn backward_params(
        &mut self,
        input: &Matrix<S>,
        _output: &Matrix<S>,
        grad_out: &Matrix<S>,
    ) -> Result<()> {
        // dW = Xᵀ·dY and db = Σ dY, each chain over the batch in order,
        // read from dYᵀ where it lies.
        input.linear_grads_into(grad_out, &mut self.grad_w, &mut self.grad_b)
    }

    fn visit_param_grads(
        &mut self,
        f: &mut dyn FnMut(ParamGrad<'_, S>) -> Result<()>,
    ) -> Result<()> {
        f(ParamGrad {
            param: &mut self.weights,
            grad: &self.grad_w,
        })?;
        f(ParamGrad {
            param: &mut self.bias,
            grad: &self.grad_b,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer<S>> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Matrix<S>> {
        vec![&self.weights, &self.bias]
    }

    fn load_params(&mut self, params: &[Matrix<S>]) -> Result<()> {
        if params.len() != 2 {
            return Err(KmlError::BadModelFile(format!(
                "linear layer expects 2 parameters, got {}",
                params.len()
            )));
        }
        if params[0].shape() != self.weights.shape() || params[1].shape() != self.bias.shape() {
            return Err(KmlError::BadModelFile(
                "linear layer parameter shapes do not match".into(),
            ));
        }
        self.weights = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn output_dim(&self, input_dim: usize) -> Option<usize> {
        (input_dim == self.in_dim()).then_some(self.out_dim())
    }
}

/// Which element-wise nonlinearity an [`ActivationLayer`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Logistic sigmoid — the activation the paper's readahead model uses.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

/// Element-wise activation layer (sigmoid / ReLU / tanh).
///
/// The backward pass is one sweep over its operand: the forward output for
/// sigmoid/tanh, the forward input for ReLU.
#[derive(Debug, Clone)]
pub struct ActivationLayer<S: Scalar> {
    activation: Activation,
    _scalar: std::marker::PhantomData<S>,
}

impl<S: Scalar> ActivationLayer<S> {
    /// Creates an activation layer.
    pub fn new(activation: Activation) -> Self {
        ActivationLayer {
            activation,
            _scalar: std::marker::PhantomData,
        }
    }

    /// Which nonlinearity this layer applies.
    pub fn activation(&self) -> Activation {
        self.activation
    }
}

impl<S: Scalar> Layer<S> for ActivationLayer<S> {
    fn kind(&self) -> LayerKind {
        match self.activation {
            Activation::Sigmoid => LayerKind::Sigmoid,
            Activation::Relu => LayerKind::Relu,
            Activation::Tanh => LayerKind::Tanh,
        }
    }

    fn forward_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        match self.activation {
            Activation::Sigmoid => input.sigmoid_into(out),
            Activation::Relu => input.map_into(out, Scalar::relu),
            Activation::Tanh => input.map_into(out, Scalar::tanh),
        }
        Ok(())
    }

    fn forward_feature_major_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        // Element-wise: the layout does not matter.
        self.forward_into(input, out)
    }

    fn backward_into(
        &mut self,
        input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<()> {
        // dx = dy ⊙ f'(·), the derivative and the product in one pass:
        // per element the same operations, in the same order, as staging
        // f' in a matrix of its own and taking the Hadamard product after.
        match self.activation {
            // σ' = σ(1-σ), from the output.
            Activation::Sigmoid => grad_out.zip_with_into(output, grad_in, "hadamard", |g, v| {
                g.mul(v.mul(S::ONE.sub(v)))
            }),
            // tanh' = 1 - tanh², from the output.
            Activation::Tanh => grad_out.zip_with_into(output, grad_in, "hadamard", |g, v| {
                g.mul(S::ONE.sub(v.mul(v)))
            }),
            // relu' = 1 for x > 0 else 0, from the input.
            Activation::Relu => grad_out.zip_with_into(input, grad_in, "hadamard", |g, v| {
                g.mul(if v > S::ZERO { S::ONE } else { S::ZERO })
            }),
        }
    }

    fn clone_box(&self) -> Box<dyn Layer<S>> {
        Box::new(self.clone())
    }

    fn output_dim(&self, input_dim: usize) -> Option<usize> {
        Some(input_dim)
    }
}

/// Softmax over each sample's outputs (a row, or a column feature-major).
///
/// Usually the final [`crate::loss::CrossEntropyLoss`] fuses softmax with the
/// loss for numerical stability; this standalone layer exists for inference
/// pipelines that want calibrated probabilities out of the graph.
#[derive(Debug, Clone)]
pub struct SoftmaxLayer<S: Scalar> {
    row_buf: Vec<f64>,
    _scalar: std::marker::PhantomData<S>,
}

impl<S: Scalar> Default for SoftmaxLayer<S> {
    fn default() -> Self {
        SoftmaxLayer::new()
    }
}

impl<S: Scalar> SoftmaxLayer<S> {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        SoftmaxLayer {
            row_buf: Vec::new(),
            _scalar: std::marker::PhantomData,
        }
    }

    /// The softmax of each of the batch's `rows` into `out` (shaped as
    /// `input`), staged in f64 through `row_buf`; element `c` of row `r`
    /// lies at `at(r, c)` in either matrix.
    fn softmax_lines(
        &mut self,
        input: &Matrix<S>,
        out: &mut Matrix<S>,
        rows: usize,
        at: impl Fn(usize, usize) -> usize,
    ) {
        out.ensure_shape(input.rows(), input.cols());
        let width = input.len().checked_div(rows).unwrap_or(0);
        let (x, y) = (input.as_slice(), out.as_mut_slice());
        for r in 0..rows {
            self.row_buf.clear();
            self.row_buf
                .extend((0..width).map(|c| x[at(r, c)].to_f64()));
            crate::math::softmax_in_place(&mut self.row_buf);
            for (c, v) in self.row_buf.iter().enumerate() {
                y[at(r, c)] = S::from_f64(*v);
            }
        }
    }
}

impl<S: Scalar> Layer<S> for SoftmaxLayer<S> {
    fn kind(&self) -> LayerKind {
        LayerKind::Softmax
    }

    fn forward_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        let (rows, cols) = input.shape();
        self.softmax_lines(input, out, rows, |r, c| r * cols + c);
        Ok(())
    }

    fn forward_feature_major_into(&mut self, input: &Matrix<S>, out: &mut Matrix<S>) -> Result<()> {
        let rows = input.cols();
        self.softmax_lines(input, out, rows, |r, c| c * rows + r);
        Ok(())
    }

    fn backward_into(
        &mut self,
        _input: &Matrix<S>,
        output: &Matrix<S>,
        grad_out: &Matrix<S>,
        grad_in: &mut Matrix<S>,
    ) -> Result<()> {
        let s = output;
        if s.shape() != grad_out.shape() {
            return Err(KmlError::ShapeMismatch {
                op: "softmax backward",
                lhs: s.shape(),
                rhs: grad_out.shape(),
            });
        }
        // Jacobian-vector product per sample (column): dx = s ⊙ (dy − (dy·s)·1)
        let (width, m) = s.shape();
        grad_in.ensure_shape(width, m);
        let (sv, gy, gx) = (s.as_slice(), grad_out.as_slice(), grad_in.as_mut_slice());
        for j in 0..m {
            let at = |c: usize| (sv[c * m + j].to_f64(), gy[c * m + j].to_f64());
            let dot: f64 = (0..width).map(|c| at(c).0 * at(c).1).sum();
            for c in 0..width {
                let (sc, gc) = at(c);
                gx[c * m + j] = S::from_f64(sc * (gc - dot));
            }
        }
        Ok(())
    }

    fn scratch_bytes(&self) -> usize {
        self.row_buf.capacity() * std::mem::size_of::<f64>()
    }

    fn clone_box(&self) -> Box<dyn Layer<S>> {
        Box::new(self.clone())
    }

    fn output_dim(&self, input_dim: usize) -> Option<usize> {
        Some(input_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> KmlRng {
        KmlRng::seed_from_u64(42)
    }

    /// The pass a backward pass differentiates: `x` is feature-major.
    fn forward(layer: &mut dyn Layer<f64>, x: &Matrix<f64>) -> Result<Matrix<f64>> {
        let mut out = Matrix::zeros(0, 0);
        layer.forward_feature_major_into(x, &mut out).map(|()| out)
    }

    /// `samples` as a feature-major batch: one column each.
    fn columns(samples: &[Vec<f64>]) -> Matrix<f64> {
        let rows = Matrix::from_rows(samples).unwrap();
        let mut out = Matrix::zeros(0, 0);
        rows.transpose_into(&mut out);
        out
    }

    fn backward(
        layer: &mut dyn Layer<f64>,
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        grad_out: &Matrix<f64>,
    ) -> Result<Matrix<f64>> {
        let mut grad_in = Matrix::zeros(0, 0);
        layer
            .backward_into(x, y, grad_out, &mut grad_in)
            .map(|()| grad_in)
    }

    /// Numerically checks `backward` of `layer` against finite differences of
    /// a scalar objective `L = sum(forward(x) ⊙ coeff)`.
    fn check_input_gradient(layer: &mut dyn Layer<f64>, x: &Matrix<f64>) {
        let y = forward(layer, x).unwrap();
        // Arbitrary fixed coefficients make L sensitive to every output.
        let coeff = Matrix::from_f64_vec(
            y.rows(),
            y.cols(),
            &(0..y.len())
                .map(|i| 0.3 + 0.1 * i as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let grad_in = backward(layer, x, &y, &coeff).unwrap();

        let eps = 1e-6;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f64 = forward(layer, &xp)
                    .unwrap()
                    .hadamard(&coeff)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .sum();
                let lm: f64 = forward(layer, &xm)
                    .unwrap()
                    .hadamard(&coeff)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .sum();
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad_in.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "grad mismatch at ({r},{c}): numeric {numeric}, analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn linear_forward_matches_manual() {
        let w = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let mut layer = Linear::from_params(w, b).unwrap();
        let x = columns(&[vec![1.0, 1.0]]);
        let y = forward(&mut layer, &x).unwrap();
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn linear_input_gradient_is_correct() {
        let mut layer = Linear::<f64>::new(3, 4, &mut rng());
        let x = columns(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75]]);
        check_input_gradient(&mut layer, &x);
    }

    #[test]
    fn linear_weight_gradient_is_correct() {
        let mut layer = Linear::<f64>::new(2, 2, &mut rng());
        let x = columns(&[vec![0.7, -0.3], vec![0.2, 0.9]]);
        let y = forward(&mut layer, &x).unwrap();
        let coeff = Matrix::from_f64_vec(y.rows(), y.cols(), &[1.0, 0.5, -0.25, 2.0]).unwrap();
        backward(&mut layer, &x, &y, &coeff).unwrap();
        let analytic = layer.grad_w.clone();

        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..2 {
                let orig = layer.weights.get(r, c);
                layer.weights.set(r, c, orig + eps);
                let lp: f64 = forward(&mut layer, &x)
                    .unwrap()
                    .hadamard(&coeff)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .sum();
                layer.weights.set(r, c, orig - eps);
                let lm: f64 = forward(&mut layer, &x)
                    .unwrap()
                    .hadamard(&coeff)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .sum();
                layer.weights.set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - analytic.get(r, c)).abs() < 1e-5,
                    "dW({r},{c}): numeric {numeric}, analytic {}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn sigmoid_gradient_is_correct() {
        let mut layer = ActivationLayer::<f64>::new(Activation::Sigmoid);
        let x = columns(&[vec![-2.0, 0.0, 3.0], vec![0.5, -1.0, 1.5]]);
        check_input_gradient(&mut layer, &x);
    }

    #[test]
    fn tanh_gradient_is_correct() {
        let mut layer = ActivationLayer::<f64>::new(Activation::Tanh);
        let x = columns(&[vec![-1.0, 0.5, 2.0]]);
        check_input_gradient(&mut layer, &x);
    }

    #[test]
    fn relu_gradient_is_correct_away_from_kink() {
        let mut layer = ActivationLayer::<f64>::new(Activation::Relu);
        let x = columns(&[vec![-2.0, 0.5, 3.0, -0.25]]);
        check_input_gradient(&mut layer, &x);
    }

    #[test]
    fn softmax_gradient_is_correct() {
        let mut layer = SoftmaxLayer::<f64>::new();
        let x = columns(&[vec![0.1, -0.7, 1.3], vec![2.0, 0.4, -1.1]]);
        check_input_gradient(&mut layer, &x);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut layer = SoftmaxLayer::<f64>::new();
        let x = Matrix::from_rows(&[vec![5.0, 1.0, 1.0], vec![-3.0, 0.0, 3.0]]).unwrap();
        let mut y = Matrix::zeros(0, 0);
        layer.forward_into(&x, &mut y).unwrap();
        for r in 0..2 {
            let sum: f64 = y.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
        // The largest logit of each row takes most of the mass.
        assert!(y.get(0, 0) > 0.5 && y.get(1, 2) > 0.5, "{y:?}");
    }

    #[test]
    fn linear_rejects_mismatched_bias() {
        let w = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(1, 2);
        assert!(Linear::from_params(w, b).is_err());
    }

    #[test]
    fn layer_kind_tags_round_trip() {
        for kind in [
            LayerKind::Linear,
            LayerKind::Sigmoid,
            LayerKind::Relu,
            LayerKind::Tanh,
            LayerKind::Softmax,
        ] {
            assert_eq!(LayerKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(LayerKind::from_tag(99).is_err());
    }

    #[test]
    fn param_bytes_counts_weights_and_bias() {
        let layer = Linear::<f32>::new(5, 10, &mut rng());
        assert_eq!(layer.param_bytes(), (5 * 10 + 10) * 4);
    }

    #[test]
    fn load_params_validates_shape() {
        let mut layer = Linear::<f64>::new(2, 2, &mut rng());
        let bad = vec![Matrix::zeros(3, 3), Matrix::zeros(1, 3)];
        assert!(layer.load_params(&bad).is_err());
        let eye = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let good = vec![eye.clone(), Matrix::zeros(1, 2)];
        layer.load_params(&good).unwrap();
        assert_eq!(layer.weights(), &eye);
    }
}
