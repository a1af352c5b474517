//! High-level sequential models (the chain graphs KML's prototype trains).
//!
//! [`ModelBuilder`] assembles the chain, [`Model`] trains and infers. The
//! readahead classifier of §4 — "three linear layers ... connected with
//! sigmoid activation functions" trained with cross-entropy + SGD — is built
//! with [`ModelBuilder::readahead_paper_topology`].
//!
//! Memory accounting mirrors §4's reporting: [`Model::param_bytes`] is the
//! persistent footprint ("3,916 bytes of dynamic memory to initialize") and
//! [`Model::inference_scratch_bytes`] the transient per-inference usage
//! ("another 676 bytes ... while inferencing").

use crate::dataset::{Dataset, Normalizer};
use crate::graph::Graph;
use crate::layers::{Activation, ActivationLayer, LayerKind, Linear, SoftmaxLayer};
use crate::loss::{Loss, LossScratch, TargetRef};
use crate::matrix::Matrix;
use crate::optimizer::Sgd;
use crate::scalar::Scalar;
use crate::{KmlError, KmlRng, Result};
use kml_platform::fpu;

/// Builder for sequential (chain) models.
///
/// # Example
///
/// ```
/// use kml_core::model::ModelBuilder;
///
/// # fn main() -> kml_core::Result<()> {
/// let model = ModelBuilder::new(5)
///     .linear(15)
///     .sigmoid()
///     .linear(10)
///     .sigmoid()
///     .linear(4)
///     .build::<f32>()?;
/// assert_eq!(model.input_dim(), 5);
/// assert_eq!(model.output_dim(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    input_dim: usize,
    specs: Vec<LayerSpec>,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerSpec {
    Linear(usize),
    Activation(Activation),
    Softmax,
}

impl ModelBuilder {
    /// Starts a model whose input has `input_dim` features.
    pub fn new(input_dim: usize) -> Self {
        ModelBuilder {
            input_dim,
            specs: Vec::new(),
            seed: 0x4b4d4c, // "KML"
        }
    }

    /// The three-linear-layer sigmoid topology of the paper's readahead
    /// classifier: `in → 15 → sigmoid → 10 → sigmoid → classes`.
    pub fn readahead_paper_topology(input_dim: usize, classes: usize) -> Self {
        ModelBuilder::new(input_dim)
            .linear(15)
            .sigmoid()
            .linear(10)
            .sigmoid()
            .linear(classes)
    }

    /// Sets the weight-initialization seed (default is fixed for
    /// reproducibility).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends a fully connected layer with `out_dim` outputs.
    pub fn linear(mut self, out_dim: usize) -> Self {
        self.specs.push(LayerSpec::Linear(out_dim));
        self
    }

    /// Appends a sigmoid activation.
    pub fn sigmoid(mut self) -> Self {
        self.specs.push(LayerSpec::Activation(Activation::Sigmoid));
        self
    }

    /// Appends a ReLU activation.
    pub fn relu(mut self) -> Self {
        self.specs.push(LayerSpec::Activation(Activation::Relu));
        self
    }

    /// Appends a tanh activation.
    pub fn tanh(mut self) -> Self {
        self.specs.push(LayerSpec::Activation(Activation::Tanh));
        self
    }

    /// Appends the named activation.
    pub fn activation(mut self, a: Activation) -> Self {
        self.specs.push(LayerSpec::Activation(a));
        self
    }

    /// Appends a softmax layer (only useful for probability outputs; the
    /// cross-entropy loss already fuses softmax during training).
    pub fn softmax(mut self) -> Self {
        self.specs.push(LayerSpec::Softmax);
        self
    }

    /// Materializes the model with Xavier-initialized weights.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if the model has no layers or no
    /// linear layer.
    pub fn build<S: Scalar>(&self) -> Result<Model<S>> {
        use rand::SeedableRng;
        if self.specs.is_empty() {
            return Err(KmlError::InvalidConfig("model has no layers".into()));
        }
        if !self.specs.iter().any(|s| matches!(s, LayerSpec::Linear(_))) {
            return Err(KmlError::InvalidConfig(
                "model needs at least one linear layer".into(),
            ));
        }
        let mut rng = KmlRng::seed_from_u64(self.seed);
        let mut graph: Graph<S> = Graph::new();
        let mut dim = self.input_dim;
        for spec in &self.specs {
            graph.push(match spec {
                LayerSpec::Linear(out) => {
                    let l = Linear::new(dim, *out, &mut rng);
                    dim = *out;
                    Box::new(l)
                }
                LayerSpec::Activation(a) => Box::new(ActivationLayer::new(*a)),
                LayerSpec::Softmax => Box::new(SoftmaxLayer::new()),
            });
        }
        Model::from_graph(graph, self.input_dim, dim, None)
    }
}

/// A trained (or trainable) sequential neural network.
///
/// The model owns an optional fitted [`Normalizer`]; when present, every
/// `predict`/`infer` call Z-scores its input first, so deployment sees the
/// exact pipeline that training saw (paper §4).
#[derive(Debug)]
pub struct Model<S: Scalar> {
    graph: Graph<S>,
    input_dim: usize,
    output_dim: usize,
    normalizer: Option<Normalizer>,
    /// Reused staging row for normalization; sized once on first inference.
    row_buf: Vec<f64>,
    /// Second staging row for the Q8 engine's row pairs.
    row_buf2: Vec<f64>,
    /// Reused input matrix every exact inference is staged into, one row
    /// or a batch — row-stacked, or feature-major from
    /// [`FEATURE_MAJOR_ROWS`] rows on: it keeps the capacity of the widest
    /// batch seen, so alternating the two never reaches the allocator.
    batch_scratch: Matrix<S>,
    /// Reused ∂L/∂pred buffer for training.
    loss_grad: Matrix<S>,
    /// Reused staging for the loss's row-wise passes (the softmax block).
    loss_scratch: LossScratch,
    /// The bounded-error int8 serving engine, when enabled
    /// ([`Model::enable_q8`]). `None` keeps every inference call on the
    /// bit-exact `S` path.
    q8: Option<crate::quant::Q8Engine>,
    /// Set when parameters may have changed since the engine was built;
    /// the next Q8 inference re-quantizes lazily.
    q8_dirty: bool,
}

impl<S: Scalar> Model<S> {
    /// Wraps an existing graph as a model (used by model-file loading).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] for an empty graph.
    pub fn from_graph(
        graph: Graph<S>,
        input_dim: usize,
        output_dim: usize,
        normalizer: Option<Normalizer>,
    ) -> Result<Self> {
        if graph.is_empty() {
            return Err(KmlError::InvalidConfig("empty graph".into()));
        }
        Ok(Model::with_graph(graph, input_dim, output_dim, normalizer))
    }

    /// A model around `graph` with empty scratch buffers and no Q8 engine.
    fn with_graph(
        graph: Graph<S>,
        input_dim: usize,
        output_dim: usize,
        normalizer: Option<Normalizer>,
    ) -> Self {
        Model {
            graph,
            input_dim,
            output_dim,
            normalizer,
            row_buf: Vec::new(),
            row_buf2: Vec::new(),
            batch_scratch: Matrix::zeros(0, 0),
            loss_grad: Matrix::zeros(0, 0),
            loss_scratch: LossScratch::default(),
            q8: None,
            q8_dirty: false,
        }
    }

    /// Builds an inference **replica**: same weights (via
    /// [`Graph::clone_for_workers`]), same normalizer, the same Q8 engine
    /// with its dirty flag — fresh scratch buffers and no optimizer state.
    ///
    /// Replica predictions are bit-identical to the original's: weights,
    /// normalizer and engine are value-equal, the forward pass is
    /// deterministic in both, and a replica taken while the engine is
    /// stale re-quantizes exactly when the original would, from the same
    /// parameters. The fleet server leans on this to fan row-chunks of one
    /// batch across pool workers without serializing on the model's
    /// scratch.
    pub fn replica(&self) -> Model<S> {
        Model {
            q8: self.q8.clone(),
            q8_dirty: self.q8_dirty,
            ..Model::with_graph(
                self.graph.clone_for_workers(),
                self.input_dim,
                self.output_dim,
                self.normalizer.clone(),
            )
        }
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width (class count for classifiers).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The underlying computation graph.
    pub fn graph(&self) -> &Graph<S> {
        &self.graph
    }

    /// Mutable access to the underlying graph (e.g. for parameter loading).
    /// Marks any enabled Q8 engine stale: it re-quantizes on the next
    /// inference, since the caller may mutate parameters through this.
    pub fn graph_mut(&mut self) -> &mut Graph<S> {
        self.q8_dirty = true;
        &mut self.graph
    }

    /// Routes inference (`predict`, `infer`, and the batch variants)
    /// through the bounded-error int8 serving engine
    /// ([`crate::quant::Q8Engine`]) instead of the bit-exact `S` path.
    /// Weights are quantized now; training through
    /// [`Model::train_batch`] (or touching [`Model::graph_mut`]) marks the
    /// engine stale and it re-quantizes lazily before the next Q8 call.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if a layer is not one the Q8
    /// engine supports (linear / sigmoid / relu).
    pub fn enable_q8(&mut self) -> Result<()> {
        self.q8 = Some(crate::quant::Q8Engine::from_graph(
            &self.graph,
            self.input_dim,
            self.output_dim,
        )?);
        self.q8_dirty = false;
        Ok(())
    }

    /// Returns inference to the bit-exact `S` path.
    pub fn disable_q8(&mut self) {
        self.q8 = None;
    }

    /// Whether inference currently routes through the Q8 engine.
    pub fn q8_enabled(&self) -> bool {
        self.q8.is_some()
    }

    /// The Q8 engine's per-linear-layer calibration tables (refreshing a
    /// stale engine first), or `None` when Q8 serving is disabled. See
    /// [`crate::quant::Q8Engine::row_scale_tables`].
    ///
    /// # Errors
    ///
    /// Propagates a failed lazy re-quantization.
    pub fn q8_calibration(&mut self) -> Result<Option<Vec<Vec<f32>>>> {
        self.q8_refresh()?;
        Ok(self.q8.as_ref().map(|e| e.row_scale_tables()))
    }

    /// Rebuilds a stale Q8 engine (post-training lazy re-quantization).
    fn q8_refresh(&mut self) -> Result<()> {
        if self.q8_dirty && self.q8.is_some() {
            self.q8 = Some(crate::quant::Q8Engine::from_graph(
                &self.graph,
                self.input_dim,
                self.output_dim,
            )?);
        }
        self.q8_dirty = false;
        Ok(())
    }

    /// Attaches a fitted normalizer applied before every forward pass.
    pub fn set_normalizer(&mut self, n: Normalizer) {
        self.normalizer = Some(n);
    }

    /// The attached normalizer, if any.
    pub fn normalizer(&self) -> Option<&Normalizer> {
        self.normalizer.as_ref()
    }

    /// Raw parameter storage in bytes (weights + biases only).
    pub fn param_bytes(&self) -> usize {
        self.graph.param_bytes()
    }

    /// Total dynamic memory the initialized model occupies: parameters,
    /// their gradient buffers (in-kernel training keeps them resident),
    /// per-layer structures, graph bookkeeping, and the normalizer — the
    /// quantity the paper reports as "3,916 bytes of dynamic memory to
    /// initialize the model" (§4).
    pub fn init_memory_bytes(&self) -> usize {
        let params_and_grads = 2 * self.graph.param_bytes();
        let layer_structs = self.graph.len() * 96; // node + layer struct footprint
        let normalizer = self
            .normalizer
            .as_ref()
            .map_or(0, |n| 2 * n.feature_dim() * std::mem::size_of::<f64>());
        params_and_grads + layer_structs + normalizer + std::mem::size_of::<Self>()
    }

    /// Transient memory used by a single-row inference: the sum of every
    /// intermediate activation row produced while traversing the graph
    /// (§4 "temporarily used ... while inferencing" analogue).
    pub fn inference_scratch_bytes(&self) -> usize {
        let mut dim = self.input_dim;
        let mut total = 0;
        for layer in self.graph.layers() {
            if let Some(out) = layer.output_dim(dim) {
                total += out * S::BYTES;
                dim = out;
            }
        }
        total
    }

    /// *Measured* scratch footprint: high-water mark of the graph's
    /// activation/gradient arenas plus the staging buffers inside the
    /// layers, observed over every pass since construction. Zero until the
    /// first forward; after single-row inference only, this is the empirical
    /// counterpart of [`Model::inference_scratch_bytes`].
    pub fn measured_scratch_bytes(&self) -> usize {
        self.graph.scratch_high_water_bytes() + self.graph.layer_scratch_bytes()
    }

    /// Full inference pipeline for one feature vector: normalize (if a
    /// normalizer is attached), forward, return the raw output row.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if `features.len() != input_dim`.
    pub fn infer(&mut self, features: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.infer_into(features, &mut out)?;
        Ok(out)
    }

    /// [`Model::infer`] into a caller-provided buffer. Zero heap allocations
    /// in steady state: once `out` has capacity for `output_dim` values (one
    /// warm-up call), repeated calls never touch the allocator — this is the
    /// form the kernel-resident closed loop uses per I/O event.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::infer`].
    pub fn infer_into(&mut self, features: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.run("infer", features, 1, Sink::Values(out))
    }

    /// Predicted class for one feature vector (argmax of [`Model::infer`]).
    /// Allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::infer`].
    pub fn predict(&mut self, features: &[f64]) -> Result<usize> {
        let mut class = 0;
        self.run("infer", features, 1, Sink::Class(&mut class))?;
        Ok(class)
    }

    /// Batched [`Model::infer_into`]: `features` holds `rows` feature
    /// vectors row-stacked (`rows × input_dim` values); `out` receives the
    /// `rows × output_dim` raw outputs, row-stacked. One forward pass for
    /// the whole batch, bit-identical to `rows` one-row calls (see
    /// [`Model::forward_rows`] for the argument).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if
    /// `features.len() != rows * input_dim`.
    pub fn infer_batch_into(
        &mut self,
        features: &[f64],
        rows: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.run("infer_batch", features, rows, Sink::Values(out))
    }

    /// Batched [`Model::predict`]: argmax per row of a batched forward
    /// pass. `classes` receives one class per input row.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::infer_batch_into`].
    pub fn predict_batch_into(
        &mut self,
        features: &[f64],
        rows: usize,
        classes: &mut Vec<usize>,
    ) -> Result<()> {
        self.run("predict_batch", features, rows, Sink::Classes(classes))
    }

    /// The one inference core behind every entry point above — a single
    /// row is a one-row batch. Checks the shape before anything else (a
    /// zero-row batch included: `features` holds `rows × input_dim`
    /// values), then runs the exact forward pass or the Q8 engine and
    /// hands each output row to `sink` where it lies, without a copy.
    fn run(
        &mut self,
        op: &'static str,
        features: &[f64],
        rows: usize,
        mut sink: Sink<'_>,
    ) -> Result<()> {
        if features.len() != rows * self.input_dim {
            return Err(KmlError::ShapeMismatch {
                op,
                lhs: (rows, features.len().checked_div(rows).unwrap_or(0)),
                rhs: (rows, self.input_dim),
            });
        }
        sink.clear();
        if rows == 0 {
            return Ok(());
        }
        let _fpu = (S::USES_FPU || self.q8.is_some()).then(fpu::FpuGuard::enter);
        if self.q8.is_some() {
            return self.run_q8(features, rows, &mut sink);
        }
        let (width, feature_major) = (self.output_dim, rows >= FEATURE_MAJOR_ROWS);
        let v = self.forward_rows(features, rows, feature_major)?.as_slice();
        if feature_major {
            sink.put_columns(v, rows);
        } else {
            for r in 0..rows {
                sink.put(&v[r * width..(r + 1) * width]);
            }
        }
        Ok(())
    }

    /// The exact pass: normalize each of the `rows` row-stacked feature
    /// vectors into the reused staging matrix and run **one** forward pass
    /// over all of them — a batch of [`FEATURE_MAJOR_ROWS`] or more staged
    /// feature-major (`input_dim × rows`, `feature_major` set), so every
    /// layer puts the batch across the SIMD lanes; a smaller one, a single
    /// row included, row-major. The output is `output_dim × rows` or
    /// `rows × output_dim` to match.
    ///
    /// Row `i` of the output does not depend on how many rows share the
    /// pass nor on the layout: normalization is per-row `f64` arithmetic,
    /// every linear output element is one chain from zero over `k`
    /// ascending with its bias added last — in either orientation, where
    /// the feature-major product only swaps the operands of each IEEE
    /// product — and activations are per-element maps or, for softmax,
    /// per-row ones, so row `i` is computed in the same operation order as
    /// a one-row pass. `tests/batch_parity.rs` holds the property proof
    /// across scalar types, batch sizes and both layouts.
    fn forward_rows(
        &mut self,
        features: &[f64],
        rows: usize,
        feature_major: bool,
    ) -> Result<&Matrix<S>> {
        let dim = self.input_dim;
        if feature_major {
            // Feature `p` of every row into row `p`, each value normalized
            // by the same `(v − mean) / std` as `apply_row`'s.
            if let Some(n) = &self.normalizer {
                n.check_width(dim)?;
            }
            self.batch_scratch.ensure_shape(dim, rows);
            let staged = self.batch_scratch.as_mut_slice();
            for (p, line) in staged.chunks_exact_mut(rows).enumerate() {
                let column = features[p..].iter().step_by(dim);
                match &self.normalizer {
                    Some(n) => {
                        let (mean, std) = (n.means()[p], n.stds()[p]);
                        for (dst, &v) in line.iter_mut().zip(column) {
                            *dst = S::from_f64((v - mean) / std);
                        }
                    }
                    None => {
                        for (dst, &v) in line.iter_mut().zip(column) {
                            *dst = S::from_f64(v);
                        }
                    }
                }
            }
            return self.graph.forward(&self.batch_scratch, true);
        }
        self.batch_scratch.ensure_shape(rows, dim);
        if let Some(n) = &self.normalizer {
            for r in 0..rows {
                self.row_buf.clear();
                self.row_buf
                    .extend_from_slice(&features[r * dim..(r + 1) * dim]);
                n.apply_row(&mut self.row_buf)?;
                for (dst, src) in self.batch_scratch.row_mut(r).iter_mut().zip(&self.row_buf) {
                    *dst = S::from_f64(*src);
                }
            }
        } else {
            // No normalizer: one straight conversion sweep over the whole
            // row-stacked batch (same `from_f64` per element as the staged
            // route).
            for (dst, &src) in self.batch_scratch.as_mut_slice().iter_mut().zip(features) {
                *dst = S::from_f64(src);
            }
        }
        self.graph.forward_in_place(&self.batch_scratch)
    }

    /// The Q8 pass: rows go through the engine two at a time so their
    /// latency chains overlap ([`crate::quant::Q8Engine::infer_row_pair`]);
    /// an odd last row runs alone. A stale engine re-quantizes first.
    fn run_q8(&mut self, features: &[f64], rows: usize, sink: &mut Sink<'_>) -> Result<()> {
        self.q8_refresh()?;
        let dim = self.input_dim;
        let row = |r: usize| &features[r * dim..(r + 1) * dim];
        let norm = self.normalizer.as_ref();
        let engine = self.q8.as_mut().expect("q8 engine enabled");
        let mut r = 0;
        while r + 2 <= rows {
            let f0 = normalized(norm, row(r), &mut self.row_buf)?;
            let f1 = normalized(norm, row(r + 1), &mut self.row_buf2)?;
            let (l0, l1) = engine.infer_row_pair(f0, f1)?;
            sink.put(l0);
            sink.put(l1);
            r += 2;
        }
        if r < rows {
            sink.put(engine.infer_row(normalized(norm, row(r), &mut self.row_buf)?)?);
        }
        Ok(())
    }

    /// One SGD step on a mini-batch of (already normalized) rows, `batch ×
    /// input_dim`. Returns the batch loss.
    ///
    /// The batch is staged feature-major (one transpose into the reused
    /// staging matrix) and the whole step runs that way, the batch across
    /// the SIMD lanes: the forward pass, the loss, and a backward pass that
    /// stops at the first layer's parameter gradients
    /// ([`Graph::backward_params_in_place`]) — ∂L/∂input of the whole graph
    /// is nobody's operand here. Every weight comes out with the bits of a
    /// row-major step (each element keeps its operation sequence). **Zero
    /// heap allocations** in steady state, at any output width.
    ///
    /// # Errors
    ///
    /// Propagates shape/target errors.
    pub fn train_batch(
        &mut self,
        input: &Matrix<S>,
        target: TargetRef<'_>,
        loss: &impl Loss,
        sgd: &mut Sgd,
    ) -> Result<f64> {
        input.transpose_into(&mut self.batch_scratch);
        self.step(None, target, loss, sgd)
    }

    /// [`Model::train_batch`] on a batch already staged feature-major
    /// (`input_dim × batch`): a caller stepping over one batch many times
    /// stages it once.
    pub(crate) fn train_feature_major(
        &mut self,
        input: &Matrix<S>,
        target: TargetRef<'_>,
        loss: &impl Loss,
        sgd: &mut Sgd,
    ) -> Result<f64> {
        self.step(Some(input), target, loss, sgd)
    }

    /// One SGD step over `input` staged feature-major, or with `None` over
    /// the staging matrix. Returns the loss.
    fn step(
        &mut self,
        input: Option<&Matrix<S>>,
        target: TargetRef<'_>,
        loss: &impl Loss,
        sgd: &mut Sgd,
    ) -> Result<f64> {
        // Weight updates invalidate any pre-quantized Q8 serving engine.
        self.q8_dirty = true;
        let _fpu = S::USES_FPU.then(fpu::FpuGuard::enter);
        let input = input.unwrap_or(&self.batch_scratch);
        let pred = self.graph.forward(input, true)?;
        let grad = &mut self.loss_grad;
        let l = loss.loss_and_grad_into(pred, target, grad, &mut self.loss_scratch)?;
        self.graph.backward_params_in_place(input, grad)?;
        let mut slot = 0usize;
        self.graph.visit_param_grads(&mut |mut pg| {
            let res = sgd.apply(slot, &mut pg);
            slot += 1;
            res
        })?;
        Ok(l)
    }

    /// One shuffled pass over `data` with mini-batches of 16.
    /// Returns the mean batch loss. Applies the attached normalizer.
    ///
    /// Each mini-batch is staged feature-major straight from `data`,
    /// normalized as it is copied.
    ///
    /// # Errors
    ///
    /// Propagates shape/target errors.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        loss: &impl Loss,
        sgd: &mut Sgd,
        rng: &mut KmlRng,
    ) -> Result<f64> {
        use rand::seq::SliceRandom;
        const BATCH: usize = 16;
        let dim = data.feature_dim();
        if let Some(n) = &self.normalizer {
            n.check_width(dim)?;
        }
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let mut labels = Vec::with_capacity(BATCH);
        let mut total = 0.0;
        let mut batches = 0;
        for rows in order.chunks(BATCH) {
            self.batch_scratch.ensure_shape(dim, rows.len());
            let staged = self.batch_scratch.as_mut_slice();
            for (p, line) in staged.chunks_exact_mut(rows.len()).enumerate() {
                let norm = self
                    .normalizer
                    .as_ref()
                    .map(|n| (n.means()[p], n.stds()[p]));
                for (dst, &r) in line.iter_mut().zip(rows) {
                    let v = data.sample(r).0[p];
                    *dst = S::from_f64(norm.map_or(v, |(mean, std)| (v - mean) / std));
                }
            }
            labels.clear();
            labels.extend(rows.iter().map(|&r| data.labels()[r]));
            total += self.step(None, TargetRef::Classes(&labels), loss, sgd)?;
            batches += 1;
        }
        Ok(total / batches.max(1) as f64)
    }

    /// Classification accuracy over a dataset (normalizer applied).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn accuracy(&mut self, data: &Dataset) -> Result<f64> {
        let mut correct = 0;
        for i in 0..data.len() {
            let (f, y) = data.sample(i);
            if self.predict(f)? == y {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// Layer kinds, input first (for introspection and tests).
    pub fn layer_kinds(&self) -> Vec<LayerKind> {
        self.graph.layers().map(|l| l.kind()).collect()
    }
}

/// The least batch the exact pass stages feature-major, with the batch
/// across the SIMD lanes; a smaller one stays row-major, its layers'
/// outputs across the lanes. Measured (EXPERIMENTS.md E36): from ten rows
/// on the feature-major pass is the faster on all three fleet models.
const FEATURE_MAJOR_ROWS: usize = 10;

/// Where the inference core hands each output row: its raw values
/// appended (`infer*`), its class appended (`predict_batch_into`), or the
/// one row's class (`predict`).
enum Sink<'a> {
    Values(&'a mut Vec<f64>),
    Classes(&'a mut Vec<usize>),
    Class(&'a mut usize),
}

impl Sink<'_> {
    fn clear(&mut self) {
        match self {
            Sink::Values(out) => out.clear(),
            Sink::Classes(out) => out.clear(),
            Sink::Class(_) => {}
        }
    }

    /// Takes one output row: the exact pass's `S` values or the Q8
    /// engine's `f32` logits.
    fn put<T: Scalar>(&mut self, row: &[T]) {
        self.put_by(row.len(), |i| row[i].to_f64());
    }

    /// Takes one output row of `width` values `at(i)`.
    fn put_by(&mut self, width: usize, at: impl Fn(usize) -> f64) {
        match self {
            Sink::Values(out) => out.extend((0..width).map(at)),
            Sink::Classes(out) => out.push(argmax_by(width, at)),
            Sink::Class(class) => **class = argmax_by(width, at),
        }
    }

    /// Takes every output row of a feature-major pass: `v` holds
    /// `width × rows` values, row `r`'s down column `r`. Classes are taken
    /// for 64 rows at a time, across the output rows with each row's
    /// running maximum in `top`: [`argmax_by`]'s first largest, never a
    /// NaN, without a strided walk per row.
    fn put_columns<T: Scalar>(&mut self, v: &[T], rows: usize) {
        let width = v.len() / rows;
        let Sink::Classes(out) = self else {
            for r in 0..rows {
                self.put_by(width, |i| v[i * rows + r].to_f64());
            }
            return;
        };
        if width == 0 {
            // No output to compare: every row's class is 0, as `argmax_by`'s.
            out.resize(out.len() + rows, 0);
            return;
        }
        let start = out.len();
        out.resize(start + rows, 0);
        for (c, best) in out[start..].chunks_mut(64).enumerate() {
            let len = best.len();
            let at = |i: usize| &v[i * rows + c * 64..][..len];
            let mut top = [0.0f64; 64];
            for (t, x) in top.iter_mut().zip(at(0)) {
                *t = x.to_f64();
            }
            for i in 1..width {
                for ((b, t), x) in best.iter_mut().zip(&mut top).zip(at(i)) {
                    if x.to_f64() > *t {
                        (*b, *t) = (i, x.to_f64());
                    }
                }
            }
        }
    }
}

/// Index of the first largest of `len` values `at(i)`; a NaN never wins.
fn argmax_by(len: usize, at: impl Fn(usize) -> f64) -> usize {
    let mut best = 0;
    for i in 1..len {
        if at(i) > at(best) {
            best = i;
        }
    }
    best
}

/// `row` as the Q8 engine should see it: normalized into `buf` when a
/// normalizer is attached, the caller's slice itself otherwise.
fn normalized<'a>(
    normalizer: Option<&Normalizer>,
    row: &'a [f64],
    buf: &'a mut Vec<f64>,
) -> Result<&'a [f64]> {
    let Some(n) = normalizer else {
        return Ok(row);
    };
    buf.clear();
    buf.extend_from_slice(row);
    n.apply_row(buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use rand::SeedableRng;

    /// Two interleaved Gaussian-ish blobs, linearly separable.
    fn blobs(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = KmlRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let class = rng.gen_range(0..2usize);
            let cx = if class == 0 { -1.0 } else { 1.0 };
            rows.push(vec![
                cx + rng.gen_range(-0.5..0.5),
                cx + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(class);
        }
        Dataset::from_rows(&rows, &labels).unwrap()
    }

    #[test]
    fn replica_predictions_are_bit_identical() {
        let data = blobs(200, 3);
        let mut model = ModelBuilder::new(2)
            .linear(8)
            .sigmoid()
            .linear(2)
            .seed(11)
            .build::<f32>()
            .unwrap();
        let mut sgd = Sgd::new(0.3, 0.9);
        let mut rng = KmlRng::seed_from_u64(5);
        for _ in 0..5 {
            model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        let mut replica = model.replica();
        let mut probe = Vec::new();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..64u64 {
            let x = (i as f64 / 7.0) - 4.0;
            let y = (i as f64 / 3.0) - 10.0;
            probe.extend_from_slice(&[x, y]);
            assert_eq!(
                model.predict(&[x, y]).unwrap(),
                replica.predict(&[x, y]).unwrap()
            );
            out_a.clear();
            out_b.clear();
            model.infer_into(&[x, y], &mut out_a).unwrap();
            replica.infer_into(&[x, y], &mut out_b).unwrap();
            assert_eq!(out_a, out_b, "raw outputs diverged at row {i}");
        }
        // Batched path too: one 64-row forward on each.
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        model.predict_batch_into(&probe, 64, &mut ca).unwrap();
        replica.predict_batch_into(&probe, 64, &mut cb).unwrap();
        assert_eq!(ca, cb);
    }

    #[test]
    fn q8_replica_matches_original_q8_decisions() {
        let mut model = ModelBuilder::new(2)
            .linear(8)
            .sigmoid()
            .linear(2)
            .seed(23)
            .build::<f32>()
            .unwrap();
        model.enable_q8().unwrap();
        let mut replica = model.replica();
        assert!(replica.q8_enabled(), "replica must inherit q8 serving");
        let rows: Vec<[f64; 2]> = (0..64u64)
            .map(|i| [(i as f64).sin() * 3.0, (i as f64).cos() * 3.0])
            .collect();
        for row in &rows {
            assert_eq!(model.predict(row).unwrap(), replica.predict(row).unwrap());
        }

        // A replica taken while the engine is stale (after a training
        // step) re-quantizes when the original does, to the same tables.
        let before = model.q8_calibration().unwrap();
        let input = Matrix::from_f64_vec(2, 2, &[3.0, -1.0, -2.0, 0.5]).unwrap();
        let mut sgd = Sgd::new(0.5, 0.0);
        model
            .train_batch(
                &input,
                TargetRef::Classes(&[1, 0]),
                &CrossEntropyLoss,
                &mut sgd,
            )
            .unwrap();
        let mut stale = model.replica();
        for row in &rows {
            assert_eq!(model.predict(row).unwrap(), stale.predict(row).unwrap());
        }
        let after = model.q8_calibration().unwrap();
        assert_ne!(before, after, "the training step moved the weights");
        assert_eq!(stale.q8_calibration().unwrap(), after);
    }

    #[test]
    fn builder_validates() {
        assert!(ModelBuilder::new(3).build::<f64>().is_err());
        assert!(ModelBuilder::new(3).sigmoid().build::<f64>().is_err());
        assert!(ModelBuilder::new(3).linear(2).build::<f64>().is_ok());
    }

    #[test]
    fn paper_topology_has_three_linear_layers() {
        let m = ModelBuilder::readahead_paper_topology(5, 4)
            .build::<f32>()
            .unwrap();
        let kinds = m.layer_kinds();
        assert_eq!(
            kinds,
            vec![
                LayerKind::Linear,
                LayerKind::Sigmoid,
                LayerKind::Linear,
                LayerKind::Sigmoid,
                LayerKind::Linear,
            ]
        );
        assert_eq!(m.input_dim(), 5);
        assert_eq!(m.output_dim(), 4);
    }

    #[test]
    fn paper_topology_f32_footprint_is_under_4kb() {
        // The paper reports 3,916 B of init memory for the readahead model;
        // our f32 parameter count for 5→15→10→4 is (5*15+15 + 15*10+10 +
        // 10*4+44... ) — assert the same order of magnitude (< 4 KiB).
        let m = ModelBuilder::readahead_paper_topology(5, 4)
            .build::<f32>()
            .unwrap();
        assert!(m.param_bytes() < 4096, "param bytes = {}", m.param_bytes());
        assert!(m.param_bytes() > 1000, "param bytes = {}", m.param_bytes());
        // Scratch is far smaller than the persistent footprint.
        assert!(m.inference_scratch_bytes() < 1024);
    }

    #[test]
    fn model_learns_separable_blobs() {
        let data = blobs(300, 1);
        let mut model = ModelBuilder::new(2)
            .linear(8)
            .sigmoid()
            .linear(2)
            .seed(7)
            .build::<f64>()
            .unwrap();
        let mut sgd = Sgd::new(0.5, 0.9);
        let mut rng = KmlRng::seed_from_u64(2);
        let mut last = f64::INFINITY;
        for _ in 0..100 {
            last = model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        assert!(last < 0.2, "final loss {last}");
        assert!(model.accuracy(&data).unwrap() > 0.97);
    }

    #[test]
    fn loss_decreases_during_training() {
        let data = blobs(200, 3);
        let mut model = ModelBuilder::new(2)
            .linear(6)
            .sigmoid()
            .linear(2)
            .build::<f64>()
            .unwrap();
        let mut sgd = Sgd::new(0.3, 0.9);
        let mut rng = KmlRng::seed_from_u64(4);
        let first = model
            .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
            .unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn normalizer_is_applied_during_inference() {
        let data = Dataset::from_rows(&[vec![1000.0, 0.0], vec![1002.0, 0.0]], &[0, 1]).unwrap();
        let norm = Normalizer::fit(data.features()).unwrap();
        let mut model = ModelBuilder::new(2).linear(2).build::<f64>().unwrap();
        model.set_normalizer(norm);
        // With normalization the effective input magnitude is ~1, so outputs
        // stay modest; without it, 1000-scale inputs would dominate.
        let out = model.infer(&[1001.0, 0.0]).unwrap();
        assert!(out.iter().all(|v| v.abs() < 10.0), "outputs {out:?}");
    }

    #[test]
    fn infer_validates_dimension() {
        let mut model = ModelBuilder::new(3).linear(2).build::<f64>().unwrap();
        assert!(model.infer(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fixed_point_model_trains_on_blobs() {
        use crate::fixed::Fix32;
        let data = blobs(200, 9);
        let mut model = ModelBuilder::new(2)
            .linear(8)
            .sigmoid()
            .linear(2)
            .build::<Fix32>()
            .unwrap();
        let mut sgd = Sgd::new(0.3, 0.5);
        let mut rng = KmlRng::seed_from_u64(10);
        for _ in 0..60 {
            model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        let acc = model.accuracy(&data).unwrap();
        assert!(acc > 0.9, "fixed-point accuracy {acc}");
    }

    #[test]
    fn fpu_sections_bracket_float_inference_only() {
        use crate::fixed::Fix32;
        let mut fm = ModelBuilder::new(2).linear(2).build::<f64>().unwrap();
        let before = fpu::sections_entered();
        fm.infer(&[0.1, 0.2]).unwrap();
        assert!(
            fpu::sections_entered() > before,
            "f64 inference must enter FPU section"
        );

        let mut qm = ModelBuilder::new(2).linear(2).build::<Fix32>().unwrap();
        let before = fpu::sections_entered();
        qm.infer(&[0.0, 0.0]).unwrap();
        assert_eq!(
            fpu::sections_entered(),
            before,
            "fixed-point forward must not enter an FPU section"
        );
    }
}
