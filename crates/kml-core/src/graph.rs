//! The computation graph (paper §2 "Inference and training").
//!
//! KML performs inference by "creating a computation directed acyclic graph
//! (DAG) of the individual layers", traversing it forward for inference, and
//! backward in reverse topological order for reverse-mode automatic
//! differentiation. Every network the paper and this repository train or
//! deploy is a chain of single-input layers, so a chain is the one shape
//! [`Graph`] holds: layer `i` feeds layer `i + 1`, the last layer pushed is
//! the output, and back-propagation is one reverse scan.

use crate::layers::{Layer, LayerKind, ParamGrad};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::scratch::ScratchArena;
use crate::{KmlError, Result};

/// A chain of single-input layers with reverse-mode autodiff.
///
/// # Example
///
/// ```
/// use kml_core::graph::Graph;
/// use kml_core::layers::{Activation, ActivationLayer, Linear};
/// use kml_core::matrix::Matrix;
/// use kml_core::{KmlRng, prelude::SeedableRng};
///
/// # fn main() -> kml_core::Result<()> {
/// let mut rng = KmlRng::seed_from_u64(1);
/// let mut g: Graph<f64> = Graph::new();
/// g.push(Box::new(Linear::new(3, 4, &mut rng)));
/// g.push(Box::new(ActivationLayer::new(Activation::Sigmoid)));
/// let y = g.forward_in_place(&Matrix::row_vector(&[1.0, 2.0, 3.0]))?;
/// assert_eq!(y.shape(), (1, 4));
/// # Ok(())
/// # }
/// ```
pub struct Graph<S: Scalar> {
    layers: Vec<Box<dyn Layer<S>>>,
    /// Per-layer activation buffers (slot `i` holds layer `i`'s output),
    /// sized on the first forward pass and reused allocation-free after.
    acts: ScratchArena<S>,
    /// Per-layer gradient buffers: slot `i` holds ∂L/∂(layer `i`'s
    /// output), slot `n` the graph-input gradient.
    grads: ScratchArena<S>,
}

impl<S: Scalar> std::fmt::Debug for Graph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<_> = self.layers.iter().map(|l| l.kind()).collect();
        f.debug_struct("Graph").field("layers", &kinds).finish()
    }
}

impl<S: Scalar> Graph<S> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            layers: Vec::new(),
            acts: ScratchArena::new(),
            grads: ScratchArena::new(),
        }
    }

    /// Appends `layer`, fed by the previous layer's output (or by the graph
    /// input, if it is the first). The last layer pushed is the output.
    pub fn push(&mut self, layer: Box<dyn Layer<S>>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer count, or the error every pass returns on an empty graph.
    fn nonempty_len(&self) -> Result<usize> {
        match self.layers.len() {
            0 => Err(KmlError::InvalidConfig("graph has no layers".into())),
            n => Ok(n),
        }
    }

    /// Forward propagation: feeds `input` to the first layer through
    /// arena-backed activation buffers and returns the last layer's
    /// activation. After a warm-up pass with a given batch shape,
    /// subsequent calls perform **zero heap allocations**; the returned
    /// reference points into the arena slot of the last layer.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if the graph is empty, plus any
    /// shape error from the layers.
    pub fn forward_in_place(&mut self, input: &Matrix<S>) -> Result<&Matrix<S>> {
        self.forward(input, false)
    }

    /// The forward scan. With `feature_major`, over a batch staged
    /// feature-major (`input` is `input_dim × batch`; see
    /// [`Layer::forward_feature_major_into`]): the output is `output_dim ×
    /// batch`, column `j` bit-identical to row `j` of the row-major pass.
    /// That form is the one the backward pass differentiates; it stays
    /// inside the crate, whose callers are the batched inference core and
    /// the training step.
    pub(crate) fn forward(&mut self, input: &Matrix<S>, feature_major: bool) -> Result<&Matrix<S>> {
        let n = self.nonempty_len()?;
        self.acts.ensure_slots(n);
        for i in 0..n {
            let (fed, out) = match i {
                0 => (input, self.acts.slot_mut(0)),
                _ => self.acts.read_write_pair(i - 1, i),
            };
            let layer = &mut self.layers[i];
            if feature_major {
                layer.forward_feature_major_into(fed, out)?;
            } else {
                layer.forward_into(fed, out)?;
            }
        }
        self.acts.refresh_high_water();
        Ok(self.acts.slot(n - 1))
    }

    /// Backward propagation for a training step, from `dy` (∂L/∂output of
    /// the graph, `output_dim × batch`) through the last forward pass,
    /// which was feature-major and whose `input` the caller passes again
    /// (every other layer's operands are the activation arena's slots),
    /// and through arena-backed gradient buffers — allocation-free in
    /// steady state, like [`Graph::forward_in_place`]. Parameter gradients
    /// are left inside the layers for the optimizer. The first layer is
    /// asked for them alone ([`Layer::backward_params`]): ∂L/∂input of the
    /// graph, the widest product of the pass, is never formed.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if the graph is empty or has not
    /// run forward yet, and [`KmlError::ShapeMismatch`] if `input` or `dy`
    /// does not match that forward pass.
    pub(crate) fn backward_params_in_place(
        &mut self,
        input: &Matrix<S>,
        dy: &Matrix<S>,
    ) -> Result<()> {
        self.backward_scan(input, dy, false)
    }

    /// The reverse scan; `input_grad` says whether the first layer also
    /// writes ∂L/∂input into slot `n` (only the tests ask). Layer `i` is
    /// handed its forward operands: activation slot `i - 1` (the graph's
    /// input `x` for the first) and slot `i`. The last layer reads `dy`
    /// where the caller holds it; slot `n − 1` stays unused. A layer fed
    /// by a sigmoid layer (other than the first) is asked to take the
    /// sigmoid's backward pass into its own ([`Layer::backward_through_sigmoid`]):
    /// if it does, it writes the sigmoid's input gradient and the sigmoid
    /// is skipped.
    fn backward_scan(&mut self, x: &Matrix<S>, dy: &Matrix<S>, input_grad: bool) -> Result<()> {
        let n = self.nonempty_len()?;
        if self.acts.len() < n {
            return Err(KmlError::InvalidConfig(
                "backward pass before any forward pass".into(),
            ));
        }
        let acts = &self.acts;
        self.grads.ensure_slots(n + 1);
        let mut i = n - 1;
        while i > 0 {
            if i >= 2 && self.layers[i - 1].kind() == LayerKind::Sigmoid {
                let (gin, gout) = if i == n - 1 {
                    (self.grads.slot_mut(i - 2), dy)
                } else {
                    self.grads.write_read_pair(i - 2, i)
                };
                let (input, output) = (acts.slot(i - 1), acts.slot(i));
                if self.layers[i].backward_through_sigmoid(input, output, gout, gin)? {
                    i -= 2;
                    continue;
                }
            }
            let (gin, gout) = if i == n - 1 {
                (self.grads.slot_mut(i - 1), dy)
            } else {
                self.grads.write_read_pair(i - 1, i)
            };
            self.layers[i].backward_into(acts.slot(i - 1), acts.slot(i), gout, gin)?;
            i -= 1;
        }
        let (gout, gin) = if n == 1 {
            (dy, self.grads.slot_mut(n))
        } else {
            self.grads.read_write_pair(0, n)
        };
        if input_grad {
            self.layers[0].backward_into(x, acts.slot(0), gout, gin)?;
        } else {
            self.layers[0].backward_params(x, acts.slot(0), gout)?;
        }
        self.grads.refresh_high_water();
        Ok(())
    }

    /// High-water mark of the forward/backward scratch arenas in bytes —
    /// the measured analogue of the paper's 676 B inference-scratch claim
    /// (compare [`crate::model::Model::inference_scratch_bytes`], which is
    /// derived analytically from the topology).
    pub fn scratch_high_water_bytes(&self) -> usize {
        self.acts.high_water_bytes() + self.grads.high_water_bytes()
    }

    /// Bytes of staging scratch held inside the layers themselves (softmax's
    /// row buffer; no layer keeps forward state).
    pub fn layer_scratch_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.scratch_bytes()).sum()
    }

    /// Visits every parameter/gradient slot, layer by layer, without
    /// building a `Vec` — the allocation-free optimizer path the training
    /// loop drives.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`.
    pub fn visit_param_grads(
        &mut self,
        f: &mut dyn FnMut(ParamGrad<'_, S>) -> Result<()>,
    ) -> Result<()> {
        for l in &mut self.layers {
            l.visit_param_grads(f)?;
        }
        Ok(())
    }

    /// Deep-copies the layers and their parameters for a serving replica
    /// (fresh arenas; see [`Layer::clone_box`]).
    pub fn clone_for_workers(&self) -> Graph<S> {
        Graph {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            acts: ScratchArena::new(),
            grads: ScratchArena::new(),
        }
    }

    /// Immutable access to the layers, input first.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer<S>> {
        self.layers.iter().map(|l| l.as_ref())
    }

    /// Mutable access to the layers, input first.
    pub fn layers_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn Layer<S>>> {
        self.layers.iter_mut()
    }

    /// Total bytes of parameter storage across all layers.
    pub fn param_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.param_bytes()).sum()
    }
}

impl<S: Scalar> Default for Graph<S> {
    fn default() -> Self {
        Graph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationLayer, Linear};
    use crate::KmlRng;
    use rand::SeedableRng;

    fn rng() -> KmlRng {
        KmlRng::seed_from_u64(11)
    }

    fn chain_graph() -> Graph<f64> {
        let mut rng = rng();
        let mut g = Graph::new();
        g.push(Box::new(Linear::new(2, 3, &mut rng)));
        g.push(Box::new(ActivationLayer::new(Activation::Sigmoid)));
        g.push(Box::new(Linear::new(3, 2, &mut rng)));
        g
    }

    #[test]
    fn chain_forward_produces_expected_shape() {
        let mut g = chain_graph();
        let y = g
            .forward_in_place(&Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.5]]).unwrap())
            .unwrap();
        assert_eq!(y.shape(), (2, 2));
    }

    #[test]
    fn backward_needs_forward_first() {
        let mut g = chain_graph();
        // Without a forward pass the arena holds no activations.
        assert!(g
            .backward_scan(&Matrix::zeros(2, 1), &Matrix::zeros(2, 1), true)
            .is_err());
    }

    #[test]
    fn passes_over_an_empty_graph_are_errors() {
        let mut g: Graph<f64> = Graph::new();
        assert!(g.forward_in_place(&Matrix::zeros(1, 2)).is_err());
        let z = Matrix::zeros(1, 2);
        assert!(g.backward_scan(&z, &z, true).is_err());
        assert!(g.backward_params_in_place(&z, &z).is_err());
    }

    /// Every parameter gradient of `g`, as bits, in slot order.
    fn grad_bits(g: &mut Graph<f64>) -> Vec<Vec<u64>> {
        let mut bits = Vec::new();
        g.visit_param_grads(&mut |pg| {
            bits.push(pg.grad.as_slice().iter().map(|v| v.to_bits()).collect());
            Ok(())
        })
        .unwrap();
        bits
    }

    /// A feature-major batch: one column per sample.
    fn columns(samples: &[Vec<f64>]) -> Matrix<f64> {
        let rows: Vec<Vec<f64>> = (0..samples[0].len())
            .map(|c| samples.iter().map(|s| s[c]).collect())
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    /// The training step's backward pass leaves exactly the `grad_w` /
    /// `grad_b` the full scan, which forms ∂L/∂input too, does.
    #[test]
    fn params_only_backward_matches_full_backward_bit_for_bit() {
        let x = columns(&[vec![0.3, -0.7], vec![1.1, 0.2], vec![-0.4, 0.9]]);
        let dy = columns(&[vec![1.0, -0.5], vec![0.25, 2.0], vec![-1.5, 0.1]]);
        let (mut full, mut params) = (chain_graph(), chain_graph());
        full.forward(&x, true).unwrap();
        params.forward(&x, true).unwrap();
        full.backward_scan(&x, &dy, true).unwrap();
        params.backward_params_in_place(&x, &dy).unwrap();
        let want = grad_bits(&mut full);
        assert_eq!(want.len(), 4);
        assert!(want.iter().flatten().any(|&b| b != 0), "gradients are live");
        assert_eq!(grad_bits(&mut params), want);
        // Before any forward pass it is the same error, not a stale result.
        assert!(chain_graph().backward_params_in_place(&x, &dy).is_err());
    }

    #[test]
    fn graph_gradient_matches_finite_difference_end_to_end() {
        let mut g = chain_graph();
        let x = columns(&[vec![0.4, -0.9], vec![-1.2, 0.3]]);
        let coeff = columns(&[vec![1.0, -0.5], vec![0.7, 0.2]]);
        g.forward(&x, true).unwrap();
        g.backward_scan(&x, &coeff, true).unwrap();
        let gin = g.grads.slot(g.len()).clone();

        let eps = 1e-6;
        for (r, c) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let lp: f64 = g
                .forward(&xp, true)
                .unwrap()
                .hadamard(&coeff)
                .unwrap()
                .as_slice()
                .iter()
                .sum();
            let lm: f64 = g
                .forward(&xm, true)
                .unwrap()
                .hadamard(&coeff)
                .unwrap()
                .as_slice()
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gin.get(r, c)).abs() < 1e-5,
                "input grad ({r}, {c}): numeric {numeric}, analytic {}",
                gin.get(r, c)
            );
        }
    }

    #[test]
    fn param_grads_cover_all_linear_slots() {
        let mut g = chain_graph();
        let ones = columns(&[vec![1.0, 1.0]]);
        g.forward(&ones, true).unwrap();
        g.backward_scan(&ones, &ones, true).unwrap();
        // Two linear layers × (weights, bias) = 4 slots.
        assert_eq!(grad_bits(&mut g).len(), 4);
    }

    #[test]
    fn param_bytes_sums_layers() {
        let g = chain_graph();
        // (2*3 + 3) + (3*2 + 2) = 17 f64 params.
        assert_eq!(g.param_bytes(), 17 * 8);
    }
}
