//! The computation DAG (paper §2 "Inference and training").
//!
//! KML performs inference by "creating a computation directed acyclic graph
//! (DAG) of the individual layers", traversing it forward for inference, and
//! backward in reverse topological order for reverse-mode automatic
//! differentiation. The paper's prototype trains chain graphs only; this
//! implementation additionally supports **fan-out** (one layer's output
//! consumed by several downstream layers, gradients summed on the way back),
//! which is the first step toward the arbitrary-DAG support the paper lists
//! as future work. Multi-*input* layers (joins) remain unsupported.

use crate::layers::{Layer, ParamGrad};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::scratch::ScratchArena;
use crate::{KmlError, Result};

/// Identifier of a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

struct Node<S: Scalar> {
    layer: Box<dyn Layer<S>>,
    input: Option<NodeId>,
}

impl<S: Scalar> std::fmt::Debug for Node<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.layer.kind())
            .field("input", &self.input)
            .finish()
    }
}

/// A computation DAG of single-input layers with fan-out support.
///
/// Nodes are appended in topological order by construction: a node's input
/// must already exist, so forward traversal is a simple scan and backward a
/// reverse scan with gradient accumulation at fan-out points.
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
/// let a = g.add_source(Box::new(Linear::new(3, 4, &mut rng)))?;
/// let b = g.add_node(Box::new(ActivationLayer::new(Activation::Sigmoid)), a)?;
/// g.set_output(b)?;
/// let y = g.forward(&Matrix::row_vector(&[1.0, 2.0, 3.0]))?;
/// assert_eq!(y.shape(), (1, 4));
/// # Ok(())
/// # }
/// ```
pub struct Graph<S: Scalar> {
    nodes: Vec<Node<S>>,
    output: Option<NodeId>,
    /// Per-node activation buffers (slot `i` holds node `i`'s output),
    /// sized on the first forward pass and reused allocation-free after.
    acts: ScratchArena<S>,
    /// Per-node gradient buffers: slots `0..n` mirror the nodes, slot `n`
    /// holds the graph-input gradient, slot `n+1` stages fan-out sums.
    grads: ScratchArena<S>,
    /// Which gradient slots were produced during the current backward scan.
    grad_set: Vec<bool>,
}

impl<S: Scalar> std::fmt::Debug for Graph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes)
            .field("output", &self.output)
            .finish()
    }
}

impl<S: Scalar> Graph<S> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            output: None,
            acts: ScratchArena::new(),
            grads: ScratchArena::new(),
            grad_set: Vec::new(),
        }
    }

    /// Adds a node fed directly by the graph input.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if a source already exists —
    /// the graph has a single external input, like KML's chain prototype.
    pub fn add_source(&mut self, layer: Box<dyn Layer<S>>) -> Result<NodeId> {
        if self.nodes.iter().any(|n| n.input.is_none()) {
            return Err(KmlError::InvalidConfig(
                "graph already has a source node".into(),
            ));
        }
        self.nodes.push(Node { layer, input: None });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Adds a node consuming the output of `input`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if `input` does not exist.
    pub fn add_node(&mut self, layer: Box<dyn Layer<S>>, input: NodeId) -> Result<NodeId> {
        if input.0 >= self.nodes.len() {
            return Err(KmlError::InvalidConfig(format!(
                "input node {} does not exist",
                input.0
            )));
        }
        self.nodes.push(Node {
            layer,
            input: Some(input),
        });
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Declares which node's output the graph returns.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if `node` does not exist.
    pub fn set_output(&mut self, node: NodeId) -> Result<()> {
        if node.0 >= self.nodes.len() {
            return Err(KmlError::InvalidConfig(format!(
                "output node {} does not exist",
                node.0
            )));
        }
        self.output = Some(node);
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the graph is a pure chain (every node consumed exactly once) —
    /// the only shape the paper's prototype trains.
    pub fn is_chain(&self) -> bool {
        let mut consumers = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            if let Some(i) = n.input {
                consumers[i.0] += 1;
            }
        }
        // Exactly one sink (the output) and no fan-out.
        consumers.iter().filter(|&&c| c == 0).count() == 1 && consumers.iter().all(|&c| c <= 1)
    }

    /// Forward propagation: feeds `input` to the source node and returns the
    /// output node's activation (cloned out of the internal scratch arena).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if the graph is empty or no output
    /// was declared, plus any shape error from the layers.
    pub fn forward(&mut self, input: &Matrix<S>) -> Result<Matrix<S>> {
        Ok(self.forward_in_place(input)?.clone())
    }

    /// Forward propagation through arena-backed activation buffers. After a
    /// warm-up pass with a given batch shape, subsequent calls perform
    /// **zero heap allocations**; the returned reference points into the
    /// arena slot of the output node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::forward`].
    pub fn forward_in_place(&mut self, input: &Matrix<S>) -> Result<&Matrix<S>> {
        let output = self
            .output
            .ok_or_else(|| KmlError::InvalidConfig("graph has no output node declared".into()))?;
        self.acts.ensure_slots(self.nodes.len());
        // Nodes are appended in topological order, so a plain scan visits
        // every producer before its consumers (src slot index < node index).
        for i in 0..self.nodes.len() {
            match self.nodes[i].input {
                None => {
                    let out = self.acts.slot_mut(i);
                    self.nodes[i].layer.forward_into(input, out)?;
                }
                Some(src) => {
                    let (fed, out) = self.acts.read_write_pair(src.0, i);
                    self.nodes[i].layer.forward_into(fed, out)?;
                }
            }
        }
        self.acts.refresh_high_water();
        Ok(self.acts.slot(output.0))
    }

    /// Backward propagation from `grad_output` (∂L/∂output of the graph);
    /// parameter gradients are left inside the layers for the optimizer.
    /// Returns ∂L/∂input of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] if called before [`Graph::forward`].
    pub fn backward(&mut self, grad_output: &Matrix<S>) -> Result<Matrix<S>> {
        Ok(self.backward_in_place(grad_output)?.clone())
    }

    /// Backward propagation through arena-backed gradient buffers —
    /// allocation-free in steady state, like [`Graph::forward_in_place`].
    /// The returned reference points into the arena slot holding ∂L/∂input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::backward`].
    pub fn backward_in_place(&mut self, grad_output: &Matrix<S>) -> Result<&Matrix<S>> {
        self.backward_scan(grad_output, true)?;
        Ok(self.grads.slot(self.nodes.len()))
    }

    /// [`Graph::backward_in_place`] for a caller that only wants the
    /// parameter gradients (a training step): every layer's gradients come
    /// out bit-identical, but the source node is asked for them alone
    /// ([`Layer::backward_params`]) — ∂L/∂input of the graph, the widest
    /// product of the pass, is never formed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::backward`].
    pub fn backward_params_in_place(&mut self, grad_output: &Matrix<S>) -> Result<()> {
        self.backward_scan(grad_output, false)
    }

    /// The reverse scan both backward entry points share; `input_grad`
    /// says whether the source node also writes ∂L/∂input into slot `n`.
    fn backward_scan(&mut self, grad_output: &Matrix<S>, input_grad: bool) -> Result<()> {
        let output = self
            .output
            .ok_or_else(|| KmlError::InvalidConfig("graph has no output node declared".into()))?;
        let n = self.nodes.len();
        self.grads.ensure_slots(n + 2);
        self.grad_set.clear();
        self.grad_set.resize(n + 1, false);
        self.grads.slot_mut(output.0).copy_from(grad_output);
        self.grad_set[output.0] = true;

        for i in (0..n).rev() {
            if !self.grad_set[i] {
                continue; // node not on a path to the output
            }
            match self.nodes[i].input {
                // Fan-out point: a consumer already wrote this producer's
                // slot, so stage into the spare slot and accumulate.
                Some(src) if self.grad_set[src.0] => {
                    let (gout, staged) = self.grads.read_write_pair(i, n + 1);
                    self.nodes[i].layer.backward_into(gout, staged)?;
                    let (acc, staged) = self.grads.write_read_pair(src.0, n + 1);
                    acc.axpy_in_place(staged, S::ONE)?;
                }
                Some(src) => {
                    let (gin, gout) = self.grads.write_read_pair(src.0, i);
                    self.nodes[i].layer.backward_into(gout, gin)?;
                    self.grad_set[src.0] = true;
                }
                // The single source node writes the graph-input gradient,
                // when anyone asked for it.
                None => {
                    if input_grad {
                        let (gout, gin) = self.grads.read_write_pair(i, n);
                        self.nodes[i].layer.backward_into(gout, gin)?;
                    } else {
                        self.nodes[i].layer.backward_params(self.grads.slot(i))?;
                    }
                    self.grad_set[n] = true;
                }
            }
        }
        self.grads.refresh_high_water();
        if !self.grad_set[n] {
            return Err(KmlError::InvalidConfig(
                "backward called before forward".into(),
            ));
        }
        Ok(())
    }

    /// High-water mark of the forward/backward scratch arenas in bytes —
    /// the measured analogue of the paper's 676 B inference-scratch claim
    /// (compare [`crate::model::Model::inference_scratch_bytes`], which is
    /// derived analytically from the topology).
    pub fn scratch_high_water_bytes(&self) -> usize {
        self.acts.high_water_bytes() + self.grads.high_water_bytes()
    }

    /// Bytes of forward-state scratch held inside the layers themselves
    /// (cached activations and derivative staging buffers).
    pub fn layer_scratch_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.scratch_bytes()).sum()
    }

    /// All parameter/gradient slots across the graph, in node order.
    pub fn param_grads(&mut self) -> Vec<ParamGrad<'_, S>> {
        self.nodes
            .iter_mut()
            .flat_map(|n| n.layer.param_grads())
            .collect()
    }

    /// Visits every parameter/gradient slot in [`Graph::param_grads`] order
    /// without building a `Vec` — the allocation-free optimizer path the
    /// training loop drives.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`.
    pub fn visit_param_grads(
        &mut self,
        f: &mut dyn FnMut(ParamGrad<'_, S>) -> Result<()>,
    ) -> Result<()> {
        for n in &mut self.nodes {
            n.layer.visit_param_grads(f)?;
        }
        Ok(())
    }

    /// Deep-copies topology and layer parameters for a serving replica
    /// (fresh arenas, no gradient state), or `None` if any layer cannot be
    /// copied (see [`Layer::clone_box`]).
    pub fn clone_for_workers(&self) -> Option<Graph<S>> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            nodes.push(Node {
                layer: n.layer.clone_box()?,
                input: n.input,
            });
        }
        Some(Graph {
            nodes,
            output: self.output,
            acts: ScratchArena::new(),
            grads: ScratchArena::new(),
            grad_set: Vec::new(),
        })
    }

    /// Immutable access to the layers in topological order.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer<S>> {
        self.nodes.iter().map(|n| n.layer.as_ref())
    }

    /// Mutable access to the layers in topological order.
    pub fn layers_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn Layer<S>>> {
        self.nodes.iter_mut().map(|n| &mut n.layer)
    }

    /// Total bytes of parameter storage across all layers.
    pub fn param_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.param_bytes()).sum()
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
        let a = g.add_source(Box::new(Linear::new(2, 3, &mut rng))).unwrap();
        let b = g
            .add_node(Box::new(ActivationLayer::new(Activation::Sigmoid)), a)
            .unwrap();
        let c = g
            .add_node(Box::new(Linear::new(3, 2, &mut rng)), b)
            .unwrap();
        g.set_output(c).unwrap();
        g
    }

    #[test]
    fn chain_forward_produces_expected_shape() {
        let mut g = chain_graph();
        let y = g
            .forward(&Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.5]]).unwrap())
            .unwrap();
        assert_eq!(y.shape(), (2, 2));
        assert!(g.is_chain());
    }

    #[test]
    fn backward_needs_forward_first() {
        let mut g = chain_graph();
        // Without a forward pass the layers have no cached activations.
        assert!(g.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn two_sources_rejected() {
        let mut rng = rng();
        let mut g: Graph<f64> = Graph::new();
        g.add_source(Box::new(Linear::new(2, 2, &mut rng))).unwrap();
        assert!(g.add_source(Box::new(Linear::new(2, 2, &mut rng))).is_err());
    }

    #[test]
    fn dangling_references_rejected() {
        let mut rng = rng();
        let mut g: Graph<f64> = Graph::new();
        let a = g.add_source(Box::new(Linear::new(2, 2, &mut rng))).unwrap();
        assert!(g
            .add_node(Box::new(Linear::new(2, 2, &mut rng)), NodeId(99))
            .is_err());
        assert!(g.set_output(NodeId(99)).is_err());
        g.set_output(a).unwrap();
    }

    #[test]
    fn forward_without_output_declared_is_error() {
        let mut rng = rng();
        let mut g: Graph<f64> = Graph::new();
        g.add_source(Box::new(Linear::new(2, 2, &mut rng))).unwrap();
        assert!(g.forward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn fan_out_graph_is_not_chain_and_sums_gradients() {
        // x -> lin -> {sig, relu consumed nowhere}: make both consumed by
        // building y = sig(h) where h also feeds relu -> output? A single
        // output graph: h -> sigmoid -> out, h -> relu (dead end). The relu
        // branch is dead (not on output path) and must not contribute.
        let mut rng = rng();
        let mut g: Graph<f64> = Graph::new();
        let h = g.add_source(Box::new(Linear::new(2, 2, &mut rng))).unwrap();
        let s = g
            .add_node(Box::new(ActivationLayer::new(Activation::Sigmoid)), h)
            .unwrap();
        let _dead = g
            .add_node(Box::new(ActivationLayer::new(Activation::Relu)), h)
            .unwrap();
        g.set_output(s).unwrap();
        assert!(!g.is_chain());

        let x = Matrix::from_rows(&[vec![0.3, -0.7]]).unwrap();
        let y = g.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 2));
        let gin = g
            .backward(&Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap())
            .unwrap();
        assert_eq!(gin.shape(), (1, 2));
        assert!(gin.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Every parameter gradient of `g`, as bits, in slot order.
    fn grad_bits(g: &mut Graph<f64>) -> Vec<Vec<u64>> {
        g.param_grads()
            .iter()
            .map(|pg| pg.grad.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The training step's backward pass leaves exactly the `grad_w` /
    /// `grad_b` the full pass does — on the chain, and on a graph whose
    /// source and hidden activation both fan out.
    #[test]
    fn params_only_backward_matches_full_backward_bit_for_bit() {
        let fan_out = || {
            // x -> lin(2,3) -> sigmoid -> lin(3,2) -> out, with the source
            // also feeding a tanh and the sigmoid a relu that go nowhere:
            // not a chain, and the dead branches must stay out of it.
            let mut rng = rng();
            let mut g: Graph<f64> = Graph::new();
            let h = g.add_source(Box::new(Linear::new(2, 3, &mut rng))).unwrap();
            g.add_node(Box::new(ActivationLayer::new(Activation::Tanh)), h)
                .unwrap();
            let s = g
                .add_node(Box::new(ActivationLayer::new(Activation::Sigmoid)), h)
                .unwrap();
            g.add_node(Box::new(ActivationLayer::new(Activation::Relu)), s)
                .unwrap();
            let out = g
                .add_node(Box::new(Linear::new(3, 2, &mut rng)), s)
                .unwrap();
            g.set_output(out).unwrap();
            assert!(!g.is_chain());
            g
        };
        let x = Matrix::from_rows(&[vec![0.3, -0.7], vec![1.1, 0.2], vec![-0.4, 0.9]]).unwrap();
        let dy = Matrix::from_rows(&[vec![1.0, -0.5], vec![0.25, 2.0], vec![-1.5, 0.1]]).unwrap();
        for build in [chain_graph as fn() -> Graph<f64>, fan_out] {
            let (mut full, mut params) = (build(), build());
            full.forward(&x).unwrap();
            params.forward(&x).unwrap();
            full.backward_in_place(&dy).unwrap();
            params.backward_params_in_place(&dy).unwrap();
            let want = grad_bits(&mut full);
            assert_eq!(want.len(), 4);
            assert!(want.iter().flatten().any(|&b| b != 0), "gradients are live");
            assert_eq!(grad_bits(&mut params), want);
        }
        // Before any forward pass it is the same error, not a stale result.
        assert!(chain_graph().backward_params_in_place(&dy).is_err());
    }

    #[test]
    fn graph_gradient_matches_finite_difference_end_to_end() {
        let mut g = chain_graph();
        let x = Matrix::from_rows(&[vec![0.4, -0.9]]).unwrap();
        let coeff = Matrix::from_rows(&[vec![1.0, -0.5]]).unwrap();
        g.forward(&x).unwrap();
        let gin = g.backward(&coeff).unwrap();

        let eps = 1e-6;
        for c in 0..2 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let lp: f64 = g
                .forward(&xp)
                .unwrap()
                .hadamard(&coeff)
                .unwrap()
                .as_slice()
                .iter()
                .sum();
            let lm: f64 = g
                .forward(&xm)
                .unwrap()
                .hadamard(&coeff)
                .unwrap()
                .as_slice()
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gin.get(0, c)).abs() < 1e-5,
                "input grad {c}: numeric {numeric}, analytic {}",
                gin.get(0, c)
            );
        }
    }

    #[test]
    fn param_grads_cover_all_linear_slots() {
        let mut g = chain_graph();
        g.forward(&Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap())
            .unwrap();
        g.backward(&Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap())
            .unwrap();
        // Two linear layers × (weights, bias) = 4 slots.
        assert_eq!(g.param_grads().len(), 4);
    }

    #[test]
    fn param_bytes_sums_layers() {
        let g = chain_graph();
        // (2*3 + 3) + (3*2 + 2) = 17 f64 params.
        assert_eq!(g.param_bytes(), 17 * 8);
    }
}
