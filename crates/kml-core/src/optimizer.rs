//! Stochastic gradient descent with momentum (paper §2, §4).
//!
//! "Once gradients are computed, KML optimizes the neural network's
//! parameters using Stochastic Gradient Descent." The readahead model uses
//! lr = 0.01 and momentum = 0.99 (§4); [`Sgd::paper_defaults`] encodes that
//! configuration.

use crate::layers::ParamGrad;
use crate::scalar::Scalar;
use crate::{KmlError, Result};

/// SGD with classical (heavy-ball) momentum:
///
/// `v ← μ·v − η·g` ; `w ← w + v`
///
/// Velocity buffers are allocated lazily per parameter slot and reused across
/// steps; slot order must stay stable across calls (it does for a fixed
/// model, since layers enumerate parameters deterministically).
///
/// # Example
///
/// ```
/// use kml_core::optimizer::Sgd;
///
/// let sgd = Sgd::paper_defaults();
/// assert_eq!(sgd.learning_rate(), 0.01);
/// assert_eq!(sgd.momentum(), 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f64,
    momentum: f64,
    velocities: Vec<Vec<f64>>,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate and momentum.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(learning_rate: f64, momentum: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            learning_rate,
            momentum,
            velocities: Vec::new(),
        }
    }

    /// The configuration of the paper's readahead model: lr 0.01, momentum 0.99.
    pub fn paper_defaults() -> Self {
        Sgd::new(0.01, 0.99)
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// The configured momentum coefficient.
    pub fn momentum(&self) -> f64 {
        self.momentum
    }

    /// Clears all velocity state (e.g. between cross-validation folds).
    pub fn reset(&mut self) {
        self.velocities.clear();
    }

    /// Applies one update to a single parameter slot, identified by its
    /// stable position in the model's slot order (the order
    /// [`crate::graph::Graph::visit_param_grads`] walks).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::InvalidConfig`] for a slot visited before its
    /// predecessors (the velocity table grows one slot at a time), and
    /// [`KmlError::ShapeMismatch`] if the gradient's shape stopped matching
    /// its parameter (a corrupted training loop) or its slot's velocity —
    /// an optimizer carried over to a model of another shape without
    /// [`Sgd::reset`]. Nothing is updated in any of these cases.
    pub fn apply<S: Scalar>(&mut self, slot: usize, pg: &mut ParamGrad<'_, S>) -> Result<()> {
        if slot > self.velocities.len() {
            return Err(KmlError::InvalidConfig(format!(
                "optimizer slot {slot} visited with only {} slots seen",
                self.velocities.len()
            )));
        }
        if pg.param.shape() != pg.grad.shape() {
            return Err(KmlError::ShapeMismatch {
                op: "axpy",
                lhs: pg.param.shape(),
                rhs: pg.grad.shape(),
            });
        }
        // Grow velocity storage on first sight of each slot.
        if slot == self.velocities.len() {
            self.velocities.push(vec![0.0; pg.grad.len()]);
        }
        if self.velocities[slot].len() != pg.grad.len() {
            return Err(KmlError::ShapeMismatch {
                op: "sgd velocity",
                lhs: (1, self.velocities[slot].len()),
                rhs: pg.grad.shape(),
            });
        }
        let vel = &mut self.velocities[slot];
        // In-place fused update: no temporary update vector or delta
        // matrix, so steady-state training performs zero allocations here.
        let grad = pg.grad.as_slice();
        for ((p, &g), v) in pg.param.as_mut_slice().iter_mut().zip(grad).zip(vel) {
            *v = self.momentum * *v - self.learning_rate * g.to_f64();
            *p = p.add(S::from_f64(*v));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Linear};
    use crate::loss::{Loss, MseLoss, TargetRef};
    use crate::matrix::Matrix;
    use crate::KmlRng;
    use rand::SeedableRng;

    /// One update of a single-slot model.
    fn step(sgd: &mut Sgd, param: &mut Matrix<f64>, grad: &Matrix<f64>) -> Result<()> {
        sgd.apply(0, &mut ParamGrad { param, grad })
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_learning_rate_panics() {
        let _ = Sgd::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn momentum_one_panics() {
        let _ = Sgd::new(0.1, 1.0);
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut w = Matrix::from_rows(&[vec![1.0_f64, -1.0]]).unwrap();
        let g = Matrix::from_rows(&[vec![0.5, -0.5]]).unwrap();
        let mut sgd = Sgd::new(0.1, 0.0);
        step(&mut sgd, &mut w, &g).unwrap();
        assert_eq!(w.as_slice(), &[0.95, -0.95]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut w = Matrix::from_rows(&[vec![0.0_f64]]).unwrap();
        let g = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let mut sgd = Sgd::new(0.1, 0.5);
        // step 1: v = -0.1, w = -0.1
        // step 2: v = -0.15, w = -0.25
        step(&mut sgd, &mut w, &g).unwrap();
        step(&mut sgd, &mut w, &g).unwrap();
        assert!((w.get(0, 0) + 0.25).abs() < 1e-12);
    }

    #[test]
    fn slot_visited_out_of_order_is_a_typed_error() {
        let mut w = Matrix::from_rows(&[vec![1.0_f64, 2.0]]).unwrap();
        let g = Matrix::from_rows(&[vec![0.5, 0.5]]).unwrap();
        let mut sgd = Sgd::new(0.1, 0.5);
        let mut pg = ParamGrad {
            param: &mut w,
            grad: &g,
        };
        assert!(matches!(
            sgd.apply(1, &mut pg),
            Err(KmlError::InvalidConfig(_))
        ));
        assert_eq!(pg.param.as_slice(), &[1.0, 2.0], "nothing was updated");
        // In order, the same slots go through.
        sgd.apply(0, &mut pg).unwrap();
        sgd.apply(1, &mut pg).unwrap();
    }

    #[test]
    fn reuse_on_another_shape_without_reset_is_a_typed_error() {
        let mut small = Matrix::from_rows(&[vec![1.0_f64, 2.0]]).unwrap();
        let g_small = Matrix::from_rows(&[vec![0.5, 0.5]]).unwrap();
        let mut wide = Matrix::from_rows(&[vec![1.0_f64, 2.0, 3.0]]).unwrap();
        let g_wide = Matrix::from_rows(&[vec![0.5, 0.5, 0.5]]).unwrap();
        let mut sgd = Sgd::new(0.1, 0.5);
        step(&mut sgd, &mut small, &g_small).unwrap();
        // Both directions: a velocity shorter and longer than the gradient.
        let err = step(&mut sgd, &mut wide, &g_wide).unwrap_err();
        assert!(matches!(
            err,
            KmlError::ShapeMismatch {
                op: "sgd velocity",
                lhs: (1, 2),
                rhs: (1, 3)
            }
        ));
        assert_eq!(wide.as_slice(), &[1.0, 2.0, 3.0], "no partial update");
        sgd.reset();
        step(&mut sgd, &mut wide, &g_wide).unwrap();
        assert!(step(&mut sgd, &mut small, &g_small).is_err());
        assert_eq!(small.as_slice(), &[0.95, 1.95]);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut w = Matrix::from_rows(&[vec![0.0_f64]]).unwrap();
        let g = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let mut sgd = Sgd::new(0.1, 0.9);
        step(&mut sgd, &mut w, &g).unwrap();
        sgd.reset();
        let before = w.get(0, 0);
        step(&mut sgd, &mut w, &g).unwrap();
        // With cleared velocity the step is exactly -lr*g again.
        assert!((w.get(0, 0) - (before - 0.1)).abs() < 1e-12);
    }

    #[test]
    fn sgd_drives_linear_regression_to_target() {
        // Fit y = 2x with a single 1x1 linear layer.
        let mut rng = KmlRng::seed_from_u64(5);
        let mut layer = Linear::<f64>::new(1, 1, &mut rng);
        let mut sgd = Sgd::new(0.02, 0.8);
        let xs = [0.0, 0.5, 1.0, 1.5, 2.0];
        let mut pred = Matrix::zeros(0, 0);
        for _ in 0..500 {
            for &x in &xs {
                let input = Matrix::row_vector(&[x]);
                layer.forward_into(&input, &mut pred).unwrap();
                let target = [2.0 * x];
                let grad = MseLoss.grad(&pred, TargetRef::Values(&target)).unwrap();
                layer.backward_params(&input, &pred, &grad).unwrap();
                let mut slot = 0;
                layer
                    .visit_param_grads(&mut |mut pg| {
                        slot += 1;
                        sgd.apply(slot - 1, &mut pg)
                    })
                    .unwrap();
            }
        }
        let w = layer.weights().get(0, 0);
        let b = layer.bias().get(0, 0);
        assert!((w - 2.0).abs() < 0.05, "w = {w}");
        assert!(b.abs() < 0.05, "b = {b}");
    }

    #[test]
    fn paper_defaults_match_section_four() {
        let sgd = Sgd::paper_defaults();
        assert_eq!(sgd.learning_rate(), 0.01);
        assert_eq!(sgd.momentum(), 0.99);
    }
}
