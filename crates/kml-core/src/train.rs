//! The one training path: fit the normalizer, build the seeded network,
//! run SGD, then [`deploy`] through the model file at serving precision —
//! the paper's train-in-user-space, infer-in-kernel flow (§3.3).
//!
//! Every deployed model in the workspace comes from a [`TrainSpec`]; the
//! specs differ only in the values of its five fields.

use rand::SeedableRng;

use crate::dataset::{Dataset, Normalizer};
use crate::loss::{CrossEntropyGrad, CrossEntropyLoss, TargetRef};
use crate::matrix::Matrix;
use crate::model::{Model, ModelBuilder};
use crate::optimizer::Sgd;
use crate::{modelfile, KmlRng, Result};

/// What to train and how: a cross-entropy classifier under SGD with
/// momentum, normalizer fitted on the training data.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// The untrained network; its seed fixes the initial weights.
    pub topology: ModelBuilder,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// SGD momentum.
    pub momentum: f64,
    /// Passes over the data.
    pub epochs: usize,
    /// `Some(seed)`: each epoch is a pass of shuffled mini-batches of 16
    /// ([`Model::train_epoch`]) drawn from one RNG seeded here. `None`:
    /// each epoch is one full-batch step over the rows in order.
    pub shuffle: Option<u64>,
}

impl TrainSpec {
    /// Trains a fresh model on `data`; returns it with the last epoch's
    /// loss (NaN after zero epochs). Only the last epoch computes a loss:
    /// the others take the same gradient steps without one.
    ///
    /// # Errors
    ///
    /// Propagates normalizer, build and training errors.
    pub fn train(&self, data: &Dataset) -> Result<(Model<f64>, f64)> {
        let mut model = self.topology.build::<f64>()?;
        let normalizer = Normalizer::fit(data.features())?;
        let mut sgd = Sgd::new(self.learning_rate, self.momentum);
        let mut loss = f64::NAN;
        match self.shuffle {
            Some(seed) => {
                model.set_normalizer(normalizer);
                let mut rng = KmlRng::seed_from_u64(seed);
                for e in 1..=self.epochs {
                    loss = if e < self.epochs {
                        model.train_epoch(data, &CrossEntropyGrad, &mut sgd, &mut rng)?
                    } else {
                        model.train_epoch(data, &CrossEntropyLoss, &mut sgd, &mut rng)?
                    };
                }
            }
            None => {
                // The full batch, normalized and staged feature-major once.
                let mut staged = Matrix::zeros(0, 0);
                normalizer
                    .apply(data.features())?
                    .transpose_into(&mut staged);
                model.set_normalizer(normalizer);
                let target = TargetRef::Classes(data.labels());
                for e in 1..=self.epochs {
                    loss = if e < self.epochs {
                        model.train_feature_major(&staged, target, &CrossEntropyGrad, &mut sgd)?
                    } else {
                        model.train_feature_major(&staged, target, &CrossEntropyLoss, &mut sgd)?
                    };
                }
            }
        }
        Ok((model, loss))
    }
}

/// The deployed form of a trained model: encoded to the model file and
/// decoded at `f32`, exactly as the in-kernel side loads it.
///
/// # Errors
///
/// Propagates encode and decode errors.
pub fn deploy(model: &Model<f64>) -> Result<Model<f32>> {
    modelfile::decode::<f32>(&modelfile::encode(model)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 * 3.0, (i % 5) as f64 - 2.0, i as f64])
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i % 7 > 3)).collect();
        Dataset::from_rows(&rows, &labels).unwrap()
    }

    fn spec(shuffle: Option<u64>) -> TrainSpec {
        TrainSpec {
            topology: ModelBuilder::new(3).linear(6).sigmoid().linear(2).seed(5),
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 12,
            shuffle,
        }
    }

    /// Both arms are the primitive loops they replaced, byte for byte.
    #[test]
    fn train_is_the_hand_written_loop() {
        let data = data();
        let s = spec(Some(9));
        let mut by_hand = s.topology.build::<f64>().unwrap();
        by_hand.set_normalizer(Normalizer::fit(data.features()).unwrap());
        let mut sgd = Sgd::new(0.05, 0.9);
        let mut rng = KmlRng::seed_from_u64(9);
        let mut loss = 0.0;
        for _ in 0..12 {
            loss = by_hand
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap();
        }
        let (model, l) = s.train(&data).unwrap();
        assert_eq!(l, loss);
        assert_eq!(
            modelfile::encode(&model).unwrap(),
            modelfile::encode(&by_hand).unwrap()
        );

        let s = spec(None);
        let mut by_hand = s.topology.build::<f64>().unwrap();
        let normalizer = Normalizer::fit(data.features()).unwrap();
        let normed: Matrix<f64> = normalizer.apply(data.features()).unwrap();
        by_hand.set_normalizer(normalizer);
        let mut sgd = Sgd::new(0.05, 0.9);
        for _ in 0..12 {
            loss = by_hand
                .train_batch(
                    &normed,
                    TargetRef::Classes(data.labels()),
                    &CrossEntropyLoss,
                    &mut sgd,
                )
                .unwrap();
        }
        let (model, l) = s.train(&data).unwrap();
        assert_eq!(l, loss);
        assert_eq!(
            modelfile::encode(&model).unwrap(),
            modelfile::encode(&by_hand).unwrap()
        );
    }

    #[test]
    fn zero_epochs_report_no_loss() {
        let (_, loss) = TrainSpec {
            epochs: 0,
            ..spec(None)
        }
        .train(&data())
        .unwrap();
        assert!(loss.is_nan());
    }
}
