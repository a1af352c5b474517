//! In-memory labelled datasets with Z-score normalization (paper §4).
//!
//! The readahead pipeline "calculated the Z-score for each feature to
//! normalize the input data"; [`Normalizer`] captures the per-feature
//! mean/std fitted on training data so the same transform is applied at
//! inference time (a fitted normalizer is serialized into the model file).

use crate::matrix::Matrix;
use crate::{KmlError, KmlRng, Result};
use rand::seq::SliceRandom;

/// A classification dataset: a dense `n × d` feature matrix plus one class
/// label per row.
///
/// # Example
///
/// ```
/// use kml_core::dataset::Dataset;
///
/// # fn main() -> kml_core::Result<()> {
/// let data = Dataset::from_rows(
///     &[vec![1.0, 2.0], vec![3.0, 4.0]],
///     &[0, 1],
/// )?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.feature_dim(), 2);
/// assert_eq!(data.num_classes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix<f64>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from feature rows and labels.
    ///
    /// The class count is inferred as `max(label) + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if rows are empty/ragged or label
    /// count differs from row count.
    pub fn from_rows(rows: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        if rows.len() != labels.len() {
            return Err(KmlError::BadDataset(format!(
                "{} feature rows but {} labels",
                rows.len(),
                labels.len()
            )));
        }
        let features = Matrix::from_rows(rows)?;
        let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(Dataset {
            features,
            labels: labels.to_vec(),
            num_classes,
        })
    }

    /// Builds a dataset from an existing matrix and labels.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] on row/label count mismatch.
    pub fn from_matrix(features: Matrix<f64>, labels: Vec<usize>) -> Result<Self> {
        if features.rows() != labels.len() {
            return Err(KmlError::BadDataset(format!(
                "{} feature rows but {} labels",
                features.rows(),
                labels.len()
            )));
        }
        let num_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(Dataset {
            features,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of distinct classes (`max(label) + 1`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The feature matrix.
    pub fn features(&self) -> &Matrix<f64> {
        &self.features
    }

    /// The labels, one per row.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> (&[f64], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Returns a shuffled copy (Fisher–Yates over row indices).
    pub fn shuffled(&self, rng: &mut KmlRng) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        self.subset(&idx).expect("indices are in range")
    }

    /// Selects the given rows into a new dataset (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if an index is out of range or the
    /// selection is empty.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        if indices.is_empty() {
            return Err(KmlError::BadDataset("empty subset".into()));
        }
        let mut rows = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(KmlError::BadDataset(format!(
                    "subset index {i} out of range for {} samples",
                    self.len()
                )));
            }
            rows.push(self.features.row(i).to_vec());
            labels.push(self.labels[i]);
        }
        Ok(Dataset {
            features: Matrix::from_rows(&rows)?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Splits into `(train, test)` with the first `train_fraction` of rows in
    /// train (shuffle first if order matters).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] if either side would be empty.
    pub fn split(&self, train_fraction: f64) -> Result<(Dataset, Dataset)> {
        let n_train = (self.len() as f64 * train_fraction) as usize;
        if n_train == 0 || n_train >= self.len() {
            return Err(KmlError::BadDataset(format!(
                "split fraction {train_fraction} leaves an empty side for {} samples",
                self.len()
            )));
        }
        let train_idx: Vec<usize> = (0..n_train).collect();
        let test_idx: Vec<usize> = (n_train..self.len()).collect();
        Ok((self.subset(&train_idx)?, self.subset(&test_idx)?))
    }
}

/// Per-feature Z-score transform fitted on training data.
///
/// Features with zero variance pass through unscaled (std is clamped to 1),
/// which keeps degenerate features harmless instead of producing NaNs.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Normalizer {
    /// Fits means and standard deviations per feature column.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] for an empty matrix or a non-finite
    /// feature.
    pub fn fit(features: &Matrix<f64>) -> Result<Self> {
        if features.is_empty() {
            return Err(KmlError::BadDataset(
                "cannot fit normalizer on empty data".into(),
            ));
        }
        if features.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(KmlError::BadDataset(
                "cannot fit normalizer on a non-finite feature".into(),
            ));
        }
        let n = features.rows() as f64;
        let d = features.cols();
        let mut means = vec![0.0; d];
        for r in 0..features.rows() {
            for (c, m) in means.iter_mut().enumerate() {
                *m += features.get(r, c);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for r in 0..features.rows() {
            for (c, v) in vars.iter_mut().enumerate() {
                let diff = features.get(r, c) - means[c];
                *v += diff * diff;
            }
        }
        let stds = vars
            .iter()
            .map(|&v| {
                let s = crate::math::sqrt(v / n);
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Normalizer { means, stds })
    }

    /// Builds a normalizer from precomputed statistics (model-file loading).
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadModelFile`] on length mismatch, a non-positive
    /// or non-finite std, or a non-finite mean.
    pub fn from_stats(means: Vec<f64>, stds: Vec<f64>) -> Result<Self> {
        if means.len() != stds.len() {
            return Err(KmlError::BadModelFile(format!(
                "normalizer with {} means but {} stds",
                means.len(),
                stds.len()
            )));
        }
        if stds.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err(KmlError::BadModelFile(
                "normalizer std must be positive and finite".into(),
            ));
        }
        if means.iter().any(|m| !m.is_finite()) {
            return Err(KmlError::BadModelFile(
                "normalizer mean must be finite".into(),
            ));
        }
        Ok(Normalizer { means, stds })
    }

    /// Number of features this normalizer was fitted on.
    pub fn feature_dim(&self) -> usize {
        self.means.len()
    }

    /// Fitted per-feature means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-feature standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the transform to a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] if column count differs from the
    /// fitted dimension.
    pub fn apply(&self, features: &Matrix<f64>) -> Result<Matrix<f64>> {
        if features.cols() != self.means.len() {
            return Err(KmlError::ShapeMismatch {
                op: "normalize",
                lhs: features.shape(),
                rhs: (1, self.means.len()),
            });
        }
        let mut out = features.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let z = (out.get(r, c) - self.means[c]) / self.stds[c];
                out.set(r, c, z);
            }
        }
        Ok(out)
    }

    /// Applies the transform to a single feature vector in place.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] on dimension mismatch.
    pub fn apply_row(&self, row: &mut [f64]) -> Result<()> {
        self.check_width(row.len())?;
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - self.means[i]) / self.stds[i];
        }
        Ok(())
    }

    /// The error [`Normalizer::apply_row`] returns for a row of `width`
    /// features, if that is not the fitted dimension.
    pub(crate) fn check_width(&self, width: usize) -> Result<()> {
        if width != self.means.len() {
            return Err(KmlError::ShapeMismatch {
                op: "normalize",
                lhs: (1, width),
                rhs: (1, self.means.len()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::from_rows(
            &[
                vec![0.0, 10.0],
                vec![1.0, 20.0],
                vec![2.0, 30.0],
                vec![3.0, 40.0],
            ],
            &[0, 1, 0, 1],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.sample(2), ([2.0, 30.0].as_slice(), 0));
    }

    #[test]
    fn mismatched_labels_rejected() {
        assert!(Dataset::from_rows(&[vec![1.0]], &[0, 1]).is_err());
    }

    #[test]
    fn shuffle_preserves_pairing() {
        let d = toy();
        let mut rng = KmlRng::seed_from_u64(3);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), 4);
        // Every (feature, label) pair in the shuffle exists in the original.
        for i in 0..s.len() {
            let (f, l) = s.sample(i);
            let found = (0..d.len()).any(|j| {
                let (fo, lo) = d.sample(j);
                fo == f && lo == l
            });
            assert!(found, "shuffled sample {i} lost its pairing");
        }
    }

    #[test]
    fn split_sizes() {
        let d = toy();
        let (train, test) = d.split(0.75).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert!(d.split(0.0).is_err());
        assert!(d.split(1.0).is_err());
    }

    #[test]
    fn subset_rejects_out_of_range() {
        let d = toy();
        assert!(d.subset(&[0, 5]).is_err());
        assert!(d.subset(&[]).is_err());
    }

    #[test]
    fn normalizer_zero_mean_unit_std() {
        let d = toy();
        let norm = Normalizer::fit(d.features()).unwrap();
        let z = norm.apply(d.features()).unwrap();
        for c in 0..z.cols() {
            let mean: f64 = (0..z.rows()).map(|r| z.get(r, c)).sum::<f64>() / z.rows() as f64;
            let var: f64 =
                (0..z.rows()).map(|r| z.get(r, c).powi(2)).sum::<f64>() / z.rows() as f64;
            assert!(mean.abs() < 1e-12, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "col {c} var {var}");
        }
    }

    #[test]
    fn normalizer_handles_constant_feature() {
        let m = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let norm = Normalizer::fit(&m).unwrap();
        let z = norm.apply(&m).unwrap();
        // Constant column maps to zero, not NaN.
        assert_eq!(z.get(0, 0), 0.0);
        assert_eq!(z.get(1, 0), 0.0);
        assert!(z.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn normalizer_round_trips_through_stats() {
        let d = toy();
        let norm = Normalizer::fit(d.features()).unwrap();
        let rebuilt = Normalizer::from_stats(norm.means().to_vec(), norm.stds().to_vec()).unwrap();
        assert_eq!(norm, rebuilt);
    }

    #[test]
    fn from_stats_validates() {
        assert!(Normalizer::from_stats(vec![0.0], vec![]).is_err());
        assert!(Normalizer::from_stats(vec![0.0], vec![0.0]).is_err());
        assert!(Normalizer::from_stats(vec![0.0], vec![f64::NAN]).is_err());
    }

    /// A NaN mean would turn every input into NaN at inference time.
    #[test]
    fn from_stats_refuses_a_non_finite_mean() {
        assert!(Normalizer::from_stats(vec![f64::NAN], vec![1.0]).is_err());
        assert!(Normalizer::from_stats(vec![f64::INFINITY], vec![1.0]).is_err());
    }

    #[test]
    fn fit_refuses_a_non_finite_feature() {
        for bad in [f64::NAN, f64::INFINITY] {
            let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, bad, 4.0]).unwrap();
            assert!(matches!(Normalizer::fit(&m), Err(KmlError::BadDataset(_))));
        }
    }

    #[test]
    fn apply_row_matches_apply() {
        let d = toy();
        let norm = Normalizer::fit(d.features()).unwrap();
        let z = norm.apply(d.features()).unwrap();
        let mut row = d.features().row(1).to_vec();
        norm.apply_row(&mut row).unwrap();
        assert_eq!(row.as_slice(), z.row(1));
    }
}
