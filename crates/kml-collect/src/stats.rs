//! Streaming statistics for data normalization (paper §3.2, §4).
//!
//! "KML offers several data normalization and statistical functions: moving
//! average, standard deviation, and Z-score calculation." The readahead
//! features (§4) are built from the two kept here: cumulative moving
//! average and cumulative moving standard deviation of page offsets, and
//! the mean absolute difference of consecutive offsets. (Per-feature
//! Z-scores are `kml_core::dataset::Normalizer`, fitted once and shipped
//! with the model.)
//!
//! All accumulators are O(1) per sample (Welford's algorithm for the
//! variance) since they run on the asynchronous training thread once per
//! drained record.

/// Cumulative (running) mean and standard deviation via Welford's algorithm.
///
/// # Example
///
/// ```
/// use kml_collect::CumulativeStats;
///
/// let mut s = CumulativeStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std(), 2.0); // population std of the classic example
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CumulativeStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl CumulativeStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        CumulativeStats::default()
    }

    /// Folds in one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Samples seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 before any sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running population variance (0 before two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Running population standard deviation.
    pub fn std(&self) -> f64 {
        kml_core::math::sqrt(self.variance())
    }

    /// Resets to empty (used at each feature-window boundary).
    pub fn reset(&mut self) {
        *self = CumulativeStats::default();
    }
}

/// Mean absolute difference between consecutive samples — the paper's fourth
/// readahead feature ("the mean absolute page offset differences for
/// consecutive tracepoints"), a cheap sequentiality signal: ~constant small
/// for sequential scans, large and noisy for random access.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AbsDiffMean {
    last: Option<f64>,
    sum_abs: f64,
    count: u64,
}

impl AbsDiffMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        AbsDiffMean::default()
    }

    /// Folds in one sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        if let Some(last) = self.last {
            self.sum_abs += (v - last).abs();
            self.count += 1;
        }
        self.last = Some(v);
    }

    /// Mean |Δ| over consecutive pairs (0 before two samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs / self.count as f64
        }
    }

    /// Number of consecutive pairs folded so far.
    pub fn pairs(&self) -> u64 {
        self.count
    }

    /// Resets to empty, forgetting the last sample.
    pub fn reset(&mut self) {
        *self = AbsDiffMean::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.5, -2.0, 3.25, 0.0, 7.5, -1.25];
        let mut s = CumulativeStats::new();
        for &v in &data {
            s.push(v);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn stats_before_samples_are_zero() {
        let s = CumulativeStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        let mut one = CumulativeStats::new();
        one.push(42.0);
        assert_eq!(one.mean(), 42.0);
        assert_eq!(one.variance(), 0.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Catastrophic-cancellation check: large mean, tiny variance.
        let mut s = CumulativeStats::new();
        for i in 0..1000 {
            s.push(1e12 + (i % 2) as f64);
        }
        assert!((s.variance() - 0.25).abs() < 1e-6, "var {}", s.variance());
    }

    #[test]
    fn absdiff_distinguishes_sequential_from_random() {
        let mut seq = AbsDiffMean::new();
        for i in 0..100 {
            seq.push(i as f64); // stride 1
        }
        assert!((seq.mean() - 1.0).abs() < 1e-12);

        let mut random = AbsDiffMean::new();
        let mut x = 1u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            random.push((x % 100_000) as f64);
        }
        assert!(random.mean() > 100.0 * seq.mean());
    }

    #[test]
    fn absdiff_reset_forgets_history() {
        let mut a = AbsDiffMean::new();
        a.push(0.0);
        a.push(100.0);
        assert_eq!(a.mean(), 100.0);
        a.reset();
        assert_eq!(a.mean(), 0.0);
        a.push(5.0);
        assert_eq!(a.pairs(), 0);
    }

    proptest! {
        #[test]
        fn prop_welford_mean_bounded_by_extremes(
            data in proptest::collection::vec(-1e6f64..1e6, 1..100)
        ) {
            let mut s = CumulativeStats::new();
            for &v in &data {
                s.push(v);
            }
            let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9);
            prop_assert!(s.variance() >= 0.0);
        }
    }
}
