//! Shared windowed featurization — the one window engine behind every tuner.
//!
//! The paper extracts features the same way at every layer it tunes
//! (readahead §4, NFS rsize in the extended paper): tracepoint records are
//! folded into cheap streaming accumulators, and once per window the
//! accumulators are summarized into a fixed feature vector, with some
//! channels persisting across windows (cumulative moving statistics) and
//! others resetting (per-window counts and sums). Before this module the
//! readahead and iosched tuners each re-implemented that window discipline
//! inline; now all three tuners (readahead, iosched, netfs rsize) compose
//! their feature vectors from the same [`WindowedFeatures`] engine.
//!
//! Channel kinds (each matching one of the pre-existing inline idioms,
//! bit-for-bit — the parity tests in `readahead::features` and
//! `iosched::tuner` prove it):
//!
//! - [`Channel::Cumulative`] — Welford mean/std over the whole run; survives
//!   window rolls (paper features ii–iii).
//! - [`Channel::WindowAbsDiff`] — mean |Δ| of consecutive samples within
//!   the window; both the sums *and* the last sample reset at each roll
//!   (paper feature iv).
//! - [`Channel::PersistentGap`] — sum of forward differences between
//!   consecutive `u64` samples; the sum resets per window but the last
//!   sample persists, and the summary divides by `window_count - 1`
//!   (the iosched inter-arrival-gap idiom).
//! - [`Channel::WindowSum`] — plain per-window `u64` sum, summarized as
//!   `sum / window_count` (adjacency fractions, depth means, per-window
//!   latency means).

use crate::stats::{AbsDiffMean, CumulativeStats};

/// Sum of forward (saturating) differences between consecutive `u64`
/// samples. The last sample persists across window rolls; the sum resets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GapSum {
    last: Option<u64>,
    sum: u64,
}

impl GapSum {
    /// Folds in one sample.
    pub fn push(&mut self, v: u64) {
        if let Some(last) = self.last {
            self.sum += v.saturating_sub(last);
        }
        self.last = Some(v);
    }

    /// The per-window sum so far.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// One streaming feature channel inside a [`WindowedFeatures`] engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Channel {
    /// Welford mean/std over the whole run (persists across windows).
    Cumulative(CumulativeStats),
    /// Mean absolute consecutive difference within the window; fully
    /// resets (including the last sample) at each roll.
    WindowAbsDiff(AbsDiffMean),
    /// Per-window sum of consecutive forward gaps; the last sample
    /// persists across rolls. Summary: `sum / (window_count - 1).max(1)`.
    PersistentGap(GapSum),
    /// Per-window `u64` sum. Summary: `sum / window_count.max(1)`.
    WindowSum(u64),
}

impl Channel {
    /// An empty cumulative (Welford) channel.
    pub fn cumulative() -> Channel {
        Channel::Cumulative(CumulativeStats::new())
    }

    /// An empty within-window absolute-difference channel.
    pub fn window_abs_diff() -> Channel {
        Channel::WindowAbsDiff(AbsDiffMean::new())
    }

    /// An empty persistent-gap channel.
    pub fn persistent_gap() -> Channel {
        Channel::PersistentGap(GapSum::default())
    }

    /// An empty per-window sum channel.
    pub fn window_sum() -> Channel {
        Channel::WindowSum(0)
    }
}

/// The shared window engine: a set of [`Channel`]s plus the per-window
/// record count and lifetime total every tuner keeps.
///
/// Usage protocol (one call per tracepoint record):
///
/// 1. push per-channel samples with [`WindowedFeatures::push_f64`] /
///    [`WindowedFeatures::push_u64`],
/// 2. call [`WindowedFeatures::record`] once to count the record,
/// 3. at each window boundary read summaries ([`WindowedFeatures::mean`],
///    [`WindowedFeatures::std`], [`WindowedFeatures::window_count`]) into
///    the tuner's feature vector, then call [`WindowedFeatures::roll`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedFeatures {
    channels: Vec<Channel>,
    window_count: u64,
    total: u64,
}

impl WindowedFeatures {
    /// Creates an engine over the given channels.
    pub fn new(channels: Vec<Channel>) -> Self {
        WindowedFeatures {
            channels,
            window_count: 0,
            total: 0,
        }
    }

    /// Counts one record into the current window (call once per record,
    /// after the per-channel pushes).
    #[inline]
    pub fn record(&mut self) {
        self.window_count += 1;
        self.total += 1;
    }

    /// Records in the current (open) window.
    pub fn window_count(&self) -> u64 {
        self.window_count
    }

    /// Records counted since creation (or the last [`WindowedFeatures::reset`]).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Folds an `f64` sample into channel `ch`
    /// ([`Channel::Cumulative`] or [`Channel::WindowAbsDiff`]).
    #[inline]
    pub fn push_f64(&mut self, ch: usize, v: f64) {
        match &mut self.channels[ch] {
            Channel::Cumulative(s) => s.push(v),
            Channel::WindowAbsDiff(a) => a.push(v),
            other => panic!("channel {ch} ({other:?}) does not take f64 samples"),
        }
    }

    /// Folds a `u64` sample into channel `ch`
    /// ([`Channel::PersistentGap`] or [`Channel::WindowSum`]).
    pub fn push_u64(&mut self, ch: usize, v: u64) {
        match &mut self.channels[ch] {
            Channel::PersistentGap(g) => g.push(v),
            Channel::WindowSum(sum) => *sum += v,
            other => panic!("channel {ch} ({other:?}) does not take u64 samples"),
        }
    }

    /// The channel's mean summary for the current window (see the
    /// per-kind divisors on [`Channel`]).
    pub fn mean(&self, ch: usize) -> f64 {
        match &self.channels[ch] {
            Channel::Cumulative(s) => s.mean(),
            Channel::WindowAbsDiff(a) => a.mean(),
            Channel::PersistentGap(g) => {
                g.sum as f64 / (self.window_count.saturating_sub(1).max(1)) as f64
            }
            Channel::WindowSum(sum) => *sum as f64 / self.window_count.max(1) as f64,
        }
    }

    /// The channel's standard-deviation summary (cumulative channels
    /// only; 0 for the window-local kinds, which keep no second moment).
    pub fn std(&self, ch: usize) -> f64 {
        match &self.channels[ch] {
            Channel::Cumulative(s) => s.std(),
            _ => 0.0,
        }
    }

    /// Closes the window: per-window state resets, persistent state
    /// (cumulative statistics, persistent-gap last samples) survives.
    pub fn roll(&mut self) {
        self.window_count = 0;
        for ch in &mut self.channels {
            match ch {
                Channel::Cumulative(_) => {}
                Channel::WindowAbsDiff(a) => a.reset(),
                Channel::PersistentGap(g) => g.sum = 0,
                Channel::WindowSum(sum) => *sum = 0,
            }
        }
    }

    /// Resets everything, including cumulative channels (a fresh run).
    pub fn reset(&mut self) {
        self.window_count = 0;
        self.total = 0;
        for ch in &mut self.channels {
            match ch {
                Channel::Cumulative(s) => s.reset(),
                Channel::WindowAbsDiff(a) => a.reset(),
                Channel::PersistentGap(g) => *g = GapSum::default(),
                Channel::WindowSum(sum) => *sum = 0,
            }
        }
    }
}

/// A row-stacked matrix of feature vectors, staged for batched inference.
///
/// The fleet's shared model server drains one feature vector per tenant
/// window into a `FeatureBatch`, then hands the flat row-major buffer to
/// `Model::infer_batch_into` — one `B × dim` forward pass instead of `B`
/// single-row passes. The buffer is reused across batches (`clear` keeps
/// capacity), so steady-state batching allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBatch {
    dim: usize,
    rows: Vec<f64>,
}

impl FeatureBatch {
    /// Creates an empty batch whose rows all have `dim` features.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be non-zero");
        Self {
            dim,
            rows: Vec::new(),
        }
    }

    /// Appends one feature vector as the next row.
    ///
    /// # Panics
    /// Panics if `row.len() != dim`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dim,
            "feature row length must match the batch dimension"
        );
        self.rows.extend_from_slice(row);
    }

    /// Number of rows staged so far.
    pub fn rows(&self) -> usize {
        self.rows.len() / self.dim
    }

    /// Features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The staged rows as one flat row-major slice (`rows() * dim()` long).
    pub fn as_slice(&self) -> &[f64] {
        &self.rows
    }

    /// True when no rows are staged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drops all staged rows, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> WindowedFeatures {
        WindowedFeatures::new(vec![
            Channel::cumulative(),
            Channel::window_abs_diff(),
            Channel::persistent_gap(),
            Channel::window_sum(),
        ])
    }

    #[test]
    fn cumulative_persists_across_rolls_but_window_kinds_reset() {
        let mut w = engine();
        for i in 0..10u64 {
            w.push_f64(0, i as f64);
            w.push_f64(1, i as f64);
            w.push_u64(2, i * 100);
            w.push_u64(3, 5);
            w.record();
        }
        assert_eq!(w.window_count(), 10);
        assert!((w.mean(0) - 4.5).abs() < 1e-12);
        assert!((w.mean(1) - 1.0).abs() < 1e-12);
        assert!((w.mean(2) - 100.0).abs() < 1e-12); // 900 / (10-1)
        assert!((w.mean(3) - 5.0).abs() < 1e-12);
        w.roll();
        assert_eq!(w.window_count(), 0);
        assert_eq!(w.total(), 10);
        // Window kinds are neutral again; cumulative persists.
        assert_eq!(w.mean(1), 0.0);
        assert_eq!(w.mean(3), 0.0);
        assert!((w.mean(0) - 4.5).abs() < 1e-12);
        assert!(w.std(0) > 0.0);
    }

    #[test]
    fn persistent_gap_carries_last_sample_across_rolls() {
        let mut w = WindowedFeatures::new(vec![Channel::persistent_gap()]);
        w.push_u64(0, 1_000);
        w.record();
        w.roll();
        // The gap from the previous window's last sample still counts.
        w.push_u64(0, 1_500);
        w.record();
        assert!((w.mean(0) - 500.0).abs() < 1e-12);
    }

    #[test]
    fn abs_diff_forgets_last_sample_at_roll() {
        let mut w = WindowedFeatures::new(vec![Channel::window_abs_diff()]);
        w.push_f64(0, 0.0);
        w.push_f64(0, 1_000_000.0);
        w.record();
        w.record();
        w.roll();
        w.push_f64(0, 10.0);
        w.push_f64(0, 11.0);
        w.record();
        w.record();
        assert!((w.mean(0) - 1.0).abs() < 1e-12, "leaked: {}", w.mean(0));
    }

    #[test]
    fn empty_window_summaries_are_neutral() {
        let w = engine();
        for ch in 0..4 {
            assert_eq!(w.mean(ch), 0.0);
            assert_eq!(w.std(ch), 0.0);
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut w = engine();
        w.push_f64(0, 42.0);
        w.push_u64(2, 7);
        w.record();
        w.reset();
        assert_eq!(w.total(), 0);
        assert_eq!(w.mean(0), 0.0);
        // A fresh gap channel has no last sample: first push makes no pair.
        w.push_u64(2, 9);
        w.record();
        assert_eq!(w.mean(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not take f64")]
    fn type_confusion_panics() {
        let mut w = WindowedFeatures::new(vec![Channel::window_sum()]);
        w.push_f64(0, 1.0);
    }

    #[test]
    fn feature_batch_stacks_rows_in_order_and_reuses_capacity() {
        let mut b = FeatureBatch::new(3);
        assert!(b.is_empty());
        b.push_row(&[1.0, 2.0, 3.0]);
        b.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.dim(), 3);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.rows(), 0);
        b.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(b.as_slice(), &[7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "must match the batch dimension")]
    fn feature_batch_rejects_wrong_row_length() {
        let mut b = FeatureBatch::new(2);
        b.push_row(&[1.0]);
    }
}
