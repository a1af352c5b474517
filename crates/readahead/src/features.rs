//! The five readahead features (paper §4 "Data pre-processing and feature
//! extraction").
//!
//! "We process the collected data points every second and then extract
//! features at runtime. ... five features that had the most predictive
//! accuracy: (i) the number of tracepoints that were traced, (ii) the
//! cumulative moving average of page offsets, (iii) the cumulative moving
//! standard deviation of page offsets, (iv) the mean absolute page offset
//! differences for consecutive tracepoints, and (v) the current readahead
//! value."
//!
//! Features (ii)–(iii) are *cumulative* — they integrate over the whole run
//! (that is what separates a forward scan, whose running average climbs,
//! from a backward scan, whose running average sinks). Features (i) and
//! (iv) are per-window. Z-scoring happens in the model's attached
//! normalizer, fitted on training data.

use kernel_sim::TraceRecord;
use kml_collect::featurize::{Channel, WindowedFeatures};

/// Number of features the readahead models consume.
pub const NUM_FEATURES: usize = 5;

/// One extracted feature vector (one per window).
pub type FeatureVector = [f64; NUM_FEATURES];

/// Streaming feature extractor over the tracepoint stream.
///
/// Feed every [`TraceRecord`] with [`FeatureExtractor::push`]; call
/// [`FeatureExtractor::roll_window`] at each window boundary (once per
/// simulated second in the closed loop) to obtain the feature vector for
/// the elapsed window.
///
/// # Example
///
/// ```
/// use readahead::features::FeatureExtractor;
/// use kernel_sim::{TraceKind, TraceRecord};
///
/// let mut fx = FeatureExtractor::new();
/// for i in 0..100u64 {
///     fx.push(&TraceRecord {
///         kind: TraceKind::AddToPageCache,
///         inode: 1,
///         page_offset: i,       // perfectly sequential
///         time_ns: i * 1000,
///     });
/// }
/// let f = fx.roll_window(128.0);
/// assert_eq!(f[0], 100.0);          // tracepoints in window
/// assert!((f[3] - 1.0).abs() < 1e-9); // mean |Δoffset| = 1 (sequential)
/// assert_eq!(f[4], 128.0);          // current readahead
/// ```
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    /// The shared window engine: channel 0 is the cumulative offset
    /// statistics (paper features ii–iii), channel 1 the per-window mean
    /// absolute consecutive-offset difference (feature iv).
    windows: WindowedFeatures,
}

/// Channel index of the cumulative offset statistics.
const CH_OFFSET: usize = 0;
/// Channel index of the per-window |Δoffset| accumulator.
const CH_ABSDIFF: usize = 1;

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            windows: WindowedFeatures::new(vec![Channel::cumulative(), Channel::window_abs_diff()]),
        }
    }
}

impl FeatureExtractor {
    /// Creates an empty extractor.
    pub fn new() -> Self {
        FeatureExtractor::default()
    }

    /// Folds one tracepoint record into the current window.
    #[inline]
    pub fn push(&mut self, record: &TraceRecord) {
        let offset = record.page_offset as f64;
        self.windows.push_f64(CH_OFFSET, offset);
        self.windows.push_f64(CH_ABSDIFF, offset);
        self.windows.record();
    }

    /// Closes the current window and returns its feature vector.
    /// `current_ra_kb` is feature (v), the readahead value in force.
    ///
    /// Per-window accumulators reset; cumulative statistics persist.
    pub fn roll_window(&mut self, current_ra_kb: f64) -> FeatureVector {
        let features = [
            self.windows.window_count() as f64,
            self.windows.mean(CH_OFFSET),
            self.windows.std(CH_OFFSET),
            self.windows.mean(CH_ABSDIFF),
            current_ra_kb,
        ];
        self.windows.roll();
        features
    }

    /// Records pushed into the current (open) window.
    pub fn window_count(&self) -> u64 {
        self.windows.window_count()
    }

    /// Records pushed since creation.
    pub fn total(&self) -> u64 {
        self.windows.total()
    }

    /// Resets everything, including the cumulative statistics (a fresh run).
    pub fn reset(&mut self) {
        self.windows.reset();
    }
}

/// Un-cumulates the extractor's offset channels: features (ii)–(iii)
/// integrate over the whole run, so a step change in the workload shows
/// there only as an asymptotic ramp. Running Σoffset / Σoffset² totals
/// recover the mean and std of each window alone — what a drift detector
/// needs to see a pivot as a step (DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowMoments {
    total_records: f64,
    sum_offset: f64,
    sum_offset2: f64,
}

impl WindowMoments {
    /// The per-window `(mean, std)` of page offsets behind `raw`, the
    /// vector [`FeatureExtractor::roll_window`] just returned; `(0, 0)` for
    /// a window with no records. Feed it every window, in order.
    pub fn window(&mut self, raw: &FeatureVector) -> (f64, f64) {
        let n = raw[0];
        if n <= 0.0 {
            return (0.0, 0.0);
        }
        let total = self.total_records + n;
        let sum = raw[1] * total;
        let sum2 = (raw[2] * raw[2] + raw[1] * raw[1]) * total;
        let wm = (sum - self.sum_offset) / n;
        let we2 = (sum2 - self.sum_offset2) / n;
        self.total_records = total;
        self.sum_offset = sum;
        self.sum_offset2 = sum2;
        (wm, (we2 - wm * wm).max(0.0).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::TraceKind;

    fn rec(offset: u64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::AddToPageCache,
            inode: 1,
            page_offset: offset,
            time_ns: 0,
        }
    }

    #[test]
    fn sequential_and_random_streams_differ_in_absdiff() {
        let mut seq = FeatureExtractor::new();
        for i in 0..1000 {
            seq.push(&rec(i));
        }
        let fseq = seq.roll_window(128.0);

        let mut random = FeatureExtractor::new();
        let mut x = 99u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            random.push(&rec(x % 100_000));
        }
        let frand = random.roll_window(128.0);

        assert!(fseq[3] < 2.0);
        assert!(frand[3] > 1_000.0);
        assert!(frand[2] > fseq[2], "random std should exceed sequential");
    }

    #[test]
    fn forward_and_backward_scans_differ_in_cumulative_mean_trajectory() {
        let n = 10_000u64;
        let mut fwd = FeatureExtractor::new();
        let mut bwd = FeatureExtractor::new();
        // First half of each scan.
        for i in 0..n / 2 {
            fwd.push(&rec(i));
            bwd.push(&rec(n - 1 - i));
        }
        let f_fwd = fwd.roll_window(128.0);
        let f_bwd = bwd.roll_window(128.0);
        // Forward scan's running average sits low, backward's sits high.
        assert!(f_fwd[1] < n as f64 * 0.3);
        assert!(f_bwd[1] > n as f64 * 0.7);
        // Both look "sequential" by absolute diff.
        assert!((f_fwd[3] - 1.0).abs() < 1e-9);
        assert!((f_bwd[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_counters_reset_but_cumulative_persists() {
        let mut fx = FeatureExtractor::new();
        for i in 0..10 {
            fx.push(&rec(i));
        }
        let w1 = fx.roll_window(128.0);
        assert_eq!(w1[0], 10.0);
        assert_eq!(fx.window_count(), 0);
        for i in 10..15 {
            fx.push(&rec(i));
        }
        let w2 = fx.roll_window(128.0);
        assert_eq!(w2[0], 5.0);
        // Cumulative mean covers all 15 offsets 0..15 → mean 7.
        assert!((w2[1] - 7.0).abs() < 1e-9);
        assert_eq!(fx.total(), 15);
    }

    #[test]
    fn empty_window_yields_neutral_features() {
        let mut fx = FeatureExtractor::new();
        let f = fx.roll_window(64.0);
        assert_eq!(f, [0.0, 0.0, 0.0, 0.0, 64.0]);
    }

    #[test]
    fn reset_clears_cumulative_state() {
        let mut fx = FeatureExtractor::new();
        for i in 0..100 {
            fx.push(&rec(i * 1000));
        }
        fx.reset();
        fx.push(&rec(5));
        let f = fx.roll_window(8.0);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 5.0);
        assert_eq!(f[2], 0.0);
    }

    /// The outputs of the inline featurization this module used before the
    /// shared `kml_collect::featurize` engine existed, frozen as golden
    /// vectors (the kml-dst pinned trace hashes depend on them): two whole
    /// windows, and the FNV-1a of every feature's bits over all fifty, as
    /// that code computed them before it was deleted.
    #[test]
    fn shared_engine_reproduces_the_frozen_legacy_featurization() {
        let mut fx = FeatureExtractor::new();
        let mut digest = kml_platform::bytes::Fnv1a::new();
        let mut x = 0xDEAD_BEEFu64;
        for window in 0..50u64 {
            // Vary window sizes and access patterns (empty windows included).
            let n = (window * 7) % 13;
            for i in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let offset = if window % 3 == 0 {
                    window * 100 + i
                } else {
                    x % 1_000_000
                };
                fx.push(&rec(offset));
            }
            let ra = [16.0, 128.0, 1024.0][(window % 3) as usize];
            let f = fx.roll_window(ra);
            let golden = match window {
                4 => [2.0, 299784.05555555556, 315139.30336360284, 292017.0, 128.0],
                49 => [5.0, 345997.18707482994, 333723.2780827171, 583610.0, 128.0],
                _ => f,
            };
            assert_eq!(
                f.map(f64::to_bits),
                golden.map(f64::to_bits),
                "window {window}"
            );
            f.iter().for_each(|v| digest.fold_u64(v.to_bits()));
        }
        assert_eq!(digest.finish(), 0x0746_66f7_8784_f57b);
        assert_eq!(fx.total(), 294);
    }

    #[test]
    fn absdiff_does_not_leak_across_windows() {
        let mut fx = FeatureExtractor::new();
        fx.push(&rec(0));
        fx.push(&rec(1_000_000));
        fx.roll_window(128.0);
        // New window: first diff pair starts fresh.
        fx.push(&rec(10));
        fx.push(&rec(11));
        let f = fx.roll_window(128.0);
        assert!((f[3] - 1.0).abs() < 1e-9, "window absdiff leaked: {}", f[3]);
    }
}
