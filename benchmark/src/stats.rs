//! The harness's own arithmetic: quartiles, the tail percentile a sample
//! count supports, a fixed-size log-linear histogram, and the FNV digest
//! that folds a workload's deterministic outcome into one number.

/// Quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the rule the
/// benchmark contract uses to judge spread, so the q1/q3 printed here are
/// the ones a reviewer recomputes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). One sample is its own quartiles;
    /// an empty sample is all zeros with `n == 0`.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        match m {
            0 => Quartiles {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                n: 0,
            },
            1 => Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n: 1,
            },
            _ => {
                let cut = |i: usize| {
                    let j = (i * (m + 1) / 4).clamp(1, m - 1);
                    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Quartiles {
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                    n: m,
                }
            }
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// The highest of the standard percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the only tail a sample of that
/// size can support. `None` below 20 samples (not even the median has ten
/// beyond it).
pub fn supported_tail(n: u64) -> Option<f64> {
    // (percentile, samples beyond it per thousand): integers, so that ten
    // thousand samples do support p99.9.
    [
        (99.9, 1),
        (99.0, 10),
        (95.0, 50),
        (90.0, 100),
        (75.0, 250),
        (50.0, 500),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond >= 10_000)
    .map(|(p, _)| p)
}

/// Sub-buckets per power of two: relative bucket width ≤ 1/16 (6.25 %).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every octave above adds
/// `SUB` buckets, up to `u64::MAX`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A fixed-size log-linear histogram of `u64` samples (nanoseconds, here):
/// no allocation after construction, exact below 16, ≤ 6.25 % wide above.
#[derive(Debug, Clone)]
pub struct LogLinHist {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
}

impl Default for LogLinHist {
    fn default() -> Self {
        LogLinHist {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
        }
    }
}

impl LogLinHist {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        SUB + octave * SUB + sub
    }

    /// Smallest value that lands in `bucket`.
    fn bucket_floor(bucket: usize) -> u64 {
        if bucket < SUB {
            return bucket as u64;
        }
        let octave = (bucket - SUB) / SUB;
        let sub = (bucket - SUB) % SUB;
        ((SUB + sub) as u64) << octave
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The floor of the bucket holding the `p`-th percentile sample
    /// (nearest-rank); 0 for an empty histogram. Bucket floors make the
    /// result exact-repeatable: the same samples give the same number.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        u64::MAX
    }

    /// The supported tail of this histogram: `(percentile, value)`, or
    /// `None` under 20 samples.
    pub fn tail(&self) -> Option<(f64, u64)> {
        supported_tail(self.count).map(|p| (p, self.percentile(p)))
    }
}

/// FNV-1a over 64-bit words: the `sim_digest` of a workload. Everything
/// folded in is deterministic (simulated time, counts, knobs, classes,
/// artifact bytes), so two runs of the same code on the same seed print the
/// same digest, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = Quartiles::of(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let q = Quartiles::of(&[3.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.5, 4.0, 5.5));
        assert!((Quartiles::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples_do_not_panic() {
        assert_eq!(Quartiles::of(&[]).n, 0);
        assert_eq!(median(&[]), 0.0);
        let one = Quartiles::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(one.spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        // Floors are fixed points, and consecutive buckets never overlap.
        for b in 0..BUCKETS {
            let floor = LogLinHist::bucket_floor(b);
            assert_eq!(LogLinHist::bucket_of(floor), b, "bucket {b}");
            if b + 1 < BUCKETS {
                let next = LogLinHist::bucket_floor(b + 1);
                assert!(next > floor);
                assert_eq!(LogLinHist::bucket_of(next - 1), b);
            }
        }
        assert_eq!(LogLinHist::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_are_within_one_bucket() {
        let mut h = LogLinHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
        for (p, exact) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p) as f64;
            assert!(
                got <= exact && got >= exact * (1.0 - 1.0 / 16.0),
                "p{p}: {got}"
            );
        }
        assert_eq!(h.tail(), Some((99.9, h.percentile(99.9))));
        assert_eq!(LogLinHist::new().percentile(99.0), 0);
        // Small values are exact.
        let mut small = LogLinHist::new();
        small.record(3);
        assert_eq!(small.percentile(50.0), 3);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        // FNV-1a of the empty input and of "a" (published test vectors).
        assert_eq!(Digest::new().value(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").value(), 0xAF63_DC4C_8601_EC8C);
        let ab = Digest::new().u64(1).u64(2).value();
        let ba = Digest::new().u64(2).u64(1).value();
        assert_ne!(ab, ba);
        assert_eq!(ab, Digest::new().u64(1).u64(2).value());
    }
}
