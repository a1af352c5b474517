//! Log2-bucketed histogram with percentile extraction.
//!
//! 65 buckets: bucket 0 holds exact zeros, bucket `b` (1..=64) holds values
//! in `[2^(b-1), 2^b)`. Recording is two relaxed `fetch_add`s (bucket +
//! sum); reading walks 65 cells. Percentiles are bucket-resolution
//! estimates — within a factor of 2, which is exactly the precision the
//! paper's overhead discussion needs (collection ≪ inference ≪ training
//! spans four orders of magnitude).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BUCKETS: usize = 65;

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Lock-free log2 histogram handle. Cloning shares the buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Option<Arc<HistogramCore>>,
}

impl std::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramCore").finish_non_exhaustive()
    }
}

#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Upper bound (exclusive) of bucket `b`; `1` for the zero bucket.
fn bucket_hi(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// Lower bound (inclusive) of bucket `b`.
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

impl Histogram {
    /// Handle that records nothing.
    pub fn noop() -> Self {
        Histogram::default()
    }

    pub(crate) fn new_live() -> Self {
        Histogram {
            inner: Some(Arc::new(HistogramCore::default())),
        }
    }

    /// Whether this handle has live storage behind it.
    #[inline]
    pub(crate) fn live(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one observation. Two relaxed `fetch_add`s.
    #[inline(always)]
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.inner {
            core.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        if let Some(core) = &self.inner {
            let buckets: Vec<u64> = core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let count: u64 = buckets.iter().sum();
            let sum = core.sum.load(Ordering::Relaxed);
            return HistSnapshot {
                count,
                sum,
                p50: percentile_from(&buckets, count, 0.50),
                p95: percentile_from(&buckets, count, 0.95),
                p99: percentile_from(&buckets, count, 0.99),
                max: max_from(&buckets),
            };
        }
        HistSnapshot::default()
    }

    pub(crate) fn reset(&self) {
        if let Some(core) = &self.inner {
            for b in &core.buckets {
                b.store(0, Ordering::Relaxed);
            }
            core.sum.store(0, Ordering::Relaxed);
        }
    }
}

/// Immutable summary of a [`Histogram`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Bucket-resolution estimates (midpoint of the containing bucket).
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// Upper edge of the highest occupied bucket (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Arithmetic mean (exact: true sum over true count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

fn percentile_from(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Rank of the q-th percentile, 1-based.
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (b, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            // Midpoint of the bucket's value range.
            let lo = bucket_lo(b);
            let hi = bucket_hi(b);
            return lo + (hi - lo) / 2;
        }
    }
    bucket_hi(buckets.len() - 1)
}

fn max_from(buckets: &[u64]) -> u64 {
    buckets
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &n)| n > 0)
        .map(|(b, _)| bucket_hi(b))
        .unwrap_or(0)
}

/// Plain single-owner log2 histogram — same bucketing as [`Histogram`],
/// but with no atomics and no no-op mode, and **mergeable**:
/// shard-local histograms fold into an aggregate with [`Log2Hist::merge`], and the merge is *exact* — merging per-shard
/// histograms yields bit-for-bit the histogram of the concatenated
/// samples, so fleet-wide p50/p99 are independent of how tenants were
/// sharded. This is what makes `repro fleet` byte-identical at any
/// `--threads` count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Folds `other` into `self` (exact: bucket-wise addition).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket-resolution percentile estimate (midpoint of the containing
    /// bucket), `q` in `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from(&self.buckets, self.count, q)
    }

    /// Point-in-time summary, same shape as [`Histogram::snapshot`].
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: max_from(&self.buckets),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn percentiles_order_and_bound() {
        let h = Histogram::new_live();
        // 90 fast ops (~100 ns), 9 medium (~10 µs), 1 slow (~1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 9 * 10_000 + 1_000_000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        // p50 lands in the bucket containing 100 = [64, 128).
        assert!((64..128).contains(&s.p50), "p50 {}", s.p50);
        // p95 and p99 (ranks 95 and 99 of 100) land in the bucket
        // containing 10_000 = [8192, 16384); only rank 100 is the slow op.
        assert!((8_192..16_384).contains(&s.p95), "p95 {}", s.p95);
        assert!((8_192..16_384).contains(&s.p99), "p99 {}", s.p99);
        assert!(s.max >= 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::noop();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new_live();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.snapshot().mean(), 2.5);
    }

    /// The satellite exactness contract: merging per-shard histograms is
    /// bit-identical to recording the concatenated sample stream into one
    /// histogram — buckets, count, sum, and therefore every percentile.
    #[test]
    fn merge_of_shard_histograms_equals_histogram_of_concatenated_samples() {
        // Deterministic value stream spanning many buckets (incl. zeros).
        let mut x = 0x5EED_1234u64;
        let samples: Vec<u64> = (0..10_000)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i % 97 == 0 {
                    0
                } else {
                    x >> (x % 50) as u32
                }
            })
            .collect();
        for shards in [1usize, 3, 8] {
            let mut parts: Vec<Log2Hist> = vec![Log2Hist::new(); shards];
            let mut whole = Log2Hist::new();
            for (i, &v) in samples.iter().enumerate() {
                parts[i % shards].record(v);
                whole.record(v);
            }
            let mut merged = Log2Hist::new();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "{shards} shards");
            assert_eq!(merged.snapshot(), whole.snapshot());
        }
    }

    #[test]
    fn log2hist_percentiles_match_the_atomic_histogram() {
        let mut plain = Log2Hist::new();
        for _ in 0..90 {
            plain.record(100);
        }
        for _ in 0..9 {
            plain.record(10_000);
        }
        plain.record(1_000_000);
        let s = plain.snapshot();
        assert_eq!(s.count, 100);
        assert!((64..128).contains(&s.p50), "p50 {}", s.p50);
        assert!((8_192..16_384).contains(&s.p99), "p99 {}", s.p99);
        assert!(s.max >= 1_000_000);
        assert_eq!(plain.sum(), 90 * 100 + 9 * 10_000 + 1_000_000);
        // Empty histogram degenerates cleanly.
        assert_eq!(Log2Hist::new().snapshot(), HistSnapshot::default());
    }

    #[test]
    fn zero_values_counted_in_zero_bucket() {
        let h = Histogram::new_live();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 0);
    }
}
