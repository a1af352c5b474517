//! The training-data reservoir: seeded deterministic sampling over the
//! live window stream.
//!
//! Classic Algorithm R keeps a uniform sample but its contents depend on
//! the order items arrive — useless here, where the same logical stream
//! may be ingested by different worker interleavings and the result must
//! still be byte-identical at any `--threads`. This reservoir uses
//! **bottom-k priority sampling** instead: every sample gets a priority
//! `splitmix64(seed ⊕ mix(id))` from its unique deterministic id (the
//! window sequence number), and the reservoir keeps the `k` smallest
//! `(priority, id)` pairs. The kept set is a pure function of
//! `(seed, {ids})` — independent of ingestion order, mergeable across
//! shards, and uniform over the ids seen (each id's priority is an
//! independent uniform draw, so the k smallest are a uniform k-subset).

use kml_platform::bytes::Fnv1a;
use kml_platform::sampler::{splitmix64, GOLDEN_GAMMA};

/// One splitmix64 step from state `x`: advance the counter, mix.
fn splitmix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// Feature width every reservoir sample carries — the shared window width
/// of all three deployed loops (readahead, iosched pads, netfs rsize).
pub const RESERVOIR_DIM: usize = 5;

/// One retained training sample: a window's feature vector plus the
/// deterministic label the heuristic oracle assigned it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReservoirSample {
    /// Unique deterministic sample id (the window sequence number).
    pub id: u64,
    /// `splitmix64(seed ⊕ mix(id))` — the bottom-k sort key.
    pub priority: u64,
    /// The window's feature vector.
    pub features: [f64; RESERVOIR_DIM],
    /// Training label from the deterministic heuristic oracle.
    pub label: usize,
}

/// A seeded bottom-k priority-sampling reservoir. See the module docs.
#[derive(Debug, Clone)]
pub struct Reservoir {
    seed: u64,
    capacity: usize,
    seen: u64,
    /// Kept samples, sorted ascending by `(priority, id)`.
    samples: Vec<ReservoirSample>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity — a reservoir that can keep nothing is a
    /// configuration bug, not a runtime condition.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(
            capacity > 0,
            "reservoir needs capacity for at least one sample"
        );
        Reservoir {
            seed,
            capacity,
            seen: 0,
            samples: Vec::with_capacity(capacity.min(4096)),
        }
    }

    /// The priority `id` would sample under this reservoir's seed.
    pub fn priority_of(&self, id: u64) -> u64 {
        splitmix(self.seed ^ splitmix(id))
    }

    /// Offers one sample. Returns whether it is retained (a duplicate id
    /// is never double-counted: re-offering an id the reservoir already
    /// holds is a no-op so shard replays cannot skew the sample).
    pub fn offer(&mut self, id: u64, features: [f64; RESERVOIR_DIM], label: usize) -> bool {
        self.seen += 1;
        let priority = self.priority_of(id);
        let key = (priority, id);
        let pos = self
            .samples
            .binary_search_by_key(&key, |s| (s.priority, s.id));
        let pos = match pos {
            Ok(_) => return false, // already held
            Err(pos) => pos,
        };
        if self.samples.len() == self.capacity {
            if pos == self.capacity {
                return false; // larger than everything kept
            }
            self.samples.pop();
        }
        self.samples.insert(
            pos,
            ReservoirSample {
                id,
                priority,
                features,
                label,
            },
        );
        true
    }

    /// Merges another reservoir (same seed, same capacity) into this one,
    /// keeping the k smallest priorities of the union — exactly what one
    /// reservoir fed both streams would hold.
    pub fn merge(&mut self, other: &Reservoir) {
        debug_assert_eq!(
            self.seed, other.seed,
            "merging differently-seeded reservoirs"
        );
        self.seen += other.seen;
        for s in &other.samples {
            let key = (s.priority, s.id);
            let pos = self
                .samples
                .binary_search_by_key(&key, |r| (r.priority, r.id));
            let pos = match pos {
                Ok(_) => continue,
                Err(pos) => pos,
            };
            if self.samples.len() == self.capacity {
                if pos == self.capacity {
                    continue;
                }
                self.samples.pop();
            }
            self.samples.insert(pos, *s);
        }
    }

    /// Samples currently held, sorted ascending by `(priority, id)` — a
    /// canonical order, so equal contents are equal slices.
    pub fn samples(&self) -> &[ReservoirSample] {
        &self.samples
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing is retained yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Offers observed (including rejected and duplicate ones).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Maximum samples kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// FNV-1a over the canonical byte encoding of the kept set (ids,
    /// priorities, feature bits, labels, in sorted order). Two reservoirs
    /// with the same hash hold byte-identical training data.
    pub fn contents_hash(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for s in &self.samples {
            hash.fold_u64(s.id);
            hash.fold_u64(s.priority);
            for f in &s.features {
                hash.fold_u64(f.to_bits());
            }
            hash.fold_u64(s.label as u64);
        }
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(x: f64) -> [f64; RESERVOIR_DIM] {
        [x, x + 1.0, x + 2.0, x + 3.0, x + 4.0]
    }

    #[test]
    fn contents_are_order_independent() {
        let mut fwd = Reservoir::new(8, 42);
        let mut rev = Reservoir::new(8, 42);
        for id in 0..100u64 {
            fwd.offer(id, feat(id as f64), (id % 2) as usize);
        }
        for id in (0..100u64).rev() {
            rev.offer(id, feat(id as f64), (id % 2) as usize);
        }
        assert_eq!(fwd.samples(), rev.samples());
        assert_eq!(fwd.contents_hash(), rev.contents_hash());
    }

    #[test]
    fn capacity_is_respected_and_small_streams_keep_everything() {
        let mut r = Reservoir::new(16, 7);
        for id in 0..10u64 {
            assert!(
                r.offer(id, feat(0.0), 0),
                "under capacity, everything is kept"
            );
        }
        assert_eq!(r.len(), 10);
        for id in 10..1000u64 {
            r.offer(id, feat(0.0), 0);
        }
        assert_eq!(r.len(), 16);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let ids: Vec<u64> = (0..200).collect();
        let mut whole = Reservoir::new(12, 9);
        for &id in &ids {
            whole.offer(id, feat(id as f64), 0);
        }
        let mut left = Reservoir::new(12, 9);
        let mut right = Reservoir::new(12, 9);
        for &id in &ids {
            if id % 2 == 0 {
                left.offer(id, feat(id as f64), 0);
            } else {
                right.offer(id, feat(id as f64), 0);
            }
        }
        left.merge(&right);
        assert_eq!(left.samples(), whole.samples());
        assert_eq!(left.seen(), whole.seen());
    }

    #[test]
    fn duplicate_ids_are_not_double_counted() {
        let mut r = Reservoir::new(4, 3);
        assert!(r.offer(1, feat(1.0), 0));
        assert!(!r.offer(1, feat(9.0), 1), "re-offered id must be a no-op");
        assert_eq!(r.len(), 1);
        assert_eq!(r.samples()[0].features, feat(1.0), "first offer wins");
    }

    #[test]
    fn different_seeds_keep_different_subsets() {
        let mut a = Reservoir::new(8, 1);
        let mut b = Reservoir::new(8, 2);
        for id in 0..256u64 {
            a.offer(id, feat(0.0), 0);
            b.offer(id, feat(0.0), 0);
        }
        let ids_a: Vec<u64> = a.samples().iter().map(|s| s.id).collect();
        let ids_b: Vec<u64> = b.samples().iter().map(|s| s.id).collect();
        assert_ne!(ids_a, ids_b, "seed must steer the kept subset");
    }

    /// The priorities of ids 0..8 at seed 7, recorded on the parent commit
    /// (1fb2a81), before the mix moved to `kml_platform::sampler`.
    #[test]
    fn priorities_match_the_parent_commit() {
        let r = Reservoir::new(8, 7);
        assert_eq!(
            [0, 1, 2, 3, 4, 5, 6, 7].map(|id| r.priority_of(id)),
            [
                0x64bf_61b5_12ff_abe7,
                0x7716_da39_cba2_75b2,
                0x1b97_30bf_3fc5_de36,
                0xe880_a903_bcff_6547,
                0x435e_b231_96e4_7bda,
                0x8ea5_269b_74de_e2bc,
                0x2b40_f785_f684_cbe3,
                0x3a3b_fc2b_f948_c770,
            ]
        );
    }
}
