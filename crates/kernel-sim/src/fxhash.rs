//! Inline FxHash-style hasher for the page cache's index.
//!
//! `std`'s default hasher is SipHash-1-3, which buys HashDoS
//! resistance the simulator does not need (keys are internal inode/page
//! numbers, not attacker-controlled input) at the cost of ~1-2 ns per byte.
//! The page cache hashes a key per simulated I/O, so the hasher sits on the
//! same per-event budget the paper polices for its instrumentation (~49
//! ns/event, E5). This module inlines the rustc-hash "Fx" mixing function —
//! multiply by a golden-ratio-derived odd constant and rotate — instead of
//! adding a dependency.
//!
//! Determinism is also a feature: Fx has no per-process random seed, so
//! iteration-order-independent results stay byte-identical across runs and
//! worker counts (required by the parallel experiment sweeps).

use std::hash::Hasher;

/// Multiplicative constant from rustc-hash: `2^64 / φ`, forced odd.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast, non-cryptographic, deterministic hasher (FxHash function).
///
/// Each word is folded in as `hash = (hash.rotate_left(5) ^ word) * SEED`.
/// Good dispersion for small integer keys like `(inode, page_index)`;
/// **not** resistant to engineered collisions — internal keys only.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let key: (u64, u64) = (42, 1 << 20);
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn nearby_page_keys_disperse() {
        // Sequential page indexes on one inode — the common access pattern —
        // must not collide or cluster into the same low bits.
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..1024u64).map(|p| hash_of(&(7u64, p))).collect();
        assert_eq!(hashes.len(), 1024, "collisions among sequential pages");
        let low_bits: HashSet<u64> = hashes.iter().map(|h| h & 0x7f).collect();
        assert!(
            low_bits.len() > 100,
            "low bits degenerate: {}",
            low_bits.len()
        );
    }

    #[test]
    fn partial_tail_bytes_affect_hash() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
