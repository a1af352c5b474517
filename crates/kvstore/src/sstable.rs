//! Sorted string tables: the on-"disk" format of the LSM store.
//!
//! An SSTable holds a sorted run of keys partitioned into fixed-size blocks
//! (default 4 pages = 16 KiB, the RocksDB-ish block size whose multi-page
//! reads interact with kernel readahead — see `kernel_sim::readahead`).
//! The block *index* — the first key of every block — is resident (as
//! RocksDB pins index blocks), so a point read searches the index, then one
//! block, and costs exactly one block read; scans walk blocks in order.

use kernel_sim::{FileId, IoResult, Sim};

/// Pages per data block.
pub const BLOCK_PAGES: u64 = 4;

/// Exact `x % n` for a divisor fixed at construction, without the hardware
/// divide: one multiply-high by a precomputed reciprocal, two shifts and a
/// multiply-subtract (Granlund–Montgomery, round-up form; DESIGN.md §16).
#[derive(Debug, Clone, Copy)]
struct Modulus {
    n: u64,
    /// `⌊2^64 · (2^l − n) / n⌋ + 1` with `l = ⌈log2 n⌉`.
    magic: u64,
    /// `l − 1`.
    shift: u32,
}

impl Modulus {
    /// # Panics
    ///
    /// Panics if `n < 2` (the round-up form's first shift is by one bit).
    fn new(n: u64) -> Modulus {
        assert!(n >= 2, "modulus must be at least 2");
        let l = 64 - (n - 1).leading_zeros();
        // 2^(l-1) < n <= 2^l, so 2^l − n < n and the quotient fits 64 bits.
        let magic = ((((1u128 << l) - n as u128) << 64) / n as u128) as u64 + 1;
        Modulus {
            n,
            magic,
            shift: l - 1,
        }
    }

    #[inline]
    fn rem(&self, x: u64) -> u64 {
        let t = ((self.magic as u128 * x as u128) >> 64) as u64;
        // t <= x, so neither the difference nor the sum leaves 64 bits.
        let q = (t + ((x - t) >> 1)) >> self.shift;
        x - q * self.n
    }
}

/// A plain Bloom filter over the table's keys — one bit array, every probe
/// anywhere in it (RocksDB enables one per table by default): ~10 bits/key,
/// k=7 probes, giving ≈1% false positives. The bit count is at least 64 and
/// fixed for the filter's life, which is what lets `modulus` hold its
/// reciprocal. Point lookups for absent keys skip the block read with 99%
/// probability — the read-amplification saver that makes L0 stacks tolerable.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Reduces a hash to a bit position: `x % num_bits`.
    modulus: Modulus,
}

impl BloomFilter {
    const BITS_PER_KEY: usize = 10;
    const PROBES: u32 = 7;

    /// Builds a filter sized for `keys`.
    pub fn build(keys: &[u64]) -> BloomFilter {
        let num_bits = (keys.len() * Self::BITS_PER_KEY).max(64) as u64;
        let modulus = Modulus::new(num_bits);
        let mut bits = vec![0u64; num_bits.div_ceil(64) as usize];
        for &k in keys {
            let (mut h1, h2) = Self::hashes(k);
            for _ in 0..Self::PROBES {
                let bit = modulus.rem(h1);
                bits[(bit / 64) as usize] |= 1 << (bit % 64);
                h1 = h1.wrapping_add(h2);
            }
        }
        BloomFilter { bits, modulus }
    }

    /// Whether `key` may be present (false ⇒ definitely absent).
    pub fn may_contain(&self, key: u64) -> bool {
        let (mut h1, h2) = Self::hashes(key);
        for _ in 0..Self::PROBES {
            let bit = self.modulus.rem(h1);
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
            h1 = h1.wrapping_add(h2);
        }
        true
    }

    /// Double hashing: two independent 64-bit mixes of the key.
    fn hashes(key: u64) -> (u64, u64) {
        let mut h = key.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        let h2 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) | 1; // odd increment ⇒ full-period probing
        (h, h2)
    }
}

/// A single immutable sorted table.
#[derive(Debug, Clone)]
pub struct SsTable {
    /// Backing simulated file.
    file: FileId,
    /// Sorted keys, grouped into blocks of `entries_per_block`.
    keys: Vec<u64>,
    /// Entries per block (how many keys share one block read).
    entries_per_block: usize,
    /// First key of every block: what a lookup searches before it touches
    /// `keys`, 8 bytes per block against 8 per key.
    index: Vec<u64>,
    /// Total pages occupied (for compaction read costing).
    pages: u64,
    /// Per-table Bloom filter (resident, like RocksDB's filter blocks).
    bloom: BloomFilter,
}

impl SsTable {
    /// Builds a table from a sorted, deduplicated run of keys, charging the
    /// simulator for writing every page sequentially. On an injected device
    /// error the build fails *before* the table exists: the caller keeps
    /// its in-memory data and may retry (the partially-written file is
    /// abandoned, like an aborted `.sst` creation).
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or not strictly ascending.
    pub fn build(sim: &mut Sim, keys: Vec<u64>, entries_per_block: usize) -> IoResult<SsTable> {
        assert!(!keys.is_empty(), "sstable must hold at least one key");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "sstable keys must be strictly ascending"
        );
        let blocks = keys.len().div_ceil(entries_per_block) as u64;
        let pages = blocks * BLOCK_PAGES;
        let file = write_file(sim, pages)?;
        // The resident state: a function of the key set and the block size
        // alone, which is what lets `rewrite` keep it (DESIGN.md §14).
        let bloom = BloomFilter::build(&keys);
        let index = keys.iter().step_by(entries_per_block).copied().collect();
        Ok(SsTable {
            file,
            keys,
            entries_per_block,
            index,
            pages,
            bloom,
        })
    }

    /// Writes the table again, page for page, to a new file and serves
    /// from that one: the table `build` would make from the same keys, at
    /// the same simulated cost, without deriving its keys, index and filter
    /// again. On an injected device error the table is left as it was.
    pub(crate) fn rewrite(&mut self, sim: &mut Sim) -> IoResult<()> {
        self.file = write_file(sim, self.pages)?;
        Ok(())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table is empty (never true for built tables).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Smallest key.
    pub fn min_key(&self) -> u64 {
        self.keys[0]
    }

    /// Largest key.
    pub fn max_key(&self) -> u64 {
        *self.keys.last().expect("non-empty")
    }

    /// Pages occupied on the simulated device.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The sorted keys (for merges).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Point lookup: returns whether the key exists, charging one block
    /// read if the key is within range and passes the Bloom filter. The
    /// block read may fail under an injected fault plan.
    pub fn get(&self, sim: &mut Sim, key: u64) -> IoResult<bool> {
        if key < self.min_key() || key > self.max_key() {
            return Ok(false); // index says "not here": no I/O
        }
        if !self.bloom.may_contain(key) {
            return Ok(false); // filter says "definitely not here": no I/O
        }
        // The insertion point is the key's own position when present; when
        // absent (a Bloom false positive, ~1%) the block it would sit in is
        // still read before absence is known, exactly like RocksDB. It is
        // in bounds: `key <= max_key`.
        let idx = self.lower_bound(key);
        self.read_block_of(sim, idx)?;
        Ok(self.keys[idx] == key)
    }

    /// Charges one read of the block holding the key at `key_idx` (scans
    /// call it once per block they enter).
    pub fn read_block_of(&self, sim: &mut Sim, key_idx: usize) -> IoResult<()> {
        let block = (key_idx / self.entries_per_block) as u64;
        sim.read(self.file, block * BLOCK_PAGES, BLOCK_PAGES)?;
        Ok(())
    }

    /// Charges a full sequential read of the table (compaction input).
    pub fn read_all(&self, sim: &mut Sim) -> IoResult<()> {
        let mut page = 0;
        while page < self.pages {
            let chunk = (self.pages - page).min(BLOCK_PAGES);
            sim.read(self.file, page, chunk)?;
            page += chunk;
        }
        Ok(())
    }

    /// Index of the first key ≥ `key`: the last block whose first key is
    /// ≤ `key` holds it, or everything in that block is smaller and the
    /// answer is the block's end.
    pub fn lower_bound(&self, key: u64) -> usize {
        let Some(block) = self
            .index
            .partition_point(|&first| first <= key)
            .checked_sub(1)
        else {
            return 0; // below the first key
        };
        let start = block * self.entries_per_block;
        let end = (start + self.entries_per_block).min(self.keys.len());
        let keys = &self.keys[start..end];
        // Ask for every line of the block at once: the search below then
        // waits for one miss, not one per halving that crosses a line.
        keys.iter().step_by(KEYS_PER_LINE).for_each(prefetch);
        prefetch(&keys[keys.len() - 1]);
        start + keys.partition_point(|&k| k < key)
    }
}

/// Creates a file of `pages` and writes it sequentially, 32 pages a
/// request, then syncs: table data must be durable before serving reads.
fn write_file(sim: &mut Sim, pages: u64) -> IoResult<FileId> {
    let file = sim.create_file(pages);
    let mut page = 0;
    while page < pages {
        let chunk = (pages - page).min(32);
        sim.write(file, page, chunk)?;
        page += chunk;
    }
    sim.sync()?;
    Ok(file)
}

/// Keys per 64-byte cache line.
const KEYS_PER_LINE: usize = 8;

/// Hints the cache line holding `*p` towards L1. A no-op where the target
/// has no such instruction. The crate's one prefetch: the block search above
/// and `mixgraph`'s draw-ahead both call it.
#[inline(always)]
pub(crate) fn prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and changes no architectural state,
    // `p` is a live reference, and SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(p).cast());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above; `prfm` is a hint in the base instruction set.
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) std::ptr::from_ref(p),
            options(nostack, readonly, preserves_flags)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, SimConfig, TraceRecord};
    use kml_collect::ringbuf::Consumer;
    use kml_collect::RingBuffer;
    use proptest::prelude::*;

    fn sim() -> Sim {
        Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 4096,
            ..SimConfig::default()
        })
    }

    fn table(sim: &mut Sim, keys: Vec<u64>) -> SsTable {
        SsTable::build(sim, keys, 40).unwrap()
    }

    impl SsTable {
        /// Everything the table holds but its file: the keys, the index and
        /// the filter's words `build` derives, and the pages it wrote.
        pub(crate) fn resident(&self) -> (&[u64], &[u64], &[u64], u64) {
            (&self.keys, &self.index, &self.bloom.bits, self.pages)
        }
    }

    #[test]
    fn rewrite_writes_the_pages_build_wrote_and_keeps_the_table() {
        let keys: Vec<u64> = (0..1000).map(|k| k * 2).collect();
        let (mut s, mut ref_s) = (sim(), sim());
        let mut t = table(&mut s, keys.clone());
        let ref_t = table(&mut ref_s, keys.clone());
        let keys_at = t.keys().as_ptr();
        t.rewrite(&mut s).unwrap();
        let rebuilt = table(&mut ref_s, keys);
        // The same I/O as a second build, in a new file; not one key copied.
        assert_eq!((s.stats(), s.now_ns()), (ref_s.stats(), ref_s.now_ns()));
        assert_ne!(t.file, ref_t.file);
        assert_eq!(t.file, rebuilt.file);
        assert_eq!(t.resident(), rebuilt.resident());
        assert_eq!(t.keys().as_ptr(), keys_at);
    }

    #[test]
    fn build_charges_sequential_writes() {
        let mut s = sim();
        let t = table(&mut s, (0..1000).map(|k| k * 2).collect());
        assert_eq!(t.len(), 1000);
        // 1000 keys / 40 per block = 25 blocks = 100 pages.
        assert_eq!(t.pages(), 100);
        assert!(s.stats().device.pages_written >= 100);
    }

    #[test]
    fn get_finds_present_and_rejects_absent() {
        let mut s = sim();
        let t = table(&mut s, (0..1000).map(|k| k * 2).collect());
        assert!(t.get(&mut s, 500).unwrap()); // even: present
        assert!(!t.get(&mut s, 501).unwrap()); // odd: absent
        assert!(!t.get(&mut s, 5000).unwrap()); // out of range: no I/O needed
    }

    #[test]
    fn bloom_filter_has_no_false_negatives_and_few_false_positives() {
        let keys: Vec<u64> = (0..10_000).map(|k| k * 3).collect();
        let bloom = BloomFilter::build(&keys);
        for &k in &keys {
            assert!(bloom.may_contain(k), "false negative for {k}");
        }
        let false_positives = (0..10_000u64)
            .map(|k| k * 3 + 1) // definitely absent
            .filter(|&k| bloom.may_contain(k))
            .count();
        let rate = false_positives as f64 / 10_000.0;
        assert!(rate < 0.03, "false-positive rate {rate}");
        // ~10 bits/key.
        assert!(bloom.bits.len() * 8 < 10_000 * 2);
    }

    /// `build`'s bits as they were before the reciprocal: a hardware divide
    /// per probe.
    fn build_with_div(keys: &[u64]) -> Vec<u64> {
        let num_bits = (keys.len() * BloomFilter::BITS_PER_KEY).max(64) as u64;
        let mut bits = vec![0u64; num_bits.div_ceil(64) as usize];
        for &k in keys {
            let (mut h1, h2) = BloomFilter::hashes(k);
            for _ in 0..BloomFilter::PROBES {
                let bit = h1 % num_bits;
                bits[(bit / 64) as usize] |= 1 << (bit % 64);
                h1 = h1.wrapping_add(h2);
            }
        }
        bits
    }

    fn assert_rem_matches(n: u64, xs: impl IntoIterator<Item = u64>) {
        let m = Modulus::new(n);
        let edges = [0, 1, n - 1, n, n.wrapping_add(1), u64::MAX];
        for x in edges.into_iter().chain(xs) {
            assert_eq!(m.rem(x), x % n, "{x} mod {n}");
        }
    }

    #[test]
    fn modulus_matches_remainder_at_its_edges() {
        for n in 2..5_000 {
            assert_rem_matches(n, []);
        }
        // The `.max(64)` floor, every power of two and its neighbours (the
        // shift changes there), and the ends of the 32- and 64-bit ranges.
        let powers = (1..64).map(|l| 1u64 << l);
        let around = powers.flat_map(|p| [p - 1, p, p + 1]).filter(|&n| n >= 2);
        let ends = [
            64,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
        ];
        for n in around.chain(ends).chain([u64::MAX - 1, u64::MAX]) {
            let spread = (0..64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i) | 1 << i);
            assert_rem_matches(n, spread);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn modulus_rejects_one() {
        Modulus::new(1);
    }

    proptest! {
        #[test]
        fn modulus_matches_remainder(
            n in prop_oneof![4 => 2u64..1 << 40, 1 => 2u64..=u64::MAX],
            xs in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            assert_rem_matches(n, xs);
        }

        /// Same bits, so the same false positives and the same block reads.
        #[test]
        fn build_sets_the_bits_the_dividing_build_set(
            seed in any::<u64>(),
            len in prop_oneof![8 => 1usize..300, 1 => 300usize..=50_000],
        ) {
            let keys: Vec<u64> = (0..len as u64)
                .map(|i| BloomFilter::hashes(seed.wrapping_add(i)).0)
                .collect();
            prop_assert_eq!(BloomFilter::build(&keys).bits, build_with_div(&keys));
        }
    }

    #[test]
    fn bloom_skips_io_for_most_absent_in_range_keys() {
        let mut s = sim();
        let t = table(&mut s, (0..10_000).map(|k| k * 2).collect());
        s.reset_stats();
        let mut io_paid = 0;
        for k in (0..2_000u64).map(|k| k * 2 + 1) {
            let before = s.stats().logical_reads;
            assert!(!t.get(&mut s, k).unwrap());
            if s.stats().logical_reads > before {
                io_paid += 1;
            }
        }
        // Only Bloom false positives (~1%) pay the block read.
        assert!(io_paid < 100, "absent-key lookups paid I/O {io_paid} times");
    }

    #[test]
    fn out_of_range_get_does_no_io() {
        let mut s = sim();
        let t = table(&mut s, vec![10, 20, 30]);
        let before = s.stats().device.read_requests;
        assert!(!t.get(&mut s, 5).unwrap());
        assert!(!t.get(&mut s, 100).unwrap());
        assert_eq!(s.stats().device.read_requests, before);
    }

    #[test]
    fn point_read_touches_one_block() {
        let mut s = sim();
        let t = table(&mut s, (0..10_000).collect());
        s.drop_caches().unwrap();
        s.reset_stats();
        t.get(&mut s, 5_000).unwrap();
        let stats = s.stats();
        // One block = 4 pages demanded (readahead may add more).
        assert!(stats.cache.misses >= 1);
        assert!(stats.device.read_requests >= 1);
    }

    #[test]
    fn lower_bound_semantics() {
        let mut s = sim();
        let t = table(&mut s, vec![10, 20, 30]);
        assert_eq!(t.lower_bound(5), 0);
        assert_eq!(t.lower_bound(10), 0);
        assert_eq!(t.lower_bound(11), 1);
        assert_eq!(t.lower_bound(31), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_keys_panic() {
        let mut s = sim();
        let _ = SsTable::build(&mut s, vec![3, 1, 2], 40);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_keys_panic() {
        let mut s = sim();
        let _ = SsTable::build(&mut s, vec![], 40);
    }

    /// A cold-cache simulator whose ring sees every page a read brings in,
    /// and a table over `keys` whose filter passes everything: every absent
    /// key in range is a Bloom false positive.
    fn traced_table(
        keys: &[u64],
        entries_per_block: usize,
    ) -> (Sim, Consumer<TraceRecord>, SsTable) {
        let mut s = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 64, // dropped before every probe
            ..SimConfig::default()
        });
        let (producer, consumer) = RingBuffer::with_capacity(1 << 12).split();
        s.attach_trace(producer);
        let mut t = SsTable::build(&mut s, keys.to_vec(), entries_per_block).unwrap();
        t.bloom.bits.fill(u64::MAX);
        (s, consumer, t)
    }

    /// `get` as it was before the block index: one search over every key.
    fn whole_array_get(t: &SsTable, sim: &mut Sim, key: u64) -> bool {
        if key < t.min_key() || key > t.max_key() || !t.bloom.may_contain(key) {
            return false;
        }
        let (found, idx) = match t.keys.binary_search(&key) {
            Ok(i) => (true, i),
            Err(i) => (false, i.min(t.keys.len() - 1)),
        };
        let block = (idx / t.entries_per_block) as u64;
        sim.read(t.file, block * BLOCK_PAGES, BLOCK_PAGES).unwrap();
        found
    }

    proptest! {
        /// Present keys, absent keys inside and between blocks, and both
        /// ends: the indexed search answers, and reads, what a search over
        /// the whole key array does.
        #[test]
        fn indexed_search_matches_whole_array_search(
            keys in proptest::collection::btree_set(1u64..400, 1..120),
            block_size in 0usize..4,
        ) {
            let keys: Vec<u64> = keys.into_iter().collect();
            let entries_per_block = [1, 3, 40, keys.len() + 1][block_size];
            let (mut sim, mut ring, t) = traced_table(&keys, entries_per_block);
            let (mut ref_sim, mut ref_ring, ref_t) = traced_table(&keys, entries_per_block);
            for key in 0..=keys[keys.len() - 1] + 1 {
                prop_assert_eq!(t.lower_bound(key), keys.partition_point(|&k| k < key));
                sim.drop_caches().unwrap();
                ref_sim.drop_caches().unwrap();
                prop_assert_eq!(
                    t.get(&mut sim, key).unwrap(),
                    whole_array_get(&ref_t, &mut ref_sim, key)
                );
                // Same pages brought in at the same simulated times, same
                // counters: the same `(page, npages)` read was issued.
                let pages: Vec<TraceRecord> = std::iter::from_fn(|| ring.pop()).collect();
                let ref_pages: Vec<TraceRecord> = std::iter::from_fn(|| ref_ring.pop()).collect();
                prop_assert_eq!(pages, ref_pages);
                prop_assert_eq!(sim.stats(), ref_sim.stats());
            }
        }
    }
}
