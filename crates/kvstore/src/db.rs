//! The LSM database: memtable → L0 tables → one big L1, with WAL appends
//! and L0→L1 compaction.
//!
//! Deliberately a *small* RocksDB: enough structure that its I/O pattern
//! mix matches what the paper's readahead model sees — point reads hitting
//! random blocks across levels, WAL appends dirtying pages, flushes and
//! compactions streaming sequentially while reads continue.

use crate::sstable::SsTable;
use kernel_sim::{FileId, IoResult, Sim};
use std::collections::BTreeSet;

/// Tuning knobs of the store.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Keys per data block (≈ block bytes / entry bytes; 40 ≈ 16 KiB / 400 B).
    pub entries_per_block: usize,
    /// Memtable flush threshold, in keys.
    pub memtable_keys: usize,
    /// L0 table count that triggers compaction into L1.
    pub l0_compaction_trigger: usize,
    /// Entries per WAL page (how often a put dirties a new WAL page).
    pub wal_entries_per_page: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            entries_per_block: 40,
            memtable_keys: 8_192,
            l0_compaction_trigger: 4,
            wal_entries_per_page: 10,
        }
    }
}

/// Operational counters of the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Gets served from the memtable (no I/O).
    pub memtable_hits: u64,
    /// Gets that had to consult at least one table.
    pub table_reads: u64,
    /// Background work (threshold flushes, compactions) that failed on an
    /// injected device error and will be retried at the next trigger.
    pub background_errors: u64,
}

/// The LSM store. Keys are `u64`; values are implied (the simulation
/// charges their I/O without materializing bytes).
#[derive(Debug)]
pub struct Db {
    cfg: DbConfig,
    memtable: BTreeSet<u64>,
    l0: Vec<SsTable>,
    l1: Option<SsTable>,
    wal: FileId,
    wal_page: u64,
    wal_entries_in_page: usize,
    stats: DbStats,
    /// One cursor per table, reused by every scan.
    scan_cursors: Vec<TableCursor>,
    /// DST harness-validation knob: when set, a failed flush *drops* the
    /// memtable instead of keeping it — the deliberate invariant violation
    /// the simulation harness must catch. Never enabled in production paths.
    dst_bug_lose_failed_flush: bool,
}

impl Db {
    /// Maximum pages reserved for the write-ahead log file.
    const WAL_PAGES: u64 = 1 << 20;

    /// Creates an empty store backed by `sim`.
    pub fn create(sim: &mut Sim, cfg: DbConfig) -> Db {
        let wal = sim.create_file(Self::WAL_PAGES);
        Db {
            cfg,
            memtable: BTreeSet::new(),
            l0: Vec::new(),
            l1: None,
            wal,
            wal_page: 0,
            wal_entries_in_page: 0,
            stats: DbStats::default(),
            scan_cursors: Vec::new(),
            dst_bug_lose_failed_flush: false,
        }
    }

    /// Enables the deliberate lose-data-on-failed-flush bug used to validate
    /// that the DST harness catches real invariant violations. Hidden from
    /// docs; do not use outside the harness's self-test.
    #[doc(hidden)]
    pub fn set_dst_bug_lose_failed_flush(&mut self, on: bool) {
        self.dst_bug_lose_failed_flush = on;
    }

    /// Bulk-loads a sorted, deduplicated key set directly into L1 (the
    /// `SstFileWriter` ingest path): one sequential write, no WAL, no
    /// compaction. Used to set up large benchmark databases cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or unsorted, or the store is non-empty.
    pub fn bulk_load(&mut self, sim: &mut Sim, keys: Vec<u64>) -> IoResult<()> {
        assert!(
            self.memtable.is_empty() && self.l0.is_empty() && self.l1.is_none(),
            "bulk_load requires an empty store"
        );
        self.l1 = Some(SsTable::build(sim, keys, self.cfg.entries_per_block)?);
        Ok(())
    }

    /// Inserts (or overwrites) a key: WAL append + memtable insert, flushing
    /// and compacting when thresholds trip.
    ///
    /// Under an injected fault plan the WAL append may fail: the key is
    /// then NOT inserted (it was never durably logged) and the error is
    /// returned — callers may retry the put. A *threshold* flush that fails
    /// is counted in [`DbStats::background_errors`] and retried at the next
    /// threshold; the put itself still succeeds (the key is safely in the
    /// memtable + WAL), which is the graceful-degradation shape the paper
    /// requires of an in-kernel loop.
    pub fn put(&mut self, sim: &mut Sim, key: u64) -> IoResult<()> {
        // WAL append: a page gets dirtied once per `wal_entries_per_page`.
        self.wal_entries_in_page += 1;
        if self.wal_entries_in_page >= self.cfg.wal_entries_per_page {
            if let Err(e) = sim.write(self.wal, self.wal_page % Self::WAL_PAGES, 1) {
                // The entry was never logged: undo the accounting and
                // reject the put without touching the memtable.
                self.wal_entries_in_page -= 1;
                return Err(e);
            }
            self.wal_page += 1;
            self.wal_entries_in_page = 0;
        }
        self.memtable.insert(key);
        if self.memtable.len() >= self.cfg.memtable_keys && self.flush(sim).is_err() {
            self.stats.background_errors += 1;
        }
        Ok(())
    }

    /// Flushes the memtable into a new L0 table (no-op when empty).
    ///
    /// On an injected device error the memtable is left intact (abort, not
    /// lose) and the error returned; the caller may retry. A compaction
    /// failure triggered by this flush does not fail the flush — it is
    /// counted in [`DbStats::background_errors`] and retried later.
    pub fn flush(&mut self, sim: &mut Sim) -> IoResult<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let keys: Vec<u64> = self.memtable.iter().copied().collect();
        match SsTable::build(sim, keys, self.cfg.entries_per_block) {
            Ok(table) => {
                self.memtable.clear();
                self.l0.push(table);
            }
            Err(e) => {
                if self.dst_bug_lose_failed_flush {
                    // Deliberate bug (harness validation): drop the keys.
                    self.memtable.clear();
                }
                return Err(e);
            }
        }
        self.stats.flushes += 1;
        if self.l0.len() >= self.cfg.l0_compaction_trigger && self.compact(sim).is_err() {
            self.stats.background_errors += 1;
        }
        Ok(())
    }

    /// Merges all of L0 with L1 into a new L1, charging sequential reads of
    /// every input and a sequential write of the output.
    ///
    /// When L0 only overwrites keys L1 holds, the merged run is L1's own
    /// key set, and L1 is written again as it is (`SsTable::rewrite`)
    /// instead of being merged and derived anew: the same I/O, the same
    /// table (DESIGN.md §14).
    ///
    /// All-or-nothing under faults: the new table is written *before* L0
    /// and L1 are replaced, so a failed compaction leaves the store exactly
    /// as it was.
    pub fn compact(&mut self, sim: &mut Sim) -> IoResult<()> {
        if self.l0.is_empty() {
            return Ok(());
        }
        for t in self.l0.iter().chain(&self.l1) {
            t.read_all(sim)?;
        }
        match &mut self.l1 {
            Some(l1) if self.l0.iter().all(|t| all_in(t.keys(), l1.keys())) => l1.rewrite(sim)?,
            _ => {
                let merged =
                    merge_runs(self.l0.iter().chain(&self.l1).map(SsTable::keys).collect());
                self.l1 = Some(SsTable::build(sim, merged, self.cfg.entries_per_block)?);
            }
        }
        self.l0.clear();
        self.stats.compactions += 1;
        Ok(())
    }

    /// Point lookup. Searches memtable, then L0 newest→oldest, then L1,
    /// charging block reads along the way (RocksDB's read amplification).
    /// A block read may fail under an injected fault plan; the store itself
    /// is unchanged by a failed get.
    pub fn get(&mut self, sim: &mut Sim, key: u64) -> IoResult<bool> {
        if self.memtable.contains(&key) {
            self.stats.memtable_hits += 1;
            return Ok(true);
        }
        self.stats.table_reads += 1;
        for t in self.l0.iter().rev() {
            if t.get(sim, key)? {
                return Ok(true);
            }
        }
        if let Some(l1) = &self.l1 {
            return l1.get(sim, key);
        }
        Ok(false)
    }

    /// Forward scan: visits `limit` keys starting at the first key ≥ `from`,
    /// charging sequential block reads. Returns the number of keys visited,
    /// or the error of the block read that failed mid-scan.
    pub fn scan(&mut self, sim: &mut Sim, from: u64, limit: usize) -> IoResult<usize> {
        self.scan_impl(sim, from, limit, false)
    }

    /// Backward scan: visits `limit` keys descending from the last key ≤
    /// `from`. Returns the number of keys visited.
    pub fn scan_reverse(&mut self, sim: &mut Sim, from: u64, limit: usize) -> IoResult<usize> {
        self.scan_impl(sim, from, limit, true)
    }

    fn scan_impl(
        &mut self,
        sim: &mut Sim,
        from: u64,
        limit: usize,
        reverse: bool,
    ) -> IoResult<usize> {
        // A real LSM iterator merges every sorted source: the memtable (no
        // I/O), each L0 run, and L1. The memtable is walked through its
        // range iterator and the tables by cursor over their resident key
        // slices — nothing is copied (a scan must not materialize the tail
        // of a million-key table per burst) and nothing is allocated: the
        // cursors are `self`'s, taken out while the tables are borrowed.
        let mut cursors = std::mem::take(&mut self.scan_cursors);
        let visited = self.merge_scan(sim, &mut cursors, from, limit, reverse);
        self.scan_cursors = cursors;
        visited
    }

    fn merge_scan(
        &self,
        sim: &mut Sim,
        cursors: &mut Vec<TableCursor>,
        from: u64,
        limit: usize,
        reverse: bool,
    ) -> IoResult<usize> {
        let mut mem = if reverse {
            self.memtable.range(..=from)
        } else {
            self.memtable.range(from..)
        };
        let mut next_mem = || if reverse { mem.next_back() } else { mem.next() }.copied();
        let mut mem_head = next_mem();

        let tables = || self.l0.iter().chain(&self.l1);
        cursors.clear();
        cursors.extend(tables().map(|table| {
            let (lo, hi) = if reverse {
                (0, table.lower_bound(from.saturating_add(1)))
            } else {
                (table.lower_bound(from), table.len())
            };
            TableCursor {
                lo,
                hi,
                last_block: usize::MAX,
            }
        }));

        let mut visited = 0;
        let mut last_key: Option<u64> = None;
        while visited < limit {
            // Pick the next key in scan order across all sources (`None` =
            // the memtable); on a tie the memtable, then the oldest run, wins.
            let mut best: Option<(Option<(usize, &SsTable)>, u64)> = mem_head.map(|k| (None, k));
            for (i, (table, cursor)) in tables().zip(cursors.iter()).enumerate() {
                if let Some(at) = cursor.peek(reverse) {
                    let k = table.keys()[at];
                    if best.is_none_or(|(_, bk)| if reverse { k > bk } else { k < bk }) {
                        best = Some((Some((i, table)), k));
                    }
                }
            }
            let Some((source, key)) = best else { break };
            let read = source.map(|(i, table)| (i, table, cursors[i].take(reverse)));
            if read.is_none() {
                mem_head = next_mem();
            }
            if last_key == Some(key) {
                continue; // shadowed duplicate from an older run
            }
            last_key = Some(key);
            if let Some((i, table, key_idx)) = read {
                // Charge the block read lazily, once per block per table.
                let block = key_idx / self.cfg.entries_per_block;
                if block != cursors[i].last_block {
                    table.read_block_of(sim, key_idx)?;
                    cursors[i].last_block = block;
                }
            }
            visited += 1;
        }
        Ok(visited)
    }

    /// Total keys across memtable and tables (upper bound: counts
    /// overwritten keys in multiple runs once per run).
    pub fn approximate_len(&self) -> usize {
        self.memtable.len()
            + self.l0.iter().map(SsTable::len).sum::<usize>()
            + self.l1.as_ref().map_or(0, SsTable::len)
    }

    /// Smallest key in the compacted level, if any.
    pub fn min_key(&self) -> Option<u64> {
        self.l1.as_ref().map(SsTable::min_key)
    }

    /// Largest key in the compacted level, if any.
    pub fn max_key(&self) -> Option<u64> {
        self.l1.as_ref().map(SsTable::max_key)
    }

    /// Operational counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }
}

/// One table's position in a scan: keys `lo..hi` are still ahead.
#[derive(Debug, Clone, Copy)]
struct TableCursor {
    lo: usize,
    hi: usize,
    /// Block charged last (`usize::MAX` before the first).
    last_block: usize,
}

impl TableCursor {
    /// Index of the key a scan in this direction visits next.
    fn peek(&self, reverse: bool) -> Option<usize> {
        (self.lo < self.hi).then(|| if reverse { self.hi - 1 } else { self.lo })
    }

    /// Steps past the key [`Self::peek`] named and returns its index.
    fn take(&mut self, reverse: bool) -> usize {
        if reverse {
            self.hi -= 1;
            self.hi
        } else {
            self.lo += 1;
            self.lo - 1
        }
    }
}

/// Union of strictly ascending runs as one strictly ascending run: a
/// streaming k-way merge that keeps one copy of a key several runs hold.
fn merge_runs(mut runs: Vec<&[u64]>) -> Vec<u64> {
    let mut merged = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    runs.retain(|r| !r.is_empty());
    while let Some(lead) = (0..runs.len()).min_by_key(|&i| runs[i][0]) {
        // The run with the smallest head streams out, in one copy, every key
        // up to the smallest head among the others: after four flushes L1
        // holds ~30 keys for each one in L0.
        let run = runs[lead];
        let others = (0..runs.len()).filter(|&i| i != lead);
        let Some(bound) = others.map(|i| runs[i][0]).min() else {
            merged.extend_from_slice(run);
            break;
        };
        let taken = leading_at_most(run, bound);
        merged.extend_from_slice(&run[..taken]);
        runs[lead] = &run[taken..];
        if run[taken - 1] == bound {
            for other in runs.iter_mut().filter(|r| r.first() == Some(&bound)) {
                *other = &other[1..];
            }
        }
        runs.retain(|r| !r.is_empty());
    }
    merged
}

/// Whether every key of ascending `run` is in ascending `set`: each key
/// gallops on from where the last one's take ended.
fn all_in(run: &[u64], mut set: &[u64]) -> bool {
    run.iter().all(|&key| {
        let taken = leading_at_most(set, key);
        let found = taken > 0 && set[taken - 1] == key;
        set = &set[taken..];
        found
    })
}

/// How many leading keys of ascending `run` are ≤ `bound`, found by galloping
/// from the head — doubling steps, then a search inside the last step — so a
/// take of `t` keys costs O(log t) whatever is left of the run.
fn leading_at_most(run: &[u64], bound: u64) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step < run.len() && run[lo + step] <= bound {
        lo += step;
        step *= 2;
    }
    // Everything before `lo` is ≤ bound; `run[lo + step]`, if there, is not.
    let hi = (lo + step).min(run.len());
    lo + run[lo..hi].partition_point(|&k| k <= bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, SimConfig};
    use proptest::prelude::*;

    fn sim() -> Sim {
        Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 4096,
            ..SimConfig::default()
        })
    }

    fn filled_db(sim: &mut Sim, n: u64) -> Db {
        let mut db = Db::create(
            sim,
            DbConfig {
                memtable_keys: 1024,
                ..DbConfig::default()
            },
        );
        for k in 0..n {
            db.put(sim, k).unwrap();
        }
        db.flush(sim).unwrap();
        db.compact(sim).unwrap();
        db
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = sim();
        let mut db = filled_db(&mut s, 10_000);
        assert!(db.get(&mut s, 0).unwrap());
        assert!(db.get(&mut s, 9_999).unwrap());
        assert!(db.get(&mut s, 5_000).unwrap());
        assert!(!db.get(&mut s, 10_000).unwrap());
    }

    #[test]
    fn memtable_hits_do_no_io() {
        let mut s = sim();
        let mut db = Db::create(&mut s, DbConfig::default());
        db.put(&mut s, 42).unwrap();
        s.reset_stats();
        assert!(db.get(&mut s, 42).unwrap());
        assert_eq!(s.stats().device.read_requests, 0);
        assert_eq!(db.stats().memtable_hits, 1);
    }

    #[test]
    fn flush_and_compaction_thresholds_fire() {
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                memtable_keys: 100,
                l0_compaction_trigger: 3,
                ..DbConfig::default()
            },
        );
        for k in 0..1000 {
            db.put(&mut s, k).unwrap();
        }
        let stats = db.stats();
        assert!(stats.flushes >= 9, "flushes: {}", stats.flushes);
        assert!(stats.compactions >= 3, "compactions: {}", stats.compactions);
    }

    #[test]
    fn overwrites_do_not_duplicate_l1_keys() {
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                memtable_keys: 64,
                l0_compaction_trigger: 2,
                ..DbConfig::default()
            },
        );
        for _ in 0..4 {
            for k in 0..100 {
                db.put(&mut s, k).unwrap();
            }
            db.flush(&mut s).unwrap();
        }
        db.compact(&mut s).unwrap();
        assert_eq!(db.approximate_len(), 100);
    }

    #[test]
    fn forward_scan_visits_in_order_with_block_batching() {
        let mut s = sim();
        let mut db = filled_db(&mut s, 10_000);
        s.drop_caches().unwrap();
        s.reset_stats();
        let visited = db.scan(&mut s, 0, 4000).unwrap();
        assert_eq!(visited, 4000);
        // 4000 keys / 40 per block = 100 block reads.
        let reads = s.stats().logical_reads;
        assert_eq!(reads, 100, "logical block reads: {reads}");
    }

    #[test]
    fn reverse_scan_visits_descending() {
        let mut s = sim();
        let mut db = filled_db(&mut s, 1_000);
        let visited = db.scan_reverse(&mut s, 999, 500).unwrap();
        assert_eq!(visited, 500);
        // From the very beginning there is nothing below.
        assert_eq!(db.scan_reverse(&mut s, 0, 10).unwrap(), 1);
    }

    #[test]
    fn scan_from_middle_respects_bound() {
        let mut s = sim();
        let mut db = filled_db(&mut s, 1_000);
        assert_eq!(db.scan(&mut s, 990, 100).unwrap(), 10);
        assert_eq!(db.scan(&mut s, 2_000, 100).unwrap(), 0);
    }

    #[test]
    fn scan_merges_memtable_l0_and_l1() {
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                memtable_keys: 1 << 20,     // manual flushes only
                l0_compaction_trigger: 100, // no auto-compaction
                ..DbConfig::default()
            },
        );
        // L1: even keys 0..100.
        db.bulk_load(&mut s, (0..100).filter(|k| k % 2 == 0).collect())
            .unwrap();
        // L0: multiples of 3 (flushed).
        for k in (0..100).filter(|k| k % 3 == 0) {
            db.put(&mut s, k).unwrap();
        }
        db.flush(&mut s).unwrap();
        // Memtable: multiples of 5 (unflushed).
        for k in (0..100).filter(|k| k % 5 == 0) {
            db.put(&mut s, k).unwrap();
        }
        let expected = (0..100u64)
            .filter(|k| k % 2 == 0 || k % 3 == 0 || k % 5 == 0)
            .count();
        assert_eq!(db.scan(&mut s, 0, 1000).unwrap(), expected);
        assert_eq!(db.scan_reverse(&mut s, 99, 1000).unwrap(), expected);
        // Duplicates across runs (e.g. 30 = 2·3·5) are visited once: a
        // bounded scan starting mid-range also agrees with the reference.
        let expected_mid = (40..100u64)
            .filter(|k| k % 2 == 0 || k % 3 == 0 || k % 5 == 0)
            .take(10)
            .count();
        assert_eq!(db.scan(&mut s, 40, 10).unwrap(), expected_mid);
    }

    #[test]
    fn wal_appends_write_pages() {
        let mut s = sim();
        let mut db = Db::create(&mut s, DbConfig::default());
        s.reset_stats();
        for k in 0..100 {
            db.put(&mut s, k).unwrap();
        }
        // 100 puts / 10 per page = 10 WAL page writes.
        assert!(s.stats().logical_writes >= 10);
    }

    #[test]
    fn get_absent_key_is_usually_filtered_without_io() {
        // With per-table Bloom filters (RocksDB default), absent keys in
        // range skip the block read except on ~1% false positives.
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                memtable_keys: 1 << 20,
                ..DbConfig::default()
            },
        );
        for k in (0..1000).map(|k| k * 2) {
            db.put(&mut s, k).unwrap();
        }
        db.flush(&mut s).unwrap();
        db.compact(&mut s).unwrap();
        s.drop_caches().unwrap();
        s.reset_stats();
        for k in (0..1000u64).map(|k| k * 2 + 1) {
            assert!(!db.get(&mut s, k).unwrap());
        }
        assert!(
            s.stats().logical_reads < 50,
            "absent-key gets paid I/O {} times",
            s.stats().logical_reads
        );
    }

    #[test]
    fn failed_flush_keeps_memtable_for_retry() {
        use kernel_sim::{FaultConfig, FaultPlan};
        let mut s = sim();
        let mut db = Db::create(&mut s, DbConfig::default());
        for k in 0..500 {
            db.put(&mut s, k).unwrap();
        }
        s.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 4,
            write_error: 1.0,
            ..FaultConfig::off()
        })));
        db.flush(&mut s).unwrap_err();
        // Abort, not lose: all 500 keys still in the memtable, no L0 run.
        assert_eq!(db.approximate_len(), 500);
        assert_eq!(db.stats().flushes, 0);
        s.set_fault_plan(None);
        db.flush(&mut s).unwrap();
        assert_eq!(db.stats().flushes, 1);
        assert!(db.get(&mut s, 250).unwrap());
    }

    #[test]
    fn failed_compaction_leaves_store_unchanged() {
        use kernel_sim::{FaultConfig, FaultPlan};
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                memtable_keys: 1 << 20,
                l0_compaction_trigger: 100,
                ..DbConfig::default()
            },
        );
        for round in 0..3 {
            for k in 0..100 {
                db.put(&mut s, round * 1000 + k).unwrap();
            }
            db.flush(&mut s).unwrap();
        }
        let len_before = db.approximate_len();
        // Cold-start the tables so compaction must actually hit the device.
        s.drop_caches().unwrap();
        s.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 8,
            read_error: 1.0,
            ..FaultConfig::off()
        })));
        db.compact(&mut s).unwrap_err();
        assert_eq!(db.approximate_len(), len_before);
        assert_eq!(db.stats().compactions, 0);
        s.set_fault_plan(None);
        db.compact(&mut s).unwrap();
        assert_eq!(db.stats().compactions, 1);
        assert!(db.get(&mut s, 2050).unwrap());
    }

    /// A store with `l1` bulk-loaded and one L0 table per entry of `l0`,
    /// compacted only when asked.
    fn store_with_l0(l1: &[u64], l0: &[Vec<u64>], entries_per_block: usize) -> (Sim, Db) {
        let mut s = sim();
        let mut db = Db::create(
            &mut s,
            DbConfig {
                entries_per_block,
                memtable_keys: 1 << 20,
                l0_compaction_trigger: usize::MAX,
                ..DbConfig::default()
            },
        );
        db.bulk_load(&mut s, l1.to_vec()).unwrap();
        for table in l0 {
            for &k in table {
                db.put(&mut s, k).unwrap();
            }
            db.flush(&mut s).unwrap();
        }
        (s, db)
    }

    /// The answers of `get` over `0..end`.
    fn answers(db: &mut Db, s: &mut Sim, end: u64) -> Vec<bool> {
        (0..end).map(|k| db.get(s, k).unwrap()).collect()
    }

    #[test]
    fn failed_rewrite_leaves_store_unchanged() {
        use kernel_sim::{FaultConfig, FaultPlan};
        let l1: Vec<u64> = (0..2_000).map(|k| k * 2).collect();
        // Overwrites only (L1 is written again as it is), then odd keys too
        // (merged and built anew): a failed write on either branch.
        for l0_stride in [6, 3] {
            let l0: Vec<Vec<u64>> = (0..3)
                .map(|t| (0..200).map(|k| (t + k * 3) * l0_stride).collect())
                .collect();
            let (mut s, mut db) = store_with_l0(&l1, &l0, 40);
            let (mut ref_s, mut ref_db) = store_with_l0(&l1, &l0, 40);
            ref_db.compact(&mut ref_s).unwrap();
            let (len_before, gets_before) = (db.approximate_len(), answers(&mut db, &mut s, 4_100));
            let writes_before = s.stats().logical_writes;
            let keys_at = db.l1.as_ref().unwrap().keys().as_ptr();
            s.set_fault_plan(Some(FaultPlan::new(FaultConfig {
                seed: 8,
                write_error: 1.0,
                ..FaultConfig::off()
            })));
            db.compact(&mut s).unwrap_err();
            s.set_fault_plan(None);
            assert!(
                s.stats().logical_writes > writes_before,
                "the write failed, not a read"
            );
            assert_eq!(db.approximate_len(), len_before);
            assert_eq!(db.stats().compactions, 0);
            assert_eq!(db.l0.len(), 3);
            assert_eq!(answers(&mut db, &mut s, 4_100), gets_before);
            // A retry lands where a fault-free compaction does.
            db.compact(&mut s).unwrap();
            let (new_l1, ref_l1) = (db.l1.as_ref().unwrap(), ref_db.l1.as_ref().unwrap());
            assert_eq!(new_l1.resident(), ref_l1.resident());
            assert_eq!(new_l1.keys().as_ptr() == keys_at, l0_stride == 6);
            assert_eq!(db.approximate_len(), ref_db.approximate_len());
            assert_eq!(db.stats().compactions, 1);
            assert!(db.l0.is_empty());
            let ref_gets = answers(&mut ref_db, &mut ref_s, 4_100);
            assert_eq!(answers(&mut db, &mut s, 4_100), ref_gets);
        }
    }

    /// FNV-1a of the filter words of a table over `0..2^20`, recorded on the
    /// commit before compaction could keep L1's filter.
    const FILTER_2_20_FNV: u64 = 0x5dc7_9934_aab2_31ee;

    fn words_fnv(words: &[u64]) -> u64 {
        let mut h = kml_platform::bytes::Fnv1a::new();
        words.iter().for_each(|&w| h.fold_u64(w));
        h.finish()
    }

    /// The ledger's `lsm-update` compaction (the `simstack` bench's store):
    /// 2^20 keys in L1, four flushes of scattered overwrites in L0. L1 comes
    /// out of it with the same filter, in the same key buffer.
    #[test]
    fn overwrite_compaction_keeps_the_filter_of_the_parent_commit() {
        const KEYS: u64 = 1 << 20;
        let mut x = 0x4B4D4Cu64;
        let l0: Vec<Vec<u64>> = (0..4)
            .map(|_| {
                let mut table = BTreeSet::new();
                while table.len() < DbConfig::default().memtable_keys {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    table.insert((x >> 33) % KEYS);
                }
                table.into_iter().collect()
            })
            .collect();
        let (mut s, mut db) = store_with_l0(&(0..KEYS).collect::<Vec<u64>>(), &l0, 40);
        let l1 = db.l1.as_ref().unwrap();
        assert_eq!(words_fnv(l1.resident().2), FILTER_2_20_FNV);
        let keys_at = l1.keys().as_ptr();
        db.compact(&mut s).unwrap();
        let l1 = db.l1.as_ref().unwrap();
        assert_eq!(words_fnv(l1.resident().2), FILTER_2_20_FNV);
        assert_eq!(l1.keys().as_ptr(), keys_at, "L1's keys were copied");
        assert_eq!((db.stats().compactions, db.l0.len()), (1, 0));
    }

    #[test]
    fn failed_wal_append_rejects_the_put() {
        use kernel_sim::{DeviceProfile, FaultConfig, FaultPlan, SimConfig};
        // WAL writes are buffered; a zero-ish dirty threshold forces the
        // flusher to hit the (failing) device inside the logical write.
        let mut s = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 64,
            dirty_threshold: 0.0,
            ..SimConfig::default()
        });
        // Every put hits the WAL so the error path is deterministic.
        let mut db = Db::create(
            &mut s,
            DbConfig {
                wal_entries_per_page: 1,
                ..DbConfig::default()
            },
        );
        s.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 6,
            write_error: 1.0,
            ..FaultConfig::off()
        })));
        db.put(&mut s, 42).unwrap_err();
        assert_eq!(db.approximate_len(), 0, "unlogged key must not be stored");
        // The put can be retried once the device recovers.
        s.set_fault_plan(None);
        db.put(&mut s, 42).unwrap();
        assert!(db.get(&mut s, 42).unwrap());
    }

    #[test]
    fn dst_bug_knob_loses_keys_on_failed_flush() {
        use kernel_sim::{FaultConfig, FaultPlan};
        let mut s = sim();
        let mut db = Db::create(&mut s, DbConfig::default());
        db.set_dst_bug_lose_failed_flush(true);
        for k in 0..100 {
            db.put(&mut s, k).unwrap();
        }
        s.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 4,
            write_error: 1.0,
            ..FaultConfig::off()
        })));
        db.flush(&mut s).unwrap_err();
        // The deliberate bug: the failed flush dropped the memtable.
        assert_eq!(db.approximate_len(), 0);
    }

    proptest! {
        #[test]
        fn merge_runs_is_the_set_union(
            runs in proptest::collection::vec(
                proptest::collection::btree_set(
                    prop_oneof![6 => 0u64..200, 1 => u64::MAX - 3..=u64::MAX],
                    0..120,
                ),
                1..6,
            ),
        ) {
            let runs: Vec<Vec<u64>> = runs.into_iter().map(|r| r.into_iter().collect()).collect();
            let union: BTreeSet<u64> = runs.iter().flatten().copied().collect();
            let merged = merge_runs(runs.iter().map(Vec::as_slice).collect());
            prop_assert_eq!(merged, union.into_iter().collect::<Vec<u64>>());
        }

        /// The galloped take is the whole-run search it replaced, for
        /// bounds below the head, on and between keys — every doubling
        /// boundary among them — and past the end.
        #[test]
        fn leading_at_most_matches_whole_run_search(
            run in proptest::collection::btree_set(1u64..2_000, 1..600),
        ) {
            let run: Vec<u64> = run.into_iter().collect();
            for bound in run.iter().flat_map(|&k| [k - 1, k, k + 1]) {
                prop_assert_eq!(
                    leading_at_most(&run, bound),
                    run.partition_point(|&k| k <= bound)
                );
            }
        }

        /// The galloped membership walk is the subset test, for runs drawn
        /// from the set with up to two keys from anywhere added.
        #[test]
        fn all_in_is_the_subset_test(
            set in proptest::collection::btree_set(1u64..300, 0..200),
            own in proptest::collection::vec(any::<usize>(), 0..40),
            added in proptest::collection::vec(0u64..310, 0..3),
        ) {
            let run: BTreeSet<u64> = own
                .into_iter()
                .filter_map(|i| set.iter().nth(i % set.len().max(1)).copied())
                .chain(added)
                .collect();
            let sorted: Vec<u64> = set.iter().copied().collect();
            prop_assert_eq!(
                all_in(&run.iter().copied().collect::<Vec<u64>>(), &sorted),
                run.is_subset(&set)
            );
        }

        /// Lopsided runs as compaction sees them (L1 holds ~30 keys per L0
        /// key), either way round and even, with single-key runs and with
        /// the short run's keys sitting on the long run's gallop boundaries
        /// (its keys at distance 2^k − 1 from wherever the last take ended).
        #[test]
        fn merge_runs_is_the_set_union_of_lopsided_runs(
            long_len in 1usize..1_500,
            ratio in 0usize..3,
            stride in 1u64..4,
            offset in 0u64..3,
            long_first in any::<bool>(),
        ) {
            let long: Vec<u64> = (0..long_len as u64).map(|i| 1 + i * stride).collect();
            // Every `ratio`-th key of the long run (one key in all at the
            // largest ratio), shifted onto, before or after it.
            let ratio = [1, 30, 1_500][ratio];
            let short: Vec<u64> = long.iter().step_by(ratio).map(|&k| k - 1 + offset).collect();
            let boundaries: Vec<u64> = (0..11)
                .map(|l| (1usize << l) - 1)
                .filter(|&i| i < long.len())
                .map(|i| long[i])
                .collect();
            let mut runs = vec![long.as_slice(), short.as_slice(), boundaries.as_slice()];
            if !long_first {
                runs.reverse();
            }
            let union: BTreeSet<u64> = runs.iter().copied().flatten().copied().collect();
            prop_assert_eq!(merge_runs(runs), union.into_iter().collect::<Vec<u64>>());
        }

        /// A bulk-loaded L1 and one to four L0 tables, each overwriting
        /// keys L1 holds and adding up to two drawn anywhere (so one absent
        /// key may sit in any table, at any position): the same table as a
        /// build of the merged run, at the same simulated cost, whether L1
        /// is written again as it is or merged and built anew.
        #[test]
        fn compaction_builds_what_a_build_of_the_merged_run_builds(
            l1 in proptest::collection::btree_set(0u64..400, 1..200),
            l0 in proptest::collection::vec(
                (
                    proptest::collection::vec(any::<usize>(), 1..60),
                    proptest::collection::vec(0u64..500, 0..3),
                ),
                1..5,
            ),
            block_size in 0usize..3,
        ) {
            let l1: Vec<u64> = l1.into_iter().collect();
            let overwrite_only = l0.iter().all(|(_, added)| added.is_empty());
            let l0: Vec<Vec<u64>> = l0
                .into_iter()
                .map(|(own, added)| {
                    let own = own.into_iter().map(|i| l1[i % l1.len()]);
                    let table: BTreeSet<u64> = own.chain(added).collect();
                    table.into_iter().collect()
                })
                .collect();
            let entries_per_block = [1, 3, 40][block_size];
            let (mut s, mut db) = store_with_l0(&l1, &l0, entries_per_block);
            let (mut ref_s, ref_db) = store_with_l0(&l1, &l0, entries_per_block);
            let keys_at = db.l1.as_ref().unwrap().keys().as_ptr();
            db.compact(&mut s).unwrap();
            let mut runs = Vec::new();
            for t in ref_db.l0.iter().chain(&ref_db.l1) {
                t.read_all(&mut ref_s).unwrap();
                runs.push(t.keys());
            }
            let merged = merge_runs(runs);
            let grows = merged.len() > l1.len();
            let reference = SsTable::build(&mut ref_s, merged, entries_per_block).unwrap();
            let new_l1 = db.l1.as_ref().unwrap();
            prop_assert_eq!(new_l1.resident(), reference.resident());
            prop_assert_eq!((s.stats(), s.now_ns()), (ref_s.stats(), ref_s.now_ns()));
            // Only a compaction that adds keys builds a new key buffer.
            prop_assert_eq!(new_l1.keys().as_ptr() != keys_at, grows);
            prop_assert!(!(overwrite_only && grows));
        }

        /// After compaction the store answers like the set of keys put.
        #[test]
        fn compacted_store_matches_reference_set(
            puts in proptest::collection::vec(0u64..600, 1..500),
            probes in proptest::collection::vec((0u64..640, 1usize..50), 1..12),
        ) {
            let mut s = sim();
            let mut db = Db::create(
                &mut s,
                DbConfig {
                    memtable_keys: 48,
                    l0_compaction_trigger: 3,
                    ..DbConfig::default()
                },
            );
            for &k in &puts {
                db.put(&mut s, k).unwrap();
            }
            db.flush(&mut s).unwrap();
            db.compact(&mut s).unwrap();
            let reference: BTreeSet<u64> = puts.iter().copied().collect();
            prop_assert_eq!(db.approximate_len(), reference.len());
            prop_assert_eq!(db.min_key(), reference.first().copied());
            prop_assert_eq!(db.max_key(), reference.last().copied());
            for (from, limit) in probes {
                prop_assert_eq!(db.get(&mut s, from).unwrap(), reference.contains(&from));
                let ahead = reference.range(from..).take(limit).count();
                prop_assert_eq!(db.scan(&mut s, from, limit).unwrap(), ahead);
                let behind = reference.range(..=from).rev().take(limit).count();
                prop_assert_eq!(db.scan_reverse(&mut s, from, limit).unwrap(), behind);
            }
        }
    }
}
