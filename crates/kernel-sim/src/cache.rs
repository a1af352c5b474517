//! LRU page cache with dirty tracking and prefetch accounting.
//!
//! Models the part of the Linux memory-management subsystem the readahead
//! model observes and perturbs: pages enter via demand reads or readahead
//! (`add_to_page_cache` tracepoint territory), are recycled in LRU order,
//! dirty pages require writeback before reclaim, and pages brought in by
//! readahead that get evicted untouched are counted as **wasted prefetch**
//! — the quantity bad readahead tuning inflates.
//!
//! Two intrusive lists run through one slab of entries: the LRU list over
//! every resident page and the **dirty list** over the dirty ones. The
//! invariant that keeps writeback exact is that the dirty list is the LRU
//! list restricted to dirty pages, in the same order — so flushing from the
//! dirty tail visits exactly the pages a walk up the LRU list from its tail
//! would, without stepping over the clean ones in between.
//!
//! Reads touch pages in runs, and the pages one device run admitted sit in
//! the LRU list as one segment, in the order a run of touches leaves them:
//! [`PageCache::touch_run`] moves such a segment to the head in one splice
//! instead of relinking it page by page.
//!
//! Resident pages are found through a table of bucket heads whose chains
//! run through the slab too: an insert pushes at its bucket's head, a
//! delete relinks its chain predecessor. It keeps no tombstones and never
//! rehashes, so what a lookup costs depends on the pages resident now and
//! not on the evictions that came before.

use crate::fxhash::FxHasher;
use std::convert::Infallible;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Key of a cached page: (inode number, page index within the file).
pub type PageKey = (u64, u64);

/// Slab links are `u32` so an [`Entry`] stays within 40 bytes: a fleet holds
/// thousands of caches.
const NIL: u32 = u32::MAX;

/// List every resident page is on, MRU at the head.
const LRU: usize = 0;
/// List the dirty pages are also on, in the same relative order.
const DIRTY: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    /// Neighbour towards the head (more recently used).
    prev: u32,
    /// Neighbour towards the tail (less recently used).
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: PageKey,
    /// Indexed by [`LRU`] and [`DIRTY`]; the latter is meaningful only
    /// while `dirty`.
    links: [Link; 2],
    /// Next entry in the same index bucket, `NIL` at the chain's end.
    hnext: u32,
    dirty: bool,
    /// Brought in by readahead and not yet referenced by a real access.
    speculative: bool,
    /// False once the slot is on the free list, where it keeps its last key:
    /// [`PageCache::touch_run`]'s finger compares keys without the index.
    live: bool,
}

#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

/// FxHash instead of SipHash: the key is hashed once per simulated I/O, keys
/// are internal (no HashDoS surface), and Fx is seedless, keeping runs
/// bit-reproducible. The low bits of an Fx hash are a bijection of the low
/// bits of the page number, so a sequential run of pages never shares a
/// bucket with itself.
fn tag_of(key: PageKey) -> u32 {
    BuildHasherDefault::<FxHasher>::default().hash_one(key) as u32
}

/// Cumulative page-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that readahead fetched but nothing ever used.
    pub wasted_prefetch: u64,
    /// Dirty pages flushed.
    pub writebacks: u64,
}

/// An evicted page and whether it was dirty — the caller is responsible for
/// writing dirty victims back to the device.
pub type Victim = (PageKey, bool);

/// What an insert did to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// The page was already resident and moved to MRU.
    Promoted,
    /// The page is new; a full cache evicted its LRU page to make room.
    Added(Option<Victim>),
}

impl Inserted {
    /// The page evicted to make room, if any.
    pub fn victim(self) -> Option<Victim> {
        match self {
            Inserted::Promoted => None,
            Inserted::Added(victim) => victim,
        }
    }
}

/// A fixed-capacity LRU page cache.
///
/// # Example
///
/// ```
/// use kernel_sim::cache::PageCache;
///
/// let mut c = PageCache::new(2);
/// c.insert((1, 0), false);
/// c.insert((1, 1), false);
/// assert!(c.touch((1, 0))); // hit, moves to MRU
/// c.insert((1, 2), false);  // evicts (1,1), the LRU
/// assert!(!c.touch((1, 1)));
/// assert!(c.touch((1, 0)));
/// ```
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    /// Resident-page index: the head of each bucket's chain, `NIL` when
    /// empty; a power-of-two table of at least twice the capacity.
    index: Vec<u32>,
    /// Pages currently resident.
    len: usize,
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Slab slot of the last [`PageCache::touch_run`] hit.
    finger: u32,
    /// Head and tail of the [`LRU`] and [`DIRTY`] lists.
    ends: [Ends; 2],
    dirty_count: usize,
    stats: CacheStats,
}

impl PageCache {
    /// Creates a cache holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or does not fit the `u32` slab links.
    pub fn new(capacity: usize) -> Self {
        Self::check_capacity(capacity);
        PageCache {
            capacity,
            index: vec![NIL; Self::index_buckets(capacity)],
            len: 0,
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            finger: NIL,
            ends: [EMPTY; 2],
            dirty_count: 0,
            stats: CacheStats::default(),
        }
    }

    fn check_capacity(capacity: usize) {
        assert!(capacity > 0, "page cache capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "page cache capacity must fit u32 slab links"
        );
    }

    /// Index buckets for `capacity` pages: at least two a page.
    fn index_buckets(capacity: usize) -> usize {
        (2 * capacity).next_power_of_two()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dirty pages currently resident.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Whether the page is resident (does not update LRU or stats).
    pub fn contains(&self, key: PageKey) -> bool {
        self.lookup(key, tag_of(key)).is_some()
    }

    /// Looks up a page as a real access: on hit, promotes it to MRU, clears
    /// its speculative flag, counts a hit, and returns true; on miss, counts
    /// a miss and returns false.
    pub fn touch(&mut self, key: PageKey) -> bool {
        self.touch_run(key.0, key.1..=key.1) == 1
    }

    /// [`PageCache::touch`]es `pages` of `inode` in order up to the first
    /// absent one, which counts as a miss once and ends the run; returns the
    /// hits. Pages a device run admitted sit in the LRU list as one segment,
    /// each page on the head side of the one before it — the order the
    /// touches leave them in — so a clean hit that is its predecessor's
    /// head-side neighbour joins the pending segment, and the segment
    /// reaches the head in one splice however long it is. A dirty hit moves
    /// in the dirty list too: it ends the segment and is promoted alone.
    pub fn touch_run(&mut self, inode: u64, pages: impl IntoIterator<Item = u64>) -> u64 {
        // The pending segment's head-side and tail-side ends, `NIL` if none.
        let (mut near, mut far) = (NIL, NIL);
        let (mut hits, mut finger) = (0, self.finger);
        for page in pages {
            let key = (inode, page);
            // A stream's pages were filled into consecutively evicted slots,
            // so the slot after the last hit is tried before hashing. Keys
            // are unique among live slots: one that holds `key` is the page.
            let next = finger.wrapping_add(1);
            let found = match self.entries.get(next as usize) {
                Some(entry) if entry.live && entry.key == key => Some(next),
                _ => self.lookup(key, tag_of(key)),
            };
            let Some(idx) = found else {
                self.stats.misses += 1;
                break;
            };
            let entry = &mut self.entries[idx as usize];
            entry.speculative = false;
            if entry.dirty {
                self.splice_to_head::<LRU>(near, far);
                self.promote(idx);
                near = NIL;
            } else if near != NIL && self.entries[near as usize].links[LRU].prev == idx {
                near = idx;
            } else {
                self.splice_to_head::<LRU>(near, far);
                (near, far) = (idx, idx);
            }
            finger = idx;
            hits += 1;
        }
        self.splice_to_head::<LRU>(near, far);
        self.finger = finger;
        self.stats.hits += hits;
        hits
    }

    /// Inserts a page (idempotent: re-inserting promotes and merges flags).
    /// `speculative` marks readahead-fetched pages.
    pub fn insert(&mut self, key: PageKey, speculative: bool) -> Inserted {
        self.admit(key, speculative, false)
    }

    /// Inserts a page that is being written: a demand [`PageCache::insert`]
    /// plus [`PageCache::mark_dirty`] in one lookup.
    pub fn insert_dirty(&mut self, key: PageKey) -> Inserted {
        self.admit(key, false, true)
    }

    /// Promotes a resident page; an absent one is a run of one page.
    fn admit(&mut self, key: PageKey, speculative: bool, dirty: bool) -> Inserted {
        if let Some(idx) = self.lookup(key, tag_of(key)) {
            self.promote(idx);
            // A demand insert over a speculative page de-speculates it.
            if !speculative {
                self.entries[idx as usize].speculative = false;
            }
            if dirty {
                self.set_dirty(idx);
            }
            return Inserted::Promoted;
        }
        let (demand, mut victim) = ((!speculative).then_some(key.1), None);
        let Ok(()) = self.admit_run(key.0, key.1..=key.1, demand, dirty, |_, old, flush| {
            victim = (old != key).then_some((old, flush));
            Ok::<(), Infallible>(())
        });
        Inserted::Added(victim)
    }

    /// Admits `pages` of `inode` — ascending, none of them resident: a device
    /// run entering the cache. Each page evicts the LRU page if the cache is
    /// full, takes over its slot, and is handed to `sink(page, victim,
    /// victim_dirty)` before the next is admitted. `victim` is the evicted
    /// page's key (the caller writes dirty victims back) or, when there was
    /// room, the page's own. Every page but `demand` is speculative; `dirty`
    /// admits written pages. The sink's first error ends the run, with that
    /// page admitted.
    ///
    /// The sink takes scalars and [`PageCache::detach_lru`] returns one: a
    /// padded aggregate handed across a call per page is stored piecewise
    /// and reloaded whole, a failed store-to-load forward on every page.
    pub(crate) fn admit_run<E>(
        &mut self,
        inode: u64,
        pages: impl IntoIterator<Item = u64>,
        demand: Option<u64>,
        dirty: bool,
        mut sink: impl FnMut(u64, PageKey, bool) -> Result<(), E>,
    ) -> Result<(), E> {
        for page in pages {
            let key = (inode, page);
            let tag = tag_of(key);
            debug_assert!(self.lookup(key, tag).is_none(), "{key:?} is resident");
            // `len <= capacity` always holds, so one eviction makes room; the
            // new page takes over its victim's slot.
            let (idx, victim, victim_dirty) = if self.len >= self.capacity {
                let idx = self.detach_lru();
                let old = &self.entries[idx as usize];
                (idx, old.key, old.dirty)
            } else {
                let idx = self.free.pop().unwrap_or(self.entries.len() as u32);
                (idx, key, false)
            };
            let entry = Entry {
                key,
                links: [UNLINKED; 2],
                hnext: NIL,
                dirty: false,
                speculative: Some(page) != demand,
                live: true,
            };
            match self.entries.get_mut(idx as usize) {
                Some(slot) => *slot = entry,
                None => self.entries.push(entry),
            }
            self.index_insert(tag, idx);
            self.link_after::<LRU>(NIL, idx);
            if dirty {
                self.set_dirty(idx);
            }
            self.stats.insertions += 1;
            sink(page, victim, victim_dirty)?;
        }
        Ok(())
    }

    /// Marks a resident page dirty; returns false if the page is absent.
    pub fn mark_dirty(&mut self, key: PageKey) -> bool {
        match self.lookup(key, tag_of(key)) {
            Some(idx) => {
                self.set_dirty(idx);
                true
            }
            None => false,
        }
    }

    /// Flushes up to `max` dirty pages in LRU order, clearing their dirty
    /// bits and appending their keys to `flushed` (the caller charges device
    /// write time and fires `writeback_dirty_page` tracepoints). Costs
    /// O(pages flushed), however many clean pages sit between them.
    pub fn writeback(&mut self, max: usize, flushed: &mut Vec<PageKey>) {
        for _ in 0..max {
            let idx = self.ends[DIRTY].tail;
            if idx == NIL {
                break;
            }
            self.unlink::<DIRTY>(idx);
            self.entries[idx as usize].dirty = false;
            self.dirty_count -= 1;
            self.stats.writebacks += 1;
            flushed.push(self.entries[idx as usize].key);
        }
    }

    /// Changes the capacity (the fault layer's cache-pressure squeeze).
    /// Shrinking evicts LRU pages until the cache fits; the victims (with
    /// their dirty flags) are returned for the caller to write back.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or does not fit the `u32` slab links.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<Victim> {
        Self::check_capacity(capacity);
        self.capacity = capacity;
        if Self::index_buckets(capacity) > self.index.len() {
            // Grown past half the table: re-index the resident pages.
            self.index = vec![NIL; Self::index_buckets(capacity)];
            self.len = 0;
            let mut idx = self.ends[LRU].head;
            while idx != NIL {
                let Entry { key, links, .. } = self.entries[idx as usize];
                self.index_insert(tag_of(key), idx);
                idx = links[LRU].next;
            }
        }
        let mut evicted = Vec::new();
        while self.len > self.capacity {
            let idx = self.detach_lru();
            evicted.push(self.release(idx));
        }
        evicted
    }

    /// Removes one specific page (the `DontNeed` path); returns whether the
    /// page was dirty (the caller must write it back). No-op when absent.
    pub fn forget(&mut self, key: PageKey) -> bool {
        let tag = tag_of(key);
        let Some(idx) = self.lookup(key, tag) else {
            return false;
        };
        self.index_remove(tag, idx);
        if self.entries[idx as usize].dirty {
            self.unlink::<DIRTY>(idx);
            self.dirty_count -= 1;
        }
        self.unlink::<LRU>(idx);
        self.release(idx).1
    }

    /// Drops every page (the benchmark-between-runs `drop_caches`).
    /// Dirty pages are silently discarded — callers flush first if the data
    /// matters (mirrors `echo 3 > drop_caches` after `sync`).
    pub fn clear(&mut self) {
        self.index.fill(NIL);
        self.len = 0;
        self.entries.clear();
        self.free.clear();
        self.ends = [EMPTY; 2];
        self.dirty_count = 0;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Hit ratio over all lookups so far (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            0.0
        } else {
            self.stats.hits as f64 / total as f64
        }
    }

    /// Puts an unlinked, unindexed slot on the free list, where no finger
    /// can match it; returns the page it held.
    fn release(&mut self, idx: u32) -> Victim {
        let entry = &mut self.entries[idx as usize];
        entry.live = false;
        self.free.push(idx);
        (entry.key, entry.dirty)
    }

    /// Evicts the LRU page: off both lists and out of the index. Returns its
    /// slot, still holding the victim's key and dirty flag, which the caller
    /// reads before it reuses or frees the slot.
    fn detach_lru(&mut self) -> u32 {
        let idx = self.ends[LRU].tail;
        let Entry {
            key,
            dirty,
            speculative,
            ..
        } = self.entries[idx as usize];
        if dirty {
            self.unlink::<DIRTY>(idx);
            self.dirty_count -= 1;
        }
        if speculative {
            self.stats.wasted_prefetch += 1;
        }
        self.unlink::<LRU>(idx);
        self.index_remove(tag_of(key), idx);
        self.stats.evictions += 1;
        idx
    }

    /// Bucket of a key's tag: its low bits.
    fn bucket(&self, tag: u32) -> usize {
        tag as usize & (self.index.len() - 1)
    }

    /// Slab slot of a resident page.
    fn lookup(&self, key: PageKey, tag: u32) -> Option<u32> {
        let mut idx = self.index[self.bucket(tag)];
        while idx != NIL {
            let entry = &self.entries[idx as usize];
            if entry.key == key {
                return Some(idx);
            }
            idx = entry.hnext;
        }
        None
    }

    /// Indexes a page that [`PageCache::lookup`] did not find: pushes it at
    /// its bucket's head.
    fn index_insert(&mut self, tag: u32, idx: u32) {
        let bucket = self.bucket(tag);
        self.entries[idx as usize].hnext = std::mem::replace(&mut self.index[bucket], idx);
        self.len += 1;
    }

    /// Takes a resident page out of the index: its chain predecessor, or
    /// the bucket head, takes over its successor.
    fn index_remove(&mut self, tag: u32, idx: u32) {
        let next = self.entries[idx as usize].hnext;
        let bucket = self.bucket(tag);
        let mut at = self.index[bucket];
        if at == idx {
            self.index[bucket] = next;
        } else {
            while self.entries[at as usize].hnext != idx {
                at = self.entries[at as usize].hnext;
            }
            self.entries[at as usize].hnext = next;
        }
        let key = self.entries[idx as usize].key;
        debug_assert!(self.lookup(key, tag).is_none(), "{key:?} is still indexed");
        self.len -= 1;
    }

    /// Moves a resident page to MRU — in the dirty list too, which keeps the
    /// two lists in the same order.
    fn promote(&mut self, idx: u32) {
        self.splice_to_head::<LRU>(idx, idx);
        if self.entries[idx as usize].dirty {
            self.splice_to_head::<DIRTY>(idx, idx);
        }
    }

    /// Dirties a resident page, threading it into the dirty list behind its
    /// nearest more recently used dirty neighbour. Writes dirty the MRU page,
    /// which has none; only re-dirtying after a failed flush walks.
    fn set_dirty(&mut self, idx: u32) {
        if self.entries[idx as usize].dirty {
            return;
        }
        let mut newer = self.entries[idx as usize].links[LRU].prev;
        while newer != NIL && !self.entries[newer as usize].dirty {
            newer = self.entries[newer as usize].links[LRU].prev;
        }
        self.entries[idx as usize].dirty = true;
        self.dirty_count += 1;
        self.link_after::<DIRTY>(newer, idx);
    }

    /// Takes a linked entry off list `L`.
    fn unlink<const L: usize>(&mut self, idx: u32) {
        let Link { prev, next } = self.entries[idx as usize].links[L];
        match prev {
            NIL => self.ends[L].head = next,
            _ => self.entries[prev as usize].links[L].next = next,
        }
        match next {
            NIL => self.ends[L].tail = prev,
            _ => self.entries[next as usize].links[L].prev = prev,
        }
    }

    /// Moves the linked segment of list `L` from `near` back to `far` (its
    /// head-side and tail-side ends) to the head, keeping its order: six
    /// link writes at most, whatever its length. No-op when `near` is `NIL`
    /// or already the head.
    fn splice_to_head<const L: usize>(&mut self, near: u32, far: u32) {
        if near == NIL || self.entries[near as usize].links[L].prev == NIL {
            return;
        }
        let before = self.entries[near as usize].links[L].prev;
        let after = self.entries[far as usize].links[L].next;
        self.entries[before as usize].links[L].next = after;
        match after {
            NIL => self.ends[L].tail = before,
            _ => self.entries[after as usize].links[L].prev = before,
        }
        let head = std::mem::replace(&mut self.ends[L].head, near);
        self.entries[head as usize].links[L].prev = far;
        self.entries[far as usize].links[L].next = head;
        self.entries[near as usize].links[L].prev = NIL;
    }

    /// Links an unlinked entry into list `L` right behind `anchor`, or at the
    /// head when `anchor` is `NIL`.
    fn link_after<const L: usize>(&mut self, anchor: u32, idx: u32) {
        let next = match anchor {
            NIL => std::mem::replace(&mut self.ends[L].head, idx),
            _ => std::mem::replace(&mut self.entries[anchor as usize].links[L].next, idx),
        };
        match next {
            NIL => self.ends[L].tail = idx,
            _ => self.entries[next as usize].links[L].prev = idx,
        }
        self.entries[idx as usize].links[L] = Link { prev: anchor, next };
    }
}

#[cfg(test)]
impl PageCache {
    /// [`PageCache::touch`] as it was before the finger: always through the
    /// index. The per-page reference in `sim::parity` reads with it.
    pub(crate) fn touch_hashed(&mut self, key: PageKey) -> bool {
        match self.lookup(key, tag_of(key)) {
            Some(idx) => {
                self.promote(idx);
                self.entries[idx as usize].speculative = false;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Length of the longest bucket chain, checking that the chains hold
    /// exactly the resident pages, each in its own bucket.
    fn longest_chain(&self) -> usize {
        let (mut longest, mut indexed) = (0, 0);
        for (bucket, &head) in self.index.iter().enumerate() {
            let (mut idx, mut len) = (head, 0);
            while idx != NIL {
                let entry = &self.entries[idx as usize];
                assert!(entry.live, "chain {bucket} holds a freed slot");
                assert_eq!(self.bucket(tag_of(entry.key)), bucket, "{:?}", entry.key);
                (idx, len) = (entry.hnext, len + 1);
                assert!(len <= self.len, "chain {bucket} is longer than the cache");
            }
            (longest, indexed) = (longest.max(len), indexed + len);
        }
        assert_eq!(indexed, self.len, "chains hold every resident page once");
        longest
    }

    /// Keys along list `L`, tail (least recently used) first, checking that
    /// the links agree in both directions.
    fn order<const L: usize>(&self) -> Vec<PageKey> {
        let mut keys = Vec::new();
        let (mut idx, mut towards_tail) = (self.ends[L].tail, NIL);
        while idx != NIL {
            let entry = &self.entries[idx as usize];
            assert_eq!(entry.links[L].next, towards_tail, "list {L} back-link");
            keys.push(entry.key);
            (towards_tail, idx) = (idx, entry.links[L].prev);
        }
        assert_eq!(self.ends[L].head, towards_tail, "list {L} head");
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::Inserted::Added;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_eviction_order() {
        let mut c = PageCache::new(3);
        c.insert((1, 0), false);
        c.insert((1, 1), false);
        c.insert((1, 2), false);
        c.touch((1, 0)); // 0 becomes MRU; LRU order now 1, 2, 0
        let ev = c.insert((1, 3), false);
        assert_eq!(ev, Added(Some(((1, 1), false))));
        let ev = c.insert((1, 4), false);
        assert_eq!(ev, Added(Some(((1, 2), false))));
        assert!(c.contains((1, 0)));
    }

    #[test]
    fn reinsert_promotes_instead_of_duplicating() {
        let mut c = PageCache::new(2);
        c.insert((1, 0), false);
        c.insert((1, 1), false);
        assert_eq!(c.insert((1, 0), false), Inserted::Promoted); // no eviction
        assert_eq!(c.len(), 2);
        let ev = c.insert((1, 2), false);
        assert_eq!(ev, Added(Some(((1, 1), false)))); // 1 was LRU after promotion
    }

    #[test]
    fn dirty_pages_reported_on_eviction() {
        let mut c = PageCache::new(2);
        c.insert((1, 0), false);
        c.mark_dirty((1, 0));
        c.insert((1, 1), false);
        let ev = c.insert((1, 2), false);
        assert_eq!(ev, Added(Some(((1, 0), true))));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn insert_dirty_is_insert_plus_mark_dirty() {
        let mut c = PageCache::new(2);
        assert_eq!(c.insert_dirty((1, 0)), Added(None));
        c.insert((1, 1), true);
        assert_eq!(c.dirty_count(), 1);
        // Over a resident page: promotes, de-speculates, dirties.
        assert_eq!(c.insert_dirty((1, 1)), Inserted::Promoted);
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.insert((1, 2), false), Added(Some(((1, 0), true))));
        assert_eq!(c.insert((1, 3), false), Added(Some(((1, 1), true))));
        assert_eq!(c.stats().wasted_prefetch, 0);
    }

    #[test]
    fn writeback_flushes_lru_first_and_clears_dirty() {
        let mut c = PageCache::new(4);
        for i in 0..4 {
            c.insert((1, i), false);
            c.mark_dirty((1, i));
        }
        assert_eq!(c.dirty_count(), 4);
        let mut flushed = Vec::new();
        c.writeback(2, &mut flushed);
        assert_eq!(flushed, vec![(1, 0), (1, 1)]); // LRU end first
        assert_eq!(c.dirty_count(), 2);
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn writeback_skips_clean_pages_and_follows_promotion() {
        let mut c = PageCache::new(8);
        for i in 0..8 {
            c.insert((1, i), false);
        }
        // Dirtied out of LRU order, then the least recent dirty page is touched.
        c.mark_dirty((1, 5));
        c.mark_dirty((1, 1));
        c.mark_dirty((1, 3));
        c.touch((1, 1));
        let mut flushed = Vec::new();
        c.writeback(usize::MAX, &mut flushed);
        assert_eq!(flushed, vec![(1, 3), (1, 5), (1, 1)]);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn wasted_prefetch_accounting() {
        let mut c = PageCache::new(2);
        c.insert((1, 0), true); // speculative, never touched
        c.insert((1, 1), true);
        c.touch((1, 1)); // used: de-speculated
        c.insert((1, 2), false); // evicts (1,0) → wasted
        c.insert((1, 3), false); // evicts (1,1) → NOT wasted
        assert_eq!(c.stats().wasted_prefetch, 1);
    }

    #[test]
    fn touch_counts_hits_and_misses() {
        let mut c = PageCache::new(2);
        assert!(!c.touch((9, 9)));
        c.insert((9, 9), false);
        assert!(c.touch((9, 9)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = PageCache::new(4);
        for i in 0..4 {
            c.insert((1, i), false);
            c.mark_dirty((1, i));
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.dirty_count(), 0);
        assert!(!c.touch((1, 0)));
    }

    #[test]
    fn forget_removes_and_reports_dirty() {
        let mut c = PageCache::new(4);
        c.insert((1, 0), false);
        c.insert((1, 1), false);
        c.mark_dirty((1, 1));
        assert!(!c.forget((1, 0))); // clean
        assert!(c.forget((1, 1))); // dirty
        assert!(!c.forget((1, 2))); // absent
        assert!(c.is_empty());
        assert_eq!(c.dirty_count(), 0);
        // Slots are recycled.
        c.insert((1, 3), false);
        assert!(c.touch((1, 3)));
    }

    #[test]
    fn finger_never_matches_a_freed_slot() {
        let mut c = PageCache::new(4);
        for i in 0..4 {
            c.insert((1, i), false); // page i in slab slot i
        }
        assert!(c.touch((1, 1))); // the finger rests on slot 1 …
        c.forget((1, 2)); // … and slot 2 is freed with its key still in it
        assert!(!c.touch((1, 2)));
        assert!(c.touch((1, 1)));
        assert_eq!(c.set_capacity(1), vec![((1, 0), false), ((1, 3), false)]);
        assert!(c.touch((1, 1))); // finger on slot 1, slot 2 and 3 free
        assert!(!c.touch((1, 2)));
        assert!(!c.touch((1, 3)));
    }

    #[test]
    fn a_run_stops_at_its_sinks_error_with_that_page_admitted() {
        let mut c = PageCache::new(4);
        let sink = |p, _, _| if p == 11 { Err(p) } else { Ok(()) };
        assert_eq!(c.admit_run(2, 10..13, None, false, sink), Err(11));
        assert!(c.contains((2, 10)) && c.contains((2, 11)) && !c.contains((2, 12)));
    }

    #[test]
    fn mark_dirty_absent_page_is_false() {
        let mut c = PageCache::new(2);
        assert!(!c.mark_dirty((1, 0)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = PageCache::new(0);
    }

    #[test]
    fn set_capacity_shrink_evicts_lru_and_grow_restores() {
        let mut c = PageCache::new(4);
        for i in 0..4 {
            c.insert((1, i), false);
        }
        c.mark_dirty((1, 0));
        let ev = c.set_capacity(2);
        assert_eq!(ev, vec![((1, 0), true), ((1, 1), false)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.dirty_count(), 0);
        // Growing back evicts nothing and admits new pages again.
        assert!(c.set_capacity(4).is_empty());
        c.insert((1, 7), false);
        c.insert((1, 8), false);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn forget_relinks_around_the_middle_of_a_chain() {
        // 16 buckets: pages 16 apart on one inode share one.
        let mut c = PageCache::new(8);
        for page in [3, 19, 35] {
            c.insert((1, page), false);
        }
        assert_eq!(c.longest_chain(), 3); // 35 → 19 → 3
        assert!(!c.forget((1, 19)));
        assert_eq!(c.longest_chain(), 2);
        assert!(c.contains((1, 3)) && c.contains((1, 35)) && !c.contains((1, 19)));
        // The freed slot comes back at the head of the same chain.
        c.insert((1, 51), false);
        assert_eq!(c.longest_chain(), 3);
        assert!(c.touch((1, 3)) && c.touch((1, 35)) && c.touch((1, 51)));
    }

    #[test]
    fn touch_run_matches_per_page_touches() {
        // Inode 1 on even pages: a step's run continues on its key's inode.
        let mut model = Model::new(|page| (1 + page % 2, page), 1);
        for op in [
            (17, 0, 6), // admit (1, 0..6): linked in touch order
            (0, 1, 0),  // (2, 1) goes on top of it
            (18, 0, 6), // the whole run as one segment, spliced below (2, 1)
            (18, 0, 6), // again: already at the head
            (7, 2, 0),  // (1, 2) dirty, then (2, 1) dirty and MRU
            (7, 1, 0),
            (5, 1, 0),
            (18, 0, 6), // a dirty page in the middle: it passes (2, 1) in both lists
            (12, 4, 0), // forget (1, 4)
            (18, 0, 6), // a miss in the middle: stops there
            (17, 8, 3), // admit (1, 8..11) …
            (5, 10, 0), // … then touch (1, 10) and (1, 8): 8, 10, 9 from the head
            (5, 8, 0),
            (18, 8, 3), // a run not linked in touch order
            (18, 8, 4), // ends at the absent (1, 11)
        ] {
            model.step(op).unwrap();
        }
        assert_eq!(model.cache.stats().hits, 6 + 6 + 1 + 6 + 4 + 2 + 3 + 3);
    }

    #[test]
    fn a_segment_already_at_the_head_stays_put() {
        let mut c = PageCache::new(8);
        for page in 0..4 {
            c.insert((1, page), false);
        }
        let before = c.order::<LRU>();
        assert_eq!(c.touch_run(1, 0..4), 4);
        assert_eq!(c.order::<LRU>(), before);
    }

    #[test]
    fn a_segment_at_the_tail_leaves_the_tail_behind_it() {
        let mut c = PageCache::new(6);
        for key in [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)] {
            c.insert(key, false);
        }
        assert_eq!(c.touch_run(1, 0..4), 4);
        let lru = [(2, 0), (2, 1), (1, 0), (1, 1), (1, 2), (1, 3)];
        assert_eq!(c.order::<LRU>(), lru);
        assert_eq!(c.insert((3, 0), false), Added(Some(((2, 0), false))));
    }

    #[test]
    fn the_last_page_of_a_file_is_touchable() {
        let mut c = PageCache::new(2);
        c.insert((7, u64::MAX), false);
        assert!(c.touch((7, u64::MAX)));
        assert!(!c.touch((7, u64::MAX - 1)));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn entry_stays_within_40_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 40);
    }

    /// The cache this one replaced, kept as the reference: a `Vec` in LRU
    /// order (index 0 = least recently used) whose writeback scans up from
    /// the tail over clean and dirty pages alike.
    struct NaiveCache {
        capacity: usize,
        /// (key, dirty, speculative)
        pages: Vec<(PageKey, bool, bool)>,
        stats: CacheStats,
    }

    impl NaiveCache {
        fn position(&self, key: PageKey) -> Option<usize> {
            self.pages.iter().position(|p| p.0 == key)
        }

        fn evict_lru(&mut self) -> Victim {
            let (key, dirty, speculative) = self.pages.remove(0);
            self.stats.wasted_prefetch += u64::from(speculative);
            self.stats.evictions += 1;
            (key, dirty)
        }

        fn touch(&mut self, key: PageKey) -> bool {
            match self.position(key) {
                Some(i) => {
                    let page = self.pages.remove(i);
                    self.pages.push((page.0, page.1, false));
                    self.stats.hits += 1;
                    true
                }
                None => {
                    self.stats.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: PageKey, speculative: bool) -> Inserted {
            if let Some(i) = self.position(key) {
                let page = self.pages.remove(i);
                self.pages.push((page.0, page.1, page.2 && speculative));
                return Inserted::Promoted;
            }
            let mut evicted = Vec::new();
            while self.pages.len() >= self.capacity {
                evicted.push(self.evict_lru());
            }
            assert!(evicted.len() <= 1, "len <= capacity was broken");
            self.pages.push((key, false, speculative));
            self.stats.insertions += 1;
            Inserted::Added(evicted.pop())
        }

        fn mark_dirty(&mut self, key: PageKey) -> bool {
            match self.position(key) {
                Some(i) => {
                    self.pages[i].1 = true;
                    true
                }
                None => false,
            }
        }

        fn writeback(&mut self, max: usize) -> Vec<PageKey> {
            let mut flushed = Vec::new();
            for page in &mut self.pages {
                if flushed.len() >= max {
                    break;
                }
                if page.1 {
                    page.1 = false;
                    self.stats.writebacks += 1;
                    flushed.push(page.0);
                }
            }
            flushed
        }

        fn set_capacity(&mut self, capacity: usize) -> Vec<Victim> {
            self.capacity = capacity;
            let mut evicted = Vec::new();
            while self.pages.len() > self.capacity {
                evicted.push(self.evict_lru());
            }
            evicted
        }

        fn forget(&mut self, key: PageKey) -> bool {
            self.position(key).is_some_and(|i| self.pages.remove(i).1)
        }

        fn dirty_order(&self) -> Vec<PageKey> {
            let dirty = self.pages.iter().filter(|p| p.1);
            dirty.map(|p| p.0).collect()
        }
    }

    /// [`PageCache`] beside [`NaiveCache`], stepped by `(op, page, n)`
    /// triples; `key` names the page a step draws and `run_step` is the
    /// distance between the pages of a device run.
    struct Model {
        cache: PageCache,
        naive: NaiveCache,
        key: fn(u64) -> PageKey,
        run_step: u64,
    }

    impl Model {
        fn new(key: fn(u64) -> PageKey, run_step: u64) -> Self {
            Model {
                cache: PageCache::new(8),
                naive: NaiveCache {
                    capacity: 8,
                    pages: Vec::new(),
                    stats: CacheStats::default(),
                },
                key,
                run_step,
            }
        }

        /// One operation on both caches, then every comparison.
        fn step(&mut self, (op, page, n): (u8, u64, usize)) -> Result<(), TestCaseError> {
            let (c, naive) = (&mut self.cache, &mut self.naive);
            let key = (self.key)(page);
            match op {
                0..=2 => prop_assert_eq!(c.insert(key, false), naive.insert(key, false)),
                3 | 4 => prop_assert_eq!(c.insert(key, true), naive.insert(key, true)),
                5 | 6 => prop_assert_eq!(c.touch(key), naive.touch(key)),
                7 | 8 => prop_assert_eq!(c.mark_dirty(key), naive.mark_dirty(key)),
                9 => {
                    let written = naive.insert(key, false);
                    naive.mark_dirty(key);
                    prop_assert_eq!(c.insert_dirty(key), written);
                }
                10 | 11 => {
                    let mut flushed = Vec::new();
                    c.writeback(n, &mut flushed);
                    prop_assert_eq!(&flushed, &naive.writeback(n));
                    if op == 11 {
                        for &k in flushed.iter().rev() {
                            prop_assert_eq!(c.mark_dirty(k), naive.mark_dirty(k));
                        }
                    }
                }
                12 => prop_assert_eq!(c.forget(key), naive.forget(key)),
                16 | 17 => {
                    // A device run: the absent stretch from `key`, at most
                    // `n` pages, against one insert per page.
                    let run_step = self.run_step;
                    let run = move |i: u64| key.1 + i * run_step;
                    let len = (0..n as u64)
                        .take_while(|&i| naive.position((key.0, run(i))).is_none())
                        .count() as u64;
                    let demand = (op == 16).then_some(run(n as u64 / 2));
                    let mut expect = Vec::new();
                    for p in (0..len).map(run) {
                        let victim = naive.insert((key.0, p), Some(p) != demand).victim();
                        expect.push((p, victim.unwrap_or(((key.0, p), false))));
                    }
                    let mut got = Vec::new();
                    let pages = (0..len).map(run);
                    let ran = c.admit_run(key.0, pages, demand, false, |p, old, flush| {
                        got.push((p, (old, flush)));
                        Ok::<(), ()>(())
                    });
                    prop_assert_eq!(ran, Ok(()));
                    prop_assert_eq!(got, expect);
                }
                18 => {
                    // Touches along a run stop at its first miss, counted once.
                    let pages = (0..n as u64).map(|i| key.1 + i * self.run_step);
                    let hits = pages
                        .clone()
                        .take_while(|&p| naive.touch((key.0, p)))
                        .count();
                    prop_assert_eq!(c.touch_run(key.0, pages), hits as u64);
                }
                13 | 14 => {
                    let capacity = if op == 13 { 1 + n } else { 8 };
                    prop_assert_eq!(c.set_capacity(capacity), naive.set_capacity(capacity));
                }
                _ => {
                    // Rare: most sequences should build up state.
                    if n == 0 {
                        c.clear();
                        naive.pages.clear();
                    }
                }
            }
            prop_assert_eq!(c.stats(), naive.stats);
            prop_assert_eq!(c.len(), naive.pages.len());
            prop_assert_eq!(c.dirty_count(), naive.dirty_order().len());
            let lru: Vec<PageKey> = naive.pages.iter().map(|p| p.0).collect();
            prop_assert_eq!(c.order::<LRU>(), lru);
            prop_assert_eq!(c.order::<DIRTY>(), naive.dirty_order());
            // The index finds exactly the resident pages (runs reach past
            // the drawn ones), and its chains hold nothing else.
            c.longest_chain();
            for page in 0..48 {
                let key = (self.key)(page);
                prop_assert_eq!(c.contains(key), naive.position(key).is_some());
            }
            Ok(())
        }
    }

    proptest! {
        /// The cache never exceeds capacity and stays internally consistent
        /// under arbitrary operation sequences.
        #[test]
        fn prop_capacity_invariant(ops in proptest::collection::vec((0u8..4, 0u64..20), 1..300)) {
            let mut c = PageCache::new(8);
            for (op, page) in ops {
                match op {
                    0 => { c.insert((1, page), false); }
                    1 => { c.insert((1, page), true); }
                    2 => { c.touch((1, page)); }
                    _ => { c.mark_dirty((1, page)); }
                }
                prop_assert!(c.len() <= 8);
                prop_assert!(c.dirty_count() <= c.len());
            }
            // Every mapped page must be reachable by a touch.
            let resident: Vec<PageKey> = (0..20).map(|p| (1u64, p))
                .filter(|k| c.contains(*k)).collect();
            for k in resident {
                prop_assert!(c.touch(k));
            }
        }

        /// Model-based: every operation returns what the tail-scanning
        /// reference returns and leaves the same pages, in the same LRU and
        /// dirty order, with the same counters. Pages range past the
        /// capacity, so absent and non-MRU pages are dirtied too, and a
        /// flushed batch is re-dirtied as `Sim` does after a failed flush.
        #[test]
        fn prop_matches_tail_scanning_reference(
            ops in proptest::collection::vec((0u8..19, 0u64..24, 0usize..12), 1..400),
        ) {
            let mut model = Model::new(|page| (1 + page % 2, page), 1);
            for op in ops {
                model.step(op)?;
            }
        }

        /// The same against chains the test above barely builds. Its pages
        /// are two buckets' worth, 64 apart on one inode: the low bits of a
        /// tag are a bijection of the page's, so they share a bucket in any
        /// table of up to 64 (capacity 8 is 16 buckets, the drawn
        /// operations grow it to at most 12 — 32 — and the tail to 17 —
        /// 64), and a device run steps 64 pages at a time. After the drawn
        /// operations, a fixed tail builds a chain of eight and drives it
        /// through `forget`, eviction by a run, a grow that re-indexes, a
        /// shrink and `clear`, each on a chain of four or more.
        #[test]
        fn prop_matches_the_reference_on_long_chains(
            ops in proptest::collection::vec((0u8..19, 0u64..24, 0usize..12), 1..400),
        ) {
            let mut model = Model::new(|page| (1, page % 2 * 5 + page / 2 * 64), 64);
            for op in ops {
                model.step(op)?;
            }
            model.step((15, 0, 0))?; // clear
            model.step((14, 0, 0))?; // capacity 8
            model.step((17, 0, 8))?; // keys 0, 64, .., 448: one chain of eight
            for op in [
                (12, 6, 0),  // forget the middle of the chain
                (17, 1, 6),  // a run in the other bucket evicts five of it
                (13, 0, 16), // grow to 17 (64 buckets): re-index
                (17, 16, 4), // a run onto the re-indexed chain
                (13, 0, 4),  // shrink to 5, four of them in the chain
                (15, 0, 0),  // clear
            ] {
                prop_assert!(model.cache.longest_chain() >= 4, "{:?} on a short chain", op);
                model.step(op)?;
            }
            prop_assert_eq!(model.cache.longest_chain(), 0);
        }
    }
}
