//! The lock-free seqlock ring (paper §3.1, §3.3) — the workspace's one
//! implementation. `kml_collect::ringbuf` re-exports it with consumer-side
//! telemetry attached; anything lower in the crate graph instantiates
//! [`SeqRing`] directly.
//!
//! Requirements from the paper:
//!
//! - the producer runs on the I/O path and must **never block** (deadlock
//!   safety: "KML uses lock-free data structures to avoid deadlock and to
//!   reduce the overhead of data collection operations");
//! - the buffer is **bounded** ("the circular buffer's size is configurable
//!   to cap memory usage");
//! - overflow **overwrites the oldest data and the loss is observable**
//!   ("losing part of the training data could reduce the model's accuracy").
//!
//! The implementation is a single-producer/single-consumer seqlock ring:
//! each slot carries a version counter that advances by two per lap (odd
//! while the producer is writing). The producer only ever writes its own
//! cursor and slot versions, the consumer only reads, so neither side can
//! block the other; a consumer that gets lapped detects the version skew,
//! counts the records it lost, and resynchronizes.
//!
//! Neither side divides by the capacity to find its slot. The producer
//! keeps the record that opened its current lap and the version the lap
//! publishes; the consumer keeps its record index, slot index and
//! expected version and moves them with a compare-and-wrap. Only a
//! lapped consumer's resync divides.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

struct Slot<T> {
    version: AtomicU64,
    data: UnsafeCell<MaybeUninit<T>>,
}

// Safety: access to `data` is mediated by the seqlock version protocol;
// the consumer only dereferences when the version proves the producer is
// not concurrently writing, and T: Copy means reads never observe drops.
unsafe impl<T: Copy + Send> Sync for Slot<T> {}
unsafe impl<T: Copy + Send> Send for Slot<T> {}

struct Shared<T> {
    slots: Box<[Slot<T>]>,
    /// Number of completed pushes.
    head: AtomicU64,
    /// The producer's cursor: the record that opened the current lap,
    /// `head / cap * cap`, and the even version the lap publishes,
    /// `head / cap * 2 + 2`, so record `head` goes to slot `head -
    /// lap_start`. Both move only when a lap ends. Only the producer
    /// touches them, so `Relaxed` suffices; atomics (not `Cell`s) keep
    /// `push` callable through `&Producer` and the ring `Sync`.
    lap_start: AtomicU64,
    lap_version: AtomicU64,
}

/// The consumer's position: record `tail` lives in slot `slot` under
/// version `version` (`tail % cap`, `tail / cap * 2 + 2`), and `dropped`
/// of the records before it were lost to overwriting.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    tail: u64,
    slot: usize,
    version: u64,
    dropped: u64,
}

impl Cursor {
    /// Skips the records the producer has overwritten by the time `head`
    /// was published: everything older than `head - cap` is gone.
    #[inline(always)]
    fn catch_up(&mut self, head: u64, cap: usize) {
        if head - self.tail > cap as u64 {
            self.resync(head, cap as u64);
        }
    }

    /// Records published after `tail`, at most `cap` of them still held.
    #[inline]
    fn waiting(self, head: &AtomicU64, cap: usize) -> u64 {
        (head.load(Ordering::Acquire) - self.tail).min(cap as u64)
    }

    /// The cursor's one divide, paid only after being lapped.
    #[cold]
    #[inline(never)]
    fn resync(&mut self, head: u64, cap: u64) {
        self.dropped += head - cap - self.tail;
        self.tail = head - cap;
        self.slot = (self.tail % cap) as usize;
        self.version = self.tail / cap * 2 + 2;
    }

    /// Reads record `tail` and moves past it: `None` (counted in
    /// `dropped`) if the producer has started a newer lap on its slot or
    /// overwrote it mid-read. The seqlock's one read, shared by
    /// [`Consumer::pop`] and [`Drain`].
    #[inline(always)]
    fn step<T: Copy>(&mut self, slots: &[Slot<T>]) -> Option<T> {
        let slot = &slots[self.slot];
        let mut value = None;
        if slot.version.load(Ordering::Acquire) == self.version {
            // The read is volatile because the producer may still overwrite
            // concurrently (classic seqlock), and it copies the slot as
            // `MaybeUninit<T>`, so a torn copy is never a `T`: the version
            // re-check below decides whether it becomes one.
            // Safety: `slot.data` is a valid, aligned slot of `slots`.
            let copy = unsafe { std::ptr::read_volatile(slot.data.get()) };
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Acquire) == self.version {
                // Safety: the version matched the lap we expect before and
                // after the copy, so the producer wrote record `tail` in
                // full and did not touch it meanwhile.
                value = Some(unsafe { copy.assume_init() });
            }
        }
        if value.is_none() {
            self.dropped += 1;
        }
        // Compare-and-wrap: the next slot, or slot 0 one lap (two
        // versions) on.
        self.tail += 1;
        self.slot += 1;
        if self.slot == slots.len() {
            self.slot = 0;
            self.version += 2;
        }
        value
    }
}

/// A bounded lock-free SPSC circular buffer with overwrite-on-overflow.
///
/// Split it into its two endpoints with [`SeqRing::split`].
///
/// # Example
///
/// ```
/// use kml_platform::seqring::SeqRing;
///
/// let (producer, mut consumer) = SeqRing::<u64>::with_capacity(4).split();
/// for i in 0..6 {
///     producer.push(i); // never blocks; 0 and 1 get overwritten
/// }
/// let drained: Vec<u64> = consumer.drain().collect();
/// assert_eq!(drained, vec![2, 3, 4, 5]);
/// assert_eq!(consumer.dropped(), 2);
/// ```
#[derive(Debug)]
pub struct SeqRing<T: Copy + Send> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Copy + Send> SeqRing<T> {
    /// Creates a buffer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        let slots = (0..capacity)
            .map(|_| Slot {
                version: AtomicU64::new(0),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        SeqRing {
            shared: Arc::new(Shared {
                slots,
                head: AtomicU64::new(0),
                lap_start: AtomicU64::new(0),
                lap_version: AtomicU64::new(2),
            }),
        }
    }

    /// Splits into the producer and consumer endpoints.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        (
            Producer {
                shared: self.shared.clone(),
            },
            Consumer {
                shared: self.shared,
                cursor: Cursor {
                    tail: 0,
                    slot: 0,
                    version: 2,
                    dropped: 0,
                },
            },
        )
    }
}

/// The write endpoint: wait-free `push`, usable from the I/O path.
#[derive(Debug)]
pub struct Producer<T: Copy + Send> {
    shared: Arc<Shared<T>>,
}

impl<T: Copy + Send> Producer<T> {
    /// Appends a record, overwriting the oldest one if the buffer is full.
    /// Never blocks and never fails.
    pub fn push(&self, value: T) {
        let shared = &*self.shared;
        let h = shared.head.load(Ordering::Relaxed);
        let lap_start = shared.lap_start.load(Ordering::Relaxed);
        let version = shared.lap_version.load(Ordering::Relaxed);
        let i = (h - lap_start) as usize;
        let slot = &shared.slots[i];
        // Mark the slot as being written (odd version).
        slot.version.store(version - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // Safety: single producer; consumers never write; version is odd so
        // any concurrent reader will discard what it sees.
        unsafe {
            (*slot.data.get()).write(value);
        }
        // Publish: even version for this lap, open the next lap after its
        // last slot, then advance head.
        slot.version.store(version, Ordering::Release);
        if i + 1 == shared.slots.len() {
            shared.lap_start.store(h + 1, Ordering::Relaxed);
            shared.lap_version.store(version + 2, Ordering::Relaxed);
        }
        shared.head.store(h + 1, Ordering::Release);
    }

    /// Total records pushed since creation.
    pub fn pushed(&self) -> u64 {
        self.shared.head.load(Ordering::Acquire)
    }

    /// Buffer capacity in records.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

/// The read endpoint: `pop`/`drain` plus loss accounting.
#[derive(Debug)]
pub struct Consumer<T: Copy + Send> {
    shared: Arc<Shared<T>>,
    cursor: Cursor,
}

impl<T: Copy + Send> Consumer<T> {
    /// Removes and returns the oldest available record, or `None` if the
    /// buffer is currently empty.
    // `#[inline]`: `kml_collect`'s telemetry wrapper is this function's one
    // caller per `T`. Without the hint the optimiser keeps this body out of
    // line and inlines the wrapper into *its* callers, which moves the call
    // boundary the collection path was measured with.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        loop {
            let h = shared.head.load(Ordering::Acquire);
            if self.cursor.tail >= h {
                return None;
            }
            self.cursor.catch_up(h, shared.slots.len());
            if let Some(value) = self.cursor.step(&shared.slots) {
                return Some(value);
            }
        }
    }

    /// Drains everything available now — a snapshot: `head` is read once,
    /// so records pushed while the drain runs wait for the next one, and
    /// at most `capacity` slots are read. The cursor lives in the
    /// returned iterator and is written back when it is dropped, also
    /// when dropped early or by an unwinding loop body.
    pub fn drain(&mut self) -> Drain<'_, T> {
        let shared = &*self.shared;
        let head = shared.head.load(Ordering::Acquire);
        if self.cursor.tail < head {
            self.cursor.catch_up(head, shared.slots.len());
        }
        Drain {
            slots: &shared.slots,
            head: &shared.head,
            end: head,
            cursor: self.cursor,
            home: &mut self.cursor,
        }
    }

    /// Records lost to overwriting so far (the paper's configurable-capacity
    /// trade-off made visible).
    pub fn dropped(&self) -> u64 {
        self.cursor.dropped
    }

    /// Records successfully consumed so far.
    pub fn consumed(&self) -> u64 {
        self.cursor.tail - self.cursor.dropped
    }

    /// Estimated records currently waiting (may race with the producer).
    pub fn len_estimate(&self) -> u64 {
        self.cursor
            .waiting(&self.shared.head, self.shared.slots.len())
    }

    /// Buffer capacity in records.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

/// The iterator [`Consumer::drain`] returns. Its books — `dropped`,
/// `consumed`, `len_estimate` — are the consumer's as of the last record
/// it yielded; they become the consumer's own when it is dropped.
pub struct Drain<'a, T: Copy + Send> {
    slots: &'a [Slot<T>],
    head: &'a AtomicU64,
    /// `head` as loaded when the drain began.
    end: u64,
    cursor: Cursor,
    home: &'a mut Cursor,
}

impl<T: Copy + Send> Drain<'_, T> {
    /// [`Consumer::dropped`], counting the records this drain has skipped.
    pub fn dropped(&self) -> u64 {
        self.cursor.dropped
    }

    /// [`Consumer::consumed`], counting the records this drain has yielded.
    pub fn consumed(&self) -> u64 {
        self.cursor.tail - self.cursor.dropped
    }

    /// [`Consumer::len_estimate`] from this drain's position.
    pub fn len_estimate(&self) -> u64 {
        self.cursor.waiting(self.head, self.slots.len())
    }
}

impl<T: Copy + Send> Iterator for Drain<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        while self.cursor.tail < self.end {
            if let Some(value) = self.cursor.step(self.slots) {
                return Some(value);
            }
        }
        None
    }
}

impl<T: Copy + Send> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        *self.home = self.cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_when_not_full() {
        let (p, mut c) = SeqRing::<u32>::with_capacity(8).split();
        for i in 0..5 {
            p.push(i);
        }
        let got: Vec<u32> = c.drain().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let (p, mut c) = SeqRing::<u32>::with_capacity(3).split();
        for i in 0..10 {
            p.push(i);
        }
        let got: Vec<u32> = c.drain().collect();
        assert_eq!(got, vec![7, 8, 9]);
        assert_eq!(c.dropped(), 7);
        assert_eq!(p.pushed(), 10);
    }

    #[test]
    fn interleaved_push_pop() {
        let (p, mut c) = SeqRing::<u32>::with_capacity(4).split();
        p.push(1);
        p.push(2);
        assert_eq!(c.pop(), Some(1));
        p.push(3);
        p.push(4);
        p.push(5); // still fits: 2,3,4,5
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(c.pop(), None);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn empty_pop_is_none() {
        let (_p, mut c) = SeqRing::<u64>::with_capacity(2).split();
        assert_eq!(c.pop(), None);
        assert_eq!(c.len_estimate(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = SeqRing::<u8>::with_capacity(0);
    }

    #[test]
    fn capacity_one_keeps_latest() {
        let (p, mut c) = SeqRing::<u8>::with_capacity(1).split();
        for i in 0..100 {
            p.push(i);
        }
        assert_eq!(c.pop(), Some(99));
        assert_eq!(c.dropped(), 99);
    }

    /// How a concurrent test takes what is there: one `pop`, or one drain.
    #[derive(Clone, Copy, Debug)]
    enum Take {
        Pop,
        Drain,
    }

    impl Take {
        fn take<T: Copy + Send>(self, c: &mut Consumer<T>) -> Vec<T> {
            match self {
                Take::Pop => c.pop().into_iter().collect(),
                Take::Drain => c.drain().collect(),
            }
        }
    }

    #[test]
    fn concurrent_producer_consumer_accounts_for_every_record() {
        const N: u64 = 100_000;
        for take in [Take::Pop, Take::Drain] {
            let (p, mut c) = SeqRing::<u64>::with_capacity(1 << 16).split();
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    p.push(i);
                }
            });
            let mut seen = Vec::with_capacity(N as usize);
            loop {
                let got = take.take(&mut c);
                if got.is_empty() {
                    if producer.is_finished() && c.len_estimate() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                seen.extend(got);
            }
            producer.join().unwrap();
            // The consumer may get lapped under scheduler pressure, but every
            // record is either delivered (in order, uncorrupted) or counted lost.
            let mut prev = None;
            for &v in &seen {
                if let Some(p) = prev {
                    assert!(v > p, "{take:?}: order violated: {p} then {v}");
                }
                prev = Some(v);
            }
            assert_eq!(seen.len() as u64 + c.dropped(), N, "{take:?}");
            assert_eq!(c.consumed(), seen.len() as u64, "{take:?}");
        }
    }

    /// A 32-word record whose every word is derived from the first, so a
    /// copy torn by a concurrent overwrite cannot pass for a record; wide,
    /// so the copy takes long enough for overwrites to land inside it.
    fn wide(i: u64) -> [u64; 32] {
        std::array::from_fn(|k| i ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    #[test]
    fn concurrent_with_tiny_buffer_never_corrupts() {
        // Deliberately overflow: a 4-slot ring against a fast producer,
        // long enough for both threads to run at once.
        const N: u64 = 1_000_000;
        for take in [Take::Pop, Take::Drain] {
            let (p, mut c) = SeqRing::<[u64; 32]>::with_capacity(4).split();
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    p.push(wide(i));
                }
            });
            let mut consumed = 0u64;
            loop {
                let got = take.take(&mut c);
                if got.is_empty() {
                    if producer.is_finished() && c.len_estimate() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                for record in got {
                    assert_eq!(record, wide(record[0]), "{take:?}: torn read");
                    consumed += 1;
                }
            }
            producer.join().unwrap();
            assert_eq!(consumed + c.dropped(), N, "{take:?}");
            assert_eq!(c.consumed(), consumed, "{take:?}");
        }
    }

    #[test]
    fn drain_stops_at_the_snapshot() {
        // A loop body that pushes keeps pace with the drain; the drain
        // must still end at the head it started from.
        const CAP: usize = 8;
        let (p, mut c) = SeqRing::<u64>::with_capacity(CAP).split();
        p.push(0);
        let mut yielded = 0;
        for x in c.drain().take(4 * CAP) {
            p.push(x + 1);
            yielded += 1;
        }
        assert_eq!(yielded, 1);
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.consumed() + c.dropped(), p.pushed());
    }

    #[test]
    fn drain_reads_at_most_capacity_slots() {
        let (p, mut c) = SeqRing::<u32>::with_capacity(3).split();
        for i in 0..10 {
            p.push(i);
        }
        let mut drain = c.drain();
        assert_eq!(drain.dropped(), 7);
        assert_eq!(drain.len_estimate(), 3);
        assert_eq!(drain.next(), Some(7));
        assert_eq!((drain.consumed(), drain.len_estimate()), (1, 2));
        drop(drain);
        assert_eq!((c.consumed(), c.dropped(), c.len_estimate()), (1, 7, 2));
    }

    #[test]
    fn drain_writes_its_cursor_back_when_the_body_unwinds() {
        let (p, mut c) = SeqRing::<u32>::with_capacity(4).split();
        for i in 0..10 {
            p.push(i);
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for x in c.drain() {
                assert_ne!(x, 7, "the body gives up at 7");
            }
        }));
        assert!(unwound.is_err());
        assert_eq!((c.consumed(), c.dropped()), (2, 6));
        assert_eq!(c.drain().collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn len_estimate_tracks_backlog() {
        let (p, mut c) = SeqRing::<u8>::with_capacity(8).split();
        assert_eq!(c.len_estimate(), 0);
        p.push(1);
        p.push(2);
        assert_eq!(c.len_estimate(), 2);
        c.pop();
        assert_eq!(c.len_estimate(), 1);
    }

    use proptest::prelude::*;

    proptest! {
        /// Conservation law under arbitrary interleavings and wraparound:
        /// every pushed record is either delivered (in order, exactly once)
        /// or counted in `dropped()` — including capacity 1, where almost
        /// everything is overwritten. Values are sequence numbers, so the
        /// exact loss per pop is checkable: popping `v` after expecting
        /// `next` means precisely `v - next` records were overwritten.
        #[test]
        fn prop_drop_accounting_is_exact(
            cap in 1usize..5,
            ops in proptest::collection::vec((0u8..2, 1u64..8), 1..200)
        ) {
            let (p, mut c) = SeqRing::<u64>::with_capacity(cap).split();
            let mut pushed = 0u64;
            let mut next_expected = 0u64;
            for (op, n) in ops {
                if op == 0 {
                    for _ in 0..n {
                        p.push(pushed);
                        pushed += 1;
                    }
                } else {
                    for _ in 0..n {
                        let before = c.dropped();
                        match c.pop() {
                            Some(v) => {
                                prop_assert!(v >= next_expected, "replay: {v} < {next_expected}");
                                prop_assert_eq!(c.dropped() - before, v - next_expected);
                                next_expected = v + 1;
                            }
                            None => {
                                // Empty: every push is accounted for.
                                prop_assert_eq!(c.consumed() + c.dropped(), pushed);
                                break;
                            }
                        }
                    }
                }
            }
            // Final drain settles the books completely.
            while c.pop().is_some() {}
            prop_assert_eq!(c.consumed() + c.dropped(), pushed);
            prop_assert_eq!(p.pushed(), pushed);
        }

        /// The snapshot drain against repeated `pop` and against the
        /// reference — "the newest `cap` records not yet taken" — over
        /// random push / drain / partial-drain / pop interleavings on two
        /// rings fed alike, ending with at least three laps of the cursor.
        /// Values are sequence numbers; the books must agree after every step.
        #[test]
        fn prop_drain_matches_repeated_pop(
            cap in 1usize..=8,
            ops in proptest::collection::vec((0u8..4, 1usize..12), 1..120)
        ) {
            let (pd, mut cd) = SeqRing::<u64>::with_capacity(cap).split();
            let (pp, mut cp) = SeqRing::<u64>::with_capacity(cap).split();
            let (mut pushed, mut next) = (0u64, 0u64);
            let laps = std::iter::repeat_n((0u8, 3 * cap), 2).chain([(1u8, usize::MAX)]);
            for (op, n) in ops.into_iter().chain(laps) {
                if op == 0 {
                    for _ in 0..n {
                        pd.push(pushed);
                        pp.push(pushed);
                        pushed += 1;
                    }
                    continue;
                }
                let n = if op == 1 { usize::MAX } else { n };
                let dropped_before = cd.dropped();
                let got_drain: Vec<u64> = if op == 3 {
                    std::iter::from_fn(|| cd.pop()).take(n).collect()
                } else {
                    cd.drain().take(n).collect()
                };
                let got_pop: Vec<u64> = std::iter::from_fn(|| cp.pop()).take(n).collect();
                let from = next.max(pushed.saturating_sub(cap as u64));
                let want: Vec<u64> = (from..pushed).take(n).collect();
                prop_assert_eq!(&got_drain, &want);
                prop_assert_eq!(&got_pop, &want);
                prop_assert_eq!(cd.dropped() - dropped_before, from - next);
                next = from + want.len() as u64;
                prop_assert_eq!((cd.dropped(), cd.consumed()), (cp.dropped(), cp.consumed()));
                prop_assert_eq!(cd.len_estimate(), cp.len_estimate());
                prop_assert_eq!(cd.consumed() + cd.dropped() + cd.len_estimate(), pushed);
            }
            prop_assert!(pushed >= 6 * cap as u64);
            prop_assert_eq!(cd.len_estimate(), 0);
        }
    }
}
