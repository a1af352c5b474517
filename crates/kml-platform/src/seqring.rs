//! The lock-free seqlock ring (paper §3.1, §3.3) — the workspace's one
//! implementation. `kml_collect::ringbuf` re-exports it with consumer-side
//! telemetry attached; anything lower in the crate graph (a decision
//! recorder in `kml-lifecycle`, say) instantiates [`SeqRing`] directly.
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
                tail: 0,
                dropped: 0,
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
        let cap = self.shared.slots.len() as u64;
        let h = self.shared.head.load(Ordering::Relaxed);
        let slot = &self.shared.slots[(h % cap) as usize];
        let lap_base = (h / cap) * 2;
        // Mark the slot as being written (odd version).
        slot.version.store(lap_base + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // Safety: single producer; consumers never write; version is odd so
        // any concurrent reader will discard what it sees.
        unsafe {
            (*slot.data.get()).write(value);
        }
        // Publish: even version for this lap, then advance head.
        slot.version.store(lap_base + 2, Ordering::Release);
        self.shared.head.store(h + 1, Ordering::Release);
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
    /// Next record index this consumer will attempt to read.
    tail: u64,
    dropped: u64,
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
        let cap = self.shared.slots.len() as u64;
        loop {
            let h = self.shared.head.load(Ordering::Acquire);
            if self.tail >= h {
                return None;
            }
            // Lapped: everything older than h - cap is gone.
            if h - self.tail > cap {
                let lost = h - self.tail - cap;
                self.dropped += lost;
                self.tail = h - cap;
            }
            let slot = &self.shared.slots[(self.tail % cap) as usize];
            let expected = (self.tail / cap) * 2 + 2;
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 != expected {
                // The producer already started a newer lap on this slot.
                self.dropped += 1;
                self.tail += 1;
                continue;
            }
            // Safety: version matched the lap we expect, so the slot holds
            // record `tail` fully written. The read is volatile because the
            // producer may still overwrite concurrently (classic seqlock);
            // the version re-check below discards any torn copy, and
            // T: Copy guarantees discarding is side-effect free.
            let value = unsafe { std::ptr::read_volatile((*slot.data.get()).as_ptr()) };
            fence(Ordering::Acquire);
            let v2 = slot.version.load(Ordering::Acquire);
            if v2 != expected {
                // Overwritten mid-read; the copy is torn — discard it.
                self.dropped += 1;
                self.tail += 1;
                continue;
            }
            self.tail += 1;
            return Some(value);
        }
    }

    /// Drains everything currently available.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.pop())
    }

    /// Records lost to overwriting so far (the paper's configurable-capacity
    /// trade-off made visible).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records successfully consumed so far.
    pub fn consumed(&self) -> u64 {
        self.tail - self.dropped
    }

    /// Estimated records currently waiting (may race with the producer).
    pub fn len_estimate(&self) -> u64 {
        let h = self.shared.head.load(Ordering::Acquire);
        (h - self.tail).min(self.shared.slots.len() as u64)
    }

    /// Buffer capacity in records.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
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

    #[test]
    fn concurrent_producer_consumer_accounts_for_every_record() {
        const N: u64 = 100_000;
        let (p, mut c) = SeqRing::<u64>::with_capacity(1 << 16).split();
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(i);
            }
        });
        let mut seen = Vec::with_capacity(N as usize);
        loop {
            match c.pop() {
                Some(v) => seen.push(v),
                None => {
                    if producer.is_finished() && c.len_estimate() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        producer.join().unwrap();
        // The consumer may get lapped under scheduler pressure, but every
        // record is either delivered (in order, uncorrupted) or counted lost.
        let mut prev = None;
        for &v in &seen {
            if let Some(p) = prev {
                assert!(v > p, "order violated: {p} then {v}");
            }
            prev = Some(v);
        }
        assert_eq!(seen.len() as u64 + c.dropped(), N);
    }

    #[test]
    fn concurrent_with_tiny_buffer_never_corrupts() {
        // Deliberately overflow: a 4-slot ring against a fast producer.
        // Values are constructed so corruption (torn reads) is detectable:
        // both halves of the tuple must match.
        const N: u64 = 50_000;
        let (p, mut c) = SeqRing::<(u64, u64)>::with_capacity(4).split();
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push((i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
        });
        let mut consumed = 0u64;
        loop {
            match c.pop() {
                Some((a, b)) => {
                    assert_eq!(b, a.wrapping_mul(0x9e37_79b9_7f4a_7c15), "torn read");
                    consumed += 1;
                }
                None => {
                    if producer.is_finished() && c.len_estimate() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(consumed + c.dropped(), N);
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
    }
}
