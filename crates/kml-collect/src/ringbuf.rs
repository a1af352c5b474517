//! The collection ring (paper §3.1, §3.3): `kml_platform::seqring` — the
//! workspace's one lock-free seqlock ring — with consumer-side telemetry.
//!
//! The ring itself (version stamps, fences, overwrite-on-overflow, loss
//! accounting) lives in [`kml_platform::seqring`]; [`RingBuffer`] and
//! [`Producer`] are that ring under the names the collection path has
//! always used. What this module adds is [`Consumer`]: the same read
//! endpoint, plus occupancy / drop / consumed metrics bound with
//! [`Consumer::attach_telemetry`]. It stays here because `kml-platform`
//! sits below `kml-telemetry` in the crate graph.

use kml_platform::seqring::{self, SeqRing};
use kml_telemetry::{Counter, Gauge, Registry};

pub use kml_platform::seqring::Producer;

/// Consumer-side telemetry: ring occupancy, cumulative drops, and consumed
/// records. All handles default to no-op; [`Consumer::attach_telemetry`]
/// binds them. Updated from the consumer (the training side), never from
/// the producer, so the wait-free push path stays untouched.
#[derive(Debug, Default)]
struct RingTelemetry {
    occupancy: Gauge,
    dropped: Gauge,
    consumed: Counter,
}

/// A bounded lock-free SPSC circular buffer with overwrite-on-overflow.
///
/// Split it into its two endpoints with [`RingBuffer::split`].
///
/// # Example
///
/// ```
/// use kml_collect::RingBuffer;
///
/// let (producer, mut consumer) = RingBuffer::<u64>::with_capacity(4).split();
/// for i in 0..6 {
///     producer.push(i); // never blocks; 0 and 1 get overwritten
/// }
/// let drained: Vec<u64> = consumer.drain().collect();
/// assert_eq!(drained, vec![2, 3, 4, 5]);
/// assert_eq!(consumer.dropped(), 2);
/// ```
#[derive(Debug)]
pub struct RingBuffer<T: Copy + Send>(SeqRing<T>);

impl<T: Copy + Send> RingBuffer<T> {
    /// Creates a buffer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> Self {
        RingBuffer(SeqRing::with_capacity(capacity))
    }

    /// Splits into the producer and consumer endpoints.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        let (producer, inner) = self.0.split();
        (
            producer,
            Consumer {
                inner,
                telemetry: RingTelemetry::default(),
            },
        )
    }
}

/// The read endpoint: `pop`/`drain` plus loss accounting and telemetry.
#[derive(Debug)]
pub struct Consumer<T: Copy + Send> {
    inner: seqring::Consumer<T>,
    telemetry: RingTelemetry,
}

impl<T: Copy + Send> Consumer<T> {
    /// Binds this consumer's metrics to a registry under `prefix`:
    /// `{prefix}.occupancy` (records waiting), `{prefix}.dropped_total`
    /// (records lost to overwriting), `{prefix}.consumed_total`. All three
    /// are maintained from the consumer side, on each `pop` and once per
    /// drain.
    pub fn attach_telemetry(&mut self, registry: &Registry, prefix: &str) {
        self.telemetry = RingTelemetry {
            occupancy: registry.gauge(&format!("{prefix}.occupancy")),
            dropped: registry.gauge(&format!("{prefix}.dropped_total")),
            consumed: registry.counter(&format!("{prefix}.consumed_total")),
        };
    }

    /// Removes and returns the oldest available record, or `None` if the
    /// buffer is currently empty.
    pub fn pop(&mut self) -> Option<T> {
        let out = self.inner.pop();
        if self.telemetry.occupancy.is_live() {
            if out.is_some() {
                self.telemetry.consumed.inc();
            }
            self.telemetry.dropped.set(self.inner.dropped());
            self.telemetry.occupancy.set(self.inner.len_estimate());
        }
        out
    }

    /// Drains everything available now, as [`seqring::Consumer::drain`]
    /// does; the telemetry is brought up to date once, when the returned
    /// iterator is dropped, to what popping the same records leaves.
    pub fn drain(&mut self) -> Drain<'_, T> {
        Drain {
            consumed_before: self.inner.consumed(),
            inner: self.inner.drain(),
            telemetry: &self.telemetry,
        }
    }
}

/// The iterator [`Consumer::drain`] returns.
pub struct Drain<'a, T: Copy + Send> {
    inner: seqring::Drain<'a, T>,
    telemetry: &'a RingTelemetry,
    consumed_before: u64,
}

impl<T: Copy + Send> Iterator for Drain<'_, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        self.inner.next()
    }
}

impl<T: Copy + Send> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        if self.telemetry.occupancy.is_live() {
            self.telemetry.update(
                self.inner.consumed() - self.consumed_before,
                self.inner.dropped(),
                self.inner.len_estimate(),
            );
        }
    }
}

impl RingTelemetry {
    /// A function of its own, so a drain's caller carries none of the
    /// registry's code inline.
    fn update(&self, consumed: u64, dropped: u64, occupancy: u64) {
        self.consumed.add(consumed);
        self.dropped.set(dropped);
        self.occupancy.set(occupancy);
    }
}

/// The ring's own books — `dropped`, `consumed`, `len_estimate`,
/// `capacity` — are the inner endpoint's, read-only from here: popping
/// and draining go through [`Consumer::pop`] / [`Consumer::drain`] so
/// the telemetry sees them.
impl<T: Copy + Send> std::ops::Deref for Consumer<T> {
    type Target = seqring::Consumer<T>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_tracks_occupancy_and_drops() {
        let reg = Registry::new();
        let (p, mut c) = RingBuffer::<u32>::with_capacity(3).split();
        c.attach_telemetry(&reg, "ring");
        for i in 0..8 {
            p.push(i); // 5 oldest overwritten
        }
        assert_eq!(c.pop(), Some(5));
        assert_eq!(c.pop(), Some(6));
        if reg.is_enabled() {
            let snap = reg.snapshot();
            assert_eq!(snap.counter("ring.consumed_total"), Some(2));
            assert_eq!(snap.gauge("ring.dropped_total"), Some(5));
            assert_eq!(snap.gauge("ring.occupancy"), Some(1));
        }
    }

    /// The three telemetry values, as a snapshot of `reg` reads them.
    fn books(reg: &Registry) -> (Option<u64>, Option<u64>, Option<u64>) {
        let snap = reg.snapshot();
        (
            snap.counter("ring.consumed_total"),
            snap.gauge("ring.dropped_total"),
            snap.gauge("ring.occupancy"),
        )
    }

    #[test]
    fn a_drain_leaves_the_telemetry_per_record_pops_leave() {
        let (reg_d, reg_p) = (Registry::new(), Registry::new());
        let (pd, mut cd) = RingBuffer::<u32>::with_capacity(5).split();
        let (pp, mut cp) = RingBuffer::<u32>::with_capacity(5).split();
        cd.attach_telemetry(&reg_d, "ring");
        cp.attach_telemetry(&reg_p, "ring");
        for i in 0..12 {
            pd.push(i); // 7 oldest overwritten
            pp.push(i);
        }
        // A partial batch, then the rest.
        assert_eq!(cd.drain().take(2).collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!((cp.pop(), cp.pop()), (Some(7), Some(8)));
        assert_eq!(books(&reg_d), (Some(2), Some(7), Some(3)));
        assert_eq!(books(&reg_d), books(&reg_p));
        assert_eq!(cd.drain().collect::<Vec<_>>(), vec![9, 10, 11]);
        while cp.pop().is_some() {}
        assert_eq!(books(&reg_d), (Some(5), Some(7), Some(0)));
        assert_eq!(books(&reg_d), books(&reg_p));
    }

    #[test]
    fn drain_stops_at_the_snapshot() {
        const CAP: usize = 8;
        let (p, mut c) = RingBuffer::<u64>::with_capacity(CAP).split();
        p.push(0);
        let mut yielded = 0;
        for x in c.drain().take(4 * CAP) {
            p.push(x + 1);
            yielded += 1;
        }
        assert_eq!(yielded, 1);
        assert_eq!(c.pop(), Some(1));
    }

    #[test]
    fn an_unwinding_body_still_settles_the_books() {
        let reg = Registry::new();
        let (p, mut c) = RingBuffer::<u32>::with_capacity(4).split();
        c.attach_telemetry(&reg, "ring");
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
        assert_eq!(books(&reg), (Some(2), Some(6), Some(2)));
    }

    #[test]
    fn concurrent_drains_keep_the_books_balanced() {
        // A 4-slot ring against a fast producer: records are overwritten,
        // some mid-copy, and each lost one must show in `dropped_total`.
        // Every word of a record derives from its first, so a torn copy
        // cannot pass for one.
        const N: u64 = 1_000_000;
        let wide = |i: u64| -> [u64; 32] { std::array::from_fn(|k| i ^ (k as u64) << 40) };
        let reg = Registry::new();
        let (p, mut c) = RingBuffer::<[u64; 32]>::with_capacity(4).split();
        c.attach_telemetry(&reg, "ring");
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(wide(i));
            }
        });
        let mut seen = 0u64;
        while !(producer.is_finished() && c.len_estimate() == 0) {
            for record in c.drain() {
                assert_eq!(record, wide(record[0]), "torn read");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen + c.dropped(), N);
        assert_eq!(books(&reg), (Some(seen), Some(c.dropped()), Some(0)));
    }

    use proptest::prelude::*;

    proptest! {
        /// A drained ring and a popped ring fed alike, against the
        /// reference "the newest `cap` records not yet taken": same
        /// values, same `dropped()` / `consumed()`, and the same three
        /// telemetry values after every step, over at least three laps.
        #[test]
        fn prop_drain_and_pop_keep_the_same_books(
            cap in 1usize..=8,
            ops in proptest::collection::vec((0u8..3, 1usize..12), 1..120)
        ) {
            let (reg_d, reg_p) = (Registry::new(), Registry::new());
            let (pd, mut cd) = RingBuffer::<u64>::with_capacity(cap).split();
            let (pp, mut cp) = RingBuffer::<u64>::with_capacity(cap).split();
            cd.attach_telemetry(&reg_d, "ring");
            cp.attach_telemetry(&reg_p, "ring");
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
                let got_drain: Vec<u64> = cd.drain().take(n).collect();
                let got_pop: Vec<u64> = std::iter::from_fn(|| cp.pop()).take(n).collect();
                let from = next.max(pushed.saturating_sub(cap as u64));
                let want: Vec<u64> = (from..pushed).take(n).collect();
                next = from + want.len() as u64;
                prop_assert_eq!(&got_drain, &want);
                prop_assert_eq!(&got_pop, &want);
                prop_assert_eq!(cd.dropped(), from - (cd.consumed() - want.len() as u64));
                prop_assert_eq!((cd.dropped(), cd.consumed()), (cp.dropped(), cp.consumed()));
                prop_assert_eq!(books(&reg_d), books(&reg_p));
                prop_assert_eq!(books(&reg_d).0, Some(cd.consumed()));
            }
            prop_assert!(pushed >= 6 * cap as u64);
        }
    }
}
