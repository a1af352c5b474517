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
    /// are maintained from the consumer side on each `pop`.
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

    /// Drains everything currently available.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.pop())
    }
}

/// The ring's own books — `dropped`, `consumed`, `len_estimate`,
/// `capacity` — are the inner endpoint's, read-only from here: popping
/// goes through [`Consumer::pop`] so the telemetry sees it.
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
}
