//! Lock-free observability for the KML closed loop.
//!
//! The paper's operational claims are overhead numbers — ~49 ns/event
//! collection, ~21 µs inference, ~51 µs training (§4, E5) — and the extended
//! KML report stresses that a kernel-resident ML framework must account for
//! its own CPU and memory cost *continuously*. This crate is that
//! accounting: a metrics registry cheap enough to sit on per-tracepoint call
//! sites, plus span timing for each stage of the
//! observe → featurize → infer → actuate loop, plus snapshot export as
//! pretty tables and JSON-lines.
//!
//! # Design
//!
//! - **Hot path = atomics only.** [`Counter`] is sharded across cache-line
//!   padded atomic cells (one `fetch_add` per record, shard picked by a
//!   thread-local id). [`Histogram`] is a 65-bucket log2 histogram (one
//!   `fetch_add` into a bucket plus one into a sum cell). No locks, no
//!   allocation, no syscalls.
//! - **Cold path may lock.** Creating a metric interns its name in a
//!   mutex-protected map; snapshotting walks that map. Both happen per
//!   window or per run, never per event — mirroring the paper's rule that
//!   the I/O path itself stays lock-free (§3.2).
//! - **One off switch, at run time.** [`Registry::noop`] hands out handles
//!   that record nothing (a `None` check per call, 0.6 ns an increment in
//!   `BENCH_baseline.json`), so benches can compare live vs disabled cost
//!   in one binary. There is no compile-time switch.
//! - **Units are part of the name.** Durations are recorded in nanoseconds
//!   and metric names end in `_ns`; sizes are recorded in bytes and names
//!   end in `_bytes`. [`snapshot::Snapshot::render_table`] derives its unit
//!   column from these suffixes, so a mislabeled metric is visible on sight.
//!
//! # Example
//!
//! ```
//! use kml_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache.hit_total");
//! let lat = reg.histogram("device.read_latency_ns");
//! hits.inc();
//! lat.record(17_500);
//! let snap = reg.snapshot();
//! println!("{}", snap.render_table());
//! assert_eq!(snap.counter("cache.hit_total"), Some(1));
//! ```

pub mod hist;
pub mod snapshot;
pub mod span;

pub use hist::{HistSnapshot, Histogram, Log2Hist};
pub use snapshot::{json_str, Snapshot};
pub use span::{Span, Stage, StageSet};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of counter shards. Power of two; 8 cache lines per counter buys
/// uncontended increments for as many concurrent producers as the loop has.
const SHARDS: usize = 8;

/// One cache-line-padded atomic cell, so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell {
    value: AtomicU64,
}

/// Stable small id for the current thread, used to pick a shard.
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) & (SHARDS - 1)
}

#[derive(Default)]
struct CounterCore {
    shards: [PaddedCell; SHARDS],
}

/// Monotonic event counter. Cloning shares the underlying cells.
///
/// `inc`/`add` are one relaxed `fetch_add` on a thread-private shard.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Option<Arc<CounterCore>>,
}

impl std::fmt::Debug for CounterCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterCore").finish_non_exhaustive()
    }
}

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Counter::default()
    }

    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.inner {
            core.shards[shard_index()]
                .value
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Whether this handle records anywhere (false for no-op handles).
    /// Call sites with unavoidable
    /// side-costs (an extra load, a format) can skip them when dead.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        if let Some(core) = &self.inner {
            return core
                .shards
                .iter()
                .map(|s| s.value.load(Ordering::Relaxed))
                .sum();
        }
        0
    }
}

/// Last-write-wins instantaneous value (queue depth, occupancy, ...).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Option<Arc<AtomicU64>>,
}

impl Gauge {
    pub fn noop() -> Self {
        Gauge::default()
    }

    /// Whether this handle records anywhere (see [`Counter::is_live`]).
    #[inline]
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    #[inline(always)]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.inner {
            cell.store(v, Ordering::Relaxed);
        }
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.inner {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline(always)]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.inner {
            cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        if let Some(cell) = &self.inner {
            return cell.load(Ordering::Relaxed);
        }
        0
    }
}

#[derive(Default)]
struct RegistryCore {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The metrics registry: hands out handles, takes snapshots.
///
/// Cloning is cheap and shares the metric store. A registry is `Send + Sync`;
/// one per [`kernel-sim`] instance keeps concurrent tests isolated, while
/// [`Registry::global`] serves call sites with no natural owner.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryCore>>,
}

impl std::fmt::Debug for RegistryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryCore").finish_non_exhaustive()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryCore::default())),
        }
    }

    /// A registry whose handles record nothing: the off switch, and what
    /// benches compare a live registry against.
    pub fn noop() -> Self {
        Registry::default()
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Process-wide registry for call sites with no natural owner.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get-or-create the counter `name`. Cold path (locks the name map).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(core) = &self.inner {
            let mut map = core.counters.lock().unwrap_or_else(|e| e.into_inner());
            return map
                .entry(name.to_string())
                .or_insert_with(|| Counter {
                    inner: Some(Arc::new(CounterCore::default())),
                })
                .clone();
        }
        Counter::noop()
    }

    /// Get-or-create the gauge `name`. Cold path.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(core) = &self.inner {
            let mut map = core.gauges.lock().unwrap_or_else(|e| e.into_inner());
            return map
                .entry(name.to_string())
                .or_insert_with(|| Gauge {
                    inner: Some(Arc::new(AtomicU64::new(0))),
                })
                .clone();
        }
        Gauge::noop()
    }

    /// Get-or-create the histogram `name`. Cold path.
    ///
    /// By convention the name ends in `_ns` for durations (record
    /// nanoseconds) or `_bytes` for sizes (record bytes).
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(core) = &self.inner {
            let mut map = core.histograms.lock().unwrap_or_else(|e| e.into_inner());
            return map
                .entry(name.to_string())
                .or_insert_with(Histogram::new_live)
                .clone();
        }
        Histogram::noop()
    }

    /// Consistent-enough point-in-time copy of every metric. Cold path.
    pub fn snapshot(&self) -> Snapshot {
        if let Some(core) = &self.inner {
            let counters = core
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect();
            let gauges = core
                .gauges
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect();
            let histograms = core
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect();
            return Snapshot {
                counters,
                gauges,
                histograms,
            };
        }
        Snapshot::default()
    }

    /// Zeroes every registered metric (between repro runs). Cold path.
    pub fn reset(&self) {
        if let Some(core) = &self.inner {
            for c in core
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
            {
                if let Some(cc) = &c.inner {
                    for s in &cc.shards {
                        s.value.store(0, Ordering::Relaxed);
                    }
                }
            }
            for g in core
                .gauges
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
            {
                if let Some(cell) = &g.inner {
                    cell.store(0, Ordering::Relaxed);
                }
            }
            for h in core
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
            {
                h.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("a.b_total");
        let g = reg.gauge("a.depth");
        c.inc();
        c.add(4);
        g.set(7);
        g.add(3);
        g.sub(2);
        assert!(reg.is_enabled());
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn same_name_shares_cells() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.counter("x").inc();
        assert_eq!(reg.counter("x").get(), 2);
    }

    #[test]
    fn noop_registry_records_nothing() {
        let reg = Registry::noop();
        let c = reg.counter("silent");
        c.add(100);
        assert_eq!(c.get(), 0);
        assert!(!reg.is_enabled() && !c.is_live());
        assert!(reg.snapshot().counters.is_empty());
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = Registry::new();
        reg.counter("c").add(9);
        reg.gauge("g").set(9);
        reg.histogram("h_ns").record(9);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.gauge("g"), Some(0));
        assert_eq!(snap.histogram("h_ns").map(|h| h.count), Some(0));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let reg = Registry::new();
        let c = reg.counter("racing_total");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
