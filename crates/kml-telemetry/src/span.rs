//! Span timing for the stages of the KML closed loop.
//!
//! A [`Span`] measures wall-clock time from creation to [`Span::finish`]
//! (or drop) and records the elapsed nanoseconds into a [`Histogram`]. When
//! telemetry is disabled — at compile time or via a no-op handle — starting
//! a span does not even read the clock.
//!
//! [`StageSet`] bundles one histogram per stage of the paper's loop,
//! observe → featurize → infer → actuate (plus train, for the online
//! trainer), under conventional `_ns` metric names, so every instrumented
//! crate labels the same stage the same way and `repro -- overheads` can
//! line the live numbers up against the offline E5 bench.

use crate::hist::Histogram;
use crate::Registry;
use std::time::Instant;

/// The stages of the closed loop, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Tracepoint capture + ring-buffer transfer (paper: "collection").
    Collect,
    /// Feature building / normalization (paper: "normalization").
    Featurize,
    /// Model forward pass.
    Infer,
    /// Applying the decision to the kernel knob.
    Actuate,
    /// Online training step, where a component trains in-loop.
    Train,
}

impl Stage {
    pub const ALL: [Stage; 5] = [
        Stage::Collect,
        Stage::Featurize,
        Stage::Infer,
        Stage::Actuate,
        Stage::Train,
    ];

    /// Canonical metric-name fragment for this stage.
    pub fn key(self) -> &'static str {
        match self {
            Stage::Collect => "collect",
            Stage::Featurize => "featurize",
            Stage::Infer => "infer",
            Stage::Actuate => "actuate",
            Stage::Train => "train",
        }
    }
}

/// An in-flight stage measurement. Records on `finish()` or drop.
#[derive(Debug)]
pub struct Span {
    hist: Histogram,
    start: Option<Instant>,
}

impl Span {
    /// Starts timing against `hist`. Reads the clock only if the histogram
    /// is live.
    #[inline]
    pub fn start(hist: &Histogram) -> Span {
        Span {
            hist: hist.clone(),
            start: if hist.is_live() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Stops the clock and records elapsed nanoseconds.
    #[inline]
    pub fn finish(mut self) {
        self.finish_inner();
    }

    #[inline]
    fn finish_inner(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.hist.record(ns);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

impl Histogram {
    /// Whether this handle records anywhere (false for no-op handles and
    /// always false in disabled builds).
    #[inline]
    pub fn is_live(&self) -> bool {
        self.live()
    }

    /// Times `f` and records its wall-clock duration in nanoseconds.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.is_live() {
            let t = Instant::now();
            let out = f();
            self.record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            out
        } else {
            f()
        }
    }
}

/// One histogram per loop stage, under `{prefix}.{stage}_ns` names.
#[derive(Clone, Debug)]
pub struct StageSet {
    pub collect_ns: Histogram,
    pub featurize_ns: Histogram,
    pub infer_ns: Histogram,
    pub actuate_ns: Histogram,
    pub train_ns: Histogram,
}

impl StageSet {
    /// Registers the five stage histograms under `prefix`.
    pub fn register(registry: &Registry, prefix: &str) -> StageSet {
        let h = |stage: Stage| registry.histogram(&format!("{prefix}.{}_ns", stage.key()));
        StageSet {
            collect_ns: h(Stage::Collect),
            featurize_ns: h(Stage::Featurize),
            infer_ns: h(Stage::Infer),
            actuate_ns: h(Stage::Actuate),
            train_ns: h(Stage::Train),
        }
    }

    /// All-noop stage set.
    pub fn noop() -> StageSet {
        StageSet {
            collect_ns: Histogram::noop(),
            featurize_ns: Histogram::noop(),
            infer_ns: Histogram::noop(),
            actuate_ns: Histogram::noop(),
            train_ns: Histogram::noop(),
        }
    }

    /// The histogram for `stage`.
    pub fn hist(&self, stage: Stage) -> &Histogram {
        match stage {
            Stage::Collect => &self.collect_ns,
            Stage::Featurize => &self.featurize_ns,
            Stage::Infer => &self.infer_ns,
            Stage::Actuate => &self.actuate_ns,
            Stage::Train => &self.train_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_elapsed_time() {
        let reg = Registry::new();
        let h = reg.histogram("stage.test_ns");
        let span = Span::start(&h);
        std::thread::sleep(std::time::Duration::from_micros(200));
        span.finish();
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 100_000, "recorded only {} ns", s.sum);
    }

    #[test]
    fn span_records_on_drop_too() {
        let reg = Registry::new();
        let h = reg.histogram("stage.drop_ns");
        {
            let _span = Span::start(&h);
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn noop_span_never_reads_clock() {
        let h = Histogram::noop();
        let span = Span::start(&h);
        assert!(span.start.is_none());
        span.finish();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn time_closure_passes_value_through() {
        let reg = Registry::new();
        let h = reg.histogram("stage.closure_ns");
        let v = h.time(|| 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn stage_set_registers_conventional_names() {
        let reg = Registry::new();
        let stages = StageSet::register(&reg, "readahead.loop");
        stages.infer_ns.record(21_000);
        stages.collect_ns.record(49);
        let snap = reg.snapshot();
        assert!(snap.histogram("readahead.loop.infer_ns").is_some());
        assert!(snap.histogram("readahead.loop.collect_ns").is_some());
        assert_eq!(snap.histogram("readahead.loop.infer_ns").unwrap().count, 1);
    }
}
