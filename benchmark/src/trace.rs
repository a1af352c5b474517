//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, rep)`. Calls made once per
//! rep are one span each; calls made once per operation (hundreds of
//! thousands per rep) are folded into one *group* span per
//! `(name, parent, rep)` that carries a `count` and the summed duration, so
//! the buffer stays small and is sized once; a group opened with
//! [`Tracer::group_hist`] also feeds a per-name histogram of call durations.
//! A layer's self time is its spans' duration minus the part their child
//! spans cover. The buffer lives in memory and is written out when the run
//! ends.

use crate::stats::LogLinHist;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer's buffer.
pub type SpanIx = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanIx>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
    /// Summed duration of those calls (`end_ns - start_ns` for a plain span).
    pub total_ns: u64,
    /// Histogram the group's call durations go to, if it keeps one.
    hist: Option<usize>,
}

/// Spans the buffer is sized for; a run that needs more is a harness bug.
const CAPACITY: usize = 1 << 14;

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    hists: Vec<(&'static str, LogLinHist)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            hists: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    fn push(&mut self, span: Span) -> SpanIx {
        assert!(self.spans.len() < CAPACITY, "span buffer sized too small");
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a plain span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanIx>, rep: u32) -> SpanIx {
        let now = self.now();
        self.push(Span {
            name,
            parent,
            rep,
            start_ns: now,
            end_ns: now,
            count: 1,
            total_ns: 0,
            hist: None,
        })
    }

    pub fn close(&mut self, ix: SpanIx) {
        let now = self.now();
        let s = &mut self.spans[ix];
        s.end_ns = now;
        s.total_ns = now - s.start_ns;
    }

    /// Opens an empty group span; [`Tracer::add`] folds calls into it.
    pub fn group(&mut self, name: &'static str, parent: Option<SpanIx>, rep: u32) -> SpanIx {
        let ix = self.open(name, parent, rep);
        self.spans[ix].count = 0;
        ix
    }

    /// A group whose call durations also go to the histogram of `name`
    /// (shared by every rep's group of that name).
    pub fn group_hist(&mut self, name: &'static str, parent: Option<SpanIx>, rep: u32) -> SpanIx {
        let ix = self.group(name, parent, rep);
        let at = self
            .hists
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| {
                self.hists.push((name, LogLinHist::new()));
                self.hists.len() - 1
            });
        self.spans[ix].hist = Some(at);
        ix
    }

    /// Folds one call `[start_ns, end_ns]` into group `ix`.
    pub fn add(&mut self, ix: SpanIx, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let s = &mut self.spans[ix];
        if s.count == 0 {
            s.start_ns = start_ns;
        }
        s.end_ns = end_ns;
        s.count += 1;
        s.total_ns += dur;
        if let Some(at) = s.hist {
            self.hists[at].1.record(dur);
        }
    }

    /// Per-call duration histogram of a [`Tracer::group_hist`] name.
    pub fn hist(&self, name: &str) -> Option<&LogLinHist> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration and call count of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, c), s| (t + s.total_ns, c + s.count))
    }

    /// Summed self time of every span called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| o)
            .sum()
    }

    /// The buffer as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let own = self_times(&self.spans);
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"rep\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{own_ns}}}",
                s.name, s.rep, s.start_ns, s.end_ns, s.count, s.total_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of each span: its duration minus the duration its direct
/// children cover (clamped at 0 — a group's children can only exceed it
/// through timer granularity).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.total_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.total_ns.saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanIx>, total_ns: u64, count: u64) -> Span {
        Span {
            name,
            parent,
            rep: 0,
            start_ns: 0,
            end_ns: total_ns,
            count,
            total_ns,
            hist: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("rep", None, 1_000, 1),
            span("stack", Some(0), 900, 1),
            span("hook", Some(1), 250, 500), // a group of 500 calls
            span("infer", Some(2), 100, 20),
            span("orphan", None, 40, 1),
        ];
        assert_eq!(self_times(&spans), vec![100, 650, 150, 100, 40]);
        // Self times of one tree sum to its root's duration.
        assert_eq!(self_times(&spans)[..4].iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let spans = vec![span("p", None, 10, 1), span("c", Some(0), 12, 1)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn groups_fold_calls_and_feed_the_histogram() {
        let mut t = Tracer::new();
        let rep = t.open("rep", None, 3);
        let g = t.group_hist("hook", Some(rep), 3);
        t.add(g, 100, 130);
        t.add(g, 200, 250);
        let plain = t.group("plain", Some(rep), 3);
        t.add(plain, 300, 310);
        t.close(rep);
        let s = &t.spans()[g];
        assert_eq!(
            (s.count, s.total_ns, s.start_ns, s.end_ns),
            (2, 80, 100, 250)
        );
        assert_eq!(t.total("hook"), (80, 2));
        assert_eq!(t.hist("hook").unwrap().count(), 2);
        assert!(t.hist("rep").is_none() && t.hist("plain").is_none());
        assert_eq!(t.self_ns("hook"), 80);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"hook\",\"parent\":0,\"rep\":3"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
