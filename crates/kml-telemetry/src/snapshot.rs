//! Point-in-time metric snapshots and their two export formats.
//!
//! [`Snapshot::render_table`] produces the human-readable form printed by
//! `repro -- overheads`; [`Snapshot::to_json_lines`] produces one JSON
//! object per line for the machine-readable trail under `results/`.
//!
//! Unit hygiene is enforced here: metric names ending `_ns` render with an
//! `ns` unit column, `_bytes` with `bytes`; anything else renders as a bare
//! count. Durations are always nanoseconds, sizes always bytes — never KB,
//! never pages.

use crate::hist::HistSnapshot;

/// Immutable copy of every metric in a registry at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistSnapshot)>,
}

/// Unit of a metric, derived from its name suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Nanoseconds,
    Bytes,
    Count,
}

impl Unit {
    pub fn of(name: &str) -> Unit {
        if name.ends_with("_ns") {
            Unit::Nanoseconds
        } else if name.ends_with("_bytes") {
            Unit::Bytes
        } else {
            Unit::Count
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Unit::Nanoseconds => "ns",
            Unit::Bytes => "bytes",
            Unit::Count => "",
        }
    }
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// True when no metric holds any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Pretty fixed-width table, one metric per row.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str(&format!(
                "  {:<44} {:>16} {:<6}\n",
                "counter/gauge", "value", "unit"
            ));
            for (name, v) in &self.counters {
                out.push_str(&format!(
                    "  {:<44} {:>16} {:<6}\n",
                    name,
                    v,
                    Unit::of(name).label()
                ));
            }
            for (name, v) in &self.gauges {
                out.push_str(&format!(
                    "  {:<44} {:>16} {:<6}\n",
                    name,
                    v,
                    Unit::of(name).label()
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "  {:<44} {:>10} {:>12} {:>10} {:>10} {:>10} {:<6}\n",
                "histogram", "count", "mean", "p50", "p95", "p99", "unit"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} {:>10} {:>12.1} {:>10} {:>10} {:>10} {:<6}\n",
                    name,
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    Unit::of(name).label()
                ));
            }
        }
        out
    }

    /// One JSON object per line. `scope` tags every line (e.g. the repro
    /// subcommand and workload that produced the snapshot).
    pub fn to_json_lines(&self, scope: &str) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"scope\":{},\"kind\":\"counter\",\"name\":{},\"unit\":{},\"value\":{v}}}\n",
                json_str(scope),
                json_str(name),
                json_str(Unit::of(name).label()),
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"scope\":{},\"kind\":\"gauge\",\"name\":{},\"unit\":{},\"value\":{v}}}\n",
                json_str(scope),
                json_str(name),
                json_str(Unit::of(name).label()),
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"scope\":{},\"kind\":\"histogram\",\"name\":{},\"unit\":{},\"count\":{},\
                 \"sum\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}\n",
                json_str(scope),
                json_str(name),
                json_str(Unit::of(name).label()),
                h.count,
                h.sum,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.max,
            ));
        }
        out
    }
}

/// Minimal JSON string encoder (metric names are code-controlled ASCII, but
/// escape defensively anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("cache.hit_total").add(10);
        reg.gauge("ring.occupancy").set(3);
        let h = reg.histogram("infer.latency_ns");
        h.record(21_000);
        h.record(22_000);
        reg.snapshot()
    }

    #[test]
    fn unit_derivation_follows_suffix() {
        assert_eq!(Unit::of("x.latency_ns"), Unit::Nanoseconds);
        assert_eq!(Unit::of("x.model_bytes"), Unit::Bytes);
        assert_eq!(Unit::of("x.hit_total"), Unit::Count);
    }

    #[test]
    fn table_mentions_every_metric_with_units() {
        let snap = sample();
        let table = snap.render_table();
        assert!(table.contains("cache.hit_total"));
        assert!(table.contains("ring.occupancy"));
        assert!(table.contains("infer.latency_ns"));
        assert!(table.contains("ns"));
    }

    #[test]
    fn json_lines_parse_shape() {
        let snap = sample();
        let json = snap.to_json_lines("test.scope");
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line {line}");
            assert!(line.contains("\"scope\":\"test.scope\""));
        }
        assert!(json.contains("\"kind\":\"histogram\""));
        assert!(json.contains("\"p99\":"));
    }

    /// Both renderings of the fixed three-metric registry as the last
    /// commit with a compile-time off switch printed them (the table less
    /// the unit column's trailing padding).
    #[test]
    fn renderings_match_the_parent_commit() {
        let snap = sample();
        let table = snap.render_table();
        let table: Vec<&str> = table.lines().map(str::trim_end).collect();
        assert_eq!(
            table,
            [
                "  counter/gauge                                           value unit",
                "  cache.hit_total                                            10",
                "  ring.occupancy                                              3",
                "  histogram                                         count         mean        p50        p95        p99 unit",
                "  infer.latency_ns                                      2      21500.0      24576      24576      24576 ns",
            ]
        );
        assert_eq!(
            snap.to_json_lines("test.scope"),
            concat!(
                r#"{"scope":"test.scope","kind":"counter","name":"cache.hit_total","unit":"","value":10}"#,
                "\n",
                r#"{"scope":"test.scope","kind":"gauge","name":"ring.occupancy","unit":"","value":3}"#,
                "\n",
                r#"{"scope":"test.scope","kind":"histogram","name":"infer.latency_ns","unit":"ns","count":2,"sum":43000,"mean":21500.000,"p50":24576,"p95":24576,"p99":24576,"max":32768}"#,
                "\n",
            )
        );
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("cache.hit_total"), Some(10));
        assert_eq!(snap.gauge("ring.occupancy"), Some(3));
        assert_eq!(snap.histogram("infer.latency_ns").unwrap().count, 2);
        assert_eq!(snap.counter("missing"), None);
    }
}
