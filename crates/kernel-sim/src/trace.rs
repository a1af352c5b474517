//! Tracepoints (paper §4 "Data collection").
//!
//! The original collects training data from built-in kernel tracepoints
//! ("e.g. `add_to_page_cache`, `writeback_dirty_page`. These tracepoints
//! track file-backed pages") and records "the inode number, page offset of
//! the files that are accessed, and time difference from the beginning of
//! the execution of the KML kernel module". [`TraceRecord`] is exactly that
//! triple plus the event kind; the simulator pushes records into KML's
//! lock-free ring buffer so the collection path matches the paper's
//! (wait-free producer on the I/O path, async consumer).

use crate::cache::PageKey;
use kml_collect::ringbuf::Producer;

/// Which tracepoint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A file-backed page entered the page cache (`add_to_page_cache`).
    AddToPageCache,
    /// A dirty page was written back (`writeback_dirty_page`).
    WritebackDirtyPage,
}

/// One tracepoint record — the fields the paper's hooks collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Which tracepoint fired.
    pub kind: TraceKind,
    /// Inode of the file the page belongs to.
    pub inode: u64,
    /// Page offset within the file.
    pub page_offset: u64,
    /// Nanoseconds since the module (simulation) started.
    pub time_ns: u64,
}

/// Sink for tracepoint records: a KML ring-buffer producer, optional so
/// tracing can be disabled with zero overhead.
#[derive(Debug, Default)]
pub struct TraceSink {
    producer: Option<Producer<TraceRecord>>,
    emitted: u64,
}

impl TraceSink {
    /// A sink that discards everything.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A sink feeding the given ring-buffer producer.
    pub fn new(producer: Producer<TraceRecord>) -> Self {
        TraceSink {
            producer: Some(producer),
            emitted: 0,
        }
    }

    /// Emits one record (wait-free; drops silently when disabled).
    pub fn emit(&mut self, kind: TraceKind, (inode, page_offset): PageKey, time_ns: u64) {
        if let Some(p) = &self.producer {
            p.push(TraceRecord {
                kind,
                inode,
                page_offset,
                time_ns,
            });
            self.emitted += 1;
        }
    }

    /// Whether a producer is attached.
    pub fn is_enabled(&self) -> bool {
        self.producer.is_some()
    }

    /// Records emitted so far (0 while disabled).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kml_collect::RingBuffer;

    #[test]
    fn disabled_sink_swallows_records() {
        let mut sink = TraceSink::disabled();
        sink.emit(TraceKind::AddToPageCache, (1, 2), 3);
        assert!(!sink.is_enabled());
        assert_eq!(sink.emitted(), 0);
    }

    #[test]
    fn enabled_sink_delivers_records() {
        let (p, mut c) = RingBuffer::with_capacity(16).split();
        let mut sink = TraceSink::new(p);
        for i in 0..5 {
            let kind = match i % 2 {
                0 => TraceKind::AddToPageCache,
                _ => TraceKind::WritebackDirtyPage,
            };
            sink.emit(kind, (7, i), i * 100);
        }
        assert_eq!(sink.emitted(), 5);
        let got: Vec<TraceRecord> = c.drain().collect();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].kind, TraceKind::AddToPageCache);
        assert_eq!(got[1].kind, TraceKind::WritebackDirtyPage);
        assert_eq!(got[4].page_offset, 4);
    }
}
