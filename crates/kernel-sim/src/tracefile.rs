//! Trace capture and replay (paper §3.3 "Training in user space").
//!
//! "Users can collect data using KML's data processing and normalization
//! components and then train ML models on collected trace data in user
//! space." This module provides the persistent half of that workflow: a
//! compact binary trace format (one fixed-width record per tracepoint,
//! little-endian, sealed with the version-1 checksum) written through the
//! KML file API, plus a replayer that feeds records back at their recorded
//! timestamps — so a trace captured from one kernel-sim run can train
//! models offline, be shared, or be re-run against different feature
//! pipelines. The checksum is `kml_platform::bytes::checksum_v1`: FNV-1a's
//! shape with the multiplier `0x1000_0000_01B3`, not the FNV prime — the
//! typo version 1 shipped with, kept so recorded traces still verify.

use crate::trace::{TraceKind, TraceRecord};
use kml_platform::bytes::{checksum_v1, put_u32, put_u64, seal_v1, split_seal, Reader, Truncated};
use kml_platform::fileops::KmlFile;

/// Magic prefix of a KML trace file.
const MAGIC: &[u8; 8] = b"KMLTRACE";
/// Format version.
const VERSION: u32 = 1;
/// Bytes per encoded record: kind(1) + inode(8) + offset(8) + time(8).
const RECORD_BYTES: usize = 25;

/// Errors from trace encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The byte stream is not a KML trace (bad magic/version/length).
    Malformed(String),
    /// Checksum mismatch (bit rot or truncation).
    Corrupt {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// Underlying platform I/O failure.
    Io(kml_platform::PlatformError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Malformed(msg) => write!(f, "malformed trace file: {msg}"),
            TraceFileError::Corrupt { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            TraceFileError::Io(e) => write!(f, "trace i/o failed: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kml_platform::PlatformError> for TraceFileError {
    fn from(e: kml_platform::PlatformError) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<Truncated> for TraceFileError {
    fn from(e: Truncated) -> Self {
        TraceFileError::Malformed(e.to_string())
    }
}

/// Serializes records to the KML trace format.
pub fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + records.len() * RECORD_BYTES + 8);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u32(&mut buf, records.len() as u32);
    for r in records {
        buf.push(match r.kind {
            TraceKind::AddToPageCache => 1,
            TraceKind::WritebackDirtyPage => 2,
        });
        put_u64(&mut buf, r.inode);
        put_u64(&mut buf, r.page_offset);
        put_u64(&mut buf, r.time_ns);
    }
    seal_v1(&mut buf);
    buf
}

/// Deserializes records from the KML trace format.
///
/// # Errors
///
/// Returns [`TraceFileError::Malformed`] for structural problems and
/// [`TraceFileError::Corrupt`] on checksum mismatch.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceFileError> {
    let (body, stored) = split_seal(bytes)?;
    let mut r = Reader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(TraceFileError::Malformed("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(TraceFileError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let count = r.u32()? as usize;
    r.counted(count, RECORD_BYTES)?;
    if r.remaining() != count * RECORD_BYTES {
        return Err(TraceFileError::Malformed(format!(
            "{} bytes do not hold exactly {count} records",
            bytes.len()
        )));
    }
    let computed = checksum_v1(body);
    if stored != computed {
        return Err(TraceFileError::Corrupt { stored, computed });
    }

    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = match r.u8()? {
            1 => TraceKind::AddToPageCache,
            2 => TraceKind::WritebackDirtyPage,
            other => {
                return Err(TraceFileError::Malformed(format!(
                    "unknown record kind {other}"
                )))
            }
        };
        records.push(TraceRecord {
            kind,
            inode: r.u64()?,
            page_offset: r.u64()?,
            time_ns: r.u64()?,
        });
    }
    Ok(records)
}

/// Writes a trace to disk through the KML file API.
///
/// # Errors
///
/// Propagates platform I/O failures.
pub fn save(
    records: &[TraceRecord],
    path: impl AsRef<std::path::Path>,
) -> Result<(), TraceFileError> {
    let mut f = KmlFile::create(path)?;
    f.write_all(&encode(records))?;
    f.sync()?;
    Ok(())
}

/// Loads a trace from disk.
///
/// # Errors
///
/// Propagates I/O and decoding failures.
pub fn load(path: impl AsRef<std::path::Path>) -> Result<Vec<TraceRecord>, TraceFileError> {
    let mut f = KmlFile::open(path)?;
    let bytes = f.read_to_end_vec()?;
    decode(&bytes)
}

/// One event delivered by [`replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent<'a> {
    /// A tracepoint record, in stored (timestamp) order.
    Record(&'a TraceRecord),
    /// The recorded clock crossed a window boundary (the boundary time).
    WindowBoundary(u64),
}

/// Replays a trace in timestamp order, delivering a
/// [`ReplayEvent::WindowBoundary`] whenever the recorded clock crosses a
/// multiple of `window_ns` — the offline twin of the online per-window
/// feature cut.
///
/// # Panics
///
/// Panics if `window_ns == 0` or timestamps go backwards (traces are
/// captured with non-decreasing timestamps).
pub fn replay(records: &[TraceRecord], window_ns: u64, mut on_event: impl FnMut(ReplayEvent<'_>)) {
    assert!(window_ns > 0, "window must be positive");
    let mut next_boundary = records.first().map_or(0, |r| r.time_ns) + window_ns;
    let mut prev = 0;
    for r in records {
        assert!(r.time_ns >= prev, "trace timestamps must be non-decreasing");
        prev = r.time_ns;
        while r.time_ns >= next_boundary {
            on_event(ReplayEvent::WindowBoundary(next_boundary));
            next_boundary += window_ns;
        }
        on_event(ReplayEvent::Record(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                kind: if i % 3 == 0 {
                    TraceKind::WritebackDirtyPage
                } else {
                    TraceKind::AddToPageCache
                },
                inode: 1 + i % 4,
                page_offset: i * 13,
                time_ns: i * 1000,
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let records = sample(500);
        let decoded = decode(&encode(&records)).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode(&sample(50));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode(&bytes),
            Err(TraceFileError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample(50));
        for cut in [0, 10, 16, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = encode(&sample(3));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(TraceFileError::Malformed(_))));
        let mut bytes = encode(&sample(3));
        bytes[8] = 9;
        assert!(matches!(decode(&bytes), Err(TraceFileError::Malformed(_))));
    }

    #[test]
    fn file_round_trip() {
        let records = sample(100);
        let path = std::env::temp_dir().join(format!("kml-trace-{}.trc", std::process::id()));
        save(&records, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(records, loaded);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn replay_cuts_windows_at_recorded_boundaries() {
        let records = sample(100); // timestamps 0..100_000 ns step 1000
        let mut seen = 0;
        let mut boundaries = Vec::new();
        replay(&records, 10_000, |event| match event {
            ReplayEvent::Record(_) => seen += 1,
            ReplayEvent::WindowBoundary(t) => boundaries.push(t),
        });
        assert_eq!(seen, 100);
        // First record at t=0, so boundaries at 10k, 20k, ..., 90k.
        assert_eq!(boundaries.len(), 9);
        assert_eq!(boundaries[0], 10_000);
        assert!(boundaries.windows(2).all(|w| w[1] - w[0] == 10_000));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn replay_rejects_time_travel() {
        let mut records = sample(3);
        records[2].time_ns = 0;
        records[1].time_ns = 5000;
        replay(&records, 1000, |_| {});
    }

    /// Byte identity, recorded on the parent commit (1fb2a81), before the
    /// codec moved onto `kml_platform::bytes`.
    #[test]
    fn encoded_bytes_match_the_parent_commit() {
        let bytes = encode(&sample(64));
        assert_eq!(bytes.len(), 1624);
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(&bytes),
            0xe422_25c8_1750_a27e
        );
    }
}
