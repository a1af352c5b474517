//! The versioned, checksummed `.kmlm` deployment artifact.
//!
//! The KMLMODEL container (`kml_core::modelfile`) answers "what are the
//! weights"; a `.kmlm` artifact answers "is this the model you think it
//! is, and is it safe to swap in". It wraps the model payload with the
//! deployment metadata a lifecycle needs to verify *before* touching a
//! live loop: which subsystem the model serves, what precision it was
//! saved at, a hash of the feature schema it consumes, whether it shipped
//! with Q8 calibration tables, and a whole-artifact checksum.
//!
//! ```text
//! offset  field
//! 0       magic "KMLMARTF" (8 bytes)
//! 8       format version u32 = 1
//! 12      model kind tag u8 (0 readahead, 1 iosched, 2 netfs-rsize)
//! 13      saved dtype (u8 length + bytes)
//! ..      feature-schema hash u64 (see [`ArtifactKind::schema_hash`])
//! ..      flags u8 (bit 0: Q8 calibration tables present)
//! ..      model payload u32 length + KMLMODEL v1 blob (weights as f64,
//!         normalization stats, its own inner checksum)
//! ..      if flags&1: table count u32; per table: u32 length + f32 per-row
//!         symmetric scales (one table per linear layer, chain order)
//! ..      checksum u64 (`checksum_v1` over everything before it)
//! ```
//!
//! Both hashes are `kml_platform::bytes`' version-1 checksum: FNV-1a's
//! shape and offset basis with the multiplier `0x1000_0000_01B3`, which is
//! *not* the FNV prime (`0x100_0000_01B3`) — a typo format version 1
//! shipped with, kept so every artifact already written still verifies.
//!
//! **Load is all-or-nothing.** The outer checksum is verified against the
//! full byte range *before* any field is parsed, so a single flipped byte
//! or a truncation is rejected as a typed [`ArtifactError`] without any
//! partial decode; the model itself is only constructed after every
//! header check passes. Loading never mutates caller state — swap points
//! (`KmlTuner::install_artifact` and friends) decode into a fresh value
//! and only then replace the live model.

use kml_core::model::Model;
use kml_core::scalar::Scalar;
use kml_core::{modelfile, KmlError};
use kml_platform::bytes::{
    checksum_v1, put_f32, put_u32, put_u64, seal_v1, split_seal, ChecksumV1, Reader, Truncated,
};

/// Artifact magic ("KML model artifact"), distinct from the inner
/// KMLMODEL payload magic.
pub const MAGIC: &[u8; 8] = b"KMLMARTF";

/// Current `.kmlm` format version.
pub const FORMAT_VERSION: u32 = 1;

/// Which subsystem a packaged model serves. The tag is the on-disk byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The readahead workload classifier (5 features).
    Readahead,
    /// The I/O-scheduler batching classifier (4 features).
    Iosched,
    /// The NFS rsize congestion classifier (5 features).
    NetfsRsize,
}

impl ArtifactKind {
    /// Every kind, in tag order.
    pub const ALL: [ArtifactKind; 3] = [
        ArtifactKind::Readahead,
        ArtifactKind::Iosched,
        ArtifactKind::NetfsRsize,
    ];

    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            ArtifactKind::Readahead => 0,
            ArtifactKind::Iosched => 1,
            ArtifactKind::NetfsRsize => 2,
        }
    }

    /// Decodes a tag byte.
    pub fn from_tag(tag: u8) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Readahead => "readahead",
            ArtifactKind::Iosched => "iosched",
            ArtifactKind::NetfsRsize => "netfs-rsize",
        }
    }

    /// The feature vector each kind's models consume, in order. These
    /// mirror the tuners' `roll_window` outputs — renaming or reordering
    /// a feature changes the schema hash and (correctly) invalidates
    /// every artifact shipped against the old schema.
    pub fn feature_names(self) -> &'static [&'static str] {
        match self {
            ArtifactKind::Readahead => &[
                "window_count",
                "offset_mean",
                "offset_std",
                "abs_diff_mean",
                "current_ra_kb",
            ],
            ArtifactKind::Iosched => &["window_count", "gap_mean", "adjacency", "depth_mean"],
            ArtifactKind::NetfsRsize => &[
                "transmissions",
                "latency_mean",
                "retransmit_fraction",
                "latency_std",
                "current_rsize_kb",
            ],
        }
    }

    /// The version-1 checksum (see the module docs; not FNV-1a) over the
    /// kind name and its feature names: the artifact's contract with the
    /// loop that will feed it.
    pub fn schema_hash(self) -> u64 {
        let mut h = ChecksumV1::new();
        h.update(self.name().as_bytes());
        for name in self.feature_names() {
            h.update(&[0xff]); // separator: "ab","c" != "a","bc"
            h.update(name.as_bytes());
        }
        h.finish()
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed rejection reasons for `.kmlm` bytes. Every load failure is one
/// of these, and a failed load leaves zero partial state behind.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// A format version this build does not read.
    UnsupportedVersion(u32),
    /// An unknown model-kind tag byte.
    UnknownKind(u8),
    /// The byte range ends before a field does.
    Truncated {
        /// Byte offset of the failed read.
        offset: usize,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The trailing checksum does not match the body.
    ChecksumMismatch {
        /// Checksum stored in the artifact.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// Bytes after the checksum.
    TrailingBytes(usize),
    /// The artifact's schema hash does not match its kind's schema.
    SchemaMismatch {
        /// The kind's expected schema hash.
        expected: u64,
        /// The hash stored in the artifact.
        found: u64,
    },
    /// The artifact packages a model for a different subsystem.
    KindMismatch {
        /// The kind the loader serves.
        expected: ArtifactKind,
        /// The kind the artifact declares.
        found: ArtifactKind,
    },
    /// The model's class count does not match the deployment policy.
    ClassMismatch {
        /// Output classes in the artifact's model.
        artifact: usize,
        /// Classes the target policy maps.
        policy: usize,
    },
    /// The model's input width does not match the kind's feature schema.
    FeatureDimMismatch {
        /// The kind's feature count.
        expected: usize,
        /// The model's input width.
        found: usize,
    },
    /// A rebuilt Q8 engine did not reproduce the shipped calibration.
    CalibrationMismatch {
        /// Index of the first diverging linear layer.
        layer: usize,
    },
    /// A structurally malformed header field.
    Header(String),
    /// The inner KMLMODEL payload failed to decode (or Q8 failed to
    /// enable on it).
    Model(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "bad artifact magic"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact format version {v}")
            }
            ArtifactError::UnknownKind(t) => write!(f, "unknown model kind tag {t}"),
            ArtifactError::Truncated {
                offset,
                wanted,
                have,
            } => write!(
                f,
                "truncated artifact: wanted {wanted} bytes at offset {offset}, {have} remain"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            ArtifactError::TrailingBytes(n) => write!(f, "{n} trailing bytes after checksum"),
            ArtifactError::SchemaMismatch { expected, found } => write!(
                f,
                "feature-schema hash mismatch: expected {expected:#x}, artifact has {found:#x}"
            ),
            ArtifactError::KindMismatch { expected, found } => {
                write!(f, "model kind mismatch: loader serves {expected}, artifact packages {found}")
            }
            ArtifactError::ClassMismatch { artifact, policy } => write!(
                f,
                "class count mismatch: artifact model has {artifact} classes, policy maps {policy}"
            ),
            ArtifactError::FeatureDimMismatch { expected, found } => write!(
                f,
                "feature dim mismatch: schema has {expected} features, model consumes {found}"
            ),
            ArtifactError::CalibrationMismatch { layer } => write!(
                f,
                "q8 calibration mismatch at linear layer {layer}: rebuilt engine diverges from shipped tables"
            ),
            ArtifactError::Header(msg) => write!(f, "malformed artifact header: {msg}"),
            ArtifactError::Model(msg) => write!(f, "artifact model payload rejected: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<Truncated> for ArtifactError {
    fn from(e: Truncated) -> Self {
        ArtifactError::Truncated {
            offset: e.offset,
            wanted: e.wanted,
            have: e.have,
        }
    }
}

impl From<KmlError> for ArtifactError {
    fn from(e: KmlError) -> Self {
        ArtifactError::Model(e.to_string())
    }
}

/// A fully verified, ready-to-swap model unpacked from a `.kmlm`.
#[derive(Debug)]
pub struct LoadedArtifact<S: Scalar> {
    /// The subsystem the model serves.
    pub kind: ArtifactKind,
    /// The precision the model was saved at (informational; the payload
    /// stores parameters as `f64` for cross-precision deploy).
    pub dtype: String,
    /// The artifact's feature-schema hash (already verified against
    /// `kind.schema_hash()`).
    pub schema_hash: u64,
    /// The decoded model, with Q8 serving already enabled when the
    /// artifact shipped calibration tables.
    pub model: Model<S>,
    /// Whether Q8 serving is enabled on `model`.
    pub q8: bool,
}

/// Packages a model as `.kmlm` bytes. When the model has Q8 serving
/// enabled, its per-row calibration tables are embedded (and re-verified
/// on load). Takes `&mut` because reading the calibration may lazily
/// re-quantize a stale engine.
///
/// # Errors
///
/// Propagates a failed lazy re-quantization as [`ArtifactError::Model`].
pub fn save_model<S: Scalar>(
    kind: ArtifactKind,
    model: &mut Model<S>,
) -> Result<Vec<u8>, ArtifactError> {
    let payload = modelfile::encode(model)?;
    let calibration = model.q8_calibration()?;

    let mut buf = Vec::with_capacity(payload.len() + 64);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, FORMAT_VERSION);
    buf.push(kind.tag());
    let dtype = S::DTYPE.as_bytes();
    buf.push(dtype.len() as u8);
    buf.extend_from_slice(dtype);
    put_u64(&mut buf, kind.schema_hash());
    buf.push(u8::from(calibration.is_some()));
    put_u32(&mut buf, payload.len() as u32);
    buf.extend_from_slice(&payload);
    if let Some(tables) = &calibration {
        put_u32(&mut buf, tables.len() as u32);
        for table in tables {
            put_u32(&mut buf, table.len() as u32);
            for &s in table {
                put_f32(&mut buf, s);
            }
        }
    }
    seal_v1(&mut buf);
    Ok(buf)
}

/// The integrity gate both readers start with: checksum over the whole
/// body, then magic, version and kind. Returns the kind and a reader
/// positioned after the kind tag.
fn verified_header(bytes: &[u8]) -> Result<(ArtifactKind, Reader<'_>), ArtifactError> {
    let (body, stored) = split_seal(bytes)?;
    let computed = checksum_v1(body);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let kind_tag = r.u8()?;
    let kind = ArtifactKind::from_tag(kind_tag).ok_or(ArtifactError::UnknownKind(kind_tag))?;
    Ok((kind, r))
}

/// Unpacks and fully verifies `.kmlm` bytes: outer checksum first (before
/// any field parse), then header, schema hash, feature dims, the inner
/// KMLMODEL payload, and — when shipped — the Q8 calibration tables
/// against a freshly rebuilt engine.
///
/// The calibration check compares shipped against rebuilt scales
/// bit-for-bit when loading at the saved precision; at a different
/// precision the engine is rebuilt from the converted weights instead
/// (the scales are a function of the weights, which cross-precision
/// conversion may perturb).
///
/// # Errors
///
/// Every rejection is a typed [`ArtifactError`]; nothing is constructed
/// or mutated on failure.
pub fn load_model<S: Scalar>(bytes: &[u8]) -> Result<LoadedArtifact<S>, ArtifactError> {
    // Whole-artifact integrity gate before any structural parse.
    let (kind, mut r) = verified_header(bytes)?;
    let dtype_len = r.u8()? as usize;
    let dtype = String::from_utf8(r.take(dtype_len)?.to_vec())
        .map_err(|_| ArtifactError::Header("dtype is not UTF-8".into()))?;
    let schema_hash = r.u64()?;
    if schema_hash != kind.schema_hash() {
        return Err(ArtifactError::SchemaMismatch {
            expected: kind.schema_hash(),
            found: schema_hash,
        });
    }
    let flags = r.u8()?;
    if flags & !1 != 0 {
        return Err(ArtifactError::Header(format!("unknown flags {flags:#x}")));
    }
    let has_q8 = flags & 1 == 1;

    let payload_len = r.u32()? as usize;
    let payload = r.take(payload_len)?;
    let shipped_tables = if has_q8 {
        let count = r.u32()? as usize;
        if count > 10_000 {
            return Err(ArtifactError::Header(format!(
                "implausible q8 table count {count}"
            )));
        }
        let mut tables = Vec::with_capacity(r.counted(count, 4)?);
        for _ in 0..count {
            let len = r.u32()? as usize;
            let mut table = Vec::with_capacity(r.counted(len, 4)?);
            for _ in 0..len {
                table.push(r.f32()?);
            }
            tables.push(table);
        }
        Some(tables)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(ArtifactError::TrailingBytes(r.remaining()));
    }

    let mut model = modelfile::decode::<S>(payload)?;
    let expected_dim = kind.feature_names().len();
    if model.input_dim() != expected_dim {
        return Err(ArtifactError::FeatureDimMismatch {
            expected: expected_dim,
            found: model.input_dim(),
        });
    }
    if let Some(shipped) = shipped_tables {
        model.enable_q8()?;
        if dtype == S::DTYPE {
            let rebuilt = model
                .q8_calibration()?
                .expect("q8 just enabled on this model");
            if rebuilt.len() != shipped.len() {
                return Err(ArtifactError::CalibrationMismatch { layer: 0 });
            }
            for (i, (a, b)) in rebuilt.iter().zip(&shipped).enumerate() {
                let same =
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                if !same {
                    return Err(ArtifactError::CalibrationMismatch { layer: i });
                }
            }
        }
    }
    Ok(LoadedArtifact {
        kind,
        dtype,
        schema_hash,
        model,
        q8: has_q8,
    })
}

/// [`load_model`] plus a kind check: the loader states which subsystem it
/// serves, and an artifact for any other subsystem is rejected before its
/// payload is decoded.
///
/// # Errors
///
/// [`ArtifactError::KindMismatch`] on the wrong kind, else as
/// [`load_model`].
pub fn load_model_for<S: Scalar>(
    bytes: &[u8],
    expected: ArtifactKind,
) -> Result<LoadedArtifact<S>, ArtifactError> {
    let loaded = load_model::<S>(bytes)?;
    if loaded.kind != expected {
        return Err(ArtifactError::KindMismatch {
            expected,
            found: loaded.kind,
        });
    }
    Ok(loaded)
}

/// Reads the kind tag without decoding the payload (the checksum is still
/// verified first — peeking at corrupt bytes is also a rejection).
///
/// # Errors
///
/// As [`load_model`]'s header path.
pub fn peek_kind(bytes: &[u8]) -> Result<ArtifactKind, ArtifactError> {
    verified_header(bytes).map(|(kind, _)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kml_core::model::ModelBuilder;

    fn readahead_model() -> Model<f32> {
        ModelBuilder::readahead_paper_topology(5, 2)
            .seed(0x11FE)
            .build::<f32>()
            .expect("builds")
    }

    #[test]
    fn schema_hashes_are_distinct_and_stable() {
        let hashes: Vec<u64> = ArtifactKind::ALL.iter().map(|k| k.schema_hash()).collect();
        assert_eq!(hashes[0], ArtifactKind::Readahead.schema_hash());
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "schema hash collision");
            }
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let mut m = readahead_model();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        let loaded = load_model::<f32>(&bytes).unwrap();
        assert_eq!(loaded.kind, ArtifactKind::Readahead);
        assert_eq!(loaded.dtype, "f32");
        assert!(!loaded.q8);
        let mut reloaded = loaded.model;
        let again = save_model(ArtifactKind::Readahead, &mut reloaded).unwrap();
        assert_eq!(bytes, again, "save→load→save must be bit-identical");
    }

    #[test]
    fn q8_tables_round_trip_and_verify() {
        let mut m = readahead_model();
        m.enable_q8().unwrap();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        let loaded = load_model::<f32>(&bytes).unwrap();
        assert!(loaded.q8);
        assert!(loaded.model.q8_enabled());
        let mut a = m;
        let mut b = loaded.model;
        for probe in [[0.0; 5], [100.0, 3.0, 1.5, 4.0, 128.0]] {
            assert_eq!(a.predict(&probe).unwrap(), b.predict(&probe).unwrap());
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let mut m = readahead_model();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        // Exhaustive over the header and sampled over the payload.
        for i in (0..bytes.len()).step_by(7).chain(0..32) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                load_model::<f32>(&corrupt).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut m = readahead_model();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        for cut in (0..bytes.len()).step_by(11).chain([bytes.len() - 1]) {
            assert!(
                load_model::<f32>(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn kind_check_rejects_cross_subsystem_artifacts() {
        let mut m = readahead_model();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        assert_eq!(peek_kind(&bytes).unwrap(), ArtifactKind::Readahead);
        assert!(matches!(
            load_model_for::<f32>(&bytes, ArtifactKind::Iosched),
            Err(ArtifactError::KindMismatch { .. })
        ));
    }

    #[test]
    fn wrong_feature_dim_rejected() {
        let mut m = ModelBuilder::new(3).linear(2).build::<f32>().unwrap();
        let bytes = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        assert!(matches!(
            load_model::<f32>(&bytes),
            Err(ArtifactError::FeatureDimMismatch {
                expected: 5,
                found: 3
            })
        ));
    }

    /// Byte identity, recorded on the parent commit (1fb2a81), before the
    /// codec moved onto `kml_platform::bytes`: the artifact with and
    /// without Q8 tables, and each kind's schema hash.
    #[test]
    fn saved_bytes_and_schema_hashes_match_the_parent_commit() {
        use kml_platform::bytes::Fnv1a;
        let mut m = readahead_model();
        let plain = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        assert_eq!(plain.len(), 2280);
        assert_eq!(Fnv1a::of(&plain), 0xd1bc_3c7b_d0b8_a98d);
        m.enable_q8().unwrap();
        let q8 = save_model(ArtifactKind::Readahead, &mut m).unwrap();
        assert_eq!(q8.len(), 2404);
        assert_eq!(Fnv1a::of(&q8), 0xf4a5_3374_fa8b_7144);
        assert_eq!(
            ArtifactKind::ALL.map(ArtifactKind::schema_hash),
            [
                0x2f46_e2d5_49de_3304,
                0x1473_58f5_14fa_14c3,
                0xe819_be47_9a59_3fc0
            ]
        );
    }
}
