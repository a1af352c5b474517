//! The KML model-file format (paper §3.3).
//!
//! "The user can save the model to a file that has a KML-specific file
//! format. The user can then load the neural network model ... in the kernel
//! module." This module implements that format: a little-endian binary
//! container holding the layer chain, all parameters (stored as `f64` so a
//! model trained in one precision can deploy in another — e.g. train in
//! `f64` user space, deploy as `f32` in the kernel), the fitted Z-score
//! normalizer, and the version-1 checksum
//! (`kml_platform::bytes::checksum_v1`: FNV-1a's shape with the multiplier
//! `0x1000_0000_01B3`, *not* the FNV prime — a typo version 1 shipped with,
//! kept so every existing file still verifies).
//!
//! ```text
//! offset  field
//! 0       magic "KMLMODEL" (8 bytes)
//! 8       version u32 = 1
//! 12      source dtype (u8 length + bytes, informational)
//! ..      input_dim u32, output_dim u32
//! ..      normalizer flag u8; if 1: dim u32, means [f64], stds [f64]
//! ..      layer count u32
//! ..      per layer: kind tag u8; linear layers add rows u32, cols u32,
//!         weights (rows*cols f64), bias (cols f64)
//! ..      checksum u64 (`checksum_v1` over everything before it)
//! ```

use crate::dataset::Normalizer;
use crate::graph::Graph;
use crate::layers::{Activation, ActivationLayer, Layer, LayerKind, Linear, SoftmaxLayer};
use crate::matrix::Matrix;
use crate::model::Model;
use crate::scalar::Scalar;
use crate::{KmlError, Result};
use kml_platform::bytes::{checksum_v1, put_f64, put_u32, seal_v1, Reader};
use kml_platform::fileops::KmlFile;

const MAGIC: &[u8; 8] = b"KMLMODEL";
const VERSION: u32 = 1;

/// Serializes a model to the KML binary format.
///
/// # Errors
///
/// None for any model this crate can build: the `Result` keeps the
/// codec's two halves alike.
pub fn encode<S: Scalar>(model: &Model<S>) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    let dtype = S::DTYPE.as_bytes();
    buf.push(dtype.len() as u8);
    buf.extend_from_slice(dtype);
    put_u32(&mut buf, model.input_dim() as u32);
    put_u32(&mut buf, model.output_dim() as u32);

    match model.normalizer() {
        Some(n) => {
            buf.push(1);
            put_u32(&mut buf, n.feature_dim() as u32);
            for &m in n.means() {
                put_f64(&mut buf, m);
            }
            for &s in n.stds() {
                put_f64(&mut buf, s);
            }
        }
        None => buf.push(0),
    }

    let layers: Vec<&dyn Layer<S>> = model.graph().layers().collect();
    put_u32(&mut buf, layers.len() as u32);
    for layer in layers {
        buf.push(layer.kind().tag());
        if layer.kind() == LayerKind::Linear {
            let params = layer.params();
            let (w, b) = (params[0], params[1]);
            put_u32(&mut buf, w.rows() as u32);
            put_u32(&mut buf, w.cols() as u32);
            for v in w.as_slice() {
                put_f64(&mut buf, v.to_f64());
            }
            for v in b.as_slice() {
                put_f64(&mut buf, v.to_f64());
            }
        }
    }

    seal_v1(&mut buf);
    Ok(buf)
}

/// Deserializes a model from the KML binary format, converting parameters
/// into scalar type `S` (which may differ from the saving precision).
///
/// # Errors
///
/// Returns [`KmlError::BadModelFile`] for truncated data, a bad magic or
/// version, an unknown layer tag, a checksum mismatch, or layers whose
/// widths contradict the header: the normalizer and the first linear
/// layer must take `input_dim` values, each later linear layer the width
/// the one before it leaves, and the last must leave `output_dim`.
pub fn decode<S: Scalar>(bytes: &[u8]) -> Result<Model<S>> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(KmlError::BadModelFile("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(KmlError::BadModelFile(format!(
            "unsupported version {version}"
        )));
    }
    let dtype_len = r.u8()? as usize;
    let _source_dtype = r.take(dtype_len)?; // informational only
    let input_dim = r.u32()? as usize;
    let output_dim = r.u32()? as usize;

    let normalizer = if r.u8()? == 1 {
        let dim = r.u32()? as usize;
        let means = r.f64s(dim)?;
        let stds = r.f64s(dim)?;
        if dim != input_dim {
            return Err(KmlError::BadModelFile(format!(
                "normalizer has {dim} features, input_dim is {input_dim}"
            )));
        }
        Some(Normalizer::from_stats(means, stds)?)
    } else {
        None
    };

    let layer_count = r.u32()? as usize;
    r.counted(layer_count, 1)?; // every layer has at least its tag byte
    if layer_count == 0 || layer_count > 10_000 {
        return Err(KmlError::BadModelFile(format!(
            "implausible layer count {layer_count}"
        )));
    }
    let mut graph: Graph<S> = Graph::new();
    // The width flowing out of the layers decoded so far: a linear layer
    // must take exactly it, and the last one must leave `output_dim`.
    let mut width = input_dim;
    for _ in 0..layer_count {
        let kind = LayerKind::from_tag(r.u8()?)?;
        graph.push(match kind {
            LayerKind::Linear => {
                let rows = r.u32()? as usize;
                let cols = r.u32()? as usize;
                if rows == 0 || cols == 0 || rows.saturating_mul(cols) > 100_000_000 {
                    return Err(KmlError::BadModelFile(format!(
                        "implausible linear layer {rows}x{cols}"
                    )));
                }
                let w = r.f64s(rows * cols)?;
                let b = r.f64s(cols)?;
                if rows != width {
                    return Err(KmlError::BadModelFile(format!(
                        "linear layer {rows}x{cols} is fed {width} values"
                    )));
                }
                width = cols;
                Box::new(Linear::from_params(
                    Matrix::<S>::from_f64_vec(rows, cols, &w)?,
                    Matrix::<S>::from_f64_vec(1, cols, &b)?,
                )?)
            }
            LayerKind::Sigmoid => Box::new(ActivationLayer::new(Activation::Sigmoid)),
            LayerKind::Relu => Box::new(ActivationLayer::new(Activation::Relu)),
            LayerKind::Tanh => Box::new(ActivationLayer::new(Activation::Tanh)),
            LayerKind::Softmax => Box::new(SoftmaxLayer::new()),
        });
    }
    if width != output_dim {
        return Err(KmlError::BadModelFile(format!(
            "layers output {width} values, output_dim is {output_dim}"
        )));
    }

    let body_end = r.offset();
    let stored = r.u64()?;
    let computed = checksum_v1(&bytes[..body_end]);
    if stored != computed {
        return Err(KmlError::BadModelFile(format!(
            "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
        )));
    }
    if r.remaining() != 0 {
        return Err(KmlError::BadModelFile(format!(
            "{} trailing bytes after checksum",
            r.remaining()
        )));
    }
    Model::from_graph(graph, input_dim, output_dim, normalizer)
}

/// Saves a model to `path` (encode + [`KmlFile`] write + sync).
///
/// # Errors
///
/// Propagates [`encode`] and file errors.
pub fn save<S: Scalar>(model: &Model<S>, path: impl AsRef<std::path::Path>) -> Result<()> {
    let bytes = encode(model)?;
    let mut f = KmlFile::create(path)?;
    f.write_all(&bytes)?;
    f.sync()?;
    Ok(())
}

/// Loads a model from `path`.
///
/// # Errors
///
/// Propagates file and [`decode`] errors.
pub fn load<S: Scalar>(path: impl AsRef<std::path::Path>) -> Result<Model<S>> {
    let mut f = KmlFile::open(path)?;
    let bytes = f.read_to_end_vec()?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::model::ModelBuilder;
    use kml_platform::bytes::Fnv1a;

    fn sample_model() -> Model<f64> {
        let mut m = ModelBuilder::readahead_paper_topology(5, 4)
            .seed(99)
            .build::<f64>()
            .unwrap();
        let data = Dataset::from_rows(
            &[vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![5.0, 4.0, 3.0, 2.0, 1.0]],
            &[0, 1],
        )
        .unwrap();
        m.set_normalizer(crate::dataset::Normalizer::fit(data.features()).unwrap());
        m
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let mut model = sample_model();
        let bytes = encode(&model).unwrap();
        let mut loaded = decode::<f64>(&bytes).unwrap();
        for features in [
            [0.1, 0.2, 0.3, 0.4, 0.5],
            [5.0, -1.0, 2.0, 0.0, 3.0],
            [-2.0, -2.0, -2.0, -2.0, -2.0],
        ] {
            let a = model.infer(&features).unwrap();
            let b = loaded.infer(&features).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(model.layer_kinds(), loaded.layer_kinds());
        assert_eq!(model.input_dim(), loaded.input_dim());
        assert_eq!(model.output_dim(), loaded.output_dim());
    }

    #[test]
    fn cross_precision_deploy_f64_to_f32() {
        // The paper's flow: train in user space (f64), deploy in the kernel
        // at a smaller precision.
        let mut model = sample_model();
        let bytes = encode(&model).unwrap();
        let mut deployed = decode::<f32>(&bytes).unwrap();
        let features = [1.0, 0.5, -0.5, 2.0, 0.0];
        let a = model.infer(&features).unwrap();
        let b = deployed.infer(&features).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let model = sample_model();
        let mut bytes = encode(&model).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            decode::<f64>(&bytes),
            Err(KmlError::BadModelFile(_))
        ));
    }

    #[test]
    fn flipped_parameter_byte_fails_checksum() {
        let model = sample_model();
        let mut bytes = encode(&model).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = decode::<f64>(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("checksum") || err.to_string().contains("bad"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn truncated_file_rejected() {
        let model = sample_model();
        let bytes = encode(&model).unwrap();
        for cut in [0, 4, 8, 20, bytes.len() - 1] {
            assert!(
                decode::<f64>(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let model = sample_model();
        let mut bytes = encode(&model).unwrap();
        bytes.push(0);
        assert!(decode::<f64>(&bytes).is_err());
    }

    #[test]
    fn unsupported_version_rejected() {
        let model = sample_model();
        let mut bytes = encode(&model).unwrap();
        bytes[8] = 9; // version field
        assert!(decode::<f64>(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let model = sample_model();
        let mut path = std::env::temp_dir();
        path.push(format!("kml-modelfile-{}.kml", std::process::id()));
        save(&model, &path).unwrap();
        let loaded = load::<f64>(&path).unwrap();
        assert_eq!(loaded.layer_kinds(), model.layer_kinds());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn model_without_normalizer_round_trips() {
        let model = ModelBuilder::new(3).linear(2).build::<f64>().unwrap();
        let bytes = encode(&model).unwrap();
        let loaded = decode::<f64>(&bytes).unwrap();
        assert!(loaded.normalizer().is_none());
    }

    /// Byte identity, recorded on the parent commit (1fb2a81), before the codecs moved onto `kml_platform::bytes`.
    #[test]
    fn encoded_bytes_match_the_parent_commit() {
        let mut m = ModelBuilder::readahead_paper_topology(5, 4)
            .seed(7)
            .build::<f64>()
            .unwrap();
        m.set_normalizer(sample_model().normalizer().unwrap().clone());
        let bytes = encode(&m).unwrap();
        assert_eq!(bytes.len(), 2502);
        assert_eq!(Fnv1a::of(&bytes), 0x2fe3_a16f_cc3d_09f9);
    }
}
