//! A length read from input is never trusted: each decoder, handed a tiny
//! file whose header claims a huge element count, must return its typed
//! error having reserved next to nothing. An allocation the size of the
//! claim would abort the process — no `Result`, nothing to catch — which
//! is the one failure the closed loop cannot degrade through.
//!
//! Lives in its own integration-test binary because `#[global_allocator]`
//! is process-wide; the per-thread byte counter keeps parallel libtest
//! threads from perturbing each other.

use kernel_sim::tracefile::{self, TraceFileError};
use kml_continual::DriftDetector;
use kml_core::dtree::DecisionTree;
use kml_core::layers::LayerKind;
use kml_core::{modelfile, KmlError};
use kml_lifecycle::{load_model, ArtifactError, ArtifactKind};
use kml_platform::alloc::CountingSystemAlloc;
use kml_platform::bytes::{put_f64, put_u32, put_u64, seal_v1};

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

/// What a refused file may cost: error strings, not element storage.
const BUDGET: u64 = 64 * 1024;

/// Runs `decode` and returns its result with the bytes this thread
/// allocated meanwhile.
fn measured<T>(decode: impl FnOnce() -> T) -> (T, u64) {
    let before = CountingSystemAlloc::thread_bytes_allocated();
    let out = decode();
    (out, CountingSystemAlloc::thread_bytes_allocated() - before)
}

/// A valid KMLMODEL prefix up to and including the normalizer flag.
fn model_header(normalizer_flag: u8) -> Vec<u8> {
    let mut buf = b"KMLMODEL".to_vec();
    put_u32(&mut buf, 1); // version
    buf.push(3);
    buf.extend_from_slice(b"f64");
    put_u32(&mut buf, 5); // input_dim
    put_u32(&mut buf, 2); // output_dim
    buf.push(normalizer_flag);
    buf
}

/// The three counts KMLMODEL decode reads before it can check a checksum.
fn crafted_models() -> Vec<(&'static str, Vec<u8>)> {
    // 29 bytes: a normalizer of u32::MAX dimensions (34 GB of means).
    let mut dim = model_header(1);
    put_u32(&mut dim, u32::MAX);
    assert_eq!(dim.len(), 29);

    // One linear layer of 10,000 x 10,000 — exactly the plausibility cap,
    // 800 MB of weights — and not one weight byte behind it.
    let mut weights = model_header(0);
    put_u32(&mut weights, 1);
    weights.push(LayerKind::Linear.tag());
    put_u32(&mut weights, 10_000);
    put_u32(&mut weights, 10_000);

    // The most layers the plausibility cap admits, none present.
    let mut layers = model_header(0);
    put_u32(&mut layers, 10_000);

    vec![
        ("normalizer dim", dim),
        ("linear weights", weights),
        ("layer count", layers),
    ]
}

/// A well-formed `.kmlm` up to and including the flags byte; the caller
/// appends the rest and seals it, so the refusal under test comes from
/// the field it crafted and not from the outer checksum.
fn artifact_header(dtype: &[u8; 3], flags: u8) -> Vec<u8> {
    let kind = ArtifactKind::Readahead;
    let mut buf = b"KMLMARTF".to_vec();
    put_u32(&mut buf, 1); // format version
    buf.push(kind.tag());
    buf.push(3);
    buf.extend_from_slice(dtype);
    put_u64(&mut buf, kind.schema_hash());
    buf.push(flags);
    buf
}

#[test]
fn modelfile_refuses_crafted_counts_without_reserving_for_them() {
    for (what, bytes) in crafted_models() {
        let (result, reserved) = measured(|| modelfile::decode::<f64>(&bytes));
        assert!(
            matches!(result, Err(KmlError::BadModelFile(_))),
            "{what}: {result:?}"
        );
        assert!(reserved < BUDGET, "{what}: reserved {reserved} bytes");
    }
}

/// A sealed KMLMODEL file: `linears` as `(rows, cols)` with a sigmoid
/// between each pair, and an optional normalizer of `norm_dim` features.
/// Every count is honest, so only the widths can contradict the header.
fn model_file(
    input_dim: u32,
    output_dim: u32,
    norm_dim: Option<u32>,
    linears: &[(u32, u32)],
) -> Vec<u8> {
    let mut buf = b"KMLMODEL".to_vec();
    put_u32(&mut buf, 1); // version
    buf.push(3);
    buf.extend_from_slice(b"f64");
    put_u32(&mut buf, input_dim);
    put_u32(&mut buf, output_dim);
    match norm_dim {
        Some(dim) => {
            buf.push(1);
            put_u32(&mut buf, dim);
            (0..dim).for_each(|_| put_f64(&mut buf, 0.0)); // means
            (0..dim).for_each(|_| put_f64(&mut buf, 1.0)); // stds
        }
        None => buf.push(0),
    }
    put_u32(&mut buf, (2 * linears.len() - 1) as u32);
    for (i, &(rows, cols)) in linears.iter().enumerate() {
        if i > 0 {
            buf.push(LayerKind::Sigmoid.tag());
        }
        buf.push(LayerKind::Linear.tag());
        put_u32(&mut buf, rows);
        put_u32(&mut buf, cols);
        (0..rows * cols + cols).for_each(|_| put_f64(&mut buf, 0.25));
    }
    seal_v1(&mut buf);
    buf
}

#[test]
fn modelfile_refuses_layers_that_contradict_the_header() {
    let paper = [(5, 15), (15, 10), (10, 2)];
    assert!(modelfile::decode::<f64>(&model_file(5, 2, Some(5), &paper)).is_ok());
    let accepted: Vec<&str> = [
        ("input_dim 3", model_file(3, 2, None, &paper)),
        ("inner widths", model_file(5, 2, None, &[(5, 15), (10, 2)])),
        ("output_dim 1", model_file(5, 1, None, &paper)),
        ("output_dim 7", model_file(5, 7, None, &paper)),
        ("normalizer dim 4", model_file(5, 2, Some(4), &paper)),
    ]
    .into_iter()
    .filter(|(_, bytes)| {
        !matches!(
            modelfile::decode::<f32>(bytes),
            Err(KmlError::BadModelFile(_))
        )
    })
    .map(|(what, _)| what)
    .collect();
    assert!(accepted.is_empty(), "decoded anyway: {accepted:?}");
}

#[test]
fn load_model_refuses_a_crafted_payload_without_reserving_for_it() {
    for (what, payload) in crafted_models() {
        let mut bytes = artifact_header(b"f64", 0); // no Q8 tables
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        seal_v1(&mut bytes);

        let (result, reserved) = measured(|| load_model::<f64>(&bytes));
        assert!(
            matches!(result, Err(ArtifactError::Model(_))),
            "{what}: {:?}",
            result.map(|loaded| loaded.kind)
        );
        assert!(reserved < BUDGET, "{what}: reserved {reserved} bytes");
    }
}

#[test]
fn load_model_refuses_a_crafted_q8_table_without_reserving_for_it() {
    let mut bytes = artifact_header(b"f32", 1); // Q8 tables follow
    put_u32(&mut bytes, 0); // empty payload
    put_u32(&mut bytes, 10_000); // tables, the cap
    seal_v1(&mut bytes);

    let (result, reserved) = measured(|| load_model::<f32>(&bytes));
    assert!(
        matches!(result, Err(ArtifactError::Truncated { .. })),
        "{:?}",
        result.map(|loaded| loaded.kind)
    );
    assert!(reserved < BUDGET, "reserved {reserved} bytes");
}

#[test]
fn dtree_refuses_a_crafted_node_count_without_reserving_for_it() {
    let mut bytes = b"KMLDTREE".to_vec();
    put_u32(&mut bytes, 1); // version
    put_u32(&mut bytes, 2); // feature_dim
    put_u32(&mut bytes, 2); // num_classes
    put_u32(&mut bytes, u32::MAX); // nodes
    seal_v1(&mut bytes);

    let (result, reserved) = measured(|| DecisionTree::decode(&bytes));
    assert!(
        matches!(result, Err(KmlError::BadModelFile(_))),
        "{result:?}"
    );
    assert!(reserved < BUDGET, "reserved {reserved} bytes");
}

#[test]
fn tracefile_refuses_a_crafted_record_count_without_reserving_for_it() {
    let mut bytes = b"KMLTRACE".to_vec();
    put_u32(&mut bytes, 1); // version
    put_u32(&mut bytes, u32::MAX); // records
    seal_v1(&mut bytes);

    let (result, reserved) = measured(|| tracefile::decode(&bytes));
    assert!(
        matches!(result, Err(TraceFileError::Malformed(_))),
        "{result:?}"
    );
    assert!(reserved < BUDGET, "reserved {reserved} bytes");
}

#[test]
fn drift_state_refuses_a_crafted_channel_count_without_reserving_for_it() {
    // A complete fixed part claiming the most channels `from_bytes`
    // admits (4,096 x 32 B = 128 KiB), and no channel behind it.
    let mut bytes = Vec::new();
    put_u32(&mut bytes, 8); // reference_windows
    put_u32(&mut bytes, 4); // block_windows
    put_f64(&mut bytes, 4.0); // threshold
    put_u32(&mut bytes, 2); // trigger_blocks
    put_f64(&mut bytes, 1.0); // abs_floor
    put_u32(&mut bytes, 4096); // channels
    put_u32(&mut bytes, 1); // phase: Monitor
    put_u32(&mut bytes, 0); // filled
    put_u32(&mut bytes, 0); // hot
    put_u64(&mut bytes, 12); // windows_seen
    put_u64(&mut bytes, 0); // triggers
    put_f64(&mut bytes, 0.0); // last_score

    let (result, reserved) = measured(|| DriftDetector::from_bytes(&bytes));
    assert!(result.is_none());
    assert!(reserved < BUDGET, "reserved {reserved} bytes");
}
