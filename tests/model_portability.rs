//! Cross-precision deployment invariants (§3.1 + §3.3): a model trained in
//! one precision must deploy into the other through the KML model file
//! with agreeing predictions, and a file saved by an older build must keep
//! loading.

use kml_core::dataset::{Dataset, Normalizer};
use kml_core::loss::CrossEntropyLoss;
use kml_core::model::{Model, ModelBuilder};
use kml_core::optimizer::Sgd;
use kml_core::KmlRng;
use rand::{Rng, SeedableRng};

fn trained_f64() -> (Model<f64>, Dataset) {
    let mut rng = KmlRng::seed_from_u64(77);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..400 {
        let class = rng.gen_range(0..3usize);
        let center = [(-4.0, 0.0), (4.0, 0.0), (0.0, 5.0)][class];
        rows.push(vec![
            center.0 + rng.gen_range(-1.0..1.0),
            center.1 + rng.gen_range(-1.0..1.0),
        ]);
        labels.push(class);
    }
    let data = Dataset::from_rows(&rows, &labels).expect("dataset builds");
    let mut model = ModelBuilder::new(2)
        .linear(10)
        .sigmoid()
        .linear(3)
        .seed(5)
        .build::<f64>()
        .expect("model builds");
    model.set_normalizer(Normalizer::fit(data.features()).expect("normalizer fits"));
    let mut sgd = Sgd::new(0.2, 0.9);
    for _ in 0..150 {
        model
            .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
            .expect("epoch trains");
    }
    assert!(model.accuracy(&data).expect("accuracy") > 0.95);
    (model, data)
}

#[test]
fn f32_deployment_agrees_with_f64_on_confident_inputs() {
    let (mut f64_model, data) = trained_f64();
    let bytes = kml_core::modelfile::encode(&f64_model).expect("encode");
    let mut f32_model = kml_core::modelfile::decode::<f32>(&bytes).expect("decode f32");

    let mut f32_agree = 0;
    for i in 0..data.len() {
        let (f, _) = data.sample(i);
        let truth = f64_model.predict(f).expect("f64 predicts");
        f32_agree += usize::from(f32_model.predict(f).expect("f32 predicts") == truth);
    }
    let n = data.len();
    assert!(
        f32_agree as f64 / n as f64 > 0.99,
        "f32 agreement {f32_agree}/{n}"
    );
}

#[test]
fn f32_model_is_smaller_and_close_in_accuracy() {
    let (mut f64_model, data) = trained_f64();
    let bytes = kml_core::modelfile::encode(&f64_model).expect("encode");
    let mut f32_model = kml_core::modelfile::decode::<f32>(&bytes).expect("decode");

    // §3.1 trade-off: f32 halves the memory (vs f64) ...
    assert_eq!(f32_model.param_bytes() * 2, f64_model.param_bytes());
    // ... and costs little accuracy on this well-separated task.
    let f64_acc = f64_model.accuracy(&data).expect("accuracy");
    let f32_acc = f32_model.accuracy(&data).expect("accuracy");
    assert!(
        f32_acc > f64_acc - 0.05,
        "f32 accuracy {f32_acc:.3} vs f64 {f64_acc:.3}"
    );
}

/// A 2 → 4 → sigmoid → 3 model with a normalizer, trained and saved by the
/// retired Q16.16 dtype: its dtype field reads `"q16"`.
const Q16_FILE: [u8; 308] = [
    0x4b, 0x4d, 0x4c, 0x4d, 0x4f, 0x44, 0x45, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x03, 0x71, 0x31, 0x36,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x72, 0x31, 0x7c,
    0xfb, 0x27, 0x6a, 0xcb, 0x3f, 0x5e, 0x06, 0x7a, 0x7e, 0x78, 0x2a, 0xf9, 0x3f, 0x9f, 0xd9, 0x09,
    0x1a, 0xd5, 0x23, 0x0c, 0x40, 0x11, 0x1f, 0x1e, 0x82, 0xf6, 0xe8, 0x02, 0x40, 0x03, 0x00, 0x00,
    0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x08,
    0x09, 0x40, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x55, 0xea, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x81,
    0xb8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x30, 0x76, 0xfd, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x60, 0x08,
    0xef, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x60, 0xf5, 0x04, 0x40, 0x00, 0x00, 0x00, 0x00, 0xe8, 0xd6,
    0x06, 0x40, 0x00, 0x00, 0x00, 0x00, 0x80, 0x76, 0xcf, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x80, 0x35,
    0xe1, 0xbf, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xb9, 0xe2, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x80, 0x9e,
    0xeb, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa8, 0xb5, 0x3f, 0x02, 0x01, 0x04, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xae, 0x03, 0xc0, 0x00, 0x00, 0x00, 0x00,
    0xb4, 0x60, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x70, 0xa4, 0xf4, 0xbf, 0x00, 0x00, 0x00, 0x00,
    0xd0, 0x77, 0x03, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x80, 0x5f, 0xed, 0xbf, 0x00, 0x00, 0x00, 0x00,
    0x38, 0xe9, 0x01, 0x40, 0x00, 0x00, 0x00, 0x00, 0x30, 0xa0, 0xfa, 0xbf, 0x00, 0x00, 0x00, 0x00,
    0xd0, 0xc1, 0xf9, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x90, 0xbc, 0x05, 0x40, 0x00, 0x00, 0x00, 0x00,
    0x30, 0xa2, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x6c, 0xf2, 0xbf, 0x00, 0x00, 0x00, 0x00,
    0x40, 0xe5, 0xd6, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x30, 0xdf, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x69, 0xc2, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x20, 0x4c, 0xf6, 0xbf, 0x05, 0x5e, 0xc8, 0x92,
    0x33, 0xfe, 0x31, 0xe0,
];

#[test]
fn a_file_saved_as_q16_loads_as_both_floats() {
    assert_eq!(&Q16_FILE[12..16], b"\x03q16");
    // (input, the class the Q16.16 model predicted when it was saved)
    let recorded = [
        ([-4.0, 0.0], 0),
        ([4.0, 0.0], 1),
        ([0.0, 5.0], 2),
        ([-3.0, 1.0], 0),
        ([3.5, -0.5], 1),
        ([0.5, 4.0], 2),
        ([-4.5, -0.8], 0),
        ([4.2, 0.9], 1),
    ];
    let mut f32_model = kml_core::modelfile::decode::<f32>(&Q16_FILE).expect("decode f32");
    let mut f64_model = kml_core::modelfile::decode::<f64>(&Q16_FILE).expect("decode f64");
    for (features, class) in recorded {
        assert_eq!(f32_model.predict(&features).expect("f32 predicts"), class);
        assert_eq!(f64_model.predict(&features).expect("f64 predicts"), class);
    }
    // The dtype field is informational: saved again, the file differs only
    // in it and in the checksum.
    let again = kml_core::modelfile::encode(&f64_model).expect("encode");
    let body = 16..Q16_FILE.len() - 8;
    assert_eq!(again.len(), Q16_FILE.len());
    assert_eq!(&again[..12], &Q16_FILE[..12]);
    assert_eq!(&again[12..16], b"\x03f64");
    assert_eq!(&again[body.clone()], &Q16_FILE[body]);
}

#[test]
fn saved_files_are_byte_stable_across_loads() {
    let (model, _) = trained_f64();
    let bytes1 = kml_core::modelfile::encode(&model).expect("encode");
    let reloaded = kml_core::modelfile::decode::<f64>(&bytes1).expect("decode");
    let bytes2 = kml_core::modelfile::encode(&reloaded).expect("re-encode");
    assert_eq!(bytes1, bytes2, "encode → decode → encode must be stable");
}

#[test]
fn normalizer_travels_with_the_model() {
    let (model, data) = trained_f64();
    let bytes = kml_core::modelfile::encode(&model).expect("encode");
    let loaded = kml_core::modelfile::decode::<f32>(&bytes).expect("decode");
    let n = loaded.normalizer().expect("normalizer present");
    let orig = model.normalizer().expect("normalizer present");
    assert_eq!(n.means(), orig.means());
    assert_eq!(n.stds(), orig.stds());
    let _ = data;
}
