//! The training step's output, pinned: FNV-1a hashes of every weight and
//! bias (and of every loss the step returned) after a few steps, recorded
//! before the backward pass went feature-major. A change to the training
//! kernels, the losses, the layers' backward passes or the staging of a
//! batch must reproduce them on every backend — CI runs this file on the
//! dispatched arm and under `KML_FORCE_SCALAR=1`.
//!
//! Covered: the readahead, retrain, netfs and iosched spec topologies and
//! two softmax-ended ones (one through tanh, one through ReLU); f64 and
//! f32; `train_batch` at batch sizes that straddle the 4-, 8- and
//! 16-lane edges and the 64-row softmax block under each of the three
//! losses; shuffled `train_epoch`s whose last mini-batch is ragged, with
//! and without a normalizer; `TrainSpec::train` both ways; and batches
//! whose features hold NaN, ±inf and subnormals. A NaN is hashed by class
//! (one canonical pattern): its payload is not part of the contract.

use kml_core::dataset::{Dataset, Normalizer};
use kml_core::loss::{BceLoss, CrossEntropyLoss, MseLoss, TargetRef};
use kml_core::matrix::Matrix;
use kml_core::model::{Model, ModelBuilder};
use kml_core::optimizer::Sgd;
use kml_core::scalar::Scalar;
use kml_core::train::TrainSpec;
use kml_core::KmlRng;
use kml_platform::bytes::Fnv1a;
use rand::SeedableRng;

const BATCHES: [usize; 12] = [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100];
/// Steps per `train_batch` case.
const STEPS: usize = 3;

/// The networks under test, by name.
fn topologies() -> Vec<(&'static str, ModelBuilder)> {
    vec![
        (
            "readahead",
            ModelBuilder::readahead_paper_topology(5, 4).seed(0x2a),
        ),
        (
            "retrain",
            ModelBuilder::readahead_paper_topology(5, 2).seed(7),
        ),
        (
            "netfs",
            ModelBuilder::new(5)
                .linear(10)
                .sigmoid()
                .linear(2)
                .seed(0x2e),
        ),
        (
            "iosched",
            ModelBuilder::new(4)
                .linear(10)
                .sigmoid()
                .linear(2)
                .seed(0x10),
        ),
        (
            "softmax-tanh",
            ModelBuilder::new(5)
                .linear(9)
                .tanh()
                .linear(3)
                .softmax()
                .seed(3),
        ),
        (
            "softmax-relu",
            ModelBuilder::new(6)
                .linear(12)
                .relu()
                .linear(6)
                .sigmoid()
                .linear(5)
                .softmax()
                .seed(11),
        ),
    ]
}

/// A deterministic value in `[-2, 2)` for index `i` of stream `salt`.
fn value(salt: u64, i: usize) -> f64 {
    let mut z = (i as u64 ^ salt.rotate_left(17)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
}

/// What a batch's features hold besides ordinary values.
#[derive(Clone, Copy, PartialEq)]
enum Extra {
    None,
    /// NaN and ±inf, a few per batch.
    NonFinite,
    /// f64 and f32 subnormals and tiny normals, a few per batch.
    Tiny,
}

/// `rows × dim` features with `extra` among them.
fn features(rows: usize, dim: usize, salt: u64, extra: Extra) -> Vec<f64> {
    (0..rows * dim)
        .map(|i| match (extra, i % 23) {
            (Extra::NonFinite, 3) => f64::NAN,
            (Extra::NonFinite, 8) => f64::INFINITY,
            (Extra::NonFinite, 12) => f64::NEG_INFINITY,
            (Extra::Tiny, 1) => 4.0e-310,
            (Extra::Tiny, 5) => -3.0e-41,
            (Extra::Tiny, 9) => 1.0e-39,
            (Extra::Tiny, 14) => -2.0e-33,
            _ => value(salt, i),
        })
        .collect()
}

/// Folds `v` into `h`, a NaN as one canonical pattern.
fn fold(h: &mut Fnv1a, v: f64) {
    let bits = if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    };
    h.fold_u64(bits);
}

/// Folds every parameter of `model`, in slot order.
fn fold_params<S: Scalar>(h: &mut Fnv1a, model: &Model<S>) {
    for layer in model.graph().layers() {
        for p in layer.params() {
            for &v in p.as_slice() {
                fold(h, v.to_f64());
            }
        }
    }
}

/// Which loss a `train_batch` case trains under.
#[derive(Clone, Copy, Debug)]
enum Which {
    Ce,
    Mse,
    Bce,
}

/// `STEPS` `train_batch` steps of `topology` at every size in [`BATCHES`]
/// (a fresh model each), folded into one hash.
fn batch_hash<S: Scalar>(topology: &ModelBuilder, which: Which, extra: Extra) -> u64 {
    let mut h = Fnv1a::new();
    for (b, &rows) in BATCHES.iter().enumerate() {
        let mut model = topology.build::<S>().unwrap();
        let (dim, width) = (model.input_dim(), model.output_dim());
        let x = features(rows, dim, 100 + b as u64, extra);
        let input = Matrix::<S>::from_f64_vec(rows, dim, &x).unwrap();
        let classes: Vec<usize> = (0..rows).map(|r| (r * 7 + b) % width).collect();
        let values: Vec<f64> = (0..rows * width)
            .map(|i| match which {
                Which::Bce => f64::from(value(200 + b as u64, i) > 0.0),
                _ => value(200 + b as u64, i) / 2.0,
            })
            .collect();
        let mut sgd = Sgd::new(0.05, 0.9);
        for _ in 0..STEPS {
            let l = match which {
                Which::Ce => model.train_batch(
                    &input,
                    TargetRef::Classes(&classes),
                    &CrossEntropyLoss,
                    &mut sgd,
                ),
                Which::Mse => {
                    model.train_batch(&input, TargetRef::Values(&values), &MseLoss, &mut sgd)
                }
                Which::Bce => {
                    model.train_batch(&input, TargetRef::Values(&values), &BceLoss, &mut sgd)
                }
            };
            fold(&mut h, l.unwrap());
        }
        fold_params(&mut h, &model);
    }
    h.finish()
}

/// Two shuffled epochs over 53 rows (mini-batches 16, 16, 16, 5), with a
/// normalizer fitted on the rows or without one.
fn epoch_hash<S: Scalar>(topology: &ModelBuilder, normalize: bool) -> u64 {
    let mut model = topology.build::<S>().unwrap();
    let (dim, width) = (model.input_dim(), model.output_dim());
    let rows = 53;
    let x = features(rows, dim, 300, Extra::None);
    let features = Matrix::from_vec(rows, dim, x.iter().map(|v| v * 40.0 + 7.0).collect()).unwrap();
    let labels: Vec<usize> = (0..rows).map(|r| (r * 5 + r / 3) % width).collect();
    if normalize {
        model.set_normalizer(Normalizer::fit(&features).unwrap());
    }
    let data = Dataset::from_matrix(features, labels).unwrap();
    let mut sgd = Sgd::new(0.05, 0.9);
    let mut rng = KmlRng::seed_from_u64(0x5eed);
    let mut h = Fnv1a::new();
    for _ in 0..2 {
        fold(
            &mut h,
            model
                .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
                .unwrap(),
        );
    }
    fold_params(&mut h, &model);
    h.finish()
}

/// `TrainSpec::train` over 70 rows, full-batch and shuffled.
fn spec_hash(topology: &ModelBuilder) -> u64 {
    let width = topology.build::<f64>().unwrap().output_dim();
    let dim = topology.build::<f64>().unwrap().input_dim();
    let rows = 70;
    let x = features(rows, dim, 400, Extra::None);
    let labels: Vec<usize> = (0..rows).map(|r| (r * 3 + r / 5) % width).collect();
    let data = Dataset::from_matrix(Matrix::from_vec(rows, dim, x).unwrap(), labels).unwrap();
    let mut h = Fnv1a::new();
    for shuffle in [None, Some(0x51)] {
        let spec = TrainSpec {
            topology: topology.clone(),
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 6,
            shuffle,
        };
        let (model, loss) = spec.train(&data).unwrap();
        fold(&mut h, loss);
        fold_params(&mut h, &model);
    }
    h.finish()
}

/// Every case, by name.
fn cases() -> Vec<(String, u64)> {
    let mut got = Vec::new();
    let mut case = |name: String, hash: u64| got.push((name, hash));
    for (name, t) in topologies() {
        for which in [Which::Ce, Which::Mse, Which::Bce] {
            let f64s = batch_hash::<f64>(&t, which, Extra::None);
            case(format!("{name}/f64/{which:?}"), f64s);
            let f32s = batch_hash::<f32>(&t, which, Extra::None);
            case(format!("{name}/f32/{which:?}"), f32s);
        }
        for (extra, tag) in [(Extra::NonFinite, "nonfinite"), (Extra::Tiny, "tiny")] {
            case(
                format!("{name}/f64/{tag}"),
                batch_hash::<f64>(&t, Which::Ce, extra),
            );
            case(
                format!("{name}/f32/{tag}"),
                batch_hash::<f32>(&t, Which::Ce, extra),
            );
        }
        for (norm, tag) in [(false, "raw"), (true, "normalized")] {
            case(
                format!("{name}/f64/epoch-{tag}"),
                epoch_hash::<f64>(&t, norm),
            );
            case(
                format!("{name}/f32/epoch-{tag}"),
                epoch_hash::<f32>(&t, norm),
            );
        }
        case(format!("{name}/spec"), spec_hash(&t));
    }
    got
}

/// The hashes, recorded before the backward pass went feature-major.
const PINNED: &[(&str, u64)] = &[
    ("readahead/f64/Ce", 0xc03f21856df6bbc4),
    ("readahead/f32/Ce", 0x23a86c70834d4829),
    ("readahead/f64/Mse", 0xda63f4f95b809f2e),
    ("readahead/f32/Mse", 0xde96accc68f797b9),
    ("readahead/f64/Bce", 0xa5e8a7e720cc5ba9),
    ("readahead/f32/Bce", 0x355aba28c2606c35),
    ("readahead/f64/nonfinite", 0x58289d84693d1e45),
    ("readahead/f32/nonfinite", 0x58289d84693d1e45),
    ("readahead/f64/tiny", 0x2e29515ab420690d),
    ("readahead/f32/tiny", 0xc16110b5c44c063d),
    ("readahead/f64/epoch-raw", 0xfae025da3cca0ab6),
    ("readahead/f32/epoch-raw", 0x0f95be586f1f1d93),
    ("readahead/f64/epoch-normalized", 0x439de800d0f8c612),
    ("readahead/f32/epoch-normalized", 0x462c678f00ff3e7b),
    ("readahead/spec", 0x30a948726ac17e29),
    ("retrain/f64/Ce", 0xa1d087ce3f184db6),
    ("retrain/f32/Ce", 0xc84860eb5ebcaa3b),
    ("retrain/f64/Mse", 0xddd18713ca13fbce),
    ("retrain/f32/Mse", 0xf6e12d69a71f388c),
    ("retrain/f64/Bce", 0x30b6d8236c23527e),
    ("retrain/f32/Bce", 0xd8fd57f5c1e148a3),
    ("retrain/f64/nonfinite", 0x292e5d77719dde85),
    ("retrain/f32/nonfinite", 0x292e5d77719dde85),
    ("retrain/f64/tiny", 0xd7c0999017bc61b3),
    ("retrain/f32/tiny", 0xc7023a0d13e1427b),
    ("retrain/f64/epoch-raw", 0x7e468e295a86970e),
    ("retrain/f32/epoch-raw", 0x4f56688db001d2c8),
    ("retrain/f64/epoch-normalized", 0x050bf0804f7fed55),
    ("retrain/f32/epoch-normalized", 0xc68d973c6347f542),
    ("retrain/spec", 0x0c9081368607920a),
    ("netfs/f64/Ce", 0x3040b3d04964c3cf),
    ("netfs/f32/Ce", 0x341041e0b990605f),
    ("netfs/f64/Mse", 0x645166caac9304b2),
    ("netfs/f32/Mse", 0x1378176709704a1b),
    ("netfs/f64/Bce", 0x59da96a2cb0cd44e),
    ("netfs/f32/Bce", 0x4d724c641c9d7e5d),
    ("netfs/f64/nonfinite", 0x881997b0176e14c5),
    ("netfs/f32/nonfinite", 0x881997b0176e14c5),
    ("netfs/f64/tiny", 0xf044282756e6f36a),
    ("netfs/f32/tiny", 0x325d2cc3754561d5),
    ("netfs/f64/epoch-raw", 0xb0709e44536535ad),
    ("netfs/f32/epoch-raw", 0x35b6fe546e81365c),
    ("netfs/f64/epoch-normalized", 0x1a796aa597c06fac),
    ("netfs/f32/epoch-normalized", 0x7458c9d13ff9ef42),
    ("netfs/spec", 0x21cd71fd6ec39a18),
    ("iosched/f64/Ce", 0x012cd595aebee3e6),
    ("iosched/f32/Ce", 0x0d13a0b8007d0756),
    ("iosched/f64/Mse", 0xf0d848d4cf23f2d7),
    ("iosched/f32/Mse", 0xafc88642ca55e9fc),
    ("iosched/f64/Bce", 0x2e7750de13e363d1),
    ("iosched/f32/Bce", 0x2d4c55f8cf75089c),
    ("iosched/f64/nonfinite", 0x8a0a56929f606185),
    ("iosched/f32/nonfinite", 0x8a0a56929f606185),
    ("iosched/f64/tiny", 0x55860294ca5af85e),
    ("iosched/f32/tiny", 0xbacc10cad76f74d4),
    ("iosched/f64/epoch-raw", 0x9b103cbc5e64e9a3),
    ("iosched/f32/epoch-raw", 0xd653afed83333624),
    ("iosched/f64/epoch-normalized", 0x5a91343be34d14a5),
    ("iosched/f32/epoch-normalized", 0xfbf5eb7a1c2d705b),
    ("iosched/spec", 0xa21c18efa1551352),
    ("softmax-tanh/f64/Ce", 0xfe621a371daccc89),
    ("softmax-tanh/f32/Ce", 0x4993c3febc24b1fd),
    ("softmax-tanh/f64/Mse", 0x70f7bdbb2daeaa35),
    ("softmax-tanh/f32/Mse", 0x9c02f6027742125d),
    ("softmax-tanh/f64/Bce", 0x21c98af0a5a0fd84),
    ("softmax-tanh/f32/Bce", 0xb6845f111365741c),
    ("softmax-tanh/f64/nonfinite", 0x849057ad98465205),
    ("softmax-tanh/f32/nonfinite", 0x849057ad98465205),
    ("softmax-tanh/f64/tiny", 0xdcfd05b78cf78eb0),
    ("softmax-tanh/f32/tiny", 0xc74f84fb9bc06532),
    ("softmax-tanh/f64/epoch-raw", 0x5ba615900375d3aa),
    ("softmax-tanh/f32/epoch-raw", 0x10700f5947803410),
    ("softmax-tanh/f64/epoch-normalized", 0xa1cfc18afc8a1c8a),
    ("softmax-tanh/f32/epoch-normalized", 0x430f60c8e5e2134b),
    ("softmax-tanh/spec", 0x1560e12b7078eff5),
    ("softmax-relu/f64/Ce", 0x1e6bb0fc9ff6ff12),
    ("softmax-relu/f32/Ce", 0x31034d060b0e0948),
    ("softmax-relu/f64/Mse", 0xa16ef4519b1f0fdb),
    ("softmax-relu/f32/Mse", 0x0ecc252dad61e36f),
    ("softmax-relu/f64/Bce", 0x5045a41cadbc33ef),
    ("softmax-relu/f32/Bce", 0x8c238a63a1ebe71a),
    ("softmax-relu/f64/nonfinite", 0x183a1bb08feba3b0),
    ("softmax-relu/f32/nonfinite", 0x3711155bbe59f7a8),
    ("softmax-relu/f64/tiny", 0xf0de88dbff2b4ad8),
    ("softmax-relu/f32/tiny", 0xe3edb789cd0ada9b),
    ("softmax-relu/f64/epoch-raw", 0x3cb2c7d9e081c1cb),
    ("softmax-relu/f32/epoch-raw", 0x342eecf61065e4c4),
    ("softmax-relu/f64/epoch-normalized", 0xbc4681088f006482),
    ("softmax-relu/f32/epoch-normalized", 0xafe32ff481e2d92c),
    ("softmax-relu/spec", 0x36da99f87c874706),
];

#[test]
fn training_reproduces_the_pinned_weights() {
    let got = cases();
    let mut bad = Vec::new();
    for (name, hash) in &got {
        let want = PINNED.iter().find(|(n, _)| n == name).map(|&(_, h)| h);
        if want != Some(*hash) {
            bad.push(format!(
                "    (\"{name}\", {hash:#018x}), // pinned {want:x?}"
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "{} of {} cases differ:\n{}",
        bad.len(),
        got.len(),
        bad.join("\n")
    );
    assert_eq!(
        PINNED.len(),
        got.len(),
        "a pinned case was renamed or dropped"
    );
}

/// One step of every topology moves its weights: the hashes above would
/// otherwise hide a case that silently trained on nothing.
#[test]
fn every_case_trains_on_live_gradients() {
    for (name, t) in topologies() {
        let before = {
            let mut h = Fnv1a::new();
            fold_params(&mut h, &t.build::<f64>().unwrap());
            h.finish()
        };
        let mut h = Fnv1a::new();
        let mut model = t.build::<f64>().unwrap();
        let x = features(9, model.input_dim(), 1, Extra::None);
        let input = Matrix::from_f64_vec(9, model.input_dim(), &x).unwrap();
        let classes: Vec<usize> = (0..9).map(|r| r % model.output_dim()).collect();
        let mut sgd = Sgd::new(0.05, 0.9);
        let l = model
            .train_batch(
                &input,
                TargetRef::Classes(&classes),
                &CrossEntropyLoss,
                &mut sgd,
            )
            .unwrap();
        assert!(l.is_finite() && l > 0.0, "{name}: loss {l}");
        fold_params(&mut h, &model);
        assert_ne!(h.finish(), before, "{name}: one step moved no weight");
    }
}
