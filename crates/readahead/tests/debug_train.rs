//! Regression coverage for the feed-forward training pipeline (promoted
//! from the old ignored diagnostic): dataset composition, loss descent,
//! and per-class accuracy on the paper's network topology.

use kml_core::dataset::Normalizer;
use kml_core::prelude::*;
use readahead::datagen::{self, DatagenConfig};

#[test]
fn feedforward_pipeline_learns_the_training_set() {
    let cfg = DatagenConfig::quick();
    let data = datagen::training_dataset(&cfg).unwrap();
    assert!(data.len() > 50, "training set too small: {}", data.len());
    assert_eq!(data.num_classes(), 4);
    for c in 0..4 {
        let n = data.labels().iter().filter(|&&l| l == c).count();
        assert!(n > 0, "class {c} has no training windows");
    }

    let mut model = readahead::model::spec(4, 150, 1)
        .topology
        .build::<f64>()
        .unwrap();
    model.set_normalizer(Normalizer::fit(data.features()).unwrap());
    let mut sgd = Sgd::paper_defaults();
    let mut rng = KmlRng::seed_from_u64(2);
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for _ in 0..150 {
        last_loss = model
            .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
            .unwrap();
        first_loss.get_or_insert(last_loss);
    }
    let first_loss = first_loss.unwrap();
    assert!(
        last_loss < first_loss * 0.8,
        "loss failed to descend: {first_loss:.4} -> {last_loss:.4}"
    );

    let acc = model.accuracy(&data).unwrap();
    assert!(acc > 0.7, "training accuracy regressed: {acc:.3}");

    // Confusion matrix: every class must be *predicted* at least once —
    // mode collapse onto one class can still pass a bare accuracy floor
    // on an imbalanced set.
    let mut preds = Vec::new();
    for i in 0..data.len() {
        preds.push(model.predict(data.sample(i).0).unwrap());
    }
    let cm =
        kml_core::validate::ConfusionMatrix::from_predictions(&preds, data.labels(), 4).unwrap();
    for p in 0..4 {
        let col: usize = (0..4).map(|t| cm.count(t, p)).sum();
        assert!(col > 0, "model never predicts class {p} (mode collapse)");
    }
}
