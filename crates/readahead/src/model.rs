//! Building and training the readahead models (paper §4 "Neural network
//! model").
//!
//! "Our model has three linear layers, and these layers are connected with
//! sigmoid activation functions ... We used the cross-entropy loss function
//! and optimized our network using an SGD optimizer, configured with a
//! (conventional) learning rate of 0.01 and a momentum of 0.99. ... We
//! measured the performance of our neural network using k-fold
//! cross-validation with k = 10, and found that our model reached an
//! average accuracy of 95.5%."
//!
//! [`train_paper_model`] reproduces the full §4 pipeline: run the study on
//! both devices, collect the NVMe training windows, train the network (in
//! `f64` "user space"), validate with k-fold, deploy as `f32` through the
//! model-file round trip (the §3.3 train-in-user-space/deploy-in-kernel
//! flow), and fit the comparison decision tree.

use crate::datagen::{self, DatagenConfig};
use crate::study::{ReadaheadStudy, StudyConfig};
use crate::tuner::RaPolicy;
use kernel_sim::DeviceProfile;
use kml_core::dataset::Dataset;
use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
use kml_core::loss::CrossEntropyLoss;
use kml_core::model::{Model, ModelBuilder};
use kml_core::optimizer::Sgd;
use kml_core::train::{deploy, TrainSpec};
use kml_core::validate::{k_fold_cross_validate, CrossValidation};
use kml_core::{KmlRng, Result};
use rand::SeedableRng;

/// Scale of the whole train-and-evaluate pipeline.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Study scale (the class→readahead mapping sweep).
    pub study: StudyConfig,
    /// Training-data collection scale.
    pub datagen: DatagenConfig,
    /// Training epochs for the neural network.
    pub epochs: usize,
    /// Folds for cross-validation (the paper uses 10).
    pub k_folds: usize,
    /// Operations per closed-loop evaluation run.
    pub eval_ops: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            study: StudyConfig::default(),
            datagen: DatagenConfig::default(),
            epochs: 300,
            k_folds: 10,
            eval_ops: 30_000,
            seed: 0x4B4D4C,
        }
    }
}

impl LoopConfig {
    /// Reduced scale for unit tests and smoke runs.
    pub fn quick() -> Self {
        LoopConfig {
            study: StudyConfig::quick(),
            datagen: DatagenConfig::quick(),
            epochs: 300,
            k_folds: 4,
            eval_ops: 4_000,
            seed: 0x4B4D4C,
        }
    }
}

/// Everything §4 trains: network, tree, per-device policies, validation.
#[derive(Debug)]
pub struct TrainedReadahead {
    /// The deployed (f32) neural network with its fitted normalizer.
    pub network: Model<f32>,
    /// The comparison decision tree (on raw, unnormalized features).
    pub tree: DecisionTree,
    /// Class→readahead policy measured on NVMe.
    pub policy_nvme: RaPolicy,
    /// Class→readahead policy measured on SATA SSD.
    pub policy_ssd: RaPolicy,
    /// k-fold cross-validation result of the network recipe.
    pub cross_validation: CrossValidation,
    /// Held-in training accuracy of the tree (for reporting).
    pub tree_training_accuracy: f64,
}

impl TrainedReadahead {
    /// The policy for a device profile (by name).
    pub fn policy_for(&self, device: &DeviceProfile) -> &RaPolicy {
        if device.name == "ssd" {
            &self.policy_ssd
        } else {
            &self.policy_nvme
        }
    }
}

/// The §4 recipe: the paper topology (5 → 15 → σ → 10 → σ → `classes`)
/// seeded with `seed`, SGD at the paper's lr 0.01 / momentum 0.99, and
/// shuffled mini-batches drawn from `seed ^ 0xA5A5`.
pub fn spec(classes: usize, epochs: usize, seed: u64) -> TrainSpec {
    TrainSpec {
        topology: ModelBuilder::readahead_paper_topology(crate::NUM_FEATURES, classes).seed(seed),
        learning_rate: 0.01,
        momentum: 0.99,
        epochs,
        shuffle: Some(seed ^ 0xA5A5),
    }
}

/// Trains the 4-class network on `data` (fitting the normalizer on it)
/// with the paper's loss/optimizer; returns the trained model.
///
/// # Errors
///
/// Propagates dataset and training errors.
pub fn train_network(data: &Dataset, epochs: usize, seed: u64) -> Result<Model<f64>> {
    Ok(spec(4, epochs, seed).train(data)?.0)
}

/// Returns a copy of the dataset with feature (v) — the current readahead
/// value — zeroed, used for decision-tree fitting (see `train_paper_model`).
fn mask_ra_feature(data: &Dataset) -> Result<Dataset> {
    let mut features = data.features().clone();
    let ra_col = features.cols() - 1;
    for r in 0..features.rows() {
        features.set(r, ra_col, 0.0);
    }
    Dataset::from_matrix(features, data.labels().to_vec())
}

/// The full §4 pipeline. Expensive at default scale; use
/// [`LoopConfig::quick`] in tests.
///
/// # Errors
///
/// Propagates study, collection, and training failures.
pub fn train_paper_model(cfg: &LoopConfig) -> Result<TrainedReadahead> {
    // 1. Study the problem: best readahead per training class, per device.
    let workloads = kvstore::Workload::training_set();
    let study_nvme = ReadaheadStudy::run(DeviceProfile::nvme(), &workloads, &cfg.study);
    let study_ssd = ReadaheadStudy::run(DeviceProfile::sata_ssd(), &workloads, &cfg.study);
    let policy_nvme = RaPolicy::new(study_nvme.training_class_policy());
    let policy_ssd = RaPolicy::new(study_ssd.training_class_policy());

    // 2. Collect labeled windows on NVMe (the paper's training device).
    //    The collection sweep is extended with the readahead values the
    //    policies will actually deploy: the deployed tuner changes feature
    //    (v) and the event-rate features with it, and models — especially
    //    the tree's hard thresholds — must see those regimes in training.
    let mut dcfg = cfg.datagen.clone();
    for policy in [&policy_nvme, &policy_ssd] {
        for class in 0..policy.classes() {
            let kb = policy.ra_kb_for(class);
            if !dcfg.ra_settings_kb.contains(&kb) {
                dcfg.ra_settings_kb.push(kb);
            }
        }
    }
    let data = datagen::training_dataset(&dcfg)?;

    // 3. Validate the recipe with k-fold cross-validation (E2).
    let mut rng = KmlRng::seed_from_u64(cfg.seed);
    let epochs = cfg.epochs;
    let cross_validation = k_fold_cross_validate(
        &data,
        cfg.k_folds.min(data.len() / 2).max(2),
        epochs,
        &CrossEntropyLoss,
        |fold| {
            spec(4, epochs, cfg.seed + fold as u64)
                .topology
                .build::<f64>()
        },
        Sgd::paper_defaults,
        &mut rng,
    )?;

    // 4. Train the final network on everything, then deploy through the
    //    model file into f32 — the user-space-train / kernel-infer flow.
    let network = deploy(&train_network(&data, epochs, cfg.seed)?)?;

    // 5. Fit the comparison decision tree. Feature (v), the current
    //    readahead value, is masked to zero for the tree: its axis-aligned
    //    hard thresholds latch onto absolute readahead values seen during
    //    (static-ra) collection, but at deployment the tuner itself moves
    //    that feature — a feedback loop that whipsaws the tree. The NN's
    //    smooth boundaries tolerate it; masking keeps the tree competitive
    //    (and a masked feature is never split on, so deployment values are
    //    ignored entirely).
    let masked = mask_ra_feature(&data)?;
    let tree = DecisionTree::fit(&masked, DecisionTreeConfig::default())?;
    let tree_training_accuracy = tree.accuracy(&masked)?;

    Ok(TrainedReadahead {
        network,
        tree,
        policy_nvme,
        policy_ssd,
        cross_validation,
        tree_training_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kml_core::layers::LayerKind;

    #[test]
    fn network_topology_matches_paper() {
        let m = spec(4, 1, 1).topology.build::<f32>().unwrap();
        assert_eq!(
            m.layer_kinds(),
            vec![
                LayerKind::Linear,
                LayerKind::Sigmoid,
                LayerKind::Linear,
                LayerKind::Sigmoid,
                LayerKind::Linear,
            ]
        );
        assert_eq!(m.input_dim(), 5);
        assert_eq!(m.output_dim(), 4);
        // §4 memory claims: ~4 KB init footprint, sub-KB inference scratch.
        assert!(m.param_bytes() < 4096);
        assert!(
            (1500..4500).contains(&m.init_memory_bytes()),
            "init memory {} B should be in the paper's ~4 KB class",
            m.init_memory_bytes()
        );
        assert!(m.inference_scratch_bytes() < 1024);
    }

    #[test]
    fn quick_pipeline_learns_the_workload_classes() {
        let cfg = LoopConfig::quick();
        let trained = train_paper_model(&cfg).unwrap();
        let acc = trained.cross_validation.mean_accuracy();
        // The paper reports 95.5% at full scale; at quick scale we demand
        // clear learning (≫ 25% chance for 4 classes).
        assert!(acc > 0.7, "cross-validation accuracy {acc:.3}");
        assert!(
            trained.tree_training_accuracy > 0.8,
            "tree accuracy {:.3}",
            trained.tree_training_accuracy
        );
        // Policies exist for all classes on both devices.
        assert_eq!(trained.policy_nvme.classes(), 4);
        assert_eq!(trained.policy_ssd.classes(), 4);
    }

    #[test]
    fn deployed_f32_network_agrees_with_f64_training() {
        let cfg = DatagenConfig::quick();
        let data = crate::datagen::training_dataset(&cfg).unwrap();
        let mut f64_model = train_network(&data, 40, 7).unwrap();
        let mut f32_model = deploy(&f64_model).unwrap();
        let mut agree = 0;
        for i in 0..data.len() {
            let (f, _) = data.sample(i);
            if f64_model.predict(f).unwrap() == f32_model.predict(f).unwrap() {
                agree += 1;
            }
        }
        let ratio = agree as f64 / data.len() as f64;
        assert!(ratio > 0.95, "f32 deployment agreement only {ratio:.3}");
    }

    /// The mini-batch `train_epoch` path, pinned: the encoded model's
    /// FNV-1a, recorded on the parent commit (672c8a3) before `Graph`
    /// became a chain.
    #[test]
    fn trained_network_matches_the_parent_commit() {
        let data = crate::datagen::training_dataset(&DatagenConfig::quick()).unwrap();
        let model = train_network(&data, 40, 7).unwrap();
        let bytes = kml_core::modelfile::encode(&model).unwrap();
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(&bytes),
            0xe41f_7575_948c_2400
        );
    }
}
