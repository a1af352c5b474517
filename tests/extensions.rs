//! Integration tests for the §6 future-work extensions working together:
//! the RL tuner inside the closed loop, quantized deployment of the
//! trained readahead network, and the HDD device profile.

use kernel_sim::DeviceProfile;

#[test]
fn quantized_deployment_of_the_trained_readahead_network() {
    // Train the quick-scale paper model, then deploy it int8-quantized and
    // verify it makes the same class decisions on the training windows.
    let cfg = readahead::datagen::DatagenConfig::quick();
    let data = readahead::datagen::training_dataset(&cfg).expect("collection succeeds");
    let trained = readahead::model::train_network(&data, 300, 7).expect("training succeeds");
    let bytes = kml_core::modelfile::encode(&trained).expect("encode");
    let mut f32_model = kml_core::modelfile::decode::<f32>(&bytes).expect("decode");
    let mut qmodel = kml_core::modelfile::decode::<f32>(&bytes).expect("decode");
    qmodel.enable_q8().expect("quantizes");

    let mut agree = 0;
    for i in 0..data.len() {
        let (f, _) = data.sample(i);
        if qmodel.predict(f).expect("q predict") == f32_model.predict(f).expect("f predict") {
            agree += 1;
        }
    }
    let ratio = agree as f64 / data.len() as f64;
    assert!(ratio > 0.95, "int8 deployment agreement {ratio:.3}");
    // And it is markedly smaller than the f32 deployment.
    let engine = kml_core::quant::Q8Engine::from_graph(
        f32_model.graph(),
        f32_model.input_dim(),
        f32_model.output_dim(),
    )
    .expect("quantizes");
    assert!(engine.param_bytes() * 2 < f32_model.param_bytes());
}

#[test]
fn hdd_profile_amplifies_the_readahead_effect() {
    // The extension device: on a seek-dominated disk, sequential scans gain
    // far more from large readahead than on either SSD.
    use readahead::study::{measure, StudyConfig};
    let cfg = StudyConfig::quick();
    let gain = |device| {
        let small = measure(device, kvstore::Workload::ReadSeq, 8, &cfg);
        let large = measure(device, kvstore::Workload::ReadSeq, 1024, &cfg);
        large / small
    };
    let hdd_gain = gain(DeviceProfile::hdd());
    let ssd_gain = gain(DeviceProfile::sata_ssd());
    assert!(
        hdd_gain > ssd_gain,
        "hdd seq gain {hdd_gain:.2} should exceed ssd {ssd_gain:.2}"
    );
    assert!(hdd_gain > 3.0, "hdd gain only {hdd_gain:.2}");
}

#[test]
fn bandit_and_supervised_tuners_coexist_in_one_binary() {
    // The RL path shares the closed-loop plumbing with the supervised one;
    // smoke both against the same workload and expect both to finish and
    // stay within sane bounds of vanilla.
    use readahead::closed_loop;
    use readahead::model::LoopConfig;
    let mut cfg = LoopConfig::quick();
    cfg.eval_ops = 6_000;
    let vanilla = closed_loop::run_vanilla(
        kvstore::Workload::ReadRandom,
        DeviceProfile::sata_ssd(),
        &cfg,
    );
    let (bandit, timeline) = closed_loop::run_bandit(
        kvstore::Workload::ReadRandom,
        DeviceProfile::sata_ssd(),
        &cfg,
    );
    assert!(bandit.ops_per_sec > vanilla.ops_per_sec * 0.8);
    assert!(!timeline.is_empty());
}
