//! Wires the continual loop into all three deployed serving paths —
//! the readahead `KmlTuner` on a live page-cache sim, the netfs
//! `RsizeTuner`, and a fleet `InferenceServer` lane — and drives the
//! full drift → retrain → shadow → earned-promotion arc through each.

use kernel_sim::{DeviceProfile, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_continual::{
    train_candidate, ContinualConfig, ContinualController, DriftConfig, ReservoirSample,
    RetrainSpec, RESERVOIR_DIM,
};
use kml_fleet::{FleetModels, InferRequest, InferenceServer, ModelKind, ServeOptions};
use kml_lifecycle::{ArtifactKind, WatchdogConfig};
use netfs::{RsizePolicy, RsizeTuner, RsizeTunerModel, NUM_RSIZE_FEATURES};
use readahead::{KmlTuner, RaPolicy, TunerModel};

/// Builds `.kmlm` bytes by training on a synthetic labeled cluster set —
/// the same path the live retrainer takes.
fn artifact_from(kind: ArtifactKind, clusters: &[([f64; RESERVOIR_DIM], usize)]) -> Vec<u8> {
    let mut samples = Vec::new();
    for (i, &(center, label)) in clusters.iter().enumerate() {
        for j in 0..24u64 {
            let mut features = center;
            // Small deterministic jitter so the normalizer sees variance.
            for (k, f) in features.iter_mut().enumerate() {
                *f *= 1.0 + ((i as u64 * 31 + j * 7 + k as u64) % 13) as f64 * 0.01;
            }
            samples.push(ReservoirSample {
                id: (i as u64) << 32 | j,
                priority: 0,
                features,
                label,
            });
        }
    }
    train_candidate(
        &RetrainSpec {
            kind,
            classes: 2,
            epochs: 60,
            seed: 0x1217,
        },
        0,
        &samples,
    )
    .expect("initial artifact")
}

fn continual_cfg(kind: ArtifactKind) -> ContinualConfig {
    ContinualConfig {
        drift: DriftConfig {
            reference_windows: 6,
            block_windows: 2,
            threshold: 8.0,
            trigger_blocks: 2,
            abs_floor: 1.0,
        },
        reservoir_capacity: 64,
        seed: 0xC0_11EC7,
        min_samples: 16,
        watchdog: WatchdogConfig {
            baseline_windows: 2,
            promote_after: 3,
            regress_windows: 2,
            regress_ratio: 0.5,
        },
        spec: RetrainSpec {
            kind,
            classes: 2,
            epochs: 60,
            seed: 0xC0_11EC7,
        },
    }
}

/// Random-phase readahead windows: huge mean |Δoffset| (feature 3).
const RA_RANDOM: [f64; RESERVOIR_DIM] = [100.0, 500_000.0, 290_000.0, 330_000.0, 128.0];
/// Sequential-phase readahead windows: near-unit |Δoffset|.
const RA_SEQ: [f64; RESERVOIR_DIM] = [4000.0, 500_000.0, 2_000.0, 1.0, 128.0];

#[test]
fn readahead_loop_runs_the_full_arc_on_a_live_sim() {
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::sata_ssd(),
        cache_pages: 2048,
        ..SimConfig::default()
    });
    let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
    sim.attach_trace(producer);
    let file = sim.create_file(1 << 20);

    // The placeholder model is never consulted: the controller installs
    // the initial artifact as generation 1 before the first window.
    let mut tuner = KmlTuner::new(
        TunerModel::Remote,
        RaPolicy::new(vec![16, 1024]),
        consumer,
        1_000_000,
        128,
    );
    let initial = artifact_from(ArtifactKind::Readahead, &[(RA_RANDOM, 0)]);
    let mut ctl =
        ContinualController::new(continual_cfg(ArtifactKind::Readahead), &mut tuner, initial)
            .expect("controller");
    assert_eq!(tuner.model_generation(), 1);

    let drive = |sim: &mut Sim,
                 tuner: &mut KmlTuner,
                 ctl: &mut ContinualController,
                 ops: u64,
                 mut read_at: Box<dyn FnMut(u64) -> u64>| {
        for op in 0..ops {
            sim.read(file, read_at(op), 4).expect("read");
            if let Some(features) = tuner.poll_window(sim) {
                let label = KmlTuner::heuristic_class(&features);
                // Lifecycle first, so a promotion executed on this window
                // serves this window's decision — post-promotion decisions
                // must carry the new generation.
                ctl.observe_window(tuner, &features, label, 1000.0)
                    .expect("window");
                let class = tuner.predict_active(&features).expect("predict");
                tuner.apply_class(sim, class);
            }
        }
    };

    // Phase 1: random reads. The baseline forms here; no drift, no
    // retrain, and the class-0 model keeps readahead minimal.
    let mut x = 5u64;
    drive(
        &mut sim,
        &mut tuner,
        &mut ctl,
        800,
        Box::new(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 16) % ((1 << 20) - 8)
        }),
    );
    assert_eq!(ctl.drift_events(), 0, "stationary phase must not drift");
    assert_eq!(ctl.retrains(), 0);
    assert_eq!(tuner.model_generation(), 1);
    assert_eq!(tuner.current_ra_kb(), 16, "random phase mis-tuned");

    // Phase 2: sequential scan — a genuine workload shift. Drift fires,
    // the reservoir retrains a candidate, shadow evaluation runs, and
    // the watchdog promotes on clean windows.
    drive(&mut sim, &mut tuner, &mut ctl, 30_000, Box::new(|op| op));

    assert!(
        ctl.drift_events() >= 1,
        "sustained shift must trigger drift"
    );
    assert!(ctl.retrains() >= 1, "drift must retrain");
    assert!(
        ctl.lifecycle().promotions() >= 1,
        "clean windows must earn promotion"
    );
    assert_eq!(
        ctl.generation(),
        1 + ctl.lifecycle().promotions(),
        "every generation bump must be an earned promotion"
    );
    assert_eq!(tuner.model_generation(), ctl.generation());
    assert_eq!(
        tuner.current_ra_kb(),
        1024,
        "promoted model must classify the sequential phase"
    );

    // Decision log: generations are monotone and every decision after
    // the last promotion carries the promoted generation.
    let decisions = tuner.decisions();
    assert!(decisions
        .windows(2)
        .all(|w| w[0].generation <= w[1].generation));
    assert_eq!(
        decisions.last().expect("decisions").generation,
        ctl.generation()
    );
    // Retrains only ever happen on drift windows.
    assert!(ctl.retrains() <= ctl.drift_events());
}

/// Calm link windows: negligible retransmit fraction (feature 2).
const NET_CALM: [f64; NUM_RSIZE_FEATURES] = [200.0, 2_000_000.0, 0.01, 100_000.0, 1024.0];
/// Congested link windows: half the RPCs retransmit.
const NET_CONGESTED: [f64; NUM_RSIZE_FEATURES] = [150.0, 9_000_000.0, 0.55, 4_000_000.0, 1024.0];

#[test]
fn netfs_loop_retrains_and_promotes_on_congestion_shift() {
    let (_producer, consumer) = RingBuffer::with_capacity(1 << 10).split();
    let mut tuner = RsizeTuner::new(
        RsizeTunerModel::Remote,
        RsizePolicy::new(vec![1024, 64]),
        consumer,
        RsizeTuner::DEFAULT_WINDOW_NS,
    );
    let initial = artifact_from(ArtifactKind::NetfsRsize, &[(NET_CALM, 0)]);
    let mut ctl =
        ContinualController::new(continual_cfg(ArtifactKind::NetfsRsize), &mut tuner, initial)
            .expect("controller");

    // Calm phase: baseline forms, nothing fires.
    for i in 0..20u64 {
        let mut w = NET_CALM;
        w[0] += (i % 3) as f64; // bounded noise
        let label = RsizeTuner::heuristic_class(&w);
        assert_eq!(label, 0);
        let out = ctl
            .observe_window(&mut tuner, &w, label, 1000.0)
            .expect("window");
        assert!(!out.drifted);
    }
    assert_eq!(ctl.retrains(), 0);
    assert_eq!(tuner.model_generation(), 1);

    // Congestion shift: the retransmit fraction jumps and stays up.
    let mut promoted = false;
    for i in 0..30u64 {
        let mut w = NET_CONGESTED;
        w[0] += (i % 3) as f64;
        let label = RsizeTuner::heuristic_class(&w);
        assert_eq!(label, 1);
        let out = ctl
            .observe_window(&mut tuner, &w, label, 1000.0)
            .expect("window");
        if out
            .lifecycle
            .map(|e| matches!(e, kml_lifecycle::LoopEvent::Promoted { .. }))
            .unwrap_or(false)
        {
            promoted = true;
        }
    }
    assert!(promoted, "congestion shift must earn a promotion");
    assert_eq!(ctl.drift_events(), 1);
    assert_eq!(ctl.retrains(), 1);
    assert_eq!(tuner.model_generation(), 2);
    // The promoted model classifies the congested link, so the loop
    // would now shrink the transfer size.
    let class = tuner.predict_active(&NET_CONGESTED).expect("predict");
    assert_eq!(class, 1, "promoted model must recognize congestion");
}

#[test]
fn fleet_lane_promotes_without_touching_other_kinds() {
    let mut server = InferenceServer::new(
        FleetModels::untrained(0xF1EE7).expect("models"),
        ServeOptions::default(),
    );
    let initial = artifact_from(ArtifactKind::Readahead, &[(RA_RANDOM, 0)]);
    let mut ctl = ContinualController::new(
        continual_cfg(ArtifactKind::Readahead),
        &mut server.lifecycle_lane(ModelKind::Readahead),
        initial,
    )
    .expect("controller");
    assert_eq!(server.generation(ModelKind::Readahead), 1);
    let iosched_gen = server.generation(ModelKind::Iosched);
    let netfs_gen = server.generation(ModelKind::Netfs);

    let serve_window = |server: &mut InferenceServer, features: [f64; RESERVOIR_DIM]| {
        let req = InferRequest {
            tenant_id: 7,
            kind: ModelKind::Readahead,
            features,
            dim: RESERVOIR_DIM,
        };
        let responses = server.serve(&[req]).expect("serve");
        responses[0].class
    };

    // Calm phase: the installed class-0 model answers every tick.
    for i in 0..20u64 {
        let mut w = RA_RANDOM;
        w[0] += (i % 3) as f64;
        let class = serve_window(&mut server, w);
        assert_eq!(class, 0, "initial model must classify the calm phase");
        ctl.observe_window(
            &mut server.lifecycle_lane(ModelKind::Readahead),
            &w,
            0,
            1000.0,
        )
        .expect("window");
    }
    assert_eq!(ctl.retrains(), 0);

    // Shift: serve ticks keep flowing while the lane drifts, retrains,
    // shadow-evaluates, and promotes.
    let mut last_class = 0;
    for i in 0..30u64 {
        let mut w = RA_SEQ;
        w[0] += (i % 3) as f64;
        last_class = serve_window(&mut server, w);
        ctl.observe_window(
            &mut server.lifecycle_lane(ModelKind::Readahead),
            &w,
            1,
            1000.0,
        )
        .expect("window");
    }
    assert!(
        ctl.lifecycle().promotions() >= 1,
        "fleet lane must earn its promotion"
    );
    assert_eq!(
        server.generation(ModelKind::Readahead),
        1 + ctl.lifecycle().promotions()
    );
    assert_eq!(
        last_class, 1,
        "post-promotion ticks must be served by the retrained model"
    );
    // The other lanes never moved.
    assert_eq!(server.generation(ModelKind::Iosched), iosched_gen);
    assert_eq!(server.generation(ModelKind::Netfs), netfs_gen);
    assert_eq!(server.shadow_stats(ModelKind::Readahead).windows, 0);
}
