//! The deployed KML readahead application (paper §3.3 execution flow).
//!
//! "(1) KML starts collecting data from the memory management component;
//! (2) the collected data is processed and normalized ...; (3) features are
//! passed to the KML engine for inference; (4) KML's engine ... generates
//! predictions; and (5) finally, the KML application takes actions based on
//! the predictions just made — e.g., changes readahead sizes using block
//! device layer ioctls and updates the readahead values in struct files."
//!
//! [`KmlTuner`] is that loop: it drains the tracepoint ring buffer on every
//! hook invocation, and once per window rolls the features, infers the
//! workload class (neural network or decision tree), and actuates the
//! class's best readahead value from the [`RaPolicy`]. The flow itself is
//! [`kml_lifecycle::ClosedLoop`], shared with every other tuner; this
//! module supplies the readahead [`Subsystem`]: [`RaLoop`].

use crate::datagen::workload_of_class;
use crate::features::{FeatureExtractor, FeatureVector};
use kernel_sim::{Sim, TraceRecord};
use kml_collect::ringbuf::Consumer;
use kml_lifecycle::{ArtifactKind, ClosedLoop, Subsystem, TimeWindow};
use kml_telemetry::{Counter, Gauge, Registry};
use std::ops::{Deref, DerefMut};

/// Which trained model drives the tuner.
pub use kml_lifecycle::LoopModel as TunerModel;

/// Metric name prefix for the tuner's loop-stage and decision metrics.
pub const LOOP_METRIC_PREFIX: &str = "readahead.loop";

/// Class → readahead-KiB mapping, built from a [`crate::ReadaheadStudy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaPolicy {
    per_class_kb: Vec<u32>,
}

impl RaPolicy {
    /// Builds a policy from per-class best readahead values (indexed by
    /// training-class id).
    ///
    /// # Panics
    ///
    /// Panics if `per_class_kb` is empty.
    pub fn new(per_class_kb: Vec<u32>) -> Self {
        assert!(!per_class_kb.is_empty(), "policy needs at least one class");
        RaPolicy { per_class_kb }
    }

    /// Best readahead for a class (clamped to the last entry for overflow).
    pub fn ra_kb_for(&self, class: usize) -> u32 {
        self.per_class_kb[class.min(self.per_class_kb.len() - 1)]
    }

    /// Number of classes the policy covers.
    pub fn classes(&self) -> usize {
        self.per_class_kb.len()
    }
}

/// One entry of the tuner's decision log (drives Figure 2's Y2 axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerDecision {
    /// Simulated time of the decision, ns.
    pub time_ns: u64,
    /// Predicted workload class.
    pub class: usize,
    /// Readahead applied, KiB.
    pub ra_kb: u32,
    /// Generation of the model that took the decision (1 until the first
    /// lifecycle swap) — the rollback proof reads this field.
    pub generation: u64,
}

/// The readahead half of the loop: tracepoint featurizer, class →
/// readahead policy, two-window confirmation, and the readahead actuator.
#[derive(Debug)]
pub struct RaLoop {
    policy: RaPolicy,
    extractor: FeatureExtractor,
    consumer: Consumer<TraceRecord>,
    clock: TimeWindow,
    current_ra_kb: u32,
    /// Whether actuation waits for two agreeing windows (default true).
    hysteresis: bool,
    class_total: Vec<Counter>,
    ra_bytes: Gauge,
}

impl Subsystem for RaLoop {
    type World = Sim;
    type Features = FeatureVector;
    type Knob = u32;
    type Decision = TunerDecision;

    const KIND: ArtifactKind = ArtifactKind::Readahead;
    const METRIC_PREFIX: &'static str = LOOP_METRIC_PREFIX;

    fn classes(&self) -> usize {
        self.policy.classes()
    }

    /// Binds to whatever registry the sim carries, adding the per-class
    /// decision counters and the readahead gauge to the core's metrics.
    fn registry(&mut self, sim: &Sim) -> Registry {
        let (registry, p) = (sim.telemetry(), LOOP_METRIC_PREFIX);
        self.class_total = (0..self.policy.classes())
            .map(|c| {
                let name = workload_of_class(c.min(3)).name();
                registry.counter(&format!("{p}.class.{name}_total"))
            })
            .collect();
        self.ra_bytes = registry.gauge(&format!("{p}.ra_bytes"));
        registry.clone()
    }

    fn collect(&mut self, _sim: &mut Sim) {
        for record in self.consumer.drain() {
            self.extractor.push(&record);
        }
    }

    fn records_dropped(&self) -> u64 {
        self.consumer.dropped()
    }

    fn window_closed(&mut self, sim: &Sim) -> bool {
        self.clock.closed(sim.now_ns()) && self.extractor.window_count() > 0
    }

    fn roll(&mut self, _sim: &Sim) -> FeatureVector {
        self.extractor.roll_window(f64::from(self.current_ra_kb))
    }

    fn knob_for(&self, class: usize) -> u32 {
        self.policy.ra_kb_for(class)
    }

    fn current_knob(&self, _sim: &Sim) -> u32 {
        self.current_ra_kb
    }

    /// Actuate only when two consecutive windows agree, so a single
    /// misclassified window (the Figure 2 fluctuations) cannot whipsaw the
    /// readahead setting.
    fn confirmed(&self, _target: u32, _current: u32, repeated: bool) -> bool {
        !self.hysteresis || repeated
    }

    fn actuate(&mut self, sim: &mut Sim, ra_kb: u32) {
        sim.set_ra_kb(ra_kb);
        self.current_ra_kb = ra_kb;
    }

    fn decision(&self, sim: &Sim, class: usize, ra_kb: u32, generation: u64) -> TunerDecision {
        TunerDecision {
            time_ns: sim.now_ns(),
            class,
            ra_kb,
            generation,
        }
    }

    fn observe(&self, class: usize, ra_kb: u32) {
        if let Some(c) = self.class_total.get(class) {
            c.inc();
        }
        self.ra_bytes.set(u64::from(ra_kb) * 1024);
    }
}

/// The closed-loop readahead tuner: a [`ClosedLoop`] over [`RaLoop`]. The
/// loop API (`on_op`, `poll_window`, `predict_active`, `apply_class`,
/// `decisions`, `records_dropped`, the model slot and the
/// `LifecycleTarget` swap point) is the core's, reached through `Deref`.
#[derive(Debug)]
pub struct KmlTuner(ClosedLoop<RaLoop>);

impl Deref for KmlTuner {
    type Target = ClosedLoop<RaLoop>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for KmlTuner {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl KmlTuner {
    /// Creates a tuner.
    ///
    /// - `model`/`policy`: the trained classifier and class→readahead map.
    /// - `consumer`: the read end of the ring buffer attached to the sim.
    /// - `window_ns`: inference cadence on the simulated clock (the paper
    ///   infers once per second), clamped to at least 1 ns.
    /// - `initial_ra_kb`: the readahead in force before the first decision.
    pub fn new(
        model: TunerModel,
        policy: RaPolicy,
        consumer: Consumer<TraceRecord>,
        window_ns: u64,
        initial_ra_kb: u32,
    ) -> Self {
        let subsystem = RaLoop {
            policy,
            extractor: FeatureExtractor::new(),
            consumer,
            clock: TimeWindow::new(window_ns),
            current_ra_kb: initial_ra_kb,
            hysteresis: true,
            class_total: Vec::new(),
            ra_bytes: Gauge::noop(),
        };
        KmlTuner(ClosedLoop::new(subsystem, model))
    }

    /// Disables/enables the two-window agreement requirement before
    /// actuating (on by default). Exposed for the hysteresis ablation.
    pub fn set_hysteresis(&mut self, enabled: bool) {
        self.0.subsystem_mut().hysteresis = enabled;
    }

    /// The deterministic label oracle continual retraining trains
    /// against: sequential streams have near-unit mean |Δoffset|
    /// (feature 3), random streams jump by whole file spans. Pure
    /// function of the features — usable at any worker count.
    pub fn heuristic_class(features: &FeatureVector) -> usize {
        if features[3] <= 16.0 {
            1 // sequential => large readahead
        } else {
            0 // random => minimal readahead
        }
    }

    /// The readahead currently in force, KiB.
    pub fn current_ra_kb(&self) -> u32 {
        self.0.subsystem().current_ra_kb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, SimConfig};
    use kml_collect::RingBuffer;
    use kml_core::dataset::Dataset;
    use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
    use kml_lifecycle::{ArtifactError, LifecycleTarget};

    #[test]
    fn policy_lookup_and_clamping() {
        let p = RaPolicy::new(vec![8, 1024, 32, 128]);
        assert_eq!(p.ra_kb_for(0), 8);
        assert_eq!(p.ra_kb_for(3), 128);
        assert_eq!(p.ra_kb_for(99), 128); // clamped
        assert_eq!(p.classes(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_policy_panics() {
        let _ = RaPolicy::new(vec![]);
    }

    /// A stub decision tree that always predicts by thresholding feature 3
    /// (mean abs diff): big → class 0 (random), small → class 1 (seq).
    fn stub_tree() -> DecisionTree {
        let data = Dataset::from_rows(
            &[
                vec![100.0, 0.0, 0.0, 5000.0, 128.0],
                vec![100.0, 0.0, 0.0, 6000.0, 128.0],
                vec![100.0, 0.0, 0.0, 1.0, 128.0],
                vec![100.0, 0.0, 0.0, 2.0, 128.0],
            ],
            &[0, 0, 1, 1],
        )
        .unwrap();
        DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap()
    }

    #[test]
    fn tuner_retunes_at_window_boundaries() {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::sata_ssd(),
            cache_pages: 2048,
            ..SimConfig::default()
        });
        let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
        sim.attach_trace(producer);
        let f = sim.create_file(1 << 20);

        // Policy: class 0 (random) → 16 KiB, class 1 (seq) → 1024 KiB.
        let mut tuner = KmlTuner::new(
            TunerModel::Tree(stub_tree()),
            RaPolicy::new(vec![16, 1024]),
            consumer,
            1_000_000, // 1 ms windows so the test crosses many
            128,
        );

        // Phase 1: random reads → the tuner should settle at 16 KiB.
        let mut x = 5u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.read(f, (x >> 16) % ((1 << 20) - 8), 4).unwrap();
            tuner.on_op(&mut sim).unwrap();
        }
        assert_eq!(tuner.current_ra_kb(), 16, "random phase mis-tuned");
        assert!(!tuner.decisions().is_empty());

        // Phase 2: sequential scan → the tuner should move to 1024 KiB.
        for p in 0..20_000u64 {
            sim.read(f, p, 1).unwrap();
            tuner.on_op(&mut sim).unwrap();
        }
        assert_eq!(tuner.current_ra_kb(), 1024, "sequential phase mis-tuned");
        // Decisions recorded with monotone timestamps.
        let d = tuner.decisions();
        assert!(d.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
    }

    /// Trains nothing: an untrained f32 net with the right dims, saved as
    /// a readahead artifact.
    fn artifact(seed: u64, classes: usize) -> Vec<u8> {
        let mut m = kml_core::model::ModelBuilder::readahead_paper_topology(5, classes)
            .seed(seed)
            .build::<f32>()
            .unwrap();
        kml_lifecycle::save_model(ArtifactKind::Readahead, &mut m).unwrap()
    }

    #[test]
    fn lifecycle_swap_shadow_and_atomic_failure() {
        let mut sim = Sim::new(SimConfig::default());
        let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
        sim.attach_trace(producer);
        let f = sim.create_file(1 << 20);
        let mut tuner = KmlTuner::new(
            TunerModel::Tree(stub_tree()),
            RaPolicy::new(vec![16, 1024]),
            consumer,
            1_000_000,
            128,
        );
        assert_eq!(tuner.model_generation(), 1);

        // Install a real artifact as generation 2 and stage a shadow.
        tuner.install_artifact(&artifact(7, 2), 2).unwrap();
        assert_eq!(tuner.model_generation(), 2);
        tuner.stage_shadow_artifact(&artifact(8, 2)).unwrap();
        assert!(tuner.shadow_staged());

        // Drive traffic: decisions carry the generation, the shadow
        // accumulates agreement windows, and the knob only ever moves on
        // active decisions.
        for p in 0..4_000u64 {
            sim.read(f, p % ((1 << 20) - 8), 4).unwrap();
            tuner.on_op(&mut sim).unwrap();
        }
        assert!(!tuner.decisions().is_empty());
        assert!(tuner.decisions().iter().all(|d| d.generation == 2));
        let stats = LifecycleTarget::shadow_stats(&tuner);
        assert!(stats.windows > 0, "shadow saw no windows");
        assert_eq!(stats.errors, 0);

        // A wrong-class artifact is rejected atomically: generation, knob,
        // and staged shadow all untouched.
        let ra_before = tuner.current_ra_kb();
        let err = tuner.install_artifact(&artifact(9, 3), 3).unwrap_err();
        assert!(matches!(
            err,
            ArtifactError::ClassMismatch {
                artifact: 3,
                policy: 2
            }
        ));
        assert_eq!(tuner.model_generation(), 2);
        assert_eq!(tuner.current_ra_kb(), ra_before);
        assert!(tuner.shadow_staged());

        // So is a corrupted artifact.
        let mut corrupt = artifact(7, 2);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(tuner.install_artifact(&corrupt, 3).is_err());
        assert_eq!(tuner.model_generation(), 2);
    }

    #[test]
    fn zero_length_window_does_not_hang() {
        let mut sim = Sim::new(SimConfig::default());
        let (producer, consumer) = RingBuffer::with_capacity(1 << 10).split();
        sim.attach_trace(producer);
        let f = sim.create_file(1 << 10);
        let mut tuner = KmlTuner::new(
            TunerModel::Tree(stub_tree()),
            RaPolicy::new(vec![16, 1024]),
            consumer,
            0,
            128,
        );
        for page in [0, 64] {
            sim.read(f, page, 4).unwrap();
            tuner.on_op(&mut sim).unwrap();
            sim.advance(10_000_000);
        }
        assert!(!tuner.decisions().is_empty());
    }

    #[test]
    fn tuner_skips_idle_windows() {
        let mut sim = Sim::new(SimConfig::default());
        let (_producer, consumer) = RingBuffer::<TraceRecord>::with_capacity(16).split();
        let mut tuner = KmlTuner::new(
            TunerModel::Tree(stub_tree()),
            RaPolicy::new(vec![16, 1024]),
            consumer,
            1_000_000,
            128,
        );
        // Clock advances with no tracepoints at all: no decisions.
        for _ in 0..10 {
            sim.advance(10_000_000);
            tuner.on_op(&mut sim).unwrap();
        }
        assert!(tuner.decisions().is_empty());
        assert_eq!(tuner.current_ra_kb(), 128);
    }
}
