//! The KML application for the network path: observe the RPC stream,
//! classify the link condition, actuate the mount's `rsize`.
//!
//! The Figure 1 loop again, one layer further out than the I/O scheduler:
//! RPC tracepoints feed a ring buffer, a windowed feature vector is rolled
//! once per (simulated) window, a small classifier labels the link *calm*
//! or *congested*, and the mount's read transfer size is re-tuned from the
//! class policy. Large transfers amortize round trips on a clean link but
//! multiply the retransmission cost on a lossy one — per-fragment loss
//! means one 1 MiB READ is far more likely to die than thirty-two 32 KiB
//! READs, and each death burns a full (backed-off) RTO. No fixed rsize wins
//! both regimes of a phased link; the loop's job is to track the phase.
//! The loop itself is [`kml_lifecycle::ClosedLoop`], shared with every
//! other tuner; this module supplies the network [`Subsystem`]:
//! [`RsizeLoop`].
//!
//! Window features (the network-side analogue of the readahead features):
//!
//! 1. transmission count (replies + retransmissions — retransmissions
//!    count as records so a window that is pure stall still rolls and the
//!    tuner can act *during* a burst, not after it),
//! 2. mean RPC latency over the window (ns, across all transmissions),
//! 3. retransmit fraction — retransmissions over transmissions, in
//!    `[0, 1]` (the congestion signal),
//! 4. cumulative latency standard deviation (jitter memory),
//! 5. the rsize in force (KiB) — predictions must be conditioned on the
//!    knob that produced the observations.

use kernel_sim::SimConfig;
use kml_collect::event::{RpcEvent, RpcEventKind};
use kml_collect::featurize::{Channel, WindowedFeatures};
use kml_collect::ringbuf::Consumer;
use kml_collect::RingBuffer;
use kml_core::dataset::Dataset;
use kml_core::model::ModelBuilder;
use kml_core::train::TrainSpec;
use kml_core::Result;
use kml_lifecycle::{ArtifactKind, ClosedLoop, Subsystem, TimeWindow};
use kml_telemetry::Registry;
use std::ops::{Deref, DerefMut};

use crate::mount::NfsMount;
use crate::transport::NetProfile;

/// Which trained model drives the tuner.
pub use kml_lifecycle::LoopModel as RsizeTunerModel;

/// Number of rsize-tuner features.
pub const NUM_RSIZE_FEATURES: usize = 5;

/// Link classes the model predicts.
pub const CALM: usize = 0;
/// The congested/lossy class (small transfers win here).
pub const CONGESTED: usize = 1;

/// Metric name prefix for the netfs loop metrics.
pub const LOOP_METRIC_PREFIX: &str = "netfs.loop";

/// Channel index of the per-window latency sum (window mean latency).
const CH_LAT_WIN: usize = 0;
/// Channel index of the per-window retransmit count (retransmit fraction).
const CH_RETRANS: usize = 1;
/// Channel index of the cumulative latency stats (jitter memory).
const CH_LAT_CUM: usize = 2;

/// Streaming feature extractor over the RPC event stream, built on the
/// shared window engine.
#[derive(Debug, Clone)]
pub struct RsizeFeatures {
    windows: WindowedFeatures,
}

impl Default for RsizeFeatures {
    fn default() -> Self {
        RsizeFeatures {
            windows: WindowedFeatures::new(vec![
                Channel::window_sum(),
                Channel::window_sum(),
                Channel::cumulative(),
            ]),
        }
    }
}

impl RsizeFeatures {
    /// Creates an empty extractor.
    pub fn new() -> Self {
        RsizeFeatures::default()
    }

    /// Folds one RPC event. Replies and retransmissions are both windowed
    /// records (a retransmission is evidence, and during a deep stall it
    /// is the *only* evidence); calls and duplicate drops carry no
    /// feature signal.
    pub fn push(&mut self, event: &RpcEvent) {
        match event.kind {
            RpcEventKind::Reply => {
                self.windows.push_u64(CH_LAT_WIN, event.latency_ns);
                self.windows.push_f64(CH_LAT_CUM, event.latency_ns as f64);
                self.windows.record();
            }
            RpcEventKind::Retransmit => {
                self.windows.push_u64(CH_RETRANS, 1);
                self.windows.record();
            }
            RpcEventKind::Call | RpcEventKind::DuplicateDrop => {}
        }
    }

    /// Transmissions folded into the current window.
    pub fn window_count(&self) -> u64 {
        self.windows.window_count()
    }

    /// Closes the window and returns
    /// `[transmissions, mean_latency, retransmit_fraction, latency_std,
    /// rsize]`.
    pub fn roll_window(&mut self, rsize_kb: f64) -> [f64; NUM_RSIZE_FEATURES] {
        let features = [
            self.windows.window_count() as f64,
            self.windows.mean(CH_LAT_WIN),
            self.windows.mean(CH_RETRANS),
            self.windows.std(CH_LAT_CUM),
            rsize_kb,
        ];
        self.windows.roll();
        features
    }
}

/// Class → rsize-KiB mapping (the network-side [`readahead::RaPolicy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsizePolicy {
    per_class_kb: Vec<u32>,
}

impl RsizePolicy {
    /// Builds a policy from per-class rsize values, indexed by class.
    ///
    /// # Panics
    ///
    /// Panics if `per_class_kb` is empty.
    pub fn new(per_class_kb: Vec<u32>) -> Self {
        assert!(!per_class_kb.is_empty(), "policy needs at least one class");
        RsizePolicy { per_class_kb }
    }

    /// The default experiment policy: 1 MiB transfers when calm (round
    /// trips amortized), 256 KiB under congestion (8 fragments — small
    /// enough that most transfers survive per-fragment loss, large enough
    /// not to drown in round trips on a high-RTT link).
    pub fn experiment_default() -> Self {
        RsizePolicy::new(vec![1024, 256])
    }

    /// Best rsize for a class (clamped to the last entry for overflow).
    pub fn rsize_kb_for(&self, class: usize) -> u32 {
        self.per_class_kb[class.min(self.per_class_kb.len() - 1)]
    }

    /// Number of classes the policy covers.
    pub fn classes(&self) -> usize {
        self.per_class_kb.len()
    }

    /// The smallest rsize the policy actuates, KiB — what bounds the RPCs
    /// one read splits into ([`crate::mount::max_rpc_events_per_op`]).
    pub fn min_rsize_kb(&self) -> u32 {
        *self.per_class_kb.iter().min().expect("non-empty policy")
    }
}

/// One entry of the tuner's decision log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsizeDecision {
    /// Simulated time of the decision, ns.
    pub time_ns: u64,
    /// Predicted link class.
    pub class: usize,
    /// rsize applied, KiB.
    pub rsize_kb: u32,
    /// Generation of the model that took the decision (1 until the first
    /// lifecycle swap).
    pub generation: u64,
}

/// The network half of the loop: RPC-event featurizer, class → rsize
/// policy, asymmetric confirmation, and the mount's rsize actuator.
#[derive(Debug)]
pub struct RsizeLoop {
    policy: RsizePolicy,
    features: RsizeFeatures,
    consumer: Consumer<RpcEvent>,
    clock: TimeWindow,
}

impl Subsystem for RsizeLoop {
    type World = NfsMount;
    type Features = [f64; NUM_RSIZE_FEATURES];
    type Knob = u32;
    type Decision = RsizeDecision;

    const KIND: ArtifactKind = ArtifactKind::NetfsRsize;
    const METRIC_PREFIX: &'static str = LOOP_METRIC_PREFIX;

    fn classes(&self) -> usize {
        self.policy.classes()
    }

    fn registry(&mut self, mount: &NfsMount) -> Registry {
        mount.server().sim().telemetry().clone()
    }

    fn collect(&mut self, _mount: &mut NfsMount) {
        for event in self.consumer.drain() {
            self.features.push(&event);
        }
    }

    fn records_dropped(&self) -> u64 {
        self.consumer.dropped()
    }

    fn window_closed(&mut self, mount: &NfsMount) -> bool {
        self.clock.closed(mount.now_ns()) && self.features.window_count() > 0
    }

    fn roll(&mut self, mount: &NfsMount) -> [f64; NUM_RSIZE_FEATURES] {
        self.features.roll_window(f64::from(mount.rsize_kb()))
    }

    fn knob_for(&self, class: usize) -> u32 {
        self.policy.rsize_kb_for(class)
    }

    fn current_knob(&self, mount: &NfsMount) -> u32 {
        mount.rsize_kb()
    }

    /// Asymmetric damping: growing the transfer size waits for two
    /// agreeing windows, shrinking it actuates immediately. The costs are
    /// asymmetric — a false *calm* sends one huge transfer into a live
    /// burst and stalls through the whole backoff ladder, while a false
    /// *congested* merely pays some round-trip overhead for one window.
    fn confirmed(&self, target: u32, current: u32, repeated: bool) -> bool {
        target <= current || repeated
    }

    fn actuate(&mut self, mount: &mut NfsMount, rsize_kb: u32) {
        mount.set_rsize_kb(rsize_kb);
    }

    fn decision(
        &self,
        mount: &NfsMount,
        class: usize,
        rsize_kb: u32,
        generation: u64,
    ) -> RsizeDecision {
        RsizeDecision {
            time_ns: mount.now_ns(),
            class,
            rsize_kb,
            generation,
        }
    }
}

/// The closed-loop rsize tuner: a [`ClosedLoop`] over [`RsizeLoop`]. The
/// loop API (`on_op`, `poll_window`, `predict_active`, `apply_class`,
/// `decisions`, `records_dropped`, the model slot and the
/// `LifecycleTarget` swap point) is the core's, reached through `Deref`.
#[derive(Debug)]
pub struct RsizeTuner(ClosedLoop<RsizeLoop>);

impl Deref for RsizeTuner {
    type Target = ClosedLoop<RsizeLoop>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for RsizeTuner {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl RsizeTuner {
    /// The default inference cadence: 100 ms of simulated time, several
    /// windows per congestion phase of the experiment profiles.
    pub const DEFAULT_WINDOW_NS: u64 = 100_000_000;

    /// Creates a tuner over the read end of the mount's RPC ring, inferring
    /// every `window_ns` (clamped to at least 1 ns) of simulated time.
    pub fn new(
        model: RsizeTunerModel,
        policy: RsizePolicy,
        consumer: Consumer<RpcEvent>,
        window_ns: u64,
    ) -> Self {
        let subsystem = RsizeLoop {
            policy,
            features: RsizeFeatures::new(),
            consumer,
            clock: TimeWindow::new(window_ns),
        };
        RsizeTuner(ClosedLoop::new(subsystem, model))
    }

    /// The deterministic label oracle continual retraining trains
    /// against: a congested mount retransmits a meaningful fraction of
    /// its RPCs (feature 2), a calm one almost never does.
    pub fn heuristic_class(features: &[f64; NUM_RSIZE_FEATURES]) -> usize {
        if features[2] >= 0.3 {
            1 // congested => small rsize
        } else {
            0 // calm => large rsize
        }
    }

    /// RPC events consumed from the ring so far.
    pub fn events_consumed(&self) -> u64 {
        self.0.subsystem().consumer.consumed()
    }
}

/// Trains the calm/congested link classifier and returns it as model-file
/// bytes (train once, deploy everywhere — including across the parallel
/// E9 grid, where every worker decodes the same blob).
///
/// Labeled windows come from driving real mounts over the phased
/// experiment profiles at several fixed transfer sizes and labeling each
/// window by whether the link's congestion burst was live at the window
/// boundary — ground truth the tuner never sees at run time.
///
/// # Errors
///
/// Propagates dataset construction and training errors.
pub fn train_rsize_model(seed: u64) -> Result<Vec<u8>> {
    kml_core::modelfile::encode(&rsize_spec(seed).train(&training_windows(seed)?)?.0)
}

/// The link classifier's recipe: 5 → 10 → σ → 2 seeded with `seed`, SGD
/// at lr 0.05 / momentum 0.9 for 200 epochs of shuffled mini-batches
/// drawn from `seed ^ 0x2E`.
pub fn rsize_spec(seed: u64) -> TrainSpec {
    TrainSpec {
        topology: ModelBuilder::new(NUM_RSIZE_FEATURES)
            .linear(10)
            .sigmoid()
            .linear(2)
            .seed(seed),
        learning_rate: 0.05,
        momentum: 0.9,
        epochs: 200,
        shuffle: Some(seed ^ 0x2E),
    }
}

/// Generates labeled feature windows from the phased profiles.
fn training_windows(seed: u64) -> Result<Dataset> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for profile in [
        // The clean profile anchors the calm class at datacenter latency
        // scales; without it, sub-millisecond windows are out of the
        // training distribution and the normalizer extrapolates garbage.
        NetProfile::datacenter(seed ^ 0xC3),
        NetProfile::congested_wan(seed ^ 0xA1),
        NetProfile::lossy_wifi(seed ^ 0xB2),
    ] {
        for rsize_kb in [32u32, 128, 256, 1024] {
            let mut mount = NfsMount::new(
                profile,
                SimConfig {
                    cache_pages: 4096,
                    ..SimConfig::default()
                },
            );
            mount.set_rsize_kb(rsize_kb);
            let file = mount.create_file(1 << 20);
            let (producer, mut consumer) = RingBuffer::with_capacity(1 << 14).split();
            mount.attach_rpc_trace(producer);
            let mut fx = RsizeFeatures::new();
            let mut window_end = mount.now_ns() + RsizeTuner::DEFAULT_WINDOW_NS;
            let mut page = 0u64;
            // Long enough to cross several burst phases of both profiles.
            while mount.now_ns() < 12_000_000_000 {
                // Give-ups under total loss are acceptable training noise.
                let _ = mount.read(file, page % ((1 << 20) - 256), 256);
                page += 256;
                for event in consumer.drain() {
                    fx.push(&event);
                }
                let now = mount.now_ns();
                if now >= window_end {
                    // Label by the phase the whole window sat in; windows
                    // straddling a burst edge have mixed signals and are
                    // discarded (still rolled, to reset window state). A
                    // faultless link is calm regardless of gating.
                    let lossy = profile.faults.net_is_active();
                    let start_gated = lossy
                        && profile.faults_gated_on(window_end - RsizeTuner::DEFAULT_WINDOW_NS);
                    let end_gated = lossy && profile.faults_gated_on(window_end);
                    let row = fx.roll_window(f64::from(rsize_kb));
                    if row[0] > 0.0 && start_gated == end_gated {
                        rows.push(row.to_vec());
                        labels.push(if end_gated { CONGESTED } else { CALM });
                    }
                    while window_end <= now {
                        window_end += RsizeTuner::DEFAULT_WINDOW_NS;
                    }
                }
            }
        }
    }
    Dataset::from_rows(&rows, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kml_core::dtree::{DecisionTree, DecisionTreeConfig};

    #[test]
    fn policy_lookup_and_clamping() {
        let p = RsizePolicy::experiment_default();
        assert_eq!(p.rsize_kb_for(CALM), 1024);
        assert_eq!(p.rsize_kb_for(CONGESTED), 256);
        assert_eq!(p.rsize_kb_for(99), 256); // clamped
        assert_eq!(p.classes(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_policy_panics() {
        let _ = RsizePolicy::new(vec![]);
    }

    /// A stub tree thresholding feature 2 (retransmit fraction): high →
    /// congested, low → calm. The DST harness uses the same construction.
    pub(crate) fn stub_tree() -> DecisionTree {
        let data = Dataset::from_rows(
            &[
                vec![50.0, 1e7, 0.02, 1e6, 256.0],
                vec![50.0, 1e7, 0.01, 1e6, 256.0],
                vec![50.0, 4e7, 0.60, 1e6, 256.0],
                vec![50.0, 4e7, 0.80, 1e6, 256.0],
            ],
            &[CALM, CALM, CONGESTED, CONGESTED],
        )
        .unwrap();
        DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap()
    }

    #[test]
    fn features_separate_calm_from_congested_windows() {
        const W: u64 = RsizeTuner::DEFAULT_WINDOW_NS;
        let collect = |profile: NetProfile, in_burst: bool| {
            let mut mount = NfsMount::new(profile, SimConfig::default());
            mount.set_rsize_kb(256);
            let file = mount.create_file(1 << 18);
            let (producer, mut consumer) = RingBuffer::with_capacity(1 << 14).split();
            mount.attach_rpc_trace(producer);
            let mut fx = RsizeFeatures::new();
            let mut windows: Vec<[f64; NUM_RSIZE_FEATURES]> = Vec::new();
            let mut window_end = mount.now_ns() + W;
            let mut page = 0u64;
            while mount.now_ns() < 10_000_000_000 && windows.len() < 40 {
                let _ = mount.read(file, page % ((1 << 18) - 64), 64);
                page += 64;
                for e in consumer.drain() {
                    fx.push(&e);
                }
                let now = mount.now_ns();
                if now >= window_end {
                    // Keep only windows that sat entirely in one phase.
                    let pure = profile.faults_gated_on(window_end - W)
                        == profile.faults_gated_on(window_end);
                    let row = fx.roll_window(256.0);
                    if row[0] > 0.0 && pure && profile.faults_gated_on(window_end) == in_burst {
                        windows.push(row);
                    }
                    while window_end <= now {
                        window_end += W;
                    }
                }
            }
            windows
        };
        let profile = NetProfile::lossy_wifi(13);
        let calm = collect(profile, false);
        let congested = collect(profile, true);
        assert!(!calm.is_empty() && !congested.is_empty());
        let retrans = |ws: &[[f64; NUM_RSIZE_FEATURES]]| {
            ws.iter().map(|w| w[2]).sum::<f64>() / ws.len() as f64
        };
        assert!(
            retrans(&congested) > retrans(&calm) + 0.05,
            "retransmit fraction: congested {:.3} vs calm {:.3}",
            retrans(&congested),
            retrans(&calm)
        );
    }

    #[test]
    fn tuner_tracks_the_phase_of_a_bursty_link() {
        let profile = NetProfile::lossy_wifi(21);
        let mut mount = NfsMount::new(
            profile,
            SimConfig {
                cache_pages: 4096,
                ..SimConfig::default()
            },
        );
        let file = mount.create_file(1 << 20);
        let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
        mount.attach_rpc_trace(producer);
        let mut tuner = RsizeTuner::new(
            RsizeTunerModel::Tree(stub_tree()),
            RsizePolicy::experiment_default(),
            consumer,
            RsizeTuner::DEFAULT_WINDOW_NS,
        );
        let mut page = 0u64;
        let mut saw_small = false;
        let mut saw_large = false;
        while mount.now_ns() < 10_000_000_000 {
            let _ = mount.read(file, page % ((1 << 20) - 128), 128);
            page += 128;
            tuner.on_op(&mut mount).unwrap();
            match mount.rsize_kb() {
                256 => saw_small = true,
                1024 => saw_large = true,
                _ => {}
            }
        }
        assert!(!tuner.decisions().is_empty());
        assert!(
            saw_small && saw_large,
            "tuner never actuated both phases: small={saw_small} large={saw_large}"
        );
        assert_eq!(tuner.records_dropped(), 0, "ring sized for the workload");
    }

    #[test]
    fn zero_length_window_does_not_hang() {
        let mut mount = NfsMount::new(NetProfile::lossy_wifi(21), SimConfig::default());
        let file = mount.create_file(1 << 12);
        let (producer, consumer) = RingBuffer::with_capacity(1 << 10).split();
        mount.attach_rpc_trace(producer);
        let mut tuner = RsizeTuner::new(
            RsizeTunerModel::Tree(stub_tree()),
            RsizePolicy::experiment_default(),
            consumer,
            0,
        );
        // Every read jumps the simulated clock by at least a round trip.
        for page in [0, 128] {
            let _ = mount.read(file, page, 128);
            tuner.on_op(&mut mount).unwrap();
        }
        assert!(!tuner.decisions().is_empty());
    }

    /// The trained model file's FNV-1a, recorded on the parent commit
    /// (672c8a3) before `Graph` became a chain.
    #[test]
    fn trained_model_matches_the_parent_commit() {
        let bytes = train_rsize_model(3).expect("training succeeds");
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(&bytes),
            0xc1c6_47c8_c694_117f
        );
    }

    #[test]
    fn trained_model_round_trips_through_bytes() {
        let bytes = train_rsize_model(3).expect("training succeeds");
        let mut model = RsizeTunerModel::from_bytes(&bytes).expect("decodes");
        let class = model
            .predict(&[50.0, 1e7, 0.0, 1e6, 256.0])
            .expect("predicts");
        assert!(class == CALM || class == CONGESTED);
    }
}
