//! The KML application for the scheduler: observe the request stream,
//! classify the traffic pattern, actuate the batching window.
//!
//! Exactly the Figure 1 loop, at a different layer of the stack — the same
//! [`kml_lifecycle::ClosedLoop`] every tuner runs, over the scheduler's
//! [`Subsystem`], [`SchedLoop`]. Features are computed per window from the
//! arrival stream (the scheduler-side equivalents of the readahead
//! features):
//!
//! 1. request count,
//! 2. mean inter-arrival gap (ns),
//! 3. adjacency fraction — requests contiguous with the previous one by
//!    sector order (the mergeability signal),
//! 4. mean queue depth at submission (burstiness).

use crate::scheduler::{IoRequest, IoScheduler};
use kml_collect::featurize::{Channel, WindowedFeatures};
use kml_core::dataset::Dataset;
use kml_core::model::{Model, ModelBuilder};
use kml_core::train::{deploy, TrainSpec};
use kml_core::Result;
use kml_lifecycle::{ArtifactKind, ClosedLoop, LoopModel, Subsystem};
use kml_telemetry::Registry;
use std::ops::{Deref, DerefMut};

/// Number of scheduler features.
pub const NUM_SCHED_FEATURES: usize = 4;

/// Streaming feature extractor over the request-arrival stream.
#[derive(Debug, Clone)]
pub struct SchedFeatures {
    /// Shared window engine: channel 0 is the inter-arrival gap (last
    /// arrival persists across windows), channel 1 the adjacency count,
    /// channel 2 the queue-depth sum.
    windows: WindowedFeatures,
    /// Sector-locality state for the adjacency signal; persists across
    /// windows like the last arrival does.
    last_end: Option<(u64, u64)>,
}

/// Channel index of the inter-arrival gap accumulator.
const CH_GAP: usize = 0;
/// Channel index of the adjacency count.
const CH_ADJACENT: usize = 1;
/// Channel index of the queue-depth sum.
const CH_DEPTH: usize = 2;

impl Default for SchedFeatures {
    fn default() -> Self {
        SchedFeatures {
            windows: WindowedFeatures::new(vec![
                Channel::persistent_gap(),
                Channel::window_sum(),
                Channel::window_sum(),
            ]),
            last_end: None,
        }
    }
}

impl SchedFeatures {
    /// Creates an empty extractor.
    pub fn new() -> Self {
        SchedFeatures::default()
    }

    /// Folds one submitted request (with the queue depth at submission).
    pub fn push(&mut self, req: &IoRequest, queue_depth: usize) {
        self.windows.push_u64(CH_GAP, req.arrival_ns);
        if let Some((inode, end)) = self.last_end {
            // Local in either direction counts: the elevator will sort and
            // merge anything within one burst span.
            const LOCALITY_PAGES: u64 = 256;
            if inode == req.inode && req.page.abs_diff(end) <= LOCALITY_PAGES {
                self.windows.push_u64(CH_ADJACENT, 1);
            }
        }
        self.last_end = Some((req.inode, req.page + req.npages));
        self.windows.push_u64(CH_DEPTH, queue_depth as u64);
        self.windows.record();
    }

    /// Requests folded into the current window.
    pub fn count(&self) -> u64 {
        self.windows.window_count()
    }

    /// Closes the window and returns `[count, mean_gap, adjacency, depth]`.
    pub fn roll_window(&mut self) -> [f64; NUM_SCHED_FEATURES] {
        let features = [
            self.windows.window_count() as f64,
            self.windows.mean(CH_GAP),
            self.windows.mean(CH_ADJACENT),
            self.windows.mean(CH_DEPTH),
        ];
        self.windows.roll();
        features
    }
}

/// One entry of the tuner's decision log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedDecision {
    /// Arrival time of the request that closed the window, ns.
    pub time_ns: u64,
    /// Predicted traffic class.
    pub class: usize,
    /// Batch wait applied, ns.
    pub batch_wait_ns: u64,
    /// Generation of the model that took the decision (1 until the first
    /// lifecycle swap).
    pub generation: u64,
}

/// The scheduler half of the loop: request-stream featurizer, class →
/// batch-wait policy, and the batching-window actuator. There is no
/// tracepoint ring to drain and no global clock hook: requests are folded
/// as [`SchedTuner::on_request`] hands them over, windows are
/// count-based, and the loop's clock is the last request's arrival time.
#[derive(Debug)]
pub struct SchedLoop {
    /// Batch wait per class: 0 = latency-sensitive, 1 = mergeable.
    policy_ns: [u64; 2],
    features: SchedFeatures,
    window_requests: u64,
    last_arrival_ns: u64,
}

impl SchedLoop {
    fn fold(&mut self, req: &IoRequest, queue_depth: usize) {
        self.features.push(req, queue_depth);
        self.window_requests += 1;
        self.last_arrival_ns = req.arrival_ns;
    }
}

impl Subsystem for SchedLoop {
    type World = IoScheduler;
    type Features = [f64; NUM_SCHED_FEATURES];
    type Knob = u64;
    type Decision = SchedDecision;

    const KIND: ArtifactKind = ArtifactKind::Iosched;
    const METRIC_PREFIX: &'static str = "iosched.loop";

    fn classes(&self) -> usize {
        self.policy_ns.len()
    }

    /// The scheduler keeps no registry a loop could bind to.
    fn registry(&mut self, _sched: &IoScheduler) -> Registry {
        Registry::noop()
    }

    fn collect(&mut self, _sched: &mut IoScheduler) {}

    fn records_dropped(&self) -> u64 {
        0
    }

    fn window_closed(&mut self, _sched: &IoScheduler) -> bool {
        let closed = self.window_requests >= SchedTuner::WINDOW_REQUESTS;
        if closed {
            self.window_requests = 0;
        }
        closed
    }

    fn roll(&mut self, _sched: &IoScheduler) -> [f64; NUM_SCHED_FEATURES] {
        self.features.roll_window()
    }

    fn knob_for(&self, class: usize) -> u64 {
        self.policy_ns[class.min(self.policy_ns.len() - 1)]
    }

    fn current_knob(&self, sched: &IoScheduler) -> u64 {
        sched.config().batch_wait_ns
    }

    /// Every window's prediction re-tunes the batching window at once.
    fn confirmed(&self, _target: u64, _current: u64, _repeated: bool) -> bool {
        true
    }

    fn actuate(&mut self, sched: &mut IoScheduler, wait_ns: u64) {
        sched.set_batch_wait_ns(wait_ns);
    }

    fn decision(
        &self,
        _sched: &IoScheduler,
        class: usize,
        batch_wait_ns: u64,
        generation: u64,
    ) -> SchedDecision {
        SchedDecision {
            time_ns: self.last_arrival_ns,
            class,
            batch_wait_ns,
            generation,
        }
    }
}

/// The scheduler tuner: a [`ClosedLoop`] over [`SchedLoop`]. Beyond the
/// per-request entry points below, the loop API (`predict_active`,
/// `apply_class`, `decisions`, the model slot and the `LifecycleTarget`
/// swap point) is the core's, reached through `Deref`.
#[derive(Debug)]
pub struct SchedTuner(ClosedLoop<SchedLoop>);

impl Deref for SchedTuner {
    type Target = ClosedLoop<SchedLoop>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for SchedTuner {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl SchedTuner {
    /// Requests per inference window (count-based, since the scheduler has
    /// no global clock hook).
    pub const WINDOW_REQUESTS: u64 = 128;

    /// Wraps a classifier with the class → batch-wait policy. With
    /// [`LoopModel::Remote`], inference is served by the fleet's shared
    /// model server, which drives [`Self::poll_request`] and `apply_class`
    /// directly; calling [`Self::on_request`] on such a tuner is a
    /// deployment error.
    pub fn new(model: LoopModel, policy_ns: [u64; 2]) -> SchedTuner {
        let subsystem = SchedLoop {
            policy_ns,
            features: SchedFeatures::new(),
            window_requests: 0,
            last_arrival_ns: 0,
        };
        SchedTuner(ClosedLoop::new(subsystem, model))
    }

    /// Trains the classifier from synthetic labeled windows of the two
    /// traffic patterns and returns the deployed f32 network (round-tripped
    /// through the model file, like the readahead model).
    ///
    /// # Errors
    ///
    /// Propagates dataset/training errors.
    pub fn train_model(seed: u64) -> Result<Model<f32>> {
        deploy(&Self::spec(seed).train(&Self::training_windows(seed)?)?.0)
    }

    /// The classifier's recipe: 4 → 10 → σ → 2 seeded with `seed`, SGD at
    /// lr 0.05 / momentum 0.9 for 200 epochs of shuffled mini-batches
    /// drawn from `seed ^ 0x10`.
    pub fn spec(seed: u64) -> TrainSpec {
        TrainSpec {
            topology: ModelBuilder::new(NUM_SCHED_FEATURES)
                .linear(10)
                .sigmoid()
                .linear(2)
                .seed(seed),
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            shuffle: Some(seed ^ 0x10),
        }
    }

    /// Trains the classifier and wraps it with the policy.
    ///
    /// # Errors
    ///
    /// Propagates dataset/training errors.
    pub fn train(policy_ns: [u64; 2], seed: u64) -> Result<SchedTuner> {
        let model = LoopModel::NeuralNet(Box::new(Self::train_model(seed)?));
        Ok(Self::new(model, policy_ns))
    }

    /// Generates labeled feature windows by running both traffic patterns
    /// against a throwaway scheduler.
    fn training_windows(seed: u64) -> Result<Dataset> {
        use crate::scheduler::SchedulerConfig;
        use crate::workload::{run_sched_workload, SchedWorkload};
        use kernel_sim::DeviceProfile;

        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (class, workload) in [
            SchedWorkload::DependentRandom,
            SchedWorkload::MergeableBurst,
        ]
        .into_iter()
        .enumerate()
        {
            for run_seed in [seed, seed + 1] {
                let mut sched =
                    IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
                let mut fx = SchedFeatures::new();
                let mut in_window = 0u64;
                run_sched_workload(&mut sched, workload, 2_048, run_seed, |s, req| {
                    fx.push(req, s.queued());
                    in_window += 1;
                    if in_window >= Self::WINDOW_REQUESTS {
                        rows.push(fx.roll_window().to_vec());
                        labels.push(class);
                        in_window = 0;
                    }
                });
            }
        }
        Dataset::from_rows(&rows, &labels)
    }

    /// The per-request hook: folds the request and, once per window,
    /// infers and re-tunes the batching window.
    ///
    /// # Errors
    ///
    /// Propagates model prediction failures, and rejects local inference
    /// on a [`LoopModel::Remote`] tuner.
    pub fn on_request(&mut self, sched: &mut IoScheduler, req: &IoRequest) -> Result<()> {
        self.0.subsystem_mut().fold(req, sched.queued());
        self.0.on_op(sched)
    }

    /// Folds one request and, when the count-based window fills, rolls and
    /// returns the window's feature vector.
    ///
    /// The inference-free half of [`Self::on_request`]: the fleet's shared
    /// model server batches the returned vectors across tenants and routes
    /// each prediction back through `apply_class`. Nothing observes the
    /// scheduler between the two calls, so the split loop is bit-identical
    /// to the fused one.
    pub fn poll_request(
        &mut self,
        sched: &mut IoScheduler,
        req: &IoRequest,
    ) -> Option<[f64; NUM_SCHED_FEATURES]> {
        self.0.subsystem_mut().fold(req, sched.queued());
        self.0.poll_window(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use crate::workload::{run_sched_workload, SchedWorkload, SchedWorkloadReport};
    use kernel_sim::DeviceProfile;
    use kml_lifecycle::{ArtifactError, LifecycleTarget};

    #[test]
    fn features_separate_the_two_patterns() {
        let collect = |workload| {
            let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
            let mut fx = SchedFeatures::new();
            let mut windows: Vec<[f64; 4]> = Vec::new();
            run_sched_workload(&mut sched, workload, 1_024, 3, |s, req| {
                fx.push(req, s.queued());
                if fx.count() >= 128 {
                    windows.push(fx.roll_window());
                }
            });
            windows
        };
        let random = collect(SchedWorkload::DependentRandom);
        let burst = collect(SchedWorkload::MergeableBurst);
        assert!(!random.is_empty() && !burst.is_empty());
        let adj = |ws: &[[f64; 4]]| ws.iter().map(|w| w[2]).sum::<f64>() / ws.len() as f64;
        let depth = |ws: &[[f64; 4]]| ws.iter().map(|w| w[3]).sum::<f64>() / ws.len() as f64;
        assert!(
            adj(&burst) > adj(&random) + 0.2,
            "adjacency: burst {:.2} vs random {:.2}",
            adj(&burst),
            adj(&random)
        );
        assert!(depth(&burst) > depth(&random));
    }

    fn tuned_run(workload: SchedWorkload) -> SchedWorkloadReport {
        let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
        let mut tuner = SchedTuner::train([0, 150_000], 5).expect("training succeeds");
        run_sched_workload(&mut sched, workload, 4_096, 11, |s, req| {
            tuner.on_request(s, req).expect("tuner survives");
        })
    }

    fn static_run(workload: SchedWorkload, wait: u64) -> SchedWorkloadReport {
        let mut sched = IoScheduler::new(
            DeviceProfile::sata_ssd(),
            SchedulerConfig {
                batch_wait_ns: wait,
                max_batch: 256,
            },
        );
        run_sched_workload(&mut sched, workload, 4_096, 11, |_, _| {})
    }

    /// An untrained f32 net with `kind`'s input width, packaged as `kind`.
    fn artifact(kind: ArtifactKind, seed: u64, classes: usize) -> Vec<u8> {
        let mut m = ModelBuilder::new(kind.feature_names().len())
            .linear(10)
            .sigmoid()
            .linear(classes)
            .seed(seed)
            .build::<f32>()
            .unwrap();
        kml_lifecycle::save_model(kind, &mut m).unwrap()
    }

    #[test]
    fn lifecycle_swap_shadow_and_atomic_failure() {
        let mut trained = SchedTuner::train_model(5).expect("training succeeds");
        let active = kml_lifecycle::save_model(ArtifactKind::Iosched, &mut trained).unwrap();
        // Installs the trained classifier as generation 2 and, optionally,
        // stages an untrained shadow; returns the tuner, the scheduler and
        // the run's decision log.
        let run = |shadow: bool| {
            let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
            let mut tuner = SchedTuner::new(LoopModel::Remote, [0, 150_000]);
            assert_eq!(tuner.model_generation(), 1);
            tuner.install_artifact(&active, 2).unwrap();
            assert_eq!(tuner.model_generation(), 2);
            if shadow {
                tuner
                    .stage_shadow_artifact(&artifact(ArtifactKind::Iosched, 8, 2))
                    .unwrap();
            }
            run_sched_workload(&mut sched, SchedWorkload::Phased, 2_048, 11, |s, req| {
                tuner.on_request(s, req).expect("tuner survives");
            });
            let decisions = tuner.decisions().to_vec();
            (tuner, sched, decisions)
        };
        let (_, plain_sched, plain) = run(false);
        let (mut tuner, sched, shadowed) = run(true);

        // The staged shadow saw every window and never moved the knob.
        assert_eq!(shadowed.len() as u64, 2_048 / SchedTuner::WINDOW_REQUESTS);
        assert!(shadowed.iter().all(|d| d.generation == 2));
        assert_eq!(shadowed, plain);
        assert_eq!(sched.config(), plain_sched.config());
        let stats = LifecycleTarget::shadow_stats(&tuner);
        assert_eq!(stats.windows, shadowed.len() as u64);
        assert_eq!(stats.errors, 0);
        assert!(
            stats.agreements < stats.windows,
            "the shadow never disagreed"
        );

        // Another loop's artifact and a 3-class artifact are refused
        // atomically: generation, knob and staged shadow all untouched.
        let wait_before = sched.config().batch_wait_ns;
        let err = tuner
            .install_artifact(&artifact(ArtifactKind::Readahead, 9, 2), 3)
            .unwrap_err();
        assert!(matches!(err, ArtifactError::KindMismatch { .. }), "{err}");
        let err = tuner
            .install_artifact(&artifact(ArtifactKind::Iosched, 9, 3), 3)
            .unwrap_err();
        assert!(matches!(
            err,
            ArtifactError::ClassMismatch {
                artifact: 3,
                policy: 2
            }
        ));
        assert_eq!(tuner.model_generation(), 2);
        assert_eq!(sched.config().batch_wait_ns, wait_before);
        assert!(tuner.shadow_staged());
        assert_eq!(LifecycleTarget::shadow_stats(&tuner), stats);
    }

    /// The outputs of the inline featurization this module used before the
    /// shared `kml_collect::featurize` engine existed, frozen as golden
    /// vectors: two whole windows, and the FNV-1a of every feature's bits
    /// over all forty, as that code computed them before it was deleted.
    #[test]
    fn shared_engine_reproduces_the_frozen_legacy_featurization() {
        let mut new = SchedFeatures::new();
        let mut digest = kml_platform::bytes::Fnv1a::new();
        let mut x = 0x5EEDu64;
        let mut now = 0u64;
        for window in 0..40u64 {
            let n = (window * 11) % 17; // includes empty windows
            for _ in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                now += x % 50_000;
                let req = IoRequest {
                    inode: 1 + x % 3,
                    page: (x >> 8) % 100_000,
                    npages: 1 + x % 8,
                    write: x & 1 == 0,
                    arrival_ns: now,
                };
                new.push(&req, (x >> 16) as usize % 64);
            }
            let f = new.roll_window();
            let golden = match window {
                4 => [10.0, 27858.777777777777, 0.0, 20.9],
                39 => [4.0, 47410.0, 0.0, 27.75],
                _ => f,
            };
            assert_eq!(
                f.map(f64::to_bits),
                golden.map(f64::to_bits),
                "window {window}"
            );
            f.iter().for_each(|v| digest.fold_u64(v.to_bits()));
        }
        assert_eq!(digest.finish(), 0x4b70_085c_7540_1bf8);
    }

    /// The deployed classifier's encoded bytes, FNV-1a, recorded on the
    /// parent commit (672c8a3) before `Graph` became a chain.
    #[test]
    fn trained_model_matches_the_parent_commit() {
        let model = SchedTuner::train_model(5).expect("training succeeds");
        let bytes = kml_core::modelfile::encode(&model).unwrap();
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(&bytes),
            0x17fd_65bd_67bd_c9cf
        );
    }

    #[test]
    fn tuned_scheduler_tracks_the_best_static_config_per_pattern() {
        for workload in [
            SchedWorkload::DependentRandom,
            SchedWorkload::MergeableBurst,
        ] {
            let tuned = tuned_run(workload);
            let best_static = [0u64, 150_000]
                .into_iter()
                .map(|w| static_run(workload, w).requests_per_sec)
                .fold(f64::MIN, f64::max);
            assert!(
                tuned.requests_per_sec > 0.85 * best_static,
                "{workload}: tuned {:.0} vs best static {:.0}",
                tuned.requests_per_sec,
                best_static
            );
        }
    }

    #[test]
    fn tuned_scheduler_beats_both_static_configs_on_phased_traffic() {
        // The adaptive story: when the pattern alternates, neither static
        // setting can win both phases.
        let tuned = tuned_run(SchedWorkload::Phased);
        let eager = static_run(SchedWorkload::Phased, 0);
        let patient = static_run(SchedWorkload::Phased, 150_000);
        assert!(
            tuned.requests_per_sec >= eager.requests_per_sec.min(patient.requests_per_sec),
            "tuned {:.0} vs eager {:.0} / patient {:.0}",
            tuned.requests_per_sec,
            eager.requests_per_sec,
            patient.requests_per_sec
        );
    }
}
