//! The one closed-loop core (paper §3.3 execution flow).
//!
//! "(1) KML starts collecting data ...; (2) the collected data is
//! processed and normalized ...; (3) features are passed to the KML engine
//! for inference; (4) KML's engine ... generates predictions; and (5)
//! finally, the KML application takes actions based on the predictions
//! just made." §6 says the same flow should carry over to other
//! subsystems, so it exists once: [`ClosedLoop`] owns the flow and every
//! piece of state that is the same in every loop — the generation-tagged
//! model slot with its shadow lane, the hysteresis memory, the stage and
//! decision telemetry, the decision log, and the [`LifecycleTarget`] swap
//! point — while a [`Subsystem`] supplies what differs: how tracepoints
//! become a feature window, which knob value a class maps to, when a
//! prediction is confirmed, and how the knob is moved.
//!
//! `readahead::KmlTuner`, `netfs::RsizeTuner` and `iosched::SchedTuner`
//! are three `Subsystem` impls over this core. It is generic, never
//! `dyn`: each loop is monomorphised, and nothing here allocates per
//! window beyond the decision log's amortised growth.

use crate::artifact::{load_model_for, ArtifactError, ArtifactKind};
use crate::controller::LifecycleTarget;
use crate::shadow::ShadowStats;
use kml_core::dtree::DecisionTree;
use kml_core::model::Model;
use kml_core::{KmlError, Result};
use kml_telemetry::{Counter, Gauge, Registry, Span, StageSet};
use std::fmt::Debug;

/// Which trained model drives a loop.
#[derive(Debug)]
pub enum LoopModel {
    /// A neural-network classifier (f32, as deployed in-kernel).
    NeuralNet(Box<Model<f32>>),
    /// A decision tree (the paper's §4 comparison; the DST harness uses
    /// deterministic stub trees).
    Tree(DecisionTree),
    /// Inference is served by a shared fleet model server: the tenant's
    /// harness calls [`ClosedLoop::poll_window`] /
    /// [`ClosedLoop::apply_class`] around a batched remote prediction, so
    /// local `predict` is a deployment error.
    Remote,
}

impl LoopModel {
    /// Decodes a model-file blob into a deployable f32 network — the
    /// hand-off format for training once and sharing across parallel runs.
    ///
    /// # Errors
    ///
    /// Propagates model-file decoding errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<LoopModel> {
        Ok(LoopModel::NeuralNet(Box::new(kml_core::modelfile::decode(
            bytes,
        )?)))
    }

    /// Predicts the class for a feature vector.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the underlying model, and
    /// rejects local prediction on [`LoopModel::Remote`].
    pub fn predict(&mut self, features: &[f64]) -> Result<usize> {
        match self {
            LoopModel::NeuralNet(m) => m.predict(features),
            LoopModel::Tree(t) => t.predict(features),
            LoopModel::Remote => Err(KmlError::InvalidConfig(
                "remote-served tuner has no local model".into(),
            )),
        }
    }
}

/// The inference cadence on a simulated clock: fixed-length windows, the
/// first one opening at the first observation.
#[derive(Debug, Clone, Copy)]
pub struct TimeWindow {
    window_ns: u64,
    next_window_end: Option<u64>,
}

impl TimeWindow {
    /// A clock of `window_ns`-long windows, clamped to at least 1 ns (a
    /// zero-length window has no next boundary to move to).
    pub fn new(window_ns: u64) -> Self {
        TimeWindow {
            window_ns: window_ns.max(1),
            next_window_end: None,
        }
    }

    /// Whether the open window has ended by `now_ns`. When it has, the
    /// clock moves to the first boundary after `now_ns`, so a jump over
    /// any number of windows closes exactly one.
    pub fn closed(&mut self, now_ns: u64) -> bool {
        let end = *self.next_window_end.get_or_insert(now_ns + self.window_ns);
        if now_ns < end {
            return false;
        }
        let skipped = (now_ns - end) / self.window_ns + 1;
        self.next_window_end = Some(end + skipped * self.window_ns);
        true
    }
}

/// What one storage subsystem supplies to the loop: its featurizer, its
/// class → knob table, its confirmation rule and its actuator.
pub trait Subsystem: Debug {
    /// The simulated world the loop observes and actuates.
    type World;
    /// One window's feature vector.
    type Features: AsRef<[f64]>;
    /// The tuned parameter's value.
    type Knob: Copy + PartialEq + Debug;
    /// One entry of the decision log.
    type Decision: Debug;

    /// The `.kmlm` artifact kind this loop's models are packaged as.
    const KIND: ArtifactKind;
    /// Metric name prefix for the loop's stage and decision metrics.
    const METRIC_PREFIX: &'static str;

    /// Number of classes the class → knob table covers.
    fn classes(&self) -> usize;

    /// The registry the loop's metrics bind to, asked once on the first
    /// poll (a no-op registry yields no-op handles). A subsystem with
    /// metrics of its own registers them here.
    fn registry(&mut self, world: &Self::World) -> Registry;

    /// Step 1: drains pending tracepoints into the featurizer.
    fn collect(&mut self, world: &mut Self::World);

    /// Tracepoint records lost to ring-buffer overwrites so far.
    fn records_dropped(&self) -> u64;

    /// Whether a window has just closed with traffic in it. Idle windows
    /// are skipped entirely — nothing to learn from — but still move the
    /// subsystem's clock.
    fn window_closed(&mut self, world: &Self::World) -> bool;

    /// Step 2: closes the window and returns its feature vector.
    fn roll(&mut self, world: &Self::World) -> Self::Features;

    /// The knob value the class → knob table maps `class` to (clamped to
    /// the table's last entry).
    fn knob_for(&self, class: usize) -> Self::Knob;

    /// The knob value in force.
    fn current_knob(&self, world: &Self::World) -> Self::Knob;

    /// The confirmation rule: whether moving from `current` to `target`
    /// may happen now. `repeated` is true when the previous window
    /// predicted the same class.
    fn confirmed(&self, target: Self::Knob, current: Self::Knob, repeated: bool) -> bool;

    /// Step 5: moves the knob.
    fn actuate(&mut self, world: &mut Self::World, knob: Self::Knob);

    /// Builds the log entry for a decision taken now.
    fn decision(
        &self,
        world: &Self::World,
        class: usize,
        knob: Self::Knob,
        generation: u64,
    ) -> Self::Decision;

    /// Called once per decision, after any actuation, for metrics the
    /// subsystem keeps beyond the core's.
    fn observe(&self, _class: usize, _knob: Self::Knob) {}
}

/// Loop telemetry: wall-clock span per stage (collect / featurize / infer
/// / actuate — the in-loop counterpart of the paper's Table 3 overhead
/// numbers) plus decision accounting, under [`Subsystem::METRIC_PREFIX`].
#[derive(Debug)]
struct LoopTelemetry {
    stages: StageSet,
    decision_total: Counter,
    actuation_total: Counter,
    ring_dropped: Gauge,
}

impl LoopTelemetry {
    fn noop() -> Self {
        LoopTelemetry {
            stages: StageSet::noop(),
            decision_total: Counter::noop(),
            actuation_total: Counter::noop(),
            ring_dropped: Gauge::noop(),
        }
    }

    fn bind(registry: &Registry, p: &str) -> Self {
        LoopTelemetry {
            stages: StageSet::register(registry, p),
            decision_total: registry.counter(&format!("{p}.decision_total")),
            actuation_total: registry.counter(&format!("{p}.actuation_total")),
            ring_dropped: registry.gauge(&format!("{p}.ring_dropped_total")),
        }
    }
}

/// The closed loop over one [`Subsystem`]. See the module docs.
#[derive(Debug)]
pub struct ClosedLoop<S: Subsystem> {
    subsystem: S,
    model: LoopModel,
    /// Generation of the active model (1 until the first lifecycle swap).
    model_generation: u64,
    /// Staged shadow candidate: infers on every window the active model
    /// sees, never actuates.
    shadow: Option<LoopModel>,
    shadow_stats: ShadowStats,
    /// The shadow's prediction for the window most recently returned by
    /// [`ClosedLoop::poll_window`], folded into the agreement stats by the
    /// matching [`ClosedLoop::apply_class`].
    pending_shadow_class: Option<usize>,
    /// Class predicted in the previous window (hysteresis memory).
    last_class: Option<usize>,
    decisions: Vec<S::Decision>,
    telemetry: LoopTelemetry,
    telemetry_bound: bool,
}

impl<S: Subsystem> ClosedLoop<S> {
    /// A loop over `subsystem`, driven by `model` as generation 1.
    pub fn new(subsystem: S, model: LoopModel) -> Self {
        ClosedLoop {
            subsystem,
            model,
            model_generation: 1,
            shadow: None,
            shadow_stats: ShadowStats::default(),
            pending_shadow_class: None,
            last_class: None,
            decisions: Vec::new(),
            telemetry: LoopTelemetry::noop(),
            telemetry_bound: false,
        }
    }

    /// The subsystem half of the loop.
    pub fn subsystem(&self) -> &S {
        &self.subsystem
    }

    /// Mutable access to the subsystem half of the loop.
    pub fn subsystem_mut(&mut self) -> &mut S {
        &mut self.subsystem
    }

    /// The hook invoked after every operation on the world: drains
    /// tracepoints and, at window boundaries, infers and actuates.
    ///
    /// # Errors
    ///
    /// Propagates model prediction failures (dimension mismatch, or a
    /// [`LoopModel::Remote`] loop driven locally — deployment bugs, not
    /// runtime conditions); no decision is logged for that window.
    pub fn on_op(&mut self, world: &mut S::World) -> Result<()> {
        if let Some(features) = self.poll_window(world) {
            let class = self.predict_active(&features)?;
            self.apply_class(world, class);
        }
        Ok(())
    }

    /// Runs the *active* model on a window's feature vector (inside the
    /// inference span), without actuating. Continual-learning harnesses
    /// use this between [`Self::poll_window`] and [`Self::apply_class`]
    /// so drift detection and reservoir sampling can observe the window
    /// before the decision lands.
    ///
    /// # Errors
    ///
    /// Propagates model prediction failures, exactly like
    /// [`Self::on_op`].
    pub fn predict_active(&mut self, features: &S::Features) -> Result<usize> {
        // The span owns a cloned handle, so timing holds no borrow of
        // self across the model call.
        let span = Span::start(&self.telemetry.stages.infer_ns);
        let class = self.model.predict(features.as_ref())?;
        span.finish();
        Ok(class)
    }

    /// Drains tracepoints and, when a window has closed with traffic in
    /// it, rolls and returns the window's feature vector.
    ///
    /// This is `on_op` with the inference step cut out: the caller owns
    /// what happens between `poll_window` returning `Some(features)` and
    /// the matching [`Self::apply_class`] call. The fleet's shared model
    /// server uses exactly that seam to batch feature vectors from many
    /// tenants into one forward pass; because the simulated clock does not
    /// advance between the two calls, the split loop is bit-identical to
    /// the fused `on_op` loop.
    pub fn poll_window(&mut self, world: &mut S::World) -> Option<S::Features> {
        if !self.telemetry_bound {
            let registry = self.subsystem.registry(world);
            self.telemetry = LoopTelemetry::bind(&registry, S::METRIC_PREFIX);
            self.telemetry_bound = true;
        }
        let subsystem = &mut self.subsystem;
        self.telemetry
            .stages
            .collect_ns
            .time(|| subsystem.collect(world));
        if !subsystem.window_closed(world) {
            return None;
        }
        let features = self
            .telemetry
            .stages
            .featurize_ns
            .time(|| subsystem.roll(world));
        if let Some(shadow) = &mut self.shadow {
            // Shadow inference on the exact window the active model will
            // see; the prediction is only recorded, never actuated.
            match shadow.predict(features.as_ref()) {
                Ok(class) => self.pending_shadow_class = Some(class),
                Err(_) => {
                    self.shadow_stats.errors += 1;
                    self.pending_shadow_class = None;
                }
            }
        }
        Some(features)
    }

    /// Applies a predicted class for the window most recently returned by
    /// [`Self::poll_window`]: confirmation, actuation, and decision
    /// logging (steps 4-5 of the §3.3 flow). An unconfirmed prediction is
    /// logged with the knob left where it was.
    pub fn apply_class(&mut self, world: &mut S::World, class: usize) {
        // Only a staged shadow leaves a pending class behind.
        if let Some(shadow_class) = self.pending_shadow_class.take() {
            self.shadow_stats.record(shadow_class == class);
        }
        let target = self.subsystem.knob_for(class);
        let current = self.subsystem.current_knob(world);
        let repeated = self.last_class == Some(class);
        self.last_class = Some(class);
        let knob = if self.subsystem.confirmed(target, current, repeated) {
            if target != current {
                let span = Span::start(&self.telemetry.stages.actuate_ns);
                self.subsystem.actuate(world, target);
                span.finish();
                self.telemetry.actuation_total.inc();
            }
            target
        } else {
            current
        };
        self.telemetry.decision_total.inc();
        self.telemetry
            .ring_dropped
            .set(self.subsystem.records_dropped());
        self.subsystem.observe(class, knob);
        let decision = self
            .subsystem
            .decision(world, class, knob, self.model_generation);
        self.decisions.push(decision);
    }

    /// Replaces the active model under an explicit generation tag. The
    /// hysteresis memory resets — the new model's first window should not
    /// be confirmed by its predecessor's last prediction.
    pub fn swap_model(&mut self, model: LoopModel, generation: u64) {
        self.model = model;
        self.model_generation = generation;
        self.last_class = None;
    }

    /// Stages a shadow candidate (replacing any previous one and resetting
    /// its stats). The active model and the knob are untouched.
    pub fn stage_shadow_model(&mut self, model: LoopModel) {
        self.set_shadow(Some(model));
    }

    /// Replaces the shadow lane as a whole: candidate, stats and the
    /// prediction pending for the window in flight.
    fn set_shadow(&mut self, shadow: Option<LoopModel>) {
        self.shadow = shadow;
        self.shadow_stats = ShadowStats::default();
        self.pending_shadow_class = None;
    }

    /// Whether a shadow candidate is staged.
    pub fn shadow_staged(&self) -> bool {
        self.shadow.is_some()
    }

    /// The active model's generation tag.
    pub fn model_generation(&self) -> u64 {
        self.model_generation
    }

    /// All decisions taken so far.
    pub fn decisions(&self) -> &[S::Decision] {
        &self.decisions
    }

    /// Tracepoint records lost to ring-buffer overwrites.
    pub fn records_dropped(&self) -> u64 {
        self.subsystem.records_dropped()
    }

    /// Decodes a `.kmlm` artifact of this loop's kind into a deployable
    /// model, cross-checking its class count against the subsystem's
    /// class → knob table.
    fn decode_artifact(&self, bytes: &[u8]) -> std::result::Result<LoopModel, ArtifactError> {
        let loaded = load_model_for::<f32>(bytes, S::KIND)?;
        if loaded.model.output_dim() != self.subsystem.classes() {
            return Err(ArtifactError::ClassMismatch {
                artifact: loaded.model.output_dim(),
                policy: self.subsystem.classes(),
            });
        }
        Ok(LoopModel::NeuralNet(Box::new(loaded.model)))
    }
}

impl<S: Subsystem> LifecycleTarget for ClosedLoop<S> {
    /// Atomic by construction: the artifact is fully decoded and verified
    /// before any loop state changes; a failed load leaves the model, the
    /// generation, and the knob exactly as they were.
    fn install_artifact(
        &mut self,
        bytes: &[u8],
        generation: u64,
    ) -> std::result::Result<(), ArtifactError> {
        let model = self.decode_artifact(bytes)?;
        self.swap_model(model, generation);
        Ok(())
    }

    fn stage_shadow_artifact(&mut self, bytes: &[u8]) -> std::result::Result<(), ArtifactError> {
        let model = self.decode_artifact(bytes)?;
        self.stage_shadow_model(model);
        Ok(())
    }

    fn clear_shadow(&mut self) {
        self.set_shadow(None);
    }

    fn generation(&self) -> u64 {
        self.model_generation
    }

    fn shadow_stats(&self) -> ShadowStats {
        self.shadow_stats
    }
}

/// A handle that dereferences to a swap point is itself one: the tuner
/// newtypes (`readahead::KmlTuner` and friends, which `Deref` to their
/// [`ClosedLoop`]), `Box<T>` and `&mut T` all pass wherever a
/// `T: LifecycleTarget` is asked for, so no generic call site needs
/// `&mut *tuner`.
impl<T> LifecycleTarget for T
where
    T: std::ops::DerefMut,
    T::Target: LifecycleTarget,
{
    fn install_artifact(
        &mut self,
        bytes: &[u8],
        generation: u64,
    ) -> std::result::Result<(), ArtifactError> {
        (**self).install_artifact(bytes, generation)
    }

    fn stage_shadow_artifact(&mut self, bytes: &[u8]) -> std::result::Result<(), ArtifactError> {
        (**self).stage_shadow_artifact(bytes)
    }

    fn clear_shadow(&mut self) {
        (**self).clear_shadow();
    }

    fn generation(&self) -> u64 {
        (**self).generation()
    }

    fn shadow_stats(&self) -> ShadowStats {
        (**self).shadow_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::save_model;
    use kml_core::dataset::Dataset;
    use kml_core::dtree::DecisionTreeConfig;
    use kml_core::model::ModelBuilder;

    const WINDOW_NS: u64 = 10;
    const POLICY: [u32; 2] = [10, 20];
    const INITIAL_KNOB: u32 = 15;

    /// A toy world: a clock, a knob, and samples waiting to be collected.
    #[derive(Debug)]
    struct Toy {
        now_ns: u64,
        knob: u32,
        samples: Vec<f64>,
        actuations: u32,
    }

    /// Features `[count, mean, 0, 0]` over the samples; two-window
    /// confirmation; `(time_ns, class, knob, generation)` decisions.
    #[derive(Debug)]
    struct ToyLoop {
        clock: TimeWindow,
        sum: f64,
        count: u64,
    }

    impl Subsystem for ToyLoop {
        type World = Toy;
        type Features = [f64; 4];
        type Knob = u32;
        type Decision = (u64, usize, u32, u64);

        const KIND: ArtifactKind = ArtifactKind::Iosched;
        const METRIC_PREFIX: &'static str = "toy.loop";

        fn classes(&self) -> usize {
            POLICY.len()
        }
        fn registry(&mut self, _: &Toy) -> Registry {
            Registry::noop()
        }
        fn collect(&mut self, world: &mut Toy) {
            for sample in world.samples.drain(..) {
                self.sum += sample;
                self.count += 1;
            }
        }
        fn records_dropped(&self) -> u64 {
            0
        }
        fn window_closed(&mut self, world: &Toy) -> bool {
            self.clock.closed(world.now_ns) && self.count > 0
        }
        fn roll(&mut self, _: &Toy) -> [f64; 4] {
            let features = [self.count as f64, self.sum / self.count as f64, 0.0, 0.0];
            (self.sum, self.count) = (0.0, 0);
            features
        }
        fn knob_for(&self, class: usize) -> u32 {
            POLICY[class.min(POLICY.len() - 1)]
        }
        fn current_knob(&self, world: &Toy) -> u32 {
            world.knob
        }
        fn confirmed(&self, _: u32, _: u32, repeated: bool) -> bool {
            repeated
        }
        fn actuate(&mut self, world: &mut Toy, knob: u32) {
            world.knob = knob;
            world.actuations += 1;
        }
        fn decision(
            &self,
            world: &Toy,
            class: usize,
            knob: u32,
            generation: u64,
        ) -> Self::Decision {
            (world.now_ns, class, knob, generation)
        }
    }

    /// A stub tree on the window mean: below 5 → `low`, above → `high`.
    fn tree(low: usize, high: usize) -> LoopModel {
        let rows = [0.0, 1.0, 9.0, 10.0].map(|mean| vec![1.0, mean, 0.0, 0.0]);
        let data = Dataset::from_rows(&rows, &[low, low, high, high]).unwrap();
        LoopModel::Tree(DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap())
    }

    /// A loop whose clock is already open at t = 0, and its world.
    fn toy(model: LoopModel) -> (ClosedLoop<ToyLoop>, Toy) {
        let subsystem = ToyLoop {
            clock: TimeWindow::new(WINDOW_NS),
            sum: 0.0,
            count: 0,
        };
        let mut world = Toy {
            now_ns: 0,
            knob: INITIAL_KNOB,
            samples: Vec::new(),
            actuations: 0,
        };
        let mut tuner = ClosedLoop::new(subsystem, model);
        tuner.on_op(&mut world).unwrap();
        (tuner, world)
    }

    /// One window of traffic with mean `sample`, closed by the clock.
    fn fill_window(world: &mut Toy, sample: f64) {
        world.samples.push(sample);
        world.now_ns += WINDOW_NS;
    }

    /// An untrained network packaged as `kind`.
    fn artifact(kind: ArtifactKind, classes: usize) -> Vec<u8> {
        let mut model = ModelBuilder::new(kind.feature_names().len())
            .linear(6)
            .sigmoid()
            .linear(classes)
            .seed(3)
            .build::<f32>()
            .unwrap();
        save_model(kind, &mut model).unwrap()
    }

    #[test]
    fn zero_length_window_is_clamped() {
        let mut clock = TimeWindow::new(0);
        assert!(!clock.closed(5));
        assert!(clock.closed(1_000_000_000_000));
        assert!(!clock.closed(1_000_000_000_000));
        assert!(clock.closed(1_000_000_000_001));
    }

    #[test]
    fn clock_jump_over_idle_windows_yields_at_most_one_decision() {
        let (mut tuner, mut world) = toy(tree(0, 1));
        world.samples.push(10.0);
        world.now_ns += 1_000 * WINDOW_NS;
        tuner.on_op(&mut world).unwrap();
        assert_eq!(tuner.decisions().len(), 1);
        // Still inside the window the jump landed in: nothing more closes.
        world.samples.push(10.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(tuner.decisions().len(), 1);
        // A jump with no traffic in it decides nothing, and the idle
        // windows are not owed later.
        let (mut idle, mut world) = toy(tree(0, 1));
        world.now_ns += 1_000 * WINDOW_NS;
        idle.on_op(&mut world).unwrap();
        world.samples.push(10.0);
        idle.on_op(&mut world).unwrap();
        assert!(idle.decisions().is_empty());
    }

    #[test]
    fn split_loop_logs_the_same_decisions_as_fused_on_op() {
        let (mut fused, mut fused_world) = toy(tree(0, 1));
        let (mut split, mut split_world) = toy(tree(0, 1));
        for sample in [0.0, 10.0, 10.0, 10.0, 0.0, 10.0, 0.0, 0.0] {
            fill_window(&mut fused_world, sample);
            fused.on_op(&mut fused_world).unwrap();
            fill_window(&mut split_world, sample);
            let features = split.poll_window(&mut split_world).expect("window closed");
            let class = split.predict_active(&features).unwrap();
            split.apply_class(&mut split_world, class);
        }
        assert_eq!(fused.decisions().len(), 8);
        assert_eq!(fused.decisions(), split.decisions());
        assert_eq!(fused_world.knob, split_world.knob);
        assert_eq!(fused_world.actuations, split_world.actuations);
    }

    #[test]
    fn shadow_never_actuates_and_its_counts_are_exact() {
        // Active model: every window is class 0. Shadow: the opposite.
        let (mut tuner, mut world) = toy(tree(0, 0));
        tuner.stage_shadow_model(tree(1, 1));
        for _ in 0..6 {
            fill_window(&mut world, 10.0);
            tuner.on_op(&mut world).unwrap();
        }
        assert_eq!(world.knob, POLICY[0], "the knob followed the shadow");
        assert_eq!(world.actuations, 1);
        let disagreeing = ShadowStats {
            windows: 6,
            agreements: 0,
            errors: 0,
        };
        assert_eq!(tuner.shadow_stats(), disagreeing);

        // Restaging resets the stats; an agreeing shadow counts agreements.
        tuner.stage_shadow_model(tree(0, 0));
        fill_window(&mut world, 10.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(tuner.shadow_stats().windows, 1);
        assert_eq!(tuner.shadow_stats().agreements, 1);

        // A shadow that cannot consume the window is an error, not a window.
        let narrow = ModelBuilder::new(2).linear(2).build::<f32>().unwrap();
        tuner.stage_shadow_model(LoopModel::NeuralNet(Box::new(narrow)));
        for _ in 0..3 {
            fill_window(&mut world, 10.0);
            tuner.on_op(&mut world).unwrap();
        }
        let failing = ShadowStats {
            windows: 0,
            agreements: 0,
            errors: 3,
        };
        assert_eq!(tuner.shadow_stats(), failing);
        assert_eq!(world.actuations, 1);

        tuner.clear_shadow();
        assert!(!tuner.shadow_staged());
        assert_eq!(tuner.shadow_stats(), ShadowStats::default());
    }

    #[test]
    fn failed_install_leaves_model_generation_knob_and_shadow_untouched() {
        let (mut tuner, mut world) = toy(tree(1, 1));
        tuner.stage_shadow_model(tree(1, 1));
        for _ in 0..2 {
            fill_window(&mut world, 0.0);
            tuner.on_op(&mut world).unwrap();
        }
        assert_eq!(world.knob, POLICY[1]);
        let stats = tuner.shadow_stats();

        let mut corrupt = artifact(ArtifactKind::Iosched, 2);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let wrong_kind = artifact(ArtifactKind::Readahead, 2);
        let wrong_classes = artifact(ArtifactKind::Iosched, 3);
        for bytes in [&corrupt, &wrong_kind, &wrong_classes] {
            assert!(tuner.install_artifact(bytes, 9).is_err());
            assert!(tuner.stage_shadow_artifact(bytes).is_err());
        }
        assert!(matches!(
            tuner.install_artifact(&wrong_kind, 9),
            Err(ArtifactError::KindMismatch { .. })
        ));
        assert!(matches!(
            tuner.install_artifact(&wrong_classes, 9),
            Err(ArtifactError::ClassMismatch {
                artifact: 3,
                policy: 2
            })
        ));
        assert_eq!(tuner.model_generation(), 1);
        assert_eq!(world.knob, POLICY[1]);
        assert!(tuner.shadow_staged());
        assert_eq!(tuner.shadow_stats(), stats);
        // The old model still serves, under its old generation.
        fill_window(&mut world, 0.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(tuner.decisions().last(), Some(&(30, 1, POLICY[1], 1)));

        // A good artifact does install.
        tuner
            .install_artifact(&artifact(ArtifactKind::Iosched, 2), 2)
            .unwrap();
        assert_eq!(tuner.model_generation(), 2);
    }

    #[test]
    fn swap_model_resets_the_hysteresis_memory() {
        let (mut tuner, mut world) = toy(tree(0, 1));
        fill_window(&mut world, 10.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(world.knob, INITIAL_KNOB, "one window is not confirmation");
        // Without the swap the next class-1 window would confirm.
        tuner.swap_model(tree(0, 1), 2);
        fill_window(&mut world, 10.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(world.knob, INITIAL_KNOB, "confirmed by its predecessor");
        fill_window(&mut world, 10.0);
        tuner.on_op(&mut world).unwrap();
        assert_eq!(world.knob, POLICY[1]);
        let generations: Vec<u64> = tuner.decisions().iter().map(|d| d.3).collect();
        assert_eq!(generations, [1, 2, 2]);
    }

    #[test]
    fn remote_loop_driven_by_on_op_errors_and_logs_no_decision() {
        let (mut tuner, mut world) = toy(LoopModel::Remote);
        fill_window(&mut world, 10.0);
        assert!(tuner.on_op(&mut world).is_err());
        assert!(tuner.decisions().is_empty());
        assert_eq!(world.knob, INITIAL_KNOB);
        // The served path still works on the same loop.
        fill_window(&mut world, 10.0);
        assert!(tuner.poll_window(&mut world).is_some());
        tuner.apply_class(&mut world, 1);
        assert_eq!(tuner.decisions().len(), 1);
    }
}
