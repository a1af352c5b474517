//! The closed-loop state machine: window stream in, earned promotions
//! out.
//!
//! Per observation window the controller:
//!
//! 1. offers the window's features (plus a deterministic heuristic
//!    label) to the [`Reservoir`];
//! 2. feeds the *workload* channels — everything except the actuated
//!    knob — to the [`DriftDetector`]. Feeding the knob back in would
//!    make every promotion look like drift and re-trigger forever;
//! 3. on a sustained-shift trigger, retrains a candidate from the
//!    reservoir on the calling thread and stages it as the lifecycle
//!    shadow — **never** installs it. Only the watchdog promotes, after
//!    its K clean windows;
//! 4. forwards the window's throughput to the [`LifecycleController`],
//!    which promotes the candidate once earned or rolls back on
//!    regression — and on rollback any still-staged candidate is
//!    discarded rather than left to promote later against a model that
//!    just proved unstable.
//!
//! Drift triggers and retrains go into the lifecycle controller's one
//! event log, beside its promotions, rollbacks and discards.
//!
//! Everything downstream of the window stream is deterministic: same
//! windows in, same drifts, same candidate bytes, same promotion
//! schedule — at any worker count.

use kml_lifecycle::{
    ArtifactError, LifecycleController, LifecycleTarget, LoopEvent, WatchdogConfig,
};

use crate::drift::{DriftConfig, DriftDetector};
use crate::reservoir::{Reservoir, RESERVOIR_DIM};
use crate::retrain::{train_candidate, RetrainSpec};

/// How many leading feature channels the drift detector watches. The
/// trailing channel of every loop's window vector is the actuated knob
/// (readahead KiB / rsize KiB), which shifts *because of* promotion —
/// watching it would turn every promotion into fresh "drift".
pub const DRIFT_CHANNELS: usize = RESERVOIR_DIM - 1;

/// Everything the loop needs configured up front.
#[derive(Debug, Clone, Copy)]
pub struct ContinualConfig {
    /// Drift-detector tuning.
    pub drift: DriftConfig,
    /// Reservoir capacity in samples.
    pub reservoir_capacity: usize,
    /// Seed for reservoir priorities (and folded into retrain inits).
    pub seed: u64,
    /// Minimum retained samples before a drift trigger may retrain; a
    /// trigger below this is recorded but trains nothing.
    pub min_samples: usize,
    /// Watchdog thresholds for shadow promotion / regression rollback.
    pub watchdog: WatchdogConfig,
    /// What to train when drift fires.
    pub spec: RetrainSpec,
}

/// Continual-loop failures.
#[derive(Debug)]
pub enum ContinualError {
    /// Artifact packaging/staging/install failed.
    Artifact(ArtifactError),
    /// Candidate training failed.
    Train(String),
}

impl std::fmt::Display for ContinualError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContinualError::Artifact(e) => write!(f, "artifact: {e}"),
            ContinualError::Train(e) => write!(f, "train: {e}"),
        }
    }
}

impl std::error::Error for ContinualError {}

impl From<ArtifactError> for ContinualError {
    fn from(e: ArtifactError) -> Self {
        ContinualError::Artifact(e)
    }
}

/// What one window did to the loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// A sustained-shift trigger fired this window.
    pub drifted: bool,
    /// A candidate was trained and staged this window.
    pub retrained: bool,
    /// A promote/rollback the watchdog executed this window.
    pub lifecycle: Option<LoopEvent>,
}

/// The closed loop. See the module docs.
pub struct ContinualController {
    cfg: ContinualConfig,
    drift: DriftDetector,
    reservoir: Reservoir,
    lifecycle: LifecycleController,
    retrains: u64,
}

impl ContinualController {
    /// Installs `initial` into `target` as generation 1 and arms the
    /// loop.
    ///
    /// # Errors
    ///
    /// Propagates the initial install; the target is unchanged on
    /// failure.
    pub fn new<T: LifecycleTarget>(
        cfg: ContinualConfig,
        target: &mut T,
        initial: Vec<u8>,
    ) -> Result<Self, ContinualError> {
        let lifecycle = LifecycleController::new(cfg.watchdog, target, initial)?;
        Ok(ContinualController {
            drift: DriftDetector::new(DRIFT_CHANNELS, cfg.drift),
            reservoir: Reservoir::new(cfg.reservoir_capacity, cfg.seed),
            lifecycle,
            cfg,
            retrains: 0,
        })
    }

    /// Folds one observation window through the whole loop: reservoir →
    /// drift → (maybe) retrain+stage → watchdog. `label` is the
    /// deterministic heuristic class for this window (the training
    /// oracle); `throughput` is the loop throughput the watchdog judges.
    ///
    /// # Errors
    ///
    /// Propagates candidate training/staging failures and watchdog
    /// promote/rollback install failures.
    pub fn observe_window<T: LifecycleTarget>(
        &mut self,
        target: &mut T,
        features: &[f64; RESERVOIR_DIM],
        label: usize,
        throughput: f64,
    ) -> Result<WindowOutcome, ContinualError> {
        // The window this call observes: the lifecycle controller counts
        // it when its own `observe_window` closes it below.
        let window = self.lifecycle.windows() + 1;
        self.reservoir.offer(window, *features, label);

        let drifted = self.drift.observe(&features[..DRIFT_CHANNELS]);
        if drifted {
            let score = self.drift.last_score();
            self.lifecycle.log(window, LoopEvent::Drift { score });
        }

        // Retrain only when drift fired, no candidate is already under
        // evaluation, and the reservoir holds enough evidence to learn
        // from. A trigger that arrives while a shadow is staged is
        // deliberately dropped: the staged candidate already represents
        // "the distribution moved", and replacing it would reset the
        // watchdog's evidence clock forever under oscillation.
        let mut retrained = false;
        if drifted
            && !self.lifecycle.shadow_staged()
            && self.reservoir.len() >= self.cfg.min_samples
        {
            let token = self.retrains + 1;
            let samples = self.reservoir.samples();
            let bytes =
                train_candidate(&self.cfg.spec, token, samples).map_err(ContinualError::Train)?;
            self.lifecycle.stage_shadow(target, bytes)?;
            self.retrains = token;
            retrained = true;
            let samples = samples.len();
            self.lifecycle
                .log(window, LoopEvent::Retrained { token, samples });
        }

        let lifecycle = self.lifecycle.observe_window(target, throughput)?;
        if let Some(LoopEvent::RolledBack { .. }) = lifecycle {
            // The loop just proved unstable; a candidate staged against
            // the pre-rollback world is stale evidence.
            self.lifecycle.discard_shadow(target);
        }

        Ok(WindowOutcome {
            drifted,
            retrained,
            lifecycle,
        })
    }

    /// The active generation tag.
    pub fn generation(&self) -> u64 {
        self.lifecycle.generation()
    }

    /// Whether a candidate is staged (shadow-evaluating).
    pub fn shadow_staged(&self) -> bool {
        self.lifecycle.shadow_staged()
    }

    /// Windows folded so far.
    pub fn windows(&self) -> u64 {
        self.lifecycle.windows()
    }

    /// Drift triggers fired so far.
    pub fn drift_events(&self) -> u64 {
        self.drift.triggers()
    }

    /// Retrain cycles completed so far.
    pub fn retrains(&self) -> u64 {
        self.retrains
    }

    /// Retained reservoir samples.
    pub fn reservoir_len(&self) -> usize {
        self.reservoir.len()
    }

    /// Canonical hash of the reservoir contents (determinism witness).
    pub fn reservoir_hash(&self) -> u64 {
        self.reservoir.contents_hash()
    }

    /// The inner lifecycle controller (generation history, watchdog, the
    /// loop's event log and its promotion / rollback counts).
    pub fn lifecycle(&self) -> &LifecycleController {
        &self.lifecycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kml_core::dataset::Normalizer;
    use kml_core::prelude::*;
    use kml_lifecycle::{load_model_for, save_model, ArtifactKind, ShadowStats};

    /// In-memory LifecycleTarget that records installs and validates
    /// bytes like a real loop would.
    struct MemTarget {
        generation: u64,
        installs: Vec<u64>,
        shadow: bool,
        agree: u64,
        windows: u64,
    }

    impl MemTarget {
        fn new() -> Self {
            MemTarget {
                generation: 0,
                installs: Vec::new(),
                shadow: false,
                agree: 0,
                windows: 0,
            }
        }
    }

    impl LifecycleTarget for MemTarget {
        fn install_artifact(&mut self, bytes: &[u8], generation: u64) -> Result<(), ArtifactError> {
            load_model_for::<f32>(bytes, ArtifactKind::Readahead)?;
            self.generation = generation;
            self.installs.push(generation);
            Ok(())
        }
        fn stage_shadow_artifact(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
            load_model_for::<f32>(bytes, ArtifactKind::Readahead)?;
            self.shadow = true;
            self.agree = 0;
            self.windows = 0;
            Ok(())
        }
        fn clear_shadow(&mut self) {
            self.shadow = false;
        }
        fn generation(&self) -> u64 {
            self.generation
        }
        fn shadow_stats(&self) -> ShadowStats {
            ShadowStats {
                windows: self.windows,
                agreements: self.agree,
                errors: 0,
            }
        }
    }

    fn initial_artifact() -> Vec<u8> {
        let mut m = ModelBuilder::readahead_paper_topology(RESERVOIR_DIM, 2)
            .seed(0xAB)
            .build::<f32>()
            .expect("build");
        let feats = Matrix::from_rows(&vec![vec![1.0f64, 2.0, 3.0, 4.0, 5.0]; 4]).expect("rows");
        m.set_normalizer(Normalizer::fit(&feats).expect("fit"));
        save_model(ArtifactKind::Readahead, &mut m).expect("save")
    }

    fn cfg() -> ContinualConfig {
        ContinualConfig {
            drift: DriftConfig {
                reference_windows: 4,
                block_windows: 2,
                threshold: 3.0,
                trigger_blocks: 2,
                abs_floor: 1.0,
            },
            reservoir_capacity: 64,
            seed: 0x5EED,
            min_samples: 8,
            watchdog: WatchdogConfig {
                baseline_windows: 2,
                promote_after: 3,
                regress_windows: 2,
                regress_ratio: 0.5,
            },
            spec: RetrainSpec {
                kind: ArtifactKind::Readahead,
                classes: 2,
                epochs: 5,
                seed: 0x5EED,
            },
        }
    }

    fn window(base: f64, knob: f64) -> [f64; RESERVOIR_DIM] {
        [base, base * 2.0, base + 1.0, base * 0.5, knob]
    }

    #[test]
    fn full_arc_drift_retrain_stage_promote() {
        let mut target = MemTarget::new();
        let mut ctl =
            ContinualController::new(cfg(), &mut target, initial_artifact()).expect("new");
        assert_eq!(ctl.generation(), 1);

        // Stationary phase: builds baseline, fills reservoir, no drift.
        for i in 0..16u64 {
            let out = ctl
                .observe_window(
                    &mut target,
                    &window(10.0 + (i % 2) as f64, 128.0),
                    0,
                    1000.0,
                )
                .expect("window");
            assert!(!out.drifted);
            assert!(out.lifecycle.is_none());
        }
        assert_eq!(ctl.drift_events(), 0);
        assert_eq!(ctl.retrains(), 0);

        // Sustained shift: drift fires, retrains, stages, and the
        // watchdog promotes after its clean windows.
        target.agree = 9;
        target.windows = 10;
        let mut saw_drift = false;
        let mut saw_promotion = false;
        for _ in 0..32 {
            let out = ctl
                .observe_window(&mut target, &window(500.0, 128.0), 1, 1000.0)
                .expect("window");
            saw_drift |= out.drifted;
            if let Some(LoopEvent::Promoted { from, to, .. }) = out.lifecycle {
                assert_eq!((from, to), (1, 2));
                saw_promotion = true;
                break;
            }
        }
        assert!(saw_drift, "sustained shift must trigger drift");
        assert!(saw_promotion, "watchdog must promote the candidate");
        assert_eq!(ctl.generation(), 2);
        assert_eq!(ctl.retrains(), 1);
        assert_eq!(ctl.lifecycle().promotions(), 1);
        assert_eq!(
            target.installs,
            vec![1, 2],
            "candidate must never install before promotion"
        );
        assert!(!ctl.shadow_staged());
    }

    #[test]
    fn a_triggering_window_logs_drift_then_retrained() {
        let mut target = MemTarget::new();
        let mut ctl =
            ContinualController::new(cfg(), &mut target, initial_artifact()).expect("new");
        for i in 0..16u64 {
            let features = window(10.0 + (i % 2) as f64, 128.0);
            ctl.observe_window(&mut target, &features, 0, 1000.0)
                .expect("window");
        }
        assert!(ctl.lifecycle().events().is_empty());
        let drifted = (0..32).any(|_| {
            ctl.observe_window(&mut target, &window(500.0, 128.0), 1, 1000.0)
                .expect("window")
                .drifted
        });
        assert!(drifted, "sustained shift must trigger drift");
        let w = ctl.windows();
        let log: Vec<_> = ctl.lifecycle().events().iter().collect();
        match log[..] {
            [drift, retrained] => {
                assert!(matches!(drift.event, LoopEvent::Drift { score } if score > 3.0));
                assert_eq!(
                    retrained.event,
                    LoopEvent::Retrained {
                        token: 1,
                        samples: ctl.reservoir_len()
                    }
                );
                assert_eq!((drift.window, retrained.window), (w, w));
            }
            _ => panic!("expected drift then retrained, got {log:?}"),
        }
    }

    #[test]
    fn no_drift_means_no_retrain_ever() {
        let mut target = MemTarget::new();
        let mut ctl =
            ContinualController::new(cfg(), &mut target, initial_artifact()).expect("new");
        for i in 0..200u64 {
            let wiggle = if i % 2 == 0 { 0.25 } else { -0.25 };
            ctl.observe_window(&mut target, &window(10.0 + wiggle, 128.0), 0, 1000.0)
                .expect("window");
        }
        assert_eq!(ctl.drift_events(), 0);
        assert_eq!(ctl.retrains(), 0);
        assert_eq!(ctl.lifecycle().promotions(), 0);
        assert_eq!(ctl.generation(), 1);
        assert_eq!(target.installs, vec![1]);
    }

    #[test]
    fn knob_channel_is_invisible_to_drift() {
        let mut target = MemTarget::new();
        let mut ctl =
            ContinualController::new(cfg(), &mut target, initial_artifact()).expect("new");
        // The knob channel (index 4) swings wildly; workload channels
        // are stationary. No drift may fire.
        for i in 0..100u64 {
            let knob = if i % 2 == 0 { 16.0 } else { 1024.0 };
            ctl.observe_window(&mut target, &window(10.0, knob), 0, 1000.0)
                .expect("window");
        }
        assert_eq!(ctl.drift_events(), 0);
    }

    #[test]
    fn regression_rolls_back_and_discards_staged_candidate() {
        let mut target = MemTarget::new();
        let mut ctl =
            ContinualController::new(cfg(), &mut target, initial_artifact()).expect("new");
        // Phase 1: healthy baseline on gen 1.
        for i in 0..16u64 {
            ctl.observe_window(
                &mut target,
                &window(10.0 + (i % 2) as f64, 128.0),
                0,
                1000.0,
            )
            .expect("window");
        }
        // Phase 2: first shift promotes gen 2, so a rollback target
        // exists, then keep running so the drift detector finishes its
        // post-trigger re-baseline on the new distribution.
        target.agree = 9;
        target.windows = 10;
        let mut promoted = false;
        for _ in 0..32 {
            let out = ctl
                .observe_window(&mut target, &window(500.0, 128.0), 1, 1000.0)
                .expect("window");
            if matches!(out.lifecycle, Some(LoopEvent::Promoted { .. })) {
                promoted = true;
                break;
            }
        }
        assert!(promoted);
        for _ in 0..10 {
            ctl.observe_window(&mut target, &window(500.0, 128.0), 1, 1000.0)
                .expect("window");
        }
        // Phase 3a: a second shift at healthy throughput stages a new
        // candidate...
        let mut retrained = false;
        for _ in 0..12 {
            let out = ctl
                .observe_window(&mut target, &window(5000.0, 128.0), 0, 1000.0)
                .expect("window");
            if out.retrained {
                retrained = true;
                break;
            }
        }
        assert!(retrained);
        assert!(ctl.shadow_staged());
        // ...Phase 3b: then throughput collapses before the candidate
        // earns promotion. The watchdog rolls back to gen 1 and the
        // staged candidate is discarded with it.
        let mut rolled_back = false;
        for _ in 0..4 {
            let out = ctl
                .observe_window(&mut target, &window(5000.0, 128.0), 0, 100.0)
                .expect("window");
            if matches!(out.lifecycle, Some(LoopEvent::RolledBack { .. })) {
                rolled_back = true;
                break;
            }
        }
        assert!(rolled_back);
        assert_eq!(ctl.lifecycle().rollbacks(), 1);
        let (log, w) = (ctl.lifecycle().events(), ctl.windows());
        let tail: Vec<_> = log
            .range(log.len() - 2..)
            .map(|r| (r.window, r.event))
            .collect();
        assert_eq!(
            tail,
            [
                (w, LoopEvent::RolledBack { from: 2, to: 1 }),
                (w, LoopEvent::Discarded)
            ],
            "staged candidate must die with the rollback"
        );
        assert!(!ctl.shadow_staged());
        assert_eq!(ctl.generation(), 1);
        assert_eq!(target.installs, vec![1, 2, 1]);
        assert_eq!(ctl.retrains(), 2);
        assert_eq!(ctl.lifecycle().promotions(), 1);
    }

    #[test]
    fn reservoir_hash_tracks_only_window_stream() {
        let run = |mode_seed: u64| {
            let mut target = MemTarget::new();
            let mut c = cfg();
            c.seed = mode_seed;
            c.spec.seed = mode_seed;
            let mut ctl =
                ContinualController::new(c, &mut target, initial_artifact()).expect("new");
            for i in 0..50u64 {
                ctl.observe_window(
                    &mut target,
                    &window(10.0 + (i % 3) as f64, 128.0),
                    0,
                    1000.0,
                )
                .expect("window");
            }
            ctl.reservoir_hash()
        };
        assert_eq!(run(1), run(1), "same stream+seed => same reservoir");
        assert_ne!(run(1), run(2), "seed steers the kept subset");
    }
}
