//! The two model-lifecycle arcs a scenario can weave into a run.
//!
//! [`LifecycleScript`] is the scripted arc — shadow staging, a regressed
//! operator install, a corrupted load, a watchdog fed a scripted signal —
//! and runs on any [`System`]'s tuner (invariants I11–I13).
//! [`ContinualScript`] is the live arc of continual scenarios: a
//! `kml-continual` controller on the readahead loop, driven by that
//! stack's workload shift (invariants I14–I16).

use crate::driver::{violated, Op, System, Trace, Violation};
use crate::lsm::{INITIAL_RA_KB, POLICY_RA_KB};
use crate::scenario::{ContinualParams, FaultMask, LifecycleParams, Scenario};
use kernel_sim::Sim;
use kml_continual::{
    train_candidate, ContinualConfig, ContinualController, DriftConfig, ReservoirSample,
    RetrainSpec,
};
use kml_core::model::ModelBuilder;
use kml_lifecycle::{
    save_model, ArtifactKind, LifecycleController, LifecycleTarget, LoopEvent, WatchdogConfig,
};
use readahead::tuner::KmlTuner;
use readahead::WindowMoments;

/// Watchdog tuning for the lifecycle script: small window counts so a
/// 400-op scenario has room for a full stage → promote → regress →
/// rollback arc at any seeded observation cadence.
fn lifecycle_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        baseline_windows: 2,
        promote_after: 3,
        regress_windows: 2,
        regress_ratio: 0.85,
    }
}

/// A seeded, untrained `.kmlm` artifact for `kind`. The DST harness
/// validates the lifecycle *machinery* — staging, promotion, rollback
/// atomicity — not model quality, so an arbitrary seeded network with the
/// right feature schema and class count is exactly enough.
fn lifecycle_artifact(kind: ArtifactKind, classes: usize, seed: u64) -> Vec<u8> {
    let mut model = ModelBuilder::readahead_paper_topology(kind.feature_names().len(), classes)
        .seed(seed)
        .build::<f32>()
        .expect("seeded untrained model always builds");
    save_model(kind, &mut model).expect("fresh model always serialises")
}

/// Every generation in `fresh` (a suffix of a tuner's decision log) must
/// have been installed — a shadow candidate has no generation, so one
/// that actuated, or a torn install, shows up here.
fn all_installed(
    invariant: &'static str,
    installed: &[u64],
    fresh: impl Iterator<Item = u64>,
) -> Result<(), Violation> {
    for generation in fresh {
        if !installed.contains(&generation) {
            let detail =
                format!("a decision is tagged with never-installed generation {generation}");
            return violated(invariant, detail);
        }
    }
    Ok(())
}

/// The scripted lifecycle events of a lifecycle scenario, plus the state
/// for invariants I11–I13. Generic over the stack so the same script
/// drives the readahead loop (device faults) and the netfs rsize loop
/// (network faults).
pub(crate) struct LifecycleScript {
    pub(crate) controller: LifecycleController,
    p: LifecycleParams,
    shadow_artifact: Vec<u8>,
    regress_artifact: Vec<u8>,
    corrupt_artifact: Vec<u8>,
    do_shadow: bool,
    do_regress: bool,
    do_corrupt: bool,
    regressed_gen: Option<u64>,
    windows_on_regressed: u64,
    /// Every generation ever installed into the target (I12).
    installed_gens: Vec<u64>,
}

impl LifecycleScript {
    pub(crate) fn new<S: System>(scenario: &Scenario, sys: &mut S) -> Result<Self, Violation> {
        let p = scenario.lifecycle_params();
        let artifact = |seed| lifecycle_artifact(S::KIND, S::CLASSES, seed);
        let initial = artifact(p.initial_seed);
        let controller = LifecycleController::new(lifecycle_watchdog(), sys.tuner(), initial)
            .map_err(|e| {
                let detail = format!("the initial artifact install failed: {e:?}");
                ("I13.artifact-atomic", detail)
            })?;
        let shadow_artifact = artifact(p.shadow_seed);
        let mut corrupt_artifact = shadow_artifact.clone();
        let flip = corrupt_artifact.len() / 2;
        corrupt_artifact[flip] ^= 0xA5;
        Ok(LifecycleScript {
            controller,
            p,
            shadow_artifact,
            regress_artifact: artifact(p.regress_seed),
            corrupt_artifact,
            do_shadow: !scenario.disabled.contains(FaultMask::LC_SHADOW),
            do_regress: !scenario.disabled.contains(FaultMask::LC_REGRESS),
            do_corrupt: !scenario.disabled.contains(FaultMask::LC_CORRUPT),
            regressed_gen: None,
            windows_on_regressed: 0,
            installed_gens: vec![1],
        })
    }

    /// Runs this step's scripted events against the stack's tuner,
    /// recording each as it lands, and checks I11–I13.
    pub(crate) fn on_step<S: System>(
        &mut self,
        sys: &mut S,
        step: u64,
        trace: &mut Trace,
    ) -> Result<(), Violation> {
        // Model swaps cost no simulated time: one clock reading serves
        // every event of the step. Each scripted event fires on its own
        // step, so at most once per run.
        let (now, knob_before) = (sys.now_ns(), sys.knob());
        let target = sys.tuner();
        let mut staged_now = false;
        if self.do_corrupt && step == self.p.corrupt_step {
            let gen_before = target.generation();
            if target
                .install_artifact(&self.corrupt_artifact, gen_before + 1000)
                .is_ok()
            {
                return violated("I13.artifact-atomic", "a corrupted artifact was accepted");
            }
            if target.generation() != gen_before {
                return violated(
                    "I13.artifact-atomic",
                    format!(
                        "a failed install moved the generation {gen_before} -> {}",
                        target.generation()
                    ),
                );
            }
            trace.record(now, Op::LcCorrupt, gen_before, 2);
        }
        if self.do_shadow && step == self.p.stage_step {
            staged_now = true;
            let gen_before = target.generation();
            self.controller
                .stage_shadow(target, self.shadow_artifact.clone())
                .map_err(|e| {
                    let detail = format!("staging a valid shadow failed: {e:?}");
                    ("I13.artifact-atomic", detail)
                })?;
            if target.generation() != gen_before {
                return violated(
                    "I12.shadow-never-actuates",
                    "staging a shadow changed the active generation",
                );
            }
            trace.record(now, Op::LcStage, 0, 0);
        }
        if self.do_regress && step == self.p.regress_step {
            let generation = self
                .controller
                .install(target, self.regress_artifact.clone())
                .map_err(|e| {
                    let detail = format!("installing a valid artifact failed: {e:?}");
                    ("I13.artifact-atomic", detail)
                })?;
            self.regressed_gen = Some(generation);
            self.installed_gens.push(generation);
            trace.record(now, Op::LcInstall, generation, 0);
        }
        if (step + 1).is_multiple_of(self.p.observe_every) {
            // Stub models do not differ in real loop quality, so the
            // regression signal is scripted: the regressed generation
            // settles its own (lower) baseline over the warmup windows,
            // then collapses below the watchdog's regress ratio.
            let throughput = if self.regressed_gen == Some(self.controller.generation()) {
                self.windows_on_regressed += 1;
                if self.windows_on_regressed <= u64::from(lifecycle_watchdog().baseline_windows) {
                    600.0
                } else {
                    300.0
                }
            } else {
                1000.0
            };
            match self.controller.observe_window(target, throughput) {
                Ok(Some(LoopEvent::Promoted { to, .. })) => {
                    self.installed_gens.push(to);
                    trace.record(now, Op::LcPromote, to, 0);
                }
                Ok(Some(LoopEvent::RolledBack { to, .. })) => {
                    if target.generation() != to {
                        return violated(
                            "I11.swap-atomic",
                            format!(
                                "rollback restored generation {to} but the loop holds {}",
                                target.generation()
                            ),
                        );
                    }
                    trace.record(now, Op::LcRollback, to, 0);
                }
                Ok(_) => {}
                Err(e) => {
                    let detail = format!("a watchdog-driven install failed: {e:?}");
                    return violated("I13.artifact-atomic", detail);
                }
            }
        }
        // I11: the loop is never left actuating a generation the
        // controller does not consider active.
        if target.generation() != self.controller.generation() {
            return violated(
                "I11.swap-atomic",
                format!(
                    "loop serves generation {} but the controller holds {}",
                    target.generation(),
                    self.controller.generation()
                ),
            );
        }
        // I12: staging moves no knob, and only installed generations decide.
        if staged_now && sys.knob() != knob_before {
            return violated(
                "I12.shadow-never-actuates",
                format!(
                    "staging a shadow moved {} {knob_before} -> {} KiB",
                    S::KNOB,
                    sys.knob()
                ),
            );
        }
        all_installed(
            "I12.shadow-never-actuates",
            &self.installed_gens,
            sys.fresh_generations(),
        )
    }
}

/// Drift tuning for the continual loop: reference and block windows small
/// enough that a sweep-sized run completes the full reference → trigger →
/// retrain → shadow → promotion arc, with a threshold high enough that
/// the *stationary* op mix (whose window features vary plenty) never
/// trips it — the no-drift control leans on exactly that.
fn continual_drift() -> DriftConfig {
    DriftConfig {
        reference_windows: 6,
        block_windows: 8,
        threshold: 3.0,
        trigger_blocks: 3,
        abs_floor: 1.0,
    }
}

/// Windows dropped before the controller starts observing: the first few
/// windows after boot are cache-warmup transients whose features sit far
/// from the steady mix, and a reference contaminated by them reads the
/// settling *as* drift — the no-drift control must never do that.
const CT_WARMUP_WINDOWS: u32 = 4;

/// Log-compressed features for the continual loop's detector, reservoir,
/// and model. The raw window features span orders of magnitude and their
/// window-to-window variance under the mixed op stream is enormous (a
/// window can be db-heavy or aux-heavy), which drowns the workload shift
/// in reference noise *and* lets warmup phases fire spurious triggers.
/// In log space the mix variance is a few bits while the workload pivot
/// moves the offset channels by several bits — cleanly separable.
/// The trailing knob channel stays raw (it is excluded from drift).
fn continual_features(raw: &[f64; 5]) -> [f64; 5] {
    [
        (1.0 + raw[0]).log2(),
        (1.0 + raw[1]).log2(),
        (1.0 + raw[2]).log2(),
        (1.0 + raw[3]).log2(),
        raw[4],
    ]
}

/// The initial (generation 1) artifact for a continual scenario: trained
/// through the same `train_candidate` packaging path the live retrainer
/// uses, on a seeded random-phase cluster (in the same log-feature space
/// the loop serves) labeled class 0, so pre-shift windows actuate the
/// small readahead and the shift genuinely hurts.
fn continual_initial_artifact(p: &ContinualParams) -> Result<Vec<u8>, String> {
    let mut samples = Vec::with_capacity(32);
    for j in 0..32u64 {
        let jit = |k: u64| ((j * 7 + k) % 11) as f64 * 0.1;
        let raw = [80.0, 2.0e4, 1.8e4, 5.0e2, f64::from(INITIAL_RA_KB)];
        let mut features = continual_features(&raw);
        for (k, f) in features.iter_mut().take(4).enumerate() {
            *f += jit(k as u64);
        }
        samples.push(ReservoirSample {
            id: j,
            priority: 0,
            features,
            label: 0,
        });
    }
    train_candidate(
        &RetrainSpec {
            kind: ArtifactKind::Readahead,
            classes: POLICY_RA_KB.len(),
            epochs: 40,
            seed: p.initial_seed,
        },
        0,
        &samples,
    )
}

/// The live continual loop of a continual scenario, plus the bookkeeping
/// for invariants I14–I16.
pub(crate) struct ContinualScript {
    pub(crate) controller: ContinualController,
    /// Step at which the op mix pivots to the sequential scan.
    shift_step: u64,
    /// Whether the shift actually happens (`ct_shift` not disabled —
    /// disabled turns the run into its own no-drift control).
    shift_enabled: bool,
    capacity: usize,
    /// Every generation ever installed into the tuner; a decision tagged
    /// with anything else means a candidate actuated before promotion.
    installed_gens: Vec<u64>,
    decision_cursor: usize,
    /// Warmup windows left to drop before the controller observes.
    warmup_left: u32,
    /// Un-cumulates the extractor's offset channels (which accumulate
    /// over the whole run).
    moments: WindowMoments,
}

impl ContinualScript {
    pub(crate) fn new(scenario: &Scenario, tuner: &mut KmlTuner) -> Result<Self, Violation> {
        let p = scenario.continual_params();
        let cfg = ContinualConfig {
            drift: continual_drift(),
            reservoir_capacity: p.reservoir_capacity,
            seed: p.retrain_seed ^ 0x5EED,
            min_samples: 8,
            watchdog: lifecycle_watchdog(),
            spec: RetrainSpec {
                kind: ArtifactKind::Readahead,
                classes: POLICY_RA_KB.len(),
                epochs: 40,
                seed: p.retrain_seed,
            },
        };
        let controller = continual_initial_artifact(&p)
            .and_then(|initial| {
                ContinualController::new(cfg, tuner, initial).map_err(|e| e.to_string())
            })
            .map_err(|e| {
                let detail = format!("the initial continual artifact failed: {e}");
                ("I13.artifact-atomic", detail)
            })?;
        Ok(ContinualScript {
            controller,
            shift_step: scenario.ops * p.shift_pct / 100,
            shift_enabled: !scenario.disabled.contains(FaultMask::CT_SHIFT),
            capacity: p.reservoir_capacity,
            installed_gens: vec![1],
            decision_cursor: 0,
            warmup_left: CT_WARMUP_WINDOWS,
            moments: WindowMoments::default(),
        })
    }

    /// Whether `step` lies past the workload shift.
    pub(crate) fn shifted(&self, step: u64) -> bool {
        self.shift_enabled && step >= self.shift_step
    }

    /// The drift/reservoir feature vector for one window: the extractor's
    /// cumulative mean/std offset channels un-cumulated ([`WindowMoments`]),
    /// then everything through the log compression of
    /// [`continual_features`].
    fn window_phi(&mut self, raw: &[f64; 5]) -> [f64; 5] {
        let (w_mean, w_std) = self.moments.window(raw);
        continual_features(&[raw[0], w_mean.max(0.0), w_std, raw[3], raw[4]])
    }

    /// The per-op hook of a continual scenario, in place of the tuner's
    /// `on_op`: the window is driven explicitly — lifecycle observation
    /// first, then the (possibly just-promoted) model's decision, so
    /// every post-promotion decision carries the new generation.
    pub(crate) fn on_step(
        &mut self,
        tuner: &mut KmlTuner,
        sim: &mut Sim,
        trace: &mut Trace,
    ) -> Result<(), Violation> {
        if let Some(features) = tuner.poll_window(sim) {
            let label = KmlTuner::heuristic_class(&features);
            let phi = self.window_phi(&features);
            // Warmup windows still feed the un-cumulation totals and
            // still get a decision below — the controller just does
            // not observe them, so cache-warmup transients can't
            // contaminate the drift reference.
            if self.warmup_left > 0 {
                self.warmup_left -= 1;
            } else {
                let out = self
                    .controller
                    .observe_window(tuner, &phi, label, 1000.0)
                    .map_err(|e| {
                        let detail = format!("continual window failed: {e}");
                        ("I13.artifact-atomic", detail)
                    })?;
                // I14: a retrain can only ever ride a drift trigger.
                if out.retrained && !out.drifted {
                    return violated(
                        "I14.retrain-only-on-drift",
                        "a retrain ran on a drift-free window",
                    );
                }
                let now = sim.now_ns();
                if out.drifted {
                    trace.record(now, Op::CtDrift, self.controller.windows(), 0);
                }
                if out.retrained {
                    trace.record(now, Op::CtRetrain, self.controller.retrains(), 0);
                }
                let lifecycle = match out.lifecycle {
                    Some(LoopEvent::Promoted { to, .. }) => Some((Op::LcPromote, to)),
                    Some(LoopEvent::RolledBack { to, .. }) => Some((Op::LcRollback, to)),
                    _ => None,
                };
                if let Some((op, to)) = lifecycle {
                    self.installed_gens.push(to);
                    trace.record(now, op, to, 0);
                }
            }
            let class = tuner.predict_active(&phi).map_err(|e| {
                let detail = format!("continual predict failed: {e:?}");
                ("I5.no-panic", detail)
            })?;
            tuner.apply_class(sim, class);
            // I16: reservoir accounting — one unique offer per window
            // means the fill level is a pure function of the window
            // count and the capacity.
            let (len, windows) = (self.controller.reservoir_len(), self.controller.windows());
            if len as u64 != windows.min(self.capacity as u64) {
                return violated(
                    "I16.reservoir-deterministic",
                    format!(
                        "reservoir holds {len} samples after {windows} windows (capacity {})",
                        self.capacity
                    ),
                );
            }
        }
        // I15: the loop never serves a generation that was not
        // installed (a staged candidate has none), and the tuner and
        // controller always agree on the active one.
        if tuner.model_generation() != self.controller.generation() {
            return violated(
                "I15.candidate-never-actuates",
                format!(
                    "loop serves generation {} but the controller holds {}",
                    tuner.model_generation(),
                    self.controller.generation()
                ),
            );
        }
        let decisions = tuner.decisions();
        let fresh = decisions[self.decision_cursor..]
            .iter()
            .map(|d| d.generation);
        self.decision_cursor = decisions.len();
        all_installed("I15.candidate-never-actuates", &self.installed_gens, fresh)
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, FaultMask, Outcome, Scenario};

    #[test]
    fn a_quiet_lifecycle_scenario_passes_and_swaps_models() {
        // Device faults off, lifecycle events on: the scripted arc must
        // run its swaps without tripping any invariant.
        let mut scenario = Scenario::lifecycle_from_seed(3, 400);
        scenario.disabled = FaultMask(0x3F);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 400);
                assert_eq!(s.injected.total(), 0);
            }
            Outcome::Fail(r) => panic!("quiet lifecycle scenario failed:\n{r}"),
        }
    }

    #[test]
    fn disabling_every_lifecycle_event_still_passes() {
        let mut scenario = Scenario::lifecycle_from_seed(3, 200);
        scenario.disabled = FaultMask(0x3F)
            .with(FaultMask::LC_SHADOW)
            .with(FaultMask::LC_REGRESS)
            .with(FaultMask::LC_CORRUPT);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.promotions, 0, "no shadow staged, nothing to promote");
                assert_eq!(s.rollbacks, 0, "no regressed install, nothing to roll back");
            }
            Outcome::Fail(r) => panic!("event-free lifecycle scenario failed:\n{r}"),
        }
    }
}
