//! The lifecycle controller: artifacts in, promote/rollback out.
//!
//! [`LifecycleController`] owns the *policy* half of the lifecycle for
//! one swap target (a closed-loop tuner or one fleet model lane). It
//! keeps the active generation's `.kmlm` bytes, the previous generation's
//! bytes for rollback, and an optional staged shadow candidate; every
//! loop window it feeds the [`Watchdog`](crate::watchdog::Watchdog) and
//! executes whatever the watchdog decides. Rollback reinstalls the
//! previous generation *from its artifact bytes* under its original
//! generation tag — the restored model is bit-identical to what served
//! before (artifact decode is deterministic), and the very next decision
//! the loop takes is provably tagged with the previous generation.
//!
//! The controller mutates the target only through
//! [`LifecycleTarget`], whose implementations are required to be
//! all-or-nothing: a failed artifact install leaves the target exactly as
//! it was (generation, model, knob — the DST invariant I13).
//!
//! What the loop did, and why, goes into one bounded log of
//! [`LoopRecord`]s: this controller's promotions, rollbacks and discards,
//! and whatever a driver on top of it logs (the continual loop's drift
//! triggers and retrains). The promotion and rollback counts are kept
//! beside it, exact after the log has dropped its oldest records.

use std::collections::VecDeque;

use crate::artifact::ArtifactError;
use crate::shadow::ShadowStats;
use crate::watchdog::{Watchdog, WatchdogAction, WatchdogConfig};

/// A swap point the controller can drive: a loop tuner or a fleet model
/// lane. Implementations must make `install_artifact` atomic — decode and
/// verify first, mutate only on success.
pub trait LifecycleTarget {
    /// Decodes, verifies, and atomically installs artifact bytes as the
    /// active model under `generation`.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`]; the target is unchanged on failure.
    fn install_artifact(&mut self, bytes: &[u8], generation: u64) -> Result<(), ArtifactError>;

    /// Decodes, verifies, and stages artifact bytes as the shadow
    /// candidate (replacing any previous candidate and resetting its
    /// stats). The active model and the loop's knob are untouched.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`]; no candidate is staged on failure.
    fn stage_shadow_artifact(&mut self, bytes: &[u8]) -> Result<(), ArtifactError>;

    /// Discards any staged shadow candidate (and its stats).
    fn clear_shadow(&mut self);

    /// The active model's generation tag.
    fn generation(&self) -> u64;

    /// Agreement stats for the currently staged candidate (zeroed when
    /// none is staged).
    fn shadow_stats(&self) -> ShadowStats;
}

/// Records the loop's log keeps before it drops its oldest.
pub const EVENT_LOG_CAPACITY: usize = 256;

/// One thing the loop did, and why: the one event vocabulary of the
/// lifecycle controller and the continual loop that drives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopEvent {
    /// A sustained drift trigger fired.
    Drift {
        /// Divergence score of the block that completed the trigger.
        score: f64,
    },
    /// A candidate was trained and staged as the shadow.
    Retrained {
        /// 1-based retrain cycle.
        token: u64,
        /// Reservoir samples it trained on.
        samples: usize,
    },
    /// A staged shadow was promoted to the active model.
    Promoted {
        /// Generation it replaced.
        from: u64,
        /// Generation it now serves as.
        to: u64,
        /// The candidate's decision agreement with the model it replaced,
        /// in percent, frozen at promotion time.
        agreement_pct: f64,
    },
    /// The active model was rolled back to the previous generation.
    RolledBack {
        /// Generation rolled back from.
        from: u64,
        /// Generation restored (its original tag).
        to: u64,
    },
    /// The staged shadow was discarded without promotion.
    Discarded,
}

/// One logged event plus the loop window it happened in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopRecord {
    /// 1-based index of the observation window.
    pub window: u64,
    /// What happened.
    pub event: LoopEvent,
}

/// The per-target lifecycle driver. See the module docs.
#[derive(Debug)]
pub struct LifecycleController {
    watchdog: Watchdog,
    next_gen: u64,
    active: (u64, Vec<u8>),
    previous: Option<(u64, Vec<u8>)>,
    shadow: Option<Vec<u8>>,
    window: u64,
    promotions: u64,
    rollbacks: u64,
    events: VecDeque<LoopRecord>,
}

impl LifecycleController {
    /// Installs `initial` into `target` as generation 1 and starts the
    /// watchdog.
    ///
    /// # Errors
    ///
    /// Propagates the install; the target is unchanged on failure.
    pub fn new<T: LifecycleTarget>(
        cfg: WatchdogConfig,
        target: &mut T,
        initial: Vec<u8>,
    ) -> Result<Self, ArtifactError> {
        target.install_artifact(&initial, 1)?;
        Ok(LifecycleController {
            watchdog: Watchdog::new(cfg),
            next_gen: 2,
            active: (1, initial),
            previous: None,
            shadow: None,
            window: 0,
            promotions: 0,
            rollbacks: 0,
            events: VecDeque::with_capacity(EVENT_LOG_CAPACITY),
        })
    }

    /// Stages `candidate` as the shadow for future promotion. The active
    /// model keeps serving; the candidate only accumulates evidence.
    ///
    /// # Errors
    ///
    /// Propagates the stage; nothing is staged on failure.
    pub fn stage_shadow<T: LifecycleTarget>(
        &mut self,
        target: &mut T,
        candidate: Vec<u8>,
    ) -> Result<(), ArtifactError> {
        target.stage_shadow_artifact(&candidate)?;
        self.shadow = Some(candidate);
        Ok(())
    }

    /// Directly installs `artifact` as a new generation (an operator push
    /// rather than a watchdog promotion), retaining the outgoing
    /// generation for rollback.
    ///
    /// # Errors
    ///
    /// Propagates the install; active/previous are unchanged on failure.
    pub fn install<T: LifecycleTarget>(
        &mut self,
        target: &mut T,
        artifact: Vec<u8>,
    ) -> Result<u64, ArtifactError> {
        let generation = self.next_gen;
        target.install_artifact(&artifact, generation)?;
        self.next_gen += 1;
        self.previous = Some(std::mem::replace(&mut self.active, (generation, artifact)));
        self.watchdog.on_generation_change();
        Ok(generation)
    }

    /// Feeds one loop window's throughput to the watchdog and executes
    /// its decision (promotion or rollback) against the target.
    ///
    /// # Errors
    ///
    /// Propagates a failed promote/rollback install. The retained
    /// artifact bytes round-tripped a successful install before, so this
    /// only fires on genuine target breakage — and the target is still
    /// unchanged in that case.
    pub fn observe_window<T: LifecycleTarget>(
        &mut self,
        target: &mut T,
        throughput: f64,
    ) -> Result<Option<LoopEvent>, ArtifactError> {
        self.window += 1;
        match self.watchdog.observe(throughput, self.shadow.is_some()) {
            WatchdogAction::None => Ok(None),
            WatchdogAction::PromoteShadow => {
                let candidate = self.shadow.take().expect("promote requires a shadow");
                let agreement_pct = target.shadow_stats().agreement_pct();
                let generation = self.next_gen;
                target.install_artifact(&candidate, generation)?;
                target.clear_shadow();
                self.next_gen += 1;
                let from = self.active.0;
                self.previous = Some(std::mem::replace(&mut self.active, (generation, candidate)));
                self.watchdog.on_generation_change();
                self.promotions += 1;
                let event = LoopEvent::Promoted {
                    from,
                    to: generation,
                    agreement_pct,
                };
                self.log(self.window, event);
                Ok(Some(event))
            }
            WatchdogAction::Rollback => {
                let Some((generation, artifact)) = self.previous.take() else {
                    // Nothing to roll back to (generation 1 regressed):
                    // keep serving and re-arm the detector so the alarm
                    // does not re-fire every window.
                    self.watchdog.on_generation_change();
                    return Ok(None);
                };
                target.install_artifact(&artifact, generation)?;
                let from = self.active.0;
                self.active = (generation, artifact);
                self.watchdog.on_generation_change();
                self.rollbacks += 1;
                let event = LoopEvent::RolledBack {
                    from,
                    to: generation,
                };
                self.log(self.window, event);
                Ok(Some(event))
            }
        }
    }

    /// The active generation tag.
    pub fn generation(&self) -> u64 {
        self.active.0
    }

    /// Whether a rollback target exists.
    pub fn has_previous(&self) -> bool {
        self.previous.is_some()
    }

    /// Whether a shadow candidate is staged.
    pub fn shadow_staged(&self) -> bool {
        self.shadow.is_some()
    }

    /// Discards the staged shadow candidate (and the target's copy of
    /// it) without promoting — the caller has decided the candidate is
    /// not worth further evidence, e.g. a regression fired while it was
    /// staged. Returns whether a candidate was actually discarded; a
    /// discard is logged under the last observed window.
    pub fn discard_shadow<T: LifecycleTarget>(&mut self, target: &mut T) -> bool {
        if self.shadow.take().is_some() {
            target.clear_shadow();
            self.log(self.window, LoopEvent::Discarded);
            true
        } else {
            false
        }
    }

    /// Appends `event` to the log under `window`, dropping the oldest
    /// record once the log holds [`EVENT_LOG_CAPACITY`].
    pub fn log(&mut self, window: u64, event: LoopEvent) {
        if self.events.len() == EVENT_LOG_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(LoopRecord { window, event });
    }

    /// The newest [`EVENT_LOG_CAPACITY`] records, oldest first.
    pub fn events(&self) -> &VecDeque<LoopRecord> {
        &self.events
    }

    /// Watchdog promotions executed so far (exact past the log's wrap).
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Watchdog rollbacks executed so far (exact past the log's wrap).
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Observation windows folded so far.
    pub fn windows(&self) -> u64 {
        self.window
    }

    /// The watchdog (for baseline/config introspection).
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-memory target: "installing" remembers the bytes and
    /// generation, staging remembers the candidate.
    #[derive(Debug, Default)]
    struct FakeTarget {
        installed: Vec<(u64, Vec<u8>)>,
        generation: u64,
        shadow: Option<Vec<u8>>,
        stats: ShadowStats,
        fail_installs: bool,
    }

    impl LifecycleTarget for FakeTarget {
        fn install_artifact(&mut self, bytes: &[u8], generation: u64) -> Result<(), ArtifactError> {
            if self.fail_installs {
                return Err(ArtifactError::BadMagic);
            }
            self.installed.push((generation, bytes.to_vec()));
            self.generation = generation;
            Ok(())
        }

        fn stage_shadow_artifact(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
            self.shadow = Some(bytes.to_vec());
            self.stats = ShadowStats::default();
            Ok(())
        }

        fn clear_shadow(&mut self) {
            self.shadow = None;
        }

        fn generation(&self) -> u64 {
            self.generation
        }

        fn shadow_stats(&self) -> ShadowStats {
            self.stats
        }
    }

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            baseline_windows: 2,
            promote_after: 2,
            regress_windows: 2,
            regress_ratio: 0.85,
        }
    }

    #[test]
    fn shadow_promotion_full_path() {
        let mut t = FakeTarget::default();
        let mut c = LifecycleController::new(cfg(), &mut t, b"v1".to_vec()).unwrap();
        assert_eq!(t.generation(), 1);
        c.stage_shadow(&mut t, b"v2".to_vec()).unwrap();
        assert!(c.shadow_staged());
        assert_eq!(c.observe_window(&mut t, 100.0).unwrap(), None);
        let event = c.observe_window(&mut t, 100.0).unwrap().unwrap();
        assert!(matches!(event, LoopEvent::Promoted { from: 1, to: 2, .. }));
        assert_eq!(t.generation(), 2);
        assert_eq!(t.installed.last().unwrap().1, b"v2");
        assert!(t.shadow.is_none(), "promotion must clear the shadow lane");
        assert!(!c.shadow_staged());
        assert!(c.has_previous());
    }

    #[test]
    fn regression_rolls_back_to_the_previous_generation_tag() {
        let mut t = FakeTarget::default();
        let mut c = LifecycleController::new(cfg(), &mut t, b"good".to_vec()).unwrap();
        // Establish a baseline on the good model.
        c.observe_window(&mut t, 100.0).unwrap();
        c.observe_window(&mut t, 100.0).unwrap();
        // Operator pushes a bad model: generation 2.
        c.install(&mut t, b"bad".to_vec()).unwrap();
        assert_eq!(t.generation(), 2);
        // Its own baseline forms low... but the detector compares against
        // the *new* baseline, so regression means degrading further.
        // Feed a fresh baseline then collapse.
        c.observe_window(&mut t, 90.0).unwrap();
        c.observe_window(&mut t, 90.0).unwrap();
        assert_eq!(c.observe_window(&mut t, 10.0).unwrap(), None);
        let event = c.observe_window(&mut t, 10.0).unwrap().unwrap();
        assert_eq!(event, LoopEvent::RolledBack { from: 2, to: 1 });
        assert_eq!(t.generation(), 1, "restored under its original tag");
        assert_eq!(t.installed.last().unwrap().1, b"good");
        assert!(!c.has_previous(), "rollback consumes the previous slot");
    }

    #[test]
    fn rollback_without_previous_rearms_instead_of_looping() {
        let mut t = FakeTarget::default();
        let mut c = LifecycleController::new(cfg(), &mut t, b"only".to_vec()).unwrap();
        c.observe_window(&mut t, 100.0).unwrap();
        c.observe_window(&mut t, 100.0).unwrap();
        c.observe_window(&mut t, 10.0).unwrap();
        assert_eq!(c.observe_window(&mut t, 10.0).unwrap(), None);
        assert_eq!(t.generation(), 1);
        assert!(c.events().is_empty());
    }

    #[test]
    fn the_log_keeps_the_newest_records_and_the_counts_stay_exact() {
        let mut t = FakeTarget::default();
        let mut c = LifecycleController::new(cfg(), &mut t, b"v1".to_vec()).unwrap();
        let capacity = c.events().capacity();
        let cycles = EVENT_LOG_CAPACITY as u64 + 7;
        let mut expected = Vec::new();
        for _ in 0..cycles {
            // Two clean windows promote the shadow; two baseline windows
            // and two collapsed ones roll it back.
            c.stage_shadow(&mut t, b"next".to_vec()).unwrap();
            for throughput in [100.0, 100.0, 100.0, 100.0, 10.0, 10.0] {
                if let Some(event) = c.observe_window(&mut t, throughput).unwrap() {
                    expected.push(LoopRecord {
                        window: c.windows(),
                        event,
                    });
                }
                assert_eq!(c.events().capacity(), capacity, "the log never grows");
            }
        }
        assert_eq!(expected.len() as u64, 2 * cycles);
        assert!(matches!(expected[0].event, LoopEvent::Promoted { .. }));
        assert!(matches!(expected[1].event, LoopEvent::RolledBack { .. }));
        let newest = &expected[expected.len() - EVENT_LOG_CAPACITY..];
        assert!(c.events().iter().eq(newest.iter()));
        assert_eq!(c.events().back().unwrap().window, 6 * cycles);
        assert_eq!((c.promotions(), c.rollbacks()), (cycles, cycles));
    }

    #[test]
    fn failed_initial_install_builds_no_controller() {
        let mut t = FakeTarget {
            fail_installs: true,
            ..FakeTarget::default()
        };
        assert!(LifecycleController::new(cfg(), &mut t, b"x".to_vec()).is_err());
        assert_eq!(t.generation, 0);
    }
}
