//! The deterministic lifecycle watchdog.
//!
//! A pure state machine over per-window throughput observations — no
//! wall clock, no randomness, so the same observation stream produces the
//! same promote/rollback decisions at any worker count (the closed loops
//! feed it virtual-clock throughput).
//!
//! ```text
//!                 stage_shadow          K clean windows
//!   ┌─────────┐ ───────────────▶ ┌────────────┐ ─────────▶ promote
//!   │ SERVING │                  │ EVALUATING │            (new generation)
//!   └─────────┘ ◀─────────────── └────────────┘
//!        │         clear_shadow
//!        │ N consecutive windows with
//!        │ throughput < ratio × baseline
//!        ▼
//!     rollback (previous generation restored, streaks reset)
//! ```
//!
//! After every generation change ([`Watchdog::on_generation_change`]) the
//! first `baseline_windows` observations rebuild the throughput baseline
//! before regression detection re-arms — a fresh model is judged against
//! its own steady state, not its predecessor's.

/// Watchdog tuning. All window counts are in loop-observation windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Windows that establish the throughput baseline after a generation
    /// change; regression detection is disarmed while it rebuilds.
    pub baseline_windows: u32,
    /// Clean (non-regressed) windows with a shadow staged before the
    /// shadow is promoted — the "K" in "promote after K clean windows".
    pub promote_after: u32,
    /// Consecutive regressed windows before rollback fires — the "N" in
    /// "throughput delta over N windows".
    pub regress_windows: u32,
    /// A window is regressed when `throughput < regress_ratio × baseline`.
    pub regress_ratio: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            baseline_windows: 3,
            promote_after: 4,
            regress_windows: 3,
            regress_ratio: 0.85,
        }
    }
}

/// What the watchdog wants done after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogAction {
    /// Keep serving.
    None,
    /// The staged shadow has accumulated K clean windows: promote it.
    PromoteShadow,
    /// The active model regressed for N consecutive windows: roll back.
    Rollback,
}

/// The watchdog state machine. Feed one [`Watchdog::observe`] call per
/// loop window; call [`Watchdog::on_generation_change`] whenever the
/// active model changes (swap, promotion, or rollback).
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    baseline_sum: f64,
    baseline_n: u32,
    baseline: Option<f64>,
    clean_streak: u32,
    regress_streak: u32,
}

impl Watchdog {
    /// A fresh watchdog (baseline unset, streaks zero).
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            baseline_sum: 0.0,
            baseline_n: 0,
            baseline: None,
            clean_streak: 0,
            regress_streak: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Resets streaks and restarts baseline warmup (the active model
    /// changed, so its predecessor's steady state no longer applies).
    pub fn on_generation_change(&mut self) {
        self.baseline_sum = 0.0;
        self.baseline_n = 0;
        self.baseline = None;
        self.clean_streak = 0;
        self.regress_streak = 0;
    }

    /// Folds one window's throughput (any monotone goodness measure in
    /// consistent units — the loops use bytes per virtual second) and
    /// whether a shadow candidate is currently staged.
    pub fn observe(&mut self, throughput: f64, shadow_staged: bool) -> WatchdogAction {
        let Some(baseline) = self.baseline else {
            // Warmup: accumulate the baseline. Warmup windows carry no
            // regression signal, so they count as clean for promotion.
            self.baseline_sum += throughput;
            self.baseline_n += 1;
            if self.baseline_n >= self.cfg.baseline_windows.max(1) {
                self.baseline = Some(self.baseline_sum / self.baseline_n as f64);
            }
            return self.clean_window(shadow_staged);
        };
        if throughput < self.cfg.regress_ratio * baseline {
            self.clean_streak = 0;
            self.regress_streak += 1;
            if self.regress_streak >= self.cfg.regress_windows.max(1) {
                return WatchdogAction::Rollback;
            }
            return WatchdogAction::None;
        }
        self.regress_streak = 0;
        self.clean_window(shadow_staged)
    }

    fn clean_window(&mut self, shadow_staged: bool) -> WatchdogAction {
        if shadow_staged {
            self.clean_streak += 1;
            if self.clean_streak >= self.cfg.promote_after.max(1) {
                return WatchdogAction::PromoteShadow;
            }
        } else {
            self.clean_streak = 0;
        }
        WatchdogAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            baseline_windows: 2,
            promote_after: 3,
            regress_windows: 2,
            regress_ratio: 0.85,
        }
    }

    #[test]
    fn promotes_after_k_clean_windows() {
        let mut w = Watchdog::new(cfg());
        assert_eq!(w.observe(100.0, true), WatchdogAction::None);
        assert_eq!(w.observe(100.0, true), WatchdogAction::None);
        assert_eq!(w.observe(100.0, true), WatchdogAction::PromoteShadow);
    }

    #[test]
    fn regression_interrupts_the_clean_streak() {
        let mut w = Watchdog::new(cfg());
        w.observe(100.0, true);
        w.observe(100.0, true);
        // Baseline is now 100; a regressed window resets the streak.
        assert_eq!(w.observe(10.0, true), WatchdogAction::None);
        assert_eq!(w.observe(100.0, true), WatchdogAction::None);
        assert_eq!(w.observe(100.0, true), WatchdogAction::None);
        assert_eq!(w.observe(100.0, true), WatchdogAction::PromoteShadow);
    }

    #[test]
    fn rolls_back_after_n_regressed_windows() {
        let mut w = Watchdog::new(cfg());
        w.observe(100.0, false);
        w.observe(100.0, false);
        assert_eq!(w.observe(10.0, false), WatchdogAction::None);
        assert_eq!(w.observe(10.0, false), WatchdogAction::Rollback);
    }

    #[test]
    fn single_bad_window_does_not_roll_back() {
        let mut w = Watchdog::new(cfg());
        w.observe(100.0, false);
        w.observe(100.0, false);
        assert_eq!(w.observe(10.0, false), WatchdogAction::None);
        assert_eq!(w.observe(100.0, false), WatchdogAction::None);
        assert_eq!(w.observe(10.0, false), WatchdogAction::None);
    }

    #[test]
    fn generation_change_rebuilds_the_baseline() {
        let mut w = Watchdog::new(cfg());
        w.observe(100.0, false);
        w.observe(100.0, false);
        assert_eq!(w.baseline, Some(100.0));
        w.on_generation_change();
        assert_eq!(w.baseline, None);
        // The new model's lower steady state becomes the new baseline
        // instead of tripping the detector.
        w.observe(50.0, false);
        w.observe(50.0, false);
        assert_eq!(w.baseline, Some(50.0));
        assert_eq!(w.observe(49.0, false), WatchdogAction::None);
    }
}
