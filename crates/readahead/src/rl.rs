//! Reinforcement-learning readahead tuning (paper §3.3 + §6 future work).
//!
//! "Using reinforcement learning, we can build ML approaches that can adapt
//! themselves based on the feedback from the system. For example, when we
//! apply our readahead neural network on applications that use different
//! file access patterns — and hence not represented in our training dataset
//! — the readahead neural network may not perform as well. In that case, we
//! can build a feedback system in the kernel."
//!
//! [`BanditTuner`] is that feedback system, kept deliberately simple (it
//! must run in a kernel): a UCB1 multi-armed bandit whose arms are
//! readahead sizes and whose reward is the *operation completion rate*
//! observed in the window after pulling an arm (a VFS-boundary counter —
//! deliberately not the tracepoint volume, which counts wasted prefetch
//! pages as if they were work). No training data, no classifier — it
//! adapts to *any* workload, at the cost of spending windows exploring.
//! The `repro rl` experiment compares it against the supervised tuner.

use kernel_sim::Sim;
use kml_lifecycle::TimeWindow;

/// Per-arm statistics of the bandit.
#[derive(Debug, Clone, Copy, Default)]
struct Arm {
    pulls: u64,
    mean_reward: f64,
}

/// One entry of the bandit's decision log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BanditDecision {
    /// Simulated time of the decision, ns.
    pub time_ns: u64,
    /// Readahead applied, KiB.
    pub ra_kb: u32,
    /// Reward credited to the *previous* arm (ops in its window).
    pub reward: f64,
}

/// UCB1 bandit over readahead sizes, rewarded by per-window throughput.
///
/// Drive it exactly like [`crate::KmlTuner`]: call [`BanditTuner::on_op`]
/// after every workload operation.
#[derive(Debug)]
pub struct BanditTuner {
    arms_kb: Vec<u32>,
    arms: Vec<Arm>,
    exploration: f64,
    clock: TimeWindow,
    window_start: Option<u64>,
    window_ops: u64,
    current_arm: usize,
    total_pulls: u64,
    decisions: Vec<BanditDecision>,
}

impl BanditTuner {
    /// Creates a bandit over the given readahead arms.
    ///
    /// `exploration` scales the UCB bonus (√2 is the classic choice; lower
    /// values exploit sooner, which suits stable workloads).
    ///
    /// # Panics
    ///
    /// Panics if `arms_kb` is empty or `window_ns == 0`.
    pub fn new(arms_kb: Vec<u32>, exploration: f64, window_ns: u64) -> Self {
        assert!(!arms_kb.is_empty(), "bandit needs at least one arm");
        assert!(window_ns > 0, "window must be positive");
        let n = arms_kb.len();
        BanditTuner {
            arms_kb,
            arms: vec![Arm::default(); n],
            exploration,
            clock: TimeWindow::new(window_ns),
            window_start: None,
            window_ops: 0,
            current_arm: 0,
            total_pulls: 0,
            decisions: Vec::new(),
        }
    }

    /// The classic sweep arms: 8..1024 KiB in octaves, with √2 exploration.
    pub fn with_default_arms(window_ns: u64) -> Self {
        BanditTuner::new(
            vec![8, 16, 32, 64, 128, 256, 512, 1024],
            std::f64::consts::SQRT_2,
            window_ns,
        )
    }

    /// The hook invoked after every workload operation.
    pub fn on_op(&mut self, sim: &mut Sim) {
        self.window_ops += 1;
        let now = sim.now_ns();
        let window_start = *self.window_start.get_or_insert(now);
        if !self.clock.closed(now) {
            return;
        }

        // Credit the arm that was active for the elapsed window with the
        // operation completion rate it achieved.
        let elapsed = (now - window_start).max(1) as f64 / 1e9;
        let reward = self.window_ops as f64 / elapsed;
        let arm = &mut self.arms[self.current_arm];
        arm.pulls += 1;
        arm.mean_reward += (reward - arm.mean_reward) / arm.pulls as f64;
        self.total_pulls += 1;

        // UCB1 selection for the next window.
        let next_arm = self.select_arm();
        self.current_arm = next_arm;
        let ra_kb = self.arms_kb[next_arm];
        sim.set_ra_kb(ra_kb);
        self.decisions.push(BanditDecision {
            time_ns: now,
            ra_kb,
            reward,
        });

        self.window_ops = 0;
        self.window_start = Some(now);
    }

    fn select_arm(&self) -> usize {
        // Pull every arm once first.
        if let Some(unpulled) = self.arms.iter().position(|a| a.pulls == 0) {
            return unpulled;
        }
        // Normalize rewards so the exploration bonus is scale-free.
        let max_mean = self
            .arms
            .iter()
            .map(|a| a.mean_reward)
            .fold(f64::MIN, f64::max)
            .max(1e-9);
        let ln_total = kml_core::math::ln(self.total_pulls as f64);
        let mut best = 0;
        let mut best_score = f64::MIN;
        for (i, arm) in self.arms.iter().enumerate() {
            let bonus = self.exploration * kml_core::math::sqrt(ln_total / arm.pulls as f64);
            let score = arm.mean_reward / max_mean + bonus;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// The arm (readahead KiB) currently in force.
    pub fn current_ra_kb(&self) -> u32 {
        self.arms_kb[self.current_arm]
    }

    /// The arm with the highest observed mean reward so far.
    pub fn best_arm_kb(&self) -> u32 {
        let mut best = 0;
        for (i, arm) in self.arms.iter().enumerate() {
            if arm.mean_reward > self.arms[best].mean_reward {
                best = i;
            }
        }
        self.arms_kb[best]
    }

    /// Windows completed (arm pulls) so far.
    pub fn pulls(&self) -> u64 {
        self.total_pulls
    }

    /// The decision log.
    pub fn decisions(&self) -> &[BanditDecision] {
        &self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, SimConfig};

    fn driven_bandit(
        arms: Vec<u32>,
        drive: impl Fn(&mut Sim, &mut dyn FnMut(&mut Sim)),
    ) -> BanditTuner {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::sata_ssd(),
            cache_pages: 1024,
            ..SimConfig::default()
        });
        let mut bandit = BanditTuner::new(arms, 0.5, 2_000_000);
        drive(&mut sim, &mut |sim| bandit.on_op(sim));
        bandit
    }

    #[test]
    fn bandit_explores_every_arm_first() {
        let bandit = driven_bandit(vec![8, 128, 1024], |sim, tick| {
            let f = sim.create_file(1 << 18);
            let mut x = 1u64;
            for _ in 0..3_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                sim.read(f, (x >> 14) % ((1 << 18) - 4), 4).unwrap();
                tick(sim);
            }
        });
        assert!(bandit.pulls() >= 3, "only {} pulls", bandit.pulls());
        // All three arms appear in the decision log.
        let mut seen: Vec<u32> = bandit.decisions().iter().map(|d| d.ra_kb).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![8, 128, 1024]);
    }

    #[test]
    fn bandit_converges_toward_better_arm_for_random_reads() {
        // Random block reads: small readahead beats huge readahead. After
        // warm-up, the bandit should pull the small arm far more often.
        let bandit = driven_bandit(vec![16, 1024], |sim, tick| {
            let f = sim.create_file(1 << 20);
            let mut x = 3u64;
            for _ in 0..40_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                sim.read(f, (x >> 14) % ((1 << 20) - 4), 4).unwrap();
                tick(sim);
            }
        });
        assert!(bandit.pulls() > 20, "too few windows: {}", bandit.pulls());
        assert_eq!(
            bandit.best_arm_kb(),
            16,
            "bandit should learn small readahead wins for random reads"
        );
        // Exploitation dominates the tail of the decision log.
        let tail = &bandit.decisions()[bandit.decisions().len() / 2..];
        let small = tail.iter().filter(|d| d.ra_kb == 16).count();
        assert!(
            small * 2 > tail.len(),
            "tail pulls of the good arm: {small}/{}",
            tail.len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_arms_panics() {
        let _ = BanditTuner::new(vec![], 1.0, 1000);
    }

    #[test]
    fn idle_clock_rotates_arms_safely() {
        let mut sim = Sim::new(SimConfig::default());
        let mut bandit = BanditTuner::with_default_arms(1_000_000);
        // Pure think time: every window sees the same (trivial) op rate, so
        // rewards are uninformative — the bandit must keep exploring
        // without panicking or getting stuck.
        for _ in 0..20 {
            sim.advance(2_000_000);
            bandit.on_op(&mut sim);
        }
        assert!(bandit.pulls() > 0);
    }
}
