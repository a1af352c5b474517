//! The drift detector: per-channel distribution sketches plus a
//! divergence score with hysteresis.
//!
//! The detector runs in two phases per cycle:
//!
//! * **Reference** — the first `reference_windows` windows after (re)arm
//!   build a per-channel Welford sketch (mean + variance). On completion
//!   the sketch is frozen as the baseline.
//! * **Monitor** — subsequent windows accumulate into blocks of
//!   `block_windows`. Each completed block scores
//!   `max over channels of |block_mean − ref_mean| / max(ref_std / √block_windows, abs_floor)`,
//!   a z-score of the block *mean* against the frozen baseline — the
//!   denominator is the standard error of a block-sized sample, so noisy
//!   channels still resolve a sustained step once blocks average their
//!   window-to-window scatter away. A block
//!   above `threshold` increments the hot counter; a block at or below
//!   it clears the counter. Only `trigger_blocks` *consecutive* hot
//!   blocks fire a drift trigger — bounded noise cannot sustain that,
//!   while a genuine distribution shift must.
//!
//! On trigger the detector re-arms into Reference, so the post-shift
//! distribution becomes the new baseline and the same shift can never
//! re-trigger — that re-baseline *is* the hysteresis.
//!
//! Everything is pure integer/f64 arithmetic over the values observed:
//! no clocks, no randomness. Same window stream in, same triggers out.

use kml_platform::bytes::{put_f64, put_u32, put_u64, Reader, Truncated};

/// Bytes one channel occupies in [`DriftDetector::to_bytes`]: four `f64`s.
const CHANNEL_BYTES: usize = 32;

/// Tuning knobs for [`DriftDetector`]. All counts are in windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Windows spent building the baseline sketch after (re)arm.
    pub reference_windows: u32,
    /// Windows aggregated into one scored block.
    pub block_windows: u32,
    /// Z-score a block must exceed to count as hot.
    pub threshold: f64,
    /// Consecutive hot blocks required to fire a trigger.
    pub trigger_blocks: u32,
    /// Lower bound on the score denominator (the block mean's standard
    /// error), so constant reference channels (std 0) don't make the
    /// score blow up on the first ulp of change.
    pub abs_floor: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            reference_windows: 8,
            block_windows: 4,
            threshold: 4.0,
            trigger_blocks: 2,
            abs_floor: 1.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Reference,
    Monitor,
}

/// One channel's state: a Welford sketch while in Reference, a frozen
/// baseline plus a block accumulator while in Monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Channel {
    mean: f64,
    m2: f64,
    ref_std: f64,
    block_sum: f64,
}

impl Channel {
    fn zero() -> Self {
        Channel {
            mean: 0.0,
            m2: 0.0,
            ref_std: 0.0,
            block_sum: 0.0,
        }
    }
}

/// Deterministic sustained-shift detector. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    cfg: DriftConfig,
    channels: Vec<Channel>,
    phase: Phase,
    /// Windows folded into the current phase (Reference) or block (Monitor).
    filled: u32,
    /// Consecutive hot blocks.
    hot: u32,
    /// Lifetime windows observed.
    windows_seen: u64,
    /// Lifetime triggers fired.
    triggers: u64,
    /// Score of the most recently completed block.
    last_score: f64,
}

impl DriftDetector {
    /// A detector over `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or any window/block count in the
    /// config is zero — those are configuration bugs.
    pub fn new(channels: usize, cfg: DriftConfig) -> Self {
        assert!(channels > 0, "drift detector needs at least one channel");
        assert!(
            cfg.reference_windows > 0,
            "reference_windows must be positive"
        );
        assert!(cfg.block_windows > 0, "block_windows must be positive");
        assert!(cfg.trigger_blocks > 0, "trigger_blocks must be positive");
        assert!(cfg.abs_floor > 0.0, "abs_floor must be positive");
        DriftDetector {
            cfg,
            channels: vec![Channel::zero(); channels],
            phase: Phase::Reference,
            filled: 0,
            hot: 0,
            windows_seen: 0,
            triggers: 0,
            last_score: 0.0,
        }
    }

    /// Folds one window's feature vector in. Returns `true` exactly when
    /// this window completes a sustained-shift trigger (the detector has
    /// already re-armed into Reference when it does).
    ///
    /// # Panics
    ///
    /// Panics if `features` is not the channel count given at
    /// construction — width mismatch means the caller wired the wrong
    /// window stream in.
    pub fn observe(&mut self, features: &[f64]) -> bool {
        assert_eq!(
            features.len(),
            self.channels.len(),
            "window width does not match detector channels"
        );
        self.windows_seen += 1;
        match self.phase {
            Phase::Reference => {
                self.filled += 1;
                let n = f64::from(self.filled);
                for (ch, &x) in self.channels.iter_mut().zip(features) {
                    let delta = x - ch.mean;
                    ch.mean += delta / n;
                    ch.m2 += delta * (x - ch.mean);
                }
                if self.filled == self.cfg.reference_windows {
                    let denom = f64::from(self.filled.max(2) - 1);
                    for ch in &mut self.channels {
                        ch.ref_std = (ch.m2 / denom).sqrt();
                        ch.block_sum = 0.0;
                    }
                    self.phase = Phase::Monitor;
                    self.filled = 0;
                    self.hot = 0;
                }
                false
            }
            Phase::Monitor => {
                self.filled += 1;
                for (ch, &x) in self.channels.iter_mut().zip(features) {
                    ch.block_sum += x;
                }
                if self.filled < self.cfg.block_windows {
                    return false;
                }
                let block_n = f64::from(self.cfg.block_windows);
                let mut score: f64 = 0.0;
                for ch in &mut self.channels {
                    let block_mean = ch.block_sum / block_n;
                    // Standard error of the block mean, floored so a
                    // constant reference channel can't blow the score up.
                    let denom = (ch.ref_std / block_n.sqrt()).max(self.cfg.abs_floor);
                    score = score.max((block_mean - ch.mean).abs() / denom);
                    ch.block_sum = 0.0;
                }
                self.filled = 0;
                self.last_score = score;
                if score > self.cfg.threshold {
                    self.hot += 1;
                } else {
                    self.hot = 0;
                }
                if self.hot >= self.cfg.trigger_blocks {
                    self.triggers += 1;
                    self.rearm();
                    return true;
                }
                false
            }
        }
    }

    /// Drops the baseline and returns to Reference — the next
    /// `reference_windows` windows define a fresh one.
    pub fn rearm(&mut self) {
        for ch in &mut self.channels {
            *ch = Channel::zero();
        }
        self.phase = Phase::Reference;
        self.filled = 0;
        self.hot = 0;
    }

    /// Whether the baseline is frozen and blocks are being scored.
    pub fn monitoring(&self) -> bool {
        self.phase == Phase::Monitor
    }

    /// Score of the most recently completed block (0.0 before any).
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Lifetime triggers fired.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Lifetime windows observed.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Serializes the full detector state (config included) to a
    /// deterministic little-endian byte string. `from_bytes` inverts it
    /// exactly: every f64 travels as `to_bits`, so the round trip is
    /// bit-precise, not just approximately equal.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.channels.len() * CHANNEL_BYTES);
        put_u32(&mut out, self.cfg.reference_windows);
        put_u32(&mut out, self.cfg.block_windows);
        put_f64(&mut out, self.cfg.threshold);
        put_u32(&mut out, self.cfg.trigger_blocks);
        put_f64(&mut out, self.cfg.abs_floor);
        put_u32(&mut out, self.channels.len() as u32);
        put_u32(
            &mut out,
            match self.phase {
                Phase::Reference => 0,
                Phase::Monitor => 1,
            },
        );
        put_u32(&mut out, self.filled);
        put_u32(&mut out, self.hot);
        put_u64(&mut out, self.windows_seen);
        put_u64(&mut out, self.triggers);
        put_f64(&mut out, self.last_score);
        for ch in &self.channels {
            put_f64(&mut out, ch.mean);
            put_f64(&mut out, ch.m2);
            put_f64(&mut out, ch.ref_std);
            put_f64(&mut out, ch.block_sum);
        }
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes). Returns `None` on any
    /// length mismatch or out-of-range field.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Self::decode(bytes).ok().flatten()
    }

    /// `Err` where the bytes run out, `Ok(None)` on an out-of-range field.
    fn decode(bytes: &[u8]) -> Result<Option<Self>, Truncated> {
        let mut cur = Reader::new(bytes);
        let cfg = DriftConfig {
            reference_windows: cur.u32()?,
            block_windows: cur.u32()?,
            threshold: cur.f64()?,
            trigger_blocks: cur.u32()?,
            abs_floor: cur.f64()?,
        };
        let n = cur.u32()? as usize;
        if n == 0 || n > 4096 {
            return Ok(None);
        }
        let phase = match cur.u32()? {
            0 => Phase::Reference,
            1 => Phase::Monitor,
            _ => return Ok(None),
        };
        let filled = cur.u32()?;
        let hot = cur.u32()?;
        let windows_seen = cur.u64()?;
        let triggers = cur.u64()?;
        let last_score = cur.f64()?;
        let mut channels = Vec::with_capacity(cur.counted(n, CHANNEL_BYTES)?);
        for _ in 0..n {
            channels.push(Channel {
                mean: cur.f64()?,
                m2: cur.f64()?,
                ref_std: cur.f64()?,
                block_sum: cur.f64()?,
            });
        }
        if cur.remaining() != 0 {
            return Ok(None);
        }
        Ok(Some(DriftDetector {
            cfg,
            channels,
            phase,
            filled,
            hot,
            windows_seen,
            triggers,
            last_score,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriftConfig {
        DriftConfig {
            reference_windows: 4,
            block_windows: 2,
            threshold: 3.0,
            trigger_blocks: 2,
            abs_floor: 1.0,
        }
    }

    #[test]
    fn stationary_stream_never_triggers() {
        let mut d = DriftDetector::new(2, cfg());
        for i in 0..200u32 {
            let wiggle = if i % 2 == 0 { 0.5 } else { -0.5 };
            assert!(!d.observe(&[10.0 + wiggle, 5.0 - wiggle]));
        }
        assert_eq!(d.triggers(), 0);
        assert!(d.monitoring());
    }

    #[test]
    fn sustained_shift_triggers_then_rebaselines() {
        let mut d = DriftDetector::new(1, cfg());
        for _ in 0..20 {
            assert!(!d.observe(&[10.0]));
        }
        // Shift: trigger needs trigger_blocks * block_windows = 4 shifted
        // windows once monitoring.
        let mut fired = 0;
        for _ in 0..4 {
            if d.observe(&[100.0]) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "exactly one trigger on the sustained shift");
        assert_eq!(d.triggers(), 1);
        assert!(!d.monitoring(), "re-armed into Reference after trigger");
        // The shifted distribution becomes the new baseline: staying at
        // 100.0 never re-triggers.
        for _ in 0..100 {
            assert!(!d.observe(&[100.0]));
        }
        assert_eq!(d.triggers(), 1);
    }

    #[test]
    fn single_hot_block_is_not_enough() {
        let mut d = DriftDetector::new(1, cfg());
        for _ in 0..4 {
            d.observe(&[10.0]);
        }
        // One hot block (2 windows), then back to baseline.
        assert!(!d.observe(&[100.0]));
        assert!(!d.observe(&[100.0]));
        for _ in 0..50 {
            assert!(!d.observe(&[10.0]));
        }
        assert_eq!(d.triggers(), 0, "a transient spike must not trigger");
    }

    #[test]
    fn state_round_trips_exactly() {
        let mut d = DriftDetector::new(3, cfg());
        for i in 0..13u32 {
            d.observe(&[f64::from(i), 10.0 - f64::from(i) * 0.25, 0.125]);
        }
        let bytes = d.to_bytes();
        let back = DriftDetector::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, d);
        // And the restored detector continues identically.
        let mut live = d.clone();
        let mut restored = back;
        for i in 0..40u32 {
            let w = [f64::from(i) * 7.5, -1.0, 2.0];
            assert_eq!(live.observe(&w), restored.observe(&w));
        }
        assert_eq!(live, restored);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(DriftDetector::from_bytes(&[]).is_none());
        assert!(DriftDetector::from_bytes(&[0xFF; 7]).is_none());
        let mut ok = DriftDetector::new(1, cfg()).to_bytes();
        ok.push(0); // trailing byte
        assert!(DriftDetector::from_bytes(&ok).is_none());
    }

    #[test]
    fn zero_variance_reference_uses_abs_floor() {
        // Constant reference => ref_std 0 => denominator is abs_floor.
        // A shift of exactly threshold*abs_floor must NOT trigger (score
        // is not strictly greater), but anything beyond must.
        let mut d = DriftDetector::new(1, cfg());
        for _ in 0..4 {
            d.observe(&[5.0]);
        }
        for _ in 0..8 {
            assert!(!d.observe(&[5.0 + 3.0]), "score == threshold is not hot");
        }
        let mut fired = false;
        for _ in 0..4 {
            fired |= d.observe(&[5.0 + 3.5]);
        }
        assert!(fired, "shift beyond threshold*abs_floor triggers");
    }

    /// Byte identity of the state mid-Monitor (one window into a block),
    /// recorded on the parent commit (1fb2a81), before the codec moved
    /// onto `kml_platform::bytes`.
    #[test]
    fn state_bytes_match_the_parent_commit() {
        let mut d = DriftDetector::new(3, cfg());
        for i in 0..11u32 {
            let w = [
                10.0 + f64::from(i % 3) * 0.5,
                5.0 - f64::from(i % 2) * 0.25,
                0.125,
            ];
            assert!(!d.observe(&w));
        }
        assert!(d.monitoring());
        let bytes = d.to_bytes();
        assert_eq!(bytes.len(), 164);
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(&bytes),
            0x1ea8_2c48_781a_406c
        );
    }
}
