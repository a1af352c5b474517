//! Property suites for the two determinism-critical pieces of the
//! continual loop:
//!
//! 1. **Reservoir determinism** — same seed ⇒ byte-identical reservoir
//!    contents across item counts, ingestion orderings within a shard,
//!    and worker counts (sharded ingest + merge equals single-stream
//!    ingest).
//! 2. **Drift hysteresis** — bounded noise around a stationary
//!    distribution can never trigger; a scripted sustained shift is
//!    mathematically guaranteed to trigger at a predictable window; and
//!    detector state round-trips through bytes mid-stream without
//!    perturbing subsequent behavior.

use kml_continual::{DriftConfig, DriftDetector, Reservoir, RESERVOIR_DIM};
use kml_platform::sampler::splitmix64 as mix;
use proptest::prelude::*;

fn feat(id: u64) -> [f64; RESERVOIR_DIM] {
    let x = id as f64;
    [x, x * 0.5, x + 2.0, 1000.0 - x, 128.0]
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: u64, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ingesting the same id set in any order — identity, a random
    /// permutation, or reversed — keeps byte-identical contents.
    #[test]
    fn reservoir_is_ingestion_order_independent(
        n in 1u64..400,
        capacity in 1usize..64,
        seed in any::<u64>(),
        shuffle in any::<u64>(),
    ) {
        let mut in_order = Reservoir::new(capacity, seed);
        for id in 0..n {
            in_order.offer(id, feat(id), (id % 2) as usize);
        }
        let mut shuffled = Reservoir::new(capacity, seed);
        for id in permutation(n, shuffle) {
            shuffled.offer(id, feat(id), (id % 2) as usize);
        }
        let mut reversed = Reservoir::new(capacity, seed);
        for id in (0..n).rev() {
            reversed.offer(id, feat(id), (id % 2) as usize);
        }
        prop_assert_eq!(in_order.samples(), shuffled.samples());
        prop_assert_eq!(in_order.samples(), reversed.samples());
        prop_assert_eq!(in_order.contents_hash(), shuffled.contents_hash());
        prop_assert_eq!(in_order.contents_hash(), reversed.contents_hash());
        prop_assert!(in_order.len() == capacity.min(n as usize));
    }

    /// Sharding the stream over any worker count and merging the shard
    /// reservoirs equals one reservoir fed the whole stream — worker
    /// count cannot steer the training set.
    #[test]
    fn reservoir_sharded_merge_equals_single_stream(
        n in 1u64..400,
        capacity in 1usize..64,
        seed in any::<u64>(),
        workers in 1usize..9,
    ) {
        let mut whole = Reservoir::new(capacity, seed);
        for id in 0..n {
            whole.offer(id, feat(id), 0);
        }
        let mut shards: Vec<Reservoir> =
            (0..workers).map(|_| Reservoir::new(capacity, seed)).collect();
        for id in 0..n {
            shards[(id % workers as u64) as usize].offer(id, feat(id), 0);
        }
        let mut merged = shards.remove(0);
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged.samples(), whole.samples());
        prop_assert_eq!(merged.contents_hash(), whole.contents_hash());
        prop_assert_eq!(merged.seen(), whole.seen());
    }

    /// Bounded noise can never trigger: with |noise| ≤ d, any block mean
    /// sits within 2d of the reference mean, so keeping
    /// 2d ≤ threshold · abs_floor bounds every score at the threshold —
    /// strictly below the "hot" criterion — no matter how the noise
    /// lands.
    #[test]
    fn drift_never_triggers_on_bounded_noise(
        base in -1000.0f64..1000.0,
        noise_seed in any::<u64>(),
        channels in 1usize..5,
        windows in 50u32..250,
    ) {
        let cfg = DriftConfig {
            reference_windows: 6,
            block_windows: 3,
            threshold: 4.0,
            trigger_blocks: 2,
            abs_floor: 1.0,
        };
        // d = threshold * abs_floor / 2.
        let d = 2.0;
        let mut det = DriftDetector::new(channels, cfg);
        for w in 0..windows {
            let vals: Vec<f64> = (0..channels)
                .map(|c| {
                    let r = mix(noise_seed ^ u64::from(w) ^ ((c as u64) << 32));
                    // Uniform in [-d, d].
                    base + (r as f64 / u64::MAX as f64 * 2.0 - 1.0) * d
                })
                .collect();
            prop_assert!(!det.observe(&vals), "noise triggered at window {}", w);
        }
        prop_assert_eq!(det.triggers(), 0);
    }

    /// A sustained shift is guaranteed to trigger, at exactly the first
    /// window arithmetic allows: constant reference (std 0 ⇒ denominator
    /// is abs_floor), then a constant shifted value beyond
    /// threshold · abs_floor makes every block hot.
    #[test]
    fn drift_always_triggers_on_sustained_shift(
        base in -1000.0f64..1000.0,
        delta_mag in 4.1f64..500.0,
        negative in any::<bool>(),
        channels in 1usize..5,
    ) {
        let cfg = DriftConfig {
            reference_windows: 5,
            block_windows: 2,
            threshold: 4.0,
            trigger_blocks: 3,
            abs_floor: 1.0,
        };
        let delta = if negative { -delta_mag } else { delta_mag };
        let mut det = DriftDetector::new(channels, cfg);
        let refs = vec![base; channels];
        for _ in 0..cfg.reference_windows {
            prop_assert!(!det.observe(&refs));
        }
        let shifted = vec![base + delta; channels];
        // Trigger lands exactly when the trigger_blocks-th hot block
        // completes: trigger_blocks * block_windows shifted windows.
        let span = cfg.trigger_blocks * cfg.block_windows;
        for w in 0..span - 1 {
            prop_assert!(!det.observe(&shifted), "early trigger at shifted window {}", w);
        }
        prop_assert!(det.observe(&shifted), "no trigger at the guaranteed window");
        prop_assert_eq!(det.triggers(), 1);
        // Hysteresis: the shifted level is the new baseline; holding it
        // never re-triggers.
        for _ in 0..6 * span {
            prop_assert!(!det.observe(&shifted));
        }
        prop_assert_eq!(det.triggers(), 1);
    }

    /// Detector state round-trips through bytes at an arbitrary point in
    /// an arbitrary stream, and the restored detector behaves
    /// identically from there on.
    #[test]
    fn drift_state_round_trips_mid_stream(
        stream_seed in any::<u64>(),
        split in 1u32..120,
        channels in 1usize..4,
    ) {
        let cfg = DriftConfig {
            reference_windows: 4,
            block_windows: 2,
            threshold: 3.0,
            trigger_blocks: 2,
            abs_floor: 0.5,
        };
        let window = |w: u32| -> Vec<f64> {
            (0..channels)
                .map(|c| {
                    let r = mix(stream_seed ^ u64::from(w) ^ ((c as u64) << 40));
                    // Mix of calm stretches and violent jumps so round
                    // trips are exercised across phases and triggers.
                    if r.is_multiple_of(11) {
                        500.0
                    } else {
                        (r % 16) as f64
                    }
                })
                .collect()
        };
        let mut live = DriftDetector::new(channels, cfg);
        for w in 0..split {
            live.observe(&window(w));
        }
        let bytes = live.to_bytes();
        let mut restored = DriftDetector::from_bytes(&bytes)
            .ok_or_else(|| TestCaseError("state failed to deserialize".into()))?;
        prop_assert_eq!(&restored, &live);
        prop_assert_eq!(restored.to_bytes(), bytes, "re-serialization must be stable");
        for w in split..split + 100 {
            let v = window(w);
            prop_assert_eq!(live.observe(&v), restored.observe(&v), "diverged at window {}", w);
        }
        prop_assert_eq!(&restored, &live);
        prop_assert_eq!(live.to_bytes(), restored.to_bytes());
    }
}
