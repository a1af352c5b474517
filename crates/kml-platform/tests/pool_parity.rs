//! Property tests pinning [`WorkerPool`] to the serial map it is specified
//! against.
//!
//! The fleet (and every repro sweep) dispatches through the persistent
//! pool; these properties are the contract that lets it claim
//! byte-identical output at any worker count: for *arbitrary* item counts ×
//! worker counts the pooled map returns exactly what
//! `items.iter().enumerate().map(..)` returns, and a panicking task neither
//! wedges nor poisons the pool for subsequent dispatches. (The scoped-spawn
//! `parallel_map` these were first written against went once the pool had
//! taken its last caller; EXPERIMENTS.md E18 records the final cross-check.)

use std::sync::atomic::{AtomicU64, Ordering};

use kml_platform::threading::WorkerPool;
use proptest::prelude::*;

/// A deterministic, item-dependent workload: mixes the index and value so
/// any scheduling mistake (skipped index, double-run, slot/index swap)
/// changes the output.
fn mix(i: usize, x: u64) -> u64 {
    let mut h = x ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 29;
    h
}

/// What every dispatch must return: `mix` over the items, in item order.
fn serial(items: &[u64]) -> Vec<u64> {
    items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pooled map == serial reference for arbitrary item × worker counts,
    /// including workers > items, workers > pool threads, and 0/1 items.
    #[test]
    fn pooled_map_matches_serial_reference(
        items in proptest::collection::vec(any::<u64>(), 0..300),
        workers in 1usize..12,
        pool_threads in 0usize..6,
    ) {
        let pool = WorkerPool::new(pool_threads);
        let pooled = pool.map(&items, workers, |i, &x| mix(i, x));
        prop_assert_eq!(serial(&items), pooled);
    }

    /// Back-to-back dispatches with varying shapes on one pool stay
    /// identical to the reference — the epoch protocol resets cleanly.
    #[test]
    fn repeated_dispatches_stay_identical(
        shapes in proptest::collection::vec((0usize..120, 1usize..9), 1..8),
    ) {
        let pool = WorkerPool::new(4);
        for (n, workers) in shapes {
            let items: Vec<u64> = (0..n as u64).collect();
            let pooled = pool.map(&items, workers, |i, &x| mix(i, x));
            prop_assert_eq!(serial(&items), pooled);
        }
    }

    /// A panicking task propagates to the dispatcher and leaves the pool
    /// fully usable: the next dispatch still matches the reference.
    #[test]
    fn panic_does_not_wedge_or_poison_the_pool(
        n in 2usize..100,
        workers in 2usize..8,
        victim_seed in any::<u64>(),
    ) {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..n as u64).collect();
        let victim = (victim_seed % n as u64) as usize;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, workers, |i, &x| {
                if i == victim {
                    panic!("victim task {i}");
                }
                mix(i, x)
            })
        }));
        prop_assert!(result.is_err(), "panic must reach the dispatcher");
        let pooled = pool.map(&items, workers, |i, &x| mix(i, x));
        prop_assert_eq!(serial(&items), pooled);
    }
}

/// `run` hands out every index exactly once even when workers outnumber
/// both tasks and pool threads (non-proptest: exercises the slot API).
#[test]
fn run_visits_every_index_once_under_oversubscription() {
    let pool = WorkerPool::new(2);
    for tasks in [0usize, 1, 2, 7, 63, 256] {
        let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
        pool.run(16, tasks, |slot, i| {
            assert!(slot <= pool.max_slot());
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "tasks={tasks}"
        );
    }
}
