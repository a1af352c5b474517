//! Fleet-serving invariants under DST discipline.
//!
//! The shared inference server's contract is that batching is a pure
//! mechanical optimization: grouping windows into B×features forward
//! passes must never change a single tenant's decision. These sweeps arm
//! [`ServeOptions::verify_parity`], which re-derives every batched class
//! with a single-row pass inside the server and panics on the first
//! divergence — so each seed below is a full bit-exactness audit of the
//! batched GEMM path against serial inference, across seed-derived
//! tenant mixes, and at several worker counts.

use kml_fleet::{run_fleet, FleetConfig, FleetModels, FleetSummary, ServeOptions};
use kml_platform::threading;

/// A parity-armed scenario: every batched decision is re-derived
/// serially inside the server and compared bit for bit.
fn parity_cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        tenants: 96,
        rounds: 3,
        shards: 16,
        seed,
        options: ServeOptions {
            verify_parity: true,
            ..ServeOptions::default()
        },
        swaps: kml_fleet::NO_SWAPS,
    }
}

fn run_parity(seed: u64) -> FleetSummary {
    let cfg = parity_cfg(seed);
    run_fleet(&cfg, FleetModels::untrained(seed).unwrap())
        .expect("parity-armed fleet run succeeds")
        .summary
}

/// Seed sweep with parity armed: any batched/serial divergence on any
/// seed-derived tenant mix panics inside the server before the
/// assertions here are even reached.
#[test]
fn fleet_parity_seeds_never_diverge_batched_from_serial() {
    for seed in [1u64, 7, 42, 0xC0FFEE, 0x5EED_0003] {
        let s = run_parity(seed);
        assert_eq!(
            s.windows_submitted, s.decisions_returned,
            "seed 0x{seed:x}: a window was dropped or double-served"
        );
        assert!(
            s.forward_passes < s.windows_submitted,
            "seed 0x{seed:x}: serving never actually batched"
        );
    }
}

/// The parity-armed fleet must also be placement-blind: the same seed
/// yields the same summary at any worker count (inline at 1, on the
/// persistent pool above).
#[test]
fn fleet_parity_summary_is_invariant_across_worker_counts() {
    const SEED: u64 = 0x5EED_0003;
    let run_with = |threads: &str| {
        // run_fleet reads KML_REPRO_THREADS through default_workers.
        std::env::set_var(threading::WORKERS_ENV, threads);
        let s = run_parity(SEED);
        std::env::remove_var(threading::WORKERS_ENV);
        s
    };
    let one = run_with("1");
    let three = run_with("3");
    let eight = run_with("8");
    assert_eq!(one, three, "fleet summary diverged between 1 and 3 workers");
    assert_eq!(one, eight, "fleet summary diverged between 1 and 8 workers");
}
