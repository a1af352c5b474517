//! The DST entry points.
//!
//! - A fixed-seed smoke sweep (CI's `dst-smoke` job).
//! - A wider sweep whose size scales with `KML_DST_CASES` (CI's nightly
//!   sweep sets it; unset, a handful of seeds run).
//! - Determinism: the same seed replays byte-identically, alone and
//!   under the persistent `WorkerPool` at any worker count.
//! - Validation: the deliberately-buggy store (lose-memtable-on-failed-
//!   flush) must be *caught*, shrunk to a minimal scenario, and that
//!   minimal reproducer must replay to the same invariant violation.
//! - `replays_reproducer_from_env`: paste a printed
//!   `KML_DST_SEED=… KML_DST_OPS=…` line in front of `cargo test -p
//!   kml-dst` and this test re-runs exactly that scenario, failing with
//!   the full report if the bug is still there.

use kml_dst::{run, shrink, FaultMask, Outcome, Scenario};
use kml_platform::threading::pool_map;

/// Ops per scenario in the sweeps — enough for several tuner windows,
/// flushes, and compactions on every seed-derived geometry.
const SWEEP_OPS: u64 = 400;

fn run_or_report(scenario: &Scenario) -> u64 {
    match run(scenario) {
        Outcome::Pass(s) => s.trace_hash,
        Outcome::Fail(r) => {
            let minimal = shrink(&r);
            panic!(
                "{}\nshrunk ({} attempts) to:\n{}",
                r, minimal.attempts, minimal.report
            );
        }
    }
}

#[test]
fn smoke_seeds_uphold_all_invariants() {
    for seed in [1u64, 7, 42, 0xC0FFEE, 0xDEAD_BEEF, 0x5EED_0001] {
        run_or_report(&Scenario::from_seed(seed, SWEEP_OPS));
    }
}

/// Pinned trace hashes for the smoke seeds. Any arithmetic change anywhere
/// in the simulated stack — kernels, activation math, training order —
/// shifts these; a refactor that claims bit-exactness (like the blocked
/// GEMM kernels) must leave every one unchanged.
#[test]
fn smoke_seed_trace_hashes_are_pinned() {
    const PINNED: [(u64, u64); 6] = [
        (0x1, 0xb2fae01ba0b891cc),
        (0x7, 0xc9c60934ea50b183),
        (0x2a, 0xbdfb480c188117e8),
        (0xC0FFEE, 0x78f3a72ddaf667a9),
        (0xDEAD_BEEF, 0xbb95304ba9aa4d9c),
        (0x5EED_0001, 0x9779714a9eb0538f),
    ];
    for (seed, want) in PINNED {
        let got = run_or_report(&Scenario::from_seed(seed, SWEEP_OPS));
        assert_eq!(
            got, want,
            "seed 0x{seed:x}: trace hash 0x{got:016x} != pinned 0x{want:016x} — \
             the simulated stack's arithmetic changed"
        );
    }
}

#[test]
fn netfs_smoke_seeds_uphold_rpc_invariants() {
    for seed in [1u64, 7, 42, 0xC0FFEE, 0x5EED_0002] {
        run_or_report(&Scenario::netfs_from_seed(seed, SWEEP_OPS));
    }
}

/// Pinned trace hash for one netfs smoke seed: the network path's
/// arithmetic — transport draws, backoff ladders, DRC behaviour, tuner
/// windows — is part of the bit-exactness contract too.
#[test]
fn netfs_smoke_seed_trace_hash_is_pinned() {
    const SEED: u64 = 0x5EED_0002;
    const PINNED: u64 = 0x1dca_e8fc_2624_1a7f;
    let got = run_or_report(&Scenario::netfs_from_seed(SEED, SWEEP_OPS));
    assert_eq!(
        got, PINNED,
        "netfs seed 0x{SEED:x}: trace hash 0x{got:016x} != pinned 0x{PINNED:016x} — \
         the network stack's arithmetic changed"
    );
}

#[test]
fn lifecycle_smoke_seeds_uphold_all_invariants() {
    for seed in [1u64, 7, 42, 0x5EED_0004] {
        run_or_report(&Scenario::lifecycle_from_seed(seed, SWEEP_OPS));
        run_or_report(&Scenario::netfs_lifecycle_from_seed(seed, SWEEP_OPS));
    }
}

/// Pinned trace hashes for the lifecycle smoke seed on both stacks, plus
/// the demonstration the archetype demands: the scripted arc must
/// actually promote a shadow after its clean windows *and* roll back the
/// deliberately regressed install — deterministically, since the hash
/// (which covers the `lc_*` events) is pinned.
#[test]
fn lifecycle_smoke_seed_trace_hashes_are_pinned() {
    const SEED: u64 = 0x5EED_0004;
    const PINNED_LSM: u64 = 0xc9a4_6ea7_5130_f586;
    const PINNED_NETFS: u64 = 0x6d19_dc1e_5a7c_f6f5;
    for (scenario, pinned, stack) in [
        (
            Scenario::lifecycle_from_seed(SEED, SWEEP_OPS),
            PINNED_LSM,
            "lsm",
        ),
        (
            Scenario::netfs_lifecycle_from_seed(SEED, SWEEP_OPS),
            PINNED_NETFS,
            "netfs",
        ),
    ] {
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert!(
                    s.promotions >= 1,
                    "{stack}: the scripted shadow was never promoted"
                );
                assert!(
                    s.rollbacks >= 1,
                    "{stack}: the regressed install was never rolled back"
                );
                assert_eq!(
                    s.trace_hash, pinned,
                    "{stack} seed 0x{SEED:x}: trace hash 0x{:016x} != pinned 0x{pinned:016x} — \
                     the lifecycle arc or the stack's arithmetic changed",
                    s.trace_hash
                );
            }
            Outcome::Fail(r) => panic!("{r}"),
        }
    }
}

/// The lifecycle sweep. A handful of seeds by default; CI's
/// `lifecycle-smoke` job sets `KML_DST_LIFECYCLE=1` (plus
/// `KML_DST_CASES`) to widen it. Even seeds run the LSM/readahead stack
/// under device faults, odd seeds the netfs rsize stack under network
/// faults — and the whole sweep must be byte-identical at any
/// pool worker count.
#[test]
fn lifecycle_sweep_scales_with_env_and_is_deterministic_at_any_worker_count() {
    let cases: u64 = if std::env::var("KML_DST_LIFECYCLE").is_ok_and(|v| v == "1") {
        std::env::var("KML_DST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16)
    } else {
        4
    };
    let seeds: Vec<u64> = (0..cases).map(|i| 0x4000 + i).collect();
    let run_one = |&seed: &u64| {
        let scenario = if seed % 2 == 0 {
            Scenario::lifecycle_from_seed(seed, SWEEP_OPS)
        } else {
            Scenario::netfs_lifecycle_from_seed(seed, SWEEP_OPS)
        };
        run_or_report(&scenario)
    };
    let hashes_1 = pool_map(&seeds, 1, |_, seed| run_one(seed));
    let hashes_3 = pool_map(&seeds, 3, |_, seed| run_one(seed));
    let hashes_8 = pool_map(&seeds, 8, |_, seed| run_one(seed));
    assert_eq!(
        hashes_1, hashes_3,
        "lifecycle sweep diverged between 1 and 3 workers"
    );
    assert_eq!(
        hashes_1, hashes_8,
        "lifecycle sweep diverged between 1 and 8 workers"
    );
}

#[test]
fn netfs_sweep_scales_with_env_and_is_deterministic_at_any_worker_count() {
    let cases: u64 = std::env::var("KML_DST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let seeds: Vec<u64> = (0..cases).map(|i| 0x2000 + i).collect();
    let hashes_1 = pool_map(&seeds, 1, |_, &seed| {
        run_or_report(&Scenario::netfs_from_seed(seed, SWEEP_OPS))
    });
    let hashes_3 = pool_map(&seeds, 3, |_, &seed| {
        run_or_report(&Scenario::netfs_from_seed(seed, SWEEP_OPS))
    });
    let hashes_8 = pool_map(&seeds, 8, |_, &seed| {
        run_or_report(&Scenario::netfs_from_seed(seed, SWEEP_OPS))
    });
    assert_eq!(
        hashes_1, hashes_3,
        "netfs sweep diverged between 1 and 3 workers"
    );
    assert_eq!(
        hashes_1, hashes_8,
        "netfs sweep diverged between 1 and 8 workers"
    );
}

#[test]
fn sweep_scales_with_env_and_is_deterministic_at_any_worker_count() {
    let cases: u64 = std::env::var("KML_DST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let seeds: Vec<u64> = (0..cases).map(|i| 0x1000 + i).collect();
    // The whole sweep, at three different worker counts: every scenario
    // builds its own world from the seed, so placement must not matter.
    let hashes_1 = pool_map(&seeds, 1, |_, &seed| {
        run_or_report(&Scenario::from_seed(seed, SWEEP_OPS))
    });
    let hashes_3 = pool_map(&seeds, 3, |_, &seed| {
        run_or_report(&Scenario::from_seed(seed, SWEEP_OPS))
    });
    let hashes_8 = pool_map(&seeds, 8, |_, &seed| {
        run_or_report(&Scenario::from_seed(seed, SWEEP_OPS))
    });
    assert_eq!(hashes_1, hashes_3, "sweep diverged between 1 and 3 workers");
    assert_eq!(hashes_1, hashes_8, "sweep diverged between 1 and 8 workers");
}

#[test]
fn same_seed_replays_byte_identically() {
    let scenario = Scenario::from_seed(0x0DD5_EED5, SWEEP_OPS);
    let (a, b) = (run(&scenario), run(&scenario));
    match (a, b) {
        (Outcome::Pass(x), Outcome::Pass(y)) => {
            assert_eq!(x, y, "two runs of one seed disagreed");
            assert!(x.injected.total() > 0, "scenario injected nothing");
            assert!(x.io_errors > 0, "no op ever saw an injected error");
        }
        (Outcome::Fail(r), _) | (_, Outcome::Fail(r)) => panic!("{r}"),
    }
}

#[test]
fn deliberate_lsm_bug_is_caught_shrunk_and_replayed() {
    // The harness's own end-to-end validation: arm the store's deliberate
    // lose-memtable-on-failed-flush bug and demand the invariants catch
    // it, the shrinker minimise it, and the minimal reproducer replay to
    // the same violation.
    for seed in 0u64..32 {
        let scenario = Scenario::from_seed(seed, SWEEP_OPS).with_lsm_bug();
        let report = match run(&scenario) {
            Outcome::Pass(_) => continue, // this seed never failed a flush
            Outcome::Fail(r) => r,
        };
        assert_eq!(
            report.invariant, "I1.lsm-vs-reference",
            "lost keys must surface as a store-vs-reference divergence, got: {report}"
        );
        let minimal = shrink(&report);
        assert!(
            minimal.scenario.ops <= report.scenario.ops,
            "shrinking must never grow the scenario"
        );
        // Write-path faults trigger the bug; the read-only kinds should
        // have been shrunk away.
        assert!(
            !minimal.scenario.disabled.contains(FaultMask::WRITE_ERROR)
                || !minimal.scenario.disabled.contains(FaultMask::TORN_WRITE),
            "shrinker disabled every write fault yet the bug still fired: {}",
            minimal.report
        );
        // An LSM scenario never reads the network, lifecycle or continual
        // kinds, so the shrinker must neither spend a run on them nor pad
        // the reproducer with them: one cap probe, at most ⌈log2 400⌉ = 9
        // bisection runs, one run per device kind (14 kinds used to make
        // this 23 on seed 0).
        let foreign = FaultMask(!0x3F);
        assert_eq!(
            minimal.scenario.disabled.0 & foreign.0,
            0,
            "minimal reproducer names a kind the LSM stack never reads: {}",
            minimal.reproducer()
        );
        assert!(
            minimal.attempts <= 1 + 9 + 6,
            "shrinking took {} runs",
            minimal.attempts
        );
        // The printed line is the contract: replaying the minimal scenario
        // must hit the same invariant at the same step.
        println!(
            "minimal reproducer ({} runs): {}",
            minimal.attempts,
            minimal.reproducer()
        );
        match run(&minimal.scenario) {
            Outcome::Fail(replayed) => {
                assert_eq!(replayed.invariant, minimal.report.invariant);
                assert_eq!(replayed.step, minimal.report.step);
                assert_eq!(replayed.detail, minimal.report.detail);
            }
            Outcome::Pass(_) => panic!(
                "minimal reproducer did not reproduce: {}",
                minimal.reproducer()
            ),
        }
        return;
    }
    panic!(
        "no seed in 0..32 ever tripped the armed LSM bug — faults too weak to validate the harness"
    );
}

#[test]
fn replays_reproducer_from_env() {
    let Ok(seed_str) = std::env::var("KML_DST_SEED") else {
        return; // no reproducer requested
    };
    let seed = seed_str
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| seed_str.parse())
        .expect("KML_DST_SEED must be decimal or 0x-hex");
    let ops = std::env::var("KML_DST_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SWEEP_OPS);
    let mut scenario = if std::env::var("KML_DST_NETFS").is_ok_and(|v| v == "1") {
        Scenario::netfs_from_seed(seed, ops)
    } else {
        Scenario::from_seed(seed, ops)
    };
    if std::env::var("KML_DST_LIFECYCLE").is_ok_and(|v| v == "1") {
        scenario.lifecycle = true;
    }
    if std::env::var("KML_DST_CONTINUAL").is_ok_and(|v| v == "1") {
        scenario.continual = true;
    }
    if let Ok(disable) = std::env::var("KML_DST_DISABLE") {
        scenario.disabled = FaultMask::from_env(&disable);
    }
    if std::env::var("KML_DST_LSM_BUG").is_ok_and(|v| v == "1") {
        scenario = scenario.with_lsm_bug();
    }
    match run(&scenario) {
        Outcome::Pass(s) => println!(
            "scenario passed: {} steps, {} injected faults, {} op errors, trace 0x{:016x}",
            s.steps,
            s.injected.total(),
            s.io_errors,
            s.trace_hash
        ),
        Outcome::Fail(r) => panic!("{r}"),
    }
}
