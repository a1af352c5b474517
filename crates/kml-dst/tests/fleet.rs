//! Fleet-serving invariants under DST discipline.
//!
//! The shared inference server's contract is that batching is a pure
//! mechanical optimization: grouping windows into B×features forward
//! passes must never change a single tenant's decision. Each seed below
//! builds its fleet rounds from the public tenant and server calls and
//! serves every round twice, in lockstep: on a batched server and on a
//! [`ServeOptions::serial_inference`] server, whose chunks are single
//! rows. The two must answer response for response, so each seed is a
//! full bit-exactness audit of the batched GEMM path against one-row
//! inference across a seed-derived tenant mix. `run_fleet` is checked
//! against the same composition in `kml-fleet`'s own tests, and here for
//! placement blindness at several worker counts.

use kml_fleet::{
    run_fleet, FleetConfig, FleetModels, FleetSampler, FleetSummary, InferRequest, InferenceServer,
    ServeOptions, Tenant,
};
use kml_platform::threading;
use kml_telemetry::Log2Hist;

const TENANTS: u64 = 96;
const SHARDS: u64 = 16;
const ROUNDS: usize = 3;

/// Serves `seed`'s fleet for [`ROUNDS`] rounds on a batched and a serial
/// server in lockstep, asserting every round's responses equal, and
/// returns `(windows, batched forward passes, serial forward passes)`.
fn lockstep(seed: u64) -> (u64, u64, u64) {
    let sampler = FleetSampler::new();
    let mut tenants: Vec<Tenant> = (0..SHARDS)
        .flat_map(|s| (s..TENANTS).step_by(SHARDS as usize))
        .map(|id| Tenant::derive(seed, id, &sampler))
        .collect();
    let models = || FleetModels::untrained(seed).unwrap();
    let mut batched = InferenceServer::new(models(), ServeOptions::default());
    let mut serial = InferenceServer::new(
        models(),
        ServeOptions {
            serial_inference: true,
            ..ServeOptions::default()
        },
    );
    let mut hist = Log2Hist::new();
    let mut windows = 0;
    for round in 0..ROUNDS {
        let requests: Vec<InferRequest> = tenants
            .iter_mut()
            .filter_map(|t| t.run_round(&mut hist))
            .collect();
        let a = batched.serve(&requests).unwrap();
        let b = serial.serve(&requests).unwrap();
        assert_eq!(
            a.len(),
            requests.len(),
            "seed 0x{seed:x}: a window went unanswered"
        );
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x, y,
                "seed 0x{seed:x}, round {round}, response {i}: batched diverged from serial"
            );
        }
        for response in &a {
            tenants
                .iter_mut()
                .find(|t| t.id == response.tenant_id)
                .expect("decision for a derived tenant")
                .apply(response);
        }
        windows += requests.len() as u64;
    }
    (
        windows,
        batched.stats().forward_passes,
        serial.stats().forward_passes,
    )
}

/// Seed sweep: on every seed-derived tenant mix, the batched server
/// answers exactly as the serial one, and it really batched.
#[test]
fn fleet_seeds_serve_batched_exactly_as_serial() {
    for seed in [1u64, 7, 42, 0xC0FFEE, 0x5EED_0003] {
        let (windows, batched, serial) = lockstep(seed);
        assert!(windows > 0, "seed 0x{seed:x}: no tenant harvested a window");
        assert_eq!(
            serial, windows,
            "seed 0x{seed:x}: serial chunks are single rows"
        );
        assert!(
            batched < windows,
            "seed 0x{seed:x}: serving never actually batched"
        );
    }
}

/// The fleet is placement-blind: the same seed yields the same summary at
/// any worker count (inline at 1, on the persistent pool above).
#[test]
fn fleet_summary_is_invariant_across_worker_counts() {
    const SEED: u64 = 0x5EED_0003;
    let cfg = FleetConfig {
        tenants: TENANTS as usize,
        rounds: ROUNDS,
        shards: SHARDS as usize,
        seed: SEED,
        options: ServeOptions::default(),
        swaps: kml_fleet::NO_SWAPS,
    };
    let run_with = |threads: &str| -> FleetSummary {
        // run_fleet reads KML_REPRO_THREADS through default_workers.
        std::env::set_var(threading::WORKERS_ENV, threads);
        let s = run_fleet(&cfg, FleetModels::untrained(SEED).unwrap())
            .expect("fleet run succeeds")
            .summary;
        std::env::remove_var(threading::WORKERS_ENV);
        s
    };
    let one = run_with("1");
    let three = run_with("3");
    let eight = run_with("8");
    assert_eq!(one, three, "fleet summary diverged between 1 and 3 workers");
    assert_eq!(one, eight, "fleet summary diverged between 1 and 8 workers");
}
