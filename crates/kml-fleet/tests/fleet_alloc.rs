//! Steady-state allocation accounting for the fleet serving tick.
//!
//! The fleet reuses every per-round buffer — staging queues, slot
//! scratch, response vectors, per-slot feature batches and model
//! replicas — so after warm-up a serving tick must perform **zero** heap
//! allocations, whether the one chunk executor runs inline on the
//! caller's slot or across pool slots. This test installs
//! [`CountingSystemAlloc`] as its binary's global allocator and pins that
//! property with the *process-wide* counters, which see pool-worker
//! allocations too (the per-thread counters that `zero_alloc.rs` uses
//! would miss them).
//!
//! Lives in its own integration-test binary with a single `#[test]` so
//! no sibling test thread perturbs the process-wide counters.

use kml_fleet::server::{
    FleetModels, InferRequest, InferenceServer, ModelKind, ServeOptions, MAX_FEATURES,
};
use kml_platform::alloc::CountingSystemAlloc;

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

fn req(tenant_id: u64, kind: ModelKind, seed: u64) -> InferRequest {
    let dim = match kind {
        ModelKind::Iosched => 4,
        _ => 5,
    };
    let mut features = [0.0; MAX_FEATURES];
    for (i, f) in features.iter_mut().enumerate().take(dim) {
        *f = ((seed.wrapping_mul(0x9E37_79B9) >> (i * 7)) & 0xFF) as f64 / 16.0;
    }
    InferRequest {
        tenant_id,
        kind,
        features,
        dim,
    }
}

fn mixed_requests(n: u64) -> Vec<InferRequest> {
    (0..n)
        .map(|t| {
            let kind = ModelKind::ALL[(t % 3) as usize];
            req(t, kind, t * 31 + 7)
        })
        .collect()
}

fn steady_ticks_allocate_nothing(options: ServeOptions, label: &str) {
    let mut server = InferenceServer::new(FleetModels::untrained(0xA110C).unwrap(), options);
    // Replica warm-up makes every slot's clone and scratch growth happen
    // now, whichever slots the scheduler picks during the measured ticks.
    server.warm_replicas().unwrap();
    let requests = mixed_requests(120);
    let mut responses = Vec::new();
    // Warm ticks: size the staging groups, chunk plan, class buffer, the
    // response vector, and the stats map's batch-size entries.
    for _ in 0..5 {
        server.serve_into(&requests, &mut responses).unwrap();
    }
    // The process-wide counters see every thread, and on a loaded host
    // other threads can still be starting up when the warm ticks are over:
    // libtest's own, which records the running test (4 allocations) after
    // spawning this one and then blocks, and freshly spawned pool workers.
    // Neither is serving work; step aside so they finish before the one
    // window opens (EXPERIMENTS.md E17 has the counts).
    std::thread::sleep(std::time::Duration::from_millis(100));

    let allocs_before = CountingSystemAlloc::process_allocations();
    let frees_before = CountingSystemAlloc::process_frees();
    let thread_allocs_before = CountingSystemAlloc::thread_allocations();
    for _ in 0..50 {
        server.serve_into(&requests, &mut responses).unwrap();
        assert_eq!(responses.len(), requests.len());
    }
    let allocs = CountingSystemAlloc::process_allocations() - allocs_before;
    let frees = CountingSystemAlloc::process_frees() - frees_before;
    assert_eq!(
        CountingSystemAlloc::thread_allocations(),
        thread_allocs_before,
        "{label}: the serving thread allocated in a steady-state tick"
    );
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "{label}: steady-state serving ticks must not touch the heap"
    );
}

#[test]
fn steady_state_serving_ticks_allocate_nothing() {
    // Both settings run the same plan through the same executor: inline
    // on slot 0 (the single-worker fleet's serving phase) ...
    steady_ticks_allocate_nothing(
        ServeOptions {
            max_batch: 16,
            workers: 1,
            ..ServeOptions::default()
        },
        "chunk executor inline on slot 0 (workers 1)",
    );
    // ... and on pool workers against their own slots' replicas, which
    // also proves the dispatch protocol itself is allocation-free.
    steady_ticks_allocate_nothing(
        ServeOptions {
            max_batch: 16,
            workers: 4,
            ..ServeOptions::default()
        },
        "chunk executor across pool slots (workers 4)",
    );
}
