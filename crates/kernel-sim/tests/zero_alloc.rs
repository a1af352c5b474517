//! Allocation-count regression test for the simulator's I/O paths.
//!
//! Every overhead number the repo reports is host time spent inside
//! [`Sim::read`] / [`Sim::write`], so a `Vec` per eviction or per writeback
//! round is cost the simulated kernel never had. This test installs
//! [`CountingSystemAlloc`] as the global allocator of its own test binary
//! and proves that after warm-up — cache full, scratch buffers sized, trace
//! ring attached — steady-state reads and writes perform **zero** heap
//! allocations.
//!
//! Lives in its own integration-test binary because `#[global_allocator]` is
//! process-wide; per-thread counters keep parallel libtest threads from
//! perturbing each other.

use kernel_sim::{DeviceProfile, FileId, Sim, SimConfig, TraceRecord};
use kml_collect::ringbuf::Consumer;
use kml_collect::RingBuffer;
use kml_platform::alloc::CountingSystemAlloc;

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

const CACHE_PAGES: usize = 1024;
/// File ≫ cache, so a sweep over it never finds its pages resident.
const FILE_PAGES: u64 = 1 << 20;

fn traced_sim(dirty_threshold: f64) -> (Sim, FileId, Consumer<TraceRecord>) {
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::nvme(),
        cache_pages: CACHE_PAGES,
        dirty_threshold,
        ..SimConfig::default()
    });
    // Smaller than one sweep: the ring laps, as it does during a compaction.
    let (producer, consumer) = RingBuffer::with_capacity(1 << 12).split();
    sim.attach_trace(producer);
    let file = sim.create_file(FILE_PAGES);
    (sim, file, consumer)
}

/// Runs `op` for `warm_up` steps untimed, then asserts that `steady` more
/// steps neither allocate nor free.
fn assert_steady_state_zero_allocs(
    label: &str,
    warm_up: u64,
    steady: u64,
    mut op: impl FnMut(u64),
) {
    for step in 0..warm_up {
        op(step);
    }
    let allocs_before = CountingSystemAlloc::thread_allocations();
    let frees_before = CountingSystemAlloc::thread_frees();
    for step in warm_up..warm_up + steady {
        op(step);
    }
    let allocs = CountingSystemAlloc::thread_allocations() - allocs_before;
    let frees = CountingSystemAlloc::thread_frees() - frees_before;
    assert_eq!(
        allocs, 0,
        "{label}: {allocs} heap allocations in {steady} steps"
    );
    assert_eq!(frees, 0, "{label}: {frees} heap frees in {steady} steps");
}

#[test]
fn read_hits_are_allocation_free() {
    let (mut sim, file, _consumer) = traced_sim(0.25);
    let resident = CACHE_PAGES as u64 / 2;
    assert_steady_state_zero_allocs("read hit", resident, 20_000, |step| {
        sim.read(file, (step * 4) % resident, 4).unwrap();
    });
    let stats = sim.stats();
    assert!(stats.cache.hits > 20_000 * 3, "reads were not hits");
    assert_eq!(stats.cache.evictions, 0);
}

#[test]
fn read_misses_with_eviction_are_allocation_free() {
    let (mut sim, file, _consumer) = traced_sim(0.25);
    // Block reads at a stride no readahead window covers: every one misses,
    // fetches, and — once the cache is full — evicts.
    let block = |step: u64| (step * 97 * 4) % FILE_PAGES;
    assert_steady_state_zero_allocs("read miss", 2_000, 20_000, |step| {
        sim.read(file, block(step), 4).unwrap();
    });
    let stats = sim.stats();
    assert!(stats.cache.misses >= 22_000, "reads were not misses");
    assert!(stats.cache.evictions >= 20_000 * 4, "cache never filled");
    assert!(sim.trace_emitted() > 0);
}

#[test]
fn writes_below_the_dirty_threshold_are_allocation_free() {
    let (mut sim, file, _consumer) = traced_sim(0.5);
    // Rewrites of a working set under the threshold: pages stay dirty and
    // resident, the flusher never runs.
    let working_set = CACHE_PAGES as u64 / 4;
    assert_steady_state_zero_allocs("write below threshold", working_set, 20_000, |step| {
        sim.write(file, (step * 2) % working_set, 2).unwrap();
    });
    assert_eq!(sim.stats().cache.writebacks, 0);
    assert_eq!(sim.cache_dirty() as u64, working_set);
}

#[test]
fn streaming_writes_over_a_full_cache_are_allocation_free() {
    let (mut sim, file, _consumer) = traced_sim(0.25);
    // An SSTable-build-shaped stream: 32 new pages per write, so every write
    // evicts and every other one crosses the threshold and flushes a batch.
    assert_steady_state_zero_allocs("write above threshold", 200, 5_000, |step| {
        sim.write(file, (step * 32) % FILE_PAGES, 32).unwrap();
    });
    let stats = sim.stats();
    assert_eq!(sim.cache_len(), CACHE_PAGES);
    assert!(stats.cache.evictions >= 5_000 * 32, "cache never filled");
    assert!(stats.cache.writebacks >= 5_000 * 16, "flusher never ran");
}
