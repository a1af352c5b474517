//! Allocation regression test for the store's read path.
//!
//! `kernel-sim`'s own gate proves [`Sim::read`] allocates nothing; this one
//! proves the layer above it adds nothing either: a point get or a scan on a
//! warmed store makes **zero** heap allocations, and a `mixgraph` run on a
//! keyspace the process has drawn from before builds no rank table.
//!
//! Lives in its own integration-test binary because `#[global_allocator]` is
//! process-wide; per-thread counters keep parallel libtest threads from
//! perturbing each other.

use kernel_sim::{DeviceProfile, Sim, SimConfig, TraceRecord};
use kml_collect::ringbuf::Consumer;
use kml_collect::RingBuffer;
use kml_platform::alloc::CountingSystemAlloc;
use kvstore::{run_workload, Db, DbConfig, Workload, WorkloadConfig};

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

/// Even keys below this are in L1; every odd key is absent.
const L1_SPAN: u64 = 200_000;
/// Multiples of 6 below this are also in the one L0 run.
const L0_SPAN: u64 = 60_000;
/// Multiples of 10 below this are also in the memtable.
const MEMTABLE_SPAN: u64 = 10_000;

/// Memtable over one L0 run over L1, on a traced simulator whose cache is
/// far smaller than the tables: block reads miss and evict.
fn layered_store() -> (Sim, Db, Consumer<TraceRecord>) {
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::nvme(),
        cache_pages: 1024,
        ..SimConfig::default()
    });
    let (producer, consumer) = RingBuffer::with_capacity(1 << 12).split();
    sim.attach_trace(producer);
    let mut db = Db::create(
        &mut sim,
        DbConfig {
            memtable_keys: usize::MAX,         // flush only when asked
            l0_compaction_trigger: usize::MAX, // never compact
            ..DbConfig::default()
        },
    );
    db.bulk_load(&mut sim, (0..L1_SPAN).step_by(2).collect())
        .unwrap();
    for k in (0..L0_SPAN).step_by(6) {
        db.put(&mut sim, k).unwrap();
    }
    db.flush(&mut sim).unwrap();
    for k in (0..MEMTABLE_SPAN).step_by(10) {
        db.put(&mut sim, k).unwrap();
    }
    (sim, db, consumer)
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

/// A stride coprime to every span, so successive keys land in unrelated blocks.
fn scattered(step: u64, span: u64) -> u64 {
    step.wrapping_mul(7_919) % span
}

#[test]
fn point_gets_are_allocation_free() {
    let (mut sim, mut db, _consumer) = layered_store();
    let mut found = [0u64; 2];
    assert_steady_state_zero_allocs("get", 2_000, 20_000, |step| {
        let key = match step % 4 {
            0 => scattered(step, MEMTABLE_SPAN / 10) * 10, // memtable hit
            1 => scattered(step, L0_SPAN / 6) * 6,         // L0 (or memtable) hit
            2 => scattered(step, L1_SPAN / 2) * 2,         // table hit, mostly L1
            _ => scattered(step, L1_SPAN / 2) * 2 + 1,     // absent: Bloom-filtered
        };
        found[usize::from(db.get(&mut sim, key).unwrap())] += 1;
    });
    assert_eq!(found[0], 22_000 / 4, "every odd key is absent");
    let stats = sim.stats();
    assert!(db.stats().memtable_hits >= 22_000 / 4);
    assert!(
        stats.cache.evictions > 0,
        "block reads never filled the cache"
    );
    // Two keys in four are found in a table, one block read each (but for
    // the few the memtable shadows), and ~1% of the absent ones pay one too.
    assert!(stats.logical_reads > 10_000, "{}", stats.logical_reads);
}

#[test]
fn scans_are_allocation_free() {
    let (mut sim, mut db, _consumer) = layered_store();
    let mut visited = 0;
    // The first scan sizes the store's cursor scratch: it is the warm-up.
    assert_steady_state_zero_allocs("scan", 1, 4_000, |step| {
        let from = scattered(step, L1_SPAN);
        visited += if step % 2 == 0 {
            db.scan(&mut sim, from, 50).unwrap()
        } else {
            db.scan_reverse(&mut sim, from, 50).unwrap()
        };
    });
    assert!(
        visited > 4_000 * 45,
        "scans ran off the keyspace: {visited}"
    );
}

/// Heap bytes this thread holds now, relative to an arbitrary origin (bytes
/// another thread allocated and this one freed count as negative).
fn thread_live_bytes() -> i64 {
    CountingSystemAlloc::thread_bytes_allocated() as i64
        - CountingSystemAlloc::thread_bytes_freed() as i64
}

/// Both halves of the rank-table memo in one test: they share the process-wide
/// memo, and a sweep running beside the repeat would evict its table.
#[test]
fn repeated_mixgraph_runs_share_one_bounded_set_of_rank_tables() {
    let (mut sim, mut db, _consumer) = layered_store();
    let mixgraph = |num_keys: u64| WorkloadConfig {
        num_keys,
        ops: 2_000,
        ..WorkloadConfig::new(Workload::MixGraph)
    };
    let mut allocated_by_run = |cfg: &WorkloadConfig| {
        let before = CountingSystemAlloc::thread_bytes_allocated();
        run_workload(&mut sim, &mut db, cfg, |_| {});
        CountingSystemAlloc::thread_bytes_allocated() - before
    };

    // A sweep over distinct key counts (what a DST seed sweep does) leaves
    // a handful of tables behind, not one per count.
    let table_bytes = 100_000 * 8;
    let before = thread_live_bytes();
    for i in 0..64 {
        allocated_by_run(&mixgraph(100_000 + i));
    }
    let kept = thread_live_bytes() - before;
    assert!(
        kept < 8 * table_bytes,
        "64 key counts left {kept} B of tables resident"
    );

    // 2^20 ranks are an 8 MiB table: the first run builds it, the second
    // allocates only what 2,000 operations do (memtable nodes, a name).
    let ledger = mixgraph(1 << 20);
    let first = allocated_by_run(&ledger);
    let second = allocated_by_run(&ledger);
    assert!(first >= 8 << 20, "first run allocated only {first} B");
    assert!(second < 64 << 10, "second run allocated {second} B");
}
