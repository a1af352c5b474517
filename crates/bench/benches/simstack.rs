//! Micro-benchmarks of the simulated stack under the LSM store, at the
//! ledger's key count. Write path: host wall-clock cost of streaming pages
//! through a full page cache with the flusher running, and of an L0→L1
//! compaction — one that only overwrites, one that adds keys. Both were
//! super-linear once (a writeback that walked every clean page, a
//! compaction that re-sorted sorted runs). Read path: one
//! Zipfian rank draw and one point get, each a binary search over an 8 MiB
//! array once; one 256-page `Sim::read`, cold through a full cache and warm,
//! per page. The ceilings, mirrored in `BENCH_baseline.json`, trip if any of
//! those costs comes back.

use criterion::{criterion_group, BatchSize, Criterion};
use kernel_sim::{Sim, SimConfig};
use kvstore::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Zipf};
use std::hint::black_box;

/// Pages per benchmarked write: the chunk `SsTable::build` streams.
const WRITE_PAGES: u64 = 32;
/// Keys in L1 before the compaction: the ledger's `lsm-update` database.
const L1_KEYS: u64 = 1 << 20;

fn bench_write_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("simstack");
    // 16,384-page cache, full; every 32-page write evicts 32 clean pages
    // and every other one finds dirty > threshold and flushes a batch of 64.
    group.bench_function("write_stream_full_cache", |b| {
        let mut sim = Sim::new(SimConfig::default());
        let file = sim.create_file(1 << 40);
        let mut page = 0u64;
        for _ in 0..2 * SimConfig::default().cache_pages as u64 / WRITE_PAGES {
            sim.write(file, page, WRITE_PAGES).unwrap();
            page += WRITE_PAGES;
        }
        b.iter(|| {
            page += WRITE_PAGES;
            black_box(sim.write(file, page, WRITE_PAGES).unwrap())
        });
    });
    group.finish();
}

/// Maps a key below 2^20 to the key a level stores.
type KeyMap = fn(u64) -> u64;

/// A store shaped like `lsm-update` just before its compaction: 2^20 keys
/// in L1 and four flushed memtables of scattered puts in L0.
fn store_before_compaction(l1_key: KeyMap, l0_key: KeyMap) -> (Sim, Db) {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = DbConfig {
        l0_compaction_trigger: usize::MAX, // compact only when asked
        ..DbConfig::default()
    };
    let mut db = Db::create(&mut sim, cfg);
    db.bulk_load(&mut sim, (0..L1_KEYS).map(l1_key).collect())
        .unwrap();
    let mut x = 0x4B4D4Cu64;
    while db.stats().flushes < 4 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        db.put(&mut sim, l0_key((x >> 33) % L1_KEYS)).unwrap();
    }
    (sim, db)
}

fn bench_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("simstack");
    // (id, L1's key for k, L0's key for k). `lsm-update` overwrites: its
    // compaction writes L1 again as it is. With L1 on the even keys below
    // 2^21 and L0 on odd ones, every L0 key is new: merge, then a full
    // build of 2^20 keys and up to 32,768 more.
    let shapes: [(&str, KeyMap, KeyMap); 2] = [
        ("compact_l0x4_into_1m", |k| k, |k| k),
        ("compact_l0x4_new_keys_into_1m", |k| 2 * k, |k| 2 * k + 1),
    ];
    for (id, l1_key, l0_key) in shapes {
        group.bench_function(id, |b| {
            b.iter_batched(
                || store_before_compaction(l1_key, l0_key),
                |(mut sim, mut db)| {
                    db.compact(&mut sim).unwrap();
                    (sim, db)
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// `mixgraph`'s key popularity over the ledger's keyspace.
fn mixgraph_zipf() -> Zipf {
    Zipf::new(L1_KEYS, 0.99).unwrap()
}

fn bench_read_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("simstack");
    group.bench_function("zipf_sample_1m", |b| {
        let zipf = mixgraph_zipf();
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
    // The ledger's `lsm-mixgraph` store (2^20 keys bulk-loaded, 16,384-page
    // cache) at the 16 KiB readahead the tuner settles on for it, read at
    // keys drawn as `run_workload` draws them: rank → scattered key.
    group.bench_function("point_get_1m_zipf", |b| {
        let mut sim = Sim::new(SimConfig::default());
        let mut db = Db::create(&mut sim, DbConfig::default());
        db.bulk_load(&mut sim, (0..L1_KEYS).collect()).unwrap();
        sim.drop_caches().unwrap();
        sim.set_ra_kb(16);
        let zipf = mixgraph_zipf();
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<u64> = (0..1 << 16)
            .map(|_| {
                (zipf.sample(&mut rng) as u64 - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % L1_KEYS
            })
            .collect();
        for &key in &keys {
            db.get(&mut sim, key).unwrap(); // fill the cache with the hot set
        }
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % keys.len();
            black_box(db.get(&mut sim, keys[next]).unwrap())
        });
    });
    group.finish();
}

/// Pages per benchmarked read, and the cache they stream through: the
/// server side of the ledger's `netfs-wifi` (`NetRunConfig::paper()`), which
/// is ~95 % `Sim::read`.
const READ_PAGES: u64 = 256;
const READ_CACHE_PAGES: usize = 4096;

fn bench_sim_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("simstack");
    let cfg = SimConfig {
        cache_pages: READ_CACHE_PAGES,
        ..SimConfig::default()
    };
    // Cold, through a full cache: one miss, one 256-page device run — evict,
    // fill and (no ring attached) skip the tracepoint for each page — then
    // 255 hits. Every 16th read starts from a new offset, as the mount's do.
    group.bench_function("sim_read_stream_256p", |b| {
        let mut sim = Sim::new(cfg);
        let file = sim.create_file(1 << 20);
        let span = (1 << 20) - READ_PAGES;
        let (mut pos, mut x, mut issued) = (0u64, 0x4B4D4Cu64, 0u64);
        let mut read = move || {
            issued += 1;
            if issued.is_multiple_of(16) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pos = (x >> 33) % span;
            }
            let at = pos;
            pos = (pos + READ_PAGES) % span;
            sim.read(file, at, READ_PAGES).unwrap()
        };
        for _ in 0..2 * READ_CACHE_PAGES as u64 / READ_PAGES {
            read();
        }
        b.iter(|| black_box(read()));
    });
    // Warm: half the cache streamed in once, then read over and over — 256
    // hits and promotions a read, no device request.
    group.bench_function("sim_read_warm_256p", |b| {
        let mut sim = Sim::new(cfg);
        let file = sim.create_file(1 << 20);
        let resident = READ_CACHE_PAGES as u64 / 2;
        for at in (0..resident).step_by(READ_PAGES as usize) {
            sim.read(file, at, READ_PAGES).unwrap();
        }
        let mut at = 0;
        b.iter(|| {
            at = (at + READ_PAGES) % resident;
            black_box(sim.read(file, at, READ_PAGES).unwrap())
        });
        assert_eq!(sim.stats().device.pages_read, resident);
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_write_stream, bench_compaction, bench_read_path, bench_sim_read
}

/// Ceilings at 2× the medians measured when the scans were removed (29 ns a
/// page, 45 ms a compaction on the 2-core container; the parent commit
/// measured 565 ns and 225 ms), mirrored in `BENCH_baseline.json`.
const WRITE_STREAM_CEILING_NS_PER_PAGE: f64 = 59.0;
const COMPACTION_CEILING_MS: f64 = 90.0;
/// An overwrite-only compaction writes L1 again as it is and derives
/// nothing: 2× the median measured when it stopped merging (15.3 ms; the
/// parent commit measured 46.2 ms). `COMPACTION_CEILING_MS` above gates the
/// merge and the full build on `compact_l0x4_new_keys_into_1m` (48.0 ms).
const OVERWRITE_COMPACTION_CEILING_MS: f64 = 30.6;
/// Ceilings at 2× the medians measured when the whole-array searches were
/// removed (35 ns a draw, 432 ns a get; the parent commit measured 116 ns
/// and 679 ns). A get is mostly `Sim::read`, so its ceiling catches a cost
/// that grows with the table, not a whole-array search alone: that one the
/// `kvstore` equivalence proptest keeps as its reference, nowhere else.
const ZIPF_SAMPLE_CEILING_NS: f64 = 71.0;
const POINT_GET_CEILING_NS: f64 = 863.0;

/// Ceilings of the two `Sim::read` benches, ns per page, judged on the
/// fastest sample. The stream ceiling is 1.3× the median measured when
/// device runs became the unit `Sim` and the page cache exchange (21.6 ns a
/// page; the per-page path read 34.4, its fastest sample 32.4). The warm
/// ceiling is 2× the median measured when resident runs became one
/// `touch_run` and one splice (4.6 ns a page; the page-by-page promotes
/// read 10.8–16.7, their fastest sample never below 9.8), so a per-hit
/// relink, a second lookup or an allocation coming back trips it. These
/// sit inside the swing of a shared host — the same binary reads 1.5–1.8×
/// for minutes at a time while an ALU-only loop beside it does not move —
/// so they judge the fastest sample, which a neighbour can only raise.
const READ_STREAM_CEILING_NS_PER_PAGE: f64 = 28.0;
const READ_WARM_CEILING_NS_PER_PAGE: f64 = 9.2;

fn main() {
    // (id, divisor from ns per iteration to the gated unit, unit, ceiling,
    // whether the fastest sample is judged instead of the median)
    let gates = [
        (
            "simstack/write_stream_full_cache",
            WRITE_PAGES as f64,
            "ns/page",
            WRITE_STREAM_CEILING_NS_PER_PAGE,
            false,
        ),
        (
            "simstack/compact_l0x4_into_1m",
            1e6,
            "ms",
            OVERWRITE_COMPACTION_CEILING_MS,
            false,
        ),
        (
            "simstack/compact_l0x4_new_keys_into_1m",
            1e6,
            "ms",
            COMPACTION_CEILING_MS,
            false,
        ),
        (
            "simstack/zipf_sample_1m",
            1.0,
            "ns",
            ZIPF_SAMPLE_CEILING_NS,
            false,
        ),
        (
            "simstack/point_get_1m_zipf",
            1.0,
            "ns",
            POINT_GET_CEILING_NS,
            false,
        ),
        (
            "simstack/sim_read_stream_256p",
            READ_PAGES as f64,
            "ns/page",
            READ_STREAM_CEILING_NS_PER_PAGE,
            true,
        ),
        (
            "simstack/sim_read_warm_256p",
            READ_PAGES as f64,
            "ns/page",
            READ_WARM_CEILING_NS_PER_PAGE,
            true,
        ),
    ];
    let scaled_ceilings = |summaries: &[criterion::Summary]| {
        let mut failed = false;
        for s in summaries {
            let Some(&(_, per, unit, ceiling, fastest)) = gates.iter().find(|g| s.id == g.0) else {
                continue;
            };
            let (median, min) = (s.median_ns / per, s.min_ns / per);
            let pass = if fastest { min } else { median } <= ceiling;
            println!(
                "{}: {} median {median:.1} {unit}, fastest {min:.1}, ceiling {ceiling} on the {}",
                if pass { "PASS" } else { "FAIL" },
                s.id,
                if fastest { "fastest sample" } else { "median" },
            );
            failed |= !pass;
        }
        failed
    };
    bench::gate::run(
        benches,
        &[],
        scaled_ceilings,
        "simulated stack slower than ceiling",
    );
}
