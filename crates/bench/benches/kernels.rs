//! Micro-benchmarks of the storage-stack kernels the experiments lean on:
//! page-cache operations, the readahead state machine, simulated device
//! request streams, and the blocked GEMM micro-kernels (reported as
//! GFLOP/s, with a committed floor mirrored in `BENCH_baseline.json`).
//! These bound how much simulator overhead could distort the experiment
//! clock (it cannot — the clock is simulated — but wall-clock cost caps
//! experiment scale).

use criterion::{criterion_group, Criterion};
use kernel_sim::cache::PageCache;
use kernel_sim::readahead::RaState;
use kernel_sim::{DeviceProfile, Sim, SimConfig};
use kml_core::matrix::Matrix;
use std::hint::black_box;

/// Square GEMM size for the GFLOP/s entries: 32 full register tiles a side,
/// operands past L1, small enough for smoke runs.
const GEMM_DIM: usize = 128;

fn bench_page_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_cache");
    group.bench_function("hit_touch", |b| {
        let mut cache = PageCache::new(4096);
        for p in 0..4096 {
            cache.insert((1, p), false);
        }
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 4096;
            black_box(cache.touch((1, p)))
        });
    });
    group.bench_function("insert_evict_cycle", |b| {
        let mut cache = PageCache::new(1024);
        let mut p = 0u64;
        b.iter(|| {
            p += 1;
            black_box(cache.insert((1, p), false))
        });
    });
    group.finish();
}

fn bench_readahead_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("readahead_state_machine");
    group.bench_function("sequential_stream", |b| {
        let mut ra = RaState::new(256);
        let mut p = 0u64;
        b.iter(|| {
            p += 1;
            black_box(ra.on_access(p, 1, !p.is_multiple_of(4), 1 << 30))
        });
    });
    group.bench_function("random_blocks", |b| {
        let mut ra = RaState::new(256);
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(ra.on_access(x % (1 << 30), 4, false, 1 << 30))
        });
    });
    group.finish();
}

fn bench_sim_read_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_read_path");
    group.sample_size(20);
    group.bench_function("sequential_4k_pages", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::nvme(),
                cache_pages: 2048,
                ..SimConfig::default()
            });
            let f = sim.create_file(1 << 16);
            for p in 0..4096u64 {
                sim.read(f, p, 1).unwrap();
            }
            black_box(sim.now_ns())
        });
    });
    group.bench_function("random_block_reads_x512", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::sata_ssd(),
                cache_pages: 2048,
                ..SimConfig::default()
            });
            let f = sim.create_file(1 << 20);
            let mut x = 3u64;
            for _ in 0..512 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                sim.read(f, (x >> 12) % ((1 << 20) - 4), 4).unwrap();
            }
            black_box(sim.now_ns())
        });
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    fn square<S: kml_core::scalar::Scalar>(seed: u64) -> Matrix<S> {
        let vals: Vec<f64> = (0..GEMM_DIM * GEMM_DIM)
            .map(|i| ((i as u64).wrapping_mul(seed) % 97) as f64 * 0.02 - 0.97)
            .collect();
        Matrix::from_f64_vec(GEMM_DIM, GEMM_DIM, &vals).unwrap()
    }
    let mut group = c.benchmark_group("gemm");
    group.bench_function("gemm_f32_128", |b| {
        let (x, y) = (square::<f32>(37), square::<f32>(53));
        let mut out = Matrix::zeros(GEMM_DIM, GEMM_DIM);
        b.iter(|| {
            x.matmul_into(black_box(&y), &mut out).unwrap();
            black_box(out.get(0, 0))
        });
    });
    group.bench_function("gemm_f64_128", |b| {
        let (x, y) = (square::<f64>(37), square::<f64>(53));
        let mut out = Matrix::zeros(GEMM_DIM, GEMM_DIM);
        b.iter(|| {
            x.matmul_into(black_box(&y), &mut out).unwrap();
            black_box(out.get(0, 0))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_page_cache, bench_readahead_machine, bench_sim_read_paths, bench_gemm
}

/// GFLOP/s floor for the f32 GEMM entry, mirrored in `BENCH_baseline.json`.
/// The explicit-SIMD kernels measure ~65 GFLOP/s on a CI-class AVX2
/// container (the blocked scalar path alone does ~12); the floor sits a
/// little over a third of that so it trips on a regression to the scalar
/// path — or any lost vectorization — but not on runner noise.
const GEMM_F32_FLOOR_GFLOPS: f64 = 24.0;

fn main() {
    // Report the GEMM entries in GFLOP/s (2·m·n·k floating-point ops per
    // product) and enforce the committed floor on the f32 kernel.
    let gemm_floor = |summaries: &[criterion::Summary]| {
        let flops = 2.0 * (GEMM_DIM as f64).powi(3);
        let mut failed = false;
        // Group benches report as `gemm/gemm_*`.
        for s in summaries.iter().filter(|s| s.id.contains("gemm_")) {
            let gflops = flops / s.median_ns;
            let gated = s.id.ends_with("gemm_f32_128");
            let pass = !gated || gflops >= GEMM_F32_FLOOR_GFLOPS;
            println!(
                "{}: {} {:.2} GFLOP/s (median {:.0} ns{})",
                if pass { "PASS" } else { "FAIL" },
                s.id,
                gflops,
                s.median_ns,
                if gated {
                    format!(", floor {GEMM_F32_FLOOR_GFLOPS:.1} GFLOP/s")
                } else {
                    String::new()
                }
            );
            failed |= !pass;
        }
        failed
    };
    bench::gate::run(benches, &[], gemm_floor, "GEMM throughput under floor");
}
