//! Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//! matrix dtype (f32 / f64) and ring-buffer capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kml_collect::RingBuffer;
use kml_core::matrix::Matrix;
use kml_core::model::ModelBuilder;
use kml_core::prelude::*;
use kml_core::scalar::Scalar;
use std::hint::black_box;

/// §3.1: "KML supports ... floating-point, and double precision
/// matrices" — the speed side of the accuracy-vs-cost trade-off.
fn bench_dtype(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_dtype_inference");
    let features = [5_000.0, 3_000.0, 1_800.0, 500.0, 128.0];

    fn model<S: Scalar>() -> kml_core::model::Model<S> {
        ModelBuilder::readahead_paper_topology(5, 4)
            .build::<S>()
            .expect("paper topology builds")
    }

    let mut m32 = model::<f32>();
    group.bench_function("f32", |b| {
        b.iter(|| m32.predict(black_box(&features)).expect("predict"))
    });
    let mut m64 = model::<f64>();
    group.bench_function("f64", |b| {
        b.iter(|| m64.predict(black_box(&features)).expect("predict"))
    });
    group.finish();

    let mut group = c.benchmark_group("ablate_dtype_matmul_32x32");
    fn mm<S: Scalar>() -> (Matrix<S>, Matrix<S>) {
        let mut rng = KmlRng::seed_from_u64(5);
        (
            Matrix::<S>::xavier_uniform(32, 32, &mut rng),
            Matrix::<S>::xavier_uniform(32, 32, &mut rng),
        )
    }
    let (a, b32) = mm::<f32>();
    group.bench_function("f32", |b| {
        b.iter(|| a.matmul(black_box(&b32)).expect("matmul"))
    });
    let (a, b64) = mm::<f64>();
    group.bench_function("f64", |b| {
        b.iter(|| a.matmul(black_box(&b64)).expect("matmul"))
    });
    group.finish();
}

/// §3.1: the circular buffer caps memory; larger buffers survive longer
/// producer bursts before losing samples. This measures raw push/pop cost
/// across capacities (loss behaviour is covered by unit tests).
fn bench_ringbuf(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_ringbuf_capacity");
    for capacity in [64usize, 1024, 16_384] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &cap| {
                let (producer, mut consumer) = RingBuffer::<u64>::with_capacity(cap).split();
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    producer.push(black_box(i));
                    if i.is_multiple_of(8) {
                        while consumer.pop().is_some() {}
                    }
                });
            },
        );
    }
    group.finish();
}

/// From-scratch math vs std: the cost of kernel-safe approximations.
fn bench_math(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_math_approximations");
    let xs: Vec<f64> = (0..256).map(|i| (i as f64 - 128.0) / 16.0).collect();
    group.bench_function("kml_exp", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| kml_core::math::exp(black_box(x)))
                .sum::<f64>()
        })
    });
    group.bench_function("std_exp", |b| {
        b.iter(|| xs.iter().map(|&x| black_box(x).exp()).sum::<f64>())
    });
    group.bench_function("kml_sigmoid", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| kml_core::math::sigmoid(black_box(x)))
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dtype, bench_ringbuf, bench_math
}
criterion_main!(benches);
