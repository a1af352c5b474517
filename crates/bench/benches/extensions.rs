//! Benchmarks for the future-work extensions: int8 quantized inference
//! and the I/O-scheduler dispatch path.

use criterion::{criterion_group, criterion_main, Criterion};
use kml_core::model::ModelBuilder;
use std::hint::black_box;

fn bench_quantized(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_inference");
    let mut model = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f32>()
        .expect("builds");
    let mut qmodel = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f32>()
        .expect("builds");
    qmodel.enable_q8().expect("quantizes");
    let features = [100.0, 3000.0, 1800.0, 50.0, 128.0];
    group.bench_function("f32", |b| {
        b.iter(|| model.predict(black_box(&features)).expect("predict"))
    });
    group.bench_function("int8", |b| {
        b.iter(|| qmodel.predict(black_box(&features)).expect("predict"))
    });
    group.finish();
}

fn bench_iosched(c: &mut Criterion) {
    use iosched::{IoRequest, IoScheduler, SchedulerConfig};
    use kernel_sim::DeviceProfile;

    let mut group = c.benchmark_group("iosched_dispatch");
    group.bench_function("submit_drain_burst32", |b| {
        b.iter(|| {
            let mut sched = IoScheduler::new(
                DeviceProfile::nvme(),
                SchedulerConfig {
                    batch_wait_ns: 50_000,
                    max_batch: 64,
                },
            );
            for i in 0..32u64 {
                sched.submit(IoRequest {
                    inode: 1,
                    page: i * 4,
                    npages: 4,
                    write: false,
                    arrival_ns: i * 1000,
                });
            }
            black_box(sched.drain(100_000).len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_quantized, bench_iosched
}
criterion_main!(benches);
