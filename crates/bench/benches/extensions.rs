//! Benchmarks for the future-work extensions: recurrent-model inference
//! and training cost (how much heavier than the deployed feed-forward
//! model — the §6 "parallel training threads" motivation), int8 quantized
//! inference, and the I/O-scheduler dispatch path.

use criterion::{criterion_group, criterion_main, Criterion};
use kml_core::matrix::Matrix;
use kml_core::model::ModelBuilder;
use kml_core::prelude::*;
use kml_core::recurrent::{Lstm, Rnn};
use std::hint::black_box;

fn bench_recurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("recurrent_inference");
    let mut rng = KmlRng::seed_from_u64(3);
    let seq = {
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Matrix::<f64>::from_rows(&rows).expect("builds")
    };
    let mut rnn = Rnn::<f64>::new(3, 12, 4, &mut rng);
    group.bench_function("rnn_16steps", |b| {
        b.iter(|| rnn.predict(black_box(&seq)).expect("predict"))
    });
    let mut lstm = Lstm::<f64>::new(3, 8, 4, &mut rng);
    group.bench_function("lstm_16steps", |b| {
        b.iter(|| lstm.predict(black_box(&seq)).expect("predict"))
    });
    // The feed-forward comparison point (per-window summary features).
    let mut ff = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f64>()
        .expect("builds");
    let features = [100.0, 3000.0, 1800.0, 50.0, 128.0];
    group.bench_function("feedforward_window", |b| {
        b.iter(|| ff.predict(black_box(&features)).expect("predict"))
    });
    group.finish();

    let mut group = c.benchmark_group("recurrent_training_step");
    use kml_core::loss::{CrossEntropyLoss, Loss, TargetRef};
    use kml_core::optimizer::Sgd;
    let mut sgd = Sgd::new(0.01, 0.9);
    group.bench_function("rnn_bptt_16steps", |b| {
        b.iter(|| {
            let logits = rnn.forward(black_box(&seq)).expect("forward");
            let g = CrossEntropyLoss
                .grad(&logits, TargetRef::Classes(&[1]))
                .expect("grad");
            rnn.backward(&g).expect("backward");
            sgd.step(&mut rnn.param_grads()).expect("step");
        })
    });
    let mut sgd2 = Sgd::new(0.01, 0.9);
    group.bench_function("lstm_bptt_16steps", |b| {
        b.iter(|| {
            let logits = lstm.forward(black_box(&seq)).expect("forward");
            let g = CrossEntropyLoss
                .grad(&logits, TargetRef::Classes(&[1]))
                .expect("grad");
            lstm.backward(&g).expect("backward");
            sgd2.step(&mut lstm.param_grads()).expect("step");
        })
    });
    group.finish();
}

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
    targets = bench_recurrent, bench_quantized, bench_iosched
}
criterion_main!(benches);
