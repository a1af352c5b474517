//! Micro-benchmarks of the network-storage path: host wall-clock cost of
//! one application read through the full RPC pipeline (fragment fates,
//! DRC, retransmission ladder) and of the rsize tuner's hook (ring drain,
//! windowed featurization, tree inference). Ceilings for the two gated
//! entries are mirrored in `BENCH_baseline.json`; wall-clock cost here is
//! what caps E9 experiment scale, exactly like the `kernels` bench for
//! the local stack.

use criterion::{criterion_group, Criterion};
use kernel_sim::SimConfig;
use kml_collect::event::{RpcEvent, RpcEventKind};
use kml_collect::RingBuffer;
use netfs::{NetProfile, NfsMount, RsizePolicy, RsizeTuner, RsizeTunerModel};
use std::hint::black_box;

/// Pages per benchmarked application read: 1 MiB, the E9 request size.
const READ_PAGES: u64 = 256;

fn bench_mount(profile: NetProfile) -> (NfsMount, kernel_sim::FileId) {
    let mut mount = NfsMount::new(
        profile,
        SimConfig {
            cache_pages: 4096,
            ..SimConfig::default()
        },
    );
    let file = mount.create_file(1 << 18);
    (mount, file)
}

fn bench_rpc_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc_roundtrip");
    // Clean link: the pipeline's floor — fragment draws, DRC lookups, and
    // server reads with no retransmission ladder engaged.
    group.bench_function("read_1m_datacenter", |b| {
        let (mut mount, file) = bench_mount(NetProfile::datacenter(7));
        let span = (1 << 18) - READ_PAGES;
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + READ_PAGES) % span;
            black_box(mount.read(file, pos, READ_PAGES).unwrap())
        });
    });
    // Faulty link: adds per-fragment fate draws, timeouts, retransmits,
    // and duplicate-reply handling. Not gated — loss makes it noisier.
    group.bench_function("read_1m_lossy_wifi", |b| {
        let (mut mount, file) = bench_mount(NetProfile::lossy_wifi(7));
        let span = (1 << 18) - READ_PAGES;
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + READ_PAGES) % span;
            black_box(mount.read(file, pos, READ_PAGES).ok())
        });
    });
    group.finish();
}

fn reply_event(xid: u64) -> RpcEvent {
    RpcEvent {
        kind: RpcEventKind::Reply,
        xid,
        pages: 64,
        latency_ns: 2_000_000 + (xid % 7) * 300_000,
        time_ns: xid * 1_000_000,
    }
}

fn bench_rsize_tuner(c: &mut Criterion) {
    let model_bytes = netfs::train_rsize_model(7).expect("training is deterministic");
    let mut group = c.benchmark_group("rsize_tuner");
    // The per-window cost: drain 64 RPC events, roll the feature window,
    // run the decision tree, actuate. A 1 ns window plus a cache-hot
    // 1-page read (which advances the virtual clock past the boundary)
    // forces the inference path on every hook call.
    group.bench_function("on_op_infer", |b| {
        let (mut mount, file) = bench_mount(NetProfile::datacenter(7));
        let (producer, consumer) = RingBuffer::with_capacity(1 << 10).split();
        let model = RsizeTunerModel::from_bytes(&model_bytes).unwrap();
        let mut tuner = RsizeTuner::new(model, RsizePolicy::experiment_default(), consumer, 1);
        let mut xid = 0u64;
        b.iter(|| {
            for _ in 0..64 {
                xid += 1;
                producer.push(reply_event(xid));
            }
            mount.read(file, 0, 1).unwrap();
            tuner.on_op(&mut mount).unwrap();
            black_box(mount.rsize_kb())
        });
    });
    // The steady-state cost between windows: drain + feature fold only.
    group.bench_function("on_op_drain64", |b| {
        let (mut mount, _) = bench_mount(NetProfile::datacenter(7));
        let (producer, consumer) = RingBuffer::with_capacity(1 << 10).split();
        let model = RsizeTunerModel::from_bytes(&model_bytes).unwrap();
        let mut tuner = RsizeTuner::new(
            model,
            RsizePolicy::experiment_default(),
            consumer,
            u64::MAX / 2,
        );
        let mut xid = 0u64;
        b.iter(|| {
            for _ in 0..64 {
                xid += 1;
                producer.push(reply_event(xid));
            }
            tuner.on_op(&mut mount).unwrap();
            black_box(mount.rsize_kb())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_rpc_roundtrip, bench_rsize_tuner
}

/// Median-ns ceilings, mirrored in `BENCH_baseline.json`. Set at roughly
/// 8× the CI-class container's measured medians so the gate trips on an
/// algorithmic regression (an accidental O(frags²) fate loop, a per-event
/// allocation in the drain path) but not on runner noise.
const ROUNDTRIP_DATACENTER_CEILING_NS: f64 = 120_000.0;
const TUNER_INFER_CEILING_NS: f64 = 360_000.0;

fn main() {
    let ceilings = [
        (
            "rpc_roundtrip/read_1m_datacenter",
            ROUNDTRIP_DATACENTER_CEILING_NS,
        ),
        ("rsize_tuner/on_op_infer", TUNER_INFER_CEILING_NS),
    ];
    bench::gate::run(
        benches,
        &ceilings,
        |_| false,
        "netfs path slower than ceiling",
    );
}
