//! Micro-benchmarks of the fleet's shared inference server: host
//! wall-clock cost of serving one tick of pending tenant windows, three
//! ways.
//!
//! - **batched** — the production path: windows grouped per model,
//!   chunked to ≤256-row batches, one blocked-GEMM forward pass per batch.
//! - **serial** — the same shared models answering one single-row pass
//!   per window: the same plan and executor as batched, cut into one-row
//!   chunks (`kml-core`'s batch-parity proptests prove batched == serial
//!   bit for bit), so the gap is pure GEMM amortization; the elementwise
//!   sigmoid work is identical in both and caps the ratio.
//! - **per-tenant** — the deployment counterfactual the fleet replaces:
//!   no shared server, every tenant owning its own model replica (the
//!   paper's one-model-per-machine shape, and exactly what the
//!   per-subsystem tuners do today). Identical weights, identical
//!   answers, but each window walks a different replica's weights and
//!   scratch, so the working set scales with the tenant count instead of
//!   the model count.
//!
//! A fourth variant, **batched q8**, is the same production grouping with
//! every model answering through its bounded-error int8 engine
//! (`ServeOptions::q8_serving`) — rows run two at a time through the
//! pair-pipelined register chain.
//!
//! Gates (mirrored in `BENCH_baseline.json`): median ceilings on the
//! batched f32 and q8 ticks, a ≥2× decisions/sec floor over the
//! per-tenant baseline, and a ≥1.1× floor over shared-model serial
//! serving.

use criterion::{criterion_group, Criterion};
use kml_fleet::{FleetModels, InferRequest, InferenceServer, ModelKind, ServeOptions};
use std::hint::black_box;

/// Pending windows per serving tick —
/// one window per tenant of the quick-scale fleet (2,048 tenants).
const WINDOWS: u64 = 2_048;

/// A deterministic mixed-kind request stream, the shape a fleet round
/// produces: all three models interleaved, features in the tuners' range.
/// The stream is Fisher–Yates shuffled (fixed xorshift seed) because fleet
/// windows do not arrive sorted by tenant — shards interleave — and the
/// per-tenant baseline's replica-table walk must pay that access pattern,
/// not an artificially prefetch-friendly sequential one. The shared server
/// regroups by model kind either way, so batched serving is order-blind.
fn pending_windows(n: u64) -> Vec<InferRequest> {
    let mut requests: Vec<InferRequest> = (0..n)
        .map(|t| {
            let kind = ModelKind::ALL[(t % 3) as usize];
            let dim = match kind {
                ModelKind::Iosched => 4,
                _ => 5,
            };
            let mut features = [0.0; kml_fleet::server::MAX_FEATURES];
            let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for f in features.iter_mut().take(dim) {
                x ^= x >> 31;
                x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                *f = (x % 4_096) as f64 / 16.0;
            }
            InferRequest {
                tenant_id: t,
                kind,
                features,
                dim,
            }
        })
        .collect();
    let mut state = 0x5EED_F1EEu64;
    for i in (1..requests.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        requests.swap(i, (state % (i as u64 + 1)) as usize);
    }
    requests
}

fn bench_serve_tick(c: &mut Criterion) {
    let requests = pending_windows(WINDOWS);
    let mut group = c.benchmark_group("fleet_serve");
    // The production path: windows grouped per model, chunked to 256-row
    // batches, one forward pass per batch.
    group.bench_function("batched_tick_2048", |b| {
        let mut server = InferenceServer::new(
            FleetModels::untrained(7).expect("deterministic model build"),
            ServeOptions::default(),
        );
        b.iter(|| black_box(server.serve(&requests).expect("serving succeeds").len()));
    });
    // The q8 serving tier: same batched grouping, but every model answers
    // through its bounded-error int8 engine (pair-pipelined rows). This is
    // the deployment mode `ServeOptions::q8_serving` enables; agreement
    // with the f32 path is gated in kml-fleet's tests, speed here.
    group.bench_function("batched_tick_q8_2048", |b| {
        let mut server = InferenceServer::new(
            FleetModels::untrained(7).expect("deterministic model build"),
            ServeOptions {
                q8_serving: true,
                ..ServeOptions::default()
            },
        );
        b.iter(|| black_box(server.serve(&requests).expect("serving succeeds").len()));
    });
    // Same shared models, one single-row forward pass per window.
    group.bench_function("serial_tick_2048", |b| {
        let mut server = InferenceServer::new(
            FleetModels::untrained(7).expect("deterministic model build"),
            ServeOptions {
                serial_inference: true,
                ..ServeOptions::default()
            },
        );
        b.iter(|| black_box(server.serve(&requests).expect("serving succeeds").len()));
    });
    // No server at all: a replica table indexed by tenant, each window a
    // single-row pass through its own tenant's replica, in arrival order.
    group.bench_function("per_tenant_tick_2048", |b| {
        let mut replicas: Vec<kml_core::model::Model<f32>> = (0..WINDOWS)
            .map(|t| {
                let models = FleetModels::untrained(7).expect("deterministic model build");
                match ModelKind::ALL[(t % 3) as usize] {
                    ModelKind::Readahead => models.readahead,
                    ModelKind::Iosched => models.iosched,
                    ModelKind::Netfs => models.netfs,
                }
            })
            .collect();
        b.iter(|| {
            let mut sink = 0usize;
            for req in &requests {
                let model = &mut replicas[req.tenant_id as usize];
                sink =
                    sink.wrapping_add(model.predict(req.features()).expect("inference succeeds"));
            }
            black_box(sink)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_serve_tick
}

/// Median ceiling for the batched f32 tick, mirrored in
/// `BENCH_baseline.json`. The pre-SIMD committed median was 530 µs; the
/// explicit-SIMD kernels must keep the tick ≥1.5× under that
/// (530,000 / 1.5), which still leaves ~20% headroom over the measured
/// ~290 µs median on a CI-class container.
const BATCHED_TICK_CEILING_NS: f64 = 353_333.0;

/// Median ceiling for the q8 serving tick (pair-pipelined int8 engines):
/// ~1.5× headroom over the measured ~173 µs median, and well over 2×
/// faster than the committed pre-SIMD f32 tick.
const BATCHED_TICK_Q8_CEILING_NS: f64 = 260_000.0;

/// The shared batched server must deliver at least this many times the
/// decisions/sec of the per-tenant-replica deployment it replaces.
const MIN_SPEEDUP_VS_PER_TENANT: f64 = 2.0;

/// Coalescing must also beat single-row serving through the *same* shared
/// models. The elementwise activation work is identical in both paths, so
/// this ratio is structurally modest — the floor guards the GEMM
/// amortization from regressing to nothing, not a 2× claim.
const MIN_SPEEDUP_VS_SERIAL: f64 = 1.1;

fn main() {
    let ceilings = [
        ("fleet_serve/batched_tick_2048", BATCHED_TICK_CEILING_NS),
        (
            "fleet_serve/batched_tick_q8_2048",
            BATCHED_TICK_Q8_CEILING_NS,
        ),
    ];
    bench::gate::run(
        benches,
        &ceilings,
        |summaries| {
            let mut failed = false;
            let median = |id: &str| bench::gate::median(summaries, id).unwrap_or(f64::NAN);
            let batched = median("fleet_serve/batched_tick_2048");
            for (baseline_id, floor) in [
                (
                    "fleet_serve/per_tenant_tick_2048",
                    MIN_SPEEDUP_VS_PER_TENANT,
                ),
                ("fleet_serve/serial_tick_2048", MIN_SPEEDUP_VS_SERIAL),
            ] {
                let baseline = median(baseline_id);
                if !batched.is_finite() || !baseline.is_finite() {
                    continue;
                }
                let speedup = baseline / batched;
                let pass = speedup >= floor;
                println!(
                    "{}: batched vs {baseline_id} speedup {speedup:.2}x (floor {floor:.1}x)",
                    if pass { "PASS" } else { "FAIL" },
                );
                failed |= !pass;
            }
            failed
        },
        "fleet serving regressed",
    );
}
