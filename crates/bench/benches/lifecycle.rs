//! Micro-benchmarks of the model-lifecycle swap path: how long a live
//! serving path is exposed to a model change.
//!
//! - **swap_publish_fleet** — [`InferenceServer::swap_model`]: the atomic
//!   generation publish into the fleet's per-kind swap cell, with the
//!   replacement model already decoded (the decode happens off the
//!   serving path in `iter_batched` setup). This is the only instant a
//!   serving tick can observe a swap at all.
//! - **install_loop** — `KmlTuner::install_artifact`: the closed-loop
//!   swap point, including the full `.kmlm` checksum verification and
//!   model decode — the whole pause a loop window can see.
//! - **artifact_roundtrip** — decode + re-encode of the readahead
//!   `.kmlm` artifact, the unit of work a model push costs end to end.
//!
//! Gate (mirrored in `BENCH_baseline.json`): neither swap flavour may
//! stall serving longer than one batched fleet tick — the same
//! 353,333 ns ceiling the fleet bench enforces on the tick itself — so
//! a hot-swap costs at most one tick of latency to the fleet, never a
//! visible outage.

use criterion::{criterion_group, BatchSize, Criterion};
use kml_collect::RingBuffer;
use kml_fleet::{FleetModels, InferenceServer, ModelKind, ServeOptions};
use kml_lifecycle::{load_model_for, save_model, ArtifactKind, LifecycleTarget};
use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};
use std::hint::black_box;

/// The packaged readahead artifact every benchmark swaps: the same
/// deterministic build the fleet serves, `.kmlm`-encoded once up front.
fn readahead_artifact() -> Vec<u8> {
    let mut model = FleetModels::untrained(7)
        .expect("deterministic model build")
        .readahead;
    save_model(ArtifactKind::Readahead, &mut model).expect("artifact packaging")
}

fn bench_lifecycle(c: &mut Criterion) {
    let artifact = readahead_artifact();
    let mut group = c.benchmark_group("lifecycle");

    // The fleet-side publish: decode in setup, measure only the swap.
    group.bench_function("swap_publish_fleet", |b| {
        let mut server = InferenceServer::new(
            FleetModels::untrained(7).expect("deterministic model build"),
            ServeOptions::default(),
        );
        b.iter_batched(
            || {
                load_model_for::<f32>(&artifact, ArtifactKind::Readahead)
                    .expect("valid artifact")
                    .model
            },
            |model| {
                black_box(
                    server
                        .swap_model(ModelKind::Readahead, model)
                        .expect("swap succeeds"),
                )
            },
            BatchSize::SmallInput,
        );
    });

    // The loop-side install: checksum + decode + swap, all on the clock.
    group.bench_function("install_loop", |b| {
        let (_producer, consumer) = RingBuffer::with_capacity(64).split();
        let initial = load_model_for::<f32>(&artifact, ArtifactKind::Readahead)
            .expect("valid artifact")
            .model;
        let mut tuner = KmlTuner::new(
            TunerModel::NeuralNet(Box::new(initial)),
            RaPolicy::new(vec![16, 64, 256, 1024]),
            consumer,
            1_000_000,
            128,
        );
        let mut generation = 1u64;
        b.iter(|| {
            generation += 1;
            tuner
                .install_artifact(black_box(&artifact), generation)
                .expect("valid artifact");
        });
    });

    group.bench_function("artifact_roundtrip", |b| {
        b.iter(|| {
            let mut m = load_model_for::<f32>(black_box(&artifact), ArtifactKind::Readahead)
                .expect("valid artifact")
                .model;
            black_box(
                save_model(ArtifactKind::Readahead, &mut m)
                    .expect("artifact packaging")
                    .len(),
            )
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_lifecycle
}

/// A model swap may stall serving for at most one batched fleet tick —
/// the fleet bench's own `BATCHED_TICK_CEILING_NS`, mirrored in
/// `BENCH_baseline.json`. Applied to both the fleet publish and the
/// loop-side install (which pays checksum + decode inside the pause).
const SWAP_PAUSE_CEILING_NS: f64 = 353_333.0;

fn main() {
    let ceilings = [
        ("lifecycle/swap_publish_fleet", SWAP_PAUSE_CEILING_NS),
        ("lifecycle/install_loop", SWAP_PAUSE_CEILING_NS),
    ];
    bench::gate::run(
        benches,
        &ceilings,
        |_| false,
        "lifecycle swap pause regressed",
    );
}
