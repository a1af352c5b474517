//! Micro-benchmarks of the continual-learning loop (DESIGN.md §13):
//! what the closed loop pays per window while nothing is wrong, and what
//! one full retrain-and-package cycle costs when something is.
//!
//! - **window_observe** — the per-window observation hot path exactly as
//!   `ContinualController::observe_window` runs it when no drift fires:
//!   one deterministic-reservoir `offer` plus one drift-detector
//!   `observe`. This rides inside every tuner window, so it must be
//!   invisible next to the window's own inference cost.
//! - **retrain_and_package** — `train_candidate` over a full 64-sample
//!   reservoir at the E14 quick-scale step budget: normalizer fit,
//!   seeded rebuild, full-batch SGD, and `.kmlm` packaging — the whole
//!   unit of work the window that triggers a retrain pays for.
//!
//! Gates (mirrored in `BENCH_baseline.json`): the observation path must
//! stay under 1 µs — two orders below the loop's own per-window
//! inference — and a retrain cycle must finish under 250 ms so a
//! candidate is staged within a handful of wall-clock windows of the
//! trigger rather than arriving after the shift has moved on.

use criterion::{criterion_group, Criterion};
use kml_continual::{
    train_candidate, DriftConfig, DriftDetector, Reservoir, ReservoirSample, RetrainSpec,
    RESERVOIR_DIM,
};
use kml_lifecycle::ArtifactKind;
use std::hint::black_box;

/// A two-phase reservoir at capacity: half random-phase, half shifted,
/// in the same log-compressed pattern-feature space E14 serves.
fn full_reservoir() -> Vec<ReservoirSample> {
    (0..64u64)
        .map(|j| {
            let jit = ((j * 7) % 11) as f64 * 0.05;
            let shifted = j % 2 == 1;
            ReservoirSample {
                id: j,
                priority: 0,
                features: if shifted {
                    [0.0, 0.0, 4.1 + jit, 1.0, 0.0]
                } else {
                    [0.0, 0.0, 14.2 + jit, 12.0 + jit, 0.0]
                },
                label: usize::from(shifted),
            }
        })
        .collect()
}

fn bench_continual(c: &mut Criterion) {
    let mut group = c.benchmark_group("continual");

    // The quiescent per-window cost: offer + observe, no trigger.
    group.bench_function("window_observe", |b| {
        let mut reservoir = Reservoir::new(64, 0xBE7C_5EED);
        let mut detector = DriftDetector::new(
            RESERVOIR_DIM,
            DriftConfig {
                reference_windows: 6,
                block_windows: 6,
                threshold: 8.0,
                trigger_blocks: 2,
                abs_floor: 1.0,
            },
        );
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            let jit = (id % 11) as f64 * 0.05;
            let features = [0.0, 0.0, 14.2 + jit, 12.0 + jit, 0.0];
            let kept = reservoir.offer(id, black_box(features), 0);
            let drifted = detector.observe(black_box(&features));
            black_box((kept, drifted))
        });
    });

    // One full retrain work unit at E14 quick scale.
    group.bench_function("retrain_and_package", |b| {
        let samples = full_reservoir();
        let spec = RetrainSpec {
            kind: ArtifactKind::Readahead,
            classes: 2,
            epochs: 1_500,
            seed: 0xBE7C_7EA1,
        };
        let mut token = 0u64;
        b.iter(|| {
            token += 1;
            black_box(
                train_candidate(black_box(&spec), token, black_box(&samples))
                    .expect("retrain cycle")
                    .len(),
            )
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_continual
}

/// The per-window observation must be noise next to the window's own
/// inference (~60 µs on the netfs hook): 1 µs ceiling.
const WINDOW_OBSERVE_CEILING_NS: f64 = 1_000.0;

/// A retrain-and-package cycle must come back within a handful of
/// wall-clock windows of the trigger: 250 ms ceiling.
const RETRAIN_CYCLE_CEILING_NS: f64 = 250_000_000.0;

fn main() {
    let ceilings = [
        ("continual/window_observe", WINDOW_OBSERVE_CEILING_NS),
        ("continual/retrain_and_package", RETRAIN_CYCLE_CEILING_NS),
    ];
    bench::gate::run(
        benches,
        &ceilings,
        |_| false,
        "continual loop cost regressed",
    );
}
