//! Allocation-count regression test for the inference hot path.
//!
//! KML's pitch is a kernel-resident ML runtime, and a kernel hot path cannot
//! afford heap traffic per event (the paper budgets 676 B of *reused* scratch
//! for inference, §4). This test installs [`CountingSystemAlloc`] as the
//! global allocator of its own test binary and proves that after one warm-up
//! call, steady-state `Model::predict` / `Model::infer_into` perform **zero**
//! heap allocations.
//!
//! Lives in its own integration-test binary because `#[global_allocator]` is
//! process-wide; per-thread counters keep parallel libtest threads from
//! perturbing each other.

use kml_core::dataset::Normalizer;
use kml_core::fixed::Fix32;
use kml_core::loss::{CrossEntropyLoss, TargetRef};
use kml_core::matrix::Matrix;
use kml_core::model::{Model, ModelBuilder};
use kml_core::optimizer::Sgd;
use kml_core::scalar::Scalar;
use kml_core::KmlError;
use kml_platform::alloc::CountingSystemAlloc;
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

const FEATURES: [f64; 5] = [5_000.0, 3_000.0, 1_800.0, 500.0, 128.0];

fn fitted_normalizer() -> Normalizer {
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|r| (0..5).map(|c| (r * 5 + c) as f64).collect())
        .collect();
    let m = Matrix::from_rows(&rows).unwrap();
    Normalizer::fit(&m).unwrap()
}

fn assert_steady_state_zero_allocs<S: Scalar>(label: &str) {
    let mut model = ModelBuilder::readahead_paper_topology(5, 4)
        .seed(0x2a)
        .build::<S>()
        .unwrap();
    model.set_normalizer(fitted_normalizer());
    let mut out = Vec::new();

    // Warm-up: sizes every scratch buffer (graph arena, staging row, output).
    for _ in 0..3 {
        model.predict(&FEATURES).unwrap();
        model.infer_into(&FEATURES, &mut out).unwrap();
    }

    let allocs_before = CountingSystemAlloc::thread_allocations();
    let frees_before = CountingSystemAlloc::thread_frees();
    for _ in 0..1_000 {
        let class = model.predict(&FEATURES).unwrap();
        assert!(class < 4);
        model.infer_into(&FEATURES, &mut out).unwrap();
        assert_eq!(out.len(), 4);
    }
    let allocs = CountingSystemAlloc::thread_allocations() - allocs_before;
    let frees = CountingSystemAlloc::thread_frees() - frees_before;
    assert_eq!(
        allocs, 0,
        "{label}: steady-state inference performed {allocs} heap allocations"
    );
    assert_eq!(
        frees, 0,
        "{label}: steady-state inference performed {frees} heap frees"
    );
}

#[test]
fn steady_state_inference_is_allocation_free_f32() {
    assert_steady_state_zero_allocs::<f32>("f32");
}

#[test]
fn steady_state_inference_is_allocation_free_f64() {
    assert_steady_state_zero_allocs::<f64>("f64");
}

#[test]
fn steady_state_inference_is_allocation_free_fix32() {
    assert_steady_state_zero_allocs::<Fix32>("Fix32 (Q16.16)");
}

/// A single row is a one-row batch on the same staging matrix: a model
/// warmed with a 256-row batch and a single row, then alternated between
/// the two, never reaches the allocator — on the exact path and the q8
/// engine alike.
#[test]
fn alternating_a_batch_and_a_single_row_is_allocation_free() {
    let build = || {
        let mut model = ModelBuilder::readahead_paper_topology(5, 4)
            .seed(0x2a)
            .build::<f32>()
            .unwrap();
        model.set_normalizer(fitted_normalizer());
        model
    };
    let mut q8 = build();
    q8.enable_q8().unwrap();
    let batch: Vec<f64> = (0..256)
        .flat_map(|r| FEATURES.map(|v| v * (1.0 + r as f64 / 64.0)))
        .collect();
    for (label, mut model) in [("exact", build()), ("q8", q8)] {
        let (mut out, mut classes, mut row) = (Vec::new(), Vec::new(), Vec::new());
        let mut alternate = |model: &mut Model<f32>| {
            model.predict_batch_into(&batch, 256, &mut classes).unwrap();
            model.infer_batch_into(&batch, 256, &mut out).unwrap();
            assert!(model.predict(&FEATURES).unwrap() < 4);
            model.infer_into(&FEATURES, &mut row).unwrap();
            assert_eq!((classes.len(), out.len(), row.len()), (256, 1024, 4));
        };
        alternate(&mut model);
        let before = (
            CountingSystemAlloc::thread_allocations(),
            CountingSystemAlloc::thread_frees(),
        );
        for _ in 0..100 {
            alternate(&mut model);
        }
        let after = (
            CountingSystemAlloc::thread_allocations(),
            CountingSystemAlloc::thread_frees(),
        );
        assert_eq!(
            before, after,
            "{label}: alternating batch and row allocated"
        );
    }
}

/// Steady-state serial `train_batch` — forward, fused loss+gradient,
/// backward, visitor-driven SGD — must also be allocation-free once every
/// scratch buffer (graph arenas, loss-grad matrix, SGD velocities) has been
/// sized by a warm-up step.
fn assert_steady_state_training_zero_allocs<S: Scalar>(label: &str) {
    assert_training_zero_allocs::<S>(label, 4, 16);
}

/// `classes` outputs, `rows` samples a step. The loss stages its softmax
/// block in a scratch the model owns, so neither a head wider than the 32
/// outputs the old stack row held nor a batch past one 64-row block may
/// reach the allocator.
fn assert_training_zero_allocs<S: Scalar>(label: &str, classes: usize, rows: usize) {
    let mut model = ModelBuilder::readahead_paper_topology(5, classes)
        .seed(0x2a)
        .build::<S>()
        .unwrap();
    let mut sgd = Sgd::paper_defaults();
    let vals: Vec<f64> = (0..rows * 5)
        .map(|i| ((i * 11) % 23) as f64 * 0.1)
        .collect();
    let input = Matrix::<S>::from_f64_vec(rows, 5, &vals).unwrap();
    let labels: Vec<usize> = (0..rows).map(|i| i % classes).collect();
    let target = TargetRef::Classes(&labels);

    for _ in 0..3 {
        model
            .train_batch(&input, target, &CrossEntropyLoss, &mut sgd)
            .unwrap();
    }

    let allocs_before = CountingSystemAlloc::thread_allocations();
    let frees_before = CountingSystemAlloc::thread_frees();
    for _ in 0..1_000 {
        model
            .train_batch(&input, target, &CrossEntropyLoss, &mut sgd)
            .unwrap();
    }
    let allocs = CountingSystemAlloc::thread_allocations() - allocs_before;
    let frees = CountingSystemAlloc::thread_frees() - frees_before;
    assert_eq!(
        allocs, 0,
        "{label}: steady-state training performed {allocs} heap allocations"
    );
    assert_eq!(
        frees, 0,
        "{label}: steady-state training performed {frees} heap frees"
    );
}

#[test]
fn steady_state_training_is_allocation_free_f32() {
    assert_steady_state_training_zero_allocs::<f32>("f32");
}

#[test]
fn steady_state_training_is_allocation_free_f64() {
    assert_steady_state_training_zero_allocs::<f64>("f64");
}

#[test]
fn steady_state_training_is_allocation_free_fix32() {
    assert_steady_state_training_zero_allocs::<Fix32>("Fix32 (Q16.16)");
}

#[test]
fn steady_state_training_is_allocation_free_with_a_40_class_head() {
    assert_training_zero_allocs::<f64>("f64, 40 classes", 40, 16);
    assert_training_zero_allocs::<f32>("f32, 40 classes, 100 rows", 40, 100);
    assert_training_zero_allocs::<Fix32>("Fix32, 40 classes", 40, 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// ROADMAP item 5, first entry: on features a deployed loop can hand
    /// the model and training never did — the FEATURES window scaled across
    /// fifteen decades, through the vector sigmoid's range, exp's subnormal
    /// band and both clamps, with ±inf, NaN or ±`f64::MAX` planted in any
    /// one position — inference never panics, answers with a class inside
    /// the output or a typed `KmlError`, and still touches the allocator
    /// not once.
    #[test]
    fn inference_is_total_and_allocation_free_on_hostile_features(
        decade in -3i32..=12,
        jitter in 0.25f64..4.0,
        pos in 0usize..5,
        planted in prop_oneof![
            4 => Just(None),
            1 => Just(Some(f64::INFINITY)),
            1 => Just(Some(f64::NEG_INFINITY)),
            1 => Just(Some(f64::NAN)),
            1 => Just(Some(f64::MAX)),
            1 => Just(Some(-f64::MAX)),
        ],
    ) {
        let mut f = FEATURES.map(|v| v * jitter * 10f64.powi(decade));
        if let Some(v) = planted {
            f[pos] = v;
        }
        let mut model = ModelBuilder::readahead_paper_topology(5, 4)
            .seed(0x2a)
            .build::<f32>()
            .unwrap();
        model.set_normalizer(fitted_normalizer());
        let mut out = Vec::new();
        for _ in 0..2 {
            model.predict(&FEATURES).unwrap();
            model.infer_into(&FEATURES, &mut out).unwrap();
        }
        let before = (
            CountingSystemAlloc::thread_allocations(),
            CountingSystemAlloc::thread_frees(),
        );
        let class: Result<usize, KmlError> = model.predict(&f);
        let raw: Result<(), KmlError> = model.infer_into(&f, &mut out);
        let after = (
            CountingSystemAlloc::thread_allocations(),
            CountingSystemAlloc::thread_frees(),
        );
        prop_assert_eq!(before, after, "inference on {:?} touched the allocator", f);
        if let Ok(class) = class {
            prop_assert!(class < model.output_dim(), "class {} on {:?}", class, f);
        }
        if raw.is_ok() {
            prop_assert_eq!(out.len(), model.output_dim());
        }
    }
}

#[test]
fn counting_allocator_observes_heap_traffic() {
    // Sanity check that the counter actually counts: a Vec push from empty
    // must allocate, so a zero reading above is meaningful.
    let before = CountingSystemAlloc::thread_allocations();
    let v: Vec<u64> = Vec::with_capacity(32);
    assert!(
        CountingSystemAlloc::thread_allocations() > before,
        "allocator hook did not observe Vec::with_capacity"
    );
    drop(v);
}
