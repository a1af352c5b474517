//! E5 — the §4 overhead micro-benchmarks, measured rigorously.
//!
//! Paper reference points: data collection + normalization ≈ 49 ns per
//! event; one inference ≈ 21 µs; one training iteration ≈ 51 µs; model
//! memory 3,916 B init + 676 B inference scratch. Absolute numbers depend
//! on the host CPU; the *ordering* (collection ≪ inference < training) and
//! orders of magnitude are what must reproduce.

use criterion::{criterion_group, BatchSize, Criterion};
use kml_collect::RingBuffer;
use kml_core::layers::LayerKind;
use kml_core::loss::{CrossEntropyLoss, TargetRef};
use kml_core::matrix::Matrix;
use kml_core::model::ModelBuilder;
use kml_core::optimizer::Sgd;
use kml_core::prelude::*;
use readahead::model::{train_paper_model, LoopConfig};
use readahead::FeatureExtractor;
use std::hint::black_box;

/// One window as the deployed loop sees it on the ledger's 2^20-key store
/// (mixgraph at seed 7, a window ~0.6 s in, rounded): page offsets far
/// outside the range the quick model's normaliser was fitted on (a
/// 2^16-key store), so hidden pre-activations reach ±1,000 and one of
/// them sits at -725.
const LOOP_FEATURES: [f64; 5] = [303.0, 52_215.0, 30_656.0, 5_462.0, 128.0];

/// Decimal exponents of the magnitude sweep (`LOOP_FEATURES × 10^k`).
const SWEEP_EXPONENTS: std::ops::RangeInclusive<i32> = -3..=9;

/// A window solved for on the deployed network: five of its fifteen first
/// hidden units at pre-activation −95.65, the middle of (−103.9, −87.4)
/// where σ is an f32 subnormal, and a sixth lands in that band too. Loop
/// windows put one to three units there (`LOOP_FEATURES` × 0.18 … 0.22).
const BAND_WINDOW: [f64; 5] = [21_999.0, 2_575.0, 14_105.0, 541.0, 300.0];

/// Rows of the batched gate: `BAND_WINDOW` scaled by 1.00 … 1.02, every
/// row that is not a [`band_row`] divided by [`MID_RANGE_DIVISOR`].
const BATCH_ROWS: usize = 256;

/// Whether row `r` of the batched gate holds the band window. Batched
/// inference puts 16 rows across an AVX-512 vector and 8 across an AVX2
/// one, so in each 32 rows one 16-row vector has band rows in its upper
/// eight lanes only and the other in lanes 4–7 and 12–15; of the 8-row
/// vectors, one has none, one all and two their upper four lanes only. A
/// route that missed any lane position of a vector would leave some
/// vectors' subnormal products to `vmulps` and its assists.
fn band_row(r: usize) -> bool {
    matches!(r % 32, 8..=15 | 20..=23 | 28..=31)
}

/// Fewest f32-subnormal first hidden units a band row may hold.
const BATCH_MIN_SUBNORMALS: usize = 4;

/// The mid-range twin of the batched gate divides every feature by this.
const MID_RANGE_DIVISOR: f64 = 200.0;

/// Ceiling on the batched gate's subnormal / mid-range median ratio.
const BATCH_RATIO_CEILING: f64 = 1.5;

/// The input and output of every sigmoid layer over one forward pass of
/// the row-stacked `batch` (`input_dim`-wide rows), layer by layer.
fn sigmoid_layers(model: &mut Model<f32>, batch: &[f64]) -> Vec<(Vec<f32>, Vec<f32>)> {
    let dim = model.input_dim();
    let mut rows = batch.to_vec();
    if let Some(n) = model.normalizer() {
        for row in rows.chunks_mut(dim) {
            n.apply_row(row).expect("feature width matches");
        }
    }
    let rows: Vec<f32> = rows.iter().map(|&v| v as f32).collect();
    let mut act = Matrix::from_vec(batch.len() / dim, dim, rows).expect("whole rows");
    let mut layers = Vec::new();
    for layer in model.graph_mut().layers_mut() {
        let mut out = Matrix::zeros(0, 0);
        layer.forward_into(&act, &mut out).expect("chain forward");
        if layer.kind() == LayerKind::Sigmoid {
            layers.push((act.as_slice().to_vec(), out.as_slice().to_vec()));
        }
        act = out;
    }
    layers
}

/// Inputs to sigmoid layers, over one forward pass of `features`, whose
/// `exp(-|x|)` is an f64 subnormal: `|x|` in (708.4, 745), the band where
/// `kml_core::math::exp` leaves the bit-splice for the integer halving.
fn band_units(model: &mut Model<f32>, features: &[f64]) -> usize {
    let in_band = |v: &&f32| v.abs() > 708.4 && v.abs() < 745.0;
    sigmoid_layers(model, features)
        .iter()
        .map(|(input, _)| input.iter().filter(in_band).count())
        .sum()
}

fn bench_collection(c: &mut Criterion) {
    // The inline hook: one wait-free ring push per tracepoint.
    let (producer, mut consumer) = RingBuffer::<(u64, u64)>::with_capacity(1 << 16).split();
    let mut i = 0u64;
    c.bench_function("overhead_collection_push", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            producer.push(black_box((i, i * 7)));
            // Drain periodically so the buffer reflects steady state.
            if i.is_multiple_of(4096) {
                while consumer.pop().is_some() {}
            }
        })
    });

    // The async-thread side: folding one record into the features.
    let mut fx = FeatureExtractor::new();
    let mut off = 0u64;
    c.bench_function("overhead_normalization_fold", |b| {
        b.iter(|| {
            off = off.wrapping_mul(6364136223846793005).wrapping_add(1);
            fx.push(black_box(&kernel_sim::TraceRecord {
                kind: kernel_sim::TraceKind::AddToPageCache,
                inode: 1,
                page_offset: off % 1_000_000,
                time_ns: off,
            }));
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    // The deployed readahead network: 5 → 15 → σ → 10 → σ → 4 in f32.
    let features = [5_000.0, 3_000.0, 1_800.0, 500.0, 128.0];

    // `overhead_inference` is the per-decision cost of the serving tier:
    // the int8 engine (`Model::enable_q8`) the fleet's q8_serving mode
    // deploys, measured the way the fleet server actually consumes it —
    // batched `predict_batch_into` calls, here a 16-request batch. Every
    // iteration is one decision; every 16th issues the batch, so the
    // reported median is the amortized per-decision cost (batch rows run
    // two at a time through the engine's software-pipelined pair kernel,
    // which is what buys back the latency a single ~250-µop narrow row
    // leaves on the table). Bounded error (≥99.5% decision agreement,
    // gated in kml-fleet), ≤100 ns — the paper's "inference must be cheap
    // enough to sit on the I/O path" number. The exact f32 forward pass
    // and the single-row q8 latency are benched separately below.
    let mut q8_model = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f32>()
        .expect("paper topology builds");
    q8_model.enable_q8().expect("paper topology quantizes");
    let batch: Vec<f64> = (0..16)
        .flat_map(|r| {
            features
                .iter()
                .enumerate()
                .map(move |(i, &f)| f + (r * 7 + i) as f64)
        })
        .collect();
    let mut classes = Vec::new();
    let mut decision = 0u32;
    c.bench_function("overhead_inference", |b| {
        b.iter(|| {
            decision += 1;
            if decision.is_multiple_of(16) {
                q8_model
                    .predict_batch_into(black_box(&batch), 16, &mut classes)
                    .expect("inference succeeds");
            }
        })
    });

    // Single-row q8 latency (one isolated decision, nothing to pipeline
    // against — the floor an unbatched caller sees).
    c.bench_function("overhead_inference_single", |b| {
        b.iter(|| {
            q8_model
                .predict(black_box(&features))
                .expect("inference succeeds")
        })
    });

    // The bit-exact f32 path (dispatched SIMD kernels, or scalar under
    // KML_FORCE_SCALAR=1) — what the per-subsystem closed loops run.
    let mut model = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f32>()
        .expect("paper topology builds");
    c.bench_function("overhead_inference_exact", |b| {
        b.iter(|| {
            model
                .predict(black_box(&features))
                .expect("inference succeeds")
        })
    });

    // The same path on what the ledger's loops feed it: the deployed quick
    // network (the one `benchmark/` trains) on a window that leaves a
    // hidden unit in exp's subnormal band. `overhead_inference_exact` runs
    // an untrained network on raw features: twelve of its fifteen hidden
    // units clamp and none is in the band, so it cannot see a cost that
    // depends on *where* out of range the features are. This one exists to
    // (EXPERIMENTS.md E20: 3.5 µs here against 0.36 µs there before the
    // integer halving).
    let mut deployed = train_paper_model(&LoopConfig::quick())
        .expect("quick model trains")
        .network;
    let hits = band_units(&mut deployed, &LOOP_FEATURES);
    assert!(
        hits >= 1,
        "LOOP_FEATURES no longer lands a sigmoid input in (708.4, 745): \
         the bench has gone friendly, pick a window that does"
    );
    c.bench_function("overhead_inference_loop_features", |b| {
        b.iter(|| {
            deployed
                .predict(black_box(&LOOP_FEATURES))
                .expect("inference succeeds")
        })
    });

    // Inference cost must not depend on feature magnitude: the same window
    // scaled across twelve decades, from every unit mid-range to every unit
    // saturated. `main` gates the slowest against the fastest.
    let mut sweep = c.benchmark_group("overhead_inference_sweep");
    for k in SWEEP_EXPONENTS {
        let scaled = LOOP_FEATURES.map(|f| f * 10f64.powi(k));
        sweep.bench_function(format!("1e{k}"), |b| {
            b.iter(|| {
                deployed
                    .predict(black_box(&scaled))
                    .expect("inference succeeds")
            })
        });
    }
    sweep.finish();

    // Batched, on windows that leave f32 subnormals in the hidden layer:
    // every band row's first hidden layer holds at least four σ outputs
    // below f32's smallest normal, which the next layer multiplies by its
    // weights, and the band rows take the lane positions `band_row` names.
    // The same batch ÷ 200 leaves no activation below 2^-100 (asserted
    // too), so none of its products takes the exact route. `main` gates the
    // first against the second: a `vmulps` with a subnormal operand takes a
    // microcode assist, and the f32 arms take those products exactly
    // instead (EXPERIMENTS.md E28, E36).
    let band: Vec<f64> = (0..BATCH_ROWS)
        .flat_map(|r| {
            let scale = (1.0 + 0.02 * r as f64 / BATCH_ROWS as f64)
                / if band_row(r) { 1.0 } else { MID_RANGE_DIVISOR };
            BAND_WINDOW.map(|f| f * scale)
        })
        .collect();
    let mid: Vec<f64> = band.iter().map(|f| f / MID_RANGE_DIVISOR).collect();
    let subnormal = |v: &&f32| **v != 0.0 && v.abs() < f32::MIN_POSITIVE;
    let tiny = |v: &f32| *v != 0.0 && v.abs() < 2f32.powi(-100);
    let (_, first) = &sigmoid_layers(&mut deployed, &band)[0];
    for (r, row) in first.chunks(first.len() / BATCH_ROWS).enumerate() {
        if band_row(r) {
            assert!(
                row.iter().filter(subnormal).count() >= BATCH_MIN_SUBNORMALS,
                "band row {r} of the batched gate has fewer than {BATCH_MIN_SUBNORMALS} \
                 f32-subnormal first hidden units: the bench has gone friendly, solve for \
                 a window that does"
            );
        } else {
            assert!(
                !row.iter().any(tiny),
                "mid-range row {r} holds an activation below 2^-100"
            );
        }
    }
    assert!(
        sigmoid_layers(&mut deployed, &mid)
            .iter()
            .all(|(_, out)| !out.iter().any(tiny)),
        "the mid-range batch holds an activation below 2^-100"
    );
    let mut classes = Vec::with_capacity(BATCH_ROWS);
    for (id, batch) in [
        ("overhead_inference_batch_subnormal", &band),
        ("overhead_inference_batch_midrange", &mid),
    ] {
        c.bench_function(id, |b| {
            b.iter(|| {
                deployed
                    .predict_batch_into(black_box(batch), BATCH_ROWS, &mut classes)
                    .expect("inference succeeds")
            })
        });
    }
}

fn bench_training_iteration(c: &mut Criterion) {
    let mut rng = KmlRng::seed_from_u64(3);
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|_| (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let input = Matrix::<f64>::from_rows(&rows).expect("batch builds");
    c.bench_function("overhead_training_iteration", |b| {
        b.iter_batched(
            || {
                (
                    ModelBuilder::readahead_paper_topology(5, 4)
                        .build::<f64>()
                        .expect("paper topology builds"),
                    Sgd::paper_defaults(),
                )
            },
            |(mut model, mut sgd)| {
                for _ in 0..8 {
                    model
                        .train_batch(
                            black_box(&input),
                            TargetRef::Classes(&labels),
                            &CrossEntropyLoss,
                            &mut sgd,
                        )
                        .expect("training step succeeds");
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_model_file(c: &mut Criterion) {
    let model = ModelBuilder::readahead_paper_topology(5, 4)
        .build::<f32>()
        .expect("paper topology builds");
    let bytes = kml_core::modelfile::encode(&model).expect("encode succeeds");
    c.bench_function("overhead_model_decode", |b| {
        b.iter(|| kml_core::modelfile::decode::<f32>(black_box(&bytes)).expect("decode succeeds"))
    });
}

criterion_group! {
    name = benches;
    // KML_BENCH_SAMPLES trims the per-benchmark sample count for CI smoke
    // runs (default 30 matches the committed BENCH_baseline.json medians).
    config = Criterion::default().sample_size(bench::gate::samples(30));
    targets = bench_collection, bench_inference, bench_training_iteration, bench_model_file
}

/// `criterion_main!` replacement that can also export the run for trend
/// tracking: when `KML_BENCH_SNAPSHOT=<path>` is set, the medians are
/// written there as JSON in the same `id → ns` shape `BENCH_baseline.json`
/// uses, so a run is diffable against the committed pre-optimization
/// baseline.
fn main() {
    bench::gate::run(benches, &[], snapshot_and_gates, "overhead gate exceeded");
}

fn snapshot_and_gates(all: &[criterion::Summary]) -> bool {
    if let Ok(path) = std::env::var("KML_BENCH_SNAPSHOT") {
        let mut json = String::from("{\n");
        for (i, s) in all.iter().enumerate() {
            let sep = if i + 1 == all.len() { "" } else { "," };
            json.push_str(&format!("  \"{}\": {:.1}{}\n", s.id, s.median_ns, sep));
        }
        json.push_str("}\n");
        std::fs::write(&path, json).expect("writing bench snapshot");
        println!("bench snapshot written to {path}");
    }

    // Regression gates against the committed BENCH_baseline.json numbers:
    // the training iteration stays under 2× its committed 31,600 ns (the
    // step before PR 21's column kernels and blocked softmax read 50,800,
    // the pre-blocking loops 215,570), the serving-tier
    // int8 decision (batch-amortized, see `bench_inference`) must stay at
    // or under 100 ns with the single-row latency under 250 ns, and the
    // exact f32 path stays under 2× its committed 297 ns (987.1 ns in the
    // first baseline, 470 ns before the f32 sigmoid's fast route and the
    // layers' forward copies went), and the same path on a deployed loop's
    // window under 2× its committed 319 ns (606 ns before them; 3,500 ns
    // with exp's halving loop). These two and the two q8 gates assume the
    // vector arms of the default dispatch: under KML_FORCE_SCALAR=1 the
    // exact pair reads about 640 / 712 ns. On by
    // default so the bench-smoke CI job catches regressions;
    // KML_BENCH_ENFORCE=0 opts out for exploratory runs on noisy machines.
    if !bench::gate::enforced() {
        return false;
    }
    let median = |id: &str| bench::gate::median(all, id);
    let mut failed = false;
    for (id, gate_ns) in [
        ("overhead_training_iteration", 63_200.0),
        ("overhead_inference", 100.0),
        ("overhead_inference_single", 250.0),
        ("overhead_inference_exact", 594.0),
        ("overhead_inference_loop_features", 638.0),
    ] {
        let Some(m) = median(id) else {
            continue; // filtered out on this invocation
        };
        let verdict = if m <= gate_ns { "PASS" } else { "FAIL" };
        println!("{verdict}: {id} median {m:.1} ns (gate {gate_ns:.0} ns)");
        failed |= m > gate_ns;
    }
    // Slowest decade of the magnitude sweep against the fastest: the
    // halving loop read ~12x, a whole vector block following one hard
    // lane down the scalar sigmoid ~3.4x; what is left (the band lane's
    // own scalar call) reads under 2x.
    let sweep: Vec<f64> = SWEEP_EXPONENTS
        .filter_map(|k| median(&format!("overhead_inference_sweep/1e{k}")))
        .collect();
    if sweep.len() == SWEEP_EXPONENTS.count() {
        let worst = sweep.iter().copied().fold(f64::MIN, f64::max);
        let best = sweep.iter().copied().fold(f64::MAX, f64::min);
        let verdict = if worst <= 4.0 * best { "PASS" } else { "FAIL" };
        println!(
            "{verdict}: overhead_inference_sweep worst {worst:.1} ns / friendliest {best:.1} ns \
             = {:.2}x (gate 4.00x)",
            worst / best
        );
        failed |= worst > 4.0 * best;
    }
    // The batch with f32-subnormal hidden units against its mid-range twin
    // (BENCH_baseline.json has both medians, the ratio and the parent
    // commit's, where each of those products took an assist).
    if let (Some(sub), Some(mid)) = (
        median("overhead_inference_batch_subnormal"),
        median("overhead_inference_batch_midrange"),
    ) {
        let ratio = sub / mid;
        let verdict = if ratio <= BATCH_RATIO_CEILING {
            "PASS"
        } else {
            "FAIL"
        };
        println!(
            "{verdict}: overhead_inference_batch_subnormal {sub:.1} ns / midrange {mid:.1} ns \
             = {ratio:.2}x (gate {BATCH_RATIO_CEILING:.2}x)"
        );
        failed |= ratio > BATCH_RATIO_CEILING;
    }
    failed
}
