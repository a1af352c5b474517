//! E5 — §4 overhead micro-numbers (wall-clock; see also `cargo bench`),
//! then the same stages measured inside a live loop (E5b).

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_collect::RingBuffer;
use kml_core::loss::TargetRef;
use kml_core::prelude::*;
use kvstore::Workload;
use readahead::closed_loop;
use readahead::FeatureExtractor;
use std::time::Instant;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E5: KML overheads (§4)\n");
    let trained = ctx.trained()?;

    // Data collection: ring push + feature fold, per tracepoint record.
    let (producer, mut consumer) = RingBuffer::with_capacity(1 << 16).split();
    let mut fx = FeatureExtractor::new();
    let record = kernel_sim::TraceRecord {
        kind: kernel_sim::TraceKind::AddToPageCache,
        inode: 3,
        page_offset: 12345,
        time_ns: 0,
    };
    const N: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        let mut r = record;
        r.page_offset = i;
        producer.push(r);
        if i % 512 == 0 {
            for rec in consumer.drain() {
                fx.push(&rec);
            }
        }
    }
    for rec in consumer.drain() {
        fx.push(&rec);
    }
    let collect_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    // Inference: one feature vector through the deployed f32 network.
    let mut network = {
        let bytes = kml_core::modelfile::encode(&trained.network)?;
        kml_core::modelfile::decode::<f32>(&bytes)?
    };
    let features = [5_000.0, 3_000.0, 1_800.0, 500.0, 128.0];
    let reps = 20_000;
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        sink = sink.wrapping_add(network.predict(&features)?);
    }
    let infer_ns = t0.elapsed().as_nanos() as f64 / reps as f64;

    // Training iteration: one batch forward+backward+SGD step (f64, as the
    // paper trains in user space).
    let data = readahead::datagen::training_dataset(&ctx.cfg.datagen)?;
    let mut train_model = readahead::model::train_network(&data, 1, 7)?;
    let mut sgd = Sgd::paper_defaults();
    let batch: Vec<Vec<f64>> = (0..16)
        .map(|i| data.sample(i % data.len()).0.to_vec())
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| data.sample(i % data.len()).1).collect();
    let input = Matrix::<f64>::from_rows(&batch)?;
    let reps = 5_000;
    let t0 = Instant::now();
    for _ in 0..reps {
        train_model.train_batch(
            &input,
            TargetRef::Classes(&labels),
            &CrossEntropyLoss,
            &mut sgd,
        )?;
    }
    let train_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    std::hint::black_box(sink);

    // Blocked-GEMM throughput: the 128³ f32 `matmul_into` in GFLOP/s, the
    // same shape the `kernels` bench gates against its committed floor.
    let gemm_dim = 128usize;
    let square = |seed: u64| -> DynResult<Matrix<f32>> {
        let vals: Vec<f64> = (0..gemm_dim * gemm_dim)
            .map(|i| ((i as u64).wrapping_mul(seed) % 97) as f64 * 0.02 - 0.97)
            .collect();
        Ok(Matrix::from_f64_vec(gemm_dim, gemm_dim, &vals)?)
    };
    let (ga, gb) = (square(37)?, square(53)?);
    let mut gout = Matrix::zeros(gemm_dim, gemm_dim);
    ga.matmul_into(&gb, &mut gout)?; // size the output once
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        ga.matmul_into(&gb, &mut gout)?;
    }
    let gemm_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let matmul_gflops = 2.0 * (gemm_dim as f64).powi(3) / gemm_ns;
    std::hint::black_box(gout.get(0, 0));

    let rows = vec![
        vec![
            "data collection + normalization".into(),
            format!("{collect_ns:.0} ns/event"),
            "49 ns".into(),
        ],
        vec![
            "inference".into(),
            format!("{infer_ns:.0} ns"),
            "21000 ns".into(),
        ],
        vec![
            "training iteration (batch 16)".into(),
            format!("{train_ns:.0} ns"),
            "51000 ns".into(),
        ],
        vec![
            "blocked matmul 128³ (f32)".into(),
            format!("{matmul_gflops:.2} GFLOP/s"),
            "—".into(),
        ],
        vec![
            "model init memory".into(),
            format!("{} bytes", network.init_memory_bytes()),
            "3916 bytes".into(),
        ],
        vec![
            "inference scratch memory (analytic)".into(),
            format!("{} bytes", network.inference_scratch_bytes()),
            "676 bytes".into(),
        ],
        vec![
            "inference scratch memory (measured arena high-water)".into(),
            format!("{} bytes", network.measured_scratch_bytes()),
            "676 bytes".into(),
        ],
    ];
    let table = bench::render_table(&["metric", "measured", "paper"], &rows);
    println!("{table}");
    println!(
        "Shape: collection ≪ inference < training; model memory ~4 KB.\n\
         (Absolute numbers depend on the host CPU; run `cargo bench -p bench`\n\
         for statistically rigorous versions of the same measurements.)\n"
    );
    out.write("e5_overheads.txt", &table)?;

    // In-loop self-measurement: the offline numbers above time the
    // primitives in isolation; the telemetry subsystem measures the same
    // stages *inside* a live closed-loop run, per-stage span histograms and
    // all. Both views should agree on the shape (collect ≪ infer ≪ train).
    println!("### E5b: in-loop self-measurement (kml-telemetry spans)\n");
    let run = closed_loop::run_kml_instrumented(
        Workload::ReadRandom,
        DeviceProfile::sata_ssd(),
        trained,
        &ctx.cfg,
    )?;
    let snap = &run.telemetry;
    println!("{}", snap.render_table());
    if let Some(h) = snap.histogram("readahead.loop.infer_ns") {
        println!(
            "in-loop inference: median {} ns over {} decisions \
             (offline micro-bench above: {:.0} ns)",
            h.p50, h.count, infer_ns
        );
    }
    println!("ring records dropped during run: {}\n", run.ring_dropped);

    let mut json_lines = String::new();
    for (metric, value, unit) in [
        ("collect_per_event", collect_ns, "ns"),
        ("inference", infer_ns, "ns"),
        ("train_batch16", train_ns, "ns"),
        ("train_ns_mean", train_ns, "ns"),
        ("matmul_gflops", matmul_gflops, "gflops"),
        (
            "model_init_memory",
            network.init_memory_bytes() as f64,
            "bytes",
        ),
        (
            "inference_scratch_memory",
            network.inference_scratch_bytes() as f64,
            "bytes",
        ),
        (
            "measured_scratch_high_water",
            network.measured_scratch_bytes() as f64,
            "bytes",
        ),
    ] {
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e5_overheads\",\"metric\":{},\"value\":{:.1},\"unit\":{}}}\n",
            kml_telemetry::json_str(metric),
            value,
            kml_telemetry::json_str(unit),
        ));
    }
    json_lines.push_str(&snap.to_json_lines("e5_inloop"));
    out.json("e5_overheads.jsonl", "overheads", &json_lines)?;
    Ok(())
}
