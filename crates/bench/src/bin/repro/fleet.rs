//! E10 — fleet-scale serving: thousands of seed-derived tenants sharing
//! one batched-inference model server (DESIGN.md §9).

use crate::{training, Ctx, DynResult, Out};
use kml_core::train::deploy;
use kml_fleet::fleet::{kind_name, workload_name};
use kml_fleet::{run_fleet, FleetConfig, FleetModels};
use readahead::model::LoopConfig;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E10: multi-tenant fleet serving (DESIGN.md §9)\n");
    let fleet_cfg = if ctx.quick {
        FleetConfig {
            tenants: 2_048,
            rounds: 4,
            ..FleetConfig::default()
        }
    } else {
        FleetConfig {
            tenants: 8_192,
            rounds: 6,
            ..FleetConfig::default()
        }
    };

    // Train the three shared classifiers the server deploys — the same
    // recipes the per-subsystem experiments use, f32-deployed like the
    // paper's kernel modules.
    let models = training("the three fleet classifiers", || trained_models(&ctx.cfg))?;
    let report = run_fleet(&fleet_cfg, models)?;
    let s = &report.summary;

    let mean_batch = if s.forward_passes == 0 {
        0.0
    } else {
        s.decisions_returned as f64 / s.forward_passes as f64
    };
    let summary_rows = vec![
        vec!["tenants".into(), s.tenants.to_string()],
        vec!["serving rounds".into(), s.rounds.to_string()],
        vec!["shards".into(), s.shards.to_string()],
        vec!["windows submitted".into(), s.windows_submitted.to_string()],
        vec![
            "decisions returned".into(),
            s.decisions_returned.to_string(),
        ],
        vec!["model forward passes".into(), s.forward_passes.to_string()],
        vec!["mean batch size".into(), format!("{mean_batch:.1}")],
        vec!["tenant ops recorded".into(), s.latency.count.to_string()],
        vec!["op latency p50".into(), format!("{} ns", s.latency.p50)],
        vec!["op latency p99".into(), format!("{} ns", s.latency.p99)],
        vec!["op latency max".into(), format!("{} ns", s.latency.max)],
    ];
    let kind_rows: Vec<Vec<String>> = (0..3)
        .map(|i| {
            vec![
                kind_name(i).into(),
                s.kind_counts[i].to_string(),
                s.decisions_applied[i].to_string(),
            ]
        })
        .collect();
    let workload_rows: Vec<Vec<String>> = (0..7)
        .map(|i| vec![workload_name(i).into(), s.workload_counts[i].to_string()])
        .collect();
    let batch_rows: Vec<Vec<String>> = s
        .batch_sizes
        .iter()
        .map(|&(size, n)| vec![size.to_string(), n.to_string()])
        .collect();
    let table = [
        bench::render_table(&["metric", "value"], &summary_rows),
        bench::render_table(&["model", "tenants", "decisions applied"], &kind_rows),
        bench::render_table(
            &["workload (Zipf popularity order)", "tenants"],
            &workload_rows,
        ),
        bench::render_table(&["batch size", "batches"], &batch_rows),
    ]
    .join("\n");

    println!("{table}");
    // Wall-clock throughput is machine-dependent by nature: stdout only,
    // never in the byte-compared results files.
    println!(
        "tuner-decision throughput: {:.0} tenant-windows/sec (wall {:.2}s)",
        report.tenant_windows_per_sec(),
        report.wall_secs
    );
    // Phase spans recorded by the fleet engine. These are wall-clock
    // facts (and overlap by design), so they are stdout-only too — the
    // JSON form under `--json` as well. Only `run_fleet` records these
    // histograms, so the global registry holds exactly this run's rounds.
    let snap = kml_telemetry::Registry::global().snapshot();
    let pool_workers = snap.gauge("kml.pool_workers").unwrap_or(0);
    println!("phase breakdown ({} pool workers):", pool_workers);
    let mut phase_lines = String::new();
    for (phase, label) in [
        ("run", "run   (round start -> last shard simulated)"),
        ("serve", "serve (round start -> last chunk applied)  "),
        ("apply", "apply (summed in-worker scatter time)      "),
    ] {
        if let Some(h) = snap.histogram(&format!("fleet.phase_{phase}_ns")) {
            println!(
                "  {label}: mean {:8.2} ms/round, p99 {:8.2} ms, max {:8.2} ms",
                h.mean() / 1e6,
                h.p99 as f64 / 1e6,
                h.max as f64 / 1e6
            );
            phase_lines.push_str(&format!(
                "{{\"schema\":\"fleet_phase\",\"experiment\":\"e10_fleet\",\"phase\":\"{phase}\",\"rounds\":{},\"mean_ns\":{:.0},\"p99_ns\":{},\"max_ns\":{},\"pool_workers\":{pool_workers}}}\n",
                h.count,
                h.mean(),
                h.p99,
                h.max,
            ));
        }
    }
    println!(
        "Shape: every submitted window is answered exactly once; batching\n\
         collapses ~{}x forward passes into {} and changes nothing else.\n",
        s.decisions_returned
            .checked_div(s.forward_passes)
            .unwrap_or(0),
        s.forward_passes
    );
    out.write("e10_fleet.txt", &table)?;

    let mut json_lines = format!(
        "{{\"experiment\":\"e10_fleet\",\"tenants\":{},\"rounds\":{},\"shards\":{},\"windows_submitted\":{},\"decisions_returned\":{},\"forward_passes\":{},\"latency_count\":{},\"latency_p50_ns\":{},\"latency_p95_ns\":{},\"latency_p99_ns\":{},\"latency_max_ns\":{}}}\n",
        s.tenants,
        s.rounds,
        s.shards,
        s.windows_submitted,
        s.decisions_returned,
        s.forward_passes,
        s.latency.count,
        s.latency.p50,
        s.latency.p95,
        s.latency.p99,
        s.latency.max,
    );
    for i in 0..3 {
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e10_fleet\",\"model\":{},\"tenants\":{},\"decisions_applied\":{}}}\n",
            kml_telemetry::json_str(kind_name(i)),
            s.kind_counts[i],
            s.decisions_applied[i],
        ));
    }
    for i in 0..7 {
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e10_fleet\",\"workload\":{},\"tenants\":{}}}\n",
            kml_telemetry::json_str(workload_name(i)),
            s.workload_counts[i],
        ));
    }
    for &(size, n) in &s.batch_sizes {
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e10_fleet\",\"batch_size\":{size},\"batches\":{n}}}\n"
        ));
    }
    out.json("e10_fleet.jsonl", "fleet", &json_lines)?;
    out.print_json(&phase_lines);
    Ok(())
}

/// The three f32-deployed classifiers the fleet serves — trained with the
/// same deterministic recipes the per-subsystem experiments use.
fn trained_models(cfg: &LoopConfig) -> DynResult<FleetModels> {
    let data = readahead::datagen::training_dataset(&cfg.datagen)?;
    Ok(FleetModels {
        readahead: deploy(&readahead::model::train_network(&data, cfg.epochs, 7)?)?,
        iosched: iosched::SchedTuner::train_model(7)?,
        // `train_rsize_model` hands back the f64 trainee's model file.
        netfs: deploy(&kml_core::modelfile::decode(&netfs::train_rsize_model(7)?)?)?,
    })
}
