//! E9 — third use case: the same framework tuning an NFS-like mount's
//! `rsize` over simulated network links (DESIGN.md §8).

use crate::{training, Ctx, DynResult, Out};
use kml_platform::threading;
use netfs::{NetProfile, NetRunConfig, FIXED_RSIZES_KB};

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E9: NFS rsize tuning over simulated networks (DESIGN.md §8)\n");
    let cfg = if ctx.quick {
        NetRunConfig::quick()
    } else {
        NetRunConfig::paper()
    };
    let model_bytes = training("the rsize link classifier", || netfs::train_rsize_model(7))?;
    // One profile per task: each comparison builds its own transport, server,
    // and tuner from the profile seed, so fan-out is deterministic and the
    // rows come back in profile order.
    let profiles = NetProfile::experiment_profiles(7);
    let outcomes = threading::pool_map(&profiles, threading::default_workers(), |_, &profile| {
        netfs::compare(profile, &model_bytes, &cfg)
    });
    let mut rows = Vec::new();
    let mut json_lines = String::new();
    let mut speedups = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        let mut row = vec![outcome.profile.to_string()];
        for (_, report) in &outcome.fixed {
            row.push(format!("{:.1}", report.mb_per_sec));
        }
        row.push(format!("{:.1}", outcome.kml.mb_per_sec));
        row.push(format!("{:.2}x", outcome.speedup_vs_best_fixed));
        row.push(outcome.decisions.len().to_string());
        speedups.push(outcome.speedup_vs_best_fixed);
        let fixed: Vec<String> = outcome
            .fixed
            .iter()
            .map(|(kb, r)| format!("\"fixed_{kb}k_mb_s\":{:.4}", r.mb_per_sec))
            .collect();
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e9_netfs\",\"profile\":{},{},\"kml_mb_s\":{:.4},\"speedup_vs_best_fixed\":{:.4},\"decisions\":{},\"retransmits\":{},\"timeouts\":{}}}\n",
            kml_telemetry::json_str(outcome.profile),
            fixed.join(","),
            outcome.kml.mb_per_sec,
            outcome.speedup_vs_best_fixed,
            outcome.decisions.len(),
            outcome.kml.stats.retransmits,
            outcome.kml.stats.timeouts,
        ));
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("profile".to_string())
        .chain(FIXED_RSIZES_KB.iter().map(|kb| format!("{kb}K MB/s")))
        .chain([
            "KML MB/s".into(),
            "vs best fixed".into(),
            "decisions".into(),
        ])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = bench::render_table(&header_refs, &rows);
    println!("{table}");
    println!(
        "geomean vs best fixed rsize: {:.2}x\n\
         Shape: on the clean datacenter link every large rsize ties and KML\n\
         matches the best fixed choice; on lossy/phased links no fixed rsize\n\
         wins everywhere and the tuner's per-window switching pulls ahead.\n",
        bench::geometric_mean(&speedups)
    );
    out.write("e9_netfs.txt", &table)?;
    out.json("e9_netfs.jsonl", "netfs", &json_lines)?;
    Ok(())
}
