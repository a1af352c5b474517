//! E1 — §4 "Studying the problem": readahead-vs-throughput curves and the
//! best value per workload.

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kvstore::Workload;
use readahead::closed_loop::VANILLA_RA_KB;
use readahead::study::ReadaheadStudy;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E1: readahead-vs-throughput study (§4, motivating curves)\n");
    let workloads = Workload::training_set();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        let study = ReadaheadStudy::run(device, &workloads, &ctx.cfg.study);
        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        for w in workloads {
            for cell in study.curve(w) {
                csv_rows.push(vec![
                    w.name().into(),
                    cell.ra_kb.to_string(),
                    format!("{:.0}", cell.ops_per_sec),
                ]);
            }
            let best = study.best_ra_kb(w);
            let best_tp = study.throughput(w, best).unwrap_or(0.0);
            let default_tp = nearest_throughput(&study, w, VANILLA_RA_KB);
            rows.push(vec![
                w.name().into(),
                format!("{best}"),
                format!("{best_tp:.0}"),
                format!("{default_tp:.0}"),
                format!("{:.2}x", best_tp / default_tp.max(1e-9)),
            ]);
        }
        println!("### device: {}\n", device.name);
        println!(
            "{}",
            bench::render_table(
                &[
                    "workload",
                    "best ra (KiB)",
                    "ops/s @ best",
                    "ops/s @ 128KiB",
                    "headroom"
                ],
                &rows
            )
        );
        let csv = bench::to_csv(&["workload", "ra_kb", "ops_per_sec"], &csv_rows);
        out.save("curves ", &format!("e1_study_{}.csv", device.name), &csv)?;
    }
    println!(
        "Shape check (paper): no single readahead value maximizes throughput\n\
         for all workloads; sequential prefers large values, random small.\n"
    );
    Ok(())
}

fn nearest_throughput(study: &ReadaheadStudy, w: Workload, ra_kb: u32) -> f64 {
    study.throughput(w, ra_kb).unwrap_or_else(|| {
        // Sweep may not contain the exact default; take the closest cell.
        study
            .curve(w)
            .iter()
            .min_by_key(|c| c.ra_kb.abs_diff(ra_kb))
            .map(|c| c.ops_per_sec)
            .unwrap_or(0.0)
    })
}
