//! E3 — Table 2: per-workload KML speedups on NVMe and SSD.

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_platform::threading;
use kvstore::Workload;
use readahead::closed_loop;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E3: Table 2 — KML readahead NN speedups\n");
    let trained = ctx.trained()?;
    let devices = [DeviceProfile::nvme(), DeviceProfile::sata_ssd()];
    // One independent closed-loop comparison per (workload, device) cell,
    // fanned out across the worker pool; results come back in grid order so
    // the table and JSON-lines match a sequential run byte for byte.
    let tasks: Vec<_> = Workload::all()
        .into_iter()
        .flat_map(|workload| devices.map(|device| (workload, device)))
        .collect();
    let outcomes = threading::pool_map(
        &tasks,
        threading::default_workers(),
        |_, &(workload, device)| closed_loop::compare(workload, device, trained, &ctx.cfg),
    );
    let mut rows = Vec::new();
    let (mut nvme_speedups, mut ssd_speedups) = (Vec::new(), Vec::new());
    let mut json_lines = String::new();
    let mut grid = outcomes.into_iter();
    for workload in Workload::all() {
        let nvme = grid.next().expect("one outcome per grid cell")?.speedup;
        let ssd = grid.next().expect("one outcome per grid cell")?.speedup;
        nvme_speedups.push(nvme);
        ssd_speedups.push(ssd);
        rows.push(vec![
            workload.name().to_string(),
            format!("{nvme:.2}x"),
            format!("{ssd:.2}x"),
        ]);
        json_lines.push_str(&json_line(workload.name(), nvme, ssd));
    }
    let (nvme, ssd) = (
        bench::geometric_mean(&nvme_speedups),
        bench::geometric_mean(&ssd_speedups),
    );
    rows.push(vec![
        "geomean".into(),
        format!("{nvme:.2}x"),
        format!("{ssd:.2}x"),
    ]);
    json_lines.push_str(&json_line("geomean", nvme, ssd));
    let table = bench::render_table(&["benchmark", "NVMe", "SSD"], &rows);
    println!("{table}");
    println!(
        "Paper Table 2: readseq 0.96/1.02, readrandom 1.65/2.30,\n\
         readreverse 1.04/1.12, readrandomwriterandom 1.55/2.20,\n\
         updaterandom 1.53/2.22, mixgraph 1.51/2.09 (NVMe/SSD).\n\
         Shape: SSD gains exceed NVMe gains; readseq ≈ 1.0x; random/mixed win.\n"
    );
    out.write("e3_table2.txt", &table)?;
    out.json("e3_table2.jsonl", "table2", &json_lines)?;
    Ok(())
}

fn json_line(workload: &str, nvme: f64, ssd: f64) -> String {
    format!(
        "{{\"experiment\":\"e3_table2\",\"workload\":{},\"nvme_speedup\":{nvme:.4},\"ssd_speedup\":{ssd:.4}}}\n",
        kml_telemetry::json_str(workload),
    )
}
