//! E6 — §4 decision-tree tuner against the neural network.

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_platform::threading;
use kvstore::Workload;
use readahead::closed_loop;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E6: decision-tree tuner vs neural network (§4)\n");
    let trained = ctx.trained()?;
    let cfg = &ctx.cfg;
    let mut rows = Vec::new();
    let mut json_lines = String::new();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        // vanilla / NN / tree triples per workload are independent cells.
        let workloads = Workload::all();
        let triples = threading::pool_map(
            &workloads,
            threading::default_workers(),
            |_, &workload| -> kml_core::Result<(f64, f64)> {
                let vanilla = closed_loop::run_vanilla(workload, device, cfg);
                let (nn, _) = closed_loop::run_kml(workload, device, trained, cfg)?;
                let (dt, _) = closed_loop::run_kml_tree(workload, device, trained, cfg)?;
                Ok((
                    nn.ops_per_sec / vanilla.ops_per_sec,
                    dt.ops_per_sec / vanilla.ops_per_sec,
                ))
            },
        );
        let (nn_speedups, dt_speedups): (Vec<f64>, Vec<f64>) =
            triples.into_iter().collect::<kml_core::Result<_>>()?;
        let nn_mean = bench::geometric_mean(&nn_speedups);
        let dt_mean = bench::geometric_mean(&dt_speedups);
        rows.push(vec![
            device.name.into(),
            format!("{:.2}x", nn_mean),
            format!("{:.2}x", dt_mean),
        ]);
        json_lines.push_str(&format!(
            "{{\"experiment\":\"e6_dtree\",\"device\":{},\"nn_geomean\":{:.4},\"dtree_geomean\":{:.4},\"tree_training_accuracy\":{:.4}}}\n",
            kml_telemetry::json_str(device.name),
            nn_mean,
            dt_mean,
            trained.tree_training_accuracy,
        ));
    }
    println!(
        "{}",
        bench::render_table(&["device", "NN geomean", "DTree geomean"], &rows)
    );
    println!(
        "tree training accuracy: {:.1}%\n\
         Paper: DT improved SSD 55% / NVMe 26% on average — inferior to the NN.\n",
        trained.tree_training_accuracy * 100.0
    );
    out.json("e6_dtree.jsonl", "dtree", &json_lines)?;
    Ok(())
}
