//! E4 — Figure 2: the mixgraph timeline on NVMe (ops/sec and readahead
//! size per window).

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_platform::threading;
use kvstore::Workload;
use readahead::closed_loop;

pub fn run(ctx: &Ctx, _: &mut Out) -> DynResult {
    println!("## E4: Figure 2 — mixgraph timeline on NVMe\n");
    let trained = ctx.trained()?;
    let cfg = &ctx.cfg;
    // The paper runs the benchmark 15 times and averages; we run a smaller
    // ensemble at quick scale.
    let repeats = if cfg.eval_ops <= 10_000 { 3 } else { 5 };
    // Ensemble members are independent runs seeded by repeat index; run them
    // concurrently and keep CSV rows grouped by repeat, as sequentially.
    let reps: Vec<usize> = (0..repeats).collect();
    let outcomes = threading::pool_map(&reps, threading::default_workers(), |_, &rep| {
        let mut run_cfg = cfg.clone();
        run_cfg.seed = cfg.seed + rep as u64;
        closed_loop::compare(Workload::MixGraph, DeviceProfile::nvme(), trained, &run_cfg)
    });
    let mut all_rows = Vec::new();
    let mut speedups = Vec::new();
    for (rep, outcome) in outcomes.into_iter().enumerate() {
        let outcome = outcome?;
        speedups.push(outcome.speedup);
        for p in &outcome.timeline {
            all_rows.push(vec![
                rep.to_string(),
                p.t_ms.to_string(),
                format!("{:.0}", p.ops_per_sec),
                p.ra_kb.to_string(),
                format!("{:.0}", p.infer_ns_mean),
            ]);
        }
    }
    let csv = bench::to_csv(
        &["run", "t_ms", "ops_per_sec", "ra_kb", "infer_ns_mean"],
        &all_rows,
    );
    let path = bench::write_results("e4_figure2.csv", &csv)?;
    println!(
        "{} timeline points over {repeats} runs written to {}",
        all_rows.len(),
        path.display()
    );
    println!(
        "mean mixgraph speedup: {:.2}x   [paper: ~1.51x on NVMe over 15 runs]\n\
         Expect readahead-size fluctuations early in each run (cold caches),\n\
         settling as the classifier locks onto the workload.\n",
        bench::geometric_mean(&speedups)
    );
    Ok(())
}
