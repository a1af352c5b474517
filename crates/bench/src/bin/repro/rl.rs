//! §6 future work — the reinforcement-learning bandit against the
//! supervised tuner and vanilla, with zero training data.

use crate::{Ctx, DynResult, Out};
use kernel_sim::DeviceProfile;
use kml_platform::threading;
use kvstore::Workload;
use readahead::closed_loop;

pub fn run(ctx: &Ctx, _: &mut Out) -> DynResult {
    println!("## RL extension: UCB1 bandit tuner (§6 future work)\n");
    let trained = ctx.trained()?;
    // The bandit needs windows to explore; give it a longer run.
    let mut rl_cfg = ctx.cfg.clone();
    rl_cfg.eval_ops = ctx.cfg.eval_ops * 3;
    let mut tasks = Vec::new();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        for workload in [Workload::ReadRandom, Workload::MixGraph] {
            tasks.push((device, workload));
        }
    }
    let results = threading::pool_map(
        &tasks,
        threading::default_workers(),
        |_, &(device, workload)| -> kml_core::Result<Vec<String>> {
            let vanilla = closed_loop::run_vanilla(workload, device, &rl_cfg);
            let (nn, _) = closed_loop::run_kml(workload, device, trained, &rl_cfg)?;
            let (bandit, _) = closed_loop::run_bandit(workload, device, &rl_cfg);
            Ok(vec![
                format!("{}/{}", workload.name(), device.name),
                format!("{:.2}x", nn.ops_per_sec / vanilla.ops_per_sec),
                format!("{:.2}x", bandit.ops_per_sec / vanilla.ops_per_sec),
            ])
        },
    );
    let rows = results.into_iter().collect::<kml_core::Result<Vec<_>>>()?;
    println!(
        "{}",
        bench::render_table(&["workload/device", "supervised NN", "RL bandit"], &rows)
    );
    println!(
        "The bandit needs no training data or workload classes — it pays for\n\
         that with exploration windows, so the supervised tuner converges\n\
         faster on known workloads while the bandit generalizes to anything.\n"
    );
    Ok(())
}
