//! The seven workloads. Each composes its loop from the layers' public
//! functions, the way `examples/` and `kml_fleet::Tenant` do.

mod fleet;
mod loop_replay;
mod lsm;
mod netfs_wifi;
mod retrain;
mod serve;

use crate::{RunConfig, Workload};

/// Thread environment of a workload, set before the first pool use:
/// single-threaded everywhere except `fleet`, which runs the pipelined
/// engine on the caller plus one pool thread.
pub fn pin_threads(workload: &str) {
    let (workers, pool) = if workload == "fleet" {
        ("2", "1")
    } else {
        ("1", "0")
    };
    std::env::set_var(kml_platform::threading::WORKERS_ENV, workers);
    std::env::set_var(kml_platform::threading::POOL_THREADS_ENV, pool);
}

/// Workloads whose traced pass counts heap allocations and so runs under
/// `CountingSystemAlloc`. Both are single-threaded; on `fleet`, whose two
/// threads allocate a `Sim` per tenant, the allocator's shared counters
/// slow a round threefold, so the others keep the system allocator.
pub fn counts_allocations(workload: &str) -> bool {
    matches!(workload, "serve" | "loop-replay")
}

/// Everything before the first timed rep of `cfg.workload`.
pub fn build(cfg: &RunConfig) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "lsm-mixgraph" => Box::new(lsm::Lsm::build(cfg, lsm::MIXGRAPH)?),
        "lsm-update" => Box::new(lsm::Lsm::build(cfg, lsm::UPDATE)?),
        "netfs-wifi" => Box::new(netfs_wifi::NetfsWifi::build(cfg)?),
        "fleet" => Box::new(fleet::Fleet::build(cfg)?),
        "serve" => Box::new(serve::Serve::build(cfg)?),
        "loop-replay" => Box::new(loop_replay::LoopReplay::build(cfg)?),
        "retrain" => Box::new(retrain::Retrain::build(cfg)?),
        other => return Err(format!("no workload {other}")),
    })
}

/// Seed the tuner models are trained with in set-up. A trained model is
/// part of the system under test, like a device profile: `--seed` moves the
/// workload's inputs, not the model. (Trained per run seed, the readahead
/// network picks different knobs on the never-seen mixgraph, and host ops/s
/// ranged 676 k – 930 k over ten seeds.)
pub(crate) const MODEL_SEED: u64 = crate::DEFAULT_SEED;

/// splitmix64: the harness's own generator for request streams and
/// reservoirs (the crates receive only the generated inputs).
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `100 * part / whole`, 0 when there is no whole.
pub(crate) fn pct(part: u64, whole: u64) -> f64 {
    ratio(part, whole) * 100.0
}

pub(crate) fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
