//! End-to-end fixed-rsize vs KML runs over the simulated network (E9).
//!
//! A *fixed* run executes a read-heavy streaming workload over a mount
//! pinned at one transfer size; a *KML* run attaches the RPC tracepoint
//! ring, plugs in an [`RsizeTuner`], and lets it re-tune `rsize` once per
//! window. Throughput is simulated MB/s — pages actually read over
//! simulated elapsed time — so every number is a pure function of
//! `(profile, rsize policy, seed)` and byte-identical at any worker count.

use kernel_sim::SimConfig;
use kml_collect::RingBuffer;
use kml_core::Result;
use kml_platform::sampler::{splitmix64, GOLDEN_GAMMA};

use crate::mount::{NetStats, NfsMount};
use crate::transport::NetProfile;
use crate::tuner::{RsizeDecision, RsizePolicy, RsizeTuner, RsizeTunerModel};

/// Fixed-rsize baselines the E9 grid sweeps, KiB.
pub const FIXED_RSIZES_KB: [u32; 4] = [32, 128, 256, 1024];

/// Shape of one E9 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetRunConfig {
    /// Simulated run length, ns.
    pub duration_ns: u64,
    /// Server file size, pages.
    pub file_pages: u64,
    /// Server page-cache size, pages (small: the workload stays cold).
    pub cache_pages: usize,
    /// Pages per logical application read.
    pub request_pages: u64,
    /// Every n-th request jumps to a pseudo-random offset; the rest
    /// stream sequentially.
    pub jump_every: u64,
    /// Workload seed (offsets only; packet fates come from the profile).
    pub seed: u64,
}

impl NetRunConfig {
    /// The full E9 configuration: 20 simulated seconds, enough to cross
    /// many congestion phases of the bursty profiles.
    pub fn paper() -> NetRunConfig {
        NetRunConfig {
            duration_ns: 20_000_000_000,
            file_pages: 1 << 20,
            cache_pages: 4096,
            request_pages: 256,
            jump_every: 16,
            seed: 0x9E37,
        }
    }

    /// A smoke-sized configuration (CI and `--quick`).
    pub fn quick() -> NetRunConfig {
        NetRunConfig {
            duration_ns: 6_000_000_000,
            ..NetRunConfig::paper()
        }
    }
}

/// Outcome of one run (fixed or tuned).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetRunReport {
    /// Application reads issued.
    pub ops: u64,
    /// Pages successfully read.
    pub pages_read: u64,
    /// Simulated elapsed time, ns.
    pub elapsed_ns: u64,
    /// Simulated throughput, MB/s (decimal megabytes, like the paper's
    /// tables).
    pub mb_per_sec: f64,
    /// Reads that failed after exhausting retransmission attempts.
    pub failed_ops: u64,
    /// Final RPC accounting.
    pub stats: NetStats,
}

/// One profile's E9 row: every fixed baseline plus the tuned run.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Profile name ("datacenter" / "congested_wan" / "lossy_wifi").
    pub profile: &'static str,
    /// `(rsize_kb, report)` per fixed baseline, in [`FIXED_RSIZES_KB`] order.
    pub fixed: Vec<(u32, NetRunReport)>,
    /// The KML-tuned run.
    pub kml: NetRunReport,
    /// The tuner's decision log.
    pub decisions: Vec<RsizeDecision>,
    /// `kml.mb_per_sec / best fixed mb_per_sec`.
    pub speedup_vs_best_fixed: f64,
}

fn make_mount(profile: NetProfile, cfg: &NetRunConfig) -> (NfsMount, kernel_sim::FileId) {
    let mut mount = NfsMount::new(
        profile,
        SimConfig {
            cache_pages: cfg.cache_pages,
            ..SimConfig::default()
        },
    );
    let file = mount.create_file(cfg.file_pages);
    (mount, file)
}

/// Drives the deterministic read-heavy workload until the simulated clock
/// passes `cfg.duration_ns`, invoking `hook` after every application read.
fn drive(
    mount: &mut NfsMount,
    file: kernel_sim::FileId,
    cfg: &NetRunConfig,
    mut hook: impl FnMut(&mut NfsMount),
) -> NetRunReport {
    let start_ns = mount.now_ns();
    let span = cfg.file_pages - cfg.request_pages;
    let mut pos = 0u64;
    let mut x = cfg.seed | 1;
    let mut ops = 0u64;
    let mut pages_read = 0u64;
    let mut failed_ops = 0u64;
    while mount.now_ns() - start_ns < cfg.duration_ns {
        ops += 1;
        if cfg.jump_every > 0 && ops.is_multiple_of(cfg.jump_every) {
            // splitmix64 step: the workload's only randomness.
            x = x.wrapping_add(GOLDEN_GAMMA);
            pos = splitmix64(x) % span;
        }
        match mount.read(file, pos, cfg.request_pages) {
            Ok(_) => pages_read += cfg.request_pages,
            Err(_) => failed_ops += 1,
        }
        pos = (pos + cfg.request_pages) % span;
        hook(mount);
    }
    let elapsed_ns = mount.now_ns() - start_ns;
    NetRunReport {
        ops,
        pages_read,
        elapsed_ns,
        mb_per_sec: pages_read as f64 * kernel_sim::PAGE_SIZE as f64
            / 1e6
            / (elapsed_ns as f64 / 1e9),
        failed_ops,
        stats: mount.stats(),
    }
}

/// Runs the workload with `rsize` pinned.
pub fn run_fixed(profile: NetProfile, rsize_kb: u32, cfg: &NetRunConfig) -> NetRunReport {
    let (mut mount, file) = make_mount(profile, cfg);
    mount.set_rsize_kb(rsize_kb);
    drive(&mut mount, file, cfg, |_| {})
}

/// Runs the KML-tuned configuration: the tuner starts from the mount
/// default and adapts once per window.
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn run_kml(
    profile: NetProfile,
    model: RsizeTunerModel,
    policy: RsizePolicy,
    cfg: &NetRunConfig,
) -> Result<(NetRunReport, Vec<RsizeDecision>)> {
    let (mut mount, file) = make_mount(profile, cfg);
    let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
    mount.attach_rpc_trace(producer);
    let mut tuner = RsizeTuner::new(model, policy, consumer, RsizeTuner::DEFAULT_WINDOW_NS);
    let mut tuner_err = None;
    let report = drive(&mut mount, file, cfg, |mount| {
        if let Err(e) = tuner.on_op(mount) {
            tuner_err.get_or_insert(e);
        }
    });
    match tuner_err {
        Some(e) => Err(e),
        None => Ok((report, tuner.decisions().to_vec())),
    }
}

/// Produces one E9 row: every fixed baseline plus the tuned run, for one
/// profile. `model_bytes` is the classifier from
/// [`crate::tuner::train_rsize_model`] (decoded fresh per run — models
/// carry normalizer state; runs must not share a live copy).
///
/// # Errors
///
/// Propagates model decoding and tuner failures.
pub fn compare(profile: NetProfile, model_bytes: &[u8], cfg: &NetRunConfig) -> Result<NetOutcome> {
    let fixed: Vec<(u32, NetRunReport)> = FIXED_RSIZES_KB
        .iter()
        .map(|&kb| (kb, run_fixed(profile, kb, cfg)))
        .collect();
    let model = RsizeTunerModel::from_bytes(model_bytes)?;
    let (kml, decisions) = run_kml(profile, model, RsizePolicy::experiment_default(), cfg)?;
    let best_fixed = fixed
        .iter()
        .map(|&(_, r)| r.mb_per_sec)
        .fold(f64::MIN, f64::max);
    Ok(NetOutcome {
        profile: profile.name,
        fixed,
        kml,
        decisions,
        speedup_vs_best_fixed: kml.mb_per_sec / best_fixed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::train_rsize_model;

    /// One trained model shared by the closed-loop tests (training is the
    /// expensive part).
    fn model_bytes() -> &'static [u8] {
        use std::sync::OnceLock;
        static CELL: OnceLock<Vec<u8>> = OnceLock::new();
        CELL.get_or_init(|| train_rsize_model(7).unwrap())
    }

    #[test]
    fn large_rsize_wins_on_the_clean_datacenter_link() {
        let cfg = NetRunConfig::quick();
        let profile = NetProfile::datacenter(3);
        let small = run_fixed(profile, 32, &cfg);
        let large = run_fixed(profile, 1024, &cfg);
        assert!(
            large.mb_per_sec > small.mb_per_sec * 1.5,
            "RTT amortization missing: 32K {:.1} MB/s vs 1M {:.1} MB/s",
            small.mb_per_sec,
            large.mb_per_sec
        );
        assert_eq!(large.stats.retransmits, 0, "clean link retransmitted");
    }

    #[test]
    fn no_fixed_rsize_wins_both_phases_of_a_bursty_link() {
        // The economic core of E9: on the phased lossy link, small rsize
        // beats large in-burst and loses out-of-burst, so the tuned run
        // has headroom over every fixed choice.
        let cfg = NetRunConfig::quick();
        let profile = NetProfile::lossy_wifi(9);
        let small = run_fixed(profile, 32, &cfg);
        let large = run_fixed(profile, 1024, &cfg);
        // Large transfers must pay visibly for their in-burst losses:
        // per RPC they retransmit far more often (small ones send ~32x
        // the RPCs, so absolute counts are not comparable).
        let frac = |r: &NetRunReport| r.stats.retransmits as f64 / r.stats.rpcs_issued as f64;
        assert!(
            frac(&large) > frac(&small) * 2.0,
            "per-fragment loss should punish large transfers: {:.3} vs {:.3}",
            frac(&large),
            frac(&small)
        );
        for r in [&small, &large] {
            r.stats.reconcile().expect("books balance");
        }
    }

    #[test]
    fn kml_beats_every_fixed_rsize_on_the_phased_profiles() {
        let cfg = NetRunConfig::quick();
        for profile in [NetProfile::congested_wan(7), NetProfile::lossy_wifi(7)] {
            let outcome = compare(profile, model_bytes(), &cfg).unwrap();
            assert!(
                outcome.speedup_vs_best_fixed > 0.99,
                "{}: tuned {:.1} MB/s did not reach the best fixed ({:.3}x)",
                outcome.profile,
                outcome.kml.mb_per_sec,
                outcome.speedup_vs_best_fixed
            );
            assert!(!outcome.decisions.is_empty(), "tuner never decided");
            outcome.kml.stats.reconcile().expect("books balance");
        }
    }

    #[test]
    fn runs_replay_byte_identically() {
        let cfg = NetRunConfig::quick();
        let profile = NetProfile::congested_wan(11);
        let a = run_fixed(profile, 128, &cfg);
        let b = run_fixed(profile, 128, &cfg);
        assert_eq!(a, b);
    }

    /// A run that jumps on every request, so each of its 37 offsets is a
    /// jump draw and the server cache makes the elapsed time depend on
    /// them: the report's FNV-1a, recorded on the parent commit (1fb2a81),
    /// before the mix moved to `kml_platform::sampler`.
    #[test]
    fn jump_draws_match_the_parent_commit() {
        let cfg = NetRunConfig {
            duration_ns: 200_000_000,
            file_pages: 2048,
            cache_pages: 256,
            request_pages: 8,
            jump_every: 1,
            seed: 7,
        };
        let report = run_fixed(NetProfile::lossy_wifi(7), 32, &cfg);
        assert_eq!((report.ops, report.elapsed_ns), (37, 202_395_985));
        assert_eq!(
            kml_platform::bytes::Fnv1a::of(format!("{report:?}").as_bytes()),
            0xd63e_9842_0e69_13c9
        );
    }
}
