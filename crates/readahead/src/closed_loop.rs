//! End-to-end vanilla-vs-KML runs (paper Table 2 and Figure 2).
//!
//! A *vanilla* run executes a workload with Linux's default 128 KiB
//! readahead throughout. A *KML* run attaches the tracepoint ring buffer,
//! plugs in a [`KmlTuner`], and lets it re-tune readahead once per window.
//! The ratio of the two throughputs is one cell of Table 2; the per-window
//! throughput and readahead series of the KML run is Figure 2.

use crate::model::{LoopConfig, TrainedReadahead};
use crate::tuner::{KmlTuner, TunerModel, LOOP_METRIC_PREFIX};
use kernel_sim::{DeviceProfile, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_core::Result;
use kml_telemetry::{Registry, Snapshot};
use kvstore::{fill_db, run_workload, Db, FillMode, Workload, WorkloadConfig, WorkloadReport};

/// Linux's shipped readahead default, KiB — the vanilla baseline.
pub const VANILLA_RA_KB: u32 = 128;

/// One point of the Figure 2 timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Window end, simulated milliseconds since the run started.
    pub t_ms: u64,
    /// Throughput within the window, ops per simulated second.
    pub ops_per_sec: f64,
    /// Readahead in force at the window end, KiB.
    pub ra_kb: u32,
    /// Mean wall-clock inference latency within the window, ns (0 when the
    /// window held no inference, or for untelemetered tuners).
    pub infer_ns_mean: f64,
}

/// A KML run with its in-loop telemetry: the report and timeline of
/// [`run_kml`], plus a final registry snapshot (loop-stage spans, cache and
/// device metrics, ring occupancy) and the ring-buffer loss count.
#[derive(Debug, Clone)]
pub struct InstrumentedRun {
    /// Workload-level result (same as the `run_kml` report).
    pub report: WorkloadReport,
    /// Per-window series (same as the `run_kml` timeline).
    pub timeline: Vec<TimelinePoint>,
    /// End-of-run snapshot of every metric the loop recorded.
    pub telemetry: Snapshot,
    /// Tracepoint records lost to ring-buffer overwrites.
    pub ring_dropped: u64,
}

/// Result of a vanilla-vs-KML comparison for one (workload, device) cell.
#[derive(Debug, Clone)]
pub struct LoopOutcome {
    /// Workload of this cell.
    pub workload: Workload,
    /// Device name ("nvme" / "ssd").
    pub device: &'static str,
    /// Baseline run (fixed 128 KiB readahead).
    pub vanilla: WorkloadReport,
    /// KML-tuned run.
    pub kml: WorkloadReport,
    /// `kml.ops_per_sec / vanilla.ops_per_sec` — a Table 2 cell.
    pub speedup: f64,
    /// Per-window series of the KML run (Figure 2).
    pub timeline: Vec<TimelinePoint>,
}

fn make_sim(device: DeviceProfile, cfg: &LoopConfig) -> Sim {
    Sim::new(SimConfig {
        device,
        cache_pages: cfg.study.cache_pages,
        default_ra_kb: VANILLA_RA_KB,
        ..SimConfig::default()
    })
}

/// Fills the store for `workload`, then starts it cold: caches dropped,
/// readahead at the vanilla default (KML starts there too, then adapts),
/// stats reset.
fn cold_start(sim: &mut Sim, workload: Workload, cfg: &LoopConfig) -> (Db, WorkloadConfig) {
    let wcfg = WorkloadConfig {
        num_keys: cfg.study.num_keys,
        ops: cfg.eval_ops,
        seed: cfg.seed ^ 0xEE,
        ..WorkloadConfig::new(workload)
    };
    let db = fill_db(sim, &wcfg, FillMode::Bulk).expect("fault-free fill");
    sim.drop_caches().expect("fault-free drop_caches");
    sim.set_ra_kb(VANILLA_RA_KB);
    sim.reset_stats();
    (db, wcfg)
}

/// Cuts a run into `window_ns` windows of simulated time, one
/// [`TimelinePoint`] each.
struct Timeline {
    window_ns: u64,
    start_ns: u64,
    window_start: u64,
    window_ops: u64,
    points: Vec<TimelinePoint>,
}

impl Timeline {
    fn new(start_ns: u64, window_ns: u64) -> Self {
        Timeline {
            window_ns,
            start_ns,
            window_start: start_ns,
            window_ops: 0,
            points: Vec::new(),
        }
    }

    /// Counts one op that ended at `now`. If that closes the window,
    /// returns its point for the caller to stamp the readahead in force
    /// (and the window's inference latency) on.
    fn tick(&mut self, now: u64) -> Option<&mut TimelinePoint> {
        self.window_ops += 1;
        if now - self.window_start < self.window_ns {
            return None;
        }
        let secs = (now - self.window_start) as f64 / 1e9;
        self.points.push(TimelinePoint {
            t_ms: (now - self.start_ns) / 1_000_000,
            ops_per_sec: self.window_ops as f64 / secs,
            ra_kb: 0,
            infer_ns_mean: 0.0,
        });
        self.window_ops = 0;
        self.window_start = now;
        self.points.last_mut()
    }
}

/// Runs the vanilla baseline: fixed 128 KiB readahead, cold caches.
pub fn run_vanilla(workload: Workload, device: DeviceProfile, cfg: &LoopConfig) -> WorkloadReport {
    let mut sim = make_sim(device, cfg);
    let (mut db, wcfg) = cold_start(&mut sim, workload, cfg);
    run_workload(&mut sim, &mut db, &wcfg, |_| {})
}

/// Runs the KML-tuned configuration and captures the timeline.
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn run_kml(
    workload: Workload,
    device: DeviceProfile,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
) -> Result<(WorkloadReport, Vec<TimelinePoint>)> {
    run_kml_instrumented(workload, device, trained, cfg).map(|r| (r.report, r.timeline))
}

/// Like [`run_kml`], but returns the full in-loop telemetry alongside the
/// report (`repro -- overheads` uses this for its self-measurement section).
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn run_kml_instrumented(
    workload: Workload,
    device: DeviceProfile,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
) -> Result<InstrumentedRun> {
    run_tuned_opts(workload, device, deployed(trained)?, trained, cfg, true)
}

/// A fresh deployment of the trained network (models carry forward state;
/// runs must not share it).
fn deployed(trained: &TrainedReadahead) -> Result<TunerModel> {
    TunerModel::from_bytes(&kml_core::modelfile::encode(&trained.network)?)
}

/// Runs the decision-tree-tuned configuration (the paper's §4 comparison).
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn run_kml_tree(
    workload: Workload,
    device: DeviceProfile,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
) -> Result<(WorkloadReport, Vec<TimelinePoint>)> {
    let model = TunerModel::Tree(trained.tree.clone());
    run_tuned_opts(workload, device, model, trained, cfg, true).map(|r| (r.report, r.timeline))
}

/// Like [`run_kml`] but with the two-window actuation hysteresis disabled
/// (the ablation knob: every window's prediction actuates immediately).
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn run_kml_no_hysteresis(
    workload: Workload,
    device: DeviceProfile,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
) -> Result<(WorkloadReport, Vec<TimelinePoint>)> {
    let model = deployed(trained)?;
    run_tuned_opts(workload, device, model, trained, cfg, false).map(|r| (r.report, r.timeline))
}

fn run_tuned_opts(
    workload: Workload,
    device: DeviceProfile,
    model: TunerModel,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
    hysteresis: bool,
) -> Result<InstrumentedRun> {
    let mut sim = make_sim(device, cfg);
    let telemetry = Registry::new();
    sim.attach_telemetry(&telemetry);
    let (producer, mut consumer) = RingBuffer::with_capacity(cfg.datagen.ring_capacity).split();
    sim.attach_trace(producer);
    consumer.attach_telemetry(&telemetry, "kml_collect.ring");
    let (mut db, wcfg) = cold_start(&mut sim, workload, cfg);
    // Fill-phase metrics are not the workload's. Then discard the
    // fill-phase tracepoints: the tuner must only ever see the workload
    // (stale records would poison the cumulative features). Drained after
    // the reset, they count in the ring's `consumed_total`, which
    // `bench/tests/overheads_fields.rs` pins: keep the order.
    telemetry.reset();
    consumer.drain().for_each(drop);
    // Which kernel backend this loop's math dispatched to (0 = scalar,
    // 1 = avx2, 2 = avx512 — `KernelBackend::gauge_value`), and
    // whether the int8 serving fast path is vectorized; exported with
    // every snapshot so perf numbers are attributable to a code path.
    telemetry
        .gauge("kml.kernel_backend")
        .set(kml_core::simd::kernel_backend().gauge_value());
    telemetry
        .gauge("kml.q8_vector")
        .set(u64::from(kml_core::simd::q8_vector_active()));

    let mut tuner = KmlTuner::new(
        model,
        trained.policy_for(&device).clone(),
        consumer,
        cfg.datagen.window_ns,
        VANILLA_RA_KB,
    );
    tuner.set_hysteresis(hysteresis);
    // Per-window inference latency = delta of the loop's infer histogram
    // (same handle the tuner binds lazily via `sim.telemetry()`).
    let infer_hist = telemetry.histogram(&format!("{LOOP_METRIC_PREFIX}.infer_ns"));
    let mut timeline = Timeline::new(sim.now_ns(), cfg.datagen.window_ns);
    let (mut infer_count0, mut infer_sum0) = (0u64, 0u64);
    let mut tuner_err = None;
    let report = run_workload(&mut sim, &mut db, &wcfg, |sim| {
        if let Err(e) = tuner.on_op(sim) {
            tuner_err.get_or_insert(e);
        }
        if let Some(point) = timeline.tick(sim.now_ns()) {
            let infer = infer_hist.snapshot();
            let (dc, ds) = (infer.count - infer_count0, infer.sum - infer_sum0);
            (infer_count0, infer_sum0) = (infer.count, infer.sum);
            point.ra_kb = tuner.current_ra_kb();
            point.infer_ns_mean = if dc == 0 { 0.0 } else { ds as f64 / dc as f64 };
        }
    });
    match tuner_err {
        Some(e) => Err(e),
        None => Ok(InstrumentedRun {
            report,
            timeline: timeline.points,
            ring_dropped: tuner.records_dropped(),
            telemetry: telemetry.snapshot(),
        }),
    }
}

/// Runs the reinforcement-learning bandit tuner (the §6 future-work
/// direction): no trained model, pure throughput feedback.
pub fn run_bandit(
    workload: Workload,
    device: DeviceProfile,
    cfg: &LoopConfig,
) -> (WorkloadReport, Vec<TimelinePoint>) {
    let mut sim = make_sim(device, cfg);
    let (mut db, wcfg) = cold_start(&mut sim, workload, cfg);
    let mut bandit = crate::rl::BanditTuner::with_default_arms(cfg.datagen.window_ns);
    let mut timeline = Timeline::new(sim.now_ns(), cfg.datagen.window_ns);
    let report = run_workload(&mut sim, &mut db, &wcfg, |sim| {
        bandit.on_op(sim);
        // The bandit consults no model: `infer_ns_mean` stays 0.
        if let Some(point) = timeline.tick(sim.now_ns()) {
            point.ra_kb = bandit.current_ra_kb();
        }
    });
    (report, timeline.points)
}

/// Produces one Table 2 cell: vanilla vs KML for (workload, device).
///
/// # Errors
///
/// Propagates tuner/model failures.
pub fn compare(
    workload: Workload,
    device: DeviceProfile,
    trained: &TrainedReadahead,
    cfg: &LoopConfig,
) -> Result<LoopOutcome> {
    let vanilla = run_vanilla(workload, device, cfg);
    let (kml, timeline) = run_kml(workload, device, trained, cfg)?;
    Ok(LoopOutcome {
        workload,
        device: device.name,
        speedup: kml.ops_per_sec / vanilla.ops_per_sec,
        vanilla,
        kml,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::train_paper_model;

    /// One trained model shared by the closed-loop tests (training is the
    /// expensive part).
    fn trained() -> &'static TrainedReadahead {
        use std::sync::OnceLock;
        static CELL: OnceLock<TrainedReadahead> = OnceLock::new();
        CELL.get_or_init(|| train_paper_model(&LoopConfig::quick()).unwrap())
    }

    #[test]
    fn kml_improves_random_reads_on_ssd() {
        let cfg = LoopConfig::quick();
        let outcome = compare(
            Workload::ReadRandom,
            DeviceProfile::sata_ssd(),
            trained(),
            &cfg,
        )
        .unwrap();
        assert!(
            outcome.speedup > 1.02,
            "readrandom/ssd speedup only {:.3}",
            outcome.speedup
        );
    }

    #[test]
    fn kml_does_not_tank_sequential_reads() {
        let cfg = LoopConfig::quick();
        let outcome = compare(Workload::ReadSeq, DeviceProfile::nvme(), trained(), &cfg).unwrap();
        // The paper itself reports 0.96× here; demand "no disaster".
        assert!(
            outcome.speedup > 0.85,
            "readseq/nvme speedup {:.3}",
            outcome.speedup
        );
    }

    #[test]
    fn kml_handles_never_seen_workload() {
        let cfg = LoopConfig::quick();
        let outcome = compare(
            Workload::UpdateRandom,
            DeviceProfile::sata_ssd(),
            trained(),
            &cfg,
        )
        .unwrap();
        assert!(
            outcome.speedup > 0.95,
            "updaterandom/ssd speedup {:.3}",
            outcome.speedup
        );
    }

    #[test]
    fn timeline_records_windows_with_ra_values() {
        let cfg = LoopConfig::quick();
        let (_, timeline) = run_kml(
            Workload::ReadRandom,
            DeviceProfile::sata_ssd(),
            trained(),
            &cfg,
        )
        .unwrap();
        assert!(!timeline.is_empty(), "no timeline windows");
        assert!(timeline.iter().all(|p| p.ops_per_sec > 0.0));
        assert!(timeline.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn instrumented_run_reports_loop_telemetry() {
        let cfg = LoopConfig::quick();
        let run = run_kml_instrumented(
            Workload::ReadRandom,
            DeviceProfile::sata_ssd(),
            trained(),
            &cfg,
        )
        .unwrap();
        assert!(!run.timeline.is_empty());
        let snap = &run.telemetry;
        if !snap.is_empty() {
            // Every decision ran one inference; spans recorded real time.
            let infer = snap.histogram("readahead.loop.infer_ns").unwrap();
            let decisions = snap.counter("readahead.loop.decision_total").unwrap();
            assert_eq!(infer.count, decisions);
            assert!(decisions > 0, "no decisions in instrumented run");
            assert!(infer.sum > 0, "inference spans recorded zero time");
            // The sim-level metrics share the registry.
            assert!(snap.counter("sim.cache.hit_total").unwrap_or(0) > 0);
            assert!(snap.counter("kml_collect.ring.consumed_total").unwrap_or(0) > 0);
            // Some window saw a live mean inference latency.
            assert!(run.timeline.iter().any(|p| p.infer_ns_mean > 0.0));
        }
    }

    #[test]
    fn tree_variant_also_runs() {
        let cfg = LoopConfig::quick();
        let vanilla = run_vanilla(Workload::ReadRandom, DeviceProfile::sata_ssd(), &cfg);
        let (tree_report, _) = run_kml_tree(
            Workload::ReadRandom,
            DeviceProfile::sata_ssd(),
            trained(),
            &cfg,
        )
        .unwrap();
        let speedup = tree_report.ops_per_sec / vanilla.ops_per_sec;
        assert!(speedup > 0.9, "tree tuner speedup {speedup:.3}");
    }

    #[test]
    fn bandit_tuner_competes_without_any_training() {
        let mut cfg = LoopConfig::quick();
        // Give the bandit enough windows to get past pure exploration.
        cfg.eval_ops = 12_000;
        let vanilla = run_vanilla(Workload::ReadRandom, DeviceProfile::sata_ssd(), &cfg);
        let (bandit, timeline) = run_bandit(Workload::ReadRandom, DeviceProfile::sata_ssd(), &cfg);
        let speedup = bandit.ops_per_sec / vanilla.ops_per_sec;
        // Exploration costs something, but the learned policy must not be a
        // disaster — and on random reads it usually beats the default.
        assert!(speedup > 0.9, "bandit speedup {speedup:.3}");
        assert!(!timeline.is_empty());
    }
}
