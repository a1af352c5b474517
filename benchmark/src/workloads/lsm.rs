//! `lsm-mixgraph` and `lsm-update`: the paper's Figure-2 loop — `kvstore`
//! over `kernel-sim`, tracepoint ring → `readahead::KmlTuner`.
//!
//! Every rep starts from the same state (bulk fill, cold cache, fresh
//! tuner), warms up untimed, then runs the timed operations, so reps are
//! exact repeats: the same simulated trajectory, the same digest. That is
//! what lets a run measure for a wall-clock budget and still report a
//! median over like samples.

use super::{pct, ratio};
use crate::stats::{Digest, LogLinHist};
use crate::trace::Tracer;
use crate::{Metrics, Rep, RunConfig, Workload};
use kernel_sim::{DeviceProfile, Sim, SimConfig, SimStats, TraceRecord};
use kml_collect::ringbuf::Consumer;
use kml_collect::RingBuffer;
use kml_telemetry::Registry;
use kvstore::{fill_db, run_workload, Db, DbStats, FillMode, WorkloadConfig};
use readahead::closed_loop::VANILLA_RA_KB;
use readahead::model::{train_paper_model, LoopConfig};
use readahead::{KmlTuner, RaPolicy, TunerModel};
use std::time::Instant;

/// Shape of one LSM workload.
#[derive(Debug, Clone, Copy)]
pub struct LsmShape {
    workload: kvstore::Workload,
    device: fn() -> DeviceProfile,
    warm_ops: u64,
    timed_ops: u64,
    /// Share of operations that put (the write-amplification denominator).
    put_share: f64,
}

/// 85 % get / 14 % put / 1 % scan, Zipf 0.99, on SATA SSD. 100 k warm-up
/// operations fill the cache; the 200 k timed ones cross two memtable
/// flushes (hot keys are overwritten in place, so the memtable fills slowly).
pub const MIXGRAPH: LsmShape = LsmShape {
    workload: kvstore::Workload::MixGraph,
    device: DeviceProfile::sata_ssd,
    warm_ops: 100_000,
    timed_ops: 200_000,
    put_share: 0.14,
};

/// get + put per operation on NVMe: five flushes and one compaction in the
/// 40 k timed operations.
pub const UPDATE: LsmShape = LsmShape {
    workload: kvstore::Workload::UpdateRandom,
    device: DeviceProfile::nvme,
    warm_ops: 10_000,
    timed_ops: 40_000,
    put_share: 1.0,
};

pub(super) const NUM_KEYS: u64 = 1 << 20;
/// DB ≫ cache: 2^20 keys are ~26 k blocks of 4 pages; the cache holds 16 k pages.
const CACHE_PAGES: usize = 16_384;
const RING_CAPACITY: usize = 1 << 16;

pub struct Lsm {
    shape: LsmShape,
    seed: u64,
    warm_ops: u64,
    timed_ops: u64,
    deployed: Deployed,
    /// Left by the last rep for `check` and `layers`.
    last: Option<LastRep>,
    /// Attached to the first traced rep only: its span timers cost two clock
    /// reads per hook call, which the other traced reps are spared.
    registry: Option<Registry>,
}

struct LastRep {
    sim: Sim,
    db: Db,
    sim_stats: SimStats,
    db_delta: DbStats,
    trace_records: u64,
    dropped: u64,
    decisions: u64,
    ops: u64,
    sim_ns: u64,
    op_latency: LogLinHist,
}

pub(super) struct Stack {
    pub(super) sim: Sim,
    pub(super) db: Db,
    pub(super) consumer: Consumer<TraceRecord>,
}

/// The readahead model as set-up trains and deploys it (shared with
/// `loop-replay`): exact-f32 network at `LoopConfig::quick()` scale, the
/// device's class → readahead policy, the loop's window.
pub(super) struct Deployed {
    /// Re-decoded per tuner: models carry forward state.
    model_bytes: Vec<u8>,
    policy: RaPolicy,
    window_ns: u64,
}

impl Deployed {
    pub(super) fn train(device: &DeviceProfile) -> Result<Deployed, String> {
        let loop_cfg = LoopConfig {
            seed: super::MODEL_SEED,
            ..LoopConfig::quick()
        };
        let trained = train_paper_model(&loop_cfg).map_err(|e| format!("training: {e}"))?;
        Ok(Deployed {
            model_bytes: kml_core::modelfile::encode(&trained.network)
                .map_err(|e| e.to_string())?,
            policy: trained.policy_for(device).clone(),
            window_ns: loop_cfg.datagen.window_ns,
        })
    }

    /// A fresh tuner over `consumer`, starting from the vanilla readahead.
    pub(super) fn tuner(&self, consumer: Consumer<TraceRecord>) -> KmlTuner {
        let net =
            kml_core::modelfile::decode::<f32>(&self.model_bytes).expect("own encoding decodes");
        KmlTuner::new(
            TunerModel::NeuralNet(Box::new(net)),
            self.policy.clone(),
            consumer,
            self.window_ns,
            VANILLA_RA_KB,
        )
    }
}

/// One fresh stack: `num_keys` bulk-filled, cold cache, vanilla readahead,
/// the fill's tracepoints discarded (a tuner must only ever see the workload).
pub(super) fn filled_stack(
    device: DeviceProfile,
    workload: kvstore::Workload,
    ring_capacity: usize,
    registry: Option<&Registry>,
) -> Stack {
    let mut sim = Sim::new(SimConfig {
        device,
        cache_pages: CACHE_PAGES,
        default_ra_kb: VANILLA_RA_KB,
        ..SimConfig::default()
    });
    let (producer, mut consumer) = RingBuffer::with_capacity(ring_capacity).split();
    sim.attach_trace(producer);
    if let Some(reg) = registry {
        sim.attach_telemetry(reg);
        consumer.attach_telemetry(reg, "kml_collect.ring");
    }
    let fill = WorkloadConfig {
        num_keys: NUM_KEYS,
        ..WorkloadConfig::new(workload)
    };
    let db = fill_db(&mut sim, &fill, FillMode::Bulk).expect("fault-free fill");
    sim.drop_caches().expect("fault-free drop_caches");
    sim.set_ra_kb(VANILLA_RA_KB);
    while consumer.pop().is_some() {}
    Stack { sim, db, consumer }
}

impl Lsm {
    pub fn build(cfg: &RunConfig, shape: LsmShape) -> Result<Lsm, String> {
        Ok(Lsm {
            shape,
            seed: cfg.seed,
            warm_ops: cfg.scaled(shape.warm_ops),
            timed_ops: cfg.scaled(shape.timed_ops),
            deployed: Deployed::train(&(shape.device)())?,
            last: None,
            registry: None,
        })
    }

    fn wcfg(&self, ops: u64, phase: u64) -> WorkloadConfig {
        WorkloadConfig {
            num_keys: NUM_KEYS,
            ops,
            seed: self.seed ^ phase,
            ..WorkloadConfig::new(self.shape.workload)
        }
    }

    fn stack(&self, registry: Option<&Registry>) -> Stack {
        filled_stack(
            (self.shape.device)(),
            self.shape.workload,
            RING_CAPACITY,
            registry,
        )
    }

    /// Simulated ops/s of the same rep with readahead fixed at 128 KiB and
    /// no tuner: the baseline of `sim.kml_speedup_x`.
    fn vanilla_ops_per_sim_s(&self) -> f64 {
        let Stack {
            mut sim, mut db, ..
        } = self.stack(None);
        run_workload(&mut sim, &mut db, &self.wcfg(self.warm_ops, 1), |_| {});
        sim.reset_stats();
        run_workload(&mut sim, &mut db, &self.wcfg(self.timed_ops, 2), |_| {}).ops_per_sec
    }
}

impl Workload for Lsm {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let prep = Instant::now();
        let registry = matches!(tracer, Some((_, 0))).then(Registry::new);
        let Stack {
            mut sim,
            mut db,
            consumer,
        } = self.stack(registry.as_ref());
        let mut tuner = self.deployed.tuner(consumer);
        let mut tuner_errs = 0u64;
        run_workload(&mut sim, &mut db, &self.wcfg(self.warm_ops, 1), |sim| {
            tuner_errs += u64::from(tuner.on_op(sim).is_err());
        });
        if let Some(reg) = &registry {
            reg.reset(); // fill and warm-up are not the timed phase's
        }
        sim.reset_stats(); // counters only (and the device head), so timed-phase stats are deltas
        let db0 = db.stats();
        let (records0, dropped0, decisions0) = (
            sim.trace_emitted(),
            tuner.records_dropped(),
            tuner.decisions().len(),
        );
        let prep_ns = prep.elapsed().as_nanos() as u64;

        let timed_cfg = self.wcfg(self.timed_ops, 2);
        let mut op_latency = LogLinHist::new();
        let timed = Instant::now();
        let report = match tracer {
            None => run_workload(&mut sim, &mut db, &timed_cfg, |sim| {
                tuner_errs += u64::from(tuner.on_op(sim).is_err());
            }),
            Some((tr, rep)) => {
                let root = tr.open("rep", None, rep);
                let stack = tr.open("kvstore.run_workload", Some(root), rep);
                let poll = tr.group("readahead.poll_window", Some(stack), rep);
                let close = tr.group_hist("readahead.window_close", Some(stack), rep);
                let infer = tr.group_hist("readahead.predict_active", Some(close), rep);
                let apply = tr.group_hist("readahead.apply_class", Some(close), rep);
                let mut last_op_end = sim.now_ns();
                let report = run_workload(&mut sim, &mut db, &timed_cfg, |sim| {
                    let now = sim.now_ns();
                    op_latency.record(now - last_op_end);
                    last_op_end = now;
                    // `on_op`, as its documented bit-identical split.
                    let t0 = tr.now();
                    let features = tuner.poll_window(sim);
                    let t1 = tr.now();
                    let Some(features) = features else {
                        tr.add(poll, t0, t1);
                        return;
                    };
                    match tuner.predict_active(&features) {
                        Ok(class) => {
                            let t2 = tr.now();
                            tuner.apply_class(sim, class);
                            let t3 = tr.now();
                            tr.add(infer, t1, t2);
                            tr.add(apply, t2, t3);
                            tr.add(close, t0, t3);
                        }
                        Err(_) => tuner_errs += 1,
                    }
                });
                tr.close(stack);
                tr.close(root);
                report
            }
        };
        let timed_ns = timed.elapsed().as_nanos() as u64;

        let mut digest = Digest::new();
        digest
            .u64(report.ops)
            .u64(report.sim_ns)
            .u64(report.io_errors)
            .u64(u64::from(tuner.current_ra_kb()))
            .u64(tuner.decisions().len() as u64);
        for d in tuner.decisions() {
            digest
                .u64(d.time_ns)
                .u64(d.class as u64)
                .u64(u64::from(d.ra_kb));
        }
        let rep = Rep {
            units: report.ops,
            timed_ns,
            prep_ns,
            digest: digest.value(),
            attempted: report.ops,
            failed: report.io_errors + tuner_errs,
        };
        self.last = Some(LastRep {
            sim_stats: sim.stats(),
            db_delta: DbStats {
                flushes: db.stats().flushes - db0.flushes,
                compactions: db.stats().compactions - db0.compactions,
                memtable_hits: db.stats().memtable_hits - db0.memtable_hits,
                table_reads: db.stats().table_reads - db0.table_reads,
                background_errors: db.stats().background_errors - db0.background_errors,
            },
            trace_records: sim.trace_emitted() - records0,
            dropped: tuner.records_dropped() - dropped0,
            decisions: (tuner.decisions().len() - decisions0) as u64,
            ops: report.ops,
            sim_ns: report.sim_ns,
            op_latency,
            sim,
            db,
        });
        if registry.is_some() {
            self.registry = registry;
        }
        rep
    }

    /// Every key of the fill is still readable, a key outside it is not, and
    /// background work never failed.
    fn check(&mut self) -> Result<(), String> {
        let last = self.last.as_mut().ok_or("no rep ran")?;
        if last.db_delta.background_errors != 0 {
            return Err(format!(
                "{} background errors",
                last.db_delta.background_errors
            ));
        }
        let mut x = self.seed;
        for _ in 0..32 {
            let key = super::splitmix(&mut x) % NUM_KEYS;
            if !last
                .db
                .get(&mut last.sim, key)
                .map_err(|e| format!("get {key}: {e:?}"))?
            {
                return Err(format!("key {key} of the fill is gone"));
            }
        }
        if last
            .db
            .get(&mut last.sim, NUM_KEYS + 7)
            .map_err(|e| format!("{e:?}"))?
        {
            return Err("a key that was never written reads as present".into());
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let last = self.last.as_ref().expect("layers after reps");
        let (sim, db, ops) = (&last.sim_stats, &last.db_delta, last.ops);
        let kml = ops as f64 * 1e9 / last.sim_ns as f64;
        out.set("sim.kml_speedup_x", kml / self.vanilla_ops_per_sim_s());
        out.set(
            "sim.op_p99_us",
            last.op_latency.percentile(99.0) as f64 / 1e3,
        );

        let (rep_ns, _) = tracer.total("rep");
        let (stack_calls, reps) = (
            tracer.total("kvstore.run_workload").0,
            tracer.total("rep").1,
        );
        let all_ops = ops * reps;
        out.set(
            "kvstore.stack_ns_per_op",
            tracer.self_ns("kvstore.run_workload") as f64 / all_ops as f64,
        );
        out.set("kvstore.flushes", db.flushes as f64);
        out.set("kvstore.compactions", db.compactions as f64);
        let gets = db.memtable_hits + db.table_reads;
        out.set("kvstore.memtable_hit_pct", pct(db.memtable_hits, gets));
        out.set("kvstore.table_reads_per_get", ratio(db.table_reads, gets));

        out.set(
            "kernel-sim.cache_hit_pct",
            pct(sim.cache.hits, sim.cache.hits + sim.cache.misses),
        );
        out.set("kernel-sim.evictions", sim.cache.evictions as f64);
        out.set(
            "kernel-sim.wasted_prefetch_pct",
            pct(sim.cache.wasted_prefetch, sim.cache.insertions),
        );
        out.set("kernel-sim.device_reads", sim.device.read_requests as f64);
        out.set(
            "kernel-sim.device_pages_per_op",
            ratio(sim.device.pages_read, ops),
        );
        out.set(
            "kernel-sim.pages_written_per_put",
            sim.device.pages_written as f64 / (ops as f64 * self.shape.put_share),
        );
        out.set("kernel-sim.writebacks", sim.cache.writebacks as f64);
        out.set(
            "kernel-sim.trace_records_per_op",
            ratio(last.trace_records, ops),
        );
        out.set(
            "kernel-sim.sim_s_per_host_s",
            last.sim_ns as f64 * reps as f64 / stack_calls as f64,
        );

        let (poll_ns, polls) = tracer.total("readahead.poll_window");
        let (close_ns, _) = tracer.total("readahead.window_close");
        let consumed = last.trace_records - last.dropped;
        out.set(
            "kml-collect.ns_per_record",
            poll_ns as f64 / (consumed * reps) as f64,
        );
        out.set(
            "kml-collect.records_per_window",
            ratio(consumed, last.decisions),
        );
        out.set("kml-collect.dropped", last.dropped as f64);
        out.set("readahead.poll_ns_per_op", ratio(poll_ns, polls));
        out.set("readahead.windows", last.decisions as f64);
        out.set("readahead.loop_share_pct", pct(poll_ns + close_ns, rep_ns));
        loop_stage_metrics(tracer, self.registry.as_ref(), consumed, out);
    }
}

/// The closed loop's stage numbers, shared with `loop-replay`: harness
/// histograms of the three public calls plus the loop's own stage
/// histograms from the attached `Registry` (one rep's worth).
pub(super) fn loop_stage_metrics(
    tracer: &Tracer,
    registry: Option<&Registry>,
    consumed: u64,
    out: &mut Metrics,
) {
    if let Some(h) = tracer.hist("readahead.window_close") {
        out.set("readahead.window_close_ns_p50", h.percentile(50.0) as f64);
        out.set("readahead.window_close_ns_p99", h.percentile(99.0) as f64);
    }
    if let Some(h) = tracer.hist("readahead.predict_active") {
        out.set("readahead.infer_ns_p50", h.percentile(50.0) as f64);
        out.set("readahead.infer_ns_p99", h.percentile(99.0) as f64);
    }
    if let Some(h) = tracer.hist("readahead.apply_class") {
        out.set("readahead.apply_ns_mean", h.mean());
    }
    let Some(snap) = registry.map(Registry::snapshot) else {
        return;
    };
    let prefix = readahead::tuner::LOOP_METRIC_PREFIX;
    if let Some(h) = snap.histogram(&format!("{prefix}.featurize_ns")) {
        out.set("readahead.featurize_ns_mean", h.mean());
    }
    if let Some(h) = snap.histogram(&format!("{prefix}.collect_ns")) {
        out.set("kml-collect.drain_ns_per_record", ratio(h.sum, consumed));
    }
    out.set(
        "readahead.actuations",
        snap.counter(&format!("{prefix}.actuation_total"))
            .unwrap_or(0) as f64,
    );
}
