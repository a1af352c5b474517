//! `loop-replay`: the paper's §3.3 trace flow, alone. Set-up captures the
//! tracepoint stream of one KML-tuned mixgraph run (per-operation boundaries
//! kept); each rep pushes that stream `PASSES` times (timestamps shifted by
//! the stream's span) through `RingBuffer` → a fresh `KmlTuner` on an idle
//! `Sim` that serves only as clock (`Sim::advance`) and knob. Collection,
//! featurization, single-row inference, actuation and the decision log are
//! ~all of the host time here and ≤ ~11 % of it anywhere else.

use super::lsm::{filled_stack, loop_stage_metrics, Deployed, Stack, NUM_KEYS};
use super::{pct, ratio};
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::{Metrics, Rep, RunConfig, Workload};
use kernel_sim::{DeviceProfile, Sim, SimConfig, TraceRecord};
use kml_collect::ringbuf::Producer;
use kml_collect::RingBuffer;
use kml_platform::alloc::CountingSystemAlloc;
use kml_telemetry::Registry;
use kvstore::{run_workload, WorkloadConfig};
use std::time::Instant;

/// Operations of the captured mixgraph run (~0.5 M records).
const CAPTURE_OPS: u64 = 200_000;
/// Replays of the stream per rep.
const PASSES: u64 = 10;
/// The capture ring holds a whole compaction's burst, so the stream is complete.
const CAPTURE_RING: usize = 1 << 20;
/// The replay ring is the closed loop's own size: bursts overwrite, as live.
const REPLAY_RING: usize = 1 << 16;

pub struct LoopReplay {
    records: Vec<TraceRecord>,
    /// Per captured operation: `(end of its records, simulated time after it)`.
    ops: Vec<(u32, u64)>,
    /// Simulated span of the stream; pass `k` is shifted by `k * span_ns`.
    span_ns: u64,
    passes: u64,
    deployed: Deployed,
    last: Option<LastRep>,
    /// Attached to the first traced rep only: its span timers cost two clock
    /// reads per hook call — more than the call — which the others are spared.
    registry: Option<Registry>,
}

struct LastRep {
    pushed: u64,
    dropped: u64,
    decisions: u64,
    allocs: u64,
}

impl LoopReplay {
    pub fn build(cfg: &RunConfig) -> Result<LoopReplay, String> {
        let device = DeviceProfile::sata_ssd();
        let deployed = Deployed::train(&device)?;
        // The lsm-mixgraph stack, with the harness between the simulator's
        // ring and the tuner's: every record is copied out, then forwarded.
        let Stack {
            mut sim,
            mut db,
            consumer: mut tap_out,
        } = filled_stack(device, kvstore::Workload::MixGraph, CAPTURE_RING, None);
        let wcfg = WorkloadConfig {
            num_keys: NUM_KEYS,
            ops: cfg.scaled(CAPTURE_OPS),
            seed: cfg.seed,
            ..WorkloadConfig::new(kvstore::Workload::MixGraph)
        };
        let (forward, consumer) = RingBuffer::with_capacity(REPLAY_RING).split();
        let mut live = deployed.tuner(consumer);
        let start_ns = sim.now_ns();
        let (mut records, mut ops) = (Vec::new(), Vec::new());
        run_workload(&mut sim, &mut db, &wcfg, |sim| {
            while let Some(record) = tap_out.pop() {
                records.push(record);
                forward.push(record);
            }
            ops.push((records.len() as u32, sim.now_ns() - start_ns));
            let _ = live.on_op(sim);
        });
        if tap_out.dropped() != 0 {
            return Err(format!(
                "capture ring overflowed: {} records lost",
                tap_out.dropped()
            ));
        }
        for r in &mut records {
            r.time_ns -= start_ns;
        }
        Ok(LoopReplay {
            span_ns: sim.now_ns() - start_ns,
            records,
            ops,
            passes: cfg.scaled(PASSES),
            deployed,
            last: None,
            registry: None,
        })
    }
}

impl LoopReplay {
    /// Walks the stream `passes` times: per captured operation, its records
    /// go into the ring, the clock moves to where the operation ended, and
    /// `hook` runs — what `run_workload` does around a live simulator.
    fn replay(
        &self,
        producer: &Producer<TraceRecord>,
        sim: &mut Sim,
        mut hook: impl FnMut(&mut Sim),
    ) {
        for pass in 0..self.passes {
            let shift = pass * self.span_ns;
            let mut from = 0usize;
            for &(to, at_ns) in &self.ops {
                for record in &self.records[from..to as usize] {
                    producer.push(TraceRecord {
                        time_ns: record.time_ns + shift,
                        ..*record
                    });
                }
                from = to as usize;
                sim.advance(at_ns + shift - sim.now_ns());
                hook(sim);
            }
        }
    }
}

impl Workload for LoopReplay {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let prep = Instant::now();
        let mut sim = Sim::new(SimConfig::default());
        let registry = matches!(tracer, Some((_, 0))).then(Registry::new);
        if let Some(reg) = &registry {
            sim.attach_telemetry(reg);
        }
        let (producer, consumer) = RingBuffer::with_capacity(REPLAY_RING).split();
        let mut tuner = self.deployed.tuner(consumer);
        let prep_ns = prep.elapsed().as_nanos() as u64;

        let mut tuner_errs = 0u64;
        let allocs = CountingSystemAlloc::thread_allocations();
        let timed = Instant::now();
        match tracer {
            None => self.replay(&producer, &mut sim, |sim| {
                tuner_errs += u64::from(tuner.on_op(sim).is_err());
            }),
            Some((tr, rep)) => {
                let root = tr.open("rep", None, rep);
                let collect = tr.group("kml-collect.collect", Some(root), rep);
                let close = tr.group_hist("readahead.window_close", Some(root), rep);
                let infer = tr.group_hist("readahead.predict_active", Some(close), rep);
                let apply = tr.group_hist("readahead.apply_class", Some(close), rep);
                // A hook call costs about as much as two clock reads, so the
                // clock is read per window, not per call: everything between
                // two decisions — pushes, pops, folds, the closing roll — is
                // collection; inference and actuation are timed exactly.
                let mut t0 = tr.now();
                self.replay(&producer, &mut sim, |sim| {
                    // `on_op`, as its documented bit-identical split.
                    let Some(features) = tuner.poll_window(sim) else {
                        return;
                    };
                    let t1 = tr.now();
                    tr.add(collect, t0, t1);
                    t0 = t1;
                    match tuner.predict_active(&features) {
                        Ok(class) => {
                            let t2 = tr.now();
                            tuner.apply_class(sim, class);
                            t0 = tr.now();
                            tr.add(infer, t1, t2);
                            tr.add(apply, t2, t0);
                            tr.add(close, t1, t0);
                        }
                        Err(_) => tuner_errs += 1,
                    }
                });
                tr.add(collect, t0, tr.now());
                tr.close(root);
            }
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let allocs = CountingSystemAlloc::thread_allocations() - allocs;

        // The decision log must not differ between reps.
        let mut digest = Digest::new();
        digest
            .u64(producer.pushed())
            .u64(tuner.records_dropped())
            .u64(u64::from(tuner.current_ra_kb()))
            .u64(tuner.decisions().len() as u64);
        for d in tuner.decisions() {
            digest
                .u64(d.time_ns)
                .u64(d.class as u64)
                .u64(u64::from(d.ra_kb));
        }
        self.last = Some(LastRep {
            pushed: producer.pushed(),
            dropped: tuner.records_dropped(),
            decisions: tuner.decisions().len() as u64,
            allocs,
        });
        if registry.is_some() {
            self.registry = registry;
        }
        Rep {
            units: producer.pushed(),
            timed_ns,
            prep_ns,
            digest: digest.value(),
            attempted: producer.pushed(),
            failed: tuner_errs,
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no rep ran")?;
        if last.pushed != self.records.len() as u64 * self.passes {
            return Err(format!(
                "{} records pushed of {} x {}",
                last.pushed,
                self.records.len(),
                self.passes
            ));
        }
        if last.decisions == 0 {
            return Err("the tuner never decided".into());
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let last = self.last.as_ref().expect("layers after reps");
        let (rep_ns, reps) = tracer.total("rep");
        let (collect_ns, _) = tracer.total("kml-collect.collect");
        let (close_ns, _) = tracer.total("readahead.window_close");
        let consumed = last.pushed - last.dropped;
        out.set(
            "kml-collect.ns_per_record",
            collect_ns as f64 / (last.pushed * reps) as f64,
        );
        out.set(
            "kml-collect.records_per_window",
            ratio(consumed, last.decisions),
        );
        out.set("kml-collect.dropped", last.dropped as f64);
        out.set("readahead.windows", last.decisions as f64);
        // Collection and window closes are the loop; what is left of a rep is
        // the harness's own.
        out.set(
            "readahead.loop_share_pct",
            pct(collect_ns + close_ns, rep_ns),
        );
        out.set(
            "kml-platform.allocs_per_window",
            ratio(last.allocs, last.decisions),
        );
        loop_stage_metrics(tracer, self.registry.as_ref(), consumed, out);
    }
}
