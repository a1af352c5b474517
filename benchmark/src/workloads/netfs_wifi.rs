//! `netfs-wifi`: `netfs::NfsMount` over the lossy-wifi link with the trained
//! `RsizeTuner` attached — the third subsystem, and the only run of the
//! tuner's local-model path. The read stream has `NetRunConfig::paper()`'s
//! shape (256-page reads, a jump every 16th, 4,096-page server cache).
//! Every rep mounts afresh, so reps are exact repeats.

use super::{pct, ratio, splitmix};
use crate::stats::{Digest, LogLinHist};
use crate::trace::Tracer;
use crate::{Metrics, Rep, RunConfig, Workload};
use kernel_sim::{FileId, SimConfig};
use kml_collect::RingBuffer;
use netfs::{
    NetProfile, NetRunConfig, NetStats, NfsMount, RsizePolicy, RsizeTuner, RsizeTunerModel,
};
use std::time::Instant;

/// Simulated seconds of warm-up (server cache, tuner's first windows).
const WARM_SIM_S: u64 = 30;
/// Simulated seconds per timed rep: ~9 k reads, ~4 k windows.
const TIMED_SIM_S: u64 = 400;
/// The link is part of the system under test, like a device profile: its
/// packet fates are seeded once, and `--seed` moves only the read stream.
/// (A link seeded per run loses so differently that reads per host second
/// ranged 38 k – 86 k over ten seeds.)
const LINK_SEED: u64 = 0x57F1;

pub struct NetfsWifi {
    shape: NetRunConfig,
    timed_ns: u64,
    warm_ns: u64,
    model_bytes: Vec<u8>,
    last: Option<LastRep>,
}

struct LastRep {
    /// RPC accounting before and after the timed phase.
    stats: (NetStats, NetStats),
    reads: u64,
    pages_read: u64,
    elapsed_ns: u64,
    decisions: u64,
    rsize_changes: u64,
    latency: LogLinHist,
}

/// The read stream of `netfs::closed_loop`'s driver: sequential
/// `request_pages` reads, every `jump_every`-th one from a new offset.
struct Stream {
    pos: u64,
    x: u64,
    issued: u64,
}

impl Stream {
    fn next(&mut self, shape: &NetRunConfig) -> u64 {
        let span = shape.file_pages - shape.request_pages;
        self.issued += 1;
        if self.issued.is_multiple_of(shape.jump_every) {
            self.pos = splitmix(&mut self.x) % span;
        }
        let at = self.pos;
        self.pos = (self.pos + shape.request_pages) % span;
        at
    }
}

impl NetfsWifi {
    pub fn build(cfg: &RunConfig) -> Result<NetfsWifi, String> {
        Ok(NetfsWifi {
            shape: NetRunConfig {
                seed: cfg.seed,
                ..NetRunConfig::paper()
            },
            timed_ns: cfg.scaled(TIMED_SIM_S) * 1_000_000_000,
            warm_ns: cfg.scaled(WARM_SIM_S) * 1_000_000_000,
            model_bytes: netfs::train_rsize_model(super::MODEL_SEED)
                .map_err(|e| format!("training: {e}"))?,
            last: None,
        })
    }

    fn mount(&self) -> (NfsMount, FileId) {
        let mut mount = NfsMount::new(
            NetProfile::lossy_wifi(LINK_SEED),
            SimConfig {
                cache_pages: self.shape.cache_pages,
                ..SimConfig::default()
            },
        );
        let file = mount.create_file(self.shape.file_pages);
        (mount, file)
    }

    /// Simulated MB/s of the same rep at the mount-default rsize, no tuner:
    /// the baseline of `sim.kml_speedup_x`.
    fn fixed_pages_per_sim_s(&self) -> f64 {
        let (mut mount, file) = self.mount();
        let mut stream = Stream {
            pos: 0,
            x: self.shape.seed,
            issued: 0,
        };
        let mut pages = 0u64;
        // Warm-up, then the timed span, exactly as `rep` walks them.
        while mount.now_ns() < self.warm_ns {
            let _ = mount.read(file, stream.next(&self.shape), self.shape.request_pages);
        }
        let start = mount.now_ns();
        while mount.now_ns() - start < self.timed_ns {
            if mount
                .read(file, stream.next(&self.shape), self.shape.request_pages)
                .is_ok()
            {
                pages += self.shape.request_pages;
            }
        }
        pages as f64 * 1e9 / (mount.now_ns() - start) as f64
    }
}

impl Workload for NetfsWifi {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let prep = Instant::now();
        let (mut mount, file) = self.mount();
        let (producer, consumer) = RingBuffer::with_capacity(1 << 14).split();
        mount.attach_rpc_trace(producer);
        let model = RsizeTunerModel::from_bytes(&self.model_bytes).expect("own encoding decodes");
        let mut tuner = RsizeTuner::new(
            model,
            RsizePolicy::experiment_default(),
            consumer,
            RsizeTuner::DEFAULT_WINDOW_NS,
        );
        let mut stream = Stream {
            pos: 0,
            x: self.shape.seed,
            issued: 0,
        };
        let (shape, mut tuner_errs) = (self.shape, 0u64);
        while mount.now_ns() < self.warm_ns {
            let _ = mount.read(file, stream.next(&shape), shape.request_pages);
            tuner_errs += u64::from(tuner.on_op(&mut mount).is_err());
        }
        let (stats0, decisions0) = (mount.stats(), tuner.decisions().len());
        let prep_ns = prep.elapsed().as_nanos() as u64;

        let (mut reads, mut pages_read, mut give_ups) = (0u64, 0u64, 0u64);
        let mut latency = LogLinHist::new();
        let start_ns = mount.now_ns();
        let timed = Instant::now();
        match tracer {
            None => {
                while mount.now_ns() - start_ns < self.timed_ns {
                    reads += 1;
                    match mount.read(file, stream.next(&shape), shape.request_pages) {
                        Ok(_) => pages_read += shape.request_pages,
                        Err(_) => give_ups += 1,
                    }
                    tuner_errs += u64::from(tuner.on_op(&mut mount).is_err());
                }
            }
            Some((tr, rep)) => {
                let root = tr.open("rep", None, rep);
                let read = tr.group("netfs.read", Some(root), rep);
                let poll = tr.group("netfs.poll_window", Some(root), rep);
                let close = tr.group_hist("netfs.window_close", Some(root), rep);
                // Laps: each boundary is read once and shared by its neighbours.
                let mut t0 = tr.now();
                while mount.now_ns() - start_ns < self.timed_ns {
                    reads += 1;
                    match mount.read(file, stream.next(&shape), shape.request_pages) {
                        Ok(ns) => {
                            pages_read += shape.request_pages;
                            latency.record(ns);
                        }
                        Err(_) => give_ups += 1,
                    }
                    let t1 = tr.now();
                    tr.add(read, t0, t1);
                    let features = tuner.poll_window(&mut mount);
                    if let Some(features) = features {
                        match tuner.predict_active(&features) {
                            Ok(class) => tuner.apply_class(&mut mount, class),
                            Err(_) => tuner_errs += 1,
                        }
                        t0 = tr.now();
                        tr.add(close, t1, t0);
                    } else {
                        t0 = tr.now();
                        tr.add(poll, t1, t0);
                    }
                }
                tr.close(root);
            }
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let elapsed_ns = mount.now_ns() - start_ns;

        let decisions = &tuner.decisions()[decisions0..];
        let mut digest = Digest::new();
        digest
            .u64(reads)
            .u64(pages_read)
            .u64(elapsed_ns)
            .u64(give_ups)
            .u64(u64::from(mount.rsize_kb()))
            .u64(mount.stats().rpcs_issued)
            .u64(mount.stats().retransmits)
            .u64(decisions.len() as u64);
        for d in decisions {
            digest
                .u64(d.time_ns)
                .u64(d.class as u64)
                .u64(u64::from(d.rsize_kb));
        }
        let rsize_changes = decisions
            .windows(2)
            .filter(|w| w[0].rsize_kb != w[1].rsize_kb)
            .count() as u64;
        let now = mount.stats();
        self.last = Some(LastRep {
            stats: (stats0, now),
            reads,
            pages_read,
            elapsed_ns,
            decisions: decisions.len() as u64,
            rsize_changes,
            latency,
        });
        // The books of the whole mount (warm-up included) must balance.
        let reconcile_failed = u64::from(now.reconcile().is_err());
        Rep {
            units: reads,
            timed_ns,
            prep_ns,
            digest: digest.value(),
            attempted: reads,
            failed: give_ups + tuner_errs + reconcile_failed,
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no rep ran")?;
        if last.decisions == 0 {
            return Err("the tuner never decided".into());
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let last = self.last.as_ref().expect("layers after reps");
        let kml = last.pages_read as f64 * 1e9 / last.elapsed_ns as f64;
        out.set("sim.kml_speedup_x", kml / self.fixed_pages_per_sim_s());
        out.set("sim.op_p99_us", last.latency.percentile(99.0) as f64 / 1e3);

        let (rep_ns, _) = tracer.total("rep");
        let (read_ns, read_calls) = tracer.total("netfs.read");
        let (poll_ns, _) = tracer.total("netfs.poll_window");
        let (close_ns, _) = tracer.total("netfs.window_close");
        out.set("netfs.read_ns_per_op", ratio(read_ns, read_calls));
        if let Some(h) = tracer.hist("netfs.window_close") {
            out.set("netfs.window_close_ns_p50", h.percentile(50.0) as f64);
            out.set("netfs.window_close_ns_p99", h.percentile(99.0) as f64);
        }
        out.set("netfs.loop_share_pct", pct(poll_ns + close_ns, rep_ns));
        let (before, after) = &last.stats;
        let delta = |field: fn(&NetStats) -> u64| field(after) - field(before);
        let rpcs = delta(|s| s.rpcs_issued);
        out.set("netfs.rpcs_per_read", ratio(rpcs, last.reads));
        out.set("netfs.retransmit_pct", pct(delta(|s| s.retransmits), rpcs));
        out.set("netfs.timeouts", delta(|s| s.timeouts) as f64);
        out.set("netfs.drc_hits", delta(|s| s.drc_hits) as f64);
        out.set(
            "netfs.duplicate_drops",
            delta(|s| s.duplicate_responses_dropped) as f64,
        );
        out.set("netfs.rsize_changes", last.rsize_changes as f64);
    }
}
