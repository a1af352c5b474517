//! `fleet`: `kml_fleet::run_fleet` — 2,048 seed-derived tenants, 64 shards,
//! untrained stand-in models, caller + 1 pool thread (the pipelined
//! engine). Each rep is a fresh `run_fleet` call, tenant derivation
//! included: that is what `FleetReport::tenant_windows_per_sec` measures.
//!
//! `run_fleet` cannot be opened from outside, so the traced pass drives the
//! same public `Tenant::{derive, run_round, apply}` and
//! `InferenceServer::serve_into` itself — single-threaded, same seed, one
//! barriered round at a time — for the per-tenant layer numbers, and reads
//! `run_fleet`'s own `fleet.phase_*_ns` histograms for the round numbers.

use super::ratio;
use crate::stats::{median, Digest, LogLinHist};
use crate::trace::Tracer;
use crate::{proc_status_kb, Metrics, Rep, RunConfig, Workload};
use kml_fleet::{
    run_fleet, FleetConfig, FleetModels, FleetSampler, FleetSummary, InferenceServer, ModelKind,
    ServeOptions, Tenant,
};
use kml_platform::threading;
use kml_telemetry::{Log2Hist, Registry};
use std::time::Instant;

const TENANTS: u64 = 2_048;
const SHARDS: usize = 64;
const ROUNDS: u64 = 8;
/// Seed of the untrained stand-in models (decisions are arbitrary but
/// reproducible; serving infrastructure is what this workload exercises).
const MODEL_SEED: u64 = 7;
/// `(p50, p99)` metric of a tenant's `run_round`, in `ModelKind::ALL` order.
const ROUND_METRICS: [(&str, &str); 3] = [
    (
        "kml-fleet.run_round_us_p50.ra",
        "kml-fleet.run_round_us_p99.ra",
    ),
    (
        "kml-fleet.run_round_us_p50.io",
        "kml-fleet.run_round_us_p99.io",
    ),
    (
        "kml-fleet.run_round_us_p50.net",
        "kml-fleet.run_round_us_p99.net",
    ),
];

pub struct Fleet {
    cfg: FleetConfig,
    last: Option<FleetSummary>,
}

impl Fleet {
    pub fn build(cfg: &RunConfig) -> Result<Fleet, String> {
        let fleet_cfg = FleetConfig {
            tenants: cfg.scaled(TENANTS) as usize,
            rounds: ROUNDS as usize,
            seed: cfg.seed,
            shards: SHARDS,
            ..FleetConfig::default()
        };
        // Set-up is tenant derivation: `run_fleet` with no rounds.
        run_fleet(
            &FleetConfig {
                rounds: 0,
                ..fleet_cfg
            },
            models()?,
        )
        .map_err(|e| e.to_string())?;
        Ok(Fleet {
            cfg: fleet_cfg,
            last: None,
        })
    }
}

fn models() -> Result<FleetModels, String> {
    FleetModels::untrained(MODEL_SEED).map_err(|e| e.to_string())
}

fn digest_of(s: &FleetSummary) -> u64 {
    let mut d = Digest::new();
    d.u64(s.tenants as u64)
        .u64(s.rounds as u64)
        .u64(s.shards as u64);
    for v in s
        .kind_counts
        .iter()
        .chain(&s.workload_counts)
        .chain(&s.decisions_applied)
    {
        d.u64(*v);
    }
    d.u64(s.windows_submitted)
        .u64(s.decisions_returned)
        .u64(s.forward_passes);
    for &(size, batches) in &s.batch_sizes {
        d.u64(size as u64).u64(batches);
    }
    let l = &s.latency;
    d.u64(l.count)
        .u64(l.sum)
        .u64(l.p50)
        .u64(l.p95)
        .u64(l.p99)
        .u64(l.max);
    d.value()
}

impl Workload for Fleet {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let prep = Instant::now();
        let models = models().expect("deterministic model build");
        let prep_ns = prep.elapsed().as_nanos() as u64;
        let span = tracer.map(|(tr, rep)| {
            let root = tr.open("rep", None, rep);
            (tr.open("kml-fleet.run_fleet", Some(root), rep), root, tr)
        });
        let timed = Instant::now();
        let report = run_fleet(&self.cfg, models);
        let timed_ns = timed.elapsed().as_nanos() as u64;
        if let Some((call, root, tr)) = span {
            tr.close(call);
            tr.close(root);
        }
        match report {
            Ok(report) => {
                let s = report.summary;
                let rep = Rep {
                    units: s.decisions_returned,
                    timed_ns,
                    prep_ns,
                    digest: digest_of(&s),
                    attempted: s.windows_submitted,
                    failed: s.windows_submitted - s.decisions_returned,
                };
                self.last = Some(s);
                rep
            }
            // A failed run did no work; one failed attempt keeps the rate finite.
            Err(_) => Rep {
                units: 0,
                timed_ns,
                prep_ns,
                digest: 0,
                attempted: 1,
                failed: 1,
            },
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let s = self.last.as_ref().ok_or("run_fleet failed")?;
        let applied: u64 = s.decisions_applied.iter().sum();
        if applied != s.windows_submitted || s.windows_submitted == 0 {
            return Err(format!(
                "{} windows submitted, {applied} decisions applied",
                s.windows_submitted
            ));
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let s = self.last.as_ref().expect("layers after reps");
        out.set("sim.op_p99_us", s.latency.p99 as f64 / 1e3);
        let batches: u64 = s.batch_sizes.iter().map(|&(_, n)| n).sum();
        let rows: u64 = s.batch_sizes.iter().map(|&(size, n)| size as u64 * n).sum();
        out.set("kml-fleet.batch_rows_mean", ratio(rows, batches));
        out.set("kml-fleet.forward_passes", s.forward_passes as f64);

        // run_fleet's own phase histograms (every rep of this process).
        let snap = Registry::global().snapshot();
        let mean_ms = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean() / 1e6);
        // In the pipelined engine `serve` spans the whole round.
        let round_ms = mean_ms("fleet.phase_serve_ns");
        out.set("kml-fleet.round_ms_mean", round_ms);
        out.set("kml-fleet.phase_run_ms_mean", mean_ms("fleet.phase_run_ns"));
        out.set(
            "kml-fleet.phase_apply_ms_mean",
            mean_ms("fleet.phase_apply_ns"),
        );

        let pool = threading::global_pool();
        let dispatch: Vec<f64> = (0..1_000)
            .map(|_| {
                let t = Instant::now();
                pool.run(2, 2, |_, _| {});
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.set("kml-platform.pool_dispatch_us", median(&dispatch));

        self.drive_tenants(tracer, round_ms, out);
    }
}

impl Fleet {
    /// One barriered fleet, composed by the harness from the public tenant
    /// and server calls, with a timer around each.
    fn drive_tenants(&self, tracer: &mut Tracer, round_ms: f64, out: &mut Metrics) {
        let sampler = FleetSampler::new();
        let root = tracer.open("harness.drive_tenants", None, 0);
        let derive = tracer.group_hist("kml-fleet.derive", Some(root), 0);
        let mut tenants: Vec<Tenant> = (0..self.cfg.tenants as u64)
            .map(|id| {
                let t0 = tracer.now();
                let tenant = Tenant::derive(self.cfg.seed, id, &sampler);
                tracer.add(derive, t0, tracer.now());
                tenant
            })
            .collect();
        out.set(
            "kml-fleet.bytes_per_tenant",
            ratio(proc_status_kb("VmRSS") * 1024, tenants.len() as u64),
        );
        out.set(
            "kml-fleet.derive_us_per_tenant",
            tracer
                .hist("kml-fleet.derive")
                .map_or(0.0, |h| h.mean() / 1e3),
        );

        let mut server = InferenceServer::new(
            models().expect("deterministic model build"),
            ServeOptions::default(),
        );
        let mut round_ns = [LogLinHist::new(), LogLinHist::new(), LogLinHist::new()];
        let (mut apply_ns, mut serve_ns) = (LogLinHist::new(), 0u64);
        let (mut hist, mut requests, mut responses) = (Log2Hist::new(), Vec::new(), Vec::new());
        let mut straggler = Vec::new();
        for _ in 0..self.cfg.rounds {
            let mut shard_ns = vec![0u64; self.cfg.shards];
            requests.clear();
            for tenant in &mut tenants {
                let t0 = tracer.now();
                let request = tenant.run_round(&mut hist);
                let ns = tracer.now() - t0;
                round_ns[tenant.model_kind().index()].record(ns);
                shard_ns[tenant.id as usize % self.cfg.shards] += ns;
                requests.extend(request);
            }
            // A round waits for its slowest shard.
            let slowest = shard_ns.iter().copied().max().unwrap_or(0);
            straggler.push(
                slowest as f64 * shard_ns.len() as f64 / shard_ns.iter().sum::<u64>().max(1) as f64,
            );
            let t0 = tracer.now();
            server
                .serve_into(&requests, &mut responses)
                .expect("serving succeeds");
            serve_ns += tracer.now() - t0;
            for response in &responses {
                let t0 = tracer.now();
                tenants[response.tenant_id as usize].apply(response);
                apply_ns.record(tracer.now() - t0);
            }
        }
        tracer.close(root);

        for (kind, (p50, p99)) in ModelKind::ALL.iter().zip(ROUND_METRICS) {
            let h = &round_ns[kind.index()];
            out.set(p50, h.percentile(50.0) as f64 / 1e3);
            out.set(p99, h.percentile(99.0) as f64 / 1e3);
        }
        out.set(
            "iosched.round_us_p50",
            round_ns[ModelKind::Iosched.index()].percentile(50.0) as f64 / 1e3,
        );
        out.set("kml-fleet.apply_ns_mean", apply_ns.mean());
        out.set("kml-fleet.straggler_ratio", median(&straggler));
        let serve_ms_per_round = serve_ns as f64 / 1e6 / self.cfg.rounds.max(1) as f64;
        if round_ms > 0.0 {
            out.set(
                "kml-fleet.serve_share_pct",
                100.0 * serve_ms_per_round / round_ms,
            );
        }
    }
}
