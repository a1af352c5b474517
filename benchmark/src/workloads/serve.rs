//! `serve`: one `InferenceServer` (default options, exact f32, on-thread)
//! answering a fixed seeded 2,048-request mixed-kind tick through
//! `serve_into` with a reused response buffer. `kml-core`'s GEMM/sigmoid and
//! `kml-fleet`'s grouping/staging do all the work; both simulators idle.

use super::splitmix;
use crate::stats::{median, Digest};
use crate::trace::Tracer;
use crate::{Metrics, Rep, RunConfig, Workload};
use kml_core::model::Model;
use kml_fleet::server::MAX_FEATURES;
use kml_fleet::{
    FleetModels, InferRequest, InferResponse, InferenceServer, ModelKind, ServeOptions,
};
use kml_platform::alloc::CountingSystemAlloc;
use std::hint::black_box;
use std::time::Instant;

/// Requests per tick: one window per tenant of the 2,048-tenant fleet.
const WINDOWS: u64 = 2_048;
const TICKS_PER_REP: u64 = 500;
const WARM_TICKS: u64 = 50;
const MODEL_SEED: u64 = 7;

pub struct Serve {
    server: InferenceServer,
    requests: Vec<InferRequest>,
    responses: Vec<InferResponse>,
    ticks: u64,
    /// Class per tenant of the same tick under `serial_inference`: the
    /// reference every batched tick must reproduce.
    serial_classes: Vec<usize>,
}

/// A mixed-kind request stream in the shape a fleet round produces: the
/// three models interleaved, features in the tuners' range, shuffled
/// because windows do not arrive sorted by tenant.
fn pending_windows(n: u64, seed: u64) -> Vec<InferRequest> {
    let mut x = seed;
    let mut requests: Vec<InferRequest> = (0..n)
        .map(|t| {
            let kind = ModelKind::ALL[(t % 3) as usize];
            let dim = if kind == ModelKind::Iosched { 4 } else { 5 };
            let mut features = [0.0; MAX_FEATURES];
            for f in features.iter_mut().take(dim) {
                *f = (splitmix(&mut x) % 4_096) as f64 / 16.0;
            }
            InferRequest {
                tenant_id: t,
                kind,
                features,
                dim,
            }
        })
        .collect();
    for i in (1..requests.len()).rev() {
        requests.swap(i, (splitmix(&mut x) % (i as u64 + 1)) as usize);
    }
    requests
}

/// Tenant ids are `0..n`, so a tick's answers index by tenant.
fn classes_by_tenant(responses: &[InferResponse]) -> Vec<usize> {
    let mut classes = vec![usize::MAX; responses.len()];
    for r in responses {
        classes[r.tenant_id as usize] = r.class;
    }
    classes
}

fn server(options: ServeOptions) -> Result<InferenceServer, String> {
    let models = FleetModels::untrained(MODEL_SEED).map_err(|e| e.to_string())?;
    Ok(InferenceServer::new(models, options))
}

impl Serve {
    pub fn build(cfg: &RunConfig) -> Result<Serve, String> {
        let requests = pending_windows(WINDOWS, cfg.seed);
        let mut serial = server(ServeOptions {
            serial_inference: true,
            ..ServeOptions::default()
        })?;
        let serial_classes =
            classes_by_tenant(&serial.serve(&requests).map_err(|e| e.to_string())?);
        let mut serve = Serve {
            server: server(ServeOptions::default())?,
            requests,
            responses: Vec::new(),
            ticks: cfg.scaled(TICKS_PER_REP),
            serial_classes,
        };
        for _ in 0..WARM_TICKS {
            serve.tick()?;
        }
        Ok(serve)
    }

    fn tick(&mut self) -> Result<(), String> {
        self.server
            .serve_into(black_box(&self.requests), &mut self.responses)
            .map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let (mut answered, mut errs) = (0u64, 0u64);
        let timed = Instant::now();
        match tracer {
            None => {
                for _ in 0..self.ticks {
                    errs += u64::from(self.tick().is_err());
                    answered += black_box(&self.responses).len() as u64;
                }
            }
            Some((tr, rep)) => {
                let root = tr.open("rep", None, rep);
                let group = tr.group_hist("kml-fleet.serve_into", Some(root), rep);
                let mut t0 = tr.now();
                for _ in 0..self.ticks {
                    errs += u64::from(self.tick().is_err());
                    answered += black_box(&self.responses).len() as u64;
                    let t1 = tr.now();
                    tr.add(group, t0, t1);
                    t0 = t1;
                }
                tr.close(root);
            }
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let mut digest = Digest::new();
        digest.u64(answered);
        for r in &self.responses {
            digest
                .u64(r.tenant_id)
                .u64(r.kind.index() as u64)
                .u64(r.class as u64);
        }
        let requested = self.ticks * self.requests.len() as u64;
        Rep {
            units: requested,
            timed_ns,
            prep_ns: 0,
            digest: digest.value(),
            attempted: requested,
            failed: requested - answered.min(requested) + errs,
        }
    }

    /// The last tick answered every request, for the right tenant and kind,
    /// with the class single-row serial inference gives.
    fn check(&mut self) -> Result<(), String> {
        if self.responses.len() != self.requests.len() {
            return Err(format!(
                "{} responses to {} requests",
                self.responses.len(),
                self.requests.len()
            ));
        }
        let batched = classes_by_tenant(&self.responses);
        match batched
            .iter()
            .zip(&self.serial_classes)
            .position(|(b, s)| b != s)
        {
            Some(tenant) => Err(format!(
                "tenant {tenant}: batched class differs from serial"
            )),
            None => Ok(()),
        }
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let rows = self.requests.len() as f64;
        let tick = tracer
            .hist("kml-fleet.serve_into")
            .expect("traced reps ran");
        out.set("kml-fleet.tick_us_p50", tick.percentile(50.0) as f64 / 1e3);
        out.set("kml-fleet.tick_us_p99", tick.percentile(99.0) as f64 / 1e3);
        let tick_ns_per_row = tick.percentile(50.0) as f64 / rows;

        // Steady-state ticks must not allocate (0 unless this is the traced
        // binary, whose allocator counts).
        let allocs = CountingSystemAlloc::process_allocations();
        for _ in 0..100 {
            self.tick().expect("serving succeeds");
        }
        out.set(
            "kml-platform.allocs_per_tick",
            (CountingSystemAlloc::process_allocations() - allocs) as f64 / 100.0,
        );

        // kml-core directly: the same rows, pre-grouped per kind, in the
        // server's 256-row batches.
        let mut models = FleetModels::untrained(MODEL_SEED).expect("deterministic model build");
        let mut grouped: [Vec<f64>; 3] = Default::default();
        for r in &self.requests {
            grouped[r.kind.index()].extend_from_slice(r.features());
        }
        let mut kinds: [(&mut Model<f32>, &[f64]); 3] = [
            (&mut models.readahead, &grouped[0]),
            (&mut models.iosched, &grouped[1]),
            (&mut models.netfs, &grouped[2]),
        ];
        let max_batch = ServeOptions::default().max_batch;
        let mut classes = Vec::new();
        let mut pass = |kinds: &mut [(&mut Model<f32>, &[f64]); 3]| {
            let t = Instant::now();
            for (model, features) in kinds.iter_mut() {
                let dim = model.input_dim();
                for chunk in features.chunks(max_batch * dim) {
                    model
                        .predict_batch_into(black_box(chunk), chunk.len() / dim, &mut classes)
                        .expect("batched inference succeeds");
                    black_box(&classes);
                }
            }
            t.elapsed().as_nanos() as f64 / rows
        };
        let batch_ns_per_row = median(&(0..300).map(|_| pass(&mut kinds)).collect::<Vec<_>>());
        out.set("kml-core.predict_batch_ns_per_row", batch_ns_per_row);
        out.set(
            "kml-fleet.serve_overhead_ns_per_row",
            tick_ns_per_row - batch_ns_per_row,
        );

        // Single rows, exact f32, timed 64 at a time (one clock read is a
        // tenth of one inference).
        let single: Vec<f64> = self
            .requests
            .chunks(64)
            .map(|chunk| {
                let t = Instant::now();
                for r in chunk {
                    let model = &mut kinds[r.kind.index()].0;
                    black_box(
                        model
                            .predict(black_box(r.features()))
                            .expect("inference succeeds"),
                    );
                }
                t.elapsed().as_nanos() as f64 / chunk.len() as f64
            })
            .collect();
        out.set("kml-core.predict_ns_p50", median(&single));
        out.set(
            "kml-core.scratch_bytes",
            kinds[0].0.measured_scratch_bytes() as f64,
        );
        out.set(
            "kml-core.kernel_backend",
            kml_core::simd::kernel_backend().gauge_value() as f64,
        );

        for (model, _) in kinds.iter_mut() {
            model.enable_q8().expect("q8 calibration succeeds");
        }
        let q8_ns_per_row = median(&(0..300).map(|_| pass(&mut kinds)).collect::<Vec<_>>());
        out.set("kml-core.q8_ns_per_row", q8_ns_per_row);
    }
}
