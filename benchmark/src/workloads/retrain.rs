//! `retrain`: the continual loop's cold path, drift trigger → installed
//! candidate. A seeded two-phase 64-sample reservoir goes through
//! `kml_continual::train_candidate` (normalizer fit, seeded rebuild, 1,500
//! full-batch SGD steps, `.kmlm` packaging) and the result is installed on
//! a `KmlTuner` through `LifecycleTarget::install_artifact` (checksum,
//! decode, swap). One rep is one cycle; the retrain token is fixed, so every
//! cycle must produce the same artifact bytes.

use super::splitmix;
use crate::stats::{median, Digest, LogLinHist};
use crate::trace::Tracer;
use crate::{Metrics, Rep, RunConfig, Workload};
use kernel_sim::TraceRecord;
use kml_collect::RingBuffer;
use kml_continual::{
    train_candidate, DriftConfig, DriftDetector, Reservoir, ReservoirSample, RetrainSpec,
    RESERVOIR_DIM,
};
use kml_core::dataset::Normalizer;
use kml_core::loss::{CrossEntropyLoss, TargetRef};
use kml_core::matrix::Matrix;
use kml_core::model::ModelBuilder;
use kml_core::optimizer::Sgd;
use kml_lifecycle::{save_model, ArtifactKind, LifecycleTarget};
use readahead::{KmlTuner, RaPolicy, TunerModel};
use std::hint::black_box;
use std::time::Instant;

const RESERVOIR: usize = 64;
/// Full-batch SGD steps per candidate (the E14 budget).
const EPOCHS: u64 = 1_500;
const TOKEN: u64 = 1;

pub struct Retrain {
    spec: RetrainSpec,
    samples: Vec<ReservoirSample>,
    tuner: KmlTuner,
    generation: u64,
    last_artifact: Vec<u8>,
}

/// A reservoir at capacity, half random-phase windows and half shifted
/// (sequential-phase) ones, in the log-compressed feature space E14 serves;
/// ids, jitter and therefore the kept sample set come from the seed.
fn two_phase_reservoir(seed: u64) -> Vec<ReservoirSample> {
    let mut reservoir = Reservoir::new(RESERVOIR, seed);
    let mut x = seed;
    for id in 0..4 * RESERVOIR as u64 {
        let jit = (splitmix(&mut x) % 1_000) as f64 / 1_000.0 * 0.55;
        let shifted = id % 2 == 1;
        let features = if shifted {
            [0.0, 0.0, 4.1 + jit, 1.0, 0.0]
        } else {
            [0.0, 0.0, 14.2 + jit, 12.0 + jit, 0.0]
        };
        reservoir.offer(id, features, usize::from(shifted));
    }
    reservoir.samples().to_vec()
}

impl Retrain {
    pub fn build(cfg: &RunConfig) -> Result<Retrain, String> {
        let (_producer, consumer) = RingBuffer::<TraceRecord>::with_capacity(16).split();
        let mut retrain = Retrain {
            spec: RetrainSpec {
                kind: ArtifactKind::Readahead,
                classes: 2,
                epochs: cfg.scaled(EPOCHS) as u32,
                seed: cfg.seed,
            },
            samples: two_phase_reservoir(cfg.seed),
            // The install target: a remote-served tuner has no model of its
            // own until the first artifact lands.
            tuner: KmlTuner::new(
                TunerModel::Remote,
                RaPolicy::new(vec![16, 1024]),
                consumer,
                1_000_000,
                128,
            ),
            generation: 1,
            last_artifact: Vec::new(),
        };
        retrain.cycle().map(|_| retrain) // warm-up: first-touch of every buffer
    }

    /// One cycle; returns `(train_ns, install_ns)`.
    fn cycle(&mut self) -> Result<(u64, u64), String> {
        let t0 = Instant::now();
        let artifact = train_candidate(black_box(&self.spec), TOKEN, black_box(&self.samples))?;
        let train_ns = t0.elapsed().as_nanos() as u64;
        self.generation += 1;
        self.tuner
            .install_artifact(&artifact, self.generation)
            .map_err(|e| format!("install: {e}"))?;
        self.last_artifact = artifact;
        Ok((train_ns, t0.elapsed().as_nanos() as u64 - train_ns))
    }
}

impl Workload for Retrain {
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep {
        let timed = Instant::now();
        let outcome = match tracer {
            None => self.cycle(),
            Some((tr, rep)) => {
                let root = tr.open("rep", None, rep);
                let t0 = tr.now();
                let outcome = self.cycle();
                if let Ok((train_ns, install_ns)) = outcome {
                    let train = tr.group_hist("kml-continual.train_candidate", Some(root), rep);
                    tr.add(train, t0, t0 + train_ns);
                    let install = tr.group_hist("kml-lifecycle.install_artifact", Some(root), rep);
                    tr.add(install, t0 + train_ns, t0 + train_ns + install_ns);
                }
                tr.close(root);
                outcome
            }
        };
        let timed_ns = timed.elapsed().as_nanos() as u64;
        Rep {
            units: 1,
            timed_ns,
            prep_ns: 0,
            digest: Digest::new().bytes(&self.last_artifact).value(),
            attempted: 1,
            failed: u64::from(outcome.is_err()),
        }
    }

    /// The installed candidate carries the new generation and labels its own
    /// reservoir.
    fn check(&mut self) -> Result<(), String> {
        if self.tuner.model_generation() != self.generation {
            return Err(format!(
                "generation {} installed, {} expected",
                self.tuner.model_generation(),
                self.generation
            ));
        }
        let mut wrong = 0;
        for s in &self.samples {
            let class = self
                .tuner
                .predict_active(&s.features)
                .map_err(|e| e.to_string())?;
            wrong += usize::from(class != s.label);
        }
        if wrong > 0 {
            return Err(format!(
                "installed candidate mislabels {wrong} of {} reservoir samples",
                self.samples.len()
            ));
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics) {
        let ms = |h: &LogLinHist, p: f64| h.percentile(p) as f64 / 1e6;
        let train = tracer
            .hist("kml-continual.train_candidate")
            .expect("traced reps ran");
        out.set("kml-continual.train_candidate_ms_p50", ms(train, 50.0));
        let install = tracer
            .hist("kml-lifecycle.install_artifact")
            .expect("traced reps ran");
        out.set(
            "kml-lifecycle.install_us_p50",
            install.percentile(50.0) as f64 / 1e3,
        );
        out.set(
            "kml-lifecycle.artifact_bytes",
            self.last_artifact.len() as f64,
        );
        let mut cycle = LogLinHist::new();
        for s in tracer.spans().iter().filter(|s| s.name == "rep") {
            cycle.record(s.total_ns);
        }
        out.set("retrain.cycle_ms_p50", ms(&cycle, 50.0));
        out.set(
            "retrain.cycle_ms_tail",
            cycle.tail().map_or(0.0, |(_, ns)| ns as f64 / 1e6),
        );

        // kml-core directly: the trainee `train_candidate` builds, one
        // full-batch step at a time over the same normalized reservoir.
        let rows: Vec<Vec<f64>> = self.samples.iter().map(|s| s.features.to_vec()).collect();
        let labels: Vec<usize> = self.samples.iter().map(|s| s.label).collect();
        let features = Matrix::from_rows(&rows).expect("rectangular reservoir");
        let normalizer = Normalizer::fit(&features).expect("non-empty reservoir");
        let normed = normalizer.apply(&features).expect("fitted on these rows");
        let mut model = ModelBuilder::readahead_paper_topology(RESERVOIR_DIM, self.spec.classes)
            .seed(self.spec.seed)
            .build::<f64>()
            .expect("paper topology builds");
        model.set_normalizer(normalizer);
        let mut sgd = Sgd::paper_defaults();
        let steps: Vec<f64> = (0..500)
            .map(|_| {
                let t = Instant::now();
                model
                    .train_batch(
                        &normed,
                        TargetRef::Classes(&labels),
                        &CrossEntropyLoss,
                        &mut sgd,
                    )
                    .expect("training step succeeds");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.set("kml-core.train_step_us", median(&steps));

        let (mut codec, mut package) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            let t = Instant::now();
            let bytes = kml_core::modelfile::encode(&model).expect("encodes");
            let mut m32 = kml_core::modelfile::decode::<f32>(black_box(&bytes)).expect("decodes");
            codec.push(t.elapsed().as_nanos() as f64 / 1e3);
            let t = Instant::now();
            black_box(save_model(self.spec.kind, &mut m32).expect("packages"));
            package.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        out.set("kml-core.codec_us", median(&codec));
        out.set("kml-lifecycle.package_us", median(&package));
        out.set(
            "kml-core.kernel_backend",
            kml_core::simd::kernel_backend().gauge_value() as f64,
        );

        // The quiescent per-window cost the continual loop adds to a tuner:
        // one reservoir offer plus one drift observation, timed 256 at a time.
        let mut reservoir = Reservoir::new(RESERVOIR, self.spec.seed);
        let mut detector = DriftDetector::new(
            RESERVOIR_DIM,
            DriftConfig {
                reference_windows: 6,
                block_windows: 6,
                threshold: 8.0,
                trigger_blocks: 2,
                abs_floor: 1.0,
            },
        );
        let mut id = 0u64;
        let observe: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..256 {
                    id += 1;
                    let jit = (id % 11) as f64 * 0.05;
                    let features = [0.0, 0.0, 14.2 + jit, 12.0 + jit, 0.0];
                    black_box(reservoir.offer(id, black_box(features), 0));
                    black_box(detector.observe(black_box(&features)));
                }
                t.elapsed().as_nanos() as f64 / 256.0
            })
            .collect();
        out.set("kml-continual.observe_ns", median(&observe));
    }
}
