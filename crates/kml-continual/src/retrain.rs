//! The background retrainer: reservoir samples → trained candidate →
//! `.kmlm` bytes, off the control-loop thread.
//!
//! [`train_candidate`] is the pure core — a deterministic function from
//! `(spec, token, samples)` to artifact bytes: one thread, full-batch
//! [`Model::train_batch`] steps, so the candidate bytes are the same at
//! `--threads 1/3/8`.
//!
//! [`BackgroundRetrainer`] hosts that function on the existing
//! [`AsyncTrainer`] machinery: samples stream through a
//! [`RingBuffer`] into the "kml-train" thread, a `Go` marker closes the
//! batch, and the artifact comes back through a shared result slot. The
//! producer side applies explicit backpressure (the ring overwrites on
//! overflow, which would silently corrupt the training set), so the
//! bytes produced are still a pure function of the samples sent —
//! threading moves wall-clock time around, never the output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kml_collect::ringbuf::RingBuffer;
use kml_collect::trainer::AsyncTrainer;
use kml_core::dataset::Normalizer;
use kml_core::loss::TargetRef;
use kml_core::modelfile;
use kml_core::prelude::*;
use kml_lifecycle::{save_model, ArtifactKind};
use kml_platform::threading::kml_idle_wait;
use kml_platform::Persona;

use crate::reservoir::{ReservoirSample, RESERVOIR_DIM};

/// What to train when drift fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrainSpec {
    /// Artifact kind the candidate is packaged as (fixes schema hash and
    /// feature naming at install time).
    pub kind: ArtifactKind,
    /// Output classes of the policy head.
    pub classes: usize,
    /// Full-batch epochs over the reservoir.
    pub epochs: u32,
    /// Base seed; the retrain token is folded in so successive candidates
    /// start from distinct (but deterministic) initializations.
    pub seed: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Trains a candidate from reservoir samples and packages it as `.kmlm`
/// bytes. Deterministic: same `(spec, token, samples)` in, same bytes
/// out.
///
/// # Errors
///
/// Returns a description when the sample set is empty or degenerate
/// (e.g. a label outside `spec.classes`) or when model building,
/// training, or encoding fails.
pub fn train_candidate(
    spec: &RetrainSpec,
    token: u64,
    samples: &[ReservoirSample],
) -> Result<Vec<u8>, String> {
    if samples.is_empty() {
        return Err("retrain with empty reservoir".into());
    }
    if let Some(bad) = samples.iter().find(|s| s.label >= spec.classes) {
        return Err(format!(
            "reservoir label {} out of range for {} classes",
            bad.label, spec.classes
        ));
    }
    // The reservoir staged straight into one row-major matrix.
    let flat: Vec<f64> = samples.iter().flat_map(|s| s.features).collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
    let features =
        Matrix::from_vec(samples.len(), RESERVOIR_DIM, flat).map_err(|e| e.to_string())?;
    let normalizer = Normalizer::fit(&features).map_err(|e| e.to_string())?;
    let normed = normalizer.apply(&features).map_err(|e| e.to_string())?;

    let mut model = ModelBuilder::readahead_paper_topology(RESERVOIR_DIM, spec.classes)
        .seed(spec.seed ^ token.wrapping_mul(GOLDEN))
        .build::<f64>()
        .map_err(|e| e.to_string())?;
    model.set_normalizer(normalizer);

    let mut sgd = Sgd::paper_defaults();
    for _ in 0..spec.epochs {
        model
            .train_batch(
                &normed,
                TargetRef::Classes(&labels),
                &CrossEntropyLoss,
                &mut sgd,
            )
            .map_err(|e| e.to_string())?;
    }

    // Serve in f32 like every deployed artifact: encode the f64 trainee,
    // re-decode at serving precision, then wrap in the .kmlm envelope.
    let f64_bytes = modelfile::encode(&model).map_err(|e| e.to_string())?;
    let mut m32 = modelfile::decode::<f32>(&f64_bytes).map_err(|e| e.to_string())?;
    save_model(spec.kind, &mut m32).map_err(|e| e.to_string())
}

/// Messages streamed to the training thread.
#[derive(Debug, Clone, Copy)]
enum RetrainMsg {
    /// One reservoir sample of the batch being staged.
    Sample(ReservoirSample),
    /// Close the staged batch and train. `count` cross-checks that every
    /// staged sample arrived.
    Go { token: u64, count: u32 },
}

type ResultSlot = Arc<Mutex<Option<(u64, Result<Vec<u8>, String>)>>>;

/// Hosts [`train_candidate`] on an [`AsyncTrainer`] thread.
pub struct BackgroundRetrainer {
    trainer: AsyncTrainer,
    producer: kml_collect::ringbuf::Producer<RetrainMsg>,
    /// Samples acknowledged by the training thread — producer-side
    /// backpressure so the ring never overwrites unread messages.
    accepted: Arc<AtomicU64>,
    sent: u64,
    capacity: usize,
    result: ResultSlot,
}

impl BackgroundRetrainer {
    /// Spawns the retrain thread under `persona` with the "kml-train"
    /// thread name (kernel persona makes it a kthread like the paper's
    /// in-kernel trainer).
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failures.
    pub fn spawn(persona: Persona, spec: RetrainSpec) -> kml_platform::Result<Self> {
        let ring = RingBuffer::<RetrainMsg>::with_capacity(1024);
        let capacity = 1024;
        let (producer, consumer) = ring.split();
        let accepted = Arc::new(AtomicU64::new(0));
        let result: ResultSlot = Arc::new(Mutex::new(None));
        let thread_accepted = accepted.clone();
        let thread_result = result.clone();
        let mut staged: Vec<ReservoirSample> = Vec::new();
        let trainer = AsyncTrainer::spawn(persona, consumer, move |batch: &[RetrainMsg]| {
            for msg in batch {
                match *msg {
                    RetrainMsg::Sample(s) => {
                        staged.push(s);
                        thread_accepted.fetch_add(1, Ordering::Release);
                    }
                    RetrainMsg::Go { token, count } => {
                        let outcome = if staged.len() == count as usize {
                            train_candidate(&spec, token, &staged)
                        } else {
                            Err(format!(
                                "staged {} samples but batch declared {count}",
                                staged.len()
                            ))
                        };
                        staged.clear();
                        *thread_result.lock().expect("result slot poisoned") =
                            Some((token, outcome));
                    }
                }
            }
        })?;
        Ok(BackgroundRetrainer {
            trainer,
            producer,
            accepted,
            sent: 0,
            capacity,
            result,
        })
    }

    /// Streams `samples` to the training thread, closes the batch, and
    /// waits for the candidate bytes. Wall-clock blocks; the returned
    /// bytes are a pure function of `(spec, token, samples)`.
    ///
    /// # Errors
    ///
    /// Propagates [`train_candidate`] failures.
    pub fn retrain_blocking(
        &mut self,
        token: u64,
        samples: &[ReservoirSample],
    ) -> Result<Vec<u8>, String> {
        let backpressure_at = (self.capacity - 2) as u64;
        let mut idle_polls = 0u32;
        for s in samples {
            while self.sent - self.accepted.load(Ordering::Acquire) >= backpressure_at {
                kml_idle_wait(&mut idle_polls);
            }
            idle_polls = 0;
            self.producer.push(RetrainMsg::Sample(*s));
            self.sent += 1;
        }
        self.producer.push(RetrainMsg::Go {
            token,
            count: samples.len() as u32,
        });
        loop {
            if let Some((done, outcome)) = self
                .result
                .lock()
                .expect("result slot poisoned")
                .take_if(|(done, _)| *done == token)
            {
                debug_assert_eq!(done, token);
                return outcome;
            }
            kml_idle_wait(&mut idle_polls);
        }
    }

    /// Total samples delivered to the training thread.
    pub fn samples_processed(&self) -> u64 {
        self.trainer.samples_processed()
    }

    /// Stops the training thread, draining anything still queued.
    ///
    /// # Errors
    ///
    /// Propagates thread-join failures.
    pub fn stop(self) -> kml_platform::Result<()> {
        self.trainer.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::Reservoir;

    fn spec() -> RetrainSpec {
        RetrainSpec {
            kind: ArtifactKind::Readahead,
            classes: 2,
            epochs: 20,
            seed: 0x5EED,
        }
    }

    fn filled_reservoir(n: u64) -> Reservoir {
        let mut r = Reservoir::new(96, 0xC0FFEE);
        for id in 0..n {
            // Two separable clusters so training has something to learn.
            let (base, label) = if id % 2 == 0 { (10.0, 0) } else { (500.0, 1) };
            let x = base + (id % 7) as f64;
            r.offer(id, [x, x * 2.0, x * 0.5, x + 3.0, 128.0], label);
        }
        r
    }

    #[test]
    fn train_candidate_is_deterministic_and_loadable() {
        let r = filled_reservoir(200);
        let a = train_candidate(&spec(), 1, r.samples()).expect("train");
        let b = train_candidate(&spec(), 1, r.samples()).expect("train again");
        assert_eq!(a, b, "same inputs must give byte-identical artifacts");
        let loaded =
            kml_lifecycle::load_model_for::<f32>(&a, ArtifactKind::Readahead).expect("load");
        assert_eq!(loaded.model.input_dim(), RESERVOIR_DIM);
        assert_eq!(loaded.model.output_dim(), 2);
    }

    /// The artifact for a fixed seeded reservoir, pinned as an FNV-1a of
    /// its bytes. Recorded on the commit before the training step was
    /// rewritten (column `matmul_transpose`, blocked softmax, one-pass
    /// activation backward); every kernel backend must reproduce it.
    #[test]
    fn train_candidate_artifact_matches_golden() {
        let r = filled_reservoir(200);
        let golden_spec = RetrainSpec {
            epochs: 300,
            ..spec()
        };
        let bytes = train_candidate(&golden_spec, 7, r.samples()).expect("train");
        let fnv = kml_platform::bytes::Fnv1a::of(&bytes);
        assert_eq!(
            fnv,
            0x5c41_a18e_644f_67f5,
            "artifact FNV-1a {fnv:#018x} over {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn distinct_tokens_give_distinct_candidates() {
        let r = filled_reservoir(200);
        let a = train_candidate(&spec(), 1, r.samples()).expect("train");
        let b = train_candidate(&spec(), 2, r.samples()).expect("train");
        assert_ne!(a, b, "the token folds into the init seed");
    }

    #[test]
    fn empty_and_bad_label_inputs_are_rejected() {
        assert!(train_candidate(&spec(), 1, &[]).is_err());
        let mut r = Reservoir::new(4, 1);
        r.offer(0, [1.0; RESERVOIR_DIM], 7);
        assert!(train_candidate(&spec(), 1, r.samples()).is_err());
    }

    #[test]
    fn background_matches_inline() {
        let r = filled_reservoir(200);
        let inline = train_candidate(&spec(), 3, r.samples()).expect("inline");
        let mut bg = BackgroundRetrainer::spawn(Persona::Kernel, spec()).expect("spawn");
        let first = bg.retrain_blocking(3, r.samples()).expect("background");
        assert_eq!(first, inline, "background path must not change the bytes");
        // A second cycle on the same retrainer reuses the thread cleanly.
        let second = bg.retrain_blocking(4, r.samples()).expect("second cycle");
        assert_ne!(second, first);
        assert_eq!(bg.samples_processed(), 2 * (r.len() as u64 + 1));
        bg.stop().expect("stop");
    }
}
