//! The DST harness: runs one seeded scenario end to end through the full
//! closed loop and checks every cross-layer invariant after every step.
//!
//! The stack under test is exactly the production wiring of
//! `readahead::closed_loop`: a [`Sim`] with telemetry and a tracepoint
//! ring attached, an LSM [`Db`] on top, and a [`KmlTuner`] draining the
//! ring and re-tuning readahead once per window — except the device
//! carries a seeded [`FaultPlan`] and the store is shadowed by a
//! `BTreeSet` reference model.

use crate::scenario::{FaultMask, Scenario, SeedStream};
use kernel_sim::sim::Advice;
use kernel_sim::{DeviceProfile, FaultPlan, FaultStats, FileId, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_continual::{
    train_candidate, ContinualConfig, ContinualController, DriftConfig, ReservoirSample,
    RetrainMode, RetrainSpec,
};
use kml_core::dataset::Dataset;
use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
use kml_core::model::ModelBuilder;
use kml_lifecycle::{
    save_model, ArtifactKind, LifecycleController, LifecycleEvent, LifecycleTarget, WatchdogConfig,
};
use kml_telemetry::Registry;
use kvstore::{Db, DbConfig};
use netfs::{NetProfile, NfsMount, RsizePolicy, RsizeTuner, RsizeTunerModel};
use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Readahead in force before the tuner's first decision, KiB.
const INITIAL_RA_KB: u32 = 128;
/// The two readahead settings the harness policy can actuate, KiB.
const POLICY_RA_KB: [u32; 2] = [16, 1024];
/// The two rsize settings the netfs harness policy can actuate, KiB.
const POLICY_RSIZE_KB: [u32; 2] = [1024, 64];
/// Events kept in a failure report (the tail of the run).
const TRACE_TAIL: usize = 16;

/// One step of the event trace: enough to diff two replays and to read a
/// failure's last moments, small enough to hash byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Step index.
    pub step: u64,
    /// Op discriminant (see `OP_NAMES`).
    pub op: u8,
    /// Key / page argument of the op.
    pub key: u64,
    /// Simulated clock after the op, ns.
    pub clock_ns: u64,
    /// 0 = ok/absent, 1 = ok/present, 2 = io error.
    pub code: u8,
}

/// Names for `Event::op`, index-aligned with the dispatch in `run_inner`
/// (`net_read`/`net_write` belong to `run_netfs_inner`; the `lc_*` codes
/// are emitted by lifecycle scenarios — and `lc_promote`/`lc_rollback`
/// also by continual scenarios, whose own arc events get the `ct_*`
/// codes — so pre-lifecycle trace hashes are untouched).
pub const OP_NAMES: [&str; 21] = [
    "put",
    "get",
    "scan",
    "scan_reverse",
    "seq_read",
    "rand_read",
    "flush",
    "compact",
    "sync",
    "drop_caches",
    "fadvise",
    "mmap_read",
    "net_read",
    "net_write",
    "lc_stage",
    "lc_install",
    "lc_corrupt",
    "lc_promote",
    "lc_rollback",
    "ct_drift",
    "ct_retrain",
];

/// `Event::op` codes for the scripted lifecycle events.
const OP_LC_STAGE: u8 = 14;
const OP_LC_INSTALL: u8 = 15;
const OP_LC_CORRUPT: u8 = 16;
const OP_LC_PROMOTE: u8 = 17;
const OP_LC_ROLLBACK: u8 = 18;
/// `Event::op` codes for the continual loop's arc events.
const OP_CT_DRIFT: u8 = 19;
const OP_CT_RETRAIN: u8 = 20;

/// Everything a passing run proves, plus the fingerprint replays must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// FNV-1a over every event field, in order.
    pub trace_hash: u64,
    /// Steps executed (the scenario's `ops`).
    pub steps: u64,
    /// Ops that surfaced an injected I/O error (gracefully).
    pub io_errors: u64,
    /// What the fault layer actually injected.
    pub injected: FaultStats,
    /// Tuner decisions taken.
    pub decisions: u64,
    /// Tracepoint records lost to ring overwrites.
    pub ring_dropped: u64,
    /// Shadow promotions the lifecycle watchdog executed (lifecycle
    /// scenarios; 0 otherwise).
    pub promotions: u64,
    /// Rollbacks the lifecycle watchdog executed (lifecycle scenarios;
    /// 0 otherwise).
    pub rollbacks: u64,
    /// Drift triggers the continual detector fired (continual scenarios;
    /// 0 otherwise).
    pub drift_events: u64,
    /// Reservoir retrains the continual controller ran (continual
    /// scenarios; 0 otherwise).
    pub retrains: u64,
}

/// A caught invariant violation, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The scenario that failed.
    pub scenario: Scenario,
    /// Step at which the invariant broke (`scenario.ops` = final sweep).
    pub step: u64,
    /// Which invariant ("I1.lsm-vs-reference", "I2.cache-accounting", …).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// The last [`TRACE_TAIL`] events before the violation.
    pub trace_tail: Vec<Event>,
}

impl FailureReport {
    /// The shell line that replays this failure deterministically.
    pub fn reproducer(&self) -> String {
        let mut line = format!(
            "KML_DST_SEED=0x{:016x} KML_DST_OPS={}",
            self.scenario.seed, self.scenario.ops
        );
        let disabled = self.scenario.disabled.to_env();
        if !disabled.is_empty() {
            line.push_str(&format!(" KML_DST_DISABLE={disabled}"));
        }
        if self.scenario.lsm_bug {
            line.push_str(" KML_DST_LSM_BUG=1");
        }
        if self.scenario.netfs {
            line.push_str(" KML_DST_NETFS=1");
        }
        if self.scenario.lifecycle {
            line.push_str(" KML_DST_LIFECYCLE=1");
        }
        if self.scenario.continual {
            line.push_str(" KML_DST_CONTINUAL=1");
        }
        line.push_str(" cargo test -p kml-dst replays_reproducer_from_env");
        line
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "DST invariant {} violated at step {} (seed 0x{:016x})",
            self.invariant, self.step, self.scenario.seed
        )?;
        writeln!(f, "  {}", self.detail)?;
        for e in &self.trace_tail {
            writeln!(
                f,
                "  step {:>6}  {:<12} key={:<6} code={} t={}ns",
                e.step, OP_NAMES[e.op as usize], e.key, e.code, e.clock_ns
            )?;
        }
        write!(f, "  reproduce: {}", self.reproducer())
    }
}

/// Result of one scenario run.
#[derive(Debug)]
pub enum Outcome {
    /// All invariants held for every step.
    Pass(RunSummary),
    /// An invariant broke (boxed: the report carries the trace tail).
    Fail(Box<FailureReport>),
}

impl Outcome {
    /// Whether the run passed.
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass(_))
    }
}

fn fnv1a(hash: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The tiniest model that exercises the real inference path: a two-leaf
/// tree fit on two hand-rows (class 0 = sequential-looking windows →
/// large readahead, class 1 = random-looking → small). The DST harness
/// validates the *loop*, not the model's accuracy, so fitting the paper
/// network here would only add minutes per scenario.
fn harness_model() -> TunerModel {
    let dataset = Dataset::from_rows(
        &[
            vec![1.0, 0.0, 0.0, 1000.0, 128.0],
            vec![1.0, 0.0, 0.0, 1.0, 128.0],
        ],
        &[0, 1],
    )
    .expect("two fixed rows always form a dataset");
    let tree = DecisionTree::fit(&dataset, DecisionTreeConfig::default())
        .expect("two-row dataset always fits");
    TunerModel::Tree(tree)
}

/// Watchdog tuning for the lifecycle script: small window counts so a
/// 400-op scenario has room for a full stage → promote → regress →
/// rollback arc at any seeded observation cadence.
fn lifecycle_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        baseline_windows: 2,
        promote_after: 3,
        regress_windows: 2,
        regress_ratio: 0.85,
    }
}

/// A seeded, untrained `.kmlm` artifact for `kind`. The DST harness
/// validates the lifecycle *machinery* — staging, promotion, rollback
/// atomicity — not model quality, so an arbitrary seeded network with the
/// right feature schema and class count is exactly enough.
fn lifecycle_artifact(kind: ArtifactKind, classes: usize, seed: u64) -> Vec<u8> {
    let mut model = ModelBuilder::readahead_paper_topology(kind.feature_names().len(), classes)
        .seed(seed)
        .build::<f32>()
        .expect("seeded untrained model always builds");
    save_model(kind, &mut model).expect("fresh model always serialises")
}

/// The scripted lifecycle events of a lifecycle scenario, plus the state
/// for invariants I11–I13. Generic over the swap target so the same
/// script drives the readahead loop (device faults) and the netfs rsize
/// loop (network faults).
struct LifecycleScript {
    controller: LifecycleController,
    p: crate::scenario::LifecycleParams,
    shadow_artifact: Vec<u8>,
    regress_artifact: Vec<u8>,
    corrupt_artifact: Vec<u8>,
    do_shadow: bool,
    do_regress: bool,
    do_corrupt: bool,
    staged: bool,
    regressed: bool,
    corrupted: bool,
    regressed_gen: Option<u64>,
    windows_on_regressed: u64,
    /// Every generation ever installed into the target — a decision
    /// tagged with anything else means the shadow (or a torn install)
    /// actuated (I12).
    installed_gens: Vec<u64>,
    /// Decisions already checked against `installed_gens`.
    decision_cursor: usize,
    promotions: u64,
    rollbacks: u64,
}

/// `(op, key, code)` trace triples emitted by a lifecycle step, or the
/// invariant an event exposed plus its detail line.
type LifecycleStepResult = Result<Vec<(u8, u64, u8)>, (&'static str, String)>;

impl LifecycleScript {
    fn new<T: LifecycleTarget>(
        scenario: &Scenario,
        target: &mut T,
        kind: ArtifactKind,
        classes: usize,
    ) -> Result<Self, kml_lifecycle::ArtifactError> {
        let p = scenario.lifecycle_params();
        let controller = LifecycleController::new(
            lifecycle_watchdog(),
            target,
            lifecycle_artifact(kind, classes, p.initial_seed),
        )?;
        let shadow_artifact = lifecycle_artifact(kind, classes, p.shadow_seed);
        let mut corrupt_artifact = shadow_artifact.clone();
        let flip = corrupt_artifact.len() / 2;
        corrupt_artifact[flip] ^= 0xA5;
        Ok(LifecycleScript {
            controller,
            p,
            shadow_artifact,
            regress_artifact: lifecycle_artifact(kind, classes, p.regress_seed),
            corrupt_artifact,
            do_shadow: !scenario.disabled.contains(FaultMask::LC_SHADOW),
            do_regress: !scenario.disabled.contains(FaultMask::LC_REGRESS),
            do_corrupt: !scenario.disabled.contains(FaultMask::LC_CORRUPT),
            staged: false,
            regressed: false,
            corrupted: false,
            regressed_gen: None,
            windows_on_regressed: 0,
            installed_gens: vec![1],
            decision_cursor: 0,
            promotions: 0,
            rollbacks: 0,
        })
    }

    /// Runs this step's scripted events against `target`. Returns the
    /// events to record as `(op, key, code)` triples, or the invariant
    /// violation they exposed.
    fn on_step<T: LifecycleTarget>(&mut self, target: &mut T, step: u64) -> LifecycleStepResult {
        let mut out = Vec::new();
        if self.do_corrupt && !self.corrupted && step == self.p.corrupt_step {
            self.corrupted = true;
            let gen_before = target.generation();
            if target
                .install_artifact(&self.corrupt_artifact, gen_before + 1000)
                .is_ok()
            {
                return Err((
                    "I13.artifact-atomic",
                    "a corrupted artifact was accepted".to_string(),
                ));
            }
            if target.generation() != gen_before {
                return Err((
                    "I13.artifact-atomic",
                    format!(
                        "a failed install moved the generation {gen_before} -> {}",
                        target.generation()
                    ),
                ));
            }
            out.push((OP_LC_CORRUPT, gen_before, 2));
        }
        if self.do_shadow && !self.staged && step == self.p.stage_step {
            self.staged = true;
            let gen_before = target.generation();
            self.controller
                .stage_shadow(target, self.shadow_artifact.clone())
                .map_err(|e| {
                    (
                        "I13.artifact-atomic",
                        format!("staging a valid shadow failed: {e:?}"),
                    )
                })?;
            if target.generation() != gen_before {
                return Err((
                    "I12.shadow-never-actuates",
                    "staging a shadow changed the active generation".to_string(),
                ));
            }
            out.push((OP_LC_STAGE, 0, 0));
        }
        if self.do_regress && !self.regressed && step == self.p.regress_step {
            self.regressed = true;
            let generation = self
                .controller
                .install(target, self.regress_artifact.clone())
                .map_err(|e| {
                    (
                        "I13.artifact-atomic",
                        format!("installing a valid artifact failed: {e:?}"),
                    )
                })?;
            self.regressed_gen = Some(generation);
            self.installed_gens.push(generation);
            out.push((OP_LC_INSTALL, generation, 0));
        }
        if (step + 1).is_multiple_of(self.p.observe_every) {
            // Stub models do not differ in real loop quality, so the
            // regression signal is scripted: the regressed generation
            // settles its own (lower) baseline over the warmup windows,
            // then collapses below the watchdog's regress ratio.
            let throughput = if self.regressed_gen == Some(self.controller.generation()) {
                self.windows_on_regressed += 1;
                if self.windows_on_regressed <= u64::from(lifecycle_watchdog().baseline_windows) {
                    600.0
                } else {
                    300.0
                }
            } else {
                1000.0
            };
            match self.controller.observe_window(target, throughput) {
                Ok(None) => {}
                Ok(Some(LifecycleEvent::Promoted { to, .. })) => {
                    self.installed_gens.push(to);
                    self.promotions += 1;
                    out.push((OP_LC_PROMOTE, to, 0));
                }
                Ok(Some(LifecycleEvent::RolledBack { to, .. })) => {
                    self.rollbacks += 1;
                    if target.generation() != to {
                        return Err((
                            "I11.swap-atomic",
                            format!(
                                "rollback restored generation {to} but the loop holds {}",
                                target.generation()
                            ),
                        ));
                    }
                    out.push((OP_LC_ROLLBACK, to, 0));
                }
                Err(e) => {
                    return Err((
                        "I13.artifact-atomic",
                        format!("a watchdog-driven install failed: {e:?}"),
                    ))
                }
            }
        }
        // I11: the loop is never left actuating a generation the
        // controller does not consider active.
        if target.generation() != self.controller.generation() {
            return Err((
                "I11.swap-atomic",
                format!(
                    "loop serves generation {} but the controller holds {}",
                    target.generation(),
                    self.controller.generation()
                ),
            ));
        }
        Ok(out)
    }

    /// I12 bookkeeping: every decision generation in `new_decisions`
    /// (this step's suffix of the tuner's decision log) must have been
    /// installed — a shadow candidate has no generation, so a shadow that
    /// actuated shows up here.
    fn check_decisions(&mut self, generations: impl Iterator<Item = u64>) -> Result<(), String> {
        for generation in generations {
            if !self.installed_gens.contains(&generation) {
                return Err(format!(
                    "a decision is tagged with never-installed generation {generation}"
                ));
            }
        }
        Ok(())
    }
}

/// Drift tuning for the continual loop: reference and block windows small
/// enough that a sweep-sized run completes the full reference → trigger →
/// retrain → shadow → promotion arc, with a threshold high enough that
/// the *stationary* op mix (whose window features vary plenty) never
/// trips it — the no-drift control leans on exactly that.
fn continual_drift() -> DriftConfig {
    DriftConfig {
        reference_windows: 6,
        block_windows: 8,
        threshold: 3.0,
        trigger_blocks: 3,
        abs_floor: 1.0,
    }
}

/// Windows dropped before the controller starts observing: the first few
/// windows after boot are cache-warmup transients whose features sit far
/// from the steady mix, and a reference contaminated by them reads the
/// settling *as* drift — the no-drift control must never do that.
const CT_WARMUP_WINDOWS: u32 = 4;

/// Log-compressed features for the continual loop's detector, reservoir,
/// and model. The raw window features span orders of magnitude and their
/// window-to-window variance under the mixed op stream is enormous (a
/// window can be db-heavy or aux-heavy), which drowns the workload shift
/// in reference noise *and* lets warmup phases fire spurious triggers.
/// In log space the mix variance is a few bits while the workload pivot
/// moves the offset channels by several bits — cleanly separable.
/// The trailing knob channel stays raw (it is excluded from drift).
fn continual_features(raw: &[f64; 5]) -> [f64; 5] {
    [
        (1.0 + raw[0]).log2(),
        (1.0 + raw[1]).log2(),
        (1.0 + raw[2]).log2(),
        (1.0 + raw[3]).log2(),
        raw[4],
    ]
}

/// The initial (generation 1) artifact for a continual scenario: trained
/// through the same `train_candidate` packaging path the live retrainer
/// uses, on a seeded random-phase cluster (in the same log-feature space
/// the loop serves) labeled class 0, so pre-shift windows actuate the
/// small readahead and the shift genuinely hurts.
fn continual_initial_artifact(p: &crate::scenario::ContinualParams) -> Result<Vec<u8>, String> {
    let mut samples = Vec::with_capacity(32);
    for j in 0..32u64 {
        let jit = |k: u64| ((j * 7 + k) % 11) as f64 * 0.1;
        let raw = [80.0, 2.0e4, 1.8e4, 5.0e2, f64::from(INITIAL_RA_KB)];
        let mut features = continual_features(&raw);
        for (k, f) in features.iter_mut().take(4).enumerate() {
            *f += jit(k as u64);
        }
        samples.push(ReservoirSample {
            id: j,
            priority: 0,
            features,
            label: 0,
        });
    }
    train_candidate(
        &RetrainSpec {
            kind: ArtifactKind::Readahead,
            classes: POLICY_RA_KB.len(),
            epochs: 40,
            seed: p.initial_seed,
        },
        0,
        &samples,
    )
}

/// The live continual loop of a continual scenario, plus the bookkeeping
/// for invariants I14–I16.
struct ContinualScript {
    controller: ContinualController,
    /// Step at which the op mix pivots to the sequential scan.
    shift_step: u64,
    /// Whether the shift actually happens (`ct_shift` not disabled —
    /// disabled turns the run into its own no-drift control).
    shift_enabled: bool,
    capacity: usize,
    /// Every generation ever installed into the tuner; a decision tagged
    /// with anything else means a candidate actuated before promotion.
    installed_gens: Vec<u64>,
    decision_cursor: usize,
    /// Warmup windows left to drop before the controller observes.
    warmup_left: u32,
    /// Running totals for un-cumulating the extractor's offset channels
    /// (which accumulate over the whole run): records seen, Σoffset, and
    /// Σoffset² up to the previous window.
    total_records: f64,
    sum_offset: f64,
    sum_offset2: f64,
}

impl ContinualScript {
    fn new(scenario: &Scenario, tuner: &mut KmlTuner) -> Result<Self, String> {
        let p = scenario.continual_params();
        let cfg = ContinualConfig {
            drift: continual_drift(),
            reservoir_capacity: p.reservoir_capacity,
            seed: p.retrain_seed ^ 0x5EED,
            min_samples: 8,
            watchdog: lifecycle_watchdog(),
            spec: RetrainSpec {
                kind: ArtifactKind::Readahead,
                classes: POLICY_RA_KB.len(),
                epochs: 40,
                seed: p.retrain_seed,
            },
        };
        let initial = continual_initial_artifact(&p)?;
        let controller = ContinualController::new(cfg, tuner, initial, RetrainMode::Inline)
            .map_err(|e| e.to_string())?;
        Ok(ContinualScript {
            controller,
            shift_step: scenario.ops * p.shift_pct / 100,
            shift_enabled: !scenario.disabled.contains(FaultMask::CT_SHIFT),
            capacity: p.reservoir_capacity,
            installed_gens: vec![1],
            decision_cursor: 0,
            warmup_left: CT_WARMUP_WINDOWS,
            total_records: 0.0,
            sum_offset: 0.0,
            sum_offset2: 0.0,
        })
    }

    /// The drift/reservoir feature vector for one window. The extractor's
    /// mean/std offset channels are *cumulative* over the whole run, so a
    /// step change in the workload only shows up as an asymptotic ramp
    /// there; this un-cumulates them via running Σoffset / Σoffset²
    /// totals, recovering the genuinely per-window mean and std the
    /// detector needs to see the pivot as a step. Everything then goes
    /// through the log compression of [`continual_features`].
    fn window_phi(&mut self, raw: &[f64; 5]) -> [f64; 5] {
        let n = raw[0];
        let (w_mean, w_std) = if n > 0.0 {
            let total = self.total_records + n;
            let sum = raw[1] * total;
            let sum2 = (raw[2] * raw[2] + raw[1] * raw[1]) * total;
            let wm = (sum - self.sum_offset) / n;
            let we2 = (sum2 - self.sum_offset2) / n;
            let ws = (we2 - wm * wm).max(0.0).sqrt();
            self.total_records = total;
            self.sum_offset = sum;
            self.sum_offset2 = sum2;
            (wm.max(0.0), ws)
        } else {
            (0.0, 0.0)
        };
        continual_features(&[n, w_mean, w_std, raw[3], raw[4]])
    }
}

/// Runs `scenario`, converting any panic into an `I5.no-panic` failure.
/// All state is built fresh from the seed inside the call, so replays are
/// byte-identical regardless of what other tests (or threads) are doing.
pub fn run(scenario: &Scenario) -> Outcome {
    let scenario = *scenario;
    let inner = move || {
        if scenario.netfs {
            run_netfs_inner(&scenario)
        } else {
            run_inner(&scenario)
        }
    };
    match catch_unwind(AssertUnwindSafe(inner)) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Fail(Box::new(FailureReport {
                scenario,
                step: 0,
                invariant: "I5.no-panic",
                detail: format!("panicked: {msg}"),
                trace_tail: Vec::new(),
            }))
        }
    }
}

struct Harness {
    sim: Sim,
    db: Db,
    reference: BTreeSet<u64>,
    tuner: KmlTuner,
    consumed_total: kml_telemetry::Counter,
    aux: FileId,
    aux_pages: u64,
    key_space: u64,
    events: Vec<Event>,
    trace_hash: u64,
    io_errors: u64,
    prev_clock: u64,
    seq_cursor: u64,
}

impl Harness {
    fn record(&mut self, step: u64, op: u8, key: u64, code: u8) {
        let e = Event {
            step,
            op,
            key,
            clock_ns: self.sim.now_ns(),
            code,
        };
        fnv1a(&mut self.trace_hash, e.step);
        fnv1a(&mut self.trace_hash, u64::from(e.op));
        fnv1a(&mut self.trace_hash, e.key);
        fnv1a(&mut self.trace_hash, e.clock_ns);
        fnv1a(&mut self.trace_hash, u64::from(e.code));
        if e.code == 2 {
            self.io_errors += 1;
        }
        self.events.push(e);
    }

    fn fail(
        &self,
        scenario: &Scenario,
        step: u64,
        invariant: &'static str,
        detail: String,
    ) -> Outcome {
        let tail_from = self.events.len().saturating_sub(TRACE_TAIL);
        Outcome::Fail(Box::new(FailureReport {
            scenario: *scenario,
            step,
            invariant,
            detail,
            trace_tail: self.events[tail_from..].to_vec(),
        }))
    }

    /// Checks I1 (probe), I2, I3, I4, I5 after one step. `Ok(())` means
    /// all held.
    // The Err arm carries the full Outcome so the caller can return it
    // verbatim; it is terminal (one per run), so its size doesn't matter.
    #[allow(clippy::result_large_err)]
    fn check_invariants(&mut self, scenario: &Scenario, step: u64) -> Result<(), Outcome> {
        // I4 first: the ring reconciles exactly while the tuner has it
        // drained (the probe below emits fresh records, which the *next*
        // step's drain will pick up).
        let emitted = self.sim.trace_emitted();
        let consumed = self.consumed_total.get();
        let dropped = self.tuner.records_dropped();
        if emitted != consumed + dropped {
            return Err(self.fail(
                scenario,
                step,
                "I4.ring-reconciles",
                format!("emitted={emitted} != consumed={consumed} + dropped={dropped}"),
            ));
        }
        // I1: a rotating probe key read back through the full stack must
        // agree with the reference model (errored probes are inconclusive —
        // the device refused, nothing was *wrong*).
        let probe = (step.wrapping_mul(7919) ^ scenario.seed) % self.key_space;
        if let Ok(found) = self.db.get(&mut self.sim, probe) {
            let expected = self.reference.contains(&probe);
            if found != expected {
                return Err(self.fail(
                    scenario,
                    step,
                    "I1.lsm-vs-reference",
                    format!("probe key {probe}: store says {found}, reference says {expected}"),
                ));
            }
        }
        // I2: cache accounting under squeezes and failed writebacks.
        let (len, dirty, cap) = (
            self.sim.cache_len(),
            self.sim.cache_dirty(),
            self.sim.cache_capacity(),
        );
        if len > cap || dirty > len {
            return Err(self.fail(
                scenario,
                step,
                "I2.cache-accounting",
                format!("cache len={len} dirty={dirty} capacity={cap}"),
            ));
        }
        // I3: the actuated readahead is always one the policy can produce.
        let ra = self.tuner.current_ra_kb();
        if ra != INITIAL_RA_KB && !POLICY_RA_KB.contains(&ra) {
            return Err(self.fail(
                scenario,
                step,
                "I3.ra-clamped",
                format!("tuner holds {ra} KiB, policy allows {POLICY_RA_KB:?} or {INITIAL_RA_KB}"),
            ));
        }
        // I5: the clock never runs backwards (even when an op fails, the
        // time its attempt consumed must stand).
        let now = self.sim.now_ns();
        if now < self.prev_clock {
            return Err(self.fail(
                scenario,
                step,
                "I5.clock-monotone",
                format!("clock went from {} to {now}", self.prev_clock),
            ));
        }
        self.prev_clock = now;
        Ok(())
    }
}

fn run_inner(scenario: &Scenario) -> Outcome {
    let p = scenario.params();
    let mut sim = Sim::new(SimConfig {
        device: p.device,
        cache_pages: p.cache_pages,
        default_ra_kb: INITIAL_RA_KB,
        ..SimConfig::default()
    });
    let registry = Registry::new();
    sim.attach_telemetry(&registry);
    let (producer, mut consumer) = RingBuffer::with_capacity(p.ring_capacity).split();
    sim.attach_trace(producer);
    consumer.attach_telemetry(&registry, "kml_collect.ring");
    let consumed_total = registry.counter("kml_collect.ring.consumed_total");

    // Fault-free fill: even keys present, odd keys absent.
    let mut db = Db::create(
        &mut sim,
        DbConfig {
            memtable_keys: p.memtable_keys,
            l0_compaction_trigger: p.l0_trigger,
            ..DbConfig::default()
        },
    );
    let fill: Vec<u64> = (0..p.key_space).step_by(2).collect();
    let reference: BTreeSet<u64> = fill.iter().copied().collect();
    db.bulk_load(&mut sim, fill).expect("fault-free fill");
    sim.drop_caches().expect("fault-free drop_caches");
    let aux_pages = 1 << 16;
    let aux = sim.create_file(aux_pages);

    // Continual scenarios use their own (longer) window so each window
    // averages the whole op mix — the drift detector then sees the
    // workload pivot as a step, not per-window mix noise.
    let window_ns = if scenario.continual {
        scenario.continual_params().window_ns
    } else {
        p.window_ns
    };
    let tuner = KmlTuner::new(
        harness_model(),
        RaPolicy::new(POLICY_RA_KB.to_vec()),
        consumer,
        window_ns,
        INITIAL_RA_KB,
    );

    // Everything after this line runs under fire.
    sim.set_fault_plan(Some(FaultPlan::new(p.faults)));
    if scenario.lsm_bug {
        db.set_dst_bug_lose_failed_flush(true);
    }

    let mut h = Harness {
        prev_clock: sim.now_ns(),
        sim,
        db,
        reference,
        tuner,
        consumed_total,
        aux,
        aux_pages,
        key_space: p.key_space,
        events: Vec::with_capacity(scenario.ops as usize + 1),
        trace_hash: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
        io_errors: 0,
        seq_cursor: 0,
    };
    // The scripted-lifecycle and continual paths both own the tuner's
    // install surface, so a continual scenario runs without the script
    // (its controller drives the same `LifecycleController` machinery).
    let mut lifecycle = if scenario.lifecycle && !scenario.continual {
        match LifecycleScript::new(
            scenario,
            &mut h.tuner,
            ArtifactKind::Readahead,
            POLICY_RA_KB.len(),
        ) {
            Ok(script) => Some(script),
            Err(e) => {
                return h.fail(
                    scenario,
                    0,
                    "I13.artifact-atomic",
                    format!("the initial artifact install failed: {e:?}"),
                )
            }
        }
    } else {
        None
    };
    let mut continual = if scenario.continual {
        match ContinualScript::new(scenario, &mut h.tuner) {
            Ok(script) => Some(script),
            Err(e) => {
                return h.fail(
                    scenario,
                    0,
                    "I13.artifact-atomic",
                    format!("the initial continual artifact failed: {e}"),
                )
            }
        }
    } else {
        None
    };
    let mut ops = SeedStream::new(scenario.seed, 0x0B5);

    for step in 0..scenario.ops {
        let roll = ops.range(0, 100);
        // The continual workload shift: past the seed-derived pivot the
        // mix collapses onto the sequential scan (plus the untouched
        // maintenance tail), and the scan moves to the far half of the
        // aux file — the windowed offset distribution steps cleanly.
        let shifted = matches!(&continual,
            Some(ct) if ct.shift_enabled && step >= ct.shift_step);
        let roll = if shifted && !(85..97).contains(&roll) {
            70
        } else {
            roll
        };
        let key = ops.range(0, h.key_space);
        let (op, code) = match roll {
            0..=29 => {
                // Put: accepted ⇒ the reference learns it, rejected ⇒ it
                // must be as if it never happened.
                match h.db.put(&mut h.sim, key) {
                    Ok(()) => {
                        h.reference.insert(key);
                        (0, 1)
                    }
                    Err(_) => (0, 2),
                }
            }
            30..=54 => match h.db.get(&mut h.sim, key) {
                Ok(found) => {
                    let expected = h.reference.contains(&key);
                    if found != expected {
                        h.record(step, 1, key, u8::from(found));
                        return h.fail(
                            scenario,
                            step,
                            "I1.lsm-vs-reference",
                            format!("get({key}) = {found}, reference says {expected}"),
                        );
                    }
                    (1, u8::from(found))
                }
                Err(_) => (1, 2),
            },
            55..=62 => {
                let limit = 1 + (ops.range(0, 32) as usize);
                match h.db.scan(&mut h.sim, key, limit) {
                    Ok(visited) => {
                        let expected = h.reference.range(key..).take(limit).count();
                        if visited != expected {
                            h.record(step, 2, key, 0);
                            return h.fail(
                                scenario,
                                step,
                                "I1.lsm-vs-reference",
                                format!(
                                    "scan({key}, {limit}) visited {visited}, reference has {expected}"
                                ),
                            );
                        }
                        (2, 0)
                    }
                    Err(_) => (2, 2),
                }
            }
            63..=67 => {
                let limit = 1 + (ops.range(0, 32) as usize);
                match h.db.scan_reverse(&mut h.sim, key, limit) {
                    Ok(visited) => {
                        let expected = h.reference.range(..=key).rev().take(limit).count();
                        if visited != expected {
                            h.record(step, 3, key, 0);
                            return h.fail(
                                scenario,
                                step,
                                "I1.lsm-vs-reference",
                                format!(
                                    "scan_reverse({key}, {limit}) visited {visited}, reference has {expected}"
                                ),
                            );
                        }
                        (3, 0)
                    }
                    Err(_) => (3, 2),
                }
            }
            68..=77 => {
                let n = 4 + ops.range(0, 4);
                let page = h.seq_cursor;
                h.seq_cursor = (h.seq_cursor + n) % (h.aux_pages - 8);
                // Draw order and cursor arithmetic are untouched by the
                // shift — only where the scan actually lands moves.
                let page = if shifted {
                    h.aux_pages / 2 + page % (h.aux_pages / 2 - 8)
                } else {
                    page
                };
                match h.sim.read(h.aux, page, n) {
                    Ok(_) => (4, 0),
                    Err(_) => (4, 2),
                }
            }
            78..=83 => {
                let page = ops.range(0, h.aux_pages - 4);
                match h.sim.read(h.aux, page, 1 + ops.range(0, 3)) {
                    Ok(_) => (5, 0),
                    Err(_) => (5, 2),
                }
            }
            84..=87 => match h.db.flush(&mut h.sim) {
                Ok(()) => (6, 0),
                Err(_) => (6, 2),
            },
            88..=90 => match h.db.compact(&mut h.sim) {
                Ok(()) => (7, 0),
                Err(_) => (7, 2),
            },
            91..=92 => match h.sim.sync() {
                Ok(()) => (8, 0),
                Err(_) => (8, 2),
            },
            93..=94 => match h.sim.drop_caches() {
                Ok(()) => (9, 0),
                Err(_) => (9, 2),
            },
            95..=96 => {
                let advice = match ops.range(0, 3) {
                    0 => Advice::Sequential,
                    1 => Advice::Random,
                    _ => Advice::Normal,
                };
                match h.sim.fadvise(h.aux, advice) {
                    Ok(_) => (10, 0),
                    Err(_) => (10, 2),
                }
            }
            _ => {
                let page = ops.range(0, h.aux_pages);
                match h.sim.mmap_read(h.aux, page) {
                    Ok(_) => (11, 0),
                    Err(_) => (11, 2),
                }
            }
        };
        h.record(step, op, key, code);

        // The closed loop's per-op hook: drain tracepoints, maybe retune.
        // Continual scenarios drive the window explicitly — lifecycle
        // observation first, then the (possibly just-promoted) model's
        // decision, so every post-promotion decision carries the new
        // generation.
        if let Some(ct) = continual.as_mut() {
            if let Some(features) = h.tuner.poll_window(&mut h.sim) {
                let label = KmlTuner::heuristic_class(&features);
                let phi = ct.window_phi(&features);
                // Warmup windows still feed the un-cumulation totals and
                // still get a decision below — the controller just does
                // not observe them, so cache-warmup transients can't
                // contaminate the drift reference.
                let observed = if ct.warmup_left > 0 {
                    ct.warmup_left -= 1;
                    None
                } else {
                    match ct
                        .controller
                        .observe_window(&mut h.tuner, &phi, label, 1000.0)
                    {
                        Ok(out) => Some(out),
                        Err(e) => {
                            return h.fail(
                                scenario,
                                step,
                                "I13.artifact-atomic",
                                format!("continual window failed: {e}"),
                            )
                        }
                    }
                };
                if let Some(out) = &observed {
                    // I14: a retrain can only ever ride a drift trigger.
                    if out.retrained && !out.drifted {
                        return h.fail(
                            scenario,
                            step,
                            "I14.retrain-only-on-drift",
                            "a retrain ran on a drift-free window".to_string(),
                        );
                    }
                    if out.drifted {
                        h.record(step, OP_CT_DRIFT, ct.controller.windows(), 0);
                    }
                    if out.retrained {
                        h.record(step, OP_CT_RETRAIN, ct.controller.retrains(), 0);
                    }
                    match out.lifecycle {
                        Some(LifecycleEvent::Promoted { to, .. }) => {
                            ct.installed_gens.push(to);
                            h.record(step, OP_LC_PROMOTE, to, 0);
                        }
                        Some(LifecycleEvent::RolledBack { to, .. }) => {
                            ct.installed_gens.push(to);
                            h.record(step, OP_LC_ROLLBACK, to, 0);
                        }
                        None => {}
                    }
                }
                let class = match h.tuner.predict_active(&phi) {
                    Ok(class) => class,
                    Err(e) => {
                        return h.fail(
                            scenario,
                            step,
                            "I5.no-panic",
                            format!("continual predict failed: {e:?}"),
                        )
                    }
                };
                h.tuner.apply_class(&mut h.sim, class);
                // I16: reservoir accounting — one unique offer per window
                // means the fill level is a pure function of the window
                // count and the capacity.
                let (len, windows) = (ct.controller.reservoir_len(), ct.controller.windows());
                if len as u64 != windows.min(ct.capacity as u64) {
                    return h.fail(
                        scenario,
                        step,
                        "I16.reservoir-deterministic",
                        format!(
                            "reservoir holds {len} samples after {windows} windows (capacity {})",
                            ct.capacity
                        ),
                    );
                }
            }
            // I15: the loop never serves a generation that was not
            // installed (a staged candidate has none), and the tuner and
            // controller always agree on the active one.
            if h.tuner.model_generation() != ct.controller.generation() {
                return h.fail(
                    scenario,
                    step,
                    "I15.candidate-never-actuates",
                    format!(
                        "loop serves generation {} but the controller holds {}",
                        h.tuner.model_generation(),
                        ct.controller.generation()
                    ),
                );
            }
            let decisions = h.tuner.decisions();
            for d in &decisions[ct.decision_cursor..] {
                if !ct.installed_gens.contains(&d.generation) {
                    return h.fail(
                        scenario,
                        step,
                        "I15.candidate-never-actuates",
                        format!(
                            "a decision is tagged with never-installed generation {}",
                            d.generation
                        ),
                    );
                }
            }
            ct.decision_cursor = decisions.len();
        } else if let Err(e) = h.tuner.on_op(&mut h.sim) {
            return h.fail(
                scenario,
                step,
                "I5.no-panic",
                format!("tuner failed: {e:?}"),
            );
        }
        if let Err(outcome) = h.check_invariants(scenario, step) {
            return outcome;
        }
        if let Some(script) = lifecycle.as_mut() {
            let knob_before = h.tuner.current_ra_kb();
            let events = match script.on_step(&mut h.tuner, step) {
                Ok(events) => events,
                Err((invariant, detail)) => return h.fail(scenario, step, invariant, detail),
            };
            let staged_now = events.iter().any(|(op, _, _)| *op == OP_LC_STAGE);
            for (op, key, code) in events {
                h.record(step, op, key, code);
            }
            if staged_now && h.tuner.current_ra_kb() != knob_before {
                return h.fail(
                    scenario,
                    step,
                    "I12.shadow-never-actuates",
                    format!(
                        "staging a shadow moved readahead {knob_before} -> {} KiB",
                        h.tuner.current_ra_kb()
                    ),
                );
            }
            let decisions = h.tuner.decisions();
            let fresh = decisions[script.decision_cursor..]
                .iter()
                .map(|d| d.generation);
            if let Err(detail) = script.check_decisions(fresh) {
                return h.fail(scenario, step, "I12.shadow-never-actuates", detail);
            }
            script.decision_cursor = decisions.len();
        }
    }

    // Lift the faults and sweep: every key the reference holds must be
    // readable, every key it lacks must stay absent (this is what catches
    // loss that probes happened to miss). Stats go with the plan, so read
    // them first.
    let injected = h.sim.fault_stats();
    h.sim.set_fault_plan(None);
    if h.db.flush(&mut h.sim).is_err() || h.db.compact(&mut h.sim).is_err() {
        return h.fail(
            scenario,
            scenario.ops,
            "I5.no-panic",
            "flush/compact failed after faults were lifted".to_string(),
        );
    }
    for key in 0..h.key_space {
        let found =
            h.db.get(&mut h.sim, key)
                .expect("fault-free get after plan removal");
        let expected = h.reference.contains(&key);
        if found != expected {
            return h.fail(
                scenario,
                scenario.ops,
                "I1.lsm-vs-reference",
                format!("final sweep: get({key}) = {found}, reference says {expected}"),
            );
        }
    }

    let (mut promotions, mut rollbacks) = lifecycle
        .as_ref()
        .map_or((0, 0), |s| (s.promotions, s.rollbacks));
    let (drift_events, retrains) = continual.as_ref().map_or((0, 0), |ct| {
        (ct.controller.drift_events(), ct.controller.retrains())
    });
    if let Some(ct) = &continual {
        promotions += ct.controller.promotions();
        rollbacks += ct.controller.rollbacks();
        // The reservoir contents are part of the determinism contract:
        // fold their hash into the trace so a replay that samples even
        // one different training row changes the fingerprint.
        fnv1a(&mut h.trace_hash, ct.controller.reservoir_hash());
    }
    Outcome::Pass(RunSummary {
        trace_hash: h.trace_hash,
        steps: scenario.ops,
        io_errors: h.io_errors,
        injected,
        decisions: h.tuner.decisions().len() as u64,
        ring_dropped: h.tuner.records_dropped(),
        promotions,
        rollbacks,
        drift_events,
        retrains,
    })
}

/// The netfs analogue of [`harness_model`]: a stub tree thresholding the
/// retransmit fraction (feature 2). Low fraction → calm (class 0, large
/// rsize), high → congested (class 1, small rsize). The harness validates
/// the loop's plumbing and the RPC ledger, not classifier accuracy.
fn netfs_model() -> RsizeTunerModel {
    let dataset = Dataset::from_rows(
        &[
            vec![50.0, 1e7, 0.02, 1e6, 256.0],
            vec![50.0, 1e7, 0.01, 1e6, 256.0],
            vec![50.0, 4e7, 0.60, 1e6, 256.0],
            vec![50.0, 4e7, 0.80, 1e6, 256.0],
        ],
        &[0, 0, 1, 1],
    )
    .expect("four fixed rows always form a dataset");
    let tree = DecisionTree::fit(&dataset, DecisionTreeConfig::default())
        .expect("four-row dataset always fits");
    RsizeTunerModel::Tree(tree)
}

struct NetHarness {
    mount: NfsMount,
    tuner: RsizeTuner,
    file: FileId,
    file_pages: u64,
    events: Vec<Event>,
    trace_hash: u64,
    io_errors: u64,
    prev_clock: u64,
    prev_lost: u64,
    seq_cursor: u64,
}

impl NetHarness {
    fn record(&mut self, step: u64, op: u8, key: u64, code: u8) {
        let e = Event {
            step,
            op,
            key,
            clock_ns: self.mount.now_ns(),
            code,
        };
        fnv1a(&mut self.trace_hash, e.step);
        fnv1a(&mut self.trace_hash, u64::from(e.op));
        fnv1a(&mut self.trace_hash, e.key);
        fnv1a(&mut self.trace_hash, e.clock_ns);
        fnv1a(&mut self.trace_hash, u64::from(e.code));
        if e.code == 2 {
            self.io_errors += 1;
        }
        self.events.push(e);
    }

    fn fail(
        &self,
        scenario: &Scenario,
        step: u64,
        invariant: &'static str,
        detail: String,
    ) -> Outcome {
        let tail_from = self.events.len().saturating_sub(TRACE_TAIL);
        Outcome::Fail(Box::new(FailureReport {
            scenario: *scenario,
            step,
            invariant,
            detail,
            trace_tail: self.events[tail_from..].to_vec(),
        }))
    }

    /// Checks the RPC-layer invariants I6–I10 after one step.
    // See the readahead harness's check_invariants: the Err arm is
    // terminal, so its size doesn't matter.
    #[allow(clippy::result_large_err)]
    fn check_invariants(&mut self, scenario: &Scenario, step: u64) -> Result<(), Outcome> {
        let s = self.mount.stats();
        // I6: the client is synchronous, so between ops every issued RPC
        // must have returned to the caller exactly once — success, server
        // error, or give-up, but never zero times and never twice.
        if s.rpcs_completed != s.rpcs_issued {
            return Err(self.fail(
                scenario,
                step,
                "I6.rpc-exactly-once",
                format!(
                    "{} RPCs issued but {} completed at quiescence",
                    s.rpcs_issued, s.rpcs_completed
                ),
            ));
        }
        // I7: the double-entry packet ledger balances — every transmission
        // is accounted as lost, seen by the server, or duplicated, and
        // every server response as lost, completing, or dropped-duplicate.
        if let Err(detail) = s.reconcile() {
            return Err(self.fail(scenario, step, "I7.retransmit-reconciles", detail));
        }
        // I8: the actuated rsize stays inside the mount's clamp range and
        // is either the untouched default or a policy value.
        let rsize = self.mount.rsize_kb();
        if !(netfs::RSIZE_MIN_KB..=netfs::RSIZE_MAX_KB).contains(&rsize)
            || (rsize != netfs::DEFAULT_RSIZE_KB && !POLICY_RSIZE_KB.contains(&rsize))
        {
            return Err(self.fail(
                scenario,
                step,
                "I8.rsize-clamped",
                format!(
                    "mount holds {rsize} KiB, policy allows {POLICY_RSIZE_KB:?} or {}",
                    netfs::DEFAULT_RSIZE_KB
                ),
            ));
        }
        // I9: time is never free — the clock is monotone, and any step
        // that lost packets must have burned time on their timeouts.
        let now = self.mount.now_ns();
        let lost = s.packets_lost();
        if now < self.prev_clock {
            return Err(self.fail(
                scenario,
                step,
                "I9.loss-costs-time",
                format!("clock went from {} to {now}", self.prev_clock),
            ));
        }
        if lost > self.prev_lost && now == self.prev_clock {
            return Err(self.fail(
                scenario,
                step,
                "I9.loss-costs-time",
                format!(
                    "{} packets lost this step with no clock movement at {now}",
                    lost - self.prev_lost
                ),
            ));
        }
        self.prev_clock = now;
        self.prev_lost = lost;
        // I10: the RPC tracepoint ring reconciles exactly while drained.
        let emitted = self.mount.rpc_events_emitted();
        let consumed = self.tuner.events_consumed();
        let dropped = self.tuner.records_dropped();
        if emitted != consumed + dropped {
            return Err(self.fail(
                scenario,
                step,
                "I10.rpc-ring-reconciles",
                format!("emitted={emitted} != consumed={consumed} + dropped={dropped}"),
            ));
        }
        Ok(())
    }
}

fn run_netfs_inner(scenario: &Scenario) -> Outcome {
    let np = scenario.net_params();
    let profile = NetProfile {
        name: "dst",
        rtt_ns: np.rtt_ns,
        ns_per_page: np.ns_per_page,
        per_rpc_ns: np.per_rpc_ns,
        base_rto_ns: np.base_rto_ns,
        frag_pages: 8,
        faults: np.faults,
        burst_period_ns: np.burst_period_ns,
        burst_frac: np.burst_frac,
    };
    let mut mount = NfsMount::new(
        profile,
        SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: np.cache_pages,
            ..SimConfig::default()
        },
    );
    let file_pages: u64 = 1 << 14;
    let file = mount.create_file(file_pages);
    let (producer, consumer) = RingBuffer::with_capacity(np.ring_capacity).split();
    mount.attach_rpc_trace(producer);
    let tuner = RsizeTuner::new(
        netfs_model(),
        RsizePolicy::new(POLICY_RSIZE_KB.to_vec()),
        consumer,
        np.window_ns,
    );

    let mut h = NetHarness {
        prev_clock: mount.now_ns(),
        mount,
        tuner,
        file,
        file_pages,
        events: Vec::with_capacity(scenario.ops as usize + 1),
        trace_hash: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
        io_errors: 0,
        prev_lost: 0,
        seq_cursor: 0,
    };
    let mut lifecycle = if scenario.lifecycle {
        match LifecycleScript::new(
            scenario,
            &mut h.tuner,
            ArtifactKind::NetfsRsize,
            POLICY_RSIZE_KB.len(),
        ) {
            Ok(script) => Some(script),
            Err(e) => {
                return h.fail(
                    scenario,
                    0,
                    "I13.artifact-atomic",
                    format!("the initial artifact install failed: {e:?}"),
                )
            }
        }
    } else {
        None
    };
    let mut ops = SeedStream::new(scenario.seed, 0x0E7);

    for step in 0..scenario.ops {
        let roll = ops.range(0, 100);
        let npages = 1 + ops.range(0, 128);
        let span = h.file_pages - npages;
        let (op, page, code) = match roll {
            0..=54 => {
                // Sequential reads: the common streaming client.
                let page = h.seq_cursor.min(span);
                h.seq_cursor = (h.seq_cursor + npages) % span;
                match h.mount.read(h.file, page, npages) {
                    Ok(_) => (12, page, 0),
                    Err(_) => (12, page, 2),
                }
            }
            55..=79 => {
                let page = ops.range(0, span);
                match h.mount.read(h.file, page, npages) {
                    Ok(_) => (12, page, 0),
                    Err(_) => (12, page, 2),
                }
            }
            _ => {
                let page = ops.range(0, span);
                match h.mount.write(h.file, page, npages) {
                    Ok(_) => (13, page, 0),
                    Err(_) => (13, page, 2),
                }
            }
        };
        h.record(step, op, page, code);

        // The closed loop's per-op hook: drain RPC events, maybe retune.
        if let Err(e) = h.tuner.on_op(&mut h.mount) {
            return h.fail(
                scenario,
                step,
                "I5.no-panic",
                format!("rsize tuner failed: {e:?}"),
            );
        }
        if let Err(outcome) = h.check_invariants(scenario, step) {
            return outcome;
        }
        if let Some(script) = lifecycle.as_mut() {
            let knob_before = h.mount.rsize_kb();
            let events = match script.on_step(&mut h.tuner, step) {
                Ok(events) => events,
                Err((invariant, detail)) => return h.fail(scenario, step, invariant, detail),
            };
            let staged_now = events.iter().any(|(op, _, _)| *op == OP_LC_STAGE);
            for (op, key, code) in events {
                h.record(step, op, key, code);
            }
            if staged_now && h.mount.rsize_kb() != knob_before {
                return h.fail(
                    scenario,
                    step,
                    "I12.shadow-never-actuates",
                    format!(
                        "staging a shadow moved rsize {knob_before} -> {} KiB",
                        h.mount.rsize_kb()
                    ),
                );
            }
            let decisions = h.tuner.decisions();
            let fresh = decisions[script.decision_cursor..]
                .iter()
                .map(|d| d.generation);
            if let Err(detail) = script.check_decisions(fresh) {
                return h.fail(scenario, step, "I12.shadow-never-actuates", detail);
            }
            script.decision_cursor = decisions.len();
        }
    }

    let (promotions, rollbacks) = lifecycle
        .as_ref()
        .map_or((0, 0), |s| (s.promotions, s.rollbacks));
    Outcome::Pass(RunSummary {
        trace_hash: h.trace_hash,
        steps: scenario.ops,
        io_errors: h.io_errors,
        injected: h.mount.transport_fault_stats(),
        decisions: h.tuner.decisions().len() as u64,
        ring_dropped: h.tuner.records_dropped(),
        promotions,
        rollbacks,
        drift_events: 0,
        retrains: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_scenario_passes_and_reports_zero_injections() {
        // Disable every fault kind: the run must pass and inject nothing.
        let mut scenario = Scenario::from_seed(11, 120);
        scenario.disabled = crate::FaultMask(0x3F);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 120);
                assert_eq!(s.injected.total(), 0);
                assert_eq!(s.io_errors, 0);
            }
            Outcome::Fail(r) => panic!("quiet scenario failed:\n{r}"),
        }
    }

    #[test]
    fn reproducer_line_carries_the_whole_scenario() {
        let report = FailureReport {
            scenario: Scenario {
                seed: 0xBEEF,
                ops: 37,
                disabled: crate::FaultMask::STALL,
                lsm_bug: true,
                netfs: false,
                lifecycle: false,
                continual: false,
            },
            step: 12,
            invariant: "I1.lsm-vs-reference",
            detail: "test".to_string(),
            trace_tail: Vec::new(),
        };
        let line = report.reproducer();
        assert!(line.contains("KML_DST_SEED=0x000000000000beef"), "{line}");
        assert!(line.contains("KML_DST_OPS=37"), "{line}");
        assert!(line.contains("KML_DST_DISABLE=stall"), "{line}");
        assert!(line.contains("KML_DST_LSM_BUG=1"), "{line}");
        assert!(line.contains("cargo test -p kml-dst"), "{line}");
    }

    #[test]
    fn a_quiet_netfs_scenario_passes_and_injects_nothing() {
        let mut scenario = Scenario::netfs_from_seed(5, 80);
        scenario.disabled = crate::FaultMask(0x3FF);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 80);
                assert_eq!(s.injected.total(), 0);
                assert_eq!(s.io_errors, 0);
            }
            Outcome::Fail(r) => panic!("quiet netfs scenario failed:\n{r}"),
        }
    }

    #[test]
    fn lifecycle_reproducer_line_carries_the_lifecycle_flag() {
        let report = FailureReport {
            scenario: Scenario::lifecycle_from_seed(0xCAFE, 60),
            step: 9,
            invariant: "I11.swap-atomic",
            detail: "test".to_string(),
            trace_tail: Vec::new(),
        };
        assert!(report.reproducer().contains("KML_DST_LIFECYCLE=1"));
    }

    #[test]
    fn a_quiet_lifecycle_scenario_passes_and_swaps_models() {
        // Device faults off, lifecycle events on: the scripted arc must
        // run its swaps without tripping any invariant.
        let mut scenario = Scenario::lifecycle_from_seed(3, 400);
        scenario.disabled = crate::FaultMask(0x3F);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 400);
                assert_eq!(s.injected.total(), 0);
            }
            Outcome::Fail(r) => panic!("quiet lifecycle scenario failed:\n{r}"),
        }
    }

    #[test]
    fn disabling_every_lifecycle_event_still_passes() {
        let mut scenario = Scenario::lifecycle_from_seed(3, 200);
        scenario.disabled = crate::FaultMask(0x3F)
            .with(crate::FaultMask::LC_SHADOW)
            .with(crate::FaultMask::LC_REGRESS)
            .with(crate::FaultMask::LC_CORRUPT);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.promotions, 0, "no shadow staged, nothing to promote");
                assert_eq!(s.rollbacks, 0, "no regressed install, nothing to roll back");
            }
            Outcome::Fail(r) => panic!("event-free lifecycle scenario failed:\n{r}"),
        }
    }

    #[test]
    fn netfs_reproducer_line_carries_the_netfs_flag() {
        let report = FailureReport {
            scenario: Scenario::netfs_from_seed(0xF00D, 50),
            step: 3,
            invariant: "I7.retransmit-reconciles",
            detail: "test".to_string(),
            trace_tail: Vec::new(),
        };
        assert!(report.reproducer().contains("KML_DST_NETFS=1"));
    }

    #[test]
    fn event_trace_hash_distinguishes_different_seeds() {
        let a = match run(&Scenario::from_seed(21, 60)) {
            Outcome::Pass(s) => s.trace_hash,
            Outcome::Fail(r) => panic!("{r}"),
        };
        let b = match run(&Scenario::from_seed(22, 60)) {
            Outcome::Pass(s) => s.trace_hash,
            Outcome::Fail(r) => panic!("{r}"),
        };
        assert_ne!(a, b, "different seeds produced identical traces");
    }
}
