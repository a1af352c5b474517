//! The one DST driver: runs a seeded scenario end to end through a
//! `System` — op, tune, check, lifecycle arc, every step — and turns the
//! first broken invariant into a [`FailureReport`].
//!
//! The driver owns what is the same for every stack: the `Trace` (event
//! tail, FNV fold, error count), the step loop, the scripted lifecycle
//! arc, the panic boundary and the [`RunSummary`]. A stack supplies the
//! rest through `System`: how it is built from the seed, what one op
//! does, how its tuner runs, and which invariants it owes after a step.

use crate::arcs::LifecycleScript;
use crate::scenario::Scenario;
use kernel_sim::FaultStats;
use kml_lifecycle::{ArtifactKind, LifecycleTarget};
use kml_platform::bytes::Fnv1a;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Events kept in a failure report (the tail of the run).
const TRACE_TAIL: usize = 16;

/// What a step did. The discriminant is the byte the trace hash folds, so
/// variants are append-only: `net_*` belong to the netfs stack, the `lc_*`
/// codes to lifecycle scenarios — `lc_promote`/`lc_rollback` also to
/// continual scenarios, whose own arc events get the `ct_*` codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    Put = 0,
    Get,
    Scan,
    ScanReverse,
    SeqRead,
    RandRead,
    Flush,
    Compact,
    Sync,
    DropCaches,
    Fadvise,
    MmapRead,
    NetRead,
    NetWrite,
    LcStage,
    LcInstall,
    LcCorrupt,
    LcPromote,
    LcRollback,
    CtDrift,
    CtRetrain,
}

impl Op {
    /// The name failure reports print.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Scan => "scan",
            Op::ScanReverse => "scan_reverse",
            Op::SeqRead => "seq_read",
            Op::RandRead => "rand_read",
            Op::Flush => "flush",
            Op::Compact => "compact",
            Op::Sync => "sync",
            Op::DropCaches => "drop_caches",
            Op::Fadvise => "fadvise",
            Op::MmapRead => "mmap_read",
            Op::NetRead => "net_read",
            Op::NetWrite => "net_write",
            Op::LcStage => "lc_stage",
            Op::LcInstall => "lc_install",
            Op::LcCorrupt => "lc_corrupt",
            Op::LcPromote => "lc_promote",
            Op::LcRollback => "lc_rollback",
            Op::CtDrift => "ct_drift",
            Op::CtRetrain => "ct_retrain",
        }
    }
}

/// One step of the event trace: enough to diff two replays and to read a
/// failure's last moments, small enough to hash byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Step index.
    pub step: u64,
    /// What the step did.
    pub op: Op,
    /// Key / page argument of the op.
    pub key: u64,
    /// Simulated clock after the op, ns.
    pub clock_ns: u64,
    /// 0 = ok/absent, 1 = ok/present, 2 = io error.
    pub code: u8,
}

/// Everything a passing run proves, plus the fingerprint replays must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
                e.step,
                e.op.name(),
                e.key,
                e.code,
                e.clock_ns
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

/// A broken invariant: its name and the specifics. Returned with `?` from
/// anywhere under [`drive`], which adds the scenario, the step and the
/// trace tail exactly once.
pub(crate) type Violation = (&'static str, String);

/// `Err` of a [`Violation`], for `return violated(..)` at a check site.
pub(crate) fn violated<T>(
    invariant: &'static str,
    detail: impl Into<String>,
) -> Result<T, Violation> {
    Err((invariant, detail.into()))
}

/// The run's event record: the step in progress, the last [`TRACE_TAIL`]
/// events, the FNV-1a fold over all of them, and the I/O error count.
pub(crate) struct Trace {
    step: u64,
    tail: VecDeque<Event>,
    hash: Fnv1a,
    io_errors: u64,
}

impl Trace {
    fn new() -> Self {
        Trace {
            step: 0,
            tail: VecDeque::with_capacity(TRACE_TAIL),
            hash: Fnv1a::new(),
            io_errors: 0,
        }
    }

    /// Records one event of the step in progress at simulated time
    /// `clock_ns`.
    pub(crate) fn record(&mut self, clock_ns: u64, op: Op, key: u64, code: u8) {
        for v in [self.step, op as u64, key, clock_ns, u64::from(code)] {
            self.fold(v);
        }
        if code == 2 {
            self.io_errors += 1;
        }
        if self.tail.len() == TRACE_TAIL {
            self.tail.pop_front();
        }
        self.tail.push_back(Event {
            step: self.step,
            op,
            key,
            clock_ns,
            code,
        });
    }

    /// Folds `v` into the trace hash (FNV-1a over its little-endian bytes).
    pub(crate) fn fold(&mut self, v: u64) {
        self.hash.fold_u64(v);
    }
}

/// One stack under test. [`drive`] calls `op`, `tune`, `check` — in that
/// order, once per step — then the scripted lifecycle arc on `tuner()`,
/// and `finish` once after the last step. A composed domain (ROADMAP
/// item 5) is one more impl: it supplies its own world, op mix and
/// invariants, and inherits the trace, the arc and the reports.
pub(crate) trait System: Sized {
    /// The closed loop whose model the lifecycle arc swaps.
    type Tuner: LifecycleTarget;
    /// Artifact kind the arc's stub models are packaged as.
    const KIND: ArtifactKind;
    /// Classes those models must cover (the policy table's length).
    const CLASSES: usize;
    /// What [`System::knob`] measures, for the arc's reports.
    const KNOB: &'static str;

    /// Builds the world from the scenario: fault-free fill first, then
    /// the seeded fault plan is armed.
    fn build(scenario: &Scenario) -> Result<Self, Violation>;
    /// The simulated clock.
    fn now_ns(&self) -> u64;
    /// Draws one op from the stack's own seed stream, runs it and records
    /// its event.
    fn op(&mut self, step: u64, trace: &mut Trace) -> Result<(), Violation>;
    /// The closed loop's per-op hook: drain tracepoints, maybe retune.
    fn tune(&mut self, trace: &mut Trace) -> Result<(), Violation>;
    /// The stack's invariants after one step.
    fn check(&mut self, step: u64) -> Result<(), Violation>;
    /// The actuated knob, KiB.
    fn knob(&self) -> u32;
    /// The swap point the lifecycle arc drives.
    fn tuner(&mut self) -> &mut Self::Tuner;
    /// Generation tags of the decisions taken since the previous call.
    fn fresh_generations(&mut self) -> impl Iterator<Item = u64> + '_;
    /// End-of-run checks, and the stack's share of the summary (the
    /// driver fills in the trace's and the lifecycle arc's).
    fn finish(&mut self, trace: &mut Trace) -> Result<RunSummary, Violation>;
}

/// Runs `scenario`, converting any panic into an `I5.no-panic` failure.
/// All state is built fresh from the seed inside the call, so replays are
/// byte-identical regardless of what other tests (or threads) are doing.
pub fn run(scenario: &Scenario) -> Outcome {
    if scenario.netfs {
        drive::<crate::net::NetStack>(scenario)
    } else {
        drive::<crate::lsm::LsmStack>(scenario)
    }
}

/// The trace lives outside the unwind boundary, so a panic is reported
/// like any other violation: at the step it interrupted, with the tail.
fn drive<S: System>(scenario: &Scenario) -> Outcome {
    let mut trace = Trace::new();
    let result = catch_unwind(AssertUnwindSafe(|| steps::<S>(scenario, &mut trace)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(("I5.no-panic", format!("panicked: {msg}")))
        });
    match result {
        Ok(summary) => Outcome::Pass(summary),
        Err((invariant, detail)) => Outcome::Fail(Box::new(FailureReport {
            scenario: *scenario,
            step: trace.step,
            invariant,
            detail,
            trace_tail: trace.tail.into(),
        })),
    }
}

fn steps<S: System>(scenario: &Scenario, trace: &mut Trace) -> Result<RunSummary, Violation> {
    let mut sys = S::build(scenario)?;
    let mut lifecycle = if scenario.scripted_lifecycle() {
        Some(LifecycleScript::new(scenario, &mut sys)?)
    } else {
        None
    };
    for step in 0..scenario.ops {
        trace.step = step;
        sys.op(step, trace)?;
        sys.tune(trace)?;
        sys.check(step)?;
        if let Some(script) = lifecycle.as_mut() {
            script.on_step(&mut sys, step, trace)?;
        }
    }
    trace.step = scenario.ops;
    let stack = sys.finish(trace)?;
    let (promotions, rollbacks) = lifecycle.map_or((0, 0), |s| {
        (s.controller.promotions(), s.controller.rollbacks())
    });
    Ok(RunSummary {
        trace_hash: trace.hash.finish(),
        steps: scenario.ops,
        io_errors: trace.io_errors,
        promotions: stack.promotions + promotions,
        rollbacks: stack.rollbacks + rollbacks,
        ..stack
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultMask;
    use kml_lifecycle::{ArtifactError, ShadowStats};

    /// Where the toy stack misbehaves.
    #[derive(Clone, Copy, PartialEq)]
    enum Phase {
        Op,
        Tune,
        Check,
        Arc,
        Finish,
    }

    /// A swap point that verifies nothing: any bytes install. Enough for
    /// the lifecycle arc to run — and to be caught accepting its
    /// corrupted artifact.
    #[derive(Default)]
    struct GullibleTuner {
        generation: u64,
    }

    impl LifecycleTarget for GullibleTuner {
        fn install_artifact(&mut self, _: &[u8], generation: u64) -> Result<(), ArtifactError> {
            self.generation = generation;
            Ok(())
        }
        fn stage_shadow_artifact(&mut self, _: &[u8]) -> Result<(), ArtifactError> {
            Ok(())
        }
        fn clear_shadow(&mut self) {}
        fn generation(&self) -> u64 {
            self.generation
        }
        fn shadow_stats(&self) -> ShadowStats {
            ShadowStats::default()
        }
    }

    /// The smallest [`System`]: one `put` per step on a clock that ticks
    /// once per op, no world, and a fault of its own choosing. The chosen
    /// misbehaviour travels in the scenario's seed (phase, step, panic?)
    /// because `build` sees nothing else.
    struct Toy {
        tuner: GullibleTuner,
        clock: u64,
        step: u64,
        fail: (Phase, u64, bool),
    }

    const PHASES: [Phase; 5] = [
        Phase::Op,
        Phase::Tune,
        Phase::Check,
        Phase::Arc,
        Phase::Finish,
    ];

    fn toy_scenario(phase: Phase, at: u64, panics: bool, ops: u64) -> Scenario {
        let index = PHASES.iter().position(|p| *p == phase).unwrap() as u64;
        let seed = index | u64::from(panics) << 8 | at << 16;
        let mut scenario = Scenario::from_seed(seed, ops);
        if phase == Phase::Arc {
            // Only the corrupted load fires, at its seed-derived step.
            scenario.lifecycle = true;
            scenario.disabled = FaultMask::LC_SHADOW.with(FaultMask::LC_REGRESS);
        }
        scenario
    }

    impl Toy {
        fn trip(&self, phase: Phase, step: u64) -> Result<(), Violation> {
            match self.fail {
                (p, at, true) if p == phase && at == step => panic!("toy panic"),
                (p, at, false) if p == phase && at == step => {
                    Err(("T0.toy", format!("tripped at {at}")))
                }
                _ => Ok(()),
            }
        }
    }

    impl System for Toy {
        type Tuner = GullibleTuner;
        const KIND: ArtifactKind = ArtifactKind::Readahead;
        const CLASSES: usize = 2;
        const KNOB: &'static str = "toy";

        fn build(scenario: &Scenario) -> Result<Self, Violation> {
            let seed = scenario.seed;
            Ok(Toy {
                tuner: GullibleTuner::default(),
                clock: 0,
                step: 0,
                fail: (
                    PHASES[(seed & 0xFF) as usize],
                    seed >> 16,
                    seed >> 8 & 1 == 1,
                ),
            })
        }
        fn now_ns(&self) -> u64 {
            self.clock
        }
        fn op(&mut self, step: u64, trace: &mut Trace) -> Result<(), Violation> {
            self.step = step;
            self.trip(Phase::Op, step)?;
            self.clock += 1;
            trace.record(self.clock, Op::Put, step, 1);
            Ok(())
        }
        fn tune(&mut self, _: &mut Trace) -> Result<(), Violation> {
            self.trip(Phase::Tune, self.step)
        }
        fn check(&mut self, step: u64) -> Result<(), Violation> {
            self.trip(Phase::Check, step)
        }
        fn knob(&self) -> u32 {
            0
        }
        fn tuner(&mut self) -> &mut GullibleTuner {
            &mut self.tuner
        }
        fn fresh_generations(&mut self) -> impl Iterator<Item = u64> + '_ {
            std::iter::empty()
        }
        fn finish(&mut self, _: &mut Trace) -> Result<RunSummary, Violation> {
            self.trip(Phase::Finish, self.step + 1)?;
            Ok(RunSummary::default())
        }
    }

    fn toy_failure(scenario: &Scenario) -> Box<FailureReport> {
        match drive::<Toy>(scenario) {
            Outcome::Fail(report) => report,
            Outcome::Pass(s) => panic!("the toy stack was armed yet passed: {s:?}"),
        }
    }

    #[test]
    fn a_violation_from_any_phase_carries_its_step_and_the_tail() {
        // op trips before recording, so its tail ends one step earlier;
        // finish reports at `ops`, after every step recorded.
        for (phase, at, last_recorded) in [
            (Phase::Op, 20, 19),
            (Phase::Tune, 20, 20),
            (Phase::Check, 20, 20),
            (Phase::Finish, 30, 29),
        ] {
            let report = toy_failure(&toy_scenario(phase, at, false, 30));
            assert_eq!(report.invariant, "T0.toy");
            assert_eq!(report.step, at);
            assert_eq!(report.trace_tail.len(), TRACE_TAIL);
            assert_eq!(report.trace_tail.last().unwrap().step, last_recorded);
            assert_eq!(report.trace_tail.last().unwrap().op, Op::Put);
        }
    }

    #[test]
    fn a_lifecycle_arc_violation_carries_its_step_and_the_tail() {
        let scenario = toy_scenario(Phase::Arc, 0, false, 400);
        let corrupt_step = scenario.lifecycle_params().corrupt_step;
        let report = toy_failure(&scenario);
        assert_eq!(report.invariant, "I13.artifact-atomic", "{report}");
        assert_eq!(report.detail, "a corrupted artifact was accepted");
        assert_eq!(report.step, corrupt_step);
        assert_eq!(report.trace_tail.last().unwrap().step, corrupt_step);
    }

    #[test]
    fn a_panic_is_reported_at_its_step_with_the_tail() {
        let report = toy_failure(&toy_scenario(Phase::Tune, 5, true, 30));
        assert_eq!(report.invariant, "I5.no-panic");
        assert_eq!(report.detail, "panicked: toy panic");
        assert_eq!(report.step, 5);
        let steps: Vec<u64> = report.trace_tail.iter().map(|e| e.step).collect();
        assert_eq!(steps, [0, 1, 2, 3, 4, 5]);
        // The shrinker's `min(ops, step + 1)` cap starts from the true step.
        assert!(report.to_string().contains("violated at step 5"));
    }

    #[test]
    fn an_unarmed_toy_passes_and_the_driver_fills_the_summary() {
        match drive::<Toy>(&toy_scenario(Phase::Finish, 99, false, 12)) {
            Outcome::Pass(s) => {
                assert_eq!((s.steps, s.io_errors, s.promotions), (12, 0, 0));
                assert_ne!(s.trace_hash, Trace::new().hash.finish());
            }
            Outcome::Fail(r) => panic!("{r}"),
        }
    }

    fn report_for(scenario: Scenario) -> FailureReport {
        FailureReport {
            scenario,
            step: 12,
            invariant: "I1.lsm-vs-reference",
            detail: "test".to_string(),
            trace_tail: Vec::new(),
        }
    }

    #[test]
    fn reproducer_line_carries_the_whole_scenario() {
        let line = report_for(Scenario {
            seed: 0xBEEF,
            ops: 37,
            disabled: FaultMask::STALL,
            lsm_bug: true,
            netfs: false,
            lifecycle: false,
            continual: false,
        })
        .reproducer();
        assert!(line.contains("KML_DST_SEED=0x000000000000beef"), "{line}");
        assert!(line.contains("KML_DST_OPS=37"), "{line}");
        assert!(line.contains("KML_DST_DISABLE=stall"), "{line}");
        assert!(line.contains("KML_DST_LSM_BUG=1"), "{line}");
        assert!(line.contains("cargo test -p kml-dst"), "{line}");
    }

    #[test]
    fn lifecycle_reproducer_line_carries_the_lifecycle_flag() {
        let report = report_for(Scenario::lifecycle_from_seed(0xCAFE, 60));
        assert!(report.reproducer().contains("KML_DST_LIFECYCLE=1"));
    }

    #[test]
    fn netfs_reproducer_line_carries_the_netfs_flag() {
        let report = report_for(Scenario::netfs_from_seed(0xF00D, 50));
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
