//! The LSM/readahead stack as a [`System`].
//!
//! Exactly the production wiring of `readahead::closed_loop`: a [`Sim`]
//! with telemetry and a tracepoint ring attached, an LSM [`Db`] on top,
//! and a [`KmlTuner`] draining the ring and re-tuning readahead once per
//! window — except the device carries a seeded [`FaultPlan`] and the
//! store is shadowed by a `BTreeSet` reference model. Continual
//! scenarios swap the tuner's per-op hook for a [`ContinualScript`] and
//! pivot the op mix mid-run.

use crate::arcs::ContinualScript;
use crate::driver::{violated, Op, RunSummary, System, Trace, Violation};
use crate::scenario::{Scenario, SeedStream};
use kernel_sim::sim::Advice;
use kernel_sim::{FaultPlan, FileId, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_core::dataset::Dataset;
use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
use kml_lifecycle::ArtifactKind;
use kml_telemetry::Registry;
use kvstore::{Db, DbConfig};
use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};
use std::collections::BTreeSet;

/// Readahead in force before the tuner's first decision, KiB.
pub(crate) const INITIAL_RA_KB: u32 = 128;
/// The two readahead settings the harness policy can actuate, KiB.
pub(crate) const POLICY_RA_KB: [u32; 2] = [16, 1024];
/// Pages of the auxiliary file the raw-read ops land on.
const AUX_PAGES: u64 = 1 << 16;

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

pub(crate) struct LsmStack {
    seed: u64,
    sim: Sim,
    db: Db,
    reference: BTreeSet<u64>,
    tuner: KmlTuner,
    continual: Option<ContinualScript>,
    consumed_total: kml_telemetry::Counter,
    aux: FileId,
    key_space: u64,
    ops: SeedStream,
    prev_clock: u64,
    seq_cursor: u64,
    decision_cursor: usize,
}

impl System for LsmStack {
    type Tuner = KmlTuner;
    const KIND: ArtifactKind = ArtifactKind::Readahead;
    const CLASSES: usize = POLICY_RA_KB.len();
    const KNOB: &'static str = "readahead";

    fn build(scenario: &Scenario) -> Result<Self, Violation> {
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
        let aux = sim.create_file(AUX_PAGES);

        // Continual scenarios use their own (longer) window so each window
        // averages the whole op mix — the drift detector then sees the
        // workload pivot as a step, not per-window mix noise.
        let window_ns = if scenario.continual {
            scenario.continual_params().window_ns
        } else {
            p.window_ns
        };
        let mut tuner = KmlTuner::new(
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
        // The continual controller owns the tuner's install surface, which
        // is why a continual scenario runs without the scripted arc
        // (`Scenario::scripted_lifecycle`).
        let continual = if scenario.continual {
            Some(ContinualScript::new(scenario, &mut tuner)?)
        } else {
            None
        };
        Ok(LsmStack {
            seed: scenario.seed,
            prev_clock: sim.now_ns(),
            sim,
            db,
            reference,
            tuner,
            continual,
            consumed_total,
            aux,
            key_space: p.key_space,
            ops: SeedStream::new(scenario.seed, 0x0B5),
            seq_cursor: 0,
            decision_cursor: 0,
        })
    }

    fn now_ns(&self) -> u64 {
        self.sim.now_ns()
    }

    fn op(&mut self, step: u64, trace: &mut Trace) -> Result<(), Violation> {
        let Self { sim, db, ops, .. } = self;
        let roll = ops.range(0, 100);
        // The continual workload shift: past the seed-derived pivot the
        // mix collapses onto the sequential scan (plus the untouched
        // maintenance tail), and the scan moves to the far half of the
        // aux file — the windowed offset distribution steps cleanly.
        let shifted = self.continual.as_ref().is_some_and(|ct| ct.shifted(step));
        let roll = if shifted && !(85..97).contains(&roll) {
            70
        } else {
            roll
        };
        let key = ops.range(0, self.key_space);
        // A store answer the reference model disagrees with (I1); the op
        // is still recorded, so the report's tail ends on it.
        let mut diverged = None;
        let io = |ok: bool| if ok { 0 } else { 2 };
        let (op, code) = match roll {
            // Put: accepted ⇒ the reference learns it, rejected ⇒ it
            // must be as if it never happened.
            0..=29 => match db.put(sim, key) {
                Ok(()) => {
                    self.reference.insert(key);
                    (Op::Put, 1)
                }
                Err(_) => (Op::Put, 2),
            },
            30..=54 => match db.get(sim, key) {
                Ok(found) => {
                    let expected = self.reference.contains(&key);
                    if found != expected {
                        diverged = Some(format!("get({key}) = {found}, reference says {expected}"));
                    }
                    (Op::Get, u8::from(found))
                }
                Err(_) => (Op::Get, 2),
            },
            55..=62 => {
                let limit = 1 + (ops.range(0, 32) as usize);
                match db.scan(sim, key, limit) {
                    Ok(visited) => {
                        let expected = self.reference.range(key..).take(limit).count();
                        if visited != expected {
                            diverged = Some(format!(
                                "scan({key}, {limit}) visited {visited}, reference has {expected}"
                            ));
                        }
                        (Op::Scan, 0)
                    }
                    Err(_) => (Op::Scan, 2),
                }
            }
            63..=67 => {
                let limit = 1 + (ops.range(0, 32) as usize);
                match db.scan_reverse(sim, key, limit) {
                    Ok(visited) => {
                        let expected = self.reference.range(..=key).rev().take(limit).count();
                        if visited != expected {
                            diverged = Some(format!(
                                "scan_reverse({key}, {limit}) visited {visited}, reference has {expected}"
                            ));
                        }
                        (Op::ScanReverse, 0)
                    }
                    Err(_) => (Op::ScanReverse, 2),
                }
            }
            68..=77 => {
                let n = 4 + ops.range(0, 4);
                let page = self.seq_cursor;
                self.seq_cursor = (self.seq_cursor + n) % (AUX_PAGES - 8);
                // Draw order and cursor arithmetic are untouched by the
                // shift — only where the scan actually lands moves.
                let page = if shifted {
                    AUX_PAGES / 2 + page % (AUX_PAGES / 2 - 8)
                } else {
                    page
                };
                (Op::SeqRead, io(sim.read(self.aux, page, n).is_ok()))
            }
            78..=83 => {
                let page = ops.range(0, AUX_PAGES - 4);
                let n = 1 + ops.range(0, 3);
                (Op::RandRead, io(sim.read(self.aux, page, n).is_ok()))
            }
            84..=87 => (Op::Flush, io(db.flush(sim).is_ok())),
            88..=90 => (Op::Compact, io(db.compact(sim).is_ok())),
            91..=92 => (Op::Sync, io(sim.sync().is_ok())),
            93..=94 => (Op::DropCaches, io(sim.drop_caches().is_ok())),
            95..=96 => {
                let advice = match ops.range(0, 3) {
                    0 => Advice::Sequential,
                    1 => Advice::Random,
                    _ => Advice::Normal,
                };
                (Op::Fadvise, io(sim.fadvise(self.aux, advice).is_ok()))
            }
            _ => {
                let page = ops.range(0, AUX_PAGES);
                (Op::MmapRead, io(sim.mmap_read(self.aux, page).is_ok()))
            }
        };
        trace.record(sim.now_ns(), op, key, code);
        diverged.map_or(Ok(()), |detail| violated("I1.lsm-vs-reference", detail))
    }

    fn tune(&mut self, trace: &mut Trace) -> Result<(), Violation> {
        match self.continual.as_mut() {
            Some(ct) => ct.on_step(&mut self.tuner, &mut self.sim, trace),
            None => self.tuner.on_op(&mut self.sim).map_err(|e| {
                let detail = format!("tuner failed: {e:?}");
                ("I5.no-panic", detail)
            }),
        }
    }

    /// I1 (probe), I2, I3, I4, I5.
    fn check(&mut self, step: u64) -> Result<(), Violation> {
        // I4 first: the ring reconciles exactly while the tuner has it
        // drained (the probe below emits fresh records, which the *next*
        // step's drain will pick up).
        let emitted = self.sim.trace_emitted();
        let consumed = self.consumed_total.get();
        let dropped = self.tuner.records_dropped();
        if emitted != consumed + dropped {
            return violated(
                "I4.ring-reconciles",
                format!("emitted={emitted} != consumed={consumed} + dropped={dropped}"),
            );
        }
        // I1: a rotating probe key read back through the full stack must
        // agree with the reference model (errored probes are inconclusive —
        // the device refused, nothing was *wrong*).
        let probe = (step.wrapping_mul(7919) ^ self.seed) % self.key_space;
        if let Ok(found) = self.db.get(&mut self.sim, probe) {
            let expected = self.reference.contains(&probe);
            if found != expected {
                return violated(
                    "I1.lsm-vs-reference",
                    format!("probe key {probe}: store says {found}, reference says {expected}"),
                );
            }
        }
        // I2: cache accounting under squeezes and failed writebacks.
        let (len, dirty, cap) = (
            self.sim.cache_len(),
            self.sim.cache_dirty(),
            self.sim.cache_capacity(),
        );
        if len > cap || dirty > len {
            return violated(
                "I2.cache-accounting",
                format!("cache len={len} dirty={dirty} capacity={cap}"),
            );
        }
        // I3: the actuated readahead is always one the policy can produce.
        let ra = self.tuner.current_ra_kb();
        if ra != INITIAL_RA_KB && !POLICY_RA_KB.contains(&ra) {
            return violated(
                "I3.ra-clamped",
                format!("tuner holds {ra} KiB, policy allows {POLICY_RA_KB:?} or {INITIAL_RA_KB}"),
            );
        }
        // I5: the clock never runs backwards (even when an op fails, the
        // time its attempt consumed must stand).
        let now = self.sim.now_ns();
        if now < self.prev_clock {
            return violated(
                "I5.clock-monotone",
                format!("clock went from {} to {now}", self.prev_clock),
            );
        }
        self.prev_clock = now;
        Ok(())
    }

    fn knob(&self) -> u32 {
        self.tuner.current_ra_kb()
    }

    fn tuner(&mut self) -> &mut KmlTuner {
        &mut self.tuner
    }

    fn fresh_generations(&mut self) -> impl Iterator<Item = u64> + '_ {
        let decisions = self.tuner.decisions();
        let from = std::mem::replace(&mut self.decision_cursor, decisions.len());
        decisions[from..].iter().map(|d| d.generation)
    }

    /// Lifts the faults and sweeps: every key the reference holds must be
    /// readable, every key it lacks must stay absent (this is what catches
    /// loss that probes happened to miss).
    fn finish(&mut self, trace: &mut Trace) -> Result<RunSummary, Violation> {
        // Stats go with the plan, so read them first.
        let injected = self.sim.fault_stats();
        self.sim.set_fault_plan(None);
        if self.db.flush(&mut self.sim).is_err() || self.db.compact(&mut self.sim).is_err() {
            return violated(
                "I5.no-panic",
                "flush/compact failed after faults were lifted",
            );
        }
        for key in 0..self.key_space {
            let found = self
                .db
                .get(&mut self.sim, key)
                .expect("fault-free get after plan removal");
            let expected = self.reference.contains(&key);
            if found != expected {
                return violated(
                    "I1.lsm-vs-reference",
                    format!("final sweep: get({key}) = {found}, reference says {expected}"),
                );
            }
        }
        let mut summary = RunSummary {
            injected,
            decisions: self.tuner.decisions().len() as u64,
            ring_dropped: self.tuner.records_dropped(),
            ..RunSummary::default()
        };
        if let Some(ct) = &self.continual {
            let c = &ct.controller;
            let lc = c.lifecycle();
            (summary.promotions, summary.rollbacks) = (lc.promotions(), lc.rollbacks());
            (summary.drift_events, summary.retrains) = (c.drift_events(), c.retrains());
            // The reservoir contents are part of the determinism contract:
            // fold their hash into the trace so a replay that samples even
            // one different training row changes the fingerprint.
            trace.fold(c.reservoir_hash());
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, FaultMask, Outcome, Scenario};

    #[test]
    fn a_quiet_scenario_passes_and_reports_zero_injections() {
        // Disable every fault kind: the run must pass and inject nothing.
        let mut scenario = Scenario::from_seed(11, 120);
        scenario.disabled = FaultMask(0x3F);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 120);
                assert_eq!(s.injected.total(), 0);
                assert_eq!(s.io_errors, 0);
            }
            Outcome::Fail(r) => panic!("quiet scenario failed:\n{r}"),
        }
    }
}
