//! E14 — closed-loop online learning (DESIGN.md §13): a live loop served
//! by a constant class-0 model pivots from random to sequential reads;
//! the drift detector fires on the sustained feature shift, the
//! retrainer trains a candidate from the reservoir, the
//! candidate shadow-stages and earns promotion after clean windows, and
//! every post-promotion decision is stamped with the new generation while
//! the readahead recovers to the sequential class. A control arc without
//! the pivot proves the loop never retrains on a stationary workload.

use crate::rig::{self, FILE_PAGES, PAGES_PER_OP, POLICY_KB};
use crate::{training, Ctx, DynResult, Out};
use kernel_sim::{FileId, Sim, PAGE_SIZE};
use kml_continual::{
    train_candidate, ContinualConfig, ContinualController, DriftConfig, ReservoirSample,
    RetrainSpec,
};
use kml_lifecycle::{ArtifactKind, LoopEvent, WatchdogConfig};
use readahead::tuner::{KmlTuner, TunerModel};
use readahead::WindowMoments;

// Observation windows per phase: enough random windows to freeze the
// drift reference, enough shifted ones for trigger + retrain + shadow +
// post-promotion proof.
const RANDOM_WINDOWS: u64 = 12;
const SHIFTED_WINDOWS: u64 = 40;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E14: continual learning — drift, retrain, earned promotion (DESIGN.md §13)\n");

    // Full-batch steps over a ≤64-sample reservoir — cheap enough that
    // "quick" barely differs, and enough of them that the boundary is
    // actually learned rather than approximated.
    let epochs = if ctx.quick { 1_500 } else { 3_000 };
    let spec = RetrainSpec {
        kind: ArtifactKind::Readahead,
        classes: POLICY_KB.len(),
        epochs,
        seed: 0xE14_7EA1,
    };

    // Generation 1: trained through the retrainer's own packaging path on
    // a random-phase cluster labeled class 0 — it holds the 16 KiB class
    // no matter what it sees, so the pivot genuinely hurts until the loop
    // retrains its way out.
    let gen1_samples: Vec<ReservoirSample> = (0..32u64)
        .map(|j| {
            let jit = |k: u64| ((j * 7 + k) % 11) as f64 * 0.05;
            ReservoirSample {
                id: j,
                priority: 0,
                // The random-phase cluster in the loop's pattern-feature
                // space (see `Arc14::phi`): ~14 bits of per-window offset
                // spread, ~12 bits of mean jump distance.
                features: [0.0, 0.0, 14.2 + jit(0), 12.0 + jit(1), 0.0],
                label: 0,
            }
        })
        .collect();
    let gen1 = training("the generation-1 artifact", || {
        train_candidate(&spec, 0, &gen1_samples)
    })?;

    let continual_cfg = ContinualConfig {
        // Blocks of 6 put the trigger ~12 windows past the pivot, so the
        // reservoir the retrainer samples holds both phases in balance.
        drift: DriftConfig {
            reference_windows: 6,
            block_windows: 6,
            threshold: 8.0,
            trigger_blocks: 2,
            abs_floor: 1.0,
        },
        reservoir_capacity: 64,
        seed: 0xE14_5EED,
        min_samples: 16,
        watchdog: WatchdogConfig {
            baseline_windows: 1,
            promote_after: 3,
            regress_windows: 2,
            regress_ratio: 0.5,
        },
        spec,
    };

    // The drift arc: random phase, then the pivot.
    let mut arc = Arc14::new(&gen1, &continual_cfg)?;
    arc.drive("random", true, RANDOM_WINDOWS)?;
    arc.drive("shifted", false, RANDOM_WINDOWS + SHIFTED_WINDOWS)?;
    let controller = &arc.controller;
    let (drift_events, retrains, promotions, rollbacks) = (
        controller.drift_events(),
        controller.retrains(),
        controller.lifecycle().promotions(),
        controller.lifecycle().rollbacks(),
    );
    let generation = controller.generation();
    let reservoir_hash = controller.reservoir_hash();
    let Some(promoted_at) = arc.promoted_at else {
        return Err("the shifted arc never promoted a retrained candidate".into());
    };
    if generation != 1 + promotions {
        return Err(format!(
            "active generation {generation} after {promotions} promotions (expected {})",
            1 + promotions
        )
        .into());
    }
    let fresh = rig::check_recovered(
        &arc.tuner,
        arc.decisions_at_promotion,
        generation,
        "promotion",
    )?;
    let final_ra = arc.tuner.current_ra_kb();
    let rows = arc.rows;

    // The control arc: same loop, same windows, no pivot — the reservoir
    // fills, the detector monitors, and nothing ever fires.
    let mut control = Arc14::new(&gen1, &continual_cfg)?;
    control.drive("control", true, RANDOM_WINDOWS + SHIFTED_WINDOWS)?;
    let c = &control.controller;
    let control_counts = (
        c.drift_events(),
        c.retrains(),
        c.lifecycle().promotions(),
        c.generation(),
    );
    if control_counts != (0, 0, 0, 1) {
        return Err(format!(
            "the no-drift control was not silent: {} drift, {} retrains, {} promotions, generation {}",
            control_counts.0, control_counts.1, control_counts.2, control_counts.3
        )
        .into());
    }

    let table = rig::table(&rows)
        + &format!(
            "arc:     {drift_events} drift trigger(s) → {retrains} retrain(s) → \
             {promotions} promotion(s), {rollbacks} rollback(s); promoted at window {promoted_at}\n\
             proof:   {fresh} post-promotion decisions all tagged generation {generation}; \
             readahead recovered to {final_ra} KiB\n\
             control: 0 drift, 0 retrains, 0 promotions over {} stationary windows \
             (generation stayed 1)\n\
             reservoir contents hash: {reservoir_hash:#018x}\n",
            RANDOM_WINDOWS + SHIFTED_WINDOWS,
        );
    println!("{table}");
    out.write("e14_continual.txt", &table)?;

    let json_lines = rig::json_rows("e14_continual", &rows)
        + &format!(
            "{{\"experiment\":\"e14_continual\",\"drift_events\":{drift_events},\"retrains\":{retrains},\"promotions\":{promotions},\"rollbacks\":{rollbacks},\"promoted_window\":{promoted_at},\"final_generation\":{generation},\"final_ra_kb\":{final_ra},\"post_promotion_decisions\":{fresh},\"control_drift_events\":0,\"control_retrains\":0,\"control_promotions\":0,\"reservoir_hash\":\"{reservoir_hash:#018x}\"}}\n",
        );
    out.json("e14_continual.jsonl", "continual", &json_lines)?;
    Ok(())
}

/// One driven loop: a fresh rig + controller, windows observed through the
/// full reservoir → drift → retrain → watchdog path, the model's decision
/// actuated after observation so a just-promoted generation stamps the
/// very window it won.
struct Arc14 {
    sim: Sim,
    tuner: KmlTuner,
    controller: ContinualController,
    file: FileId,
    cursor: u64,
    lcg: u64,
    window_start_ns: u64,
    pages_since: u64,
    moments: WindowMoments,
    /// One arc-table row per observed window.
    rows: Vec<Vec<String>>,
    promoted_at: Option<u64>,
    decisions_at_promotion: usize,
}

impl Arc14 {
    fn new(gen1: &[u8], cfg: &ContinualConfig) -> DynResult<Self> {
        let (sim, file, mut tuner) = rig::new(TunerModel::Remote);
        let controller = ContinualController::new(*cfg, &mut tuner, gen1.to_vec())?;
        Ok(Arc14 {
            window_start_ns: sim.now_ns(),
            sim,
            tuner,
            controller,
            file,
            cursor: 0,
            lcg: 0xE14,
            pages_since: 0,
            moments: WindowMoments::default(),
            rows: Vec::new(),
            promoted_at: None,
            decisions_at_promotion: 0,
        })
    }

    /// Actuation-invariant pattern features for one window. The raw
    /// extractor's mean/std channels are cumulative over the run, so
    /// this first recovers per-window statistics from the running
    /// totals, then keeps only the channels the loop's own decisions
    /// cannot move: a promoted model that changes the readahead size
    /// changes the op count and knob channels of every later window,
    /// and a model keyed on those would drift out of its own training
    /// distribution the moment it won. Log2 compression matches the
    /// generation-1 cluster and keeps the phase step a few clean bits.
    fn phi(&mut self, raw: &[f64; 5]) -> [f64; 5] {
        let (_, w_std) = self.moments.window(raw);
        [0.0, 0.0, (1.0 + w_std).log2(), (1.0 + raw[3]).log2(), 0.0]
    }

    /// Runs ops of one phase until `until` total windows have been
    /// observed, recording a row per window.
    fn drive(&mut self, phase: &str, random: bool, until: u64) -> DynResult {
        while (self.rows.len() as u64) < until {
            let page = if random {
                self.lcg = self
                    .lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.lcg >> 33) % (FILE_PAGES - PAGES_PER_OP)
            } else {
                let p = self.cursor;
                self.cursor = (self.cursor + PAGES_PER_OP) % (FILE_PAGES - PAGES_PER_OP);
                p
            };
            self.sim.read(self.file, page, PAGES_PER_OP)?;
            self.pages_since += PAGES_PER_OP;
            let Some(features) = self.tuner.poll_window(&mut self.sim) else {
                continue;
            };
            let window = self.rows.len() as u64 + 1;
            let now = self.sim.now_ns();
            let dt = (now - self.window_start_ns).max(1);
            let mbps = (self.pages_since * PAGE_SIZE) as f64 * 1e3 / dt as f64;
            self.window_start_ns = now;
            self.pages_since = 0;
            let label = KmlTuner::heuristic_class(&features);
            let phi = self.phi(&features);
            let out = self
                .controller
                .observe_window(&mut self.tuner, &phi, label, mbps)?;
            if let Some(LoopEvent::Promoted { .. }) = out.lifecycle {
                self.promoted_at = Some(window);
                self.decisions_at_promotion = self.tuner.decisions().len();
            }
            let note = rig::window_note(self.controller.lifecycle());
            let class = self.tuner.predict_active(&phi).map_err(|e| {
                Box::<dyn std::error::Error>::from(format!("predict failed: {e:?}"))
            })?;
            self.tuner.apply_class(&mut self.sim, class);
            self.rows
                .push(rig::row(window, phase, &self.tuner, mbps, note));
        }
        Ok(())
    }
}
