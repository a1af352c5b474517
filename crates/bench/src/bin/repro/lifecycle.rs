//! E12 — model lifecycle: versioned `.kmlm` artifacts hot-swapped into a
//! live closed loop, with shadow evaluation, watchdog promotion, and
//! automatic rollback of a regressed generation (DESIGN.md §11).
//!
//! The arc is entirely virtual-clock-driven and therefore byte-identical
//! at any `--threads` count: a sequential reader streams through a cold
//! file while the readahead tuner serves generation 1 (trained to the
//! 1024 KiB class); a behaviourally-equal candidate (same class, distinct
//! seed, bitwise-different weights) rides shadow until the watchdog
//! promotes it after K clean windows; then an operator install pushes a
//! deliberately regressed build (trained to the 16 KiB class), whose
//! actuation collapses streaming throughput until the watchdog rolls the
//! loop back — and the post-rollback windows prove the loop is actuating
//! on the restored generation's decisions.

use crate::rig::{self, FILE_PAGES, PAGES_PER_OP, POLICY_KB};
use crate::{training, Ctx, DynResult, Out};
use kernel_sim::PAGE_SIZE;
use kml_lifecycle::{load_model_for, ArtifactKind, LifecycleController, LoopEvent, WatchdogConfig};
use kml_platform::threading;
use readahead::tuner::{KmlTuner, TunerModel};

const OPS_PER_WINDOW: u64 = 48;

pub fn run(ctx: &Ctx, out: &mut Out) -> DynResult {
    println!("## E12: model lifecycle — hot-swap, shadow, rollback (DESIGN.md §11)\n");

    let epochs = if ctx.quick { 60 } else { 160 };
    // class 1 = 1024 KiB (active and candidate, distinct seeds), class 0
    // = 16 KiB (the regression). Trained in parallel, one artifact per
    // worker; results are collected in spec order, so the artifacts
    // don't depend on the worker count.
    let specs: [(usize, u64); 3] = [(1, 11), (1, 23), (0, 37)];
    let trained = training("active / candidate / regressed lifecycle artifacts", || {
        threading::pool_map(&specs, threading::default_workers(), |_, &(class, seed)| {
            artifact(class, POLICY_KB.len(), seed, epochs)
        })
    });
    let mut trained = trained.into_iter();
    let mut next = || trained.next().expect("3 specs");
    let (active, candidate, regressed) = (next()?, next()?, next()?);

    if ctx.corrupt {
        let mut bad = active.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xA5;
        println!(
            "deliberately flipping byte {mid} of the {}-byte active artifact\n",
            active.len()
        );
        return match load_model_for::<f32>(&bad, ArtifactKind::Readahead) {
            Ok(_) => Err("corrupted artifact was ACCEPTED — the integrity gate is broken".into()),
            Err(e) => {
                println!("load rejected with a typed error, nothing installed:\n  {e}\n");
                Err(format!("corrupt artifact refused as designed: {e}").into())
            }
        };
    }

    // The serving loop: a cold sequential stream over a file much larger
    // than the page cache, so the readahead in force is the throughput.
    let gen1 = load_model_for::<f32>(&active, ArtifactKind::Readahead)?;
    let (mut sim, file, mut tuner) = rig::new(TunerModel::NeuralNet(Box::new(gen1.model)));
    let cfg = WatchdogConfig {
        // One-window baseline: actuation lags an install by the tuner's
        // two-window hysteresis, so the first post-install window still
        // runs mostly under the outgoing readahead and baselines high —
        // the regressed generation is judged against healthy throughput.
        baseline_windows: 1,
        promote_after: 3,
        regress_windows: 2,
        regress_ratio: 0.7,
    };
    let mut controller = LifecycleController::new(cfg, &mut tuner, active.clone())?;

    // Runs up to `windows` windows of `phase`, one table row each; with
    // `until_event`, stops at the first lifecycle event and returns it
    // with its window.
    let mut cursor: u64 = 0;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut run_phase = |controller: &mut LifecycleController,
                         tuner: &mut KmlTuner,
                         phase: &str,
                         windows: u64,
                         until_event: bool|
     -> DynResult<Option<(u64, LoopEvent)>> {
        for _ in 0..windows {
            let start = sim.now_ns();
            for _ in 0..OPS_PER_WINDOW {
                if cursor + PAGES_PER_OP > FILE_PAGES {
                    cursor = 0;
                }
                sim.read(file, cursor, PAGES_PER_OP)?;
                cursor += PAGES_PER_OP;
                tuner.on_op(&mut sim)?;
            }
            let dt = (sim.now_ns() - start).max(1);
            // bytes / ns → MB per virtual second.
            let mbps = (OPS_PER_WINDOW * PAGES_PER_OP * PAGE_SIZE) as f64 * 1e3 / dt as f64;
            let event = controller.observe_window(tuner, mbps)?;
            let window = rows.len() as u64 + 1;
            let note = rig::window_note(controller);
            rows.push(rig::row(window, phase, tuner, mbps, note));
            if let Some(event) = event.filter(|_| until_event) {
                return Ok(Some((window, event)));
            }
        }
        Ok(None)
    };

    // Phase 1 — generation 1 serves and the loop settles on its class.
    run_phase(&mut controller, &mut tuner, "serve", 3, false)?;

    // Phase 2 — stage the candidate; the watchdog promotes it after K
    // clean windows, freezing its shadow agreement at promotion time.
    controller.stage_shadow(&mut tuner, candidate)?;
    let Some((
        promote_window,
        LoopEvent::Promoted {
            from: promote_from,
            to: gen2,
            agreement_pct,
        },
    )) = run_phase(&mut controller, &mut tuner, "shadow", 8, true)?
    else {
        return Err("the watchdog never promoted the staged candidate".into());
    };

    // Phase 3 — the promoted generation serves (and re-baselines).
    run_phase(&mut controller, &mut tuner, "serve", 2, false)?;

    // Phase 4 — operator-push the regressed build; its 16 KiB actuation
    // collapses the stream and the watchdog rolls the loop back.
    let gen3 = controller.install(&mut tuner, regressed)?;
    let Some((rollback_window, LoopEvent::RolledBack { from, to })) =
        run_phase(&mut controller, &mut tuner, "regressed", 10, true)?
    else {
        return Err("the watchdog never rolled back the regressed generation".into());
    };
    if (from, to) != (gen3, gen2) || tuner.model_generation() != gen2 {
        return Err(format!(
            "rollback restored generation {to} from {from} and the loop holds {} \
             (expected {gen3}→{gen2})",
            tuner.model_generation()
        )
        .into());
    }

    // Phase 5 — the proof windows: every decision the loop takes after
    // the rollback is tagged with the restored generation, and the knob
    // recovers to the healthy class.
    let decisions_before = tuner.decisions().len();
    run_phase(&mut controller, &mut tuner, "restored", 3, false)?;
    let fresh = rig::check_recovered(&tuner, decisions_before, gen2, "rollback")?;
    let final_ra = tuner.current_ra_kb();

    let table = rig::table(&rows)
        + &format!(
            "promoted:    candidate {promote_from}→{gen2} at window {promote_window} \
             after {} clean windows (shadow agreement {agreement_pct:.1}%)\n\
             rolled back: {from}→{to} at window {rollback_window} \
             after {} regressed windows\n\
             restored:    {fresh} post-rollback decisions all tagged generation {gen2}; \
             readahead re-actuated to {final_ra} KiB\n",
            cfg.promote_after, cfg.regress_windows,
        );
    println!("{table}");
    out.write("e12_lifecycle.txt", &table)?;

    let json_lines = rig::json_rows("e12_lifecycle", &rows)
        + &format!(
            "{{\"experiment\":\"e12_lifecycle\",\"promoted_window\":{promote_window},\"agreement_pct\":{agreement_pct:.1},\"rollback_window\":{rollback_window},\"restored_generation\":{gen2},\"final_ra_kb\":{final_ra},\"post_rollback_decisions\":{fresh}}}\n",
        );
    out.json("e12_lifecycle.jsonl", "lifecycle", &json_lines)?;
    Ok(())
}

/// Trains one constant-class lifecycle artifact: the paper topology fit
/// to a single-label dataset over seed-derived feature rows (the spread
/// keeps the normalizer healthy; the constant label makes the model's
/// class choice independent of the window it sees), f32-deployed through
/// the model file and packaged as checksummed `.kmlm` bytes. String
/// errors so the trainer can cross `pool_map`'s `Send` boundary.
fn artifact(class: usize, classes: usize, seed: u64, epochs: usize) -> Result<Vec<u8>, String> {
    use kml_core::dataset::Dataset;
    use kml_core::train::deploy;

    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    // Ranges bracket what the E12 stream actually produces: up to a few
    // thousand tracepoints per window, offsets inside a 2^16-page file,
    // small sequential deltas, and every readahead the policy can hold.
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            vec![
                1.0 + next() * 2_000.0,  // tracepoints in window
                next() * 65_536.0,       // mean page offset
                next() * 20_000.0,       // offset stddev
                1.0 + next() * 2_000.0,  // mean |Δoffset|
                16.0 + next() * 1_008.0, // readahead in force (KiB)
            ]
        })
        .collect();
    let labels = vec![class; rows.len()];
    let data = Dataset::from_rows(&rows, &labels).map_err(|e| e.to_string())?;

    let mut m32 = readahead::model::spec(classes, epochs, seed)
        .train(&data)
        .and_then(|(model, _)| deploy(&model))
        .map_err(|e| e.to_string())?;
    kml_lifecycle::save_model(kml_lifecycle::ArtifactKind::Readahead, &mut m32)
        .map_err(|e| e.to_string())
}
