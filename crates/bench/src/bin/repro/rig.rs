//! The readahead rig E12 (`lifecycle`) and E14 (`continual`) both drive: a
//! cold 2^16-page file on NVMe behind a 4,096-page cache, a 4,096-slot
//! trace ring, and a `KmlTuner` whose two-point policy makes the model's
//! class choice the whole knob — so a wrong model is visible in throughput
//! within a window or two — plus the six-column arc table both print.

use crate::DynResult;
use kernel_sim::{DeviceProfile, FileId, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_lifecycle::{LifecycleController, LoopEvent};
use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};

pub const POLICY_KB: [u32; 2] = [16, 1024];
pub const INITIAL_RA_KB: u32 = 128;
pub const WINDOW_NS: u64 = 200_000;
pub const PAGES_PER_OP: u64 = 4;
pub const FILE_PAGES: u64 = 1 << 16;

/// A fresh simulator, the file it reads, and a tuner serving `model`.
pub fn new(model: TunerModel) -> (Sim, FileId, KmlTuner) {
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::nvme(),
        cache_pages: 4_096,
        default_ra_kb: INITIAL_RA_KB,
        ..SimConfig::default()
    });
    let (producer, consumer) = RingBuffer::with_capacity(4_096).split();
    sim.attach_trace(producer);
    let file = sim.create_file(FILE_PAGES);
    let tuner = KmlTuner::new(
        model,
        RaPolicy::new(POLICY_KB.to_vec()),
        consumer,
        WINDOW_NS,
        INITIAL_RA_KB,
    );
    (sim, file, tuner)
}

/// The event column's text for one loop event.
pub fn note(event: &LoopEvent) -> String {
    match *event {
        LoopEvent::Drift { score } => format!("drift (score {score:.1})"),
        LoopEvent::Retrained { samples, .. } => {
            format!("retrained on {samples} reservoir samples → staged")
        }
        LoopEvent::Promoted {
            from,
            to,
            agreement_pct,
        } => format!("promoted {from}→{to} (agreement {agreement_pct:.1}%)"),
        LoopEvent::RolledBack { from, to } => format!("rolled back {from}→{to}"),
        LoopEvent::Discarded => "staged candidate discarded".into(),
    }
}

/// The event column of the window `lifecycle` observed last: its logged
/// records, `"; "`-joined.
pub fn window_note(lifecycle: &LifecycleController) -> String {
    let window = lifecycle.windows();
    let notes: Vec<String> = lifecycle
        .events()
        .iter()
        .filter(|r| r.window == window)
        .map(|r| note(&r.event))
        .collect();
    notes.join("; ")
}

/// One arc-table row: the window as the tuner leaves it.
pub fn row(window: u64, phase: &str, tuner: &KmlTuner, mbps: f64, event: String) -> Vec<String> {
    vec![
        window.to_string(),
        phase.into(),
        tuner.model_generation().to_string(),
        tuner.current_ra_kb().to_string(),
        format!("{mbps:.1}"),
        event,
    ]
}

/// The arc table, then a blank line.
pub fn table(rows: &[Vec<String>]) -> String {
    let headers = [
        "window",
        "phase",
        "gen",
        "ra KiB",
        "MB/s (virtual)",
        "event",
    ];
    bench::render_table(&headers, rows) + "\n"
}

/// One JSON object per arc-table row.
pub fn json_rows(experiment: &str, rows: &[Vec<String>]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{{\"experiment\":\"{experiment}\",\"window\":{},\"phase\":{},\"generation\":{},\"ra_kb\":{},\"mbps\":{},\"event\":{}}}\n",
                r[0],
                kml_telemetry::json_str(&r[1]),
                r[2],
                r[3],
                r[4],
                kml_telemetry::json_str(&r[5]),
            )
        })
        .collect()
}

/// The arc's proof: the tuner decided at least once since decision
/// `since`, every such decision is tagged `generation`, and the readahead
/// is back at the sequential 1,024 KiB class. Returns how many decisions
/// that was.
pub fn check_recovered(
    tuner: &KmlTuner,
    since: usize,
    generation: u64,
    after: &str,
) -> DynResult<usize> {
    let fresh = &tuner.decisions()[since..];
    if fresh.is_empty() {
        return Err(format!("no tuner decisions after the {after}").into());
    }
    if let Some(d) = fresh.iter().find(|d| d.generation != generation) {
        return Err(format!(
            "decision after the {after} tagged generation {} (expected {generation})",
            d.generation
        )
        .into());
    }
    let ra = tuner.current_ra_kb();
    if ra != 1024 {
        return Err(format!(
            "readahead did not recover to 1024 KiB after the {after} (holds {ra})"
        )
        .into());
    }
    Ok(fresh.len())
}
