//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--json] <experiment>
//!
//!   study      E1  readahead-vs-throughput curves + best-value table (§4)
//!   accuracy   E2  k-fold cross-validation of the readahead NN (§4)
//!   table2     E3  Table 2: per-workload KML speedups on NVMe and SSD
//!   figure2    E4  Figure 2: mixgraph timeline (ops/sec + readahead size)
//!   overheads  E5  §4 micro-overheads (collection / inference / training /
//!                  memory footprint)
//!   dtree      E6  decision-tree tuner comparison (§4)
//!   rl         —   reinforcement-learning bandit tuner (§6 future work)
//!   iosched    —   second use case: I/O-scheduler batching tuner (§6)
//!   netfs      E9  third use case: NFS rsize tuning over simulated
//!                  networks (DESIGN.md §8)
//!   fleet      E10 multi-tenant fleet serving with a shared
//!                  batched-inference model server (DESIGN.md §9)
//!   lifecycle  E12 model lifecycle: `.kmlm` hot-swap, shadow evaluation,
//!                  watchdog promotion + rollback (DESIGN.md §11);
//!                  `--corrupt` instead proves a corrupted artifact is
//!                  refused with a typed error (the command exits non-zero)
//!   continual  E14 closed-loop online learning: drift detection on a live
//!                  workload pivot, reservoir retrain on the background
//!                  trainer, shadow staging, earned promotion — plus a
//!                  no-drift control that never retrains (DESIGN.md §13)
//!   ablate     —   window-length and activation ablations (DESIGN.md §5)
//!   all        everything above
//! ```
//!
//! `--quick` uses the reduced test-scale configuration (seconds instead of
//! minutes); EXPERIMENTS.md records full-scale output. `--json`
//! additionally writes machine-readable JSON-lines for table2, overheads,
//! dtree, netfs, fleet, and lifecycle under `results/`; every line
//! carries a `schema` field naming its experiment family.
//!
//! `--threads=N` (or the `KML_REPRO_THREADS` environment variable) sets the
//! worker count for the embarrassingly-parallel sweeps (study cells, table2
//! workload×device grid, dtree grid, figure2 repeats, rl, iosched). Every
//! task builds its own simulator from a deterministic per-task seed and
//! results are collected in task-index order, so emitted tables, CSV, and
//! JSON-lines are byte-identical at any worker count (modulo wall-clock
//! lines). Default: the machine's available parallelism.
//!
//! Unit conventions: durations are reported in ns, sizes in bytes.

use kernel_sim::DeviceProfile;
use kml_platform::threading;
use kvstore::Workload;
use readahead::closed_loop::{self, VANILLA_RA_KB};
use readahead::model::{train_paper_model, LoopConfig, TrainedReadahead};
use readahead::study::ReadaheadStudy;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let corrupt = args.iter().any(|a| a == "--corrupt");
    if let Some(n) = parse_threads(&args) {
        // Single knob: route the flag through the env var so library-level
        // sweeps (ReadaheadStudy::run) see the same worker count.
        std::env::set_var(threading::WORKERS_ENV, n.to_string());
    }
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let _ = it.next(); // consume the flag's value
            continue;
        }
        if !a.starts_with("--") {
            positional.push(a.as_str());
        }
    }
    let cmd = positional.first().copied().unwrap_or("all");
    let cfg = if quick {
        LoopConfig::quick()
    } else {
        LoopConfig::default()
    };
    println!(
        "# KML reproduction harness — {} scale\n",
        if quick { "quick" } else { "full" }
    );

    let result = match cmd {
        "study" => cmd_study(&cfg),
        "accuracy" => cmd_accuracy(&cfg),
        "table2" => cmd_table2(&cfg, json),
        "figure2" => cmd_figure2(&cfg),
        "overheads" => cmd_overheads(&cfg, json),
        "dtree" => cmd_dtree(&cfg, json),
        "rl" => cmd_rl(&cfg),
        "iosched" => cmd_iosched(),
        "netfs" => cmd_netfs(quick, json),
        "fleet" => cmd_fleet(&cfg, quick, json),
        "lifecycle" => cmd_lifecycle(quick, json, corrupt),
        "continual" => cmd_continual(quick, json),
        "ablate" => cmd_ablate(&cfg),
        "all" => cmd_all(&cfg, quick, json),
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "experiments: study accuracy table2 figure2 overheads dtree rl iosched netfs fleet lifecycle continual ablate all"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("experiment failed: {e}");
        std::process::exit(1);
    }
}

type DynResult = Result<(), Box<dyn std::error::Error>>;

/// `--threads=N` or `--threads N` → `Some(N)` (N ≥ 1).
fn parse_threads(args: &[String]) -> Option<usize> {
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse().ok().filter(|&n| n > 0);
        }
        if a == "--threads" {
            return args.get(i + 1)?.parse().ok().filter(|&n| n > 0);
        }
    }
    None
}

/// Trains once per process: `repro all` runs several experiments that all
/// deploy the same (deterministic) models, so the result is shared.
fn trained_model(
    cfg: &LoopConfig,
) -> Result<&'static TrainedReadahead, Box<dyn std::error::Error>> {
    use std::sync::OnceLock;
    static CELL: OnceLock<TrainedReadahead> = OnceLock::new();
    if CELL.get().is_none() {
        let t0 = Instant::now();
        eprintln!("[training the readahead models — study + collection + SGD]");
        let trained = train_paper_model(cfg)?;
        eprintln!("[trained in {:.1?}]", t0.elapsed());
        let _ = CELL.set(trained);
    }
    Ok(CELL.get().expect("set above"))
}

fn cmd_all(cfg: &LoopConfig, quick: bool, json: bool) -> DynResult {
    cmd_study(cfg)?;
    cmd_accuracy(cfg)?;
    cmd_table2(cfg, json)?;
    cmd_figure2(cfg)?;
    cmd_dtree(cfg, json)?;
    cmd_overheads(cfg, json)?;
    cmd_rl(cfg)?;
    cmd_iosched()?;
    cmd_netfs(quick, json)?;
    cmd_fleet(cfg, quick, json)?;
    cmd_lifecycle(quick, json, false)?;
    cmd_continual(quick, json)?;
    cmd_ablate(cfg)
}

/// Prefixes every JSON-lines object produced elsewhere (e.g. telemetry
/// snapshots) with a `schema` field so downstream consumers can route
/// lines without guessing from the filename.
fn with_schema(json_lines: &str, schema: &str) -> String {
    let mut out = String::with_capacity(json_lines.len());
    for line in json_lines.lines() {
        if let Some(rest) = line.strip_prefix('{') {
            out.push_str(&format!(
                "{{\"schema\":{},{rest}\n",
                kml_telemetry::json_str(schema)
            ));
        } else if !line.is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Writes a `.jsonl` results file with every object stamped with the
/// kernel backend that produced it: `"backend"` is the dispatched SIMD
/// backend (`scalar` under `KML_FORCE_SCALAR=1`) and `"q8"` whether the
/// int8 serving engine's vector fast path is live on it — so downstream
/// consumers can segment result lines by code path without re-deriving
/// host capabilities.
fn write_json_results(name: &str, json_lines: &str) -> Result<std::path::PathBuf, std::io::Error> {
    let backend = kml_telemetry::json_str(kml_core::simd::backend_name());
    let q8 = kml_core::simd::q8_vector_active();
    let mut out = String::with_capacity(json_lines.len());
    for line in json_lines.lines() {
        if let Some(rest) = line.strip_prefix('{') {
            out.push_str(&format!("{{\"backend\":{backend},\"q8\":{q8},{rest}\n"));
        } else if !line.is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    bench::write_results(name, &out)
}

/// E10 — fleet-scale serving: thousands of seed-derived tenants sharing
/// one batched-inference model server (DESIGN.md §9).
fn cmd_fleet(cfg: &LoopConfig, quick: bool, json: bool) -> DynResult {
    use kml_fleet::fleet::{kind_name, workload_name};
    use kml_fleet::{run_fleet, FleetConfig};

    println!("## E10: multi-tenant fleet serving (DESIGN.md §9)\n");
    let fleet_cfg = if quick {
        FleetConfig {
            tenants: 2_048,
            rounds: 4,
            ..FleetConfig::default()
        }
    } else {
        FleetConfig {
            tenants: 8_192,
            rounds: 6,
            ..FleetConfig::default()
        }
    };

    // Train the three shared classifiers the server deploys — the same
    // recipes the per-subsystem experiments use, f32-deployed like the
    // paper's kernel modules.
    let t0 = Instant::now();
    eprintln!("[training the three fleet classifiers]");
    let models = trained_fleet_models(cfg)?;
    eprintln!("[trained in {:.1?}]", t0.elapsed());

    let report = run_fleet(&fleet_cfg, models)?;
    let s = &report.summary;

    let mean_batch = if s.forward_passes == 0 {
        0.0
    } else {
        s.decisions_returned as f64 / s.forward_passes as f64
    };
    let summary_rows = vec![
        vec!["tenants".into(), s.tenants.to_string()],
        vec!["serving rounds".into(), s.rounds.to_string()],
        vec!["shards".into(), s.shards.to_string()],
        vec!["windows submitted".into(), s.windows_submitted.to_string()],
        vec![
            "decisions returned".into(),
            s.decisions_returned.to_string(),
        ],
        vec!["model forward passes".into(), s.forward_passes.to_string()],
        vec!["mean batch size".into(), format!("{mean_batch:.1}")],
        vec!["tenant ops recorded".into(), s.latency.count.to_string()],
        vec!["op latency p50".into(), format!("{} ns", s.latency.p50)],
        vec!["op latency p99".into(), format!("{} ns", s.latency.p99)],
        vec!["op latency max".into(), format!("{} ns", s.latency.max)],
    ];
    let mut table = bench::render_table(&["metric", "value"], &summary_rows);
    table.push('\n');

    let kind_rows: Vec<Vec<String>> = (0..3)
        .map(|i| {
            vec![
                kind_name(i).into(),
                s.kind_counts[i].to_string(),
                s.decisions_applied[i].to_string(),
            ]
        })
        .collect();
    table.push_str(&bench::render_table(
        &["model", "tenants", "decisions applied"],
        &kind_rows,
    ));
    table.push('\n');

    let workload_rows: Vec<Vec<String>> = (0..7)
        .map(|i| vec![workload_name(i).into(), s.workload_counts[i].to_string()])
        .collect();
    table.push_str(&bench::render_table(
        &["workload (Zipf popularity order)", "tenants"],
        &workload_rows,
    ));
    table.push('\n');

    let batch_rows: Vec<Vec<String>> = s
        .batch_sizes
        .iter()
        .map(|&(size, n)| vec![size.to_string(), n.to_string()])
        .collect();
    table.push_str(&bench::render_table(
        &["batch size", "batches"],
        &batch_rows,
    ));

    println!("{table}");
    // Wall-clock throughput is machine-dependent by nature: stdout only,
    // never in the byte-compared results files.
    println!(
        "tuner-decision throughput: {:.0} tenant-windows/sec (wall {:.2}s)",
        report.tenant_windows_per_sec(),
        report.wall_secs
    );
    // Phase spans recorded by the fleet engine. These are wall-clock
    // facts (and overlap by design), so they are stdout-only too. Only
    // `run_fleet` records these histograms, so the global registry holds
    // exactly this run's rounds.
    let snap = kml_telemetry::Registry::global().snapshot();
    let pool_workers = snap.gauge("kml.pool_workers").unwrap_or(0);
    println!("phase breakdown ({} pool workers):", pool_workers);
    for (label, name) in [
        (
            "run   (round start -> last shard simulated)",
            "fleet.phase_run_ns",
        ),
        (
            "serve (round start -> last chunk applied)  ",
            "fleet.phase_serve_ns",
        ),
        (
            "apply (summed in-worker scatter time)      ",
            "fleet.phase_apply_ns",
        ),
    ] {
        if let Some(h) = snap.histogram(name) {
            println!(
                "  {label}: mean {:8.2} ms/round, p99 {:8.2} ms, max {:8.2} ms",
                h.mean() / 1e6,
                h.p99 as f64 / 1e6,
                h.max as f64 / 1e6
            );
        }
    }
    println!(
        "Shape: every submitted window is answered exactly once; batching\n\
         collapses ~{}x forward passes into {} and changes nothing else.\n",
        s.decisions_returned
            .checked_div(s.forward_passes)
            .unwrap_or(0),
        s.forward_passes
    );
    let path = bench::write_results("e10_fleet.txt", &table)?;
    println!("written to {}\n", path.display());

    if json {
        let mut json_lines = format!(
            "{{\"schema\":\"fleet\",\"experiment\":\"e10_fleet\",\"tenants\":{},\"rounds\":{},\"shards\":{},\"windows_submitted\":{},\"decisions_returned\":{},\"forward_passes\":{},\"latency_count\":{},\"latency_p50_ns\":{},\"latency_p95_ns\":{},\"latency_p99_ns\":{},\"latency_max_ns\":{}}}\n",
            s.tenants,
            s.rounds,
            s.shards,
            s.windows_submitted,
            s.decisions_returned,
            s.forward_passes,
            s.latency.count,
            s.latency.p50,
            s.latency.p95,
            s.latency.p99,
            s.latency.max,
        );
        for i in 0..3 {
            json_lines.push_str(&format!(
                "{{\"schema\":\"fleet\",\"experiment\":\"e10_fleet\",\"model\":{},\"tenants\":{},\"decisions_applied\":{}}}\n",
                kml_telemetry::json_str(kind_name(i)),
                s.kind_counts[i],
                s.decisions_applied[i],
            ));
        }
        for i in 0..7 {
            json_lines.push_str(&format!(
                "{{\"schema\":\"fleet\",\"experiment\":\"e10_fleet\",\"workload\":{},\"tenants\":{}}}\n",
                kml_telemetry::json_str(workload_name(i)),
                s.workload_counts[i],
            ));
        }
        for &(size, n) in &s.batch_sizes {
            json_lines.push_str(&format!(
                "{{\"schema\":\"fleet\",\"experiment\":\"e10_fleet\",\"batch_size\":{size},\"batches\":{n}}}\n"
            ));
        }
        let jp = write_json_results("e10_fleet.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
        // Phase breakdown: schema-tagged but printed to stdout ONLY —
        // wall-clock timings must never reach the byte-compared results
        // files (CI hashes e10_fleet.jsonl across worker counts).
        for (phase, name) in [
            ("run", "fleet.phase_run_ns"),
            ("serve", "fleet.phase_serve_ns"),
            ("apply", "fleet.phase_apply_ns"),
        ] {
            if let Some(h) = snap.histogram(name) {
                println!(
                    "{{\"schema\":\"fleet_phase\",\"experiment\":\"e10_fleet\",\"phase\":\"{phase}\",\"rounds\":{},\"mean_ns\":{:.0},\"p99_ns\":{},\"max_ns\":{},\"pool_workers\":{pool_workers}}}",
                    h.count,
                    h.mean(),
                    h.p99,
                    h.max,
                );
            }
        }
    }
    Ok(())
}

/// The three f32-deployed classifiers `repro fleet` serves — trained with
/// the same deterministic recipes the per-subsystem experiments use.
fn trained_fleet_models(
    cfg: &LoopConfig,
) -> Result<kml_fleet::FleetModels, Box<dyn std::error::Error>> {
    let data = readahead::datagen::training_dataset(&cfg.datagen)?;
    let ra64 = readahead::model::train_network(&data, cfg.epochs, 7)?;
    let readahead_f32 = {
        let bytes = kml_core::modelfile::encode(&ra64)?;
        kml_core::modelfile::decode::<f32>(&bytes)?
    };
    let iosched_f32 = iosched::SchedTuner::train_model(7)?;
    let netfs_f32 = {
        let bytes = netfs::train_rsize_model(7)?;
        kml_core::modelfile::decode::<f32>(&bytes)?
    };
    Ok(kml_fleet::FleetModels {
        readahead: readahead_f32,
        iosched: iosched_f32,
        netfs: netfs_f32,
    })
}

/// E12 — model lifecycle: versioned `.kmlm` artifacts hot-swapped into a
/// live closed loop, with shadow evaluation, watchdog promotion, and
/// automatic rollback of a regressed generation (DESIGN.md §11).
///
/// The arc is entirely virtual-clock-driven and therefore byte-identical
/// at any `--threads` count: a sequential reader streams through a cold
/// file while the readahead tuner serves generation 1 (trained to the
/// 1024 KiB class); a behaviourally-equal candidate (same class, distinct
/// seed, bitwise-different weights) rides shadow until the watchdog
/// promotes it after K clean windows; then an operator install pushes a
/// deliberately regressed build (trained to the 16 KiB class), whose
/// actuation collapses streaming throughput until the watchdog rolls the
/// loop back — and the post-rollback windows prove the loop is actuating
/// on the restored generation's decisions.
fn cmd_lifecycle(quick: bool, json: bool, corrupt: bool) -> DynResult {
    use kernel_sim::{Sim, SimConfig, PAGE_SIZE};
    use kml_collect::RingBuffer;
    use kml_lifecycle::{
        load_model_for, ArtifactKind, LifecycleController, LifecycleEvent, WatchdogConfig,
    };
    use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};

    // The two-point policy the DST lifecycle scenarios use: the model's
    // class choice is the whole knob, so a regressed model is visible in
    // throughput within a window or two.
    const POLICY_KB: [u32; 2] = [16, 1024];
    const INITIAL_RA_KB: u32 = 128;
    const WINDOW_NS: u64 = 200_000;
    const OPS_PER_WINDOW: u64 = 48;
    const PAGES_PER_OP: u64 = 4;

    println!("## E12: model lifecycle — hot-swap, shadow, rollback (DESIGN.md §11)\n");

    let epochs = if quick { 60 } else { 160 };
    let t0 = Instant::now();
    eprintln!("[training active / candidate / regressed lifecycle artifacts]");
    // class 1 = 1024 KiB (active and candidate, distinct seeds), class 0
    // = 16 KiB (the regression). Trained in parallel, one artifact per
    // worker; results are collected in spec order, so the artifacts
    // don't depend on the worker count.
    let specs: [(usize, u64); 3] = [(1, 11), (1, 23), (0, 37)];
    let trained = threading::pool_map(&specs, threading::default_workers(), |_, &(class, seed)| {
        lifecycle_artifact(class, POLICY_KB.len(), seed, epochs)
    });
    let mut it = trained.into_iter();
    let active = it.next().expect("3 specs")?;
    let candidate = it.next().expect("3 specs")?;
    let regressed = it.next().expect("3 specs")?;
    eprintln!("[trained in {:.1?}]", t0.elapsed());

    if corrupt {
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
    let mut sim = Sim::new(SimConfig {
        device: DeviceProfile::nvme(),
        cache_pages: 4_096,
        default_ra_kb: INITIAL_RA_KB,
        ..SimConfig::default()
    });
    let (producer, consumer) = RingBuffer::with_capacity(4_096).split();
    sim.attach_trace(producer);
    let file_pages: u64 = 1 << 16;
    let file = sim.create_file(file_pages);
    let gen1 = load_model_for::<f32>(&active, ArtifactKind::Readahead)?;
    let mut tuner = KmlTuner::new(
        TunerModel::NeuralNet(Box::new(gen1.model)),
        RaPolicy::new(POLICY_KB.to_vec()),
        consumer,
        WINDOW_NS,
        INITIAL_RA_KB,
    );
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

    let mut cursor: u64 = 0;
    let run_window = |sim: &mut Sim, tuner: &mut KmlTuner, cursor: &mut u64| -> DynResult2<f64> {
        let start = sim.now_ns();
        for _ in 0..OPS_PER_WINDOW {
            if *cursor + PAGES_PER_OP > file_pages {
                *cursor = 0;
            }
            sim.read(file, *cursor, PAGES_PER_OP)?;
            *cursor += PAGES_PER_OP;
            tuner.on_op(sim)?;
        }
        let dt = (sim.now_ns() - start).max(1);
        // bytes / ns → MB per virtual second.
        Ok((OPS_PER_WINDOW * PAGES_PER_OP * PAGE_SIZE) as f64 * 1e3 / dt as f64)
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut w = 0u64;
    let push_row = |rows: &mut Vec<Vec<String>>,
                    w: u64,
                    phase: &str,
                    generation: u64,
                    ra_kb: u32,
                    mbps: f64,
                    event: String| {
        rows.push(vec![
            w.to_string(),
            phase.into(),
            generation.to_string(),
            ra_kb.to_string(),
            format!("{mbps:.1}"),
            event,
        ]);
    };

    // Phase 1 — generation 1 serves and the loop settles on its class.
    for _ in 0..3 {
        w += 1;
        let tp = run_window(&mut sim, &mut tuner, &mut cursor)?;
        controller.observe_window(&mut tuner, tp)?;
        push_row(
            &mut rows,
            w,
            "serve",
            tuner.model_generation(),
            tuner.current_ra_kb(),
            tp,
            String::new(),
        );
    }

    // Phase 2 — stage the candidate; the watchdog promotes it after K
    // clean windows, freezing its shadow agreement at promotion time.
    controller.stage_shadow(&mut tuner, candidate.clone())?;
    let mut promoted: Option<(u64, u64, u64, f64)> = None;
    for _ in 0..8 {
        w += 1;
        let tp = run_window(&mut sim, &mut tuner, &mut cursor)?;
        let ev = controller.observe_window(&mut tuner, tp)?;
        let note = match ev {
            Some(LifecycleEvent::Promoted {
                from,
                to,
                agreement_pct,
            }) => {
                promoted = Some((w, from, to, agreement_pct));
                format!("promoted {from}→{to} (agreement {agreement_pct:.1}%)")
            }
            _ => String::new(),
        };
        push_row(
            &mut rows,
            w,
            "shadow",
            tuner.model_generation(),
            tuner.current_ra_kb(),
            tp,
            note,
        );
        if promoted.is_some() {
            break;
        }
    }
    let (promote_window, promote_from, gen2, agreement_pct) =
        promoted.ok_or("the watchdog never promoted the staged candidate")?;

    // Phase 3 — the promoted generation serves (and re-baselines).
    for _ in 0..2 {
        w += 1;
        let tp = run_window(&mut sim, &mut tuner, &mut cursor)?;
        controller.observe_window(&mut tuner, tp)?;
        push_row(
            &mut rows,
            w,
            "serve",
            tuner.model_generation(),
            tuner.current_ra_kb(),
            tp,
            String::new(),
        );
    }

    // Phase 4 — operator-push the regressed build; its 16 KiB actuation
    // collapses the stream and the watchdog rolls the loop back.
    let gen3 = controller.install(&mut tuner, regressed.clone())?;
    let mut rolled: Option<(u64, u64, u64)> = None;
    for _ in 0..10 {
        w += 1;
        let tp = run_window(&mut sim, &mut tuner, &mut cursor)?;
        let ev = controller.observe_window(&mut tuner, tp)?;
        let note = match ev {
            Some(LifecycleEvent::RolledBack { from, to }) => {
                rolled = Some((w, from, to));
                format!("rolled back {from}→{to}")
            }
            _ => String::new(),
        };
        push_row(
            &mut rows,
            w,
            "regressed",
            tuner.model_generation(),
            tuner.current_ra_kb(),
            tp,
            note,
        );
        if rolled.is_some() {
            break;
        }
    }
    let (rollback_window, rollback_from, rollback_to) =
        rolled.ok_or("the watchdog never rolled back the regressed generation")?;
    if rollback_from != gen3 || rollback_to != gen2 {
        return Err(format!(
            "rollback restored generation {rollback_to} from {rollback_from} \
             (expected {gen3}→{gen2})"
        )
        .into());
    }
    if tuner.model_generation() != gen2 {
        return Err(format!(
            "after rollback the loop holds generation {} (expected {gen2})",
            tuner.model_generation()
        )
        .into());
    }

    // Phase 5 — the proof windows: every decision the loop takes after
    // the rollback is tagged with the restored generation, and the knob
    // recovers to the healthy class.
    let decisions_before = tuner.decisions().len();
    for _ in 0..3 {
        w += 1;
        let tp = run_window(&mut sim, &mut tuner, &mut cursor)?;
        controller.observe_window(&mut tuner, tp)?;
        push_row(
            &mut rows,
            w,
            "restored",
            tuner.model_generation(),
            tuner.current_ra_kb(),
            tp,
            String::new(),
        );
    }
    let fresh = &tuner.decisions()[decisions_before..];
    if fresh.is_empty() {
        return Err("no tuner decisions in the post-rollback proof windows".into());
    }
    if let Some(d) = fresh.iter().find(|d| d.generation != gen2) {
        return Err(format!(
            "post-rollback decision tagged generation {} (expected {gen2})",
            d.generation
        )
        .into());
    }
    let final_ra = tuner.current_ra_kb();
    if final_ra != 1024 {
        return Err(format!(
            "loop did not re-actuate 1024 KiB after the rollback (holds {final_ra})"
        )
        .into());
    }

    let mut table = bench::render_table(
        &[
            "window",
            "phase",
            "gen",
            "ra KiB",
            "MB/s (virtual)",
            "event",
        ],
        &rows,
    );
    table.push('\n');
    table.push_str(&format!(
        "promoted:    candidate {promote_from}→{gen2} at window {promote_window} \
         after {} clean windows (shadow agreement {agreement_pct:.1}%)\n\
         rolled back: {rollback_from}→{rollback_to} at window {rollback_window} \
         after {} regressed windows\n\
         restored:    {} post-rollback decisions all tagged generation {gen2}; \
         readahead re-actuated to {final_ra} KiB\n",
        cfg.promote_after,
        cfg.regress_windows,
        fresh.len(),
    ));
    println!("{table}");
    let path = bench::write_results("e12_lifecycle.txt", &table)?;
    println!("written to {}\n", path.display());

    if json {
        let mut json_lines = String::new();
        for r in &rows {
            json_lines.push_str(&format!(
                "{{\"schema\":\"lifecycle\",\"experiment\":\"e12_lifecycle\",\"window\":{},\"phase\":{},\"generation\":{},\"ra_kb\":{},\"mbps\":{},\"event\":{}}}\n",
                r[0],
                kml_telemetry::json_str(&r[1]),
                r[2],
                r[3],
                r[4],
                kml_telemetry::json_str(&r[5]),
            ));
        }
        json_lines.push_str(&format!(
            "{{\"schema\":\"lifecycle\",\"experiment\":\"e12_lifecycle\",\"promoted_window\":{promote_window},\"agreement_pct\":{agreement_pct:.1},\"rollback_window\":{rollback_window},\"restored_generation\":{gen2},\"final_ra_kb\":{final_ra},\"post_rollback_decisions\":{}}}\n",
            fresh.len(),
        ));
        let jp = write_json_results("e12_lifecycle.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

type DynResult2<T> = Result<T, Box<dyn std::error::Error>>;

/// Trains one constant-class lifecycle artifact: the paper topology fit
/// to a single-label dataset over seed-derived feature rows (the spread
/// keeps the normalizer healthy; the constant label makes the model's
/// class choice independent of the window it sees), f32-deployed through
/// the model file and packaged as checksummed `.kmlm` bytes. String
/// errors so the trainer can cross `pool_map`'s `Send` boundary.
fn lifecycle_artifact(
    class: usize,
    classes: usize,
    seed: u64,
    epochs: usize,
) -> Result<Vec<u8>, String> {
    use kml_core::dataset::{Dataset, Normalizer};
    use kml_core::loss::CrossEntropyLoss;
    use kml_core::model::ModelBuilder;
    use kml_core::optimizer::Sgd;
    use kml_core::KmlRng;
    use rand::SeedableRng;

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

    let mut model = ModelBuilder::readahead_paper_topology(readahead::NUM_FEATURES, classes)
        .seed(seed)
        .build::<f64>()
        .map_err(|e| e.to_string())?;
    model.set_normalizer(Normalizer::fit(data.features()).map_err(|e| e.to_string())?);
    let mut sgd = Sgd::paper_defaults();
    let mut rng = KmlRng::seed_from_u64(seed ^ 0xA5A5);
    for _ in 0..epochs {
        model
            .train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)
            .map_err(|e| e.to_string())?;
    }
    let bytes = kml_core::modelfile::encode(&model).map_err(|e| e.to_string())?;
    let mut m32 = kml_core::modelfile::decode::<f32>(&bytes).map_err(|e| e.to_string())?;
    kml_lifecycle::save_model(kml_lifecycle::ArtifactKind::Readahead, &mut m32)
        .map_err(|e| e.to_string())
}

/// E14 — closed-loop online learning (DESIGN.md §13): a live loop served
/// by a constant class-0 model pivots from random to sequential reads;
/// the drift detector fires on the sustained feature shift, the
/// background retrainer trains a candidate from the reservoir, the
/// candidate shadow-stages and earns promotion after clean windows, and
/// every post-promotion decision is stamped with the new generation while
/// the readahead recovers to the sequential class. A control arc without
/// the pivot proves the loop never retrains on a stationary workload.
fn cmd_continual(quick: bool, json: bool) -> DynResult {
    use kernel_sim::{FileId, Sim, SimConfig, PAGE_SIZE};
    use kml_collect::RingBuffer;
    use kml_continual::{
        train_candidate, BackgroundRetrainer, ContinualConfig, ContinualController, DriftConfig,
        ReservoirSample, RetrainMode, RetrainSpec,
    };
    use kml_lifecycle::{ArtifactKind, LifecycleEvent, WatchdogConfig};
    use kml_platform::Persona;
    use readahead::tuner::{KmlTuner, RaPolicy, TunerModel};
    use readahead::WindowMoments;

    const POLICY_KB: [u32; 2] = [16, 1024];
    const INITIAL_RA_KB: u32 = 128;
    const WINDOW_NS: u64 = 200_000;
    const PAGES_PER_OP: u64 = 4;
    const FILE_PAGES: u64 = 1 << 16;
    // Observation windows per phase: enough random windows to freeze the
    // drift reference, enough shifted ones for trigger + retrain +
    // shadow + post-promotion proof.
    const RANDOM_WINDOWS: u64 = 12;
    const SHIFTED_WINDOWS: u64 = 40;

    println!("## E14: continual learning — drift, retrain, earned promotion (DESIGN.md §13)\n");

    // Full-batch steps over a ≤64-sample reservoir — cheap enough that
    // "quick" barely differs, and enough of them that the boundary is
    // actually learned rather than approximated.
    let epochs = if quick { 1_500 } else { 3_000 };
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
    let t0 = Instant::now();
    eprintln!("[training the generation-1 artifact]");
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
    let gen1 = train_candidate(&spec, 0, &gen1_samples)?;
    eprintln!("[trained in {:.1?}]", t0.elapsed());

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

    // One driven loop: a fresh sim + tuner + controller, windows observed
    // through the full reservoir → drift → retrain → watchdog path, the
    // model's decision actuated after observation so a just-promoted
    // generation stamps the very window it won.
    struct Arc14 {
        sim: Sim,
        tuner: KmlTuner,
        controller: Option<ContinualController>,
        file: FileId,
        cursor: u64,
        lcg: u64,
        window_start_ns: u64,
        pages_since: u64,
        moments: WindowMoments,
        rows: Vec<Vec<String>>,
        windows: u64,
        promoted_at: Option<u64>,
        decisions_at_promotion: usize,
    }

    impl Arc14 {
        fn new(gen1: &[u8], cfg: &ContinualConfig, background: bool) -> DynResult2<Self> {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::nvme(),
                cache_pages: 4_096,
                default_ra_kb: INITIAL_RA_KB,
                ..SimConfig::default()
            });
            let (producer, consumer) = RingBuffer::with_capacity(4_096).split();
            sim.attach_trace(producer);
            let file = sim.create_file(FILE_PAGES);
            let mut tuner = KmlTuner::new(
                TunerModel::Remote,
                RaPolicy::new(POLICY_KB.to_vec()),
                consumer,
                WINDOW_NS,
                INITIAL_RA_KB,
            );
            let mode = if background {
                RetrainMode::Background(BackgroundRetrainer::spawn(Persona::Kernel, cfg.spec)?)
            } else {
                RetrainMode::Inline
            };
            let controller = ContinualController::new(*cfg, &mut tuner, gen1.to_vec(), mode)?;
            let window_start_ns = sim.now_ns();
            Ok(Arc14 {
                sim,
                tuner,
                controller: Some(controller),
                file,
                cursor: 0,
                lcg: 0xE14,
                window_start_ns,
                pages_since: 0,
                moments: WindowMoments::default(),
                rows: Vec::new(),
                windows: 0,
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
        fn drive(&mut self, phase: &str, random: bool, until: u64) -> DynResult2<()> {
            let file = self.file;
            while self.windows < until {
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
                self.sim.read(file, page, PAGES_PER_OP)?;
                self.pages_since += PAGES_PER_OP;
                let Some(features) = self.tuner.poll_window(&mut self.sim) else {
                    continue;
                };
                self.windows += 1;
                let now = self.sim.now_ns();
                let dt = (now - self.window_start_ns).max(1);
                let mbps = (self.pages_since * PAGE_SIZE) as f64 * 1e3 / dt as f64;
                self.window_start_ns = now;
                self.pages_since = 0;
                let label = KmlTuner::heuristic_class(&features);
                let phi = self.phi(&features);
                let controller = self.controller.as_mut().expect("not shut down");
                let out = controller.observe_window(&mut self.tuner, &phi, label, mbps)?;
                let mut note = String::new();
                if out.drifted {
                    note = format!("drift (score {:.1})", controller.last_drift_score());
                }
                if out.retrained {
                    note = format!(
                        "{note}{}retrained on {} reservoir samples → staged",
                        if note.is_empty() { "" } else { "; " },
                        controller.reservoir_len()
                    );
                }
                match out.lifecycle {
                    Some(LifecycleEvent::Promoted {
                        from,
                        to,
                        agreement_pct,
                    }) => {
                        self.promoted_at = Some(self.windows);
                        self.decisions_at_promotion = self.tuner.decisions().len();
                        note = format!("promoted {from}→{to} (agreement {agreement_pct:.1}%)");
                    }
                    Some(LifecycleEvent::RolledBack { from, to }) => {
                        note = format!("rolled back {from}→{to}");
                    }
                    None => {}
                }
                let class = self.tuner.predict_active(&phi).map_err(|e| {
                    Box::<dyn std::error::Error>::from(format!("predict failed: {e:?}"))
                })?;
                self.tuner.apply_class(&mut self.sim, class);
                self.rows.push(vec![
                    self.windows.to_string(),
                    phase.into(),
                    self.tuner.model_generation().to_string(),
                    self.tuner.current_ra_kb().to_string(),
                    format!("{mbps:.1}"),
                    note,
                ]);
            }
            Ok(())
        }

        fn shutdown(&mut self) -> DynResult2<()> {
            if let Some(c) = self.controller.take() {
                c.shutdown()?;
            }
            Ok(())
        }
    }

    // The drift arc: random phase, then the pivot — on the background
    // retrainer, the deployed shape (bytes are identical to inline).
    let mut arc = Arc14::new(&gen1, &continual_cfg, true)?;
    arc.drive("random", true, RANDOM_WINDOWS)?;
    arc.drive("shifted", false, RANDOM_WINDOWS + SHIFTED_WINDOWS)?;
    let controller = arc.controller.as_ref().expect("not shut down");
    let (drift_events, retrains, promotions, rollbacks) = (
        controller.drift_events(),
        controller.retrains(),
        controller.promotions(),
        controller.rollbacks(),
    );
    let generation = controller.generation();
    let reservoir_hash = controller.reservoir_hash();
    if promotions == 0 {
        return Err("the shifted arc never promoted a retrained candidate".into());
    }
    if generation != 1 + promotions {
        return Err(format!(
            "active generation {generation} after {promotions} promotions (expected {})",
            1 + promotions
        )
        .into());
    }
    let promoted_at = arc.promoted_at.expect("promotions > 0");
    let fresh = &arc.tuner.decisions()[arc.decisions_at_promotion..];
    if fresh.is_empty() {
        return Err("no decisions in the post-promotion proof windows".into());
    }
    if let Some(d) = fresh.iter().find(|d| d.generation != generation) {
        return Err(format!(
            "post-promotion decision tagged generation {} (expected {generation})",
            d.generation
        )
        .into());
    }
    let fresh_len = fresh.len();
    let final_ra = arc.tuner.current_ra_kb();
    if final_ra != 1024 {
        return Err(format!(
            "loop did not recover the sequential 1024 KiB class (holds {final_ra})"
        )
        .into());
    }
    arc.shutdown()?;

    // The control arc: same loop, same windows, no pivot — the reservoir
    // fills, the detector monitors, and nothing ever fires.
    let mut control = Arc14::new(&gen1, &continual_cfg, false)?;
    control.drive("control", true, RANDOM_WINDOWS + SHIFTED_WINDOWS)?;
    let cctl = control.controller.as_ref().expect("not shut down");
    let control_counts = (
        cctl.drift_events(),
        cctl.retrains(),
        cctl.promotions(),
        cctl.generation(),
    );
    if control_counts != (0, 0, 0, 1) {
        return Err(format!(
            "the no-drift control was not silent: {} drift, {} retrains, {} promotions, generation {}",
            control_counts.0, control_counts.1, control_counts.2, control_counts.3
        )
        .into());
    }
    control.shutdown()?;

    let mut table = bench::render_table(
        &[
            "window",
            "phase",
            "gen",
            "ra KiB",
            "MB/s (virtual)",
            "event",
        ],
        &arc.rows,
    );
    table.push('\n');
    table.push_str(&format!(
        "arc:     {drift_events} drift trigger(s) → {retrains} retrain(s) → \
         {promotions} promotion(s), {rollbacks} rollback(s); promoted at window {promoted_at}\n\
         proof:   {fresh_len} post-promotion decisions all tagged generation {generation}; \
         readahead recovered to {final_ra} KiB\n\
         control: 0 drift, 0 retrains, 0 promotions over {} stationary windows \
         (generation stayed 1)\n\
         reservoir contents hash: {reservoir_hash:#018x}\n",
        RANDOM_WINDOWS + SHIFTED_WINDOWS,
    ));
    println!("{table}");
    let path = bench::write_results("e14_continual.txt", &table)?;
    println!("written to {}\n", path.display());

    if json {
        let mut json_lines = String::new();
        for r in &arc.rows {
            json_lines.push_str(&format!(
                "{{\"schema\":\"continual\",\"experiment\":\"e14_continual\",\"window\":{},\"phase\":{},\"generation\":{},\"ra_kb\":{},\"mbps\":{},\"event\":{}}}\n",
                r[0],
                kml_telemetry::json_str(&r[1]),
                r[2],
                r[3],
                r[4],
                kml_telemetry::json_str(&r[5]),
            ));
        }
        json_lines.push_str(&format!(
            "{{\"schema\":\"continual\",\"experiment\":\"e14_continual\",\"drift_events\":{drift_events},\"retrains\":{retrains},\"promotions\":{promotions},\"rollbacks\":{rollbacks},\"promoted_window\":{promoted_at},\"final_generation\":{generation},\"final_ra_kb\":{final_ra},\"post_promotion_decisions\":{fresh_len},\"control_drift_events\":0,\"control_retrains\":0,\"control_promotions\":0,\"reservoir_hash\":\"{reservoir_hash:#018x}\"}}\n",
        ));
        let jp = write_json_results("e14_continual.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

/// E9 — third use case: the same framework tuning an NFS-like mount's
/// `rsize` over simulated network links (DESIGN.md §8).
fn cmd_netfs(quick: bool, json: bool) -> DynResult {
    use netfs::{NetProfile, NetRunConfig, FIXED_RSIZES_KB};

    println!("## E9: NFS rsize tuning over simulated networks (DESIGN.md §8)\n");
    let cfg = if quick {
        NetRunConfig::quick()
    } else {
        NetRunConfig::paper()
    };
    let t0 = Instant::now();
    eprintln!("[training the rsize link classifier]");
    let model_bytes = netfs::train_rsize_model(7)?;
    eprintln!("[trained in {:.1?}]", t0.elapsed());
    // One profile per task: each comparison builds its own transport, server,
    // and tuner from the profile seed, so fan-out is deterministic and the
    // rows come back in profile order.
    let profiles = NetProfile::experiment_profiles(7);
    let outcomes = threading::pool_map(&profiles, threading::default_workers(), |_, &profile| {
        netfs::compare(profile, &model_bytes, &cfg)
    });
    let mut rows = Vec::new();
    let mut json_lines = String::new();
    let mut speedups = Vec::new();
    for outcome in outcomes {
        let outcome = outcome?;
        let mut row = vec![outcome.profile.to_string()];
        for (_, report) in &outcome.fixed {
            row.push(format!("{:.1}", report.mb_per_sec));
        }
        row.push(format!("{:.1}", outcome.kml.mb_per_sec));
        row.push(format!("{:.2}x", outcome.speedup_vs_best_fixed));
        row.push(outcome.decisions.len().to_string());
        speedups.push(outcome.speedup_vs_best_fixed);
        if json {
            let fixed: Vec<String> = outcome
                .fixed
                .iter()
                .map(|(kb, r)| format!("\"fixed_{kb}k_mb_s\":{:.4}", r.mb_per_sec))
                .collect();
            json_lines.push_str(&format!(
                "{{\"schema\":\"netfs\",\"experiment\":\"e9_netfs\",\"profile\":{},{},\"kml_mb_s\":{:.4},\"speedup_vs_best_fixed\":{:.4},\"decisions\":{},\"retransmits\":{},\"timeouts\":{}}}\n",
                kml_telemetry::json_str(outcome.profile),
                fixed.join(","),
                outcome.kml.mb_per_sec,
                outcome.speedup_vs_best_fixed,
                outcome.decisions.len(),
                outcome.kml.stats.retransmits,
                outcome.kml.stats.timeouts,
            ));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("profile".to_string())
        .chain(FIXED_RSIZES_KB.iter().map(|kb| format!("{kb}K MB/s")))
        .chain([
            "KML MB/s".into(),
            "vs best fixed".into(),
            "decisions".into(),
        ])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = bench::render_table(&header_refs, &rows);
    println!("{table}");
    println!(
        "geomean vs best fixed rsize: {:.2}x\n\
         Shape: on the clean datacenter link every large rsize ties and KML\n\
         matches the best fixed choice; on lossy/phased links no fixed rsize\n\
         wins everywhere and the tuner's per-window switching pulls ahead.\n",
        bench::geometric_mean(&speedups)
    );
    let path = bench::write_results("e9_netfs.txt", &table)?;
    println!("written to {}\n", path.display());
    if json {
        let jp = write_json_results("e9_netfs.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

/// §6 future work — the second use case: the same framework tuning the
/// block layer's request-batching window.
fn cmd_iosched() -> DynResult {
    use iosched::{run_sched_workload, IoScheduler, SchedTuner, SchedWorkload, SchedulerConfig};

    println!("## I/O-scheduler use case (§6 future work)\n");
    const REQUESTS: u64 = 4_096;
    const PATIENT_NS: u64 = 150_000;
    let workloads = [
        SchedWorkload::DependentRandom,
        SchedWorkload::MergeableBurst,
        SchedWorkload::Phased,
    ];
    // Each traffic pattern trains and evaluates its own tuner — independent
    // tasks, deterministic seeds, row order fixed by the workload list.
    let results = threading::pool_map(
        &workloads,
        threading::default_workers(),
        |_, &workload| -> kml_core::Result<Vec<String>> {
            let run_static = |wait| {
                let mut sched = IoScheduler::new(
                    DeviceProfile::sata_ssd(),
                    SchedulerConfig {
                        batch_wait_ns: wait,
                        max_batch: 256,
                    },
                );
                run_sched_workload(&mut sched, workload, REQUESTS, 11, |_, _| {})
            };
            let eager = run_static(0);
            let patient = run_static(PATIENT_NS);
            let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
            let mut tuner = SchedTuner::train([0, PATIENT_NS], 5)?;
            let tuned = run_sched_workload(&mut sched, workload, REQUESTS, 11, |s, req| {
                tuner.on_request(s, req).expect("tuner inference succeeds");
            });
            Ok(vec![
                workload.name().into(),
                format!("{:.0}", eager.requests_per_sec),
                format!("{:.0}", patient.requests_per_sec),
                format!("{:.0}", tuned.requests_per_sec),
                format!("{:.0} ns", tuned.mean_latency_ns),
            ])
        },
    );
    let rows = results.into_iter().collect::<kml_core::Result<Vec<_>>>()?;
    println!(
        "{}",
        bench::render_table(
            &[
                "traffic",
                "eager req/s",
                "patient req/s",
                "KML req/s",
                "KML latency"
            ],
            &rows
        )
    );
    println!(
        "Shape: dependent-random traffic wants the eager config, mergeable\n\
         bursts want the patient one, and the KML tuner tracks the better of\n\
         the two per phase — the readahead result at a different layer.\n"
    );
    Ok(())
}

/// §6 future work — the reinforcement-learning bandit against the
/// supervised tuner and vanilla, with zero training data.
fn cmd_rl(cfg: &LoopConfig) -> DynResult {
    println!("## RL extension: UCB1 bandit tuner (§6 future work)\n");
    let trained = trained_model(cfg)?;
    // The bandit needs windows to explore; give it a longer run.
    let mut rl_cfg = cfg.clone();
    rl_cfg.eval_ops = cfg.eval_ops * 3;
    let mut tasks = Vec::new();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        for workload in [Workload::ReadRandom, Workload::MixGraph] {
            tasks.push((device, workload));
        }
    }
    let results = threading::pool_map(
        &tasks,
        threading::default_workers(),
        |_, &(device, workload)| -> kml_core::Result<Vec<String>> {
            let vanilla = closed_loop::run_vanilla(workload, device, &rl_cfg);
            let (nn, _) = closed_loop::run_kml(workload, device, trained, &rl_cfg)?;
            let (bandit, _) = closed_loop::run_bandit(workload, device, &rl_cfg);
            Ok(vec![
                format!("{}/{}", workload.name(), device.name),
                format!("{:.2}x", nn.ops_per_sec / vanilla.ops_per_sec),
                format!("{:.2}x", bandit.ops_per_sec / vanilla.ops_per_sec),
            ])
        },
    );
    let rows = results.into_iter().collect::<kml_core::Result<Vec<_>>>()?;
    println!(
        "{}",
        bench::render_table(&["workload/device", "supervised NN", "RL bandit"], &rows)
    );
    println!(
        "The bandit needs no training data or workload classes — it pays for\n\
         that with exploration windows, so the supervised tuner converges\n\
         faster on known workloads while the bandit generalizes to anything.\n"
    );
    Ok(())
}

/// E1 — §4 "Studying the problem".
fn cmd_study(cfg: &LoopConfig) -> DynResult {
    println!("## E1: readahead-vs-throughput study (§4, motivating curves)\n");
    let workloads = Workload::training_set();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        let study = ReadaheadStudy::run(device, &workloads, &cfg.study);
        let mut rows = Vec::new();
        let mut csv_rows = Vec::new();
        for w in workloads {
            for cell in study.curve(w) {
                csv_rows.push(vec![
                    w.name().into(),
                    cell.ra_kb.to_string(),
                    format!("{:.0}", cell.ops_per_sec),
                ]);
            }
            let best = study.best_ra_kb(w);
            let best_tp = study.throughput(w, best).unwrap_or(0.0);
            let default_tp = nearest_throughput(&study, w, VANILLA_RA_KB);
            rows.push(vec![
                w.name().into(),
                format!("{best}"),
                format!("{best_tp:.0}"),
                format!("{default_tp:.0}"),
                format!("{:.2}x", best_tp / default_tp.max(1e-9)),
            ]);
        }
        println!("### device: {}\n", device.name);
        println!(
            "{}",
            bench::render_table(
                &[
                    "workload",
                    "best ra (KiB)",
                    "ops/s @ best",
                    "ops/s @ 128KiB",
                    "headroom"
                ],
                &rows
            )
        );
        let csv = bench::to_csv(&["workload", "ra_kb", "ops_per_sec"], &csv_rows);
        let path = bench::write_results(&format!("e1_study_{}.csv", device.name), &csv)?;
        println!("curves written to {}\n", path.display());
    }
    println!(
        "Shape check (paper): no single readahead value maximizes throughput\n\
         for all workloads; sequential prefers large values, random small.\n"
    );
    Ok(())
}

fn nearest_throughput(study: &ReadaheadStudy, w: Workload, ra_kb: u32) -> f64 {
    study.throughput(w, ra_kb).unwrap_or_else(|| {
        // Sweep may not contain the exact default; take the closest cell.
        study
            .curve(w)
            .iter()
            .min_by_key(|c| c.ra_kb.abs_diff(ra_kb))
            .map(|c| c.ops_per_sec)
            .unwrap_or(0.0)
    })
}

/// E2 — k-fold cross-validation accuracy.
fn cmd_accuracy(cfg: &LoopConfig) -> DynResult {
    println!("## E2: readahead NN k-fold cross-validation (§4)\n");
    let trained = trained_model(cfg)?;
    let cv = &trained.cross_validation;
    for (i, acc) in cv.fold_accuracies.iter().enumerate() {
        println!("fold {i}: {:.1}%", acc * 100.0);
    }
    println!(
        "\nmean accuracy: {:.1}% (± {:.1}%)   [paper: 95.5% at k=10]\n",
        cv.mean_accuracy() * 100.0,
        cv.std_accuracy() * 100.0
    );
    Ok(())
}

/// E3 — Table 2.
fn cmd_table2(cfg: &LoopConfig, json: bool) -> DynResult {
    println!("## E3: Table 2 — KML readahead NN speedups\n");
    let trained = trained_model(cfg)?;
    // One independent closed-loop comparison per (workload, device) cell,
    // fanned out across the worker pool; results come back in grid order so
    // the table and JSON-lines match a sequential run byte for byte.
    let mut tasks = Vec::new();
    for workload in Workload::all() {
        for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
            tasks.push((workload, device));
        }
    }
    let outcomes = threading::pool_map(
        &tasks,
        threading::default_workers(),
        |_, &(workload, device)| closed_loop::compare(workload, device, trained, cfg),
    );
    let mut rows = Vec::new();
    let mut nvme_speedups = Vec::new();
    let mut ssd_speedups = Vec::new();
    let mut json_lines = String::new();
    let mut grid = outcomes.into_iter();
    for workload in Workload::all() {
        let mut row = vec![workload.name().to_string()];
        let mut cells = Vec::new();
        for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
            let outcome = grid.next().expect("one outcome per grid cell")?;
            row.push(format!("{:.2}x", outcome.speedup));
            cells.push(outcome.speedup);
            if device.name == "nvme" {
                nvme_speedups.push(outcome.speedup);
            } else {
                ssd_speedups.push(outcome.speedup);
            }
        }
        json_lines.push_str(&format!(
            "{{\"schema\":\"table2\",\"experiment\":\"e3_table2\",\"workload\":{},\"nvme_speedup\":{:.4},\"ssd_speedup\":{:.4}}}\n",
            kml_telemetry::json_str(workload.name()),
            cells[0],
            cells[1],
        ));
        rows.push(row);
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:.2}x", bench::geometric_mean(&nvme_speedups)),
        format!("{:.2}x", bench::geometric_mean(&ssd_speedups)),
    ]);
    let table = bench::render_table(&["benchmark", "NVMe", "SSD"], &rows);
    println!("{table}");
    println!(
        "Paper Table 2: readseq 0.96/1.02, readrandom 1.65/2.30,\n\
         readreverse 1.04/1.12, readrandomwriterandom 1.55/2.20,\n\
         updaterandom 1.53/2.22, mixgraph 1.51/2.09 (NVMe/SSD).\n\
         Shape: SSD gains exceed NVMe gains; readseq ≈ 1.0x; random/mixed win.\n"
    );
    let path = bench::write_results("e3_table2.txt", &table)?;
    println!("written to {}\n", path.display());
    if json {
        json_lines.push_str(&format!(
            "{{\"schema\":\"table2\",\"experiment\":\"e3_table2\",\"workload\":\"geomean\",\"nvme_speedup\":{:.4},\"ssd_speedup\":{:.4}}}\n",
            bench::geometric_mean(&nvme_speedups),
            bench::geometric_mean(&ssd_speedups),
        ));
        let jp = write_json_results("e3_table2.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

/// E4 — Figure 2 timeline.
fn cmd_figure2(cfg: &LoopConfig) -> DynResult {
    println!("## E4: Figure 2 — mixgraph timeline on NVMe\n");
    let trained = trained_model(cfg)?;
    // The paper runs the benchmark 15 times and averages; we run a smaller
    // ensemble at quick scale.
    let repeats = if cfg.eval_ops <= 10_000 { 3 } else { 5 };
    // Ensemble members are independent runs seeded by repeat index; run them
    // concurrently and keep CSV rows grouped by repeat, as sequentially.
    let reps: Vec<usize> = (0..repeats).collect();
    let outcomes = threading::pool_map(&reps, threading::default_workers(), |_, &rep| {
        let mut run_cfg = cfg.clone();
        run_cfg.seed = cfg.seed + rep as u64;
        closed_loop::compare(Workload::MixGraph, DeviceProfile::nvme(), trained, &run_cfg)
    });
    let mut all_rows = Vec::new();
    let mut speedups = Vec::new();
    for (rep, outcome) in outcomes.into_iter().enumerate() {
        let outcome = outcome?;
        speedups.push(outcome.speedup);
        for p in &outcome.timeline {
            all_rows.push(vec![
                rep.to_string(),
                p.t_ms.to_string(),
                format!("{:.0}", p.ops_per_sec),
                p.ra_kb.to_string(),
                format!("{:.0}", p.infer_ns_mean),
            ]);
        }
    }
    let csv = bench::to_csv(
        &["run", "t_ms", "ops_per_sec", "ra_kb", "infer_ns_mean"],
        &all_rows,
    );
    let path = bench::write_results("e4_figure2.csv", &csv)?;
    println!(
        "{} timeline points over {repeats} runs written to {}",
        all_rows.len(),
        path.display()
    );
    println!(
        "mean mixgraph speedup: {:.2}x   [paper: ~1.51x on NVMe over 15 runs]\n\
         Expect readahead-size fluctuations early in each run (cold caches),\n\
         settling as the classifier locks onto the workload.\n",
        bench::geometric_mean(&speedups)
    );
    Ok(())
}

/// E6 — decision-tree comparison.
fn cmd_dtree(cfg: &LoopConfig, json: bool) -> DynResult {
    println!("## E6: decision-tree tuner vs neural network (§4)\n");
    let trained = trained_model(cfg)?;
    let mut rows = Vec::new();
    let mut nn_means = Vec::new();
    let mut dt_means = Vec::new();
    let mut json_lines = String::new();
    for device in [DeviceProfile::nvme(), DeviceProfile::sata_ssd()] {
        // vanilla / NN / tree triples per workload are independent cells.
        let workloads = Workload::all();
        let triples = threading::pool_map(
            &workloads,
            threading::default_workers(),
            |_, &workload| -> kml_core::Result<(f64, f64)> {
                let vanilla = closed_loop::run_vanilla(workload, device, cfg);
                let (nn, _) = closed_loop::run_kml(workload, device, trained, cfg)?;
                let (dt, _) = closed_loop::run_kml_tree(workload, device, trained, cfg)?;
                Ok((
                    nn.ops_per_sec / vanilla.ops_per_sec,
                    dt.ops_per_sec / vanilla.ops_per_sec,
                ))
            },
        );
        let mut nn_speedups = Vec::new();
        let mut dt_speedups = Vec::new();
        for triple in triples {
            let (nn, dt) = triple?;
            nn_speedups.push(nn);
            dt_speedups.push(dt);
        }
        let nn_mean = bench::geometric_mean(&nn_speedups);
        let dt_mean = bench::geometric_mean(&dt_speedups);
        rows.push(vec![
            device.name.into(),
            format!("{:.2}x", nn_mean),
            format!("{:.2}x", dt_mean),
        ]);
        json_lines.push_str(&format!(
            "{{\"schema\":\"dtree\",\"experiment\":\"e6_dtree\",\"device\":{},\"nn_geomean\":{:.4},\"dtree_geomean\":{:.4},\"tree_training_accuracy\":{:.4}}}\n",
            kml_telemetry::json_str(device.name),
            nn_mean,
            dt_mean,
            trained.tree_training_accuracy,
        ));
        nn_means.push(nn_mean);
        dt_means.push(dt_mean);
    }
    println!(
        "{}",
        bench::render_table(&["device", "NN geomean", "DTree geomean"], &rows)
    );
    println!(
        "tree training accuracy: {:.1}%\n\
         Paper: DT improved SSD 55% / NVMe 26% on average — inferior to the NN.\n",
        trained.tree_training_accuracy * 100.0
    );
    if json {
        let jp = write_json_results("e6_dtree.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

/// E5 — §4 overhead micro-numbers (wall-clock; see also `cargo bench`).
fn cmd_overheads(cfg: &LoopConfig, json: bool) -> DynResult {
    use kml_collect::RingBuffer;
    use kml_core::loss::{CrossEntropyLoss, Loss, TargetRef};
    use kml_core::matrix::Matrix;
    use kml_core::optimizer::Sgd;
    use readahead::FeatureExtractor;

    println!("## E5: KML overheads (§4)\n");
    let trained = trained_model(cfg)?;

    // Data collection: ring push + feature fold, per tracepoint record.
    let (producer, mut consumer) = RingBuffer::with_capacity(1 << 16).split();
    let mut fx = FeatureExtractor::new();
    let record = kernel_sim::TraceRecord {
        kind: kernel_sim::TraceKind::AddToPageCache,
        inode: 3,
        page_offset: 12345,
        time_ns: 0,
    };
    const N: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        let mut r = record;
        r.page_offset = i;
        producer.push(r);
        if i % 512 == 0 {
            while let Some(rec) = consumer.pop() {
                fx.push(&rec);
            }
        }
    }
    while let Some(rec) = consumer.pop() {
        fx.push(&rec);
    }
    let collect_ns = t0.elapsed().as_nanos() as f64 / N as f64;

    // Inference: one feature vector through the deployed f32 network.
    let mut network = {
        let bytes = kml_core::modelfile::encode(&trained.network)?;
        kml_core::modelfile::decode::<f32>(&bytes)?
    };
    let features = [5_000.0, 3_000.0, 1_800.0, 500.0, 128.0];
    let reps = 20_000;
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        sink = sink.wrapping_add(network.predict(&features)?);
    }
    let infer_ns = t0.elapsed().as_nanos() as f64 / reps as f64;

    // Training iteration: one batch forward+backward+SGD step (f64, as the
    // paper trains in user space).
    let data = readahead::datagen::training_dataset(&cfg.datagen)?;
    let mut train_model = readahead::model::train_network(&data, 1, 7)?;
    let mut sgd = Sgd::paper_defaults();
    let batch: Vec<Vec<f64>> = (0..16)
        .map(|i| data.sample(i % data.len()).0.to_vec())
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| data.sample(i % data.len()).1).collect();
    let input = Matrix::<f64>::from_rows(&batch)?;
    let reps = 5_000;
    let t0 = Instant::now();
    for _ in 0..reps {
        train_model.train_batch(
            &input,
            TargetRef::Classes(&labels),
            &CrossEntropyLoss,
            &mut sgd,
        )?;
    }
    let train_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let _ = CrossEntropyLoss.tag(); // keep the import honest
    std::hint::black_box(sink);

    // Blocked-GEMM throughput: the 128³ f32 `matmul_into` in GFLOP/s, the
    // same shape the `kernels` bench gates against its committed floor.
    let gemm_dim = 128usize;
    let square = |seed: u64| -> Result<Matrix<f32>, Box<dyn std::error::Error>> {
        let vals: Vec<f64> = (0..gemm_dim * gemm_dim)
            .map(|i| ((i as u64).wrapping_mul(seed) % 97) as f64 * 0.02 - 0.97)
            .collect();
        Ok(Matrix::from_f64_vec(gemm_dim, gemm_dim, &vals)?)
    };
    let (ga, gb) = (square(37)?, square(53)?);
    let mut gout = Matrix::zeros(gemm_dim, gemm_dim);
    ga.matmul_into(&gb, &mut gout)?; // size the output once
    let reps = 50;
    let t0 = Instant::now();
    for _ in 0..reps {
        ga.matmul_into(&gb, &mut gout)?;
    }
    let gemm_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let matmul_gflops = 2.0 * (gemm_dim as f64).powi(3) / gemm_ns;
    std::hint::black_box(gout.get(0, 0));

    let rows = vec![
        vec![
            "data collection + normalization".into(),
            format!("{collect_ns:.0} ns/event"),
            "49 ns".into(),
        ],
        vec![
            "inference".into(),
            format!("{infer_ns:.0} ns"),
            "21000 ns".into(),
        ],
        vec![
            "training iteration (batch 16)".into(),
            format!("{train_ns:.0} ns"),
            "51000 ns".into(),
        ],
        vec![
            "blocked matmul 128³ (f32)".into(),
            format!("{matmul_gflops:.2} GFLOP/s"),
            "—".into(),
        ],
        vec![
            "model init memory".into(),
            format!("{} bytes", network.init_memory_bytes()),
            "3916 bytes".into(),
        ],
        vec![
            "inference scratch memory (analytic)".into(),
            format!("{} bytes", network.inference_scratch_bytes()),
            "676 bytes".into(),
        ],
        vec![
            "inference scratch memory (measured arena high-water)".into(),
            format!("{} bytes", network.measured_scratch_bytes()),
            "676 bytes".into(),
        ],
    ];
    let table = bench::render_table(&["metric", "measured", "paper"], &rows);
    println!("{table}");
    println!(
        "Shape: collection ≪ inference < training; model memory ~4 KB.\n\
         (Absolute numbers depend on the host CPU; run `cargo bench -p bench`\n\
         for statistically rigorous versions of the same measurements.)\n"
    );
    let path = bench::write_results("e5_overheads.txt", &table)?;
    println!("written to {}\n", path.display());

    // In-loop self-measurement: the offline numbers above time the
    // primitives in isolation; the telemetry subsystem measures the same
    // stages *inside* a live closed-loop run, per-stage span histograms and
    // all. Both views should agree on the shape (collect ≪ infer ≪ train).
    println!("### E5b: in-loop self-measurement (kml-telemetry spans)\n");
    let run = closed_loop::run_kml_instrumented(
        Workload::ReadRandom,
        DeviceProfile::sata_ssd(),
        trained,
        cfg,
    )?;
    let snap = &run.telemetry;
    println!("{}", snap.render_table());
    if let Some(h) = snap.histogram("readahead.loop.infer_ns") {
        println!(
            "in-loop inference: median {} ns over {} decisions \
             (offline micro-bench above: {:.0} ns)",
            h.p50, h.count, infer_ns
        );
    }
    println!("ring records dropped during run: {}\n", run.ring_dropped);

    if json {
        let mut json_lines = String::new();
        for (metric, value, unit) in [
            ("collect_per_event", collect_ns, "ns"),
            ("inference", infer_ns, "ns"),
            ("train_batch16", train_ns, "ns"),
            ("train_ns_mean", train_ns, "ns"),
            ("matmul_gflops", matmul_gflops, "gflops"),
            (
                "model_init_memory",
                network.init_memory_bytes() as f64,
                "bytes",
            ),
            (
                "inference_scratch_memory",
                network.inference_scratch_bytes() as f64,
                "bytes",
            ),
            (
                "measured_scratch_high_water",
                network.measured_scratch_bytes() as f64,
                "bytes",
            ),
        ] {
            json_lines.push_str(&format!(
                "{{\"schema\":\"overheads\",\"experiment\":\"e5_overheads\",\"metric\":{},\"value\":{:.1},\"unit\":{}}}\n",
                kml_telemetry::json_str(metric),
                value,
                kml_telemetry::json_str(unit),
            ));
        }
        json_lines.push_str(&with_schema(&snap.to_json_lines("e5_inloop"), "overheads"));
        let jp = write_json_results("e5_overheads.jsonl", &json_lines)?;
        println!("json-lines written to {}\n", jp.display());
    }
    Ok(())
}

/// Ablations from DESIGN.md §5 that are cheap enough to run here:
/// feature-window length and activation function.
fn cmd_ablate(cfg: &LoopConfig) -> DynResult {
    use kml_core::dataset::Normalizer;
    use kml_core::loss::CrossEntropyLoss;
    use kml_core::model::ModelBuilder;
    use kml_core::optimizer::Sgd;
    use kml_core::KmlRng;
    use rand::SeedableRng;

    println!("## Ablations (DESIGN.md §5)\n");

    // Window length: collect with different windows, compare NN accuracy.
    println!("### feature-window length\n");
    let mut rows = Vec::new();
    let base = cfg.datagen.window_ns;
    for window_ns in [base / 4, base, base * 4] {
        let mut dcfg = cfg.datagen.clone();
        dcfg.window_ns = window_ns;
        let data = readahead::datagen::training_dataset(&dcfg)?;
        let mut model = readahead::model::train_network(&data, cfg.epochs, 11)?;
        let acc = model.accuracy(&data)?;
        rows.push(vec![
            format!("{:.1} ms", window_ns as f64 / 1e6),
            data.len().to_string(),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["window", "samples", "train accuracy"], &rows)
    );

    // Activation: sigmoid (paper) vs relu vs tanh on the same data.
    println!("### activation function\n");
    let data = readahead::datagen::training_dataset(&cfg.datagen)?;
    let mut rows = Vec::new();
    for (name, builder) in [
        (
            "sigmoid (paper)",
            ModelBuilder::new(5)
                .linear(15)
                .sigmoid()
                .linear(10)
                .sigmoid()
                .linear(4),
        ),
        (
            "relu",
            ModelBuilder::new(5)
                .linear(15)
                .relu()
                .linear(10)
                .relu()
                .linear(4),
        ),
        (
            "tanh",
            ModelBuilder::new(5)
                .linear(15)
                .tanh()
                .linear(10)
                .tanh()
                .linear(4),
        ),
    ] {
        let mut model = builder.seed(13).build::<f64>()?;
        model.set_normalizer(Normalizer::fit(data.features())?);
        let mut sgd = Sgd::paper_defaults();
        let mut rng = KmlRng::seed_from_u64(17);
        let mut final_loss = f64::NAN;
        for _ in 0..cfg.epochs {
            final_loss = model.train_epoch(&data, &CrossEntropyLoss, &mut sgd, &mut rng)?;
        }
        let acc = model.accuracy(&data)?;
        rows.push(vec![
            name.into(),
            format!("{final_loss:.3}"),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["activation", "final loss", "train accuracy"], &rows)
    );
    // Hysteresis: the two-window agreement requirement before actuating.
    println!("### actuation hysteresis\n");
    let trained = trained_model(cfg)?;
    let mut rows = Vec::new();
    for workload in [Workload::ReadRandom, Workload::MixGraph] {
        let vanilla =
            closed_loop::run_vanilla(workload, DeviceProfile::sata_ssd(), &trained_cfg(cfg));
        let (with, _) = closed_loop::run_kml(workload, DeviceProfile::sata_ssd(), trained, cfg)?;
        let (without, _) =
            closed_loop::run_kml_no_hysteresis(workload, DeviceProfile::sata_ssd(), trained, cfg)?;
        rows.push(vec![
            workload.name().into(),
            format!("{:.2}x", with.ops_per_sec / vanilla.ops_per_sec),
            format!("{:.2}x", without.ops_per_sec / vanilla.ops_per_sec),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["workload (ssd)", "with hysteresis", "without"], &rows)
    );
    println!("(dtype and ring-buffer ablations: `cargo bench -p bench --bench ablate`)\n");
    Ok(())
}

/// The loop config used for the hysteresis baseline (kept identical to the
/// tuned runs).
fn trained_cfg(cfg: &LoopConfig) -> LoopConfig {
    cfg.clone()
}
