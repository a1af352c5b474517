//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--json] [--threads N] [<experiment> | all]
//! ```
//!
//! Each experiment is one module here and one line in [`EXPERIMENTS`]; an
//! unknown name prints that list and exits 2. `lifecycle --corrupt`
//! instead proves a corrupted artifact is refused with a typed error (the
//! command exits non-zero).
//!
//! `--quick` uses the reduced test-scale configuration (seconds instead of
//! minutes); EXPERIMENTS.md records full-scale output. `--json`
//! additionally writes machine-readable JSON-lines under `results/` for
//! every experiment that has them ([`Out::json`]); every line carries a
//! `schema` field naming its experiment family.
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

mod ablate;
mod accuracy;
mod continual;
mod dtree;
mod figure2;
mod fleet;
mod iosched;
mod lifecycle;
mod netfs;
mod overheads;
mod rig;
mod rl;
mod study;
mod table2;

use kml_platform::threading;
use readahead::model::{train_paper_model, LoopConfig, TrainedReadahead};
use std::time::Instant;

/// An experiment: prints its tables and hands its results files to `Out`.
type Experiment = fn(&Ctx, &mut Out) -> DynResult;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("study", study::run),         // E1: readahead-vs-throughput curves (§4)
    ("accuracy", accuracy::run),   // E2: k-fold cross-validation (§4)
    ("table2", table2::run),       // E3: Table 2, KML speedups on NVMe and SSD
    ("figure2", figure2::run),     // E4: Figure 2, the mixgraph timeline
    ("dtree", dtree::run),         // E6: decision tree vs the NN (§4)
    ("overheads", overheads::run), // E5: §4 micro-overheads
    ("rl", rl::run),               // §6 future work: RL bandit tuner
    ("iosched", iosched::run),     // §6: I/O-scheduler batching tuner
    ("netfs", netfs::run),         // E9: NFS rsize tuning (DESIGN.md §8)
    ("fleet", fleet::run),         // E10: multi-tenant serving (DESIGN.md §9)
    ("lifecycle", lifecycle::run), // E12: hot-swap, shadow, rollback (§11)
    ("continual", continual::run), // E14: drift, retrain, promotion (§13)
    ("ablate", ablate::run),       // DESIGN.md §5 ablations
];

type DynResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    if let Some(n) = parse_threads(&args) {
        // Single knob: route the flag through the env var so library-level
        // sweeps (ReadaheadStudy::run) see the same worker count.
        std::env::set_var(threading::WORKERS_ENV, n.to_string());
    }
    let mut cmd = "all";
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            it.next(); // the flag's value
        } else if !a.starts_with("--") {
            cmd = a;
            break;
        }
    }
    let quick = flag("--quick");
    println!(
        "# KML reproduction harness — {} scale\n",
        if quick { "quick" } else { "full" }
    );
    let ctx = Ctx {
        cfg: if quick {
            LoopConfig::quick()
        } else {
            LoopConfig::default()
        },
        quick,
        // `all` runs the healthy lifecycle arc whatever the flags say.
        corrupt: flag("--corrupt") && cmd != "all",
    };
    let mut out = Out {
        json: flag("--json"),
    };

    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| cmd == "all" || cmd == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment '{cmd}'");
        eprintln!("experiments: {} all", names.join(" "));
        std::process::exit(2);
    }
    for (_, run) in chosen {
        if let Err(e) = run(&ctx, &mut out) {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}

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

/// What every experiment reads: the scale and the flags.
struct Ctx {
    cfg: LoopConfig,
    quick: bool,
    corrupt: bool,
}

impl Ctx {
    /// Trains once per process: `repro all` runs several experiments that
    /// all deploy the same (deterministic) models, so the result is shared.
    fn trained(&self) -> DynResult<&'static TrainedReadahead> {
        use std::sync::OnceLock;
        static CELL: OnceLock<TrainedReadahead> = OnceLock::new();
        if CELL.get().is_none() {
            let trained = training("the readahead models — study + collection + SGD", || {
                train_paper_model(&self.cfg)
            })?;
            let _ = CELL.set(trained);
        }
        Ok(CELL.get().expect("set above"))
    }
}

/// Runs `train`, saying on stderr what it trains and how long that took.
fn training<T>(what: &str, train: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    eprintln!("[training {what}]");
    let trained = train();
    eprintln!("[trained in {:.1?}]", t0.elapsed());
    trained
}

/// Where an experiment's results go: files under `results/`, each
/// announced on stdout, and — only under `--json` — JSON-lines.
struct Out {
    json: bool,
}

impl Out {
    /// Writes `results/<name>` and prints `<label>written to <path>`.
    fn save(&mut self, label: &str, name: &str, contents: &str) -> std::io::Result<()> {
        let path = bench::write_results(name, contents)?;
        println!("{label}written to {}\n", path.display());
        Ok(())
    }

    /// Writes an experiment's table to `results/<name>`.
    fn write(&mut self, name: &str, contents: &str) -> std::io::Result<()> {
        self.save("", name, contents)
    }

    /// Under `--json`, writes the JSON objects in `lines` to
    /// `results/<name>`, each stamped first with `"backend"` (the
    /// dispatched SIMD backend, `scalar` under `KML_FORCE_SCALAR=1`),
    /// `"q8"` (whether the int8 serving engine's vector fast path is live
    /// on it) and `"schema"` — so consumers can route lines and segment
    /// them by code path without guessing from the filename or re-deriving
    /// host capabilities.
    fn json(&mut self, name: &str, schema: &str, lines: &str) -> std::io::Result<()> {
        if !self.json {
            return Ok(());
        }
        let stamp = format!(
            "{{\"backend\":{},\"q8\":{},\"schema\":{},",
            kml_telemetry::json_str(kml_core::simd::backend_name()),
            kml_core::simd::q8_vector_active(),
            kml_telemetry::json_str(schema)
        );
        let mut stamped = String::with_capacity(lines.len());
        for line in lines.lines().filter(|l| !l.is_empty()) {
            match line.strip_prefix('{') {
                Some(rest) => stamped.push_str(&format!("{stamp}{rest}\n")),
                None => stamped.push_str(&format!("{line}\n")),
            }
        }
        self.save("json-lines ", name, &stamped)
    }

    /// Under `--json`, prints JSON-lines that carry wall-clock timings:
    /// stdout only, never a byte-compared results file.
    fn print_json(&mut self, lines: &str) {
        if self.json {
            print!("{lines}");
        }
    }
}
