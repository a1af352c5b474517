//! The repo's performance ledger: seven workloads, three end-to-end metrics
//! and a per-layer traced pass, all measured **from outside** the crates —
//! the harness composes each loop from the layers' public functions and
//! wraps its own timers around those calls. See `README.md` for the
//! glossary and the API contract.

pub mod ledger;
pub mod manifest;
pub mod stats;
pub mod trace;
pub mod workloads;

use stats::{median, Quartiles};
use std::time::Instant;
use trace::Tracer;

/// Default seed of every generator ("KML").
pub const DEFAULT_SEED: u64 = 0x4B4D4C;

/// A run sets up from scratch at least this often — and, while set-up is
/// cheap, until `SETUP_BUDGET_S` is spent after the first (cold) one or
/// `MAX_SETUPS` is reached, so a 12 ms set-up gets a median as steady as a
/// 1 s one. `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Reps of a `--smoke` run: schema and correctness only, never a measurement.
const SMOKE_REPS: usize = 3;
/// Fewest reps a measuring run accepts, however slow the host.
const MIN_REPS: usize = 5;
/// Speed of [`host_speed`]'s loop, iterations per second, on the 2.1 GHz
/// Xeon this was written on: the nominal host `work_per_s` is scaled to.
const NOMINAL_HOST_SPEED: f64 = 5.0e8;

/// One run's parameters, as the benchmark contract passes them.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/10 size, three reps, output labelled as not a measurement.
    pub smoke: bool,
}

impl RunConfig {
    /// `full`, or a tenth of it (at least 1) under `--smoke`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// What one rep did. Reps of a workload are exact repeats: same simulated
/// work, same `digest`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Units of work done in the timed part (ops, decisions, records, cycles).
    pub units: u64,
    /// Host time of the timed part.
    pub timed_ns: u64,
    /// Host time of the untimed preparation a rep repeats (refill, warm-up).
    /// A one-shot user pays it once, so its median counts into `setup_s`.
    pub prep_ns: u64,
    /// The rep's deterministic outcome, folded.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Named numbers of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            manifest::PER_LAYER.iter().any(|m| m.name == name)
                || manifest::END_TO_END.iter().any(|m| m.name == name),
            "metric {name} is not in the manifest"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// A benchmark workload. `build` is everything before the first timed rep.
pub trait Workload {
    /// One rep; with a tracer, the same composition with timers on and a
    /// `Registry` attached. `rep` numbers the traced reps.
    fn rep(&mut self, tracer: Option<(&mut Tracer, u32)>) -> Rep;

    /// Per-layer metrics of the traced pass: span-derived numbers, counter
    /// deltas and direct micro-drives of single layers.
    fn layers(&mut self, tracer: &mut Tracer, out: &mut Metrics);

    /// Whether the last rep's outputs were right (checked outside the timers).
    fn check(&mut self) -> Result<(), String>;
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Work per host second of every untraced rep, scaled to the nominal
    /// host speed, in run order.
    pub rep_rates: Vec<f64>,
    /// Median of the same rates as the clock measured them.
    pub raw_work_per_s: f64,
    /// Median host speed over the run, as a share of the nominal one.
    pub host_speed: f64,
    pub metrics: Metrics,
}

/// How fast this host runs right now: iterations per second of a fixed
/// arithmetic loop (four independent xorshift chains, ~2 ms). On a shared
/// box the clock a process gets moves between levels that last seconds —
/// identical reps were seen at 7.5, 9.3 and 12.8 M decisions/s within one
/// run — and a run's median lands on whichever level was commonest. Every
/// rep is therefore bracketed by two readings of this loop and its rate
/// (like every set-up's time) scaled to [`NOMINAL_HOST_SPEED`]; no change
/// to the crates can move the loop, so the scaled numbers answer to code
/// changes exactly as the raw ones.
fn host_speed() -> f64 {
    const ITERS: u64 = 1_000_000;
    let step = |x: u64| {
        let x = x ^ (x << 13);
        let x = x ^ (x >> 7);
        x ^ (x << 17)
    };
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..ITERS {
        (a, b, c, d) = (step(a), step(b), step(c), step(d));
    }
    std::hint::black_box((a, b, c, d));
    ITERS as f64 / t.elapsed().as_secs_f64()
}

/// Hands freed heap back to the kernel, so that every set-up and every rep
/// starts from the same allocator state and faults its memory in like the
/// first one of a process does. Without it a repeated `fleet` set-up reuses
/// the 370 MiB the last one freed and takes a fifth of the time a user
/// waits — how much of a fifth depending on what glibc happened to trim
/// (22–45 ms run to run; with it, 64–69 ms).
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // the allocator already holds free; glibc documents it as safe to
        // call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs one workload as the contract asks: set up, measure for
/// `cfg.seconds`, check, and gather either the end-to-end metrics
/// (untraced) or the per-layer ones (traced).
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    workloads::pin_threads(&cfg.workload);
    let mut errors = Vec::new();

    let mut setup_s = Vec::new();
    let mut workload = None;
    let mut warm_setups = Instant::now();
    // A smoke run checks, it does not measure: one set-up is enough.
    let min_setups = if cfg.smoke { 1 } else { MIN_SETUPS };
    while setup_s.len() < min_setups
        || (!cfg.smoke
            && setup_s.len() < MAX_SETUPS
            && warm_setups.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(workload.take()); // one instance alive at a time: peak RSS is one workload's
        release_freed_memory();
        let before = host_speed();
        let t = Instant::now();
        workload = Some(workloads::build(cfg)?);
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s * (before + host_speed()) / 2.0 / NOMINAL_HOST_SPEED);
        if setup_s.len() == 1 {
            warm_setups = Instant::now();
        }
    }
    let mut workload = workload.expect("at least one set-up ran");

    let mut tracer = Tracer::new();
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Host speed around each untraced rep: mean of the reading before and
    // after. Back-to-back untraced reps share the reading between them.
    let mut speeds = Vec::new();
    let mut carried = None;
    let start = Instant::now();
    loop {
        let done = untraced.len();
        let enough = if cfg.smoke {
            done >= SMOKE_REPS
        } else {
            done >= MIN_REPS && start.elapsed().as_secs_f64() >= cfg.seconds
        };
        if enough {
            break;
        }
        release_freed_memory();
        let before = carried.take().unwrap_or_else(host_speed);
        untraced.push(workload.rep(None));
        let after = host_speed();
        speeds.push((before + after) / 2.0);
        carried = (!cfg.trace).then_some(after);
        if let Err(e) = workload.check() {
            errors.push(format!("rep {done}: {e}"));
        }
        if cfg.trace {
            release_freed_memory();
            traced.push(workload.rep(Some((&mut tracer, done as u32))));
            if let Err(e) = workload.check() {
                errors.push(format!("traced rep {done}: {e}"));
            }
        }
    }

    let digest = untraced[0].digest;
    for (kind, reps) in [("rep", &untraced), ("traced rep", &traced)] {
        for (i, r) in reps.iter().enumerate().filter(|(_, r)| r.digest != digest) {
            errors.push(format!(
                "{kind} {i} digest {:#018x} != rep 0 {digest:#018x}",
                r.digest
            ));
        }
    }
    let attempted: u64 = untraced.iter().map(|r| r.attempted).sum();
    let failed: u64 = untraced.iter().map(|r| r.failed).sum();

    let raw_rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.units as f64 / (r.timed_ns as f64 / 1e9))
        .collect();
    let rep_rates: Vec<f64> = raw_rates
        .iter()
        .zip(&speeds)
        .map(|(r, s)| r * NOMINAL_HOST_SPEED / s)
        .collect();
    let work_per_s = Quartiles::of(&rep_rates);
    let prep_s: Vec<f64> = untraced
        .iter()
        .zip(&speeds)
        .map(|(r, s)| r.prep_ns as f64 / 1e9 * s / NOMINAL_HOST_SPEED)
        .collect();

    let mut metrics = Metrics::default();
    if cfg.trace {
        let timed_ns =
            |reps: &[Rep]| median(&reps.iter().map(|r| r.timed_ns as f64).collect::<Vec<_>>());
        let (untraced_ns, traced_ns) = (timed_ns(&untraced), timed_ns(&traced));
        workload.layers(&mut tracer, &mut metrics);
        let (rep_total, _) = tracer.total("rep");
        let coverage = 100.0 * (1.0 - tracer.self_ns("rep") as f64 / rep_total.max(1) as f64);
        metrics.set("bench.span_coverage_pct", coverage);
        metrics.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_ns - untraced_ns) / untraced_ns,
        );
        if coverage < 95.0 {
            errors.push(format!("span coverage {coverage:.1} % < 95 %"));
        }
        write_trace(&cfg.workload, &tracer);
    } else {
        metrics.set("setup_s", median(&setup_s) + median(&prep_s));
        metrics.set("work_per_s", work_per_s.median);
        metrics.set("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0);
    }

    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        errors,
        attempted,
        failed,
        digest,
        rep_rates,
        raw_work_per_s: median(&raw_rates),
        host_speed: median(&speeds) / NOMINAL_HOST_SPEED,
        metrics,
    })
}

/// Spans go to `benchmark/out/trace-<workload>.json` when the run ends. A
/// checkout that cannot be written to loses the file, not the run.
fn write_trace(workload: &str, tracer: &Tracer) {
    let dir = std::path::Path::new("benchmark/out");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("trace-{workload}.json")),
            tracer.to_json(workload),
        )
    });
    if let Err(e) = written {
        eprintln!("warning: trace not written: {e}");
    }
}

/// A `kB` field of `/proc/self/status` (0 where there is no procfs).
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Host shape: a number without it is not a ledger entry.
pub fn provenance(cfg: &RunConfig, reps: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("workload", cfg.workload.clone()),
        ("seed", format!("{:#x}", cfg.seed)),
        ("smoke", cfg.smoke.to_string()),
        ("traced", cfg.trace.to_string()),
        ("reps", reps.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("kernel_backend", kml_core::simd::backend_name().to_string()),
        ("q8_vector", kml_core::simd::q8_vector_active().to_string()),
        (
            "threads",
            format!(
                "KML_REPRO_THREADS={} KML_POOL_THREADS={}",
                env("KML_REPRO_THREADS"),
                env("KML_POOL_THREADS")
            ),
        ),
        ("rustc", env("KML_BENCH_RUSTC")),
        ("git", env("KML_BENCH_GIT")),
    ]
}

/// Prints the run for a reader, then — as the last line — the one JSON
/// object the contract asks for.
pub fn report(cfg: &RunConfig, out: &Outcome) {
    if cfg.smoke {
        println!("SMOKE RUN: 1/10 size, {SMOKE_REPS} reps. Schema and correctness only, NOT a measurement.");
    }
    for (k, v) in provenance(cfg, out.rep_rates.len()) {
        println!("# {k}: {v}");
    }
    println!("sim_digest {:#018x}", out.digest);
    println!("ops attempted {} failed {}", out.attempted, out.failed);
    let rates: Vec<String> = out.rep_rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("rep_rates {}", rates.join(" "));
    println!(
        "host speed {:.3} of nominal; raw work_per_s median {:.1}",
        out.host_speed, out.raw_work_per_s
    );
    let w = Quartiles::of(&out.rep_rates);
    println!(
        "reps work_per_s q1 {:.1} median {:.1} q3 {:.1} n {} (spread {:.2} %)",
        w.q1,
        w.median,
        w.q3,
        w.n,
        100.0 * w.spread()
    );
    for e in &out.errors {
        println!("ERROR {e}");
    }
    let table = if cfg.trace {
        manifest::PER_LAYER
    } else {
        manifest::END_TO_END
    };
    let mut json = String::new();
    for m in table {
        // A layer the workload does not exercise did no work: 0.
        let value = out.metrics.get(m.name).unwrap_or(0.0);
        println!("metric {} {} {}", m.name, value, m.unit);
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
}

/// A float as JSON: every digit Rust prints, and never `NaN`/`inf`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Parses the contract's flags (`--workload --seed --seconds --trace`) plus
/// `--smoke`. Seeds may be decimal or `0x` hex.
pub fn parse_run_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = parse_seed(value()?)?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !manifest::WORKLOADS.iter().any(|w| w.name == cfg.workload) {
        let names: Vec<_> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(cfg)
}

pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("--seed {s}: {e}"))
}

/// Entry point shared by the two binaries. `counting` says whether this
/// one has `CountingSystemAlloc` installed: a traced run of a workload that
/// counts allocations is handed on to the binary that has.
pub fn main_from_args(counting: bool) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--print-manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some("--ledger") => ledger::main(&args[1..]),
        _ => parse_run_args(&args).and_then(|cfg| {
            if cfg.trace && !counting && workloads::counts_allocations(&cfg.workload) {
                return run_counting_sibling(&args);
            }
            let out = run(&cfg)?;
            report(&cfg, &out);
            Ok(out.correct)
        }),
    };
    match result {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

/// Runs `kml-bench-traced` beside this executable with the same arguments
/// and the same stdout, and waits for it.
fn run_counting_sibling(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe.with_file_name("kml-bench-traced"))
        .args(args)
        .status()
        .map_err(|e| format!("kml-bench-traced: {e}"))?;
    Ok(status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_flags_parse() {
        let cfg =
            parse_run_args(&args("--workload serve --seed 0x10 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("serve", 16, 2.0, true)
        );
        assert!(!cfg.smoke);
        assert_eq!(
            parse_run_args(&args("--workload fleet")).unwrap().seed,
            DEFAULT_SEED
        );
        assert!(parse_run_args(&args("--workload nosuch")).is_err());
        assert!(parse_run_args(&args("--workload serve --trace 2")).is_err());
        assert!(parse_run_args(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_run_args(&args("--workload serve --seed")).is_err());
    }

    #[test]
    fn smoke_scales_to_a_tenth() {
        let mut cfg = parse_run_args(&args("--workload serve --smoke")).unwrap();
        assert_eq!(cfg.scaled(1_500), 150);
        assert_eq!(cfg.scaled(3), 1);
        cfg.smoke = false;
        assert_eq!(cfg.scaled(1_500), 1_500);
    }
}
