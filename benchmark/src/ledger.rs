//! `run.sh` without `--workload`: the whole ledger in one command. Every
//! workload runs untraced (end-to-end metrics), then traced (per-layer
//! metrics), each in its own child process — its own `VmHWM`, its own
//! allocator state — and the two passes must print the same `sim_digest`.
//! `--aa` runs two full sets of the same build in opposite workload order
//! and fails if any end-to-end pair differs by more than its bound.

use crate::manifest::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::{parse_seed, DEFAULT_SEED};
use std::process::Command;

/// What a child run printed.
struct ChildRun {
    metrics: Vec<(String, f64, String)>,
    digest: String,
    ok: bool,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

struct Options {
    seed: u64,
    seconds: f64,
    smoke: bool,
    aa: bool,
}

fn child(workload: &str, trace: bool, opts: &Options) -> Result<ChildRun, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun {
        metrics: Vec::new(),
        digest: String::new(),
        ok: out.status.success(),
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, unit] => {
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            ["sim_digest", digest] => run.digest = digest.to_string(),
            // The closing JSON line is for the driver; the host's shape is
            // printed once per workload, with the untraced pass.
            [first, ..] if first.starts_with('{') || (trace && *first == "#") => {}
            // Counts, rep spread and errors pass through.
            _ => println!("  {line}"),
        }
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    Ok(run)
}

/// One full set: every workload untraced then traced. Returns the untraced
/// runs by workload; a run's `ok` also covers its traced twin and the
/// equality of their digests.
fn full_set(
    order: &[&'static str],
    opts: &Options,
) -> Result<Vec<(&'static str, ChildRun)>, String> {
    let mut runs = Vec::new();
    for &workload in order {
        println!("== {workload}: untraced (end-to-end)");
        let mut untraced = child(workload, false, opts)?;
        for (name, value, unit) in &untraced.metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        println!("== {workload}: traced (per layer)");
        let traced = child(workload, true, opts)?;
        // A layer the workload does not exercise reads 0 and is not printed.
        for (name, value, unit) in traced.metrics.iter().filter(|(_, v, _)| *v != 0.0) {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        println!(
            "  sim_digest {} (untraced) {} (traced)",
            untraced.digest, traced.digest
        );
        if untraced.digest != traced.digest {
            println!("  ERROR traced digest differs from untraced");
            untraced.ok = false;
        }
        untraced.ok &= traced.ok;
        runs.push((workload, untraced));
    }
    Ok(runs)
}

/// By how much of `a` the metric got worse from `a` to `b` (≤ 0: no worse).
fn worsened(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "higher" {
        -change
    } else {
        change
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        smoke: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => opts.seed = parse_seed(value()?)?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.smoke {
        println!("SMOKE LEDGER: 1/10 size, 3 reps per workload. Schema and correctness only, NOT a measurement.");
    }
    let order: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
    let first = full_set(&order, &opts)?;
    let mut ok = first.iter().all(|(_, run)| run.ok);
    if opts.aa {
        println!("== A/A: the same build again, workloads in reverse order");
        let reversed: Vec<&'static str> = order.iter().rev().copied().collect();
        let second = full_set(&reversed, &opts)?;
        ok &= second.iter().all(|(_, run)| run.ok);
        println!("== A/A: second set against first, per (metric, workload); bound in brackets");
        for (workload, a) in &first {
            let b = &second
                .iter()
                .find(|(w, _)| w == workload)
                .expect("same workloads")
                .1;
            if a.digest != b.digest {
                println!(
                    "  ERROR {workload}: sim_digest {} then {}",
                    a.digest, b.digest
                );
                ok = false;
            }
            for m in END_TO_END {
                let (Some(va), Some(vb)) = (a.metric(m.name), b.metric(m.name)) else {
                    return Err(format!("{workload}: {} missing", m.name));
                };
                let worse = worsened(va, vb, m.better).max(worsened(vb, va, m.better));
                let verdict = if worse > m.bound { "FAIL" } else { "ok" };
                println!(
                    "  {verdict:<4} {workload:<13} {:<12} {va:>14.4} {vb:>14.4} {:>6.2} % [{:.0} %]",
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound
                );
                ok &= worse <= m.bound;
            }
        }
    }
    println!("{}", if ok { "LEDGER OK" } else { "LEDGER FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::worsened;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsened(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worsened(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsened(2.0, 2.5, "lower") - 0.25).abs() < 1e-12);
        assert!(worsened(2.0, 1.5, "lower") < 0.0);
    }
}
