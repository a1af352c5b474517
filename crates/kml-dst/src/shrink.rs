//! Failure shrinking: from "seed X fails somewhere in 400 ops with every
//! fault kind live" to the smallest scenario that still fails.
//!
//! Two passes, both re-running the (cheap, deterministic) harness:
//!
//! 1. **Ops**: binary-search the smallest op count that still fails.
//!    Fewer ops also *moves the final sweep earlier*, so this can land
//!    below the step the original violation fired at. Divergence is not
//!    strictly monotone in ops (a later put can re-insert a lost key and
//!    mask the loss), so the search result is verified and the largest
//!    known-failing count kept as the fallback.
//! 2. **Fault kinds**: greedily disable each kind in
//!    [`Scenario::relevant_kinds`] (the ones the scenario's stack
//!    actually consults — a kind it never reads would always "still
//!    fail" and pad the reproducer); keep a kind disabled only if the
//!    scenario still fails without it. What remains is the set of faults
//!    actually implicated.

use crate::driver::{run, FailureReport, Outcome};
use crate::scenario::Scenario;

/// A minimised failure.
#[derive(Debug)]
pub struct Shrunk {
    /// The smallest scenario found that still fails.
    pub scenario: Scenario,
    /// The failure that scenario produces.
    pub report: Box<FailureReport>,
    /// Harness re-runs the search spent.
    pub attempts: u32,
}

impl Shrunk {
    /// The minimal reproducer line (same as `report.reproducer()`).
    pub fn reproducer(&self) -> String {
        self.report.reproducer()
    }
}

/// Minimises `report`'s scenario. The input scenario must actually fail
/// (which it did — we hold its report); the output is guaranteed to fail,
/// re-verified on every candidate.
pub fn shrink(report: &FailureReport) -> Shrunk {
    let mut attempts = 0u32;
    let mut try_scenario = |s: &Scenario| -> Option<Box<FailureReport>> {
        attempts += 1;
        match run(s) {
            Outcome::Pass(_) => None,
            Outcome::Fail(r) => Some(r),
        }
    };

    let mut best = report.scenario;
    let mut best_report: Box<FailureReport> = Box::new(report.clone());

    // Pass 1: minimal ops. The violation fired at `report.step`, so
    // anything past step+1 is dead weight; below that, search.
    let cap = best.ops.min(report.step + 1).max(1);
    let candidate = Scenario { ops: cap, ..best };
    if let Some(r) = try_scenario(&candidate) {
        best = candidate;
        best_report = r;
    }
    let (mut lo, mut hi) = (1u64, best.ops);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let candidate = Scenario { ops: mid, ..best };
        match try_scenario(&candidate) {
            Some(r) => {
                best = candidate;
                best_report = r;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }

    // Pass 2: drop fault kinds that are not implicated.
    for kind in report.scenario.relevant_kinds() {
        if best.disabled.contains(kind) {
            continue;
        }
        let candidate = Scenario {
            disabled: best.disabled.with(kind),
            ..best
        };
        if let Some(r) = try_scenario(&candidate) {
            best = candidate;
            best_report = r;
        }
    }

    Shrunk {
        scenario: best,
        report: best_report,
        attempts,
    }
}
