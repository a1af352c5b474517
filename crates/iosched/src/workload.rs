//! Block-layer traffic generators for the scheduler case study.
//!
//! Two antagonistic patterns create the tuning dilemma:
//!
//! - [`SchedWorkload::DependentRandom`] — a synchronous client with one
//!   outstanding request: submit, wait for completion, think, repeat.
//!   Any batching wait is pure added latency.
//! - [`SchedWorkload::MergeableBurst`] — periodic bursts of adjacent (but
//!   out-of-order) requests, e.g. writeback or a multi-threaded scan.
//!   Waiting lets the elevator merge the burst into few large commands.
//!
//! A third, [`SchedWorkload::Phased`], alternates between the two so the
//! closed loop has something to adapt *to*.

use crate::scheduler::{IoRequest, IoScheduler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Traffic patterns for the scheduler experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedWorkload {
    /// Synchronous random reader, one outstanding request.
    DependentRandom,
    /// Periodic bursts of adjacent, shuffled requests.
    MergeableBurst,
    /// Alternates between the two every `phase_requests` requests.
    Phased,
}

impl SchedWorkload {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedWorkload::DependentRandom => "dependent_random",
            SchedWorkload::MergeableBurst => "mergeable_burst",
            SchedWorkload::Phased => "phased",
        }
    }
}

impl std::fmt::Display for SchedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one scheduler-workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedWorkloadReport {
    /// Requests completed.
    pub completed: u64,
    /// Total simulated time, ns.
    pub elapsed_ns: u64,
    /// Requests per simulated second.
    pub requests_per_sec: f64,
    /// Mean per-request latency, ns.
    pub mean_latency_ns: u64,
}

/// Drives `workload` for `total_requests` requests against `sched`,
/// invoking `on_request` for every submitted request (the KML hook).
/// Returns throughput and latency.
pub fn run_sched_workload(
    sched: &mut IoScheduler,
    workload: SchedWorkload,
    total_requests: u64,
    seed: u64,
    mut on_request: impl FnMut(&mut IoScheduler, &IoRequest),
) -> SchedWorkloadReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now: u64 = 0;
    let mut submitted = 0u64;
    let start_completed = sched.stats().completed;
    let start_latency = sched.stats().total_latency_ns;

    let file_pages: u64 = 1 << 22;
    let mut phase_burst = false;
    while submitted < total_requests {
        let burst_mode = match workload {
            SchedWorkload::DependentRandom => false,
            SchedWorkload::MergeableBurst => true,
            SchedWorkload::Phased => {
                // Swap phases every 512 requests.
                if submitted.is_multiple_of(512) {
                    phase_burst = (submitted / 512) % 2 == 1;
                }
                phase_burst
            }
        };
        if burst_mode {
            // A burst: 32 adjacent 4-page requests in shuffled order,
            // arriving over 50 µs.
            let base = (rng.gen_range(0..file_pages / 256)) * 128;
            let mut order: Vec<u64> = (0..32).collect();
            order.shuffle(&mut rng);
            for (k, idx) in order.into_iter().enumerate() {
                let req = IoRequest {
                    inode: 1,
                    page: base + idx * 4,
                    npages: 4,
                    write: false,
                    arrival_ns: now + k as u64 * 1_500,
                };
                sched.submit(req);
                on_request(sched, &req);
                submitted += 1;
                // Open-loop arrivals: the scheduler sees each request as it
                // lands, so an eager (zero-wait) config dispatches singles
                // while a patient one accumulates the burst.
                sched.drain(req.arrival_ns);
            }
            now += 50_000;
            sched.drain(now);
            // Idle gap until the next burst (lets the window trigger fire).
            now = now.max(sched.busy_until_ns());
            sched.drain(now);
            now += 100_000;
            sched.drain(now);
        } else {
            // Synchronous client: submit one random request and block on it.
            let req = IoRequest {
                inode: 1,
                page: rng.gen_range(0..file_pages / 4) * 4,
                npages: 4,
                write: false,
                arrival_ns: now,
            };
            sched.submit(req);
            on_request(sched, &req);
            submitted += 1;
            // Wait until this request completes (wait window + service).
            let mut guard = 0;
            loop {
                let done = sched.drain(now);
                if done.iter().any(|c| c.request == req) {
                    now = now.max(done.iter().map(|c| c.completion_ns).max().unwrap_or(now));
                    break;
                }
                // Jump to the next trigger point.
                now += sched.config().batch_wait_ns.max(1_000);
                guard += 1;
                assert!(guard < 10_000, "request never completed");
            }
            now += 2_000; // client think time
        }
    }
    let done = sched.flush(now);
    now = now.max(done.iter().map(|c| c.completion_ns).max().unwrap_or(now));

    let completed = sched.stats().completed - start_completed;
    let latency = sched.stats().total_latency_ns - start_latency;
    SchedWorkloadReport {
        completed,
        elapsed_ns: now,
        requests_per_sec: if now == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / now as f64
        },
        mean_latency_ns: latency.checked_div(completed).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerConfig;
    use kernel_sim::DeviceProfile;

    fn run(workload: SchedWorkload, wait_ns: u64) -> SchedWorkloadReport {
        let mut sched = IoScheduler::new(
            DeviceProfile::sata_ssd(),
            SchedulerConfig {
                batch_wait_ns: wait_ns,
                max_batch: 256,
            },
        );
        run_sched_workload(&mut sched, workload, 2_048, 7, |_, _| {})
    }

    #[test]
    fn dependent_random_prefers_zero_wait() {
        let eager = run(SchedWorkload::DependentRandom, 0);
        let patient = run(SchedWorkload::DependentRandom, 300_000);
        assert!(
            eager.requests_per_sec > 1.5 * patient.requests_per_sec,
            "eager {:.0} vs patient {:.0}",
            eager.requests_per_sec,
            patient.requests_per_sec
        );
        assert!(eager.mean_latency_ns < patient.mean_latency_ns);
    }

    #[test]
    fn mergeable_burst_prefers_a_window() {
        let eager = run(SchedWorkload::MergeableBurst, 0);
        let patient = run(SchedWorkload::MergeableBurst, 100_000);
        assert!(
            patient.requests_per_sec > 1.1 * eager.requests_per_sec,
            "patient {:.0} vs eager {:.0}",
            patient.requests_per_sec,
            eager.requests_per_sec
        );
    }

    #[test]
    fn no_single_wait_wins_everywhere() {
        // The scheduler version of the paper's readahead observation.
        let best_for_random = [0u64, 100_000, 300_000]
            .into_iter()
            .max_by(|&a, &b| {
                run(SchedWorkload::DependentRandom, a)
                    .requests_per_sec
                    .total_cmp(&run(SchedWorkload::DependentRandom, b).requests_per_sec)
            })
            .expect("non-empty");
        let best_for_burst = [0u64, 100_000, 300_000]
            .into_iter()
            .max_by(|&a, &b| {
                run(SchedWorkload::MergeableBurst, a)
                    .requests_per_sec
                    .total_cmp(&run(SchedWorkload::MergeableBurst, b).requests_per_sec)
            })
            .expect("non-empty");
        assert_ne!(best_for_random, best_for_burst);
        assert_eq!(best_for_random, 0);
        assert!(best_for_burst > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(SchedWorkload::Phased, 50_000);
        let b = run(SchedWorkload::Phased, 50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn all_requests_complete() {
        for w in [
            SchedWorkload::DependentRandom,
            SchedWorkload::MergeableBurst,
            SchedWorkload::Phased,
        ] {
            let report = run(w, 100_000);
            assert_eq!(report.completed, 2_048, "{w}: lost requests");
        }
    }
}
