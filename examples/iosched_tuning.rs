//! The second KML use case (paper §6 future work): tuning the block-layer
//! request scheduler's batching window.
//!
//! Run with: `cargo run --release --example iosched_tuning`
//!
//! A synchronous random reader wants zero batching wait; scattered
//! mergeable bursts want a generous one. A static window loses one way or
//! the other; the KML-trained classifier switches live.

use iosched::{run_sched_workload, IoScheduler, SchedTuner, SchedWorkload, SchedulerConfig};
use kernel_sim::DeviceProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const REQUESTS: u64 = 4_096;
    const PATIENT_NS: u64 = 150_000;

    let static_run = |workload, wait_ns| {
        let mut sched = IoScheduler::new(
            DeviceProfile::sata_ssd(),
            SchedulerConfig {
                batch_wait_ns: wait_ns,
                max_batch: 256,
            },
        );
        run_sched_workload(&mut sched, workload, REQUESTS, 11, |_, _| {})
    };

    println!("training the scheduler classifier from synthetic traffic...");
    println!(
        "{:<18} {:>14} {:>14} {:>14}",
        "traffic", "eager (0µs)", "patient (150µs)", "KML-tuned"
    );
    for workload in [
        SchedWorkload::DependentRandom,
        SchedWorkload::MergeableBurst,
        SchedWorkload::Phased,
    ] {
        let eager = static_run(workload, 0);
        let patient = static_run(workload, PATIENT_NS);
        let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig::default());
        let mut tuner = SchedTuner::train([0, PATIENT_NS], 5)?;
        let tuned = run_sched_workload(&mut sched, workload, REQUESTS, 11, |s, req| {
            tuner.on_request(s, req).expect("tuner inference succeeds");
        });
        println!(
            "{:<18} {:>11.0}/s {:>11.0}/s {:>11.0}/s",
            workload.name(),
            eager.requests_per_sec,
            patient.requests_per_sec,
            tuned.requests_per_sec,
        );
    }
    println!(
        "\nSame KML framework, different kernel component: the classifier\n\
         observes the arrival stream and actuates the batching window —\n\
         matching the best static configuration per phase without knowing\n\
         which traffic it will face."
    );
    Ok(())
}
