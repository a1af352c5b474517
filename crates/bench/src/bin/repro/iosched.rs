//! §6 future work — the second use case: the same framework tuning the
//! block layer's request-batching window.

use crate::{Ctx, DynResult, Out};
use iosched::{run_sched_workload, IoScheduler, SchedTuner, SchedWorkload, SchedulerConfig};
use kernel_sim::DeviceProfile;
use kml_platform::threading;

pub fn run(_: &Ctx, _: &mut Out) -> DynResult {
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
