//! Training-data collection (paper §4 "Data collection").
//!
//! The paper collects kernel tracepoints while running the four *training*
//! workloads on NVMe, windows them once per second, extracts the five
//! features, and labels each window with its workload class. We reproduce
//! that pipeline against the simulator: the tracepoint stream flows through
//! KML's lock-free ring buffer into the [`crate::FeatureExtractor`], and
//! windows are cut on the simulated clock.
//!
//! One deliberate deviation: the window is 10 ms of *simulated* time by
//! default rather than the paper's 1 s of wall-clock time — the simulator's
//! clock only advances by charged I/O costs (there is no think time), so a
//! simulated second packs orders of magnitude more events than a wall-clock
//! second on the authors' testbed (documented in EXPERIMENTS.md).

use crate::features::{FeatureExtractor, FeatureVector};
use kernel_sim::{DeviceProfile, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_core::dataset::Dataset;
use kml_core::Result;
use kvstore::{fill_db, run_workload, FillMode, Workload, WorkloadConfig};

/// Scale parameters for training-data collection.
#[derive(Debug, Clone)]
pub struct DatagenConfig {
    /// Keys in the benchmark database.
    pub num_keys: u64,
    /// Operations per collection run.
    pub ops: u64,
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
    /// Feature-window length in simulated nanoseconds.
    pub window_ns: u64,
    /// Static readahead settings to collect under (varies feature v).
    pub ra_settings_kb: Vec<u32>,
    /// One collection run per seed (adds sample diversity).
    pub seeds: Vec<u64>,
    /// Capacity of the tracepoint ring buffer.
    pub ring_capacity: usize,
}

impl Default for DatagenConfig {
    fn default() -> Self {
        DatagenConfig {
            num_keys: 1 << 20,
            ops: 20_000,
            cache_pages: 16_384,
            window_ns: 10_000_000,
            ra_settings_kb: vec![8, 32, 128, 512, 1024],
            seeds: vec![1, 2, 3],
            ring_capacity: 1 << 16,
        }
    }
}

impl DatagenConfig {
    /// Reduced scale for unit tests.
    pub fn quick() -> Self {
        DatagenConfig {
            num_keys: 1 << 16,
            ops: 6_000,
            cache_pages: 2_048,
            window_ns: 5_000_000,
            ra_settings_kb: vec![32, 512],
            seeds: vec![1, 2],
            ring_capacity: 1 << 16,
        }
    }
}

/// Class index of a workload within [`Workload::training_set`]
/// (`None` for the never-seen evaluation workloads).
pub fn class_of(workload: Workload) -> Option<usize> {
    Workload::training_set().iter().position(|&w| w == workload)
}

/// Workload of a class index.
///
/// # Panics
///
/// Panics if `class >= 4`.
pub fn workload_of_class(class: usize) -> Workload {
    Workload::training_set()[class]
}

/// Runs `workload` once under a static readahead and returns the feature
/// vector of every window that saw at least one tracepoint.
pub fn collect_windows(
    device: DeviceProfile,
    workload: Workload,
    ra_kb: u32,
    seed: u64,
    cfg: &DatagenConfig,
) -> Vec<FeatureVector> {
    let mut sim = Sim::new(SimConfig {
        device,
        cache_pages: cfg.cache_pages,
        default_ra_kb: ra_kb,
        ..SimConfig::default()
    });
    let (producer, mut consumer) = RingBuffer::with_capacity(cfg.ring_capacity).split();
    sim.attach_trace(producer);

    // Scans visit keys orders of magnitude faster than point reads; give
    // them proportionally more operations so every class yields a
    // comparable number of feature windows (class balance).
    let ops_factor = match workload {
        Workload::ReadSeq | Workload::ReadReverse => 40,
        _ => 1,
    };
    let wcfg = WorkloadConfig {
        num_keys: cfg.num_keys,
        ops: cfg.ops * ops_factor,
        seed,
        ..WorkloadConfig::new(workload)
    };
    let mut db = fill_db(&mut sim, &wcfg, FillMode::Bulk).expect("fault-free fill");
    sim.drop_caches().expect("fault-free drop_caches"); // the paper clears caches before every run
    sim.set_ra_kb(ra_kb);
    // Discard fill-phase tracepoints: training must only see the workload.
    consumer.drain().for_each(drop);

    let mut extractor = FeatureExtractor::new();
    let mut windows = Vec::new();
    let mut window_end = sim.now_ns() + cfg.window_ns;
    run_workload(&mut sim, &mut db, &wcfg, |sim| {
        for record in consumer.drain() {
            extractor.push(&record);
        }
        while sim.now_ns() >= window_end {
            if extractor.window_count() > 0 {
                windows.push(extractor.roll_window(ra_kb as f64));
            }
            window_end += cfg.window_ns;
        }
    });
    // Close the final partial window if it saw traffic.
    for record in consumer.drain() {
        extractor.push(&record);
    }
    if extractor.window_count() > 0 {
        windows.push(extractor.roll_window(ra_kb as f64));
    }
    windows
}

/// Captures the raw tracepoint stream of one workload run (no feature
/// extraction) — the §3.3 offline path: save with
/// [`kernel_sim::tracefile::save`], ship to user space, and train later
/// with [`windows_from_trace`].
pub fn capture_trace(
    device: DeviceProfile,
    workload: Workload,
    ra_kb: u32,
    seed: u64,
    cfg: &DatagenConfig,
) -> Vec<kernel_sim::TraceRecord> {
    let mut sim = Sim::new(SimConfig {
        device,
        cache_pages: cfg.cache_pages,
        default_ra_kb: ra_kb,
        ..SimConfig::default()
    });
    let (producer, mut consumer) = RingBuffer::with_capacity(cfg.ring_capacity).split();
    sim.attach_trace(producer);
    // Same scan-workload op scaling as the live collection path.
    let ops_factor = match workload {
        Workload::ReadSeq | Workload::ReadReverse => 40,
        _ => 1,
    };
    let wcfg = WorkloadConfig {
        num_keys: cfg.num_keys,
        ops: cfg.ops * ops_factor,
        seed,
        ..WorkloadConfig::new(workload)
    };
    let mut db = fill_db(&mut sim, &wcfg, FillMode::Bulk).expect("fault-free fill");
    sim.drop_caches().expect("fault-free drop_caches");
    sim.set_ra_kb(ra_kb);
    consumer.drain().for_each(drop); // discard fill-phase records
    let mut trace = Vec::new();
    run_workload(&mut sim, &mut db, &wcfg, |_| {
        trace.extend(consumer.drain());
    });
    trace.extend(consumer.drain());
    trace
}

/// Extracts per-window feature vectors from a captured trace — the offline
/// twin of [`collect_windows`], cutting windows on the *recorded*
/// timestamps via [`kernel_sim::tracefile::replay`].
pub fn windows_from_trace(
    trace: &[kernel_sim::TraceRecord],
    ra_kb: u32,
    window_ns: u64,
) -> Vec<FeatureVector> {
    use kernel_sim::tracefile::ReplayEvent;
    let mut extractor = FeatureExtractor::new();
    let mut windows = Vec::new();
    kernel_sim::tracefile::replay(trace, window_ns, |event| match event {
        ReplayEvent::Record(record) => extractor.push(record),
        ReplayEvent::WindowBoundary(_) => {
            if extractor.window_count() > 0 {
                windows.push(extractor.roll_window(ra_kb as f64));
            }
        }
    });
    if extractor.window_count() > 0 {
        windows.push(extractor.roll_window(ra_kb as f64));
    }
    windows
}

/// Collects the full labeled training set: the four training workloads on
/// NVMe (as the paper trains), across every configured readahead setting
/// and seed.
///
/// # Errors
///
/// Returns an error if collection produced no windows (configuration too
/// small) — a dataset cannot be built from nothing.
pub fn training_dataset(cfg: &DatagenConfig) -> Result<Dataset> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    for (class, workload) in Workload::training_set().into_iter().enumerate() {
        for &ra_kb in &cfg.ra_settings_kb {
            for &seed in &cfg.seeds {
                for fv in collect_windows(DeviceProfile::nvme(), workload, ra_kb, seed, cfg) {
                    rows.push(fv.to_vec());
                    labels.push(class);
                }
            }
        }
    }
    Dataset::from_rows(&rows, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping_is_consistent() {
        for (i, w) in Workload::training_set().into_iter().enumerate() {
            assert_eq!(class_of(w), Some(i));
            assert_eq!(workload_of_class(i), w);
        }
        assert_eq!(class_of(Workload::MixGraph), None);
        assert_eq!(class_of(Workload::UpdateRandom), None);
    }

    #[test]
    fn collection_produces_windows_with_sane_features() {
        let cfg = DatagenConfig::quick();
        let windows = collect_windows(DeviceProfile::nvme(), Workload::ReadRandom, 128, 1, &cfg);
        assert!(!windows.is_empty(), "no windows collected");
        for w in &windows {
            assert!(w[0] > 0.0, "window with zero tracepoints leaked");
            assert!(w.iter().all(|v| v.is_finite()));
            assert_eq!(w[4], 128.0);
        }
    }

    #[test]
    fn sequential_windows_look_sequential() {
        let cfg = DatagenConfig::quick();
        let seq = collect_windows(DeviceProfile::nvme(), Workload::ReadSeq, 128, 1, &cfg);
        let rnd = collect_windows(DeviceProfile::nvme(), Workload::ReadRandom, 128, 1, &cfg);
        assert!(!seq.is_empty() && !rnd.is_empty());
        let seq_diff = seq.iter().map(|w| w[3]).sum::<f64>() / seq.len() as f64;
        let rnd_diff = rnd.iter().map(|w| w[3]).sum::<f64>() / rnd.len() as f64;
        assert!(
            rnd_diff > 10.0 * seq_diff.max(1.0),
            "abs-diff failed to separate: seq {seq_diff:.1} vs random {rnd_diff:.1}"
        );
    }

    #[test]
    fn training_dataset_covers_all_classes() {
        let cfg = DatagenConfig::quick();
        let data = training_dataset(&cfg).unwrap();
        assert_eq!(data.num_classes(), 4);
        assert_eq!(data.feature_dim(), crate::NUM_FEATURES);
        for class in 0..4 {
            let count = data.labels().iter().filter(|&&l| l == class).count();
            assert!(count >= 2, "class {class} has only {count} windows");
        }
    }

    #[test]
    fn trace_capture_and_offline_windows_match_online_pipeline() {
        let cfg = DatagenConfig::quick();
        // Online: the live collect path.
        let online = collect_windows(DeviceProfile::nvme(), Workload::ReadRandom, 128, 1, &cfg);
        // Offline: capture the trace, then extract from the recording.
        let trace = capture_trace(DeviceProfile::nvme(), Workload::ReadRandom, 128, 1, &cfg);
        assert!(!trace.is_empty());
        let offline = windows_from_trace(&trace, 128, cfg.window_ns);
        assert!(!offline.is_empty());
        // Same run, same windowing: identical window count and features.
        assert_eq!(online.len(), offline.len());
        for (a, b) in online.iter().zip(&offline) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "online {a:?} vs offline {b:?}");
            }
        }
    }

    #[test]
    fn traces_survive_the_file_round_trip() {
        let cfg = DatagenConfig::quick();
        let trace = capture_trace(DeviceProfile::nvme(), Workload::ReadSeq, 128, 2, &cfg);
        let path = std::env::temp_dir().join(format!("kml-dg-{}.trc", std::process::id()));
        kernel_sim::tracefile::save(&trace, &path).unwrap();
        let loaded = kernel_sim::tracefile::load(&path).unwrap();
        assert_eq!(trace, loaded);
        std::fs::remove_file(path).unwrap();
    }
}
