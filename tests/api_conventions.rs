//! Rust API Guidelines conformance spot-checks across the workspace:
//! common traits on public types (C-COMMON-TRAITS), non-empty Debug
//! representations (C-DEBUG-NONEMPTY), Send/Sync where promised
//! (C-SEND-SYNC), and well-behaved error types (C-GOOD-ERR).

use std::error::Error;
use std::fmt::Debug;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_debug_nonempty<T: Debug>(v: &T) {
    assert!(!format!("{v:?}").is_empty());
}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<kml_core::matrix::Matrix<f32>>();
    assert_send_sync::<kml_core::matrix::Matrix<f64>>();
    assert_send_sync::<kml_core::model::Model<f32>>();
    assert_send_sync::<kml_core::dtree::DecisionTree>();
    assert_send_sync::<kml_core::dataset::Dataset>();
    assert_send_sync::<kml_core::quant::Q8Engine>();
    assert_send_sync::<kernel_sim::Sim>();
    assert_send_sync::<kvstore::Db>();
    assert_send_sync::<iosched::IoScheduler>();
    assert_send_sync::<kml_platform::alloc::KmlAllocator>();
}

#[test]
fn error_types_implement_error_display_send_sync() {
    fn assert_error<E: Error + Send + Sync + 'static>() {}
    assert_error::<kml_core::KmlError>();
    assert_error::<kml_platform::PlatformError>();
    assert_error::<kernel_sim::tracefile::TraceFileError>();

    // Display messages: lowercase start, no trailing punctuation (C-GOOD-ERR).
    let samples: Vec<Box<dyn Error>> = vec![
        Box::new(kml_core::KmlError::InvalidConfig("x".into())),
        Box::new(kml_core::KmlError::BadModelFile("y".into())),
        Box::new(kml_platform::PlatformError::ReservationActive),
        Box::new(kernel_sim::tracefile::TraceFileError::Malformed("z".into())),
    ];
    for e in samples {
        let msg = e.to_string();
        let first = msg.chars().next().expect("non-empty message");
        assert!(
            first.is_lowercase(),
            "error message should start lowercase: {msg:?}"
        );
        assert!(
            !msg.ends_with('.'),
            "error message should not end with a period: {msg:?}"
        );
    }
}

#[test]
fn debug_representations_are_never_empty() {
    use kml_core::prelude::*;
    let m = Matrix::<f64>::zeros(2, 2);
    assert_debug_nonempty(&m);
    assert_debug_nonempty(&Sgd::paper_defaults());
    assert_debug_nonempty(&kvstore::Workload::MixGraph);
    assert_debug_nonempty(&kernel_sim::DeviceProfile::nvme());
    assert_debug_nonempty(&iosched::SchedulerConfig::default());
    assert_debug_nonempty(&kml_platform::Persona::Kernel);
    assert_debug_nonempty(&readahead::FeatureExtractor::new());
}

#[test]
fn display_implementations_are_informative() {
    assert_eq!(kvstore::Workload::ReadSeq.to_string(), "readseq");
    assert_eq!(kml_platform::Persona::Kernel.to_string(), "kernel");
    let m = kml_core::matrix::Matrix::<f64>::zeros(2, 2);
    let shown = m.to_string();
    assert!(shown.contains("2x2"));
}

#[test]
fn default_constructors_match_new() {
    // C-COMMON-TRAITS: Default and new() agree where both exist.
    use kml_collect::stats::{AbsDiffMean, CumulativeStats};
    assert_eq!(CumulativeStats::new(), CumulativeStats::default());
    assert_eq!(AbsDiffMean::new(), AbsDiffMean::default());
}

#[test]
fn dataset_types_implement_clone_and_partial_eq() {
    use kml_core::dataset::Dataset;
    let d = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0, 1]).expect("builds");
    let clone = d.clone();
    assert_eq!(d, clone);
    let w = kvstore::WorkloadConfig::new(kvstore::Workload::ReadSeq);
    let _copy = w; // Copy
}
