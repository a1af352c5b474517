//! The benchmark's binary: the system allocator, no counters — what every
//! end-to-end metric is measured with.

fn main() -> std::process::ExitCode {
    kml_benchmark::main_from_args(false)
}
