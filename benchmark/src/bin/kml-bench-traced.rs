//! The same harness with `CountingSystemAlloc` installed, for the traced
//! passes that count allocations (`kml-platform.allocs_per_window`,
//! `allocs_per_tick`). `kml-bench` hands those runs on to it.

use kml_platform::alloc::CountingSystemAlloc;

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

fn main() -> std::process::ExitCode {
    kml_benchmark::main_from_args(true)
}
