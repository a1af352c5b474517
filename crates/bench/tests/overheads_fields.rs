//! `repro --quick --json overheads`: the fields no clock and no kernel
//! backend can move, as recorded on the last commit whose GFLOP/s line ran
//! the packed GEMM (PR 24 re-pointed it at `Matrix::matmul_into`; nothing
//! else in the experiment was to change).

use std::process::Command;

/// The number after `"key":` on a JSON line.
fn field(line: &str, key: &str) -> f64 {
    let tail = line
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .1;
    let end = tail.find([',', '}']).expect("value end");
    tail[..end].parse().expect("number")
}

#[test]
fn deterministic_fields_match_the_parent_commit() {
    let dir = std::env::temp_dir().join(format!("kml-overheads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--json", "overheads"])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    assert!(
        run.status.success(),
        "repro overheads: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = std::fs::read_to_string(dir.join("results/e5_overheads.jsonl")).expect("jsonl");
    std::fs::remove_dir_all(&dir).ok();

    let line_of = |name: &str| {
        json.lines()
            .find(|l| l.contains(&format!("\"{name}\"")))
            .unwrap_or_else(|| panic!("no line for {name}"))
    };
    for (metric, want) in [
        // Counts `size_of::<Model>()`: a field added to or removed from
        // `Model` or its `Graph` moves it (EXPERIMENTS.md E27; E32: the
        // 40-byte single-row staging matrix went, 3,480 -> 3,440).
        ("model_init_memory", 3440.0),
        ("inference_scratch_memory", 216.0),
        // The graph's arenas plus what the layers hold: 436 while each
        // layer kept a copy of its forward operand (220 B of them); the
        // arena alone since layers keep no forward state, equal to the
        // analytic figure above.
        ("measured_scratch_high_water", 216.0),
        ("kml_collect.ring.consumed_total", 24700.0),
        ("kml_collect.ring.dropped_total", 0.0),
        ("readahead.loop.decision_total", 52.0),
        ("readahead.loop.class.readrandom_total", 52.0),
        ("readahead.loop.actuation_total", 1.0),
        ("readahead.loop.ra_bytes", 8192.0),
        ("sim.cache.hit_total", 13177.0),
        ("sim.cache.miss_total", 2823.0),
    ] {
        assert_eq!(field(line_of(metric), "value"), want, "{metric}");
    }
    let requests = line_of("sim.device.read_request_bytes");
    assert_eq!(field(requests, "count"), 2823.0);
    assert_eq!(field(requests, "sum"), 47464448.0);
    // The line that changed kernels is still there and still a throughput.
    assert!(field(line_of("matmul_gflops"), "value") > 0.0);
}
