//! The benchmark's vocabulary — workload and metric names, units and
//! directions — and `BENCHMARK.json` generated from it, so the file the
//! driver reads and the code that prints the metrics cannot drift apart
//! (`manifest_matches_the_committed_file` checks it).

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 12;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "lsm-mixgraph",
        why: "Paper Figure 2: Zipfian mixgraph on SATA SSD, DB >> cache. kvstore reads and kernel-sim cache/readahead/device are ~90 % of host time; loop or GEMM work must not show here",
    },
    WorkloadDef {
        name: "lsm-update",
        why: "Same stack, updaterandom on NVMe: memtable flush, compaction, dirty pages and writeback dominate; guards a read-path gain paid for by the write path",
    },
    WorkloadDef {
        name: "netfs-wifi",
        why: "NfsMount over lossy wifi with the trained RsizeTuner: transport, retransmit and server are ~97 % of host time, kvstore absent; a netfs change shows only here",
    },
    WorkloadDef {
        name: "fleet",
        why: "run_fleet, 2,048 tenants, 2 workers: the only multi-tenant, multi-threaded, all-three-tuners path; tenant footprint, stragglers and pool dispatch, serving ~2 % of a round",
    },
    WorkloadDef {
        name: "serve",
        why: "One InferenceServer, 2,048-request mixed-kind ticks: kml-core GEMM/sigmoid and kml-fleet grouping do all the work, both simulators idle; the mirror image of lsm-mixgraph",
    },
    WorkloadDef {
        name: "loop-replay",
        why: "A captured mixgraph tracepoint stream replayed through ring -> featurize -> NN -> actuate on an idle Sim: the only workload where the closed loop itself is the host time",
    },
    WorkloadDef {
        name: "retrain",
        why: "Continual cold path: 64-sample reservoir -> train_candidate (1,500 SGD steps) -> .kmlm -> install_artifact; training kernels and artifact codec, no simulator, no serving",
    },
];

pub const END_TO_END: &[MetricDef] = &[
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: &[MetricDef] = &[
    // Simulated outcome (exact repeats; a change here is a behaviour change).
    layer("sim.kml_speedup_x", "x", "higher"),
    layer("sim.op_p99_us", "us", "lower"),
    // kvstore (inclusive of kernel-sim below it).
    layer("kvstore.stack_ns_per_op", "ns", "lower"),
    layer("kvstore.flushes", "count", "lower"),
    layer("kvstore.compactions", "count", "lower"),
    layer("kvstore.memtable_hit_pct", "%", "higher"),
    layer("kvstore.table_reads_per_get", "ratio", "lower"),
    // kernel-sim.
    layer("kernel-sim.cache_hit_pct", "%", "higher"),
    layer("kernel-sim.evictions", "count", "lower"),
    layer("kernel-sim.wasted_prefetch_pct", "%", "lower"),
    layer("kernel-sim.device_reads", "count", "lower"),
    layer("kernel-sim.device_pages_per_op", "pages", "lower"),
    layer("kernel-sim.pages_written_per_put", "pages", "lower"),
    layer("kernel-sim.writebacks", "count", "lower"),
    layer("kernel-sim.trace_records_per_op", "count", "lower"),
    layer("kernel-sim.sim_s_per_host_s", "ratio", "higher"),
    // kml-collect.
    layer("kml-collect.ns_per_record", "ns", "lower"),
    layer("kml-collect.records_per_window", "count", "lower"),
    layer("kml-collect.dropped", "count", "lower"),
    layer("kml-collect.drain_ns_per_record", "ns", "lower"),
    // readahead (the closed loop).
    layer("readahead.poll_ns_per_op", "ns", "lower"),
    layer("readahead.window_close_ns_p50", "ns", "lower"),
    layer("readahead.window_close_ns_p99", "ns", "lower"),
    layer("readahead.featurize_ns_mean", "ns", "lower"),
    layer("readahead.infer_ns_p50", "ns", "lower"),
    layer("readahead.infer_ns_p99", "ns", "lower"),
    layer("readahead.apply_ns_mean", "ns", "lower"),
    layer("readahead.windows", "count", "higher"),
    layer("readahead.actuations", "count", "lower"),
    layer("readahead.loop_share_pct", "%", "lower"),
    // netfs.
    layer("netfs.read_ns_per_op", "ns", "lower"),
    layer("netfs.window_close_ns_p50", "ns", "lower"),
    layer("netfs.window_close_ns_p99", "ns", "lower"),
    layer("netfs.loop_share_pct", "%", "lower"),
    layer("netfs.rpcs_per_read", "ratio", "lower"),
    layer("netfs.retransmit_pct", "%", "lower"),
    layer("netfs.timeouts", "count", "lower"),
    layer("netfs.drc_hits", "count", "lower"),
    layer("netfs.duplicate_drops", "count", "lower"),
    layer("netfs.rsize_changes", "count", "lower"),
    // kml-fleet, driven tenant by tenant by the harness.
    layer("kml-fleet.derive_us_per_tenant", "us", "lower"),
    layer("kml-fleet.run_round_us_p50.ra", "us", "lower"),
    layer("kml-fleet.run_round_us_p50.io", "us", "lower"),
    layer("kml-fleet.run_round_us_p50.net", "us", "lower"),
    layer("kml-fleet.run_round_us_p99.ra", "us", "lower"),
    layer("kml-fleet.run_round_us_p99.io", "us", "lower"),
    layer("kml-fleet.run_round_us_p99.net", "us", "lower"),
    layer("kml-fleet.apply_ns_mean", "ns", "lower"),
    layer("kml-fleet.straggler_ratio", "ratio", "lower"),
    layer("kml-fleet.serve_share_pct", "%", "lower"),
    // kml-fleet, from run_fleet's own histograms and summary.
    layer("kml-fleet.round_ms_mean", "ms", "lower"),
    layer("kml-fleet.phase_run_ms_mean", "ms", "lower"),
    layer("kml-fleet.phase_apply_ms_mean", "ms", "lower"),
    layer("kml-fleet.batch_rows_mean", "rows", "higher"),
    layer("kml-fleet.forward_passes", "count", "lower"),
    layer("kml-fleet.bytes_per_tenant", "B", "lower"),
    // kml-fleet serving.
    layer("kml-fleet.tick_us_p50", "us", "lower"),
    layer("kml-fleet.tick_us_p99", "us", "lower"),
    layer("kml-fleet.serve_overhead_ns_per_row", "ns", "lower"),
    // kml-core.
    layer("kml-core.predict_batch_ns_per_row", "ns", "lower"),
    layer("kml-core.predict_ns_p50", "ns", "lower"),
    layer("kml-core.q8_ns_per_row", "ns", "lower"),
    layer("kml-core.train_step_us", "us", "lower"),
    layer("kml-core.codec_us", "us", "lower"),
    layer("kml-core.scratch_bytes", "B", "lower"),
    layer("kml-core.kernel_backend", "id", "higher"),
    // kml-continual, kml-lifecycle.
    layer("kml-continual.observe_ns", "ns", "lower"),
    layer("kml-continual.train_candidate_ms_p50", "ms", "lower"),
    layer("kml-lifecycle.package_us", "us", "lower"),
    layer("kml-lifecycle.install_us_p50", "us", "lower"),
    layer("kml-lifecycle.artifact_bytes", "B", "lower"),
    layer("retrain.cycle_ms_p50", "ms", "lower"),
    layer("retrain.cycle_ms_tail", "ms", "lower"),
    // kml-platform, iosched.
    layer("kml-platform.pool_dispatch_us", "us", "lower"),
    layer("kml-platform.allocs_per_window", "count", "lower"),
    layer("kml-platform.allocs_per_tick", "count", "lower"),
    layer("iosched.round_us_p50", "us", "lower"),
    // Instrument health.
    layer("bench.span_coverage_pct", "%", "higher"),
    layer("bench.trace_overhead_pct", "%", "lower"),
];

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn manifest_matches_the_committed_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `kml-bench --print-manifest`"
        );
    }
}
