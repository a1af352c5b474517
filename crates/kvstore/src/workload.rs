//! db_bench-style workload driver (paper §4).
//!
//! Implements the six workloads of Table 2 — `readseq`, `readrandom`,
//! `readreverse`, `readrandomwriterandom`, `updaterandom`, and `mixgraph`
//! (the Zipfian mixed workload of Cao et al., FAST '20) — against a [`Db`]
//! running on a [`kernel_sim::Sim`]. Throughput is ops per *simulated*
//! second, so runs are deterministic given a seed.
//!
//! The driver invokes a caller-supplied hook after every operation; the
//! readahead crate's closed loop uses it to run KML's once-a-second
//! inference and retuning against the advancing simulated clock.

use crate::db::{Db, DbConfig};
use crate::sstable::prefetch;
use kernel_sim::{IoResult, Sim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::Zipf;
use std::sync::Mutex;

/// The six benchmark workloads of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Forward iteration over the whole keyspace.
    ReadSeq,
    /// Uniform-random point reads.
    ReadRandom,
    /// Backward iteration.
    ReadReverse,
    /// 90% random reads / 10% random writes (db_bench default mix).
    ReadRandomWriteRandom,
    /// Random read-modify-write.
    UpdateRandom,
    /// Zipfian mixed get/put/seek workload modeled on Facebook traces.
    MixGraph,
}

impl Workload {
    /// All six, in the paper's Table 2 order.
    pub fn all() -> [Workload; 6] {
        [
            Workload::ReadSeq,
            Workload::ReadRandom,
            Workload::ReadReverse,
            Workload::ReadRandomWriteRandom,
            Workload::UpdateRandom,
            Workload::MixGraph,
        ]
    }

    /// The four workloads the paper trains on (chosen for diversity in
    /// sequentiality vs. randomness); the other two are never-seen tests.
    pub fn training_set() -> [Workload; 4] {
        [
            Workload::ReadRandom,
            Workload::ReadSeq,
            Workload::ReadReverse,
            Workload::ReadRandomWriteRandom,
        ]
    }

    /// db_bench-style name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSeq => "readseq",
            Workload::ReadRandom => "readrandom",
            Workload::ReadReverse => "readreverse",
            Workload::ReadRandomWriteRandom => "readrandomwriterandom",
            Workload::UpdateRandom => "updaterandom",
            Workload::MixGraph => "mixgraph",
        }
    }

    /// Parses a db_bench-style name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name() == name)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the benchmark database is populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMode {
    /// `put` every key through the full write path (WAL, flush, compact).
    WritePath,
    /// Bulk-load one compacted run (fast setup for readahead studies).
    Bulk,
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Number of distinct keys in the database.
    pub num_keys: u64,
    /// Operations to execute (keys visited, for the scan workloads).
    pub ops: u64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Keys per seek burst in `mixgraph`.
    pub scan_burst: usize,
    /// Zipf exponent for `mixgraph` key popularity.
    pub zipf_exponent: f64,
}

impl WorkloadConfig {
    /// A sensible default configuration for `workload`.
    pub fn new(workload: Workload) -> Self {
        WorkloadConfig {
            workload,
            num_keys: 1 << 20,
            ops: 20_000,
            seed: 0xDB,
            scan_burst: 50,
            zipf_exponent: 0.99,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadReport {
    /// Operations executed.
    pub ops: u64,
    /// Simulated time consumed, ns.
    pub sim_ns: u64,
    /// Throughput in operations per simulated second.
    pub ops_per_sec: f64,
    /// Operations that hit an injected I/O error (always 0 without a fault
    /// plan). Failed operations still count toward `ops`.
    pub io_errors: u64,
}

/// Creates and populates a database with keys `0..num_keys`. Fails only
/// under an injected fault plan (fill is usually run fault-free).
pub fn fill_db(sim: &mut Sim, cfg: &WorkloadConfig, mode: FillMode) -> IoResult<Db> {
    let mut db = Db::create(sim, DbConfig::default());
    match mode {
        FillMode::Bulk => {
            db.bulk_load(sim, (0..cfg.num_keys).collect())?;
        }
        FillMode::WritePath => {
            for k in 0..cfg.num_keys {
                db.put(sim, k)?;
            }
            db.flush(sim)?;
            db.compact(sim)?;
        }
    }
    Ok(db)
}

/// Zipf tables the process keeps, most recently used last. A benchmark
/// repeats one keyspace and finds its table here; a sweep over hundreds of
/// key counts cycles through the slots and holds no more than these.
static ZIPF_TABLES: Mutex<Vec<((u64, u64), Zipf)>> = Mutex::new(Vec::new());
const ZIPF_TABLES_KEPT: usize = 4;

/// The rank table for `mixgraph` over `num_keys` keys: one `powf` and 8
/// bytes per key to build, so built once per `(num_keys, exponent)` and
/// shared. The lock is held to look up and to insert, never to build.
fn zipf_table(num_keys: u64, exponent: f64) -> Zipf {
    let key = (num_keys, exponent.to_bits());
    let lock = || ZIPF_TABLES.lock().expect("no panic while held");
    let kept = |tables: &mut Vec<((u64, u64), Zipf)>| {
        let at = tables.iter().position(|(k, _)| *k == key)?;
        let hit = tables.remove(at);
        let zipf = hit.1.clone();
        tables.push(hit);
        Some(zipf)
    };
    if let Some(zipf) = kept(&mut lock()) {
        return zipf;
    }
    let built = Zipf::new(num_keys, exponent)
        .expect("a filled database has 1..2^32 keys; the exponent is >= 0 by construction");
    let mut tables = lock();
    // Another thread may have built the same table meanwhile: keep that one.
    let (zipf, unused) = match kept(&mut tables) {
        Some(zipf) => (zipf, Some(built)),
        None => {
            let evicted = (tables.len() == ZIPF_TABLES_KEPT).then(|| tables.remove(0).1);
            tables.push((key, built.clone()));
            (built, evicted)
        }
    };
    drop(tables);
    drop(unused); // frees megabytes: not under the lock
    zipf
}

/// Runs a workload to completion, invoking `on_op` (with the simulator,
/// for clock inspection and readahead retuning) after every operation.
/// Returns the throughput report.
///
/// Operations that hit an injected I/O error do not abort the run: the
/// error is counted in [`WorkloadReport::io_errors`], the operation counts
/// as executed, and the workload continues — the graceful-degradation
/// behavior a benchmark driver needs under device faults.
pub fn run_workload(
    sim: &mut Sim,
    db: &mut Db,
    cfg: &WorkloadConfig,
    mut on_op: impl FnMut(&mut Sim),
) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let start_ns = sim.now_ns();
    let mut ops = 0u64;
    let mut io_errors = 0u64;
    // Per-op latency in *simulated* ns, labeled by workload — deterministic,
    // and a no-op handle unless the sim has a telemetry registry attached.
    let op_latency_ns = sim
        .telemetry()
        .histogram(&format!("kvstore.{}.op_latency_ns", cfg.workload.name()));
    let mut last_op_start = start_ns;
    // Only `mixgraph` draws Zipfian ranks.
    let zipf =
        (cfg.workload == Workload::MixGraph).then(|| zipf_table(cfg.num_keys, cfg.zipf_exponent));
    // Spread Zipf ranks over the keyspace so popularity is not co-located
    // with key order (Facebook traces show scattered hot keys).
    let spread = |rank: u64, n: u64| (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % n;
    // `mixgraph`'s next operation, drawn one ahead: its Zipf draw and dice.
    let mut ahead = None;

    let mut cursor = 0u64;
    while ops < cfg.ops {
        match cfg.workload {
            Workload::ReadSeq => {
                let burst = 40.min(cfg.ops - ops) as usize;
                let visited = match db.scan(sim, cursor, burst) {
                    Ok(v) => v,
                    Err(_) => {
                        // Count the failed burst as one op and advance the
                        // cursor so an always-failing scan cannot loop
                        // forever on the same position.
                        io_errors += 1;
                        cursor += 1;
                        ops += 1;
                        0
                    }
                };
                if visited == 0 {
                    if cursor >= cfg.num_keys {
                        cursor = 0; // wrapped past the end: restart the scan
                    }
                    continue;
                }
                cursor += visited as u64;
                ops += visited as u64;
            }
            Workload::ReadReverse => {
                let burst = 40.min(cfg.ops - ops) as usize;
                let from = if cursor == 0 {
                    cfg.num_keys - 1
                } else {
                    cursor
                };
                let visited = match db.scan_reverse(sim, from, burst) {
                    Ok(v) => v,
                    Err(_) => {
                        io_errors += 1;
                        0
                    }
                };
                if visited == 0 || from < visited as u64 {
                    cursor = cfg.num_keys - 1;
                } else {
                    cursor = from - visited as u64;
                }
                ops += visited.max(1) as u64;
            }
            Workload::ReadRandom => {
                let k = rng.gen_range(0..cfg.num_keys);
                if db.get(sim, k).is_err() {
                    io_errors += 1;
                }
                ops += 1;
            }
            Workload::ReadRandomWriteRandom => {
                if rng.gen_range(0..100) < 90 {
                    let k = rng.gen_range(0..cfg.num_keys);
                    if db.get(sim, k).is_err() {
                        io_errors += 1;
                    }
                } else {
                    let k = rng.gen_range(0..cfg.num_keys);
                    if db.put(sim, k).is_err() {
                        io_errors += 1;
                    }
                }
                ops += 1;
            }
            Workload::UpdateRandom => {
                let k = rng.gen_range(0..cfg.num_keys);
                if db.get(sim, k).is_err() {
                    io_errors += 1;
                }
                if db.put(sim, k).is_err() {
                    io_errors += 1;
                }
                ops += 1;
            }
            Workload::MixGraph => {
                let zipf = zipf.as_ref().expect("built for mixgraph above");
                // Draw operation i + 1 and prefetch the CDF entry its rank
                // search reads first, then resolve operation i's rank: the
                // miss overlaps this operation. The RNG yields the same words
                // in the same order, and draws stop at `cfg.ops`.
                let (draw, dice) = ahead
                    .take()
                    .unwrap_or_else(|| (zipf.draw(&mut rng), rng.gen_range(0..100)));
                if ops + 1 < cfg.ops {
                    let next = zipf.draw(&mut rng);
                    prefetch(next.guess_entry());
                    ahead = Some((next, rng.gen_range(0..100)));
                }
                let k = spread(zipf.rank(draw) - 1, cfg.num_keys);
                let failed = if dice < 85 {
                    db.get(sim, k).is_err()
                } else if dice < 99 {
                    db.put(sim, k).is_err()
                } else {
                    db.scan(sim, k, cfg.scan_burst).is_err()
                };
                if failed {
                    io_errors += 1;
                }
                ops += 1;
            }
        }
        // One loop iteration = one logical operation (scan bursts count as
        // one multi-key op here; `ops` still counts keys visited).
        let now = sim.now_ns();
        op_latency_ns.record(now - last_op_start);
        last_op_start = now;
        on_op(sim);
    }
    let sim_ns = sim.now_ns() - start_ns;
    WorkloadReport {
        ops,
        sim_ns,
        ops_per_sec: if sim_ns == 0 {
            0.0
        } else {
            ops as f64 * 1e9 / sim_ns as f64
        },
        io_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, SimConfig};

    fn sim(device: DeviceProfile) -> Sim {
        Sim::new(SimConfig {
            device,
            cache_pages: 4096,
            ..SimConfig::default()
        })
    }

    fn quick_cfg(w: Workload) -> WorkloadConfig {
        WorkloadConfig {
            num_keys: 1 << 16,
            ops: 2_000,
            ..WorkloadConfig::new(w)
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::all() {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nosuch"), None);
    }

    #[test]
    fn training_set_is_a_strict_subset() {
        let all = Workload::all();
        for w in Workload::training_set() {
            assert!(all.contains(&w));
        }
        assert!(!Workload::training_set().contains(&Workload::MixGraph));
        assert!(!Workload::training_set().contains(&Workload::UpdateRandom));
    }

    #[test]
    fn every_workload_completes_and_reports_positive_throughput() {
        for w in Workload::all() {
            let mut s = sim(DeviceProfile::nvme());
            let cfg = quick_cfg(w);
            let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
            s.drop_caches().unwrap();
            let report = run_workload(&mut s, &mut db, &cfg, |_| {});
            assert!(report.ops >= cfg.ops, "{w}: only {} ops", report.ops);
            assert!(report.ops_per_sec > 0.0, "{w}: zero throughput");
        }
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let run = || {
            let mut s = sim(DeviceProfile::sata_ssd());
            let cfg = quick_cfg(Workload::MixGraph);
            let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
            s.drop_caches().unwrap();
            run_workload(&mut s, &mut db, &cfg, |_| {})
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// `mixgraph` draws each operation one ahead of executing it. Recorded
    /// before it did: the report of 2,000 operations, fault-free and under a
    /// light fault plan, and the draw-ahead's edges — one operation (nothing
    /// to draw ahead) and two (one draw ahead, none after).
    #[test]
    fn mixgraph_reports_match_the_parent_commit() {
        use kernel_sim::{FaultConfig, FaultPlan};
        let report = |ops, faults: Option<FaultConfig>| {
            let mut s = sim(DeviceProfile::sata_ssd());
            let cfg = WorkloadConfig {
                ops,
                ..quick_cfg(Workload::MixGraph)
            };
            let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
            s.drop_caches().unwrap();
            s.set_fault_plan(faults.map(FaultPlan::new));
            let r = run_workload(&mut s, &mut db, &cfg, |_| {});
            (r.ops, r.sim_ns, r.io_errors)
        };
        assert_eq!(report(2_000, None), (2_000, 76_445_600, 0));
        let light = Some(FaultConfig::light(3));
        assert_eq!(report(2_000, light), (2_000, 196_635_000, 11));
        assert_eq!(report(1, None), (1, 131_600, 0));
        assert_eq!(report(2, None), (2, 263_200, 0));
    }

    #[test]
    fn readseq_is_much_faster_than_readrandom() {
        let throughput = |w| {
            let mut s = sim(DeviceProfile::sata_ssd());
            let cfg = quick_cfg(w);
            let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
            s.drop_caches().unwrap();
            run_workload(&mut s, &mut db, &cfg, |_| {}).ops_per_sec
        };
        let seq = throughput(Workload::ReadSeq);
        let random = throughput(Workload::ReadRandom);
        assert!(
            seq > 5.0 * random,
            "seq {seq:.0} should dwarf random {random:.0}"
        );
    }

    #[test]
    fn on_op_hook_fires_per_operation() {
        let mut s = sim(DeviceProfile::nvme());
        let cfg = quick_cfg(Workload::ReadRandom);
        let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
        let mut calls = 0u64;
        run_workload(&mut s, &mut db, &cfg, |_| calls += 1);
        assert_eq!(calls, cfg.ops);
    }

    #[test]
    fn mixgraph_concentrates_on_hot_keys() {
        // Zipf(0.99): a small set of hot keys dominates accesses —
        // verified indirectly: cache hit ratio far above uniform random.
        let hit_ratio = |w| {
            let mut s = sim(DeviceProfile::nvme());
            let cfg = WorkloadConfig {
                num_keys: 1 << 18,
                ops: 12_000,
                ..WorkloadConfig::new(w)
            };
            let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
            s.drop_caches().unwrap();
            s.reset_stats();
            run_workload(&mut s, &mut db, &cfg, |_| {});
            let st = s.stats().cache;
            st.hits as f64 / (st.hits + st.misses) as f64
        };
        let zipf = hit_ratio(Workload::MixGraph);
        let uniform = hit_ratio(Workload::ReadRandom);
        // The within-block hits (3 per 4-page block read) put both ratios
        // near 0.75; the Zipfian hot set adds real cache reuse on top.
        assert!(
            zipf > uniform + 0.01,
            "mixgraph hit ratio {zipf:.3} vs uniform {uniform:.3}"
        );
    }

    #[test]
    fn op_latency_recorded_per_workload_in_simulated_ns() {
        use kml_telemetry::Registry;
        let reg = Registry::new();
        let mut s = sim(DeviceProfile::nvme());
        s.attach_telemetry(&reg);
        let cfg = quick_cfg(Workload::ReadRandom);
        let mut db = fill_db(&mut s, &cfg, FillMode::Bulk).unwrap();
        s.drop_caches().unwrap();
        let report = run_workload(&mut s, &mut db, &cfg, |_| {});
        if reg.is_enabled() {
            let snap = reg.snapshot();
            let h = snap.histogram("kvstore.readrandom.op_latency_ns").unwrap();
            assert_eq!(h.count, cfg.ops);
            // Latencies sum to the whole run's simulated time.
            assert_eq!(h.sum, report.sim_ns);
            assert!(h.p50 > 0);
        }
    }

    #[test]
    fn write_path_fill_exercises_flush_and_compaction() {
        let mut s = sim(DeviceProfile::nvme());
        let cfg = WorkloadConfig {
            num_keys: 40_000,
            ..WorkloadConfig::new(Workload::ReadRandom)
        };
        let db = fill_db(&mut s, &cfg, FillMode::WritePath).unwrap();
        assert!(db.stats().flushes > 0);
        assert!(db.stats().compactions > 0);
        assert_eq!(db.approximate_len(), 40_000);
    }
}
