//! Simulated tenants: deterministic seed-derived combinations of workload,
//! device, and (for network tenants) link profile.
//!
//! A tenant is one independent storage stack — its own simulator, its own
//! tracepoint ring, its own tuner — driving a db_bench-style access
//! pattern. The *only* thing tenants share is the fleet's model-inference
//! server: each tuner is built in remote mode ([`LoopModel::Remote`]), so
//! a tenant harvests feature windows through the tuners'
//! `poll_*` APIs, ships them to the server as [`InferRequest`]s, and
//! routes the served class back through `apply_class`.
//!
//! Everything about a tenant derives from `(fleet_seed, tenant_id)`
//! through [`SplitMix64`]: workload category (Zipfian popularity over the
//! six Table 2 workloads plus netfs-backed files), device profile, link
//! profile, and the per-tenant traffic RNG. Tenant construction and
//! per-round execution touch no global state, which is what lets the
//! fleet shard tenants across workers and stay byte-identical at any
//! `--threads` count.

use iosched::scheduler::{IoRequest, IoScheduler, SchedulerConfig};
use iosched::SchedTuner;
use kernel_sim::{DeviceProfile, FileId, Sim, SimConfig};
use kml_collect::RingBuffer;
use kml_lifecycle::LoopModel;
use kml_platform::sampler::{Categorical, SplitMix64, Zipfian};
use kml_telemetry::Log2Hist;
use netfs::transport::NetProfile;
use netfs::tuner::{RsizePolicy, RsizeTuner};
use netfs::{max_rpc_events_per_op, NfsMount};
use readahead::tuner::{KmlTuner, RaPolicy};

use crate::server::{InferRequest, InferResponse, ModelKind, MAX_FEATURES};

/// A tenant's workload category: the paper's six db_bench-style workloads
/// plus network-filesystem-backed file serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantWorkload {
    /// Uniform-random point reads (readahead-tuned).
    ReadRandom,
    /// Forward scans (readahead-tuned).
    ReadSeq,
    /// 90/10 random read/write mix (readahead-tuned).
    ReadRandomWriteRandom,
    /// Random read-modify-write against the block scheduler (iosched-tuned).
    UpdateRandom,
    /// Bursty mixed traffic against the block scheduler (iosched-tuned).
    MixGraph,
    /// Backward scans (readahead-tuned).
    ReadReverse,
    /// Files served over the simulated network path (rsize-tuned).
    NetfsFiles,
}

impl TenantWorkload {
    /// All categories in Zipfian popularity order: index = popularity
    /// rank, so the fleet skews toward point reads and scans the way a
    /// shared-storage customer base does, with network tenants mid-tail.
    pub const POPULARITY: [TenantWorkload; 7] = [
        TenantWorkload::ReadRandom,
        TenantWorkload::ReadSeq,
        TenantWorkload::ReadRandomWriteRandom,
        TenantWorkload::NetfsFiles,
        TenantWorkload::MixGraph,
        TenantWorkload::UpdateRandom,
        TenantWorkload::ReadReverse,
    ];

    /// Display name (db_bench spelling where one exists).
    pub fn name(self) -> &'static str {
        match self {
            TenantWorkload::ReadRandom => "readrandom",
            TenantWorkload::ReadSeq => "readseq",
            TenantWorkload::ReadRandomWriteRandom => "readrandomwriterandom",
            TenantWorkload::UpdateRandom => "updaterandom",
            TenantWorkload::MixGraph => "mixgraph",
            TenantWorkload::ReadReverse => "readreverse",
            TenantWorkload::NetfsFiles => "netfsfiles",
        }
    }

    /// Stable index into per-workload count arrays (POPULARITY order).
    pub fn index(self) -> usize {
        TenantWorkload::POPULARITY
            .iter()
            .position(|&w| w == self)
            .expect("every workload appears in POPULARITY")
    }

    /// Which shared model serves this category.
    pub fn model_kind(self) -> ModelKind {
        match self {
            TenantWorkload::ReadRandom
            | TenantWorkload::ReadSeq
            | TenantWorkload::ReadRandomWriteRandom
            | TenantWorkload::ReadReverse => ModelKind::Readahead,
            TenantWorkload::UpdateRandom | TenantWorkload::MixGraph => ModelKind::Iosched,
            TenantWorkload::NetfsFiles => ModelKind::Netfs,
        }
    }
}

impl std::fmt::Display for TenantWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fleet's population distributions, built once and shared by every
/// tenant derivation (the distributions are fixed; only the draws are
/// per-tenant).
#[derive(Debug, Clone)]
pub struct FleetSampler {
    workload: Zipfian,
    device: Categorical,
    net: Categorical,
}

impl Default for FleetSampler {
    fn default() -> Self {
        FleetSampler {
            // Zipf over the 7 categories: rank 1 (~36%) down to rank 7 (~5%).
            workload: Zipfian::new(TenantWorkload::POPULARITY.len(), 1.0),
            // nvme-heavy with an HDD tail, like a mixed-generation fleet.
            device: Categorical::new(&[0.45, 0.35, 0.20]),
            // Mostly in-datacenter clients, some WAN, some last-mile wifi.
            net: Categorical::new(&[0.50, 0.30, 0.20]),
        }
    }
}

impl FleetSampler {
    /// Creates the default fleet population distributions.
    pub fn new() -> Self {
        FleetSampler::default()
    }
}

/// Per-workload file size, pages (virtual — the sim stores no data).
const RA_FILE_PAGES: u64 = 1 << 14;
/// Netfs tenant file size, pages.
const NET_FILE_PAGES: u64 = 1 << 16;
/// Iosched tenants address this many pages of one inode.
const IO_FILE_PAGES: u64 = 1 << 18;

/// Pages per netfs tenant read (512 KiB).
const NET_OP_PAGES: u64 = 128;

/// Readahead tenants: per-class best readahead KiB, indexed by the
/// training-class order `[readrandom, readseq, readreverse, rrwr]`.
const RA_POLICY_KB: [u32; 4] = [16, 1024, 256, 64];
/// Iosched tenants: batch wait per class `[latency-sensitive, mergeable]`.
const IO_POLICY_NS: [u64; 2] = [0, 150_000];

/// Readahead tenants infer on 1 ms windows of simulated time — fast
/// enough that every round harvests a window on all device tiers.
const RA_WINDOW_NS: u64 = 1_000_000;

/// Per-round operation caps (a round stops early once a window is
/// harvested, so these are upper bounds, not budgets to fill).
const RA_OPS_CAP: u32 = 192;
const IO_OPS_CAP: u32 = 160;
const NET_OPS_CAP: u32 = 48;

// The simulated worlds are boxed so a mixed fleet's `Vec<Tenant>` costs
// the small-variant size per element, not the largest world's.
#[derive(Debug)]
enum TenantState {
    Readahead {
        sim: Box<Sim>,
        file: FileId,
        tuner: KmlTuner,
    },
    Iosched {
        sched: Box<IoScheduler>,
        tuner: SchedTuner,
        now_ns: u64,
    },
    Netfs {
        mount: Box<NfsMount>,
        file: FileId,
        tuner: RsizeTuner,
    },
}

/// One simulated tenant.
#[derive(Debug)]
pub struct Tenant {
    /// Globally unique tenant id (stable across runs).
    pub id: u64,
    /// The tenant's workload category.
    pub workload: TenantWorkload,
    state: TenantState,
    rng: SplitMix64,
    pos: u64,
    /// True between submitting a window and receiving its decision — the
    /// exactly-once accounting the fleet invariants check.
    pub outstanding: bool,
    /// Windows submitted to the server so far.
    pub windows_submitted: u64,
    /// Decisions routed back and applied so far.
    pub decisions_applied: u64,
}

impl Tenant {
    /// Derives tenant `id` of the fleet seeded by `fleet_seed`. The whole
    /// configuration — workload, device, link, traffic stream — is a pure
    /// function of the two seeds and the shared population distributions.
    pub fn derive(fleet_seed: u64, id: u64, sampler: &FleetSampler) -> Tenant {
        // Domain-separated per-tenant stream: tenants draw nothing from a
        // shared RNG, so construction order (and sharding) cannot matter.
        let mut rng = SplitMix64::new(fleet_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let workload = TenantWorkload::POPULARITY[sampler.workload.sample(&mut rng)];
        let device = match sampler.device.sample(&mut rng) {
            0 => DeviceProfile::nvme(),
            1 => DeviceProfile::sata_ssd(),
            _ => DeviceProfile::hdd(),
        };
        let state = match workload.model_kind() {
            ModelKind::Readahead => {
                let cfg = SimConfig {
                    device,
                    cache_pages: 256,
                    ..SimConfig::default()
                };
                let mut sim = Sim::new(cfg);
                let file = sim.create_file(RA_FILE_PAGES);
                // The tuner empties the ring after every operation, so the
                // ring holds one operation's worst burst and no more.
                let (op_pages, writes) = readahead_request(workload);
                let max_ra_kb = RA_POLICY_KB.into_iter().max().expect("non-empty policy");
                let burst = cfg.max_trace_records_per_op(max_ra_kb, op_pages, writes);
                let (producer, consumer) = RingBuffer::with_capacity(burst).split();
                sim.attach_trace(producer);
                let tuner = KmlTuner::new(
                    LoopModel::Remote,
                    RaPolicy::new(RA_POLICY_KB.to_vec()),
                    consumer,
                    RA_WINDOW_NS,
                    128,
                );
                TenantState::Readahead {
                    sim: Box::new(sim),
                    file,
                    tuner,
                }
            }
            ModelKind::Iosched => TenantState::Iosched {
                sched: Box::new(IoScheduler::new(device, SchedulerConfig::default())),
                tuner: SchedTuner::new(LoopModel::Remote, IO_POLICY_NS),
                now_ns: 0,
            },
            ModelKind::Netfs => {
                let link_seed = rng.next_u64();
                let profile = match sampler.net.sample(&mut rng) {
                    0 => NetProfile::datacenter(link_seed),
                    1 => NetProfile::congested_wan(link_seed),
                    _ => NetProfile::lossy_wifi(link_seed),
                };
                let mut mount = NfsMount::new(
                    profile,
                    SimConfig {
                        cache_pages: 256,
                        ..SimConfig::default()
                    },
                );
                let file = mount.create_file(NET_FILE_PAGES);
                // As above: one read's worst burst, at the smallest rsize
                // the mount starts at or the policy can set.
                let policy = RsizePolicy::experiment_default();
                let min_rsize_kb = policy.min_rsize_kb().min(mount.rsize_kb());
                let burst = max_rpc_events_per_op(NET_OP_PAGES, min_rsize_kb);
                let (producer, consumer) = RingBuffer::with_capacity(burst).split();
                mount.attach_rpc_trace(producer);
                let tuner = RsizeTuner::new(
                    LoopModel::Remote,
                    policy,
                    consumer,
                    RsizeTuner::DEFAULT_WINDOW_NS,
                );
                TenantState::Netfs {
                    mount: Box::new(mount),
                    file,
                    tuner,
                }
            }
        };
        let pos = match workload {
            TenantWorkload::ReadReverse => RA_FILE_PAGES,
            _ => 0,
        };
        Tenant {
            id,
            workload,
            state,
            rng,
            pos,
            outstanding: false,
            windows_submitted: 0,
            decisions_applied: 0,
        }
    }

    /// Which shared model serves this tenant.
    pub fn model_kind(&self) -> ModelKind {
        self.workload.model_kind()
    }

    /// Runs one round of tenant traffic: issues operations (recording each
    /// tenant-visible latency into `hist`) until the tuner harvests a
    /// feature window or the round's op cap is reached. Returns the
    /// harvested window as a server request, if any.
    pub fn run_round(&mut self, hist: &mut Log2Hist) -> Option<InferRequest> {
        debug_assert!(!self.outstanding, "round started with a window in flight");
        let (id, kind) = (self.id, self.model_kind());
        let features: Option<InferRequest> = match &mut self.state {
            TenantState::Readahead { sim, file, tuner } => {
                let mut harvested = None;
                for _ in 0..RA_OPS_CAP {
                    let (page, npages, write) =
                        readahead_access(self.workload, &mut self.rng, &mut self.pos);
                    let latency = if write {
                        sim.write(*file, page, npages)
                    } else {
                        sim.read(*file, page, npages)
                    }
                    .expect("fault-free tenant sim");
                    hist.record(latency);
                    if let Some(f) = tuner.poll_window(sim) {
                        harvested = Some(f);
                        break;
                    }
                }
                harvested.map(|f| request(id, kind, &f))
            }
            TenantState::Iosched {
                sched,
                tuner,
                now_ns,
            } => iosched_round(self.workload, sched, tuner, now_ns, &mut self.rng, hist)
                .map(|f| request(id, kind, &f)),
            TenantState::Netfs { mount, file, tuner } => {
                let mut harvested = None;
                for _ in 0..NET_OPS_CAP {
                    let page = self.pos % (NET_FILE_PAGES - NET_OP_PAGES);
                    self.pos += NET_OP_PAGES;
                    // Give-ups under total loss are part of tenant life;
                    // the failed attempt still advanced the clock.
                    if let Ok(latency) = mount.read(*file, page, NET_OP_PAGES) {
                        hist.record(latency);
                    }
                    if let Some(f) = tuner.poll_window(mount) {
                        harvested = Some(f);
                        break;
                    }
                }
                harvested.map(|f| request(id, kind, &f))
            }
        };
        if features.is_some() {
            self.outstanding = true;
            self.windows_submitted += 1;
        }
        features
    }

    /// Routes a served decision back into the tenant's tuner.
    ///
    /// # Panics
    ///
    /// Panics if the response belongs to another tenant or model kind, or
    /// if no window is in flight — the routing and exactly-once invariants
    /// the DST fleet scenario asserts.
    pub fn apply(&mut self, response: &InferResponse) {
        assert_eq!(
            response.tenant_id, self.id,
            "decision routed to wrong tenant"
        );
        assert_eq!(
            response.kind,
            self.model_kind(),
            "decision routed to wrong model kind"
        );
        assert!(self.outstanding, "decision with no window in flight");
        self.outstanding = false;
        self.decisions_applied += 1;
        match &mut self.state {
            TenantState::Readahead { sim, tuner, .. } => tuner.apply_class(sim, response.class),
            TenantState::Iosched { sched, tuner, .. } => tuner.apply_class(sched, response.class),
            TenantState::Netfs { mount, tuner, .. } => tuner.apply_class(mount, response.class),
        }
    }

    /// Tracepoint records the tenant's ring overwrote before its tuner read
    /// them (iosched tenants have no ring). The rings are sized to one
    /// operation's worst burst and emptied after every operation, so this
    /// stays 0; `run_fleet` asserts it.
    pub fn records_dropped(&self) -> u64 {
        match &self.state {
            TenantState::Readahead { tuner, .. } => tuner.records_dropped(),
            TenantState::Iosched { .. } => 0,
            TenantState::Netfs { tuner, .. } => tuner.records_dropped(),
        }
    }

    /// The knob currently in force, for inspection: readahead KiB, batch
    /// wait ns, or rsize KiB depending on the tenant kind.
    pub fn current_knob(&self) -> u64 {
        match &self.state {
            TenantState::Readahead { tuner, .. } => u64::from(tuner.current_ra_kb()),
            TenantState::Iosched { sched, .. } => sched.config().batch_wait_ns,
            TenantState::Netfs { mount, .. } => u64::from(mount.rsize_kb()),
        }
    }
}

fn request(tenant_id: u64, kind: ModelKind, features: &[f64]) -> InferRequest {
    let mut buf = [0.0; MAX_FEATURES];
    buf[..features.len()].copy_from_slice(features);
    InferRequest {
        tenant_id,
        kind,
        features: buf,
        dim: features.len(),
    }
}

/// The request a readahead workload issues: its size in pages (scans read
/// 32 KiB blocks, point workloads 16 KiB ones) and whether it ever writes.
/// The tenant's traffic and its ring's capacity both come from here.
fn readahead_request(workload: TenantWorkload) -> (u64, bool) {
    match workload {
        TenantWorkload::ReadSeq | TenantWorkload::ReadReverse => (8, false),
        TenantWorkload::ReadRandomWriteRandom => (4, true),
        _ => (4, false),
    }
}

/// One access of a readahead tenant: `(page, npages, write)`.
fn readahead_access(
    workload: TenantWorkload,
    rng: &mut SplitMix64,
    pos: &mut u64,
) -> (u64, u64, bool) {
    let (npages, writes) = readahead_request(workload);
    match workload {
        TenantWorkload::ReadSeq => {
            let page = *pos % (RA_FILE_PAGES - npages);
            *pos += npages;
            (page, npages, false)
        }
        TenantWorkload::ReadReverse => {
            if *pos < npages {
                *pos = RA_FILE_PAGES;
            }
            *pos -= npages;
            (*pos, npages, false)
        }
        _ => {
            // readrandomwriterandom: db_bench's default 90/10 mix (drawn
            // before the page; readrandom draws only the page).
            let write = writes && rng.next_below(10) == 0;
            (rng.next_below(RA_FILE_PAGES - npages), npages, write)
        }
    }
}

/// One round of an iosched tenant: dependent-random traffic for
/// `updaterandom`, shuffled adjacent bursts for `mixgraph` (the two
/// antagonistic patterns of the scheduler case study).
fn iosched_round(
    workload: TenantWorkload,
    sched: &mut IoScheduler,
    tuner: &mut SchedTuner,
    now_ns: &mut u64,
    rng: &mut SplitMix64,
    hist: &mut Log2Hist,
) -> Option<[f64; iosched::tuner::NUM_SCHED_FEATURES]> {
    let mut harvested = None;
    let mut issued = 0u32;
    let burst_mode = workload == TenantWorkload::MixGraph;
    while issued < IO_OPS_CAP && harvested.is_none() {
        if burst_mode {
            // A burst of 16 adjacent 4-page requests in a fixed shuffled
            // order, arriving over ~25 µs.
            let base = rng.next_below(IO_FILE_PAGES / 128) * 64;
            for k in 0..16u64 {
                let idx = (k * 7 + 3) % 16; // deterministic shuffle
                let req = IoRequest {
                    inode: 1,
                    page: base + idx * 4,
                    npages: 4,
                    write: false,
                    arrival_ns: *now_ns + k * 1_500,
                };
                sched.submit(req);
                if harvested.is_none() {
                    harvested = tuner.poll_request(sched, &req);
                }
                for c in sched.drain(req.arrival_ns) {
                    hist.record(c.latency_ns);
                }
                issued += 1;
            }
            *now_ns += 25_000;
            for c in sched.drain(*now_ns) {
                hist.record(c.latency_ns);
            }
            *now_ns = (*now_ns).max(sched.busy_until_ns());
            for c in sched.drain(*now_ns) {
                hist.record(c.latency_ns);
            }
            *now_ns += 100_000;
            for c in sched.drain(*now_ns) {
                hist.record(c.latency_ns);
            }
        } else {
            // Synchronous read-modify-write client, one outstanding op.
            let page = rng.next_below(IO_FILE_PAGES / 4) * 4;
            let req = IoRequest {
                inode: 1,
                page,
                npages: 4,
                write: rng.next_below(2) == 1,
                arrival_ns: *now_ns,
            };
            sched.submit(req);
            if harvested.is_none() {
                harvested = tuner.poll_request(sched, &req);
            }
            let mut guard = 0u32;
            loop {
                let done = sched.drain(*now_ns);
                let mut finished = false;
                for c in &done {
                    hist.record(c.latency_ns);
                    if c.request == req {
                        finished = true;
                    }
                }
                if finished {
                    let latest = done
                        .iter()
                        .map(|c| c.completion_ns)
                        .max()
                        .unwrap_or(*now_ns);
                    *now_ns = (*now_ns).max(latest);
                    break;
                }
                *now_ns += sched.config().batch_wait_ns.max(1_000);
                guard += 1;
                assert!(guard < 10_000, "tenant request never completed");
            }
            *now_ns += 2_000; // think time
            issued += 1;
        }
    }
    harvested
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic_and_order_free() {
        let sampler = FleetSampler::new();
        let a = Tenant::derive(42, 7, &sampler);
        let b = Tenant::derive(42, 7, &sampler);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.current_knob(), b.current_knob());
        // A different id or seed lands elsewhere in the population.
        let ids: Vec<TenantWorkload> = (0..64)
            .map(|id| Tenant::derive(42, id, &sampler).workload)
            .collect();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() > 2, "population collapsed to {distinct:?}");
    }

    #[test]
    fn population_skews_toward_the_popular_ranks() {
        let sampler = FleetSampler::new();
        let mut counts = [0u64; 7];
        for id in 0..2_000 {
            counts[Tenant::derive(9, id, &sampler).workload.index()] += 1;
        }
        // Rank 1 strictly more popular than rank 7, and every model kind
        // is represented.
        assert!(counts[0] > counts[6]);
        assert!(counts.iter().all(|&c| c > 0), "empty category: {counts:?}");
    }

    #[test]
    fn a_readahead_tenant_round_trips_a_window() {
        let sampler = FleetSampler::new();
        // Find a readahead tenant deterministically.
        let mut tenant = (0..64)
            .map(|id| Tenant::derive(1, id, &sampler))
            .find(|t| t.model_kind() == ModelKind::Readahead)
            .expect("population contains readahead tenants");
        let mut hist = Log2Hist::new();
        let req = loop {
            if let Some(r) = tenant.run_round(&mut hist) {
                break r;
            }
        };
        assert!(tenant.outstanding);
        assert_eq!(req.tenant_id, tenant.id);
        assert_eq!(req.dim, readahead::NUM_FEATURES);
        assert!(hist.count() > 0, "ops recorded latencies");
        tenant.apply(&InferResponse {
            tenant_id: tenant.id,
            kind: req.kind,
            class: 1,
        });
        assert!(!tenant.outstanding);
        assert_eq!(tenant.decisions_applied, 1);
    }

    #[test]
    fn no_class_sequence_overruns_a_ring() {
        // The rings hold one operation's worst burst, whatever the served
        // classes do to the knobs: pinned at the class with the widest
        // readahead and the smallest rsize, flipping between the extremes
        // (in pairs of rounds, so the two-window confirmation actuates
        // every flip), and split by tenant-id parity.
        let schedules: [fn(u64, usize) -> usize; 3] = [
            |_, _| 1,
            |_, round| (round / 2) % 2,
            |id, round| ((id as usize) + round / 2) % 2,
        ];
        let sampler = FleetSampler::new();
        let mut hist = Log2Hist::new();
        for (seed, class_of) in [7, 0xF1EE7, 0x5EED_F00D].into_iter().zip(schedules) {
            let mut tenants: Vec<Tenant> = (0..256)
                .map(|id| Tenant::derive(seed, id, &sampler))
                .collect();
            for round in 0..64 {
                for tenant in &mut tenants {
                    if let Some(request) = tenant.run_round(&mut hist) {
                        tenant.apply(&InferResponse {
                            tenant_id: tenant.id,
                            kind: request.kind,
                            class: class_of(tenant.id, round),
                        });
                    }
                }
            }
            for tenant in &tenants {
                assert_eq!(
                    tenant.records_dropped(),
                    0,
                    "seed {seed:#x}: {} tenant {} overran its ring",
                    tenant.workload,
                    tenant.id
                );
            }
            let widest = tenants
                .iter()
                .filter(|t| t.model_kind() == ModelKind::Readahead)
                .map(Tenant::current_knob)
                .max();
            assert_eq!(widest, Some(1024), "seed {seed:#x} never actuated class 1");
        }
    }

    #[test]
    #[should_panic(expected = "routed to wrong tenant")]
    fn misrouted_decision_is_rejected() {
        let sampler = FleetSampler::new();
        let mut tenant = Tenant::derive(1, 0, &sampler);
        let kind = tenant.model_kind();
        tenant.outstanding = true;
        tenant.apply(&InferResponse {
            tenant_id: tenant.id + 1,
            kind,
            class: 0,
        });
    }
}
