//! What a tenant weighs, as a gate.
//!
//! A fleet is thousands of tenants, so a tenant's resident bytes are the
//! fleet's footprint (`fleet` `peak_rss_mb` in the ledger). This test
//! installs [`CountingSystemAlloc`] as its binary's global allocator,
//! derives the ledger's 2,048 tenants, and holds every tenant's live heap
//! bytes — plus the `Tenant` value itself — under a budget per
//! [`ModelKind`], so a ring, log or cache that re-inflates a tenant fails
//! here by name. It also holds the growth of a tenant over eight rounds of
//! traffic, and prints the table EXPERIMENTS.md E19 cites. Byte counts are
//! deterministic: this is a gate, not a benchmark.
//!
//! One `#[test]`, because the per-thread counters measure whatever the
//! calling thread allocates between two reads.

use kernel_sim::{SimConfig, TraceRecord};
use kml_collect::event::RpcEvent;
use kml_fleet::{FleetModels, FleetSampler, InferenceServer, ServeOptions, Tenant, TenantWorkload};
use kml_platform::alloc::CountingSystemAlloc;
use kml_telemetry::Log2Hist;

#[global_allocator]
static ALLOC: CountingSystemAlloc = CountingSystemAlloc;

const TENANTS: u64 = 2_048;
const ROUNDS: usize = 8;

/// Live bytes per tenant a kind may reach, `ModelKind::ALL` order: about
/// 1.1× the heaviest workload of the kind in the table this prints
/// (37,848 B `readrandomwriterandom`, 1,056 B, 35,856 B).
const BUDGET: [u64; 3] = [41 * 1024, 1152, 38 * 1024 + 512];
/// The same for everything that is not the ring — page cache and its
/// index, feature windows, tuner, and for netfs the server's
/// duplicate-request cache (14,008 B, 1,056 B, 29,040 B today).
const REST_BUDGET: [u64; 3] = [15 * 1024, 1152, 31 * 1024 + 512];
/// Bytes a tenant may grow by over [`ROUNDS`] rounds: its decision log,
/// one entry per window (288 B at most today).
const GROWTH_BUDGET: u64 = 1024;

/// Bytes the calling thread holds on the heap right now, relative to when
/// it started.
fn live_bytes() -> i64 {
    CountingSystemAlloc::thread_bytes_allocated() as i64
        - CountingSystemAlloc::thread_bytes_freed() as i64
}

/// What the tenant's trace ring should take: the simulators' own bounds at
/// the tenant constants, times the ring's slot (a version word + the
/// record). Restated here on purpose — if `Tenant::derive` sizes a ring
/// some other way, the remainder check below sees it.
fn expected_ring_bytes(workload: TenantWorkload) -> u64 {
    let ra = |op_pages, writes| {
        let cfg = SimConfig {
            cache_pages: 256,
            ..SimConfig::default()
        };
        let slot = 8 + std::mem::size_of::<TraceRecord>();
        (cfg.max_trace_records_per_op(1024, op_pages, writes) * slot) as u64
    };
    match workload {
        TenantWorkload::ReadSeq | TenantWorkload::ReadReverse => ra(8, false),
        TenantWorkload::ReadRandom => ra(4, false),
        TenantWorkload::ReadRandomWriteRandom => ra(4, true),
        TenantWorkload::UpdateRandom | TenantWorkload::MixGraph => 0,
        TenantWorkload::NetfsFiles => {
            let slot = 8 + std::mem::size_of::<RpcEvent>();
            (netfs::max_rpc_events_per_op(128, 256) * slot) as u64
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Row {
    tenants: u64,
    bytes: u64,
    ring: u64,
    largest: u64,
    growth: u64,
}

fn weigh(seed: u64) {
    let sampler = FleetSampler::new();
    let inline = std::mem::size_of::<Tenant>() as u64;
    let mut tenants = Vec::with_capacity(TENANTS as usize);
    let mut derived = Vec::with_capacity(TENANTS as usize);
    for id in 0..TENANTS {
        let before = live_bytes();
        tenants.push(Tenant::derive(seed, id, &sampler));
        derived.push((live_bytes() - before) as u64 + inline);
    }

    // Eight rounds of real traffic, the growth of each tenant measured
    // around its own calls only (the server's buffers are not a tenant's).
    let mut server = InferenceServer::new(
        FleetModels::untrained(7).expect("deterministic model build"),
        ServeOptions::default(),
    );
    let mut grown = vec![0i64; TENANTS as usize];
    let (mut hist, mut requests, mut responses) = (Log2Hist::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        requests.clear();
        for tenant in &mut tenants {
            let before = live_bytes();
            let request = tenant.run_round(&mut hist);
            grown[tenant.id as usize] += live_bytes() - before;
            requests.extend(request);
        }
        server
            .serve_into(&requests, &mut responses)
            .expect("serving succeeds");
        for response in &responses {
            let before = live_bytes();
            tenants[response.tenant_id as usize].apply(response);
            grown[response.tenant_id as usize] += live_bytes() - before;
        }
    }

    let mut by_workload = [Row::default(); 7];
    for (tenant, (&bytes, &growth)) in tenants.iter().zip(derived.iter().zip(&grown)) {
        let ring = expected_ring_bytes(tenant.workload);
        let kind = tenant.model_kind();
        assert!(
            bytes <= BUDGET[kind.index()],
            "seed {seed}: {} tenant {} weighs {bytes} B, budget {} B",
            tenant.workload,
            tenant.id,
            BUDGET[kind.index()]
        );
        // A ring sized some other way than restated above shows up here.
        assert!(
            (ring..=ring + REST_BUDGET[kind.index()]).contains(&bytes),
            "seed {seed}: {} tenant {} weighs {bytes} B with a {ring} B ring expected",
            tenant.workload,
            tenant.id
        );
        assert!(
            growth >= 0 && (growth as u64) < GROWTH_BUDGET,
            "seed {seed}: {} tenant {} grew {growth} B in {ROUNDS} rounds",
            tenant.workload,
            tenant.id
        );
        assert_eq!(tenant.records_dropped(), 0, "tenant {} overran", tenant.id);
        let row = &mut by_workload[tenant.workload.index()];
        row.tenants += 1;
        row.bytes += bytes;
        row.ring += ring;
        row.largest = row.largest.max(bytes);
        row.growth = row.growth.max(growth as u64);
    }

    println!("seed {seed}: bytes per tenant after derive (heap + {inline} B inline)");
    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>10} {:>12}",
        "workload", "tenants", "mean B", "max B", "ring B", "grown B max"
    );
    let mut total = Row::default();
    for (workload, row) in TenantWorkload::POPULARITY.iter().zip(&by_workload) {
        assert!(row.tenants > 0, "seed {seed}: no {workload} tenant");
        println!(
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>12}",
            workload.name(),
            row.tenants,
            row.bytes / row.tenants,
            row.largest,
            row.ring / row.tenants,
            row.growth
        );
        total.tenants += row.tenants;
        total.bytes += row.bytes;
        total.ring += row.ring;
    }
    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>10}   ({:.1} MiB in all, {:.1} MiB of it rings)",
        "fleet",
        total.tenants,
        total.bytes / total.tenants,
        "",
        total.ring / total.tenants,
        total.bytes as f64 / (1 << 20) as f64,
        total.ring as f64 / (1 << 20) as f64
    );
}

#[test]
fn every_tenant_fits_its_kinds_byte_budget() {
    // The ledger's seed and one the sizing was not written against.
    weigh(7);
    weigh(0x5EED_F00D);
}
