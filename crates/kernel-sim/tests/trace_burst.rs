//! The per-operation tracepoint burst stays under
//! [`SimConfig::max_trace_records_per_op`].
//!
//! A trace ring that is drained after every operation (the fleet's tenants
//! do exactly that) only has to hold one operation's records, so the bound
//! is what sizes those rings. Part of its argument is a proof and part —
//! a readahead cap as large as the whole cache, where a request can evict
//! and re-fetch its own pages — is held here by search: arbitrary
//! interleavings of access patterns, request sizes, writes and cap changes
//! on a cache the largest window fills exactly.

use kernel_sim::{DeviceProfile, FileId, Sim, SimConfig};
use kml_collect::RingBuffer;
use proptest::prelude::*;

/// The fleet tenants' cache and the caps their policy actuates, KiB.
const CACHE_PAGES: usize = 256;
const RA_KB: [u32; 4] = [16, 1024, 256, 64];
const MAX_RA_KB: u32 = 1024;
/// Largest request the interleavings issue, pages.
const OP_PAGES: u64 = 8;

fn config() -> SimConfig {
    SimConfig {
        device: DeviceProfile::nvme(),
        cache_pages: CACHE_PAGES,
        ..SimConfig::default()
    }
}

fn traced_sim(cfg: SimConfig, file_pages: u64) -> (Sim, FileId) {
    let mut sim = Sim::new(cfg);
    // Never drained: only `trace_emitted` is read, and overwriting is free.
    let (producer, _consumer) = RingBuffer::with_capacity(8).split();
    sim.attach_trace(producer);
    let file = sim.create_file(file_pages);
    (sim, file)
}

/// One step of an interleaving: the access pattern to switch to (0–4, or
/// keep the current one), the request size, whether it writes, the cap to
/// set first (`RA_KB` index, or none), and a draw for the random patterns.
type Step = (u8, u64, bool, u8, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..40,
            1..OP_PAGES + 1,
            any::<bool>(),
            0u8..24,
            any::<u64>(),
        ),
        1..600,
    )
}

/// Runs `steps` and returns the largest number of records one operation
/// emitted, for reads and for writes.
fn largest_bursts(file_pages: u64, steps: &[Step], with_writes: bool) -> (u64, u64) {
    let (mut sim, file) = traced_sim(config(), file_pages);
    let (mut pos, mut read_max, mut write_max) = (0u64, 0u64, 0u64);
    let mut pattern = 0;
    for &(switch, npages, write, cap, draw) in steps {
        if switch < 5 {
            pattern = switch;
        }
        if let Some(&kb) = RA_KB.get(cap as usize) {
            sim.set_ra_kb(kb);
        }
        let page = match pattern {
            // Forward scan, wrapping at EOF.
            0 => {
                let page = pos % file_pages;
                pos = page + npages;
                page
            }
            // Backward scan.
            1 => {
                if pos < npages {
                    pos = file_pages;
                }
                pos -= npages;
                pos
            }
            // Uniform random.
            2 => draw % file_pages,
            // A short hop around the last position: overlapping and
            // nearly-sequential requests, where markers chain.
            3 => {
                pos = (pos + draw % (2 * OP_PAGES + 1)).saturating_sub(OP_PAGES) % file_pages;
                pos
            }
            // Strided.
            _ => {
                pos = (pos + 2 * npages) % file_pages;
                pos
            }
        };
        let before = sim.trace_emitted();
        if write && with_writes {
            sim.write(file, page, npages).expect("fault-free sim");
            write_max = write_max.max(sim.trace_emitted() - before);
        } else {
            sim.read(file, page, npages).expect("fault-free sim");
            read_max = read_max.max(sim.trace_emitted() - before);
        }
    }
    (read_max, write_max)
}

/// The largest burst of a forward scan of `ops` requests of `npages`.
fn largest_scan_burst(sim: &mut Sim, file: FileId, ops: u64, npages: u64) -> u64 {
    let mut largest = 0;
    for op in 0..ops {
        let before = sim.trace_emitted();
        sim.read(file, op * npages, npages).expect("fault-free sim");
        largest = largest.max(sim.trace_emitted() - before);
    }
    largest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_read_only_file_never_bursts_past_its_bound(
        file_pages in prop_oneof![Just(300u64), Just(2_048u64), Just(1u64 << 14)],
        steps in steps(),
    ) {
        let bound = config().max_trace_records_per_op(MAX_RA_KB, OP_PAGES, false) as u64;
        let (read_max, _) = largest_bursts(file_pages, &steps, false);
        prop_assert!(read_max <= bound, "a read emitted {} records, bound {}", read_max, bound);
    }

    #[test]
    fn a_written_file_never_bursts_past_its_bound(
        file_pages in prop_oneof![Just(300u64), Just(2_048u64), Just(1u64 << 14)],
        steps in steps(),
    ) {
        let bound = config().max_trace_records_per_op(MAX_RA_KB, OP_PAGES, true) as u64;
        let (read_max, write_max) = largest_bursts(file_pages, &steps, true);
        prop_assert!(read_max <= bound, "a read emitted {} records, bound {}", read_max, bound);
        // A write never readaheads: its own, much smaller, share of the bound.
        let write_bound = 2 * OP_PAGES + config().writeback_batch as u64;
        prop_assert!(write_max <= write_bound, "a write emitted {} records", write_max);
    }
}

/// The bound is tight in its leading term: a scan whose window is the whole
/// cache evicts its own next pages with every async fetch and then fetches
/// them back, `2R − 2` inserts or more in one request.
#[test]
fn a_scan_with_a_cache_sized_window_nearly_reaches_the_bound() {
    let (mut sim, file) = traced_sim(config(), 1 << 14);
    sim.set_ra_kb(MAX_RA_KB);
    let largest = largest_scan_burst(&mut sim, file, 512, OP_PAGES);
    let cap_pages = kernel_sim::ra_kb_to_pages(MAX_RA_KB);
    let bound = config().max_trace_records_per_op(MAX_RA_KB, OP_PAGES, false) as u64;
    assert!(
        (2 * cap_pages - 2..=bound).contains(&largest),
        "largest burst {largest}, bound {bound}"
    );
}

/// Outside the regime the tight argument needs, the bound falls back to one
/// window per page — and a cache smaller than the window does get there.
#[test]
fn a_window_larger_than_the_cache_is_bounded_page_by_page() {
    let cfg = SimConfig {
        cache_pages: 16,
        default_ra_kb: 128,
        ..config()
    };
    let bound = cfg.max_trace_records_per_op(128, 4, false);
    assert_eq!(bound, 4 * 33, "n · (W + 1) with W = 32 pages");
    let (mut sim, file) = traced_sim(cfg, 1 << 12);
    let largest = largest_scan_burst(&mut sim, file, 256, 4);
    assert!(largest as usize <= bound, "burst {largest}, bound {bound}");
    assert!(
        largest as usize > 2 * 32 + 5 * 4,
        "burst {largest} would have fit the cache-holds-a-window formula"
    );
}
