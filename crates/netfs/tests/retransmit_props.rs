//! Property tests for the RPC retransmission state machine: under *any*
//! seeded fault schedule — arbitrary loss, duplication, reordering and
//! jitter rates, bursty or steady — every call the client issues completes
//! exactly once, the double-entry packet accounting reconciles, lost
//! packets always cost virtual time, and no operation emits more RPC
//! events than [`max_rpc_events_per_op`] allows.

use kernel_sim::{DeviceProfile, FaultConfig, SimConfig};
use kml_collect::RingBuffer;
use netfs::{
    max_rpc_events_per_op, NetProfile, NfsMount, MAX_EVENTS_PER_RPC, RSIZE_MAX_KB, RSIZE_MIN_KB,
};
use proptest::prelude::*;

/// A mount over an arbitrary fault shape. Rates are capped below 1.0 so
/// runs terminate via completion rather than give-up in most cases, but
/// loss up to 0.6 still forces deep backoff ladders.
fn arbitrary_mount(
    seed: u64,
    net_loss: f64,
    net_dup: f64,
    net_reorder: f64,
    net_jitter: f64,
    burst_period_ns: u64,
    burst_frac: f64,
) -> NfsMount {
    let profile = NetProfile {
        name: "proptest",
        rtt_ns: 1_000_000,
        ns_per_page: 10_000,
        per_rpc_ns: 20_000,
        base_rto_ns: 5_000_000,
        frag_pages: 8,
        faults: FaultConfig {
            seed,
            net_loss,
            net_dup,
            net_reorder,
            net_jitter,
            net_jitter_ns: 500_000,
            ..FaultConfig::off()
        },
        burst_period_ns,
        burst_frac,
    };
    NfsMount::new(
        profile,
        SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 4096,
            ..SimConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once completion: whatever the packet weather, every issued
    /// RPC returns to the caller exactly once (success or give-up error),
    /// and the full double-entry packet ledger reconciles at quiescence.
    #[test]
    fn every_rpc_completes_exactly_once_under_any_fault_schedule(
        seed in any::<u64>(),
        net_loss in 0.0f64..0.6,
        net_dup in 0.0f64..0.3,
        net_reorder in 0.0f64..0.3,
        net_jitter in 0.0f64..0.5,
        steady in any::<bool>(),
        burst_period_ns in 100_000_000u64..2_000_000_000,
        burst_frac in 0.1f64..0.9,
        rsize_kb in RSIZE_MIN_KB..=RSIZE_MAX_KB,
        ops in proptest::collection::vec((0u64..4000, 1u64..128, any::<bool>()), 1..40)
    ) {
        let mut m = arbitrary_mount(
            seed, net_loss, net_dup, net_reorder, net_jitter,
            if steady { 0 } else { burst_period_ns }, burst_frac,
        );
        let f = m.create_file(1 << 13);
        m.set_rsize_kb(rsize_kb);
        m.set_wsize_kb(rsize_kb);
        // Never drained: events are only counted once a ring is attached.
        let (producer, _consumer) = RingBuffer::with_capacity(8).split();
        m.attach_rpc_trace(producer);
        let mut callers_completions: u64 = 0;
        for (page, npages, is_write) in ops {
            let page = page.min((1 << 13) - npages);
            // A failed multi-chunk op stops at the failing chunk, so count
            // completions from the client's own ledger delta instead.
            let before = m.stats().rpcs_completed;
            let events_before = m.rpc_events_emitted();
            let _ = if is_write {
                m.write(f, page, npages)
            } else {
                m.read(f, page, npages)
            };
            let after = m.stats().rpcs_completed;
            callers_completions += after - before;
            let events = m.rpc_events_emitted() - events_before;
            prop_assert!(events as usize <= max_rpc_events_per_op(npages, rsize_kb),
                "{events} events from {npages} pages at rsize {rsize_kb}");
        }
        let s = m.stats();
        prop_assert_eq!(s.rpcs_completed, s.rpcs_issued,
            "every issued RPC must complete exactly once");
        prop_assert_eq!(s.rpcs_completed, callers_completions);
        if let Err(e) = s.reconcile() {
            return Err(TestCaseError(format!("ledger does not balance: {e}")));
        }
    }

    /// Lost packets are never free: any run that loses at least one packet
    /// must burn strictly more virtual time than the same op stream over a
    /// clean link, and every timeout corresponds to clock movement.
    #[test]
    fn dropped_packets_always_cost_virtual_time(
        seed in any::<u64>(),
        net_loss in 0.05f64..0.5,
        ops in proptest::collection::vec((0u64..2000, 1u64..64), 1..30)
    ) {
        let run = |loss: f64| {
            let mut m = arbitrary_mount(seed, loss, 0.0, 0.0, 0.0, 0, 0.0);
            let f = m.create_file(1 << 12);
            for &(page, npages) in &ops {
                let page = page.min((1 << 12) - npages);
                let _ = m.read(f, page, npages);
            }
            (m.now_ns(), m.stats())
        };
        let (clean_ns, clean_stats) = run(0.0);
        let (lossy_ns, lossy_stats) = run(net_loss);
        prop_assert_eq!(clean_stats.packets_lost(), 0);
        if lossy_stats.packets_lost() > 0 {
            prop_assert!(lossy_ns > clean_ns,
                "{} lost packets left the clock untouched: {lossy_ns} vs {clean_ns}",
                lossy_stats.packets_lost());
            prop_assert!(lossy_stats.timeouts > 0);
        }
        if let Err(e) = lossy_stats.reconcile() {
            return Err(TestCaseError(format!("lossy ledger: {e}")));
        }
    }

    /// Determinism: the same seed and op stream produce bit-identical
    /// stats and final clocks, regardless of how hostile the schedule is.
    #[test]
    fn fault_schedules_replay_bit_identically(
        seed in any::<u64>(),
        net_loss in 0.0f64..0.5,
        net_dup in 0.0f64..0.3,
        ops in proptest::collection::vec((0u64..2000, 1u64..64), 1..20)
    ) {
        let run = || {
            let mut m = arbitrary_mount(seed, net_loss, net_dup, 0.1, 0.2,
                500_000_000, 0.5);
            let f = m.create_file(1 << 12);
            for &(page, npages) in &ops {
                let page = page.min((1 << 12) - npages);
                let _ = m.read(f, page, npages);
            }
            (m.now_ns(), m.stats())
        };
        prop_assert_eq!(run(), run());
    }
}

/// The three experiment links as they are, dead (every packet lost: each
/// read is one RPC that gives up), and hostile (every delivered packet
/// duplicated, three fragments in ten lost): the tenant-shaped read — 128
/// pages at the smallest rsize the experiment policy actuates — stays
/// under its bound on all nine, and the hostile links need more than one
/// RPC's share of it.
#[test]
fn experiment_links_stay_under_the_per_read_event_bound() {
    const OP_PAGES: u64 = 128;
    const RSIZE_KB: u32 = 256;
    let bound = max_rpc_events_per_op(OP_PAGES, RSIZE_KB);
    assert_eq!(bound, 2 * MAX_EVENTS_PER_RPC, "two 64-page RPCs");
    let mut hostile_max = 0;
    for (loss, dup) in [(None, None), (Some(1.0), None), (Some(0.3), Some(1.0))] {
        for mut profile in NetProfile::experiment_profiles(29) {
            profile.faults.net_loss = loss.unwrap_or(profile.faults.net_loss);
            profile.faults.net_dup = dup.unwrap_or(profile.faults.net_dup);
            if loss.is_some() {
                profile.burst_period_ns = 0; // faults always live
            }
            let name = profile.name;
            let mut m = NfsMount::new(profile, SimConfig::default());
            let f = m.create_file(1 << 16);
            m.set_rsize_kb(RSIZE_KB);
            let (producer, _consumer) = RingBuffer::with_capacity(8).split();
            m.attach_rpc_trace(producer);
            for op in 0..200 {
                let before = m.rpc_events_emitted();
                let result = m.read(f, op * OP_PAGES, OP_PAGES);
                let events = (m.rpc_events_emitted() - before) as usize;
                assert!(events <= bound, "{name}: {events} events, bound {bound}");
                if loss == Some(1.0) {
                    // Call, 31 retransmits, the give-up Reply.
                    assert!(result.is_err());
                    assert_eq!(events, 33, "{name}");
                }
                if dup.is_some() {
                    hostile_max = hostile_max.max(events);
                }
            }
            m.stats().reconcile().expect("books balance");
        }
    }
    assert!(
        hostile_max > MAX_EVENTS_PER_RPC,
        "hostile links peaked at {hostile_max} events"
    );
}
