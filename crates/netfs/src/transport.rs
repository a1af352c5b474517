//! The deterministic RPC transport model.
//!
//! One [`NetProfile`] describes a link the way
//! [`kernel_sim::DeviceProfile`] describes a disk: propagation latency,
//! serialization bandwidth, a per-RPC processing overhead, and a fault
//! shape (per-fragment loss, duplication, reordering, background jitter),
//! optionally phased into congestion bursts. All packet-level decisions
//! come from a dedicated [`FaultPlan`] — the same counter-based splitmix64
//! machinery the device layer uses, extended with
//! [`FaultPlan::on_packet_sized`] — so a transport schedule is a pure
//! function of `(seed, packet index, clock)` and replays byte-identically.
//!
//! The transport is deliberately *not* a packet-level discrete-event
//! simulator: the client is synchronous (NFSv3 READs over a mount are
//! serviced serially per handle here), so reordering cannot express itself
//! as cross-RPC overtaking. It is instead modeled as the reordered packet
//! arriving behind the packet that overtook it — a doubled propagation
//! delay, separately counted. DESIGN.md §8 spells out the fidelity
//! argument.

use kernel_sim::{FaultConfig, FaultPlan, FaultStats, NetFault};

/// Shape of one simulated network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetProfile {
    /// Human-readable name (used in tables and JSON output).
    pub name: &'static str,
    /// Round-trip propagation time, ns (each leg pays half).
    pub rtt_ns: u64,
    /// Serialization cost per 4 KiB page, ns (the bandwidth term).
    pub ns_per_page: u64,
    /// Fixed server-side processing overhead per RPC, ns.
    pub per_rpc_ns: u64,
    /// Base retransmission timeout, ns (the NFS `timeo` analogue; the
    /// effective RTO adds two payload serializations and doubles per
    /// retry).
    pub base_rto_ns: u64,
    /// Wire fragment size, pages: a leg carrying `n` pages spans
    /// `ceil(n / frag_pages)` fragments and its loss probability scales
    /// accordingly.
    pub frag_pages: u64,
    /// Packet fault rates (the `net_*` fields; device rates are unused
    /// here — server-side device faults belong to the server's own plan).
    pub faults: FaultConfig,
    /// Congestion-burst period, ns. 0 means the fault rates apply steadily.
    pub burst_period_ns: u64,
    /// Fraction of each period that is the burst (loss/dup/reorder apply
    /// only inside it; background jitter applies throughout).
    pub burst_frac: f64,
}

impl NetProfile {
    /// A clean intra-datacenter link: 100 µs RTT, ~4 GiB/s, no faults.
    /// Large rsize wins outright here — per-RPC latency is the only tax.
    pub fn datacenter(seed: u64) -> NetProfile {
        NetProfile {
            name: "datacenter",
            rtt_ns: 100_000,
            ns_per_page: 1_000,
            per_rpc_ns: 15_000,
            base_rto_ns: 3_000_000,
            frag_pages: 8,
            faults: FaultConfig {
                seed,
                ..FaultConfig::off()
            },
            burst_period_ns: 0,
            burst_frac: 0.0,
        }
    }

    /// A congested WAN: 8 ms RTT, ~100 MiB/s, steady jitter, and long
    /// congestion episodes (per-fragment loss + reordering) covering 70%
    /// of each 4 s period. High RTT makes large transfers win the calm
    /// phase; per-fragment loss makes them bleed in the burst — no fixed
    /// rsize wins both.
    pub fn congested_wan(seed: u64) -> NetProfile {
        NetProfile {
            name: "congested_wan",
            rtt_ns: 8_000_000,
            ns_per_page: 40_000,
            per_rpc_ns: 50_000,
            base_rto_ns: 30_000_000,
            frag_pages: 8,
            faults: FaultConfig {
                seed,
                net_loss: 0.045,
                net_dup: 0.002,
                net_reorder: 0.01,
                net_jitter: 0.15,
                net_jitter_ns: 2_000_000,
                ..FaultConfig::off()
            },
            burst_period_ns: 4_000_000_000,
            burst_frac: 0.7,
        }
    }

    /// A lossy wireless link: 3 ms RTT, ~60 MiB/s, heavy jitter, and
    /// half-duty interference bursts with aggressive per-fragment loss
    /// and duplication. The other phased profile.
    pub fn lossy_wifi(seed: u64) -> NetProfile {
        NetProfile {
            name: "lossy_wifi",
            rtt_ns: 3_000_000,
            ns_per_page: 60_000,
            per_rpc_ns: 40_000,
            base_rto_ns: 12_000_000,
            frag_pages: 8,
            faults: FaultConfig {
                seed,
                net_loss: 0.05,
                net_dup: 0.005,
                net_reorder: 0.015,
                net_jitter: 0.25,
                net_jitter_ns: 1_500_000,
                ..FaultConfig::off()
            },
            burst_period_ns: 3_000_000_000,
            burst_frac: 0.6,
        }
    }

    /// The three experiment profiles in E9 order.
    pub fn experiment_profiles(seed: u64) -> [NetProfile; 3] {
        [
            NetProfile::datacenter(seed),
            NetProfile::congested_wan(seed),
            NetProfile::lossy_wifi(seed),
        ]
    }

    /// Whether loss/dup/reorder faults are live at simulated time `t`.
    pub fn faults_gated_on(&self, t_ns: u64) -> bool {
        if self.burst_period_ns == 0 {
            return true;
        }
        let burst_ns = (self.burst_period_ns as f64 * self.burst_frac) as u64;
        t_ns % self.burst_period_ns < burst_ns
    }

    /// Serialization time for a payload of `pages`, ns.
    pub fn wire_ns(&self, pages: u64) -> u64 {
        pages * self.ns_per_page
    }
}

/// Fate of one packet leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The packet never arrives; the sender discovers this by timeout.
    Lost,
    /// The packet arrives `delay_ns` after being sent.
    Delivered {
        /// Propagation + serialization + any jitter/reorder penalty, ns.
        delay_ns: u64,
        /// The receiver sees a second copy right behind the first.
        duplicated: bool,
        /// The delay includes a reordering penalty (packet was overtaken).
        reordered: bool,
    },
}

/// The link: a profile plus its seeded packet-decision stream.
#[derive(Debug, Clone)]
pub struct Transport {
    profile: NetProfile,
    plan: FaultPlan,
}

impl Transport {
    /// Creates a transport over `profile`, seeding the packet stream from
    /// `profile.faults.seed`.
    pub fn new(profile: NetProfile) -> Transport {
        Transport {
            plan: FaultPlan::new(profile.faults),
            profile,
        }
    }

    /// The profile this transport models.
    pub fn profile(&self) -> &NetProfile {
        &self.profile
    }

    /// Packet-fault counters injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.plan.stats()
    }

    /// Decides the fate of one leg carrying `payload_pages` at simulated
    /// time `now_ns`.
    pub fn leg(&mut self, payload_pages: u64, now_ns: u64) -> Leg {
        let frags = payload_pages
            .div_ceil(self.profile.frag_pages.max(1))
            .max(1);
        let gated = self.profile.faults_gated_on(now_ns);
        let nominal = self.profile.rtt_ns / 2 + self.profile.wire_ns(payload_pages);
        match self.plan.on_packet_sized(frags, gated) {
            Some(NetFault::Drop) => Leg::Lost,
            Some(NetFault::Duplicate) => Leg::Delivered {
                delay_ns: nominal,
                duplicated: true,
                reordered: false,
            },
            Some(NetFault::Reorder) => Leg::Delivered {
                delay_ns: nominal * 2,
                duplicated: false,
                reordered: true,
            },
            Some(NetFault::Jitter { ns }) => Leg::Delivered {
                delay_ns: nominal + ns,
                duplicated: false,
                reordered: false,
            },
            None => Leg::Delivered {
                delay_ns: nominal,
                duplicated: false,
                reordered: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_profile_delivers_everything_at_nominal_delay() {
        let mut t = Transport::new(NetProfile::datacenter(1));
        for _ in 0..1000 {
            match t.leg(8, 0) {
                Leg::Delivered {
                    delay_ns,
                    duplicated,
                    reordered,
                } => {
                    assert_eq!(delay_ns, 50_000 + 8 * 1_000);
                    assert!(!duplicated && !reordered);
                }
                Leg::Lost => panic!("clean link dropped a packet"),
            }
        }
        assert_eq!(t.fault_stats().total(), 0);
    }

    #[test]
    fn loss_scales_with_payload_size() {
        let count_losses = |pages: u64| {
            let mut t = Transport::new(NetProfile::lossy_wifi(7));
            // Always in-burst (t=0 is inside the burst window).
            (0..4000).filter(|_| t.leg(pages, 0) == Leg::Lost).count()
        };
        let small = count_losses(8); // 1 fragment
        let large = count_losses(256); // 32 fragments
        assert!(
            large > small * 4,
            "loss should scale with fragments: {small} vs {large}"
        );
    }

    #[test]
    fn bursty_profiles_are_calm_between_bursts() {
        let profile = NetProfile::lossy_wifi(3);
        let burst_ns = (profile.burst_period_ns as f64 * profile.burst_frac) as u64;
        let calm_t = burst_ns + (profile.burst_period_ns - burst_ns) / 2;
        assert!(profile.faults_gated_on(0));
        assert!(!profile.faults_gated_on(calm_t));
        let mut t = Transport::new(profile);
        for _ in 0..2000 {
            assert_ne!(t.leg(64, calm_t), Leg::Lost, "calm phase dropped a packet");
        }
        assert_eq!(t.fault_stats().packets_lost, 0);
        // Background jitter still fires in the calm phase.
        assert!(t.fault_stats().packet_jitters > 0);
    }

    #[test]
    fn schedules_replay_byte_identically() {
        let run = || {
            let mut t = Transport::new(NetProfile::congested_wan(42));
            (0..3000u64)
                .map(|i| t.leg(1 + i % 256, i * 100_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
