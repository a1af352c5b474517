//! Device-level fault injection — the substrate of deterministic
//! simulation testing (DST).
//!
//! The paper's deployment argument (§3.1/§3.3) is that an in-kernel ML loop
//! must *degrade gracefully*: a mispredicting model or a failing device may
//! cost performance but must never corrupt state or wedge the system. To
//! validate that claim the simulator can carry a [`FaultPlan`]: a seeded,
//! deterministic schedule of device-level adversity —
//!
//! - **read/write errors** — the request fails after consuming device time,
//! - **torn writes** — a multi-page write transfers only a prefix before
//!   failing (power-loss / FTL-abort shape),
//! - **latency spikes** — the request takes `spike_mult`× its normal time
//!   (garbage collection, thermal throttling),
//! - **stalls** — a fixed multi-millisecond hiccup (command timeout +
//!   retry),
//! - **cache-pressure squeezes** — the page cache temporarily shrinks to a
//!   fraction of its capacity (another tenant ballooning), applied at the
//!   [`crate::Sim`] level.
//!
//! Every decision is drawn from a counter-based [splitmix64] stream seeded
//! by [`FaultConfig::seed`], so a plan replays byte-identically given the
//! same request sequence — the property the `kml-dst` harness builds its
//! minimal-reproducer shrinking on.
//!
//! With no plan attached (the default) the fault path costs one branch per
//! request and behavior is bit-identical to the pre-fault-layer simulator.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use kml_platform::sampler::{splitmix64, GOLDEN_GAMMA};
use std::fmt;

/// Direction of a failed device request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// A read request failed.
    Read,
    /// A write request failed (possibly after a torn partial transfer).
    Write,
}

/// A failed device request. Carries enough context to account for the
/// failure precisely: which pages were covered, how many made it to the
/// medium, and how much device time the attempt consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    /// Read or write.
    pub kind: IoErrorKind,
    /// Inode of the failed request.
    pub inode: u64,
    /// First page of the failed request.
    pub page: u64,
    /// Pages the request covered.
    pub npages: u64,
    /// Pages actually transferred before the failure (0 for reads and
    /// clean write errors; `0 < completed < npages` for torn writes).
    pub completed: u64,
    /// Device time consumed by the failed attempt, ns (the clock still
    /// advances by this much — failures are not free).
    pub ns: u64,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.kind {
            IoErrorKind::Read => "read",
            IoErrorKind::Write => "write",
        };
        write!(
            f,
            "device {dir} error: inode {} pages [{}, {}) ({}/{} transferred, {} ns consumed)",
            self.inode,
            self.page,
            self.page + self.npages,
            self.completed,
            self.npages,
            self.ns
        )
    }
}

impl std::error::Error for IoError {}

/// Result of a fallible simulated I/O operation. The `Ok` payload is the
/// operation's cost in ns unless documented otherwise.
pub type IoResult<T = u64> = Result<T, IoError>;

/// Probabilities and magnitudes of injected faults. All rates are per
/// device request (or per logical operation for the cache squeeze), in
/// `[0, 1]`. [`FaultConfig::off`] disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Probability a read request fails outright.
    pub read_error: f64,
    /// Probability a write request fails outright (no pages transferred).
    pub write_error: f64,
    /// Probability a multi-page write tears: a strict prefix of its pages
    /// is transferred, then the request fails.
    pub torn_write: f64,
    /// Probability a request's service time is multiplied by `spike_mult`.
    pub latency_spike: f64,
    /// Multiplier applied by a latency spike (≥ 1).
    pub spike_mult: u64,
    /// Probability a request stalls for an extra `stall_ns`.
    pub stall: f64,
    /// Stall duration, ns.
    pub stall_ns: u64,
    /// Probability (per logical `Sim` operation) the page cache is
    /// squeezed to `squeeze_frac` of its configured capacity.
    pub cache_squeeze: f64,
    /// Fraction of the configured capacity left during a squeeze.
    pub squeeze_frac: f64,
    /// Squeeze duration, in logical operations.
    pub squeeze_ops: u64,
    /// Probability a network packet (one RPC leg) is dropped in flight.
    /// Consulted only by the netfs transport via [`FaultPlan::on_packet`];
    /// pure device runs never draw for it.
    pub net_loss: f64,
    /// Probability a packet is duplicated in flight (the receiver sees it
    /// twice; NFS-style duplicate-request caches absorb the second copy).
    pub net_dup: f64,
    /// Probability a packet is delivered out of order relative to the next
    /// one — modeled as swapping its delay with the following packet's.
    pub net_reorder: f64,
    /// Probability a packet's propagation delay is stretched by an extra
    /// jitter term of up to `net_jitter_ns`.
    pub net_jitter: f64,
    /// Maximum extra delay a jitter event adds, ns.
    pub net_jitter_ns: u64,
}

impl FaultConfig {
    /// A configuration that injects nothing (but still draws no randomness,
    /// so attaching it is behaviorally identical to no plan at all).
    pub fn off() -> Self {
        FaultConfig {
            seed: 0,
            read_error: 0.0,
            write_error: 0.0,
            torn_write: 0.0,
            latency_spike: 0.0,
            spike_mult: 1,
            stall: 0.0,
            stall_ns: 0,
            cache_squeeze: 0.0,
            squeeze_frac: 1.0,
            squeeze_ops: 0,
            net_loss: 0.0,
            net_dup: 0.0,
            net_reorder: 0.0,
            net_jitter: 0.0,
            net_jitter_ns: 0,
        }
    }

    /// A moderate all-faults-on profile for smoke testing: every fault
    /// kind fires with a few-percent probability.
    pub fn light(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error: 0.01,
            write_error: 0.01,
            torn_write: 0.02,
            latency_spike: 0.03,
            spike_mult: 20,
            stall: 0.005,
            stall_ns: 3_000_000,
            cache_squeeze: 0.002,
            squeeze_frac: 0.125,
            squeeze_ops: 64,
            ..FaultConfig::off()
        }
    }

    /// A network-only profile: no device faults, moderate packet adversity.
    /// The shape a netfs transport attaches to its own plan (device plans
    /// stay separate so the two decision streams never interleave).
    pub fn net_light(seed: u64) -> Self {
        FaultConfig {
            seed,
            net_loss: 0.02,
            net_dup: 0.01,
            net_reorder: 0.02,
            net_jitter: 0.10,
            net_jitter_ns: 400_000,
            ..FaultConfig::off()
        }
    }

    /// Whether any fault can ever fire under this configuration.
    pub fn is_active(&self) -> bool {
        self.read_error > 0.0
            || self.write_error > 0.0
            || self.torn_write > 0.0
            || self.latency_spike > 0.0
            || self.stall > 0.0
            || self.cache_squeeze > 0.0
            || self.net_is_active()
    }

    /// Whether any *network* fault can ever fire under this configuration.
    pub fn net_is_active(&self) -> bool {
        self.net_loss > 0.0 || self.net_dup > 0.0 || self.net_reorder > 0.0 || self.net_jitter > 0.0
    }
}

/// A fault decision for one device request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the request; nothing is transferred.
    Error,
    /// Transfer only `completed` pages, then fail (writes only).
    Torn {
        /// Pages transferred before the failure.
        completed: u64,
    },
    /// Multiply the request's service time.
    Spike {
        /// The multiplier.
        mult: u64,
    },
    /// Add a fixed hiccup to the request's service time.
    Stall {
        /// Extra nanoseconds.
        ns: u64,
    },
}

/// A fault decision for one network packet (one RPC leg). Drawn by the
/// netfs transport via [`FaultPlan::on_packet`] — device I/O never draws
/// for these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The packet is dropped in flight; the receiver never sees it.
    Drop,
    /// The packet is delivered twice.
    Duplicate,
    /// The packet is delivered out of order relative to the next packet
    /// (the transport swaps their delays).
    Reorder,
    /// The packet's propagation delay is stretched.
    Jitter {
        /// Extra nanoseconds of delay.
        ns: u64,
    },
}

/// A cache-pressure squeeze decision for one logical operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Squeeze {
    /// Fraction of the configured capacity to squeeze down to.
    pub frac: f64,
    /// Logical operations the squeeze lasts.
    pub ops: u64,
}

/// Counters of faults actually injected (distinct from *configured* rates:
/// a run's schedule is what fired, not what could have).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Read requests failed.
    pub read_errors: u64,
    /// Write requests failed cleanly (nothing transferred).
    pub write_errors: u64,
    /// Write requests torn (partial transfer then failure).
    pub torn_writes: u64,
    /// Latency spikes applied.
    pub latency_spikes: u64,
    /// Stalls applied.
    pub stalls: u64,
    /// Cache squeezes begun.
    pub cache_squeezes: u64,
    /// Network packets dropped.
    pub packets_lost: u64,
    /// Network packets duplicated.
    pub packets_duplicated: u64,
    /// Network packets reordered.
    pub packets_reordered: u64,
    /// Network packets jittered.
    pub packet_jitters: u64,
}

impl FaultStats {
    /// Total faults of any kind injected.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.write_errors
            + self.torn_writes
            + self.latency_spikes
            + self.stalls
            + self.cache_squeezes
            + self.packets_lost
            + self.packets_duplicated
            + self.packets_reordered
            + self.packet_jitters
    }
}

/// The seeded fault schedule. One plan is attached to one device (or
/// [`crate::Sim`]); it draws one `u64` per consulted request, so the
/// schedule is a pure function of `(seed, request index)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    draws: u64,
    stats: FaultStats,
}

impl FaultPlan {
    /// Creates a plan from a configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            draws: 0,
            stats: FaultStats::default(),
        }
    }

    /// The configuration the plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One uniform draw in `[0, 1)` from the counter-based stream.
    fn roll(&mut self) -> f64 {
        let counter = self.draws.wrapping_mul(GOLDEN_GAMMA);
        let z = splitmix64(self.cfg.seed.wrapping_add(counter));
        self.draws += 1;
        // 53 high bits → uniform double in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fault decision for a read request, if any.
    pub fn on_read(&mut self) -> Option<Fault> {
        if !self.cfg.is_active() {
            return None;
        }
        let r = self.roll();
        let mut edge = self.cfg.read_error;
        if r < edge {
            self.stats.read_errors += 1;
            return Some(Fault::Error);
        }
        edge += self.cfg.latency_spike;
        if r < edge {
            self.stats.latency_spikes += 1;
            return Some(Fault::Spike {
                mult: self.cfg.spike_mult.max(1),
            });
        }
        edge += self.cfg.stall;
        if r < edge {
            self.stats.stalls += 1;
            return Some(Fault::Stall {
                ns: self.cfg.stall_ns,
            });
        }
        None
    }

    /// Fault decision for a write request of `npages`, if any.
    pub fn on_write(&mut self, npages: u64) -> Option<Fault> {
        if !self.cfg.is_active() {
            return None;
        }
        let r = self.roll();
        let mut edge = self.cfg.write_error;
        if r < edge {
            self.stats.write_errors += 1;
            return Some(Fault::Error);
        }
        edge += self.cfg.torn_write;
        if r < edge {
            if npages > 1 {
                self.stats.torn_writes += 1;
                // Deterministic tear point: a second draw picks a strict
                // prefix length in [1, npages).
                let cut = 1 + (self.roll() * (npages - 1) as f64) as u64;
                return Some(Fault::Torn {
                    completed: cut.min(npages - 1),
                });
            }
            // Single-page writes cannot tear; fail them cleanly instead.
            self.stats.write_errors += 1;
            return Some(Fault::Error);
        }
        edge += self.cfg.latency_spike;
        if r < edge {
            self.stats.latency_spikes += 1;
            return Some(Fault::Spike {
                mult: self.cfg.spike_mult.max(1),
            });
        }
        edge += self.cfg.stall;
        if r < edge {
            self.stats.stalls += 1;
            return Some(Fault::Stall {
                ns: self.cfg.stall_ns,
            });
        }
        None
    }

    /// Fault decision for one network packet (one RPC leg), if any.
    ///
    /// Like the device hooks this consumes exactly one draw per consulted
    /// packet (plus one for the jitter magnitude when a jitter fires), so
    /// a transport schedule is a pure function of `(seed, packet index)`.
    pub fn on_packet(&mut self) -> Option<NetFault> {
        self.on_packet_sized(1, true)
    }

    /// Size- and phase-aware packet decision. A leg spanning `frags` wire
    /// fragments is lost if *any* fragment is, so the effective loss rate
    /// is `1 - (1 - net_loss)^frags` — big payloads drop more, the physics
    /// that makes small rsize values worth paying for on lossy links. When
    /// `faults_gated` is false (a calm phase of a bursty profile) loss,
    /// duplication and reordering are suppressed but background jitter
    /// still applies; exactly one draw is consumed either way, so the
    /// schedule stays a pure function of the packet index.
    pub fn on_packet_sized(&mut self, frags: u64, faults_gated: bool) -> Option<NetFault> {
        if !self.cfg.net_is_active() {
            return None;
        }
        let r = self.roll();
        if faults_gated {
            let survive = (1.0 - self.cfg.net_loss).powi(frags.min(i32::MAX as u64) as i32);
            let mut edge = 1.0 - survive;
            if r < edge {
                self.stats.packets_lost += 1;
                return Some(NetFault::Drop);
            }
            edge += self.cfg.net_dup;
            if r < edge {
                self.stats.packets_duplicated += 1;
                return Some(NetFault::Duplicate);
            }
            edge += self.cfg.net_reorder;
            if r < edge {
                self.stats.packets_reordered += 1;
                return Some(NetFault::Reorder);
            }
            edge += self.cfg.net_jitter;
            if r < edge {
                self.stats.packet_jitters += 1;
                let ns = (self.roll() * self.cfg.net_jitter_ns as f64) as u64;
                return Some(NetFault::Jitter { ns });
            }
            return None;
        }
        if r < self.cfg.net_jitter {
            self.stats.packet_jitters += 1;
            let ns = (self.roll() * self.cfg.net_jitter_ns as f64) as u64;
            return Some(NetFault::Jitter { ns });
        }
        None
    }

    /// Squeeze decision for one logical `Sim` operation, if any.
    pub fn on_logical_op(&mut self) -> Option<Squeeze> {
        if self.cfg.cache_squeeze <= 0.0 {
            return None;
        }
        if self.roll() < self.cfg.cache_squeeze {
            self.stats.cache_squeezes += 1;
            Some(Squeeze {
                frac: self.cfg.squeeze_frac,
                ops: self.cfg.squeeze_ops.max(1),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_never_fires() {
        let mut plan = FaultPlan::new(FaultConfig::off());
        for _ in 0..1000 {
            assert_eq!(plan.on_read(), None);
            assert_eq!(plan.on_write(8), None);
            assert_eq!(plan.on_logical_op(), None);
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn schedules_replay_identically() {
        let run = || {
            let mut plan = FaultPlan::new(FaultConfig::light(42));
            let mut faults = Vec::new();
            for i in 0..5_000u64 {
                faults.push(plan.on_read());
                faults.push(plan.on_write(1 + i % 16));
            }
            (faults, plan.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.total() > 0, "light profile injected nothing in 10k reqs");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let schedule = |seed| {
            let mut plan = FaultPlan::new(FaultConfig::light(seed));
            (0..2_000).map(|_| plan.on_read()).collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn certain_error_always_fires() {
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 7,
            read_error: 1.0,
            write_error: 1.0,
            ..FaultConfig::off()
        });
        for _ in 0..100 {
            assert_eq!(plan.on_read(), Some(Fault::Error));
            assert_eq!(plan.on_write(4), Some(Fault::Error));
        }
        assert_eq!(plan.stats().read_errors, 100);
        assert_eq!(plan.stats().write_errors, 100);
    }

    #[test]
    fn torn_writes_tear_strict_prefixes_and_singles_fail_clean() {
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 3,
            torn_write: 1.0,
            ..FaultConfig::off()
        });
        for npages in 2..64u64 {
            match plan.on_write(npages) {
                Some(Fault::Torn { completed }) => {
                    assert!(
                        completed >= 1 && completed < npages,
                        "tear at {completed}/{npages}"
                    );
                }
                other => panic!("expected torn write, got {other:?}"),
            }
        }
        assert_eq!(plan.on_write(1), Some(Fault::Error));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 11,
            read_error: 0.1,
            ..FaultConfig::off()
        });
        for _ in 0..10_000 {
            plan.on_read();
        }
        let e = plan.stats().read_errors;
        assert!((700..1300).contains(&e), "10% of 10k draws gave {e}");
    }

    #[test]
    fn packet_schedule_replays_and_respects_rates() {
        let run = || {
            let mut plan = FaultPlan::new(FaultConfig::net_light(99));
            let faults: Vec<_> = (0..10_000).map(|_| plan.on_packet()).collect();
            (faults, plan.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(
            (100..400).contains(&sa.packets_lost),
            "2% of 10k packets gave {} drops",
            sa.packets_lost
        );
        assert!(sa.packets_duplicated > 0 && sa.packets_reordered > 0 && sa.packet_jitters > 0);
        // A net-only profile never produces device faults...
        assert_eq!(sa.read_errors + sa.write_errors + sa.torn_writes, 0);
        let mut plan = FaultPlan::new(FaultConfig::net_light(99));
        // ...and device-only profiles never draw for packets.
        assert!(plan.on_logical_op().is_none());
        let mut dev = FaultPlan::new(FaultConfig::light(5));
        for _ in 0..1000 {
            assert_eq!(dev.on_packet(), None);
        }
        assert_eq!(dev.stats().packets_lost, 0);
    }

    #[test]
    fn jitter_magnitudes_stay_bounded() {
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 17,
            net_jitter: 1.0,
            net_jitter_ns: 250_000,
            ..FaultConfig::off()
        });
        for _ in 0..1000 {
            match plan.on_packet() {
                Some(NetFault::Jitter { ns }) => assert!(ns < 250_000),
                other => panic!("expected jitter, got {other:?}"),
            }
        }
    }

    #[test]
    fn io_error_displays_context() {
        let e = IoError {
            kind: IoErrorKind::Write,
            inode: 9,
            page: 128,
            npages: 8,
            completed: 3,
            ns: 55_000,
        };
        let s = e.to_string();
        assert!(s.contains("write error"));
        assert!(s.contains("inode 9"));
        assert!(s.contains("3/8"));
    }

    /// The first eight rolls at seed 7, recorded on the parent commit
    /// (1fb2a81), before the mix moved to `kml_platform::sampler`.
    #[test]
    fn rolls_match_the_parent_commit() {
        let mut plan = FaultPlan::new(FaultConfig::light(7));
        let rolls: Vec<u64> = (0..8).map(|_| plan.roll().to_bits()).collect();
        assert_eq!(
            rolls,
            [
                0x3fb2_ae30_237b_17d8,
                0x3fd8_f2f8_7916_4c82,
                0x3f91_30f3_5fd0_f180,
                0x3fec_d308_1017_5625,
                0x3fe2_a75d_6e0c_e7c5,
                0x3fdc_f4ce_d99a_8788,
                0x3fcf_ed5f_4365_df54,
                0x3fdd_f2f1_284c_f0b4,
            ]
        );
    }
}
