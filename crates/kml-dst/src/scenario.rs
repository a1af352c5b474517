//! Seed-derived scenarios.
//!
//! Every parameter of a DST run — device profile, store geometry, ring
//! capacity, tuner cadence, op mix, and the fault schedule — is a pure
//! function of one 64-bit seed, so a failing run is *a number*, not a
//! state dump. The scenario draws from its own splitmix64 stream
//! (domain-separated from the fault layer's schedule stream) in a fixed
//! order; adding parameters must only ever append draws, or old seeds
//! stop reproducing.

use kernel_sim::{DeviceProfile, FaultConfig};
use kml_platform::sampler::{splitmix64, GOLDEN_GAMMA as GOLDEN};

/// One splitmix64 step from state `x`: advance the counter, mix.
fn splitmix(x: u64) -> u64 {
    splitmix64(x.wrapping_add(GOLDEN))
}

/// A deterministic draw stream: `n`-th value depends only on (seed,
/// domain, n).
pub(crate) struct SeedStream {
    state: u64,
    draws: u64,
}

impl SeedStream {
    pub(crate) fn new(seed: u64, domain: u64) -> Self {
        SeedStream {
            state: splitmix(seed ^ domain.wrapping_mul(GOLDEN)),
            draws: 0,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.state = splitmix(self.state.wrapping_add(self.draws.wrapping_mul(GOLDEN)));
        self.state
    }

    /// Uniform in `[0, 1)` (53 high bits, like the fault layer).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }
}

/// Bitmask of fault kinds the shrinker has switched off. A disabled kind
/// has its rate zeroed in [`Scenario::fault_config`] (or the network
/// equivalent in [`Scenario::net_params`]); everything else in the
/// scenario (op mix, geometry, surviving fault draws) is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultMask(pub u16);

impl FaultMask {
    /// Device read errors.
    pub const READ_ERROR: FaultMask = FaultMask(1 << 0);
    /// Device write errors.
    pub const WRITE_ERROR: FaultMask = FaultMask(1 << 1);
    /// Torn multi-page writes.
    pub const TORN_WRITE: FaultMask = FaultMask(1 << 2);
    /// Service-time multipliers.
    pub const LATENCY_SPIKE: FaultMask = FaultMask(1 << 3);
    /// Fixed-length device stalls.
    pub const STALL: FaultMask = FaultMask(1 << 4);
    /// Page-cache capacity squeezes.
    pub const CACHE_SQUEEZE: FaultMask = FaultMask(1 << 5);
    /// Network packet loss (netfs scenarios).
    pub const NET_LOSS: FaultMask = FaultMask(1 << 6);
    /// Network packet duplication (netfs scenarios).
    pub const NET_DUP: FaultMask = FaultMask(1 << 7);
    /// Network packet reordering (netfs scenarios).
    pub const NET_REORDER: FaultMask = FaultMask(1 << 8);
    /// Network jitter (netfs scenarios).
    pub const NET_JITTER: FaultMask = FaultMask(1 << 9);
    /// Lifecycle: stage a shadow candidate (lifecycle scenarios).
    pub const LC_SHADOW: FaultMask = FaultMask(1 << 10);
    /// Lifecycle: operator-install a deliberately regressed generation
    /// (lifecycle scenarios; what the watchdog must roll back).
    pub const LC_REGRESS: FaultMask = FaultMask(1 << 11);
    /// Lifecycle: attempt to load a corrupted artifact (lifecycle
    /// scenarios; the load must fail atomically).
    pub const LC_CORRUPT: FaultMask = FaultMask(1 << 12);
    /// Continual: the mid-run workload shift (continual scenarios).
    /// Disabling it turns the scenario into its own no-drift control —
    /// the detector must then never fire and no retrain may happen.
    pub const CT_SHIFT: FaultMask = FaultMask(1 << 13);

    /// All fourteen kinds, in shrink order (device, then network, then
    /// lifecycle events, then the continual workload shift; the shrinker
    /// tries them in this order and keeps whatever still fails).
    pub const KINDS: [(FaultMask, &'static str); 14] = [
        (Self::READ_ERROR, "read_error"),
        (Self::WRITE_ERROR, "write_error"),
        (Self::TORN_WRITE, "torn_write"),
        (Self::LATENCY_SPIKE, "latency_spike"),
        (Self::STALL, "stall"),
        (Self::CACHE_SQUEEZE, "cache_squeeze"),
        (Self::NET_LOSS, "net_loss"),
        (Self::NET_DUP, "net_dup"),
        (Self::NET_REORDER, "net_reorder"),
        (Self::NET_JITTER, "net_jitter"),
        (Self::LC_SHADOW, "lc_shadow"),
        (Self::LC_REGRESS, "lc_regress"),
        (Self::LC_CORRUPT, "lc_corrupt"),
        (Self::CT_SHIFT, "ct_shift"),
    ];

    /// Whether `kind` is set in this mask.
    pub fn contains(self, kind: FaultMask) -> bool {
        self.0 & kind.0 != 0
    }

    /// This mask with `kind` added.
    pub fn with(self, kind: FaultMask) -> FaultMask {
        FaultMask(self.0 | kind.0)
    }

    /// Renders as the `KML_DST_DISABLE` comma list (empty for none).
    pub fn to_env(self) -> String {
        Self::KINDS
            .iter()
            .filter(|(k, _)| self.contains(*k))
            .map(|(_, name)| *name)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses the `KML_DST_DISABLE` comma list; unknown names are ignored
    /// (a reproducer from a newer build should not hard-fail an older one).
    pub fn from_env(s: &str) -> FaultMask {
        let mut mask = FaultMask::default();
        for part in s.split(',') {
            if let Some((k, _)) = Self::KINDS.iter().find(|(_, n)| *n == part.trim()) {
                mask = mask.with(*k);
            }
        }
        mask
    }
}

/// One fully-specified DST run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The seed everything derives from.
    pub seed: u64,
    /// Steps of the main op loop (the shrinker minimises this).
    pub ops: u64,
    /// Fault kinds the shrinker switched off.
    pub disabled: FaultMask,
    /// Arms the deliberate lose-keys-on-failed-flush bug in the store —
    /// the harness's own end-to-end validation (it must catch this).
    pub lsm_bug: bool,
    /// Runs the netfs harness (RPC mount + rsize tuner under a seeded
    /// packet-fault schedule) instead of the LSM/readahead stack.
    pub netfs: bool,
    /// Weaves scripted model-lifecycle events (shadow staging, a
    /// regressed install the watchdog must roll back, a corrupted-artifact
    /// load) into the run and checks the lifecycle invariants I11–I13.
    pub lifecycle: bool,
    /// Runs the closed continual-learning loop on the LSM/readahead stack:
    /// a `kml-continual` controller watches every tuner window, a genuine
    /// mid-run workload shift (at a seed-derived step) drives drift →
    /// reservoir retrain → shadow staging → earned promotion, and the
    /// continual invariants I14–I16 are checked after every step.
    pub continual: bool,
}

/// Parameters derived from the seed (fixed draw order — append only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    pub device: DeviceProfile,
    pub key_space: u64,
    pub memtable_keys: usize,
    pub l0_trigger: usize,
    pub cache_pages: usize,
    pub ring_capacity: usize,
    pub window_ns: u64,
    pub faults: FaultConfig,
}

impl Scenario {
    /// A scenario with every fault kind live and no deliberate bug.
    pub fn from_seed(seed: u64, ops: u64) -> Scenario {
        Scenario {
            seed,
            ops,
            disabled: FaultMask::default(),
            lsm_bug: false,
            netfs: false,
            lifecycle: false,
            continual: false,
        }
    }

    /// A netfs scenario: the RPC mount + rsize-tuner stack under a seeded
    /// packet-fault schedule, with every network fault kind live.
    pub fn netfs_from_seed(seed: u64, ops: u64) -> Scenario {
        Scenario {
            netfs: true,
            ..Scenario::from_seed(seed, ops)
        }
    }

    /// A lifecycle scenario: the LSM/readahead stack with scripted
    /// swap/shadow/rollback events interleaved with the device faults.
    pub fn lifecycle_from_seed(seed: u64, ops: u64) -> Scenario {
        Scenario {
            lifecycle: true,
            ..Scenario::from_seed(seed, ops)
        }
    }

    /// The netfs analogue: lifecycle events on the rsize loop, under the
    /// seeded packet-fault schedule.
    pub fn netfs_lifecycle_from_seed(seed: u64, ops: u64) -> Scenario {
        Scenario {
            lifecycle: true,
            ..Scenario::netfs_from_seed(seed, ops)
        }
    }

    /// A continual scenario: the LSM/readahead stack with a live
    /// `kml-continual` controller and a seed-derived mid-run workload
    /// shift (the op mix pivots to a sequential scan), under the same
    /// seeded device-fault schedule.
    pub fn continual_from_seed(seed: u64, ops: u64) -> Scenario {
        Scenario {
            continual: true,
            ..Scenario::from_seed(seed, ops)
        }
    }

    /// Same scenario with the deliberate LSM bug armed.
    pub fn with_lsm_bug(mut self) -> Scenario {
        self.lsm_bug = true;
        self
    }

    /// Whether the scripted lifecycle arc runs. On the LSM stack a
    /// continual scenario's controller owns the tuner's install surface
    /// (and drives the same `LifecycleController` machinery), so the
    /// script stands down; the netfs stack has no continual loop.
    pub(crate) fn scripted_lifecycle(&self) -> bool {
        self.lifecycle && (self.netfs || !self.continual)
    }

    /// The fault kinds this scenario's stack consults, in shrink order:
    /// device kinds on the LSM stack, `net_*` on netfs, `lc_*` only with
    /// the scripted arc, `ct_shift` only with the continual loop.
    /// Disabling any other kind changes nothing, so the shrinker does not
    /// spend a run on it.
    pub fn relevant_kinds(&self) -> impl Iterator<Item = FaultMask> + '_ {
        let (device, rest) = FaultMask::KINDS.split_at(6);
        let (net, rest) = rest.split_at(4);
        let (lifecycle, continual) = rest.split_at(3);
        let stack = if self.netfs { net } else { device };
        let lifecycle = lifecycle.iter().filter(|_| self.scripted_lifecycle());
        let continual = continual.iter().filter(|_| self.continual && !self.netfs);
        stack
            .iter()
            .chain(lifecycle)
            .chain(continual)
            .map(|(kind, _)| *kind)
    }

    /// `rate` unless the shrinker disabled `kind`: a disabled kind keeps
    /// its draw (the stream must not shift) but fires at rate zero.
    fn live(&self, kind: FaultMask, rate: f64) -> f64 {
        if self.disabled.contains(kind) {
            0.0
        } else {
            rate
        }
    }

    pub(crate) fn params(&self) -> Params {
        let mut s = SeedStream::new(self.seed, 0xD57);
        let device = if s.next_u64() & 1 == 0 {
            DeviceProfile::nvme()
        } else {
            DeviceProfile::sata_ssd()
        };
        let key_space = s.range(256, 1024);
        let memtable_keys = s.range(16, 64) as usize;
        let l0_trigger = s.range(2, 5) as usize;
        let cache_pages = s.range(128, 1024) as usize;
        // Rings from 8 (overflow guaranteed) to 4096 (overflow rare).
        let ring_capacity = 1usize << s.range(3, 13);
        let window_ns = s.range(200_000, 2_000_000);
        let mut faults = FaultConfig {
            seed: splitmix(self.seed ^ 0xFA17),
            read_error: self.live(FaultMask::READ_ERROR, s.next_f64() * 0.08),
            write_error: self.live(FaultMask::WRITE_ERROR, s.next_f64() * 0.08),
            torn_write: self.live(FaultMask::TORN_WRITE, s.next_f64() * 0.10),
            latency_spike: self.live(FaultMask::LATENCY_SPIKE, s.next_f64() * 0.10),
            stall: self.live(FaultMask::STALL, s.next_f64() * 0.02),
            cache_squeeze: self.live(FaultMask::CACHE_SQUEEZE, s.next_f64() * 0.01),
            ..FaultConfig::off()
        };
        faults.spike_mult = s.range(10, 40);
        faults.stall_ns = s.range(1, 5) * 1_000_000;
        faults.squeeze_frac = 0.1 + s.next_f64() * 0.4;
        faults.squeeze_ops = s.range(16, 128);
        Params {
            device,
            key_space,
            memtable_keys,
            l0_trigger,
            cache_pages,
            ring_capacity,
            window_ns,
            faults,
        }
    }

    /// The fault schedule this scenario installs (disabled kinds zeroed).
    pub fn fault_config(&self) -> FaultConfig {
        self.params().faults
    }

    /// Network-path parameters for netfs scenarios. Drawn from their own
    /// domain (`0x7E7`) so the device-side [`Scenario::params`] draw order
    /// — and with it every pinned LSM-stack trace hash — is untouched.
    pub(crate) fn net_params(&self) -> NetParams {
        let mut s = SeedStream::new(self.seed, 0x7E7);
        let rtt_ns = s.range(500_000, 10_000_000);
        let ns_per_page = s.range(5_000, 80_000);
        let per_rpc_ns = s.range(10_000, 60_000);
        let base_rto_ns = rtt_ns * s.range(3, 6);
        let net_loss = self.live(FaultMask::NET_LOSS, s.next_f64() * 0.12);
        let net_dup = self.live(FaultMask::NET_DUP, s.next_f64() * 0.04);
        let net_reorder = self.live(FaultMask::NET_REORDER, s.next_f64() * 0.04);
        let net_jitter = self.live(FaultMask::NET_JITTER, s.next_f64() * 0.30);
        let net_jitter_ns = s.range(100_000, 2_000_000);
        // Half the scenarios get a steady link, half a phased one.
        let burst_period_ns = if s.next_u64() & 1 == 0 {
            0
        } else {
            s.range(500_000_000, 4_000_000_000)
        };
        let burst_frac = 0.3 + s.next_f64() * 0.5;
        // Rings from 8 (overflow guaranteed) to 4096 (overflow rare) —
        // I10 must reconcile exactly in both regimes.
        let ring_capacity = 1usize << s.range(3, 13);
        let window_ns = s.range(20_000_000, 200_000_000);
        let cache_pages = s.range(1024, 8192) as usize;
        NetParams {
            rtt_ns,
            ns_per_page,
            per_rpc_ns,
            base_rto_ns,
            faults: FaultConfig {
                seed: splitmix(self.seed ^ 0x7FA1),
                net_loss,
                net_dup,
                net_reorder,
                net_jitter,
                net_jitter_ns,
                ..FaultConfig::off()
            },
            burst_period_ns,
            burst_frac,
            ring_capacity,
            window_ns,
            cache_pages,
        }
    }

    /// The continual-loop schedule for continual scenarios. Drawn from its
    /// own domain (`0xC01F`) so none of the other parameter streams — and
    /// with them every pre-continual pinned trace hash — moves by a single
    /// draw. Fixed draw order, append only.
    pub(crate) fn continual_params(&self) -> ContinualParams {
        let mut s = SeedStream::new(self.seed, 0xC01F);
        let shift_pct = s.range(35, 60);
        let reservoir_capacity = (64usize) << s.range(0, 3);
        let initial_seed = s.next_u64();
        let retrain_seed = s.next_u64();
        // Continual scenarios use longer windows than the base stack so
        // each window averages over the whole op mix — per-window feature
        // noise shrinks and the workload shift stands clear of it.
        let window_ns = s.range(2_000_000, 8_000_000);
        ContinualParams {
            shift_pct,
            reservoir_capacity,
            initial_seed,
            retrain_seed,
            window_ns,
        }
    }

    /// The scripted lifecycle schedule for lifecycle scenarios. Drawn from
    /// its own domain (`0x11FC`) so neither [`Scenario::params`] nor
    /// [`Scenario::net_params`] — and with them every pre-lifecycle pinned
    /// trace hash — shifts by a single draw. Fixed draw order, append only.
    pub(crate) fn lifecycle_params(&self) -> LifecycleParams {
        let mut s = SeedStream::new(self.seed, 0x11FC);
        let observe_every = s.range(6, 25);
        let stage_step = s.range(12, 100);
        let regress_step = stage_step + s.range(60, 180);
        let corrupt_step = s.range(8, 360);
        LifecycleParams {
            observe_every,
            stage_step,
            regress_step,
            corrupt_step,
            initial_seed: s.next_u64(),
            shadow_seed: s.next_u64(),
            regress_seed: s.next_u64(),
        }
    }
}

/// Scripted lifecycle-event schedule derived from the seed (lifecycle
/// scenarios only; fixed draw order — append only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LifecycleParams {
    /// Steps between watchdog observation windows.
    pub observe_every: u64,
    /// Step at which the shadow candidate is staged.
    pub stage_step: u64,
    /// Step at which the regressed generation is operator-installed.
    pub regress_step: u64,
    /// Step at which the corrupted-artifact load is attempted.
    pub corrupt_step: u64,
    /// Model seed for the initial (generation 1) artifact.
    pub initial_seed: u64,
    /// Model seed for the shadow candidate artifact.
    pub shadow_seed: u64,
    /// Model seed for the deliberately regressed artifact.
    pub regress_seed: u64,
}

/// Continual-loop parameters derived from the seed (continual scenarios
/// only; fixed draw order — append only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContinualParams {
    /// Percentage of the run after which the op mix pivots sequential.
    pub shift_pct: u64,
    /// Training-reservoir capacity (64, 128, or 256 samples).
    pub reservoir_capacity: usize,
    /// Model seed for the initial (generation 1) artifact.
    pub initial_seed: u64,
    /// Model seed for retrained candidates.
    pub retrain_seed: u64,
    /// Tuner window length (longer than the base stack's, so windows
    /// average over the op mix).
    pub window_ns: u64,
}

/// Network-path parameters derived from the seed (netfs scenarios only;
/// fixed draw order — append only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetParams {
    pub rtt_ns: u64,
    pub ns_per_page: u64,
    pub per_rpc_ns: u64,
    pub base_rto_ns: u64,
    pub faults: FaultConfig,
    pub burst_period_ns: u64,
    pub burst_frac: f64,
    pub ring_capacity: usize,
    pub window_ns: u64,
    pub cache_pages: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_a_pure_function_of_the_seed() {
        let a = Scenario::from_seed(0xABCD, 100).params();
        let b = Scenario::from_seed(0xABCD, 100).params();
        assert_eq!(a.key_space, b.key_space);
        assert_eq!(a.ring_capacity, b.ring_capacity);
        assert_eq!(a.faults.seed, b.faults.seed);
        assert_eq!(a.faults.read_error, b.faults.read_error);
        let c = Scenario::from_seed(0xABCE, 100).params();
        assert_ne!(
            (a.key_space, a.faults.seed),
            (c.key_space, c.faults.seed),
            "adjacent seeds must not collide"
        );
    }

    #[test]
    fn disabled_kinds_zero_only_their_rate() {
        let base = Scenario::from_seed(7, 100);
        let masked = Scenario {
            disabled: FaultMask::default().with(FaultMask::READ_ERROR),
            ..base
        };
        let (a, b) = (base.fault_config(), masked.fault_config());
        assert_eq!(b.read_error, 0.0);
        assert_eq!(a.write_error, b.write_error);
        assert_eq!(a.torn_write, b.torn_write);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn net_params_are_pure_and_disabled_kinds_zero_only_their_rate() {
        let base = Scenario::netfs_from_seed(0x515, 100);
        let (a, b) = (base.net_params(), base.net_params());
        assert_eq!(a.faults.seed, b.faults.seed);
        assert_eq!(a.rtt_ns, b.rtt_ns);
        assert_eq!(a.ring_capacity, b.ring_capacity);
        let masked = Scenario {
            disabled: FaultMask::default().with(FaultMask::NET_LOSS),
            ..base
        }
        .net_params();
        assert_eq!(masked.faults.net_loss, 0.0);
        assert_eq!(a.faults.net_dup, masked.faults.net_dup);
        assert_eq!(a.faults.net_jitter, masked.faults.net_jitter);
        assert_eq!(a.window_ns, masked.window_ns);
    }

    #[test]
    fn lifecycle_params_are_pure_and_leave_other_domains_untouched() {
        let s = Scenario::lifecycle_from_seed(0x11FC, 100);
        let (a, b) = (s.lifecycle_params(), s.lifecycle_params());
        assert_eq!(a.stage_step, b.stage_step);
        assert_eq!(a.observe_every, b.observe_every);
        assert_eq!(a.shadow_seed, b.shadow_seed);
        assert!(
            a.regress_step > a.stage_step,
            "the regressed install must come after the shadow is staged"
        );
        // The lifecycle stream is its own domain: turning lifecycle on
        // must not move a single device-side or network-side draw.
        let plain = Scenario::from_seed(0x11FC, 100);
        assert_eq!(plain.params().key_space, s.params().key_space);
        assert_eq!(plain.params().faults.seed, s.params().faults.seed);
        assert_eq!(plain.net_params().rtt_ns, s.net_params().rtt_ns);
    }

    #[test]
    fn continual_params_are_pure_and_leave_other_domains_untouched() {
        let s = Scenario::continual_from_seed(0xC0, 400);
        let (a, b) = (s.continual_params(), s.continual_params());
        assert_eq!(a.shift_pct, b.shift_pct);
        assert_eq!(a.reservoir_capacity, b.reservoir_capacity);
        assert_eq!(a.initial_seed, b.initial_seed);
        assert_eq!(a.retrain_seed, b.retrain_seed);
        assert!((35..60).contains(&a.shift_pct));
        assert!([64, 128, 256].contains(&a.reservoir_capacity));
        // The continual stream is its own domain: turning continual on
        // must not move a single draw anywhere else.
        let plain = Scenario::from_seed(0xC0, 400);
        assert_eq!(plain.params().key_space, s.params().key_space);
        assert_eq!(plain.params().faults.seed, s.params().faults.seed);
        assert_eq!(plain.net_params().rtt_ns, s.net_params().rtt_ns);
        assert_eq!(
            plain.lifecycle_params().stage_step,
            s.lifecycle_params().stage_step
        );
    }

    #[test]
    fn relevant_kinds_are_the_ones_the_stack_reads() {
        let env = |s: Scenario| {
            s.relevant_kinds()
                .fold(FaultMask::default(), FaultMask::with)
                .to_env()
        };
        let device = "read_error,write_error,torn_write,latency_spike,stall,cache_squeeze";
        let net = "net_loss,net_dup,net_reorder,net_jitter";
        let lc = "lc_shadow,lc_regress,lc_corrupt";
        assert_eq!(env(Scenario::from_seed(1, 10)), device);
        assert_eq!(env(Scenario::netfs_from_seed(1, 10)), net);
        assert_eq!(
            env(Scenario::lifecycle_from_seed(1, 10)),
            format!("{device},{lc}")
        );
        assert_eq!(
            env(Scenario::netfs_lifecycle_from_seed(1, 10)),
            format!("{net},{lc}")
        );
        let mut continual = Scenario::continual_from_seed(1, 10);
        assert_eq!(env(continual), format!("{device},ct_shift"));
        // The continual controller owns the install surface: no script.
        continual.lifecycle = true;
        assert_eq!(env(continual), format!("{device},ct_shift"));
    }

    #[test]
    fn fault_mask_env_round_trips() {
        let mask = FaultMask::default()
            .with(FaultMask::TORN_WRITE)
            .with(FaultMask::STALL);
        assert_eq!(mask.to_env(), "torn_write,stall");
        assert_eq!(FaultMask::from_env(&mask.to_env()), mask);
        assert_eq!(FaultMask::from_env(""), FaultMask::default());
        assert_eq!(FaultMask::from_env("bogus,stall"), FaultMask::STALL);
    }

    /// The first eight draws of stream (seed 7, domain 1), recorded on the
    /// parent commit (1fb2a81), before the mix moved to
    /// `kml_platform::sampler`.
    #[test]
    fn seed_stream_draws_match_the_parent_commit() {
        let mut s = SeedStream::new(7, 1);
        let draws: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x19e9_1f84_37a8_0a62,
                0xb257_79d9_562d_07c3,
                0x8436_7f06_b934_219f,
                0xd7bb_2ecc_40e6_d8ed,
                0x439c_097c_1f5d_f9bf,
                0x8e8b_488e_7af4_15a3,
                0x11c4_c987_42a5_11b7,
                0xfa9c_4593_a994_e352,
            ]
        );
    }
}
