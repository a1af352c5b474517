//! # kml-dst — deterministic simulation testing for the KML closed loop
//!
//! The simulated stack is already deterministic: one thread, one virtual
//! clock, no host I/O. This crate turns that into a FoundationDB-style
//! test harness: a single 64-bit seed derives an entire *scenario* —
//! device profile, LSM geometry, op mix, and a device-level fault
//! schedule (I/O errors, torn writes, latency spikes, stalls, cache
//! squeezes) — and the harness runs the full closed loop (kvstore →
//! page cache → tracepoint ring → KML tuner → readahead actuation)
//! under it, checking cross-layer invariants after every step:
//!
//! - **I1 lsm-vs-reference** — the store never silently diverges from a
//!   `BTreeSet` model: rejected puts stay absent, accepted puts survive
//!   failed flushes and compactions, scans visit exactly the model's
//!   range.
//! - **I2 cache-accounting** — page-cache occupancy never exceeds its
//!   (possibly squeezed) capacity and dirty pages never exceed
//!   occupancy.
//! - **I3 ra-clamped** — the readahead the tuner holds is always one the
//!   policy can produce (or the untouched default).
//! - **I4 ring-reconciles** — tracepoints emitted = consumed + dropped,
//!   exactly, every time the tuner drains the ring.
//! - **I5 clock-monotone / no-panic** — simulated time never runs
//!   backwards, and no injected fault escapes as a panic.
//!
//! Netfs scenarios ([`Scenario::netfs_from_seed`]) run the network
//! stack instead — an NFS-like mount with its rsize tuner, under a
//! seeded packet-fault schedule (loss, duplication, reordering, jitter,
//! optionally phased into bursts) — and check the RPC-layer invariants:
//!
//! - **I6 rpc-exactly-once** — between ops, every issued RPC has
//!   returned to the caller exactly once (success, error, or give-up).
//! - **I7 retransmit-reconciles** — the double-entry packet ledger
//!   balances ([`netfs::NetStats::reconcile`]) after every step.
//! - **I8 rsize-clamped** — the actuated transfer size is always inside
//!   the mount's clamp range and one the policy can produce.
//! - **I9 loss-costs-time** — the clock is monotone and a step that
//!   lost packets always burned virtual time on their timeouts.
//! - **I10 rpc-ring-reconciles** — RPC tracepoints emitted = consumed +
//!   dropped, exactly, every drain.
//!
//! Lifecycle scenarios ([`Scenario::lifecycle_from_seed`] and
//! [`Scenario::netfs_lifecycle_from_seed`]) additionally weave scripted
//! model-lifecycle events — shadow staging, an operator install of a
//! deliberately regressed generation, a corrupted-artifact load — into
//! the run at seed-derived steps, drive a `kml-lifecycle` watchdog at a
//! seed-derived cadence, and check the lifecycle invariants:
//!
//! - **I11 swap-atomic** — the loop is never caught actuating a
//!   generation the lifecycle controller does not consider active; after
//!   a rollback the very next check sees the previous generation's
//!   original tag.
//! - **I12 shadow-never-actuates** — staging a candidate changes neither
//!   the active generation nor the actuated knob, and every decision is
//!   tagged with a generation that was actually installed.
//! - **I13 artifact-atomic** — a corrupted artifact load fails with a
//!   typed error and changes nothing; valid installs never half-apply.
//!
//! The three event kinds are first-class [`FaultMask`] members
//! (`lc_shadow`, `lc_regress`, `lc_corrupt`), so the shrinker minimises
//! lifecycle failures the same way it minimises fault kinds.
//!
//! Continual scenarios ([`Scenario::continual_from_seed`]) run the
//! closed continual-learning loop on the LSM/readahead stack: a
//! `kml-continual` controller watches every tuner window, and a genuine
//! mid-run workload shift — the op mix pivots onto the sequential scan
//! at a seed-derived step — drives the full drift → reservoir retrain →
//! shadow → earned-promotion arc under the seeded device faults. The
//! shift itself is a [`FaultMask`] member (`ct_shift`); disabling it
//! turns any continual seed into its own no-drift control, where the
//! detector must stay silent and nothing may retrain or promote. The
//! continual invariants:
//!
//! - **I14 retrain-only-on-drift** — a candidate is only ever trained on
//!   a window whose drift detector actually triggered.
//! - **I15 candidate-never-actuates** — the loop never serves a
//!   generation that was not installed: every decision is tagged with an
//!   installed generation, and the tuner and controller always agree on
//!   the active one (a staged candidate has no generation until the
//!   watchdog promotes it).
//! - **I16 reservoir-deterministic** — the training reservoir's fill
//!   level is a pure function of the window count and capacity, and its
//!   contents hash is folded into the trace hash, so a replay that
//!   samples even one different training row changes the fingerprint.
//!
//! A violation is reported as a [`FailureReport`] carrying the trace
//! tail and a shell-ready reproducer; [`shrink()`] then searches for the
//! smallest op count and fewest fault kinds that still fail — trying
//! only the kinds the scenario's stack reads
//! ([`Scenario::relevant_kinds`]) — and prints a minimal
//! `KML_DST_SEED=… KML_DST_OPS=… cargo test -p kml-dst` line. Replays
//! are byte-identical at any test-thread count because a scenario
//! shares nothing: each run builds its own sim, ring, tuner, and store
//! from the seed alone.
//!
//! ## Layout
//!
//! There is one driver. [`driver`] owns the step loop (op → tune →
//! check → scripted lifecycle arc), the event trace and its hash, the
//! panic boundary, and the single place a broken invariant becomes a
//! [`FailureReport`]; it is generic over the crate-private `System`
//! trait. `lsm` and `net` implement `System` for the two stacks (I1–I5
//! and I6–I10), `arcs` holds the scripted lifecycle arc (I11–I13, run
//! by the driver on any stack's tuner) and the continual arc (I14–I16,
//! owned by the LSM stack), [`scenario`] derives every parameter from
//! the seed, and [`shrink`](mod@shrink) minimises failures. A panic is
//! reported at the step it interrupted, with the trace tail, as
//! `I5.no-panic`.

mod arcs;
pub mod driver;
mod lsm;
mod net;
pub mod scenario;
pub mod shrink;

pub use driver::{run, Event, FailureReport, Outcome, RunSummary};
pub use scenario::{FaultMask, Scenario};
pub use shrink::{shrink, Shrunk};
