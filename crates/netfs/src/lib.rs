//! netfs: the simulated network-storage path and its KML closed loop.
//!
//! The paper's framework tunes storage knobs wherever a workload-dependent
//! sweet spot exists; NFS's per-mount `rsize`/`wsize` transfer sizes are
//! the canonical network-side example (§6 names network file systems as a
//! target). This crate builds that path end to end, deterministically:
//!
//! - [`transport`] — the link model: latency, bandwidth, per-fragment
//!   loss, duplication, reordering and jitter, optionally phased into
//!   congestion bursts, all driven by the counter-based
//!   [`kernel_sim::FaultPlan`] packet extension so schedules replay
//!   byte-identically.
//! - [`server`] — an NFS-like server over a [`kernel_sim::Sim`] kernel,
//!   with the duplicate-request cache that makes at-least-once delivery
//!   safe.
//! - [`mount`] — the robust client: timeout, exponential backoff,
//!   retransmission with xid reuse, exactly-once completion, and the
//!   clamped `rsize`/`wsize` knobs. Every packet is double-entry
//!   accounted in [`NetStats`].
//! - [`tuner`] — the KML application: RPC tracepoints → shared windowed
//!   featurizer → calm/congested classifier → rsize actuation.
//! - [`closed_loop`] — the E9 experiment: fixed-rsize baselines vs the
//!   tuned mount across three network profiles.
//!
//! Large transfers amortize round trips; small transfers bound the blast
//! radius of a lost fragment. On a phased link neither choice wins both
//! regimes — the closed loop's job is to track the phase.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod mount;
pub mod server;
pub mod transport;
pub mod tuner;

pub use closed_loop::{
    compare, run_fixed, run_kml, NetOutcome, NetRunConfig, NetRunReport, FIXED_RSIZES_KB,
};
pub use mount::{
    max_rpc_events_per_op, NetStats, NfsMount, DEFAULT_RSIZE_KB, MAX_EVENTS_PER_RPC, RSIZE_MAX_KB,
    RSIZE_MIN_KB,
};
pub use server::{NfsServer, RpcOp};
pub use transport::{Leg, NetProfile, Transport};
pub use tuner::{
    rsize_spec, train_rsize_model, RsizeDecision, RsizeFeatures, RsizePolicy, RsizeTuner,
    RsizeTunerModel, NUM_RSIZE_FEATURES,
};
