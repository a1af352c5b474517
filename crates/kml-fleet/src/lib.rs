//! Multi-tenant fleet serving with a shared batched-inference model server.
//!
//! The paper deploys one KML model instance per machine, inside that
//! machine's kernel. This crate explores the fleet-scale shape of the same
//! idea: thousands of concurrent *tenants* — each a deterministic,
//! seed-derived combination of workload mix (Zipfian popularity over the
//! six db_bench-style workloads of Table 2 plus netfs-backed files),
//! device profile, and network profile — whose closed-loop tuners all
//! share **one** model-inference server. Instead of every tenant paying a
//! ~400 ns single-row inference per window, the server coalesces the
//! pending windows of a serving tick into row-stacked batches and runs
//! one blocked-GEMM forward pass per batch, then routes every decision
//! back to the tenant that asked (readahead KiB, scheduler batch wait, or
//! NFS rsize, per tenant type).
//!
//! The design leans on three properties proven elsewhere in the
//! workspace and re-checked here end to end:
//!
//! - **Batching is bit-exact** — `kml-core`'s `batch_parity` proptests
//!   show `infer_batch_into` equals N single-row `infer_into` calls bit
//!   for bit, so a batched fleet takes *exactly* the decisions a serial
//!   one would ([`fleet`] re-verifies this whole-fleet).
//! - **Sharding is worker-free** — tenants derive from `(seed, id)` and
//!   shard by `id % shards`; a round stages finished shards' windows in
//!   shard order whichever pool worker ran them, so reports are
//!   byte-identical at any `--threads`.
//! - **Serving is exactly-once** — every submitted window is answered
//!   once and routed to its submitting tenant, enforced by per-tenant
//!   accounting and asserted at every tick.

pub mod fleet;
pub mod server;
pub mod tenant;

pub use fleet::{
    run_fleet, FleetConfig, FleetReport, FleetSummary, PlannedSwap, MAX_PLANNED_SWAPS, NO_SWAPS,
};
pub use server::{
    FleetModels, InferRequest, InferResponse, InferenceServer, LifecycleLane, ModelKind,
    ServeOptions,
};
pub use tenant::{FleetSampler, Tenant, TenantWorkload};
