//! Fleet orchestration: shards of tenants in streaming serving rounds.
//!
//! A fleet run is a sequence of rounds. Logically each round has three
//! phases — **run** (every tenant issues operations until its tuner
//! harvests a feature window), **serve** (harvested windows are answered
//! by the shared [`InferenceServer`] in coalesced batches), and **apply**
//! (decisions are routed back into their tenants' tuners). One engine
//! executes them at every worker count: a round is one dispatch on the
//! persistent [`threading::WorkerPool`] (at one worker, or when the pool
//! is busy, the caller runs it inline as slot 0). Participants first
//! drain a shard-simulation cursor; as shards finish, a watermark batcher
//! stages their windows in shard-id order and emits `max_batch` chunks
//! (single-row chunks under [`ServeOptions::serial_inference`]), which
//! idle participants serve through the server's slot executor and scatter
//! straight back into the owning shards — inference for fast shards
//! overlaps simulation of slow ones.
//!
//! Determinism: tenants are derived from `(seed, tenant_id)` alone and
//! sharded by `tenant_id % shards` — a fixed shard count independent of
//! the worker count. The watermark batcher stages windows strictly in
//! shard-id order and cuts chunks purely by row count, so chunk contents
//! and boundaries are those of one `serve` call over the shard-major
//! collect regardless of which worker serves what when; each chunk's
//! classes depend only on (weights, rows) (kml-core's `batch_parity`
//! proptests, and `kml-dst`'s fleet scenario, which runs batched and
//! serial servers in lockstep), and a round applies
//! at most one decision per tenant, so apply order cannot matter. The
//! whole report is therefore byte-identical at any `--threads` value,
//! which CI enforces by diffing `repro fleet` artifacts against the
//! committed golden at several worker counts.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kml_core::{KmlError, Result};
use kml_platform::threading;
use kml_telemetry::{HistSnapshot, Histogram, Log2Hist, Registry};

use crate::server::{
    FleetModels, InferRequest, InferResponse, InferenceServer, ModelKind, ServeOptions,
};
use crate::tenant::{FleetSampler, Tenant, TenantWorkload};

/// A model hot-swap scheduled at a round boundary: after round
/// `after_round` completes (responses applied), `kind`'s model is
/// replaced by a fresh seed-derived model published as a new generation.
/// Scheduled swaps keep lifecycle runs deterministic — the swap point is
/// part of the configuration, not of the scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedSwap {
    /// 0-based round after which the swap is published.
    pub after_round: usize,
    /// The model kind to swap.
    pub kind: ModelKind,
    /// Seed of the replacement model (`FleetModels::untrained(seed)`).
    pub seed: u64,
}

/// Most planned swaps a single run can carry (a fixed-size slot array
/// keeps [`FleetConfig`] `Copy`).
pub const MAX_PLANNED_SWAPS: usize = 4;

/// No scheduled swaps — the default, and the value every pre-lifecycle
/// call site uses.
pub const NO_SWAPS: [Option<PlannedSwap>; MAX_PLANNED_SWAPS] = [None; MAX_PLANNED_SWAPS];

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Serving rounds to execute.
    pub rounds: usize,
    /// Fleet seed: tenants, traffic, and links all derive from it.
    pub seed: u64,
    /// Shard count — fixed and independent of the worker count, so
    /// results do not depend on available parallelism.
    pub shards: usize,
    /// Serving-policy knobs (batch size, serial baseline, q8, workers).
    pub options: ServeOptions,
    /// Model hot-swaps scheduled at round boundaries ([`NO_SWAPS`] for
    /// none).
    pub swaps: [Option<PlannedSwap>; MAX_PLANNED_SWAPS],
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            tenants: 2_048,
            rounds: 4,
            seed: 0xF1EE7,
            shards: 64,
            options: ServeOptions::default(),
            swaps: NO_SWAPS,
        }
    }
}

/// The deterministic outcome of a fleet run — everything here is
/// byte-identical across worker counts, and (forward-pass accounting
/// aside) between batched and serial-inference serving.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Tenants simulated.
    pub tenants: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Shards used.
    pub shards: usize,
    /// Tenants per model kind (`ModelKind::index` order).
    pub kind_counts: [u64; 3],
    /// Tenants per workload category (`TenantWorkload::POPULARITY` order).
    pub workload_counts: [u64; 7],
    /// Feature windows submitted to the server.
    pub windows_submitted: u64,
    /// Decisions served back.
    pub decisions_returned: u64,
    /// Decisions applied, per model kind.
    pub decisions_applied: [u64; 3],
    /// Model forward passes executed.
    pub forward_passes: u64,
    /// Batch-size distribution: `(size, batches)` ascending by size.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Aggregate tenant-visible operation latency (merged from the
    /// per-shard histograms).
    pub latency: HistSnapshot,
}

/// Outcome of a fleet run: the deterministic summary plus wall-clock
/// serving throughput (which is machine-dependent by nature and must stay
/// out of byte-compared artifacts).
#[derive(Debug)]
pub struct FleetReport {
    /// The deterministic part.
    pub summary: FleetSummary,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
}

impl FleetReport {
    /// Tuner-decision throughput: tenant windows served per wall-clock
    /// second.
    pub fn tenant_windows_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.summary.decisions_returned as f64 / self.wall_secs
        }
    }
}

/// One shard: a disjoint slice of the tenant population plus its local
/// telemetry. Shards never touch each other's state.
#[derive(Debug)]
struct Shard {
    tenants: Vec<Tenant>,
    hist: Log2Hist,
    pending: Vec<InferRequest>,
}

impl Shard {
    fn run_round(&mut self) {
        for tenant in &mut self.tenants {
            if let Some(request) = tenant.run_round(&mut self.hist) {
                self.pending.push(request);
            }
        }
    }
}

/// One emitted forward pass of the streaming harvest: `len` rows of
/// `kind` starting at `start` in the kind's staging buffer.
#[derive(Clone, Copy)]
struct Chunk {
    kind: ModelKind,
    start: u32,
    len: u32,
}

/// The streaming harvest: per-kind staging buffers filled in shard-id
/// (watermark) order plus the chunks emitted over them so far. All
/// buffers are reused across rounds.
struct RoundPipeline {
    staged: [Vec<InferRequest>; 3],
    emitted: [usize; 3],
    chunks: Vec<Chunk>,
    next_shard: usize,
    next_chunk: usize,
    final_flushed: bool,
}

impl RoundPipeline {
    fn new() -> RoundPipeline {
        RoundPipeline {
            staged: [Vec::new(), Vec::new(), Vec::new()],
            emitted: [0; 3],
            chunks: Vec::new(),
            next_shard: 0,
            next_chunk: 0,
            final_flushed: false,
        }
    }

    /// Resets for a new round, keeping every buffer's capacity.
    fn reset(&mut self) {
        for staged in &mut self.staged {
            staged.clear();
        }
        self.emitted = [0; 3];
        self.chunks.clear();
        self.next_shard = 0;
        self.next_chunk = 0;
        self.final_flushed = false;
    }

    /// Advances the harvest watermark: drains `pending` from every
    /// finished shard strictly in shard-id order — so staging order is
    /// shard-major, tenant-minor — then emits every complete chunk of
    /// `chunk_rows` rows, plus, once all shards are staged, the final
    /// partial chunk per kind. Chunk boundaries depend only on staged row
    /// counts, never on timing, so the emitted batches are exactly those
    /// of one `serve_into` tick over the whole round's windows.
    fn advance(&mut self, shards: &[Mutex<Shard>], done: &[AtomicBool], chunk_rows: usize) {
        while self.next_shard < shards.len() && done[self.next_shard].load(Ordering::Acquire) {
            let mut shard = shards[self.next_shard].lock().expect("shard lock");
            for request in shard.pending.drain(..) {
                self.staged[request.kind.index()].push(request);
            }
            self.next_shard += 1;
        }
        for kind in ModelKind::ALL {
            let k = kind.index();
            while self.staged[k].len() - self.emitted[k] >= chunk_rows {
                self.chunks.push(Chunk {
                    kind,
                    start: self.emitted[k] as u32,
                    len: chunk_rows as u32,
                });
                self.emitted[k] += chunk_rows;
            }
        }
        if self.next_shard == shards.len() && !self.final_flushed {
            for kind in ModelKind::ALL {
                let k = kind.index();
                let rem = self.staged[k].len() - self.emitted[k];
                if rem > 0 {
                    self.chunks.push(Chunk {
                        kind,
                        start: self.emitted[k] as u32,
                        len: rem as u32,
                    });
                    self.emitted[k] += rem;
                }
            }
            self.final_flushed = true;
        }
    }
}

/// Per-slot working memory for a round, reused across chunks and rounds.
#[derive(Default)]
struct SlotScratch {
    rows: Vec<InferRequest>,
    responses: Vec<InferResponse>,
}

/// What a round participant does next after failing to claim a
/// simulation task.
enum Step {
    /// Serve the chunk just copied into the slot's scratch rows.
    Serve(ModelKind),
    /// The round is complete — exit the loop.
    Done,
    /// Chunks are still in flight on other workers — yield and re-poll.
    Wait,
}

/// Sets its flag if dropped during a panic, so sibling workers spinning
/// on round progress exit instead of waiting for a chunk that will never
/// be served; the pool then resumes the panic on the dispatcher.
struct BailGuard<'a>(&'a AtomicBool);

impl Drop for BailGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Phase-span histograms, nanoseconds. The phases overlap by design:
/// `run` is round start → last shard done simulating, `serve` is round
/// start → last chunk applied (the round's full wall), and `apply` is
/// the summed in-worker scatter time.
struct PhaseHists {
    run: Histogram,
    serve: Histogram,
    apply: Histogram,
}

impl PhaseHists {
    fn register() -> PhaseHists {
        let reg = Registry::global();
        PhaseHists {
            run: reg.histogram("fleet.phase_run_ns"),
            serve: reg.histogram("fleet.phase_serve_ns"),
            apply: reg.histogram("fleet.phase_apply_ns"),
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Applies one chunk's responses directly to their owning shards,
/// grouped into per-shard runs so each shard lock is taken once per run.
/// Shard `s` owns ids `s, s + shards, …` in order, so tenant `id` sits at
/// index `id / shards` of shard `id % shards`. Safe from any worker: a
/// request only reaches a chunk after its shard finished simulating, a
/// round carries at most one decision per tenant, and the shard mutex
/// serializes concurrent chunks touching the same shard — so apply order
/// cannot affect any state.
///
/// # Errors
///
/// A response addressed to a tenant its shard does not hold.
fn apply_responses(shards: &[Mutex<Shard>], responses: &[InferResponse]) -> Result<()> {
    let shard_of = |r: &InferResponse| (r.tenant_id % shards.len() as u64) as usize;
    let mut i = 0;
    while i < responses.len() {
        let s = shard_of(&responses[i]);
        let mut j = i + 1;
        while j < responses.len() && shard_of(&responses[j]) == s {
            j += 1;
        }
        let mut shard = shards[s].lock().expect("shard lock");
        for response in &responses[i..j] {
            let index = (response.tenant_id / shards.len() as u64) as usize;
            let tenant = shard
                .tenants
                .get_mut(index)
                .filter(|t| t.id == response.tenant_id)
                .ok_or_else(|| {
                    KmlError::InvalidConfig(format!(
                        "decision for tenant {} routed to shard {s}, which does not hold it",
                        response.tenant_id
                    ))
                })?;
            tenant.apply(response);
        }
        i = j;
    }
    Ok(())
}

/// One round: a single pool dispatch (inline at one worker) in which
/// every participant alternates between draining the shard-simulation
/// cursor and serving watermark-emitted chunks, scattering decisions
/// straight back into the shards. Returns `(windows_submitted, decisions)`.
fn run_round(
    server: &mut InferenceServer,
    shards: &[Mutex<Shard>],
    workers: usize,
    pipe: &Mutex<RoundPipeline>,
    done: &[AtomicBool],
    scratches: &[Mutex<SlotScratch>],
    phases: &PhaseHists,
) -> Result<(u64, u64)> {
    let shard_count = shards.len();
    let chunk_rows = server.options().chunk_rows();
    pipe.lock().expect("pipeline lock").reset();
    for flag in done {
        flag.store(false, Ordering::Relaxed);
    }
    let sim_cursor = AtomicUsize::new(0);
    let sims_left = AtomicUsize::new(shard_count);
    let chunks_served = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let bailed = AtomicBool::new(false);
    let failure: Mutex<Option<KmlError>> = Mutex::new(None);
    let sim_done_ns = AtomicU64::new(0);
    let apply_ns = AtomicU64::new(0);
    let pins = server.pin_kinds();
    let server_ref: &InferenceServer = server;
    let round_start = Instant::now();

    threading::global_pool().broadcast(workers - 1, |slot| {
        let _bail = BailGuard(&bailed);
        loop {
            if failed.load(Ordering::Acquire) || bailed.load(Ordering::Acquire) {
                break;
            }
            // Simulate first: finished shards are what feeds the batcher.
            let s = sim_cursor.fetch_add(1, Ordering::Relaxed);
            if s < shard_count {
                shards[s].lock().expect("shard lock").run_round();
                done[s].store(true, Ordering::Release);
                if sims_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                    sim_done_ns.store(elapsed_ns(round_start), Ordering::Relaxed);
                }
                continue;
            }
            let step = {
                let mut p = pipe.lock().expect("pipeline lock");
                p.advance(shards, done, chunk_rows);
                if p.next_chunk < p.chunks.len() {
                    let chunk = p.chunks[p.next_chunk];
                    p.next_chunk += 1;
                    // Copy the rows out under the lock: the staging buffer
                    // may grow (and reallocate) while the chunk is served.
                    let rows = &p.staged[chunk.kind.index()]
                        [chunk.start as usize..(chunk.start as usize + chunk.len as usize)];
                    let mut scratch = scratches[slot].lock().expect("scratch lock");
                    scratch.rows.clear();
                    scratch.rows.extend_from_slice(rows);
                    Step::Serve(chunk.kind)
                } else if p.final_flushed && chunks_served.load(Ordering::Acquire) == p.chunks.len()
                {
                    Step::Done
                } else {
                    Step::Wait
                }
            };
            match step {
                Step::Serve(kind) => {
                    let mut guard = scratches[slot].lock().expect("scratch lock");
                    let scratch = &mut *guard;
                    scratch.responses.clear();
                    let served = server_ref
                        .serve_run_on_slot(slot, &pins, kind, &scratch.rows, &mut scratch.responses)
                        .and_then(|()| {
                            let apply_start = Instant::now();
                            let applied = apply_responses(shards, &scratch.responses);
                            apply_ns.fetch_add(elapsed_ns(apply_start), Ordering::Relaxed);
                            applied
                        });
                    match served {
                        Ok(()) => {
                            chunks_served.fetch_add(1, Ordering::Release);
                        }
                        Err(e) => {
                            failure.lock().expect("failure lock").get_or_insert(e);
                            failed.store(true, Ordering::Release);
                        }
                    }
                }
                Step::Done => break,
                Step::Wait => std::thread::yield_now(),
            }
        }
    });

    let round_ns = elapsed_ns(round_start);
    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(e);
    }
    let p = pipe.lock().expect("pipeline lock");
    let windows: u64 = p.staged.iter().map(|v| v.len() as u64).sum();
    let decisions: u64 = p.chunks.iter().map(|c| u64::from(c.len)).sum();
    assert_eq!(
        windows, decisions,
        "serving tick dropped or duplicated windows"
    );
    server.note_batches(p.chunks.iter().map(|c| c.len as usize), windows);
    phases.run.record(sim_done_ns.load(Ordering::Relaxed));
    phases.serve.record(round_ns);
    phases.apply.record(apply_ns.load(Ordering::Relaxed));
    Ok((windows, decisions))
}

/// Round boundary: publishes the hot-swaps scheduled after `round`. The
/// swap happens on the orchestration thread between ticks, so it is
/// deterministic at any worker count; the next round's tick pins the new
/// generation.
fn publish_swaps(cfg: &FleetConfig, round: usize, server: &mut InferenceServer) -> Result<()> {
    for swap in cfg.swaps.iter().flatten() {
        if swap.after_round == round {
            let replacement = FleetModels::untrained(swap.seed)?;
            let model = match swap.kind {
                ModelKind::Readahead => replacement.readahead,
                ModelKind::Iosched => replacement.iosched,
                ModelKind::Netfs => replacement.netfs,
            };
            server.swap_model(swap.kind, model)?;
        }
    }
    Ok(())
}

/// Runs a fleet to completion.
///
/// # Errors
///
/// Propagates model inference failures, and fails on a decision addressed
/// to a tenant its shard does not hold.
///
/// # Panics
///
/// Panics if any serving invariant breaks: a window answered zero or
/// multiple times, a decision carrying the wrong model kind, a tenant's
/// trace ring overwriting a record its tuner had not read
/// ([`Tenant::records_dropped`] — no digest would show it).
pub fn run_fleet(cfg: &FleetConfig, models: FleetModels) -> Result<FleetReport> {
    let start = Instant::now();
    let workers = threading::default_workers();
    let shard_count = cfg.shards.max(1);
    let sampler = FleetSampler::new();
    let pool = threading::global_pool();
    let phases = PhaseHists::register();
    Registry::global()
        .gauge("kml.pool_workers")
        .set(pool.threads() as u64);

    // Build tenants sharded by id: shard s owns ids ≡ s (mod shards).
    // Construction is derivation-only, so it parallelizes cleanly too.
    let shard_ids: Vec<usize> = (0..shard_count).collect();
    let shards: Vec<Mutex<Shard>> = threading::pool_map(&shard_ids, workers, |_, &s| {
        let tenants = (s as u64..cfg.tenants as u64)
            .step_by(shard_count)
            .map(|id| Tenant::derive(cfg.seed, id, &sampler))
            .collect();
        Mutex::new(Shard {
            tenants,
            hist: Log2Hist::new(),
            pending: Vec::new(),
        })
    });

    // The fleet's worker count sizes the server's slot table: every
    // round participant serves chunks on its own slot.
    let mut options = cfg.options;
    options.workers = workers;
    let mut server = InferenceServer::new(models, options);
    server.warm_replicas()?;

    // Round state, allocated once and reused by every round.
    let pipe = Mutex::new(RoundPipeline::new());
    let done: Vec<AtomicBool> = (0..shard_count).map(|_| AtomicBool::new(false)).collect();
    let scratches: Vec<Mutex<SlotScratch>> = (0..=pool.max_slot())
        .map(|_| Mutex::new(SlotScratch::default()))
        .collect();

    let mut windows_submitted = 0u64;
    let mut decisions_returned = 0u64;
    for round in 0..cfg.rounds {
        let (windows, decisions) = run_round(
            &mut server,
            &shards,
            workers,
            &pipe,
            &done,
            &scratches,
            &phases,
        )?;
        windows_submitted += windows;
        decisions_returned += decisions;
        publish_swaps(cfg, round, &mut server)?;
    }

    // Merge shard telemetry and check the end-of-run invariants.
    let mut hist = Log2Hist::new();
    let mut kind_counts = [0u64; 3];
    let mut workload_counts = [0u64; 7];
    let mut decisions_applied = [0u64; 3];
    let mut applied_total = 0u64;
    for shard in &shards {
        let shard = shard.lock().expect("shard lock");
        hist.merge(&shard.hist);
        for tenant in &shard.tenants {
            assert!(
                !tenant.outstanding,
                "tenant {} ended the run with an unanswered window",
                tenant.id
            );
            assert_eq!(tenant.windows_submitted, tenant.decisions_applied);
            assert_eq!(tenant.records_dropped(), 0, "ring overrun: {}", tenant.id);
            kind_counts[tenant.model_kind().index()] += 1;
            workload_counts[tenant.workload.index()] += 1;
            decisions_applied[tenant.model_kind().index()] += tenant.decisions_applied;
            applied_total += tenant.decisions_applied;
        }
    }
    assert_eq!(windows_submitted, decisions_returned);
    assert_eq!(windows_submitted, applied_total);

    let stats = server.stats();
    Ok(FleetReport {
        summary: FleetSummary {
            tenants: cfg.tenants,
            rounds: cfg.rounds,
            shards: shard_count,
            kind_counts,
            workload_counts,
            windows_submitted,
            decisions_returned,
            decisions_applied,
            forward_passes: stats.forward_passes,
            batch_sizes: stats.batch_sizes.iter().map(|(&s, &n)| (s, n)).collect(),
            latency: hist.snapshot(),
        },
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// Convenience label for per-kind tables.
pub fn kind_name(index: usize) -> &'static str {
    ModelKind::ALL[index].name()
}

/// Convenience label for per-workload tables.
pub fn workload_name(index: usize) -> &'static str {
    TenantWorkload::POPULARITY[index].name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            tenants: 96,
            rounds: 2,
            shards: 16,
            seed: 0xABCD,
            options: ServeOptions::default(),
            swaps: NO_SWAPS,
        }
    }

    fn models(cfg: &FleetConfig) -> FleetModels {
        FleetModels::untrained(cfg.seed).unwrap()
    }

    fn run_with(cfg: &FleetConfig, threads: &str) -> FleetSummary {
        std::env::set_var(threading::WORKERS_ENV, threads);
        let r = run_fleet(cfg, models(cfg)).unwrap();
        std::env::remove_var(threading::WORKERS_ENV);
        r.summary
    }

    const TWO_SWAPS: [Option<PlannedSwap>; MAX_PLANNED_SWAPS] = [
        Some(PlannedSwap {
            after_round: 0,
            kind: ModelKind::Readahead,
            seed: 0x51AB,
        }),
        Some(PlannedSwap {
            after_round: 1,
            kind: ModelKind::Netfs,
            seed: 0x51AC,
        }),
        None,
        None,
    ];

    /// FNV-1a of `small_cfg()`'s summary (its `Debug` rendering), recorded
    /// at the last commit that had two round engines: the three-phase
    /// lockstep one at 1 worker and the streaming one at 3 and 8 all
    /// produced it (EXPERIMENTS.md E17).
    const SMALL_CFG_GOLDEN: u64 = 0x4c40_3dfd_5cef_f2db;

    fn digest(summary: &FleetSummary) -> u64 {
        kml_platform::bytes::Fnv1a::of(format!("{summary:?}").as_bytes())
    }

    /// What `run_fleet` must equal: the same rounds composed on one thread
    /// from the public tenant and server calls — every tenant runs in
    /// shard-major order, one `serve` tick answers the round, every
    /// decision goes back to its tenant.
    fn composed_reference(cfg: &FleetConfig) -> FleetSummary {
        let sampler = FleetSampler::new();
        let mut tenants: Vec<Tenant> = (0..cfg.shards as u64)
            .flat_map(|s| (s..cfg.tenants as u64).step_by(cfg.shards))
            .map(|id| Tenant::derive(cfg.seed, id, &sampler))
            .collect();
        let mut server = InferenceServer::new(models(cfg), cfg.options);
        let mut hist = Log2Hist::new();
        let (mut windows, mut decisions) = (0u64, 0u64);
        for round in 0..cfg.rounds {
            let requests: Vec<InferRequest> = tenants
                .iter_mut()
                .filter_map(|t| t.run_round(&mut hist))
                .collect();
            let responses = server.serve(&requests).unwrap();
            windows += requests.len() as u64;
            decisions += responses.len() as u64;
            for response in &responses {
                let tenant = tenants.iter_mut().find(|t| t.id == response.tenant_id);
                tenant
                    .expect("decision for a derived tenant")
                    .apply(response);
            }
            publish_swaps(cfg, round, &mut server).unwrap();
        }
        let mut summary = FleetSummary {
            tenants: cfg.tenants,
            rounds: cfg.rounds,
            shards: cfg.shards,
            kind_counts: [0; 3],
            workload_counts: [0; 7],
            windows_submitted: windows,
            decisions_returned: decisions,
            decisions_applied: [0; 3],
            forward_passes: server.stats().forward_passes,
            batch_sizes: server.stats().batch_sizes.clone().into_iter().collect(),
            latency: hist.snapshot(),
        };
        for tenant in &tenants {
            assert!(!tenant.outstanding, "reference left a window unanswered");
            summary.kind_counts[tenant.model_kind().index()] += 1;
            summary.workload_counts[tenant.workload.index()] += 1;
            summary.decisions_applied[tenant.model_kind().index()] += tenant.decisions_applied;
        }
        summary
    }

    #[test]
    fn a_small_fleet_runs_and_accounts_every_window_exactly_once() {
        let cfg = small_cfg();
        let report = run_fleet(&cfg, models(&cfg)).unwrap();
        let s = &report.summary;
        assert_eq!(s.tenants, 96);
        assert_eq!(s.windows_submitted, s.decisions_returned);
        assert_eq!(s.windows_submitted, s.decisions_applied.iter().sum::<u64>());
        assert!(s.windows_submitted > 0, "no tenant harvested a window");
        assert!(s.latency.count > 0, "no latencies recorded");
        assert_eq!(s.kind_counts.iter().sum::<u64>(), 96);
        assert_eq!(s.workload_counts.iter().sum::<u64>(), 96);
    }

    #[test]
    fn worker_count_never_changes_the_summary() {
        // 1 worker runs the round inline as slot 0, more run it on the
        // pool; all must reproduce the golden recorded from both of the
        // engines this one replaced.
        let cfg = small_cfg();
        let one = run_with(&cfg, "1");
        assert_eq!(one, run_with(&cfg, "3"));
        assert_eq!(one, run_with(&cfg, "8"));
        assert_eq!(digest(&one), SMALL_CFG_GOLDEN, "summary drifted: {one:?}");
    }

    #[test]
    fn engine_matches_a_composed_reference() {
        // Small max_batch forces many chunks per round (partial final
        // chunks included); the serial-inference run checks that the
        // engine honours the option itself, chunk accounting included.
        let batched = ServeOptions {
            max_batch: 4,
            ..ServeOptions::default()
        };
        let serial = ServeOptions {
            serial_inference: true,
            ..batched
        };
        for (options, swaps) in [
            (batched, NO_SWAPS),
            (batched, TWO_SWAPS),
            (serial, TWO_SWAPS),
        ] {
            let cfg = FleetConfig {
                options,
                swaps,
                rounds: 3,
                ..small_cfg()
            };
            let reference = composed_reference(&cfg);
            for threads in ["1", "3", "8"] {
                assert_eq!(
                    run_with(&cfg, threads),
                    reference,
                    "threads {threads}, serial {}, swaps {}",
                    options.serial_inference,
                    swaps != NO_SWAPS
                );
            }
        }
    }

    #[test]
    fn run_fleet_inside_a_pool_task_matches_a_top_level_run() {
        // The round's own dispatch finds the pool busy and runs inline as
        // slot 0 of a multi-slot server.
        let cfg = small_cfg();
        let top_level = run_with(&cfg, "3");
        // Sibling tests dispatch on the same global pool; when one of them
        // holds it, the outer broadcast itself degrades to `f(0)` and the
        // inner run would find the pool free. Slot 1 running proves the
        // outer dispatch owned the pool for the whole inner run.
        for _ in 0..100 {
            let nested = Mutex::new(None);
            let owned_pool = AtomicBool::new(false);
            threading::global_pool().broadcast(1, |slot| {
                if slot == 0 {
                    *nested.lock().unwrap() = Some(run_with(&cfg, "3"));
                } else {
                    owned_pool.store(true, Ordering::Relaxed);
                }
            });
            if owned_pool.into_inner() {
                assert_eq!(nested.into_inner().unwrap(), Some(top_level));
                return;
            }
        }
        panic!("the outer dispatch never owned the pool");
    }

    #[test]
    fn a_misaddressed_decision_is_an_error_not_a_panic() {
        let cfg = small_cfg();
        let sampler = FleetSampler::new();
        let shards: Vec<Mutex<Shard>> = (0..2u64)
            .map(|id| {
                Mutex::new(Shard {
                    tenants: vec![Tenant::derive(cfg.seed, id, &sampler)],
                    hist: Log2Hist::new(),
                    pending: Vec::new(),
                })
            })
            .collect();
        // Tenant 5 would be index 2 of shard 1, which holds one tenant.
        let stray = InferResponse {
            tenant_id: 5,
            kind: ModelKind::Readahead,
            class: 0,
        };
        let err = apply_responses(&shards, &[stray]).unwrap_err();
        assert!(err.to_string().contains("tenant 5"), "{err}");
        // A shard whose tenants are out of id order is caught by the tag.
        shards[1].lock().unwrap().tenants[0].id = 3;
        let swapped = InferResponse {
            tenant_id: 1,
            ..stray
        };
        assert!(apply_responses(&shards, &[swapped]).is_err());
    }

    #[test]
    fn mid_run_swap_is_deterministic_at_any_worker_count() {
        let cfg = FleetConfig {
            rounds: 3,
            swaps: TWO_SWAPS,
            ..small_cfg()
        };
        let one = run_with(&cfg, "1");
        assert_eq!(one, run_with(&cfg, "3"));
        assert_eq!(one, run_with(&cfg, "8"));
        // The swap is real: the same fleet without it decides differently
        // (replacement models are seeded to differ from the originals).
        let unswapped = FleetConfig {
            swaps: NO_SWAPS,
            ..cfg
        };
        assert_ne!(
            one,
            run_with(&unswapped, "1"),
            "planned swaps had no effect"
        );
    }

    #[test]
    fn batched_and_serial_serving_produce_identical_fleets() {
        let cfg = small_cfg();
        let batched = run_fleet(&cfg, models(&cfg)).unwrap();
        let serial_cfg = FleetConfig {
            options: ServeOptions {
                serial_inference: true,
                ..ServeOptions::default()
            },
            ..cfg
        };
        let serial = run_fleet(&serial_cfg, models(&cfg)).unwrap();
        // Everything but the serving mechanics (forward-pass count and
        // batch-size distribution) must match bit for bit.
        let mut b = batched.summary.clone();
        let mut s = serial.summary.clone();
        assert!(b.forward_passes < s.forward_passes, "batching coalesced");
        b.forward_passes = 0;
        s.forward_passes = 0;
        b.batch_sizes.clear();
        s.batch_sizes.clear();
        assert_eq!(b, s);
    }
}
