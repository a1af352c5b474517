//! The shared model-inference server.
//!
//! Every tenant's tuner runs the same §3.3 loop, but in a fleet the
//! inference step is the part worth centralizing: one window's feature
//! vector is a single row, and the blocked-GEMM forward pass amortizes
//! beautifully over row-stacked batches (one `B × features` matmul per
//! layer instead of `B` single-row passes). The server coalesces the
//! pending windows of a whole serving tick into per-model batches, runs
//! each batch through [`kml_core::model::Model::predict_batch_into`], and
//! routes every class back to the tenant that submitted the window.
//!
//! Batching changes *when* arithmetic happens, never *what* it computes:
//! `tests/batch_parity.rs` in `kml-core` proves the batched forward is
//! bit-identical to serial single-row inference, and the DST fleet
//! scenario (`kml-dst/tests/fleet.rs`) runs a batched and a
//! [`ServeOptions::serial_inference`] server in lockstep and compares
//! every round's responses.

use std::collections::BTreeMap;
use std::sync::Mutex;

use kml_collect::FeatureBatch;
use kml_core::model::Model;
use kml_core::train::TrainSpec;
use kml_core::{KmlError, Result};
use kml_lifecycle::{Generational, Pinned, ShadowStats};
use kml_platform::threading;

/// Which of the fleet's shared models a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// The readahead workload classifier (5 features → 4 classes).
    Readahead,
    /// The I/O-scheduler traffic classifier (4 features → 2 classes).
    Iosched,
    /// The NFS rsize link classifier (5 features → 2 classes).
    Netfs,
}

impl ModelKind {
    /// All kinds, in the fixed batching order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Readahead, ModelKind::Iosched, ModelKind::Netfs];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Readahead => "readahead",
            ModelKind::Iosched => "iosched",
            ModelKind::Netfs => "netfs",
        }
    }

    /// Stable index into per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            ModelKind::Readahead => 0,
            ModelKind::Iosched => 1,
            ModelKind::Netfs => 2,
        }
    }

    /// The `.kmlm` artifact kind serving this lane — what a lifecycle
    /// install/stage against the fleet server verifies bytes as.
    pub fn artifact_kind(self) -> kml_lifecycle::ArtifactKind {
        match self {
            ModelKind::Readahead => kml_lifecycle::ArtifactKind::Readahead,
            ModelKind::Iosched => kml_lifecycle::ArtifactKind::Iosched,
            ModelKind::Netfs => kml_lifecycle::ArtifactKind::NetfsRsize,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Upper bound on per-window feature dimensionality across the fleet's
/// tuners (readahead and netfs use 5, iosched 4) — lets a request hold its
/// features inline instead of heap-allocating per window.
pub const MAX_FEATURES: usize = 5;

/// One pending tenant window awaiting a class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferRequest {
    /// The submitting tenant (globally unique across the fleet).
    pub tenant_id: u64,
    /// Which shared model serves this tenant.
    pub kind: ModelKind,
    /// The window's feature vector, inline (first `dim` entries valid).
    pub features: [f64; MAX_FEATURES],
    /// Valid feature count.
    pub dim: usize,
}

impl InferRequest {
    /// The valid feature slice.
    pub fn features(&self) -> &[f64] {
        &self.features[..self.dim]
    }
}

/// A served class, tagged with the tenant that asked for it so routing
/// mistakes are detectable (the DST fleet invariant checks the tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferResponse {
    /// The tenant the class belongs to.
    pub tenant_id: u64,
    /// The model that produced it.
    pub kind: ModelKind,
    /// Predicted class.
    pub class: usize,
}

/// The fleet's three shared classifiers.
#[derive(Debug)]
pub struct FleetModels {
    /// Readahead workload classifier.
    pub readahead: Model<f32>,
    /// I/O-scheduler traffic classifier.
    pub iosched: Model<f32>,
    /// NFS rsize link classifier.
    pub netfs: Model<f32>,
}

impl FleetModels {
    /// Cheap deterministic stand-ins with the deployed topologies but no
    /// training — decisions are arbitrary yet reproducible, which is all
    /// the serving-infrastructure tests (parity, routing, exactly-once)
    /// need. `repro fleet` swaps in the actually-trained models.
    ///
    /// # Errors
    ///
    /// Propagates model construction failures.
    pub fn untrained(seed: u64) -> Result<FleetModels> {
        // The deployed topologies, each re-seeded with its own salt.
        let build = |spec: TrainSpec, salt: u64| spec.topology.seed(seed ^ salt).build::<f32>();
        Ok(FleetModels {
            readahead: build(readahead::model::spec(4, 0, 0), 0xF1EE7)?,
            iosched: build(iosched::SchedTuner::spec(0), 0x5C4ED)?,
            netfs: build(netfs::rsize_spec(0), 0x4E7F5)?,
        })
    }

    fn model_mut(&mut self, kind: ModelKind) -> &mut Model<f32> {
        match kind {
            ModelKind::Readahead => &mut self.readahead,
            ModelKind::Iosched => &mut self.iosched,
            ModelKind::Netfs => &mut self.netfs,
        }
    }
}

/// Serving-policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Largest batch per forward pass; pending requests beyond this are
    /// split into further batches within the same tick.
    pub max_batch: usize,
    /// Serve every window as a one-row chunk instead of batching — the
    /// baseline configuration the fleet bench compares against. Same
    /// executor, same replicas; only the chunk plan changes.
    pub serial_inference: bool,
    /// Serve through the per-model int8 engines
    /// ([`kml_core::model::Model::enable_q8`]) instead of the exact f32
    /// forward pass. Decisions carry the engine's bounded error — the
    /// agreement gate in this crate's tests holds them to ≥ 99.5%
    /// agreement with f32 — in exchange for a much cheaper serving tick.
    /// Off by default: the DST fleet scenario and E10 artifacts pin the
    /// bit-exact f32 path.
    pub q8_serving: bool,
    /// Fan same-kind row-chunks out across the persistent worker pool
    /// (`0`/`1` serves on the calling thread). The chunk plan depends only
    /// on the request stream and each chunk's classes only on its rows
    /// and the pinned weights, so responses and stats are bit-identical
    /// at any setting.
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_batch: 256,
            serial_inference: false,
            q8_serving: false,
            workers: 1,
        }
    }
}

impl ServeOptions {
    /// Rows per planned forward pass: `max_batch`, or one in
    /// [`Self::serial_inference`] mode — the serial baseline is the same
    /// plan cut into single-row chunks.
    pub(crate) fn chunk_rows(&self) -> usize {
        if self.serial_inference {
            1
        } else {
            self.max_batch.max(1)
        }
    }
}

/// Per-slot serving context. A slot is exclusive to one pool participant
/// per dispatch (slot 0 is the calling thread), so the mutex is
/// uncontended — it exists to make sharing `&InferenceServer` across
/// workers sound.
#[derive(Debug)]
struct SlotCtx {
    /// Per-kind staging batch (indexed by `ModelKind::index`).
    batches: [FeatureBatch; 3],
    /// Per-kind inference replica, cached and keyed by the generation it
    /// was cloned from; refreshed lazily after a hot-swap.
    replicas: [Option<(u64, Model<f32>)>; 3],
    /// Class output scratch for one chunk.
    classes: Vec<usize>,
}

impl SlotCtx {
    fn new() -> Self {
        SlotCtx {
            batches: [
                FeatureBatch::new(readahead::NUM_FEATURES),
                FeatureBatch::new(iosched::tuner::NUM_SCHED_FEATURES),
                FeatureBatch::new(netfs::tuner::NUM_RSIZE_FEATURES),
            ],
            replicas: [None, None, None],
            classes: Vec::new(),
        }
    }
}

/// One planned forward pass of a serving tick: a run of same-kind
/// requests bounded by [`ServeOptions::chunk_rows`], with its output range
/// in the tick's class buffer. The plan depends only on the request
/// stream, never on worker scheduling.
#[derive(Debug, Clone, Copy)]
struct ChunkPlan {
    kind: ModelKind,
    /// Start within the kind's group-index array.
    gstart: u32,
    /// Row count.
    len: u32,
    /// Start of this chunk's classes in the tick's class buffer.
    ostart: u32,
}

impl ChunkPlan {
    /// This chunk's range within the kind's group-index array.
    fn rows(&self) -> std::ops::Range<usize> {
        self.gstart as usize..(self.gstart + self.len) as usize
    }
}

/// Raw shared view of the tick's class buffer. Chunks write disjoint
/// `[ostart, ostart + len)` ranges (the plan partitions the buffer), so
/// concurrent writers never alias; the pool's epoch hand-off provides the
/// happens-before edge back to the dispatcher.
struct SharedClasses(*mut usize);

// SAFETY: disjoint-range writes only; see type docs.
unsafe impl Send for SharedClasses {}
unsafe impl Sync for SharedClasses {}

impl SharedClasses {
    /// # Safety
    ///
    /// `start..start + classes.len()` must be in bounds and disjoint from
    /// every concurrent writer's range.
    unsafe fn write(&self, start: usize, classes: &[usize]) {
        std::ptr::copy_nonoverlapping(classes.as_ptr(), self.0.add(start), classes.len());
    }
}

/// Cumulative serving statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Windows served.
    pub requests: u64,
    /// Forward passes executed (batched or single-row).
    pub forward_passes: u64,
    /// Batch-size distribution: `size → number of batches of that size`.
    pub batch_sizes: BTreeMap<usize, u64>,
}

impl ServerStats {
    fn note_batch(&mut self, rows: usize) {
        self.forward_passes += 1;
        *self.batch_sizes.entry(rows).or_insert(0) += 1;
    }
}

/// Turns one served class into its tagged response — the only place a
/// response is built.
fn emit(req: &InferRequest, class: usize, responses: &mut Vec<InferResponse>) {
    responses.push(InferResponse {
        tenant_id: req.tenant_id,
        kind: req.kind,
        class,
    });
}

/// The shared batched-inference server.
///
/// Each model kind lives in its own generation-tagged swap cell
/// ([`Generational`]): a serving tick pins every kind once at entry, so
/// all batches within the tick — including split `max_batch` chunks —
/// are answered by one coherent generation even if a hot-swap lands
/// mid-tick. [`InferenceServer::swap_model`] installs a new generation
/// for *future* ticks without waiting for in-flight work, and an optional
/// per-kind shadow lane evaluates a candidate on live batches without
/// ever affecting responses.
///
/// Every chunk runs on a per-slot replica of its pinned model
/// ([`Model::replica`]), cloned on first use and after a swap.
#[derive(Debug)]
pub struct InferenceServer {
    /// Per-kind generational swap cells (indexed by `ModelKind::index`).
    cells: [Generational<Model<f32>>; 3],
    /// Per-kind shadow candidates: infer on every served batch, never
    /// answer (indexed by `ModelKind::index`).
    shadows: [Option<Model<f32>>; 3],
    shadow_stats: [ShadowStats; 3],
    options: ServeOptions,
    stats: ServerStats,
    // Reused buffers so steady-state serving allocates nothing.
    shadow_classes: Vec<usize>,
    /// Per-kind request-index groups (indexed by `ModelKind::index`).
    groups: [Vec<u32>; 3],
    /// The tick's chunk plan.
    chunk_plan: Vec<ChunkPlan>,
    /// Tick-wide class buffer the chunks scatter into.
    class_buf: Vec<usize>,
    /// Per-slot contexts (slot 0 = the caller); a single slot when
    /// serving stays on the calling thread.
    slots: Vec<Mutex<SlotCtx>>,
}

impl InferenceServer {
    /// Creates a server over the shared models (each installed as
    /// generation 1 of its kind).
    ///
    /// # Panics
    ///
    /// With [`ServeOptions::q8_serving`] on, panics if any fleet model is
    /// not a quantizable linear/sigmoid/relu chain (the deployed
    /// topologies all are — hitting this means a deployment bug).
    pub fn new(mut models: FleetModels, options: ServeOptions) -> Self {
        if options.q8_serving {
            for kind in ModelKind::ALL {
                models
                    .model_mut(kind)
                    .enable_q8()
                    .expect("fleet models are q8-compatible chains");
            }
        }
        InferenceServer {
            cells: [
                Generational::new(models.readahead),
                Generational::new(models.iosched),
                Generational::new(models.netfs),
            ],
            shadows: [None, None, None],
            shadow_stats: [ShadowStats::default(); 3],
            options,
            stats: ServerStats::default(),
            shadow_classes: Vec::new(),
            groups: [Vec::new(), Vec::new(), Vec::new()],
            chunk_plan: Vec::new(),
            class_buf: Vec::new(),
            slots: {
                // One context per pool slot when fanning out; just the
                // caller's otherwise — `threading::pool_run` stays on slot
                // 0 under the same condition, so a single-threaded server
                // never wakes the global pool at all.
                let n = if options.workers > 1 {
                    threading::global_pool().max_slot() + 1
                } else {
                    1
                };
                (0..n).map(|_| Mutex::new(SlotCtx::new())).collect()
            },
        }
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The serving options in force.
    pub fn options(&self) -> ServeOptions {
        self.options
    }

    /// The generation currently serving `kind`.
    pub fn generation(&self, kind: ModelKind) -> u64 {
        self.cells[kind.index()].generation()
    }

    /// Atomically installs `model` as `kind`'s next generation and returns
    /// its tag. The swap takes effect at the next serving tick; a tick
    /// already in flight finishes on the generation it pinned at entry.
    ///
    /// # Errors
    ///
    /// With [`ServeOptions::q8_serving`] on, fails if `model` does not
    /// quantize; the cell is then untouched — the old generation keeps
    /// serving.
    pub fn swap_model(&mut self, kind: ModelKind, mut model: Model<f32>) -> Result<u64> {
        if self.options.q8_serving {
            model.enable_q8()?;
        }
        Ok(self.cells[kind.index()].publish(model))
    }

    /// Stages `model` as `kind`'s shadow candidate (replacing any previous
    /// one and resetting its stats). Shadows infer on every served batch
    /// of their kind but never answer requests.
    pub fn set_shadow(&mut self, kind: ModelKind, model: Model<f32>) {
        self.shadows[kind.index()] = Some(model);
        self.shadow_stats[kind.index()] = ShadowStats::default();
    }

    /// Discards `kind`'s shadow candidate and returns its final stats.
    pub fn clear_shadow(&mut self, kind: ModelKind) -> ShadowStats {
        self.shadows[kind.index()] = None;
        std::mem::take(&mut self.shadow_stats[kind.index()])
    }

    /// Agreement stats for `kind`'s staged shadow (zeroed when none).
    pub fn shadow_stats(&self, kind: ModelKind) -> ShadowStats {
        self.shadow_stats[kind.index()]
    }

    /// A per-kind [`kml_lifecycle::LifecycleTarget`] view of this server,
    /// so a `LifecycleController` (or the continual-learning loop on top
    /// of it) can drive `kind`'s lane from `.kmlm` bytes: installs land
    /// as explicitly tagged generations in the swap cell, stages land in
    /// the shadow lane, and the other kinds are untouched.
    pub fn lifecycle_lane(&mut self, kind: ModelKind) -> LifecycleLane<'_> {
        LifecycleLane { server: self, kind }
    }

    /// Serves one tick: answers every pending request, in order, exactly
    /// once. Requests are grouped per model kind (in [`ModelKind::ALL`]
    /// order, stable within a kind) and each group is chunked to
    /// `max_batch` rows per forward pass; the returned responses are in
    /// the same grouped order.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] for a request whose `dim` is not
    /// its model's feature width, and propagates model inference failures.
    /// A failed tick emits no responses and leaves the stats untouched.
    pub fn serve(&mut self, requests: &[InferRequest]) -> Result<Vec<InferResponse>> {
        let mut responses = Vec::with_capacity(requests.len());
        self.serve_into(requests, &mut responses)?;
        Ok(responses)
    }

    /// [`Self::serve`] into a caller-owned buffer (cleared first), so a
    /// steady-state serving loop reuses one response allocation across
    /// ticks. One path at every setting: plan the tick's chunks, run each
    /// through the slot executor — across the persistent worker pool with
    /// [`ServeOptions::workers`] above 1, inline as slot 0 otherwise —
    /// scattering classes into disjoint ranges of the tick's class buffer,
    /// then do the bookkeeping (stats, shadow lane, response assembly)
    /// serially in plan order. The plan and each chunk's arithmetic are
    /// independent of scheduling, so responses and stats are bit-identical
    /// at any worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::serve`].
    pub fn serve_into(
        &mut self,
        requests: &[InferRequest],
        responses: &mut Vec<InferResponse>,
    ) -> Result<()> {
        responses.clear();
        // Index-based grouping keeps the per-kind order identical to the
        // submission order (shard-major, tenant-minor) — the stability the
        // exactly-once accounting and the `--threads` byte-identity
        // guarantee both lean on.
        for g in &mut self.groups {
            g.clear();
        }
        for (i, r) in requests.iter().enumerate() {
            self.groups[r.kind.index()].push(i as u32);
        }
        let chunk_rows = self.options.chunk_rows();
        self.chunk_plan.clear();
        let mut ostart = 0u32;
        for kind in ModelKind::ALL {
            let glen = self.groups[kind.index()].len();
            let mut s = 0usize;
            while s < glen {
                let len = (glen - s).min(chunk_rows);
                self.chunk_plan.push(ChunkPlan {
                    kind,
                    gstart: s as u32,
                    len: len as u32,
                    ostart,
                });
                ostart += len as u32;
                s += len;
            }
        }
        self.class_buf.clear();
        self.class_buf.resize(requests.len(), 0);
        // Pin every kind once per tick: every chunk runs on one coherent
        // model even if a swap is published mid-tick.
        let pins = self.pin_kinds();
        {
            let (chunks, groups, slots) = (&self.chunk_plan, &self.groups, &self.slots);
            let out = SharedClasses(self.class_buf.as_mut_ptr());
            let failure: Mutex<Option<KmlError>> = Mutex::new(None);
            let run_planned = |slot: usize, ci: usize| {
                let c = chunks[ci];
                let rows = groups[c.kind.index()][c.rows()]
                    .iter()
                    .map(|&gi| &requests[gi as usize]);
                match Self::run_chunk(slots, slot, &pins[c.kind.index()], c.kind, rows) {
                    // SAFETY: the plan partitions the class buffer; this
                    // chunk's range is disjoint from every other writer's.
                    Ok(ctx) => unsafe { out.write(c.ostart as usize, &ctx.classes) },
                    Err(e) => {
                        failure
                            .lock()
                            .expect("failure slot poisoned")
                            .get_or_insert(e);
                    }
                }
            };
            threading::pool_run(self.options.workers, chunks.len(), run_planned);
            if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
                return Err(e);
            }
        }
        for ci in 0..self.chunk_plan.len() {
            let c = self.chunk_plan[ci];
            let k = c.kind.index();
            self.stats.note_batch(c.len as usize);
            self.observe_shadow(requests, c);
            for (j, &gi) in self.groups[k][c.rows()].iter().enumerate() {
                let req = &requests[gi as usize];
                let class = self.class_buf[c.ostart as usize + j];
                emit(req, class, responses);
                if let Some(&shadow_class) = self.shadow_classes.get(j) {
                    self.shadow_stats[k].record(shadow_class == class);
                }
            }
        }
        self.stats.requests += requests.len() as u64;
        Ok(())
    }

    /// Pins every kind's generation for one tick. Shared across pool
    /// workers (pin access is `&self`), so the whole tick — however its
    /// chunks are scheduled — answers from one coherent generation per
    /// kind.
    pub(crate) fn pin_kinds(&self) -> [Pinned<Model<f32>>; 3] {
        [
            self.cells[0].pin(),
            self.cells[1].pin(),
            self.cells[2].pin(),
        ]
    }

    /// The chunk executor: answers `rows` on `slot` and returns the locked
    /// slot context whose `classes` holds one class per row. It stages the
    /// rows into the slot's per-kind batch — checking each request's width
    /// first — and runs the slot's replica (cloned from `pin`'s generation
    /// on first use or after a swap) over it. Takes the slot table, not
    /// `&mut self`: pool workers share the server while the orchestrator
    /// owns the tick.
    fn run_chunk<'s, 'r>(
        slots: &'s [Mutex<SlotCtx>],
        slot: usize,
        pin: &Pinned<Model<f32>>,
        kind: ModelKind,
        rows: impl Iterator<Item = &'r InferRequest>,
    ) -> Result<std::sync::MutexGuard<'s, SlotCtx>> {
        let mut guard = slots[slot].lock().expect("slot ctx poisoned");
        let ctx = &mut *guard;
        let cached = &mut ctx.replicas[kind.index()];
        if cached.as_ref().is_none_or(|(g, _)| *g != pin.generation()) {
            *cached = Some((pin.generation(), pin.with(|m| m.replica())));
        }
        let (_, model) = cached.as_mut().expect("replica just ensured");
        let batch = &mut ctx.batches[kind.index()];
        batch.clear();
        for req in rows {
            if req.dim != batch.dim() {
                return Err(KmlError::ShapeMismatch {
                    op: "serve",
                    lhs: (1, req.dim),
                    rhs: (1, batch.dim()),
                });
            }
            batch.push_row(req.features());
        }
        model.predict_batch_into(batch.as_slice(), batch.rows(), &mut ctx.classes)?;
        Ok(guard)
    }

    /// Eagerly clones every slot's replica of every kind at the current
    /// generations and runs one full-width (`max_batch` zero rows)
    /// forward pass through each, so every slot's batch and scratch
    /// buffers reach their steady-state size up front. After warming, a
    /// tick of at most `max_batch`-row chunks allocates nothing on any
    /// worker, whichever slots the scheduler happens to pick — the
    /// property the fleet's steady-state allocation test pins.
    ///
    /// # Errors
    ///
    /// Fails if a warming forward pass fails.
    pub fn warm_replicas(&mut self) -> Result<()> {
        let pins = self.pin_kinds();
        for slot in 0..self.slots.len() {
            for kind in ModelKind::ALL {
                let pin = &pins[kind.index()];
                let zero = InferRequest {
                    tenant_id: 0,
                    kind,
                    features: [0.0; MAX_FEATURES],
                    dim: pin.with(|m| m.input_dim()),
                };
                let rows = std::iter::repeat_n(&zero, self.options.chunk_rows());
                drop(Self::run_chunk(&self.slots, slot, pin, kind, rows)?);
            }
        }
        Ok(())
    }

    /// Fleet-round entry: serves one contiguous run of same-kind
    /// `requests` on `slot` through the same executor and `emit` as
    /// [`Self::serve_into`], appending one tagged response per request.
    /// Does **no** stats/shadow bookkeeping — the orchestrator accounts
    /// the tick deterministically via [`Self::note_batches`] (and builds
    /// the server itself, so no shadow can be staged).
    pub(crate) fn serve_run_on_slot(
        &self,
        slot: usize,
        pins: &[Pinned<Model<f32>>; 3],
        kind: ModelKind,
        run: &[InferRequest],
        responses: &mut Vec<InferResponse>,
    ) -> Result<()> {
        let ctx = Self::run_chunk(&self.slots, slot, &pins[kind.index()], kind, run.iter())?;
        for (req, &class) in run.iter().zip(&ctx.classes) {
            emit(req, class, responses);
        }
        Ok(())
    }

    /// Deterministic tick accounting for the fleet round: `sizes` holds
    /// the row count of every forward pass the tick executed, in plan
    /// order, and `requests` the windows served. Produces exactly the
    /// stats a `serve_into` tick over the same windows records.
    pub(crate) fn note_batches(&mut self, sizes: impl IntoIterator<Item = usize>, requests: u64) {
        for size in sizes {
            self.stats.note_batch(size);
        }
        self.stats.requests += requests;
    }

    /// Runs `c.kind`'s shadow (if staged) over one planned chunk, filling
    /// `shadow_classes` for the per-row agreement fold (left empty when no
    /// shadow is staged). The shadow lane is an evaluation tool, not a
    /// serving path: it re-stages the chunk in the caller's slot and stays
    /// on the orchestrating thread. A shadow inference failure counts as
    /// an error per row and never affects responses.
    fn observe_shadow(&mut self, requests: &[InferRequest], c: ChunkPlan) {
        self.shadow_classes.clear();
        let k = c.kind.index();
        let Some(shadow) = &mut self.shadows[k] else {
            return;
        };
        let ctx = self.slots[0].get_mut().expect("slot ctx poisoned");
        let batch = &mut ctx.batches[k];
        batch.clear();
        for &gi in &self.groups[k][c.rows()] {
            batch.push_row(requests[gi as usize].features());
        }
        if shadow
            .predict_batch_into(batch.as_slice(), batch.rows(), &mut self.shadow_classes)
            .is_err()
        {
            self.shadow_classes.clear();
            self.shadow_stats[k].errors += u64::from(c.len);
        }
    }
}

/// One model kind's lifecycle view of an [`InferenceServer`] — see
/// [`InferenceServer::lifecycle_lane`].
#[derive(Debug)]
pub struct LifecycleLane<'a> {
    server: &'a mut InferenceServer,
    kind: ModelKind,
}

impl kml_lifecycle::LifecycleTarget for LifecycleLane<'_> {
    fn install_artifact(
        &mut self,
        bytes: &[u8],
        generation: u64,
    ) -> std::result::Result<(), kml_lifecycle::ArtifactError> {
        let loaded = kml_lifecycle::load_model_for::<f32>(bytes, self.kind.artifact_kind())?;
        let mut model = loaded.model;
        if self.server.options.q8_serving && !model.q8_enabled() {
            // This lane serves quantized; a candidate without embedded
            // calibration must quantize cleanly or it cannot install.
            model
                .enable_q8()
                .map_err(|e| kml_lifecycle::ArtifactError::Model(e.to_string()))?;
        }
        self.server.cells[self.kind.index()].publish_tagged(model, generation);
        Ok(())
    }

    fn stage_shadow_artifact(
        &mut self,
        bytes: &[u8],
    ) -> std::result::Result<(), kml_lifecycle::ArtifactError> {
        let loaded = kml_lifecycle::load_model_for::<f32>(bytes, self.kind.artifact_kind())?;
        self.server.set_shadow(self.kind, loaded.model);
        Ok(())
    }

    fn clear_shadow(&mut self) {
        self.server.clear_shadow(self.kind);
    }

    fn generation(&self) -> u64 {
        self.server.generation(self.kind)
    }

    fn shadow_stats(&self) -> ShadowStats {
        self.server.shadow_stats(self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the three encoded `FleetModels::untrained(7)` models,
    /// recorded before their topologies came from the trainers' specs.
    #[test]
    fn untrained_models_match_the_parent_commit() {
        let models = FleetModels::untrained(7).unwrap();
        let mut h = kml_platform::bytes::Fnv1a::new();
        for m in [&models.readahead, &models.iosched, &models.netfs] {
            h.update(&kml_core::modelfile::encode(m).unwrap());
        }
        assert_eq!(h.finish(), 0xba1d_d154_e928_9a5f);
    }

    fn req(tenant_id: u64, kind: ModelKind, seed: u64) -> InferRequest {
        let dim = match kind {
            ModelKind::Iosched => 4,
            _ => 5,
        };
        let mut features = [0.0; MAX_FEATURES];
        for (i, f) in features.iter_mut().enumerate().take(dim) {
            *f = ((seed.wrapping_mul(0x9E37_79B9) >> (i * 7)) & 0xFF) as f64 / 16.0;
        }
        InferRequest {
            tenant_id,
            kind,
            features,
            dim,
        }
    }

    fn mixed_requests(n: u64) -> Vec<InferRequest> {
        (0..n)
            .map(|t| {
                let kind = ModelKind::ALL[(t % 3) as usize];
                req(t, kind, t * 31 + 7)
            })
            .collect()
    }

    #[test]
    fn batched_serving_matches_serial_serving_exactly() {
        let requests = mixed_requests(97);
        let mut batched = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                max_batch: 16,
                ..ServeOptions::default()
            },
        );
        let mut serial = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                serial_inference: true,
                ..ServeOptions::default()
            },
        );
        let a = batched.serve(&requests).unwrap();
        let b = serial.serve(&requests).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), requests.len());
        // Batched mode coalesced: far fewer forward passes than windows.
        assert!(batched.stats().forward_passes < serial.stats().forward_passes);
        assert_eq!(serial.stats().forward_passes, 97);
    }

    #[test]
    fn every_request_is_answered_exactly_once_with_its_own_tag() {
        let requests = mixed_requests(41);
        let mut server =
            InferenceServer::new(FleetModels::untrained(3).unwrap(), ServeOptions::default());
        let responses = server.serve(&requests).unwrap();
        assert_eq!(responses.len(), requests.len());
        let mut seen: Vec<u64> = responses.iter().map(|r| r.tenant_id).collect();
        seen.sort_unstable();
        let mut expect: Vec<u64> = requests.iter().map(|r| r.tenant_id).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        for r in &responses {
            let orig = requests
                .iter()
                .find(|q| q.tenant_id == r.tenant_id)
                .unwrap();
            assert_eq!(orig.kind, r.kind, "response routed to the wrong model");
        }
    }

    /// A request whose width is not its model's is refused before it is
    /// staged: the tick returns `ShapeMismatch`, emits nothing, leaves the
    /// stats alone, and the next valid tick still serves.
    #[test]
    fn a_request_of_the_wrong_width_is_an_error_not_a_panic() {
        let requests = mixed_requests(40);
        for options in [
            ServeOptions::default(),
            ServeOptions {
                serial_inference: true,
                ..ServeOptions::default()
            },
            ServeOptions {
                workers: 4,
                max_batch: 8,
                ..ServeOptions::default()
            },
        ] {
            let mut server = InferenceServer::new(FleetModels::untrained(3).unwrap(), options);
            let want = server.serve(&requests).unwrap();
            for dim in [4, 6] {
                let stats = server.stats().clone();
                let mut bad = requests.clone();
                bad[17] = InferRequest {
                    kind: ModelKind::Readahead,
                    dim,
                    ..bad[17]
                };
                let mut responses = vec![want[0]];
                let err = server.serve_into(&bad, &mut responses).unwrap_err();
                assert!(
                    matches!(err, KmlError::ShapeMismatch { op: "serve", lhs: (1, d), rhs: (1, 5) } if d == dim),
                    "{err}"
                );
                assert!(responses.is_empty(), "a failed tick emitted responses");
                assert_eq!(server.stats(), &stats, "a failed tick moved the stats");
                assert_eq!(server.serve(&requests).unwrap(), want);
            }
        }
    }

    #[test]
    fn q8_serving_agrees_with_f32_on_995_per_mille() {
        // The int8 serving tier carries a bounded quantization error; the
        // fleet-level contract is that decisions still agree with the
        // exact f32 path on at least 99.5% of windows (the E10 sweep
        // shape: a large mixed request set across all three models).
        let requests = mixed_requests(4096);
        let mut exact =
            InferenceServer::new(FleetModels::untrained(11).unwrap(), ServeOptions::default());
        let mut q8 = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                q8_serving: true,
                ..ServeOptions::default()
            },
        );
        let a = exact.serve(&requests).unwrap();
        let b = q8.serve(&requests).unwrap();
        assert_eq!(a.len(), b.len());
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        let ratio = agree as f64 / a.len() as f64;
        assert!(
            ratio >= 0.995,
            "q8/f32 decision agreement {ratio:.4} < 0.995 ({agree}/{})",
            a.len()
        );
    }

    #[test]
    fn q8_serving_is_self_consistent_across_batching_modes() {
        // Batched and serial q8 must produce the same decisions: the
        // engine serves row-by-row either way.
        let requests = mixed_requests(257);
        let opts = [
            ServeOptions {
                q8_serving: true,
                max_batch: 16,
                ..ServeOptions::default()
            },
            ServeOptions {
                q8_serving: true,
                serial_inference: true,
                ..ServeOptions::default()
            },
        ];
        let mut outs = Vec::new();
        for o in opts {
            let mut server = InferenceServer::new(FleetModels::untrained(7).unwrap(), o);
            outs.push(server.serve(&requests).unwrap());
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn post_swap_decisions_match_a_fresh_server_with_the_new_model() {
        let requests = mixed_requests(97);
        let mut server =
            InferenceServer::new(FleetModels::untrained(11).unwrap(), ServeOptions::default());
        assert_eq!(server.generation(ModelKind::Readahead), 1);
        let before = server.serve(&requests).unwrap();

        // Hot-swap the readahead model to a different seed's weights.
        let new_gen = server
            .swap_model(
                ModelKind::Readahead,
                FleetModels::untrained(77).unwrap().readahead,
            )
            .unwrap();
        assert_eq!(new_gen, 2);
        assert_eq!(server.generation(ModelKind::Readahead), 2);
        assert_eq!(
            server.generation(ModelKind::Iosched),
            1,
            "other kinds untouched"
        );
        let after = server.serve(&requests).unwrap();

        // Post-swap decisions are exactly what a fresh server built with
        // the swapped-in composition produces.
        let fresh_models = FleetModels {
            readahead: FleetModels::untrained(77).unwrap().readahead,
            iosched: FleetModels::untrained(11).unwrap().iosched,
            netfs: FleetModels::untrained(11).unwrap().netfs,
        };
        let mut fresh = InferenceServer::new(fresh_models, ServeOptions::default());
        let expected = fresh.serve(&requests).unwrap();
        assert_eq!(after, expected);
        // And the swap was real: readahead decisions changed.
        assert_ne!(before, after, "swap produced identical decisions");
        // Non-swapped kinds are untouched.
        for (b, a) in before.iter().zip(&after) {
            if b.kind != ModelKind::Readahead {
                assert_eq!(b, a);
            }
        }
    }

    #[test]
    fn shadow_lane_never_changes_responses_and_accumulates_stats() {
        let requests = mixed_requests(120);
        let mut plain =
            InferenceServer::new(FleetModels::untrained(11).unwrap(), ServeOptions::default());
        let mut shadowed =
            InferenceServer::new(FleetModels::untrained(11).unwrap(), ServeOptions::default());
        shadowed.set_shadow(
            ModelKind::Readahead,
            FleetModels::untrained(42).unwrap().readahead,
        );
        let a = plain.serve(&requests).unwrap();
        let b = shadowed.serve(&requests).unwrap();
        assert_eq!(a, b, "shadow affected served decisions");
        let stats = shadowed.shadow_stats(ModelKind::Readahead);
        assert_eq!(stats.windows, 40, "one comparison per readahead window");
        assert_eq!(stats.errors, 0);
        // Clearing returns the final stats and zeroes the lane.
        let finished = shadowed.clear_shadow(ModelKind::Readahead);
        assert_eq!(finished, stats);
        assert_eq!(
            shadowed.shadow_stats(ModelKind::Readahead),
            ShadowStats::default()
        );
        let c = shadowed.serve(&requests).unwrap();
        assert_eq!(a, c);
        assert_eq!(shadowed.shadow_stats(ModelKind::Readahead).windows, 0);
    }

    #[test]
    fn shadow_agrees_with_itself_and_serial_mode_matches_batched() {
        // A shadow identical to the active model agrees on every window,
        // in both serving modes.
        let requests = mixed_requests(90);
        for serial in [false, true] {
            let mut server = InferenceServer::new(
                FleetModels::untrained(11).unwrap(),
                ServeOptions {
                    serial_inference: serial,
                    ..ServeOptions::default()
                },
            );
            server.set_shadow(
                ModelKind::Iosched,
                FleetModels::untrained(11).unwrap().iosched,
            );
            server.serve(&requests).unwrap();
            let stats = server.shadow_stats(ModelKind::Iosched);
            assert_eq!(stats.windows, 30);
            assert_eq!(
                stats.agreements, 30,
                "identical shadow must agree (serial={serial})"
            );
        }
    }

    #[test]
    fn parallel_fanout_is_bit_identical_to_on_thread_serving() {
        // Same models, same requests, same executor: chunks fanned across
        // pool slots must reproduce the responses AND stats of the same
        // plan run inline on slot 0, at several worker counts and
        // chunkings.
        let requests = mixed_requests(1031);
        for (max_batch, workers) in [(16, 4), (256, 2), (7, 8), (256, 9)] {
            let mut on_thread = InferenceServer::new(
                FleetModels::untrained(11).unwrap(),
                ServeOptions {
                    max_batch,
                    ..ServeOptions::default()
                },
            );
            let mut fanned = InferenceServer::new(
                FleetModels::untrained(11).unwrap(),
                ServeOptions {
                    max_batch,
                    workers,
                    ..ServeOptions::default()
                },
            );
            let a = on_thread.serve(&requests).unwrap();
            let b = fanned.serve(&requests).unwrap();
            assert_eq!(a, b, "max_batch={max_batch} workers={workers}");
            assert_eq!(
                on_thread.stats(),
                fanned.stats(),
                "stats diverged at max_batch={max_batch} workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_fanout_matches_on_thread_serving_exact_and_q8() {
        let requests = mixed_requests(600);
        for q8 in [false, true] {
            let mut reference = InferenceServer::new(
                FleetModels::untrained(7).unwrap(),
                ServeOptions {
                    q8_serving: q8,
                    ..ServeOptions::default()
                },
            );
            let mut fanned = InferenceServer::new(
                FleetModels::untrained(7).unwrap(),
                ServeOptions {
                    q8_serving: q8,
                    workers: 4,
                    max_batch: 64,
                    ..ServeOptions::default()
                },
            );
            // max_batch differs → chunk stats differ, but per-row classes
            // must still agree row-for-row (chunking never changes rows).
            let a = reference.serve(&requests).unwrap();
            let b = fanned.serve(&requests).unwrap();
            assert_eq!(a, b, "q8={q8}");
        }
    }

    #[test]
    fn parallel_fanout_survives_hot_swap_between_ticks() {
        // Slot replicas are generation-keyed: after a swap they must
        // refresh, and decisions must match a fresh server either side.
        let requests = mixed_requests(300);
        let mut fanned = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                workers: 4,
                max_batch: 32,
                ..ServeOptions::default()
            },
        );
        let mut reference = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                max_batch: 32,
                ..ServeOptions::default()
            },
        );
        assert_eq!(
            fanned.serve(&requests).unwrap(),
            reference.serve(&requests).unwrap()
        );
        let swapped = FleetModels::untrained(99).unwrap().iosched;
        let swapped_ref = FleetModels::untrained(99).unwrap().iosched;
        fanned.swap_model(ModelKind::Iosched, swapped).unwrap();
        reference
            .swap_model(ModelKind::Iosched, swapped_ref)
            .unwrap();
        for _ in 0..3 {
            assert_eq!(
                fanned.serve(&requests).unwrap(),
                reference.serve(&requests).unwrap()
            );
        }
    }

    #[test]
    fn parallel_fanout_keeps_shadow_lane_exact() {
        let requests = mixed_requests(240);
        let mut on_thread =
            InferenceServer::new(FleetModels::untrained(11).unwrap(), ServeOptions::default());
        let mut fanned = InferenceServer::new(
            FleetModels::untrained(11).unwrap(),
            ServeOptions {
                workers: 4,
                max_batch: 32,
                ..ServeOptions::default()
            },
        );
        for server in [&mut on_thread, &mut fanned] {
            server.set_shadow(
                ModelKind::Readahead,
                FleetModels::untrained(42).unwrap().readahead,
            );
        }
        let a = on_thread.serve(&requests).unwrap();
        let b = fanned.serve(&requests).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            on_thread.shadow_stats(ModelKind::Readahead),
            fanned.shadow_stats(ModelKind::Readahead)
        );
        assert_eq!(fanned.shadow_stats(ModelKind::Readahead).windows, 80);
    }

    #[test]
    fn serve_into_reuses_the_response_buffer() {
        let requests = mixed_requests(64);
        let mut server =
            InferenceServer::new(FleetModels::untrained(3).unwrap(), ServeOptions::default());
        let mut buf = Vec::new();
        server.serve_into(&requests, &mut buf).unwrap();
        let first: Vec<InferResponse> = buf.clone();
        let cap = buf.capacity();
        server.serve_into(&requests, &mut buf).unwrap();
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap, "steady-state serve_into reallocated");
    }

    #[test]
    fn batch_size_distribution_reflects_chunking() {
        // 10 readahead requests at max_batch 4 → batches of 4, 4, 2.
        let requests: Vec<InferRequest> = (0..10)
            .map(|t| req(t, ModelKind::Readahead, t + 1))
            .collect();
        let mut server = InferenceServer::new(
            FleetModels::untrained(9).unwrap(),
            ServeOptions {
                max_batch: 4,
                ..ServeOptions::default()
            },
        );
        server.serve(&requests).unwrap();
        let sizes = &server.stats().batch_sizes;
        assert_eq!(sizes.get(&4), Some(&2));
        assert_eq!(sizes.get(&2), Some(&1));
        assert_eq!(server.stats().forward_passes, 3);
    }
}
