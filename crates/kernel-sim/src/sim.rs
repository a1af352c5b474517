//! The assembled storage-stack simulator.
//!
//! [`Sim`] wires the page cache, readahead state machines, block device, and
//! tracepoints into the closed loop of the paper's Figure 1: workloads call
//! [`Sim::read`]/[`Sim::write`]; misses run the readahead heuristic and
//! charge device time; inserted pages fire `add_to_page_cache`; dirty
//! pages written back fire `writeback_dirty_page`; and the KML application
//! retunes [`Sim::set_ra_kb`] based on what it observes — which changes
//! every subsequent cost.
//!
//! Time is a simulated nanosecond clock advanced by each operation, so
//! throughput = ops / simulated seconds is deterministic.

use crate::cache::{CacheStats, Inserted, PageCache, PageKey, Victim};
use crate::device::{BlockDevice, DeviceProfile, DeviceStats};
use crate::fault::{FaultPlan, FaultStats, IoResult};
use crate::ra_kb_to_pages;
use crate::readahead::{RaAction, RaState};
use crate::trace::{TraceKind, TraceRecord, TraceSink};
use kml_collect::ringbuf::Producer;
use kml_telemetry::{Counter, Gauge, Histogram, Registry};

/// Telemetry handles for one simulator instance. Each [`Sim`] owns its own
/// set (default no-op) so parallel sims in tests never share counters;
/// [`Sim::attach_telemetry`] binds them to a caller-provided registry.
#[derive(Debug)]
struct SimTelemetry {
    registry: Registry,
    cache_hits: Counter,
    cache_misses: Counter,
    read_latency_ns: Histogram,
    write_latency_ns: Histogram,
    read_request_bytes: Histogram,
    write_request_bytes: Histogram,
    dirty_pages: Gauge,
}

impl SimTelemetry {
    fn noop() -> Self {
        SimTelemetry {
            registry: Registry::noop(),
            cache_hits: Counter::noop(),
            cache_misses: Counter::noop(),
            read_latency_ns: Histogram::noop(),
            write_latency_ns: Histogram::noop(),
            read_request_bytes: Histogram::noop(),
            write_request_bytes: Histogram::noop(),
            dirty_pages: Gauge::noop(),
        }
    }

    fn bind(registry: &Registry) -> Self {
        SimTelemetry {
            registry: registry.clone(),
            cache_hits: registry.counter("sim.cache.hit_total"),
            cache_misses: registry.counter("sim.cache.miss_total"),
            read_latency_ns: registry.histogram("sim.device.read_latency_ns"),
            write_latency_ns: registry.histogram("sim.device.write_latency_ns"),
            read_request_bytes: registry.histogram("sim.device.read_request_bytes"),
            write_request_bytes: registry.histogram("sim.device.write_request_bytes"),
            dirty_pages: registry.gauge("sim.cache.dirty_pages"),
        }
    }
}

/// Handle to a simulated file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(usize);

/// `posix_fadvise`/`madvise`-style access hints (see [`Sim::fadvise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential access: double the readahead window.
    Sequential,
    /// Expect random access: disable readahead (one page).
    Random,
    /// No special pattern: restore the default window.
    Normal,
    /// Prefetch this range now.
    WillNeed {
        /// First page of the range.
        page: u64,
        /// Pages in the range.
        npages: u64,
    },
    /// Drop this range from the cache (flushing dirty pages).
    DontNeed {
        /// First page of the range.
        page: u64,
        /// Pages in the range.
        npages: u64,
    },
}

#[derive(Debug)]
struct FileState {
    inode: u64,
    pages: u64,
    ra: RaState,
}

/// Configuration of a simulation instance.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Block-device timing model.
    pub device: DeviceProfile,
    /// Page-cache capacity in 4 KiB pages.
    pub cache_pages: usize,
    /// Default per-file readahead in KiB (Linux ships 128).
    pub default_ra_kb: u32,
    /// Cost of serving one page from the cache, ns.
    pub cache_hit_ns: u64,
    /// Dirty fraction of the cache that triggers writeback.
    pub dirty_threshold: f64,
    /// Pages flushed per writeback round.
    pub writeback_batch: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 16_384, // 64 MiB
            default_ra_kb: 128,
            cache_hit_ns: 400,
            dirty_threshold: 0.25,
            writeback_batch: 64,
        }
    }
}

impl SimConfig {
    /// Dirty pages the cache may hold before a write kicks the flusher.
    fn dirty_limit(&self) -> usize {
        (self.dirty_threshold * self.cache_pages as f64) as usize
    }

    /// Most tracepoint records one fault-free [`Sim::read`] or
    /// [`Sim::write`] can emit, on a file whose every request has been at
    /// most `op_pages` pages and whose readahead cap has never exceeded
    /// `max_ra_kb` (the file's initial `default_ra_kb` is counted in). A
    /// trace ring of this capacity that is drained after every operation
    /// never overwrites a record; `writes` says whether the file is ever
    /// written (dirty pages add `writeback_dirty_page` records).
    ///
    /// With `R` the cap in pages, `n = op_pages` and `W = max(R, n)`:
    ///
    /// - Every page of a request runs the heuristic once — one fetch of at
    ///   most `W` pages — plus at most one safety-net page, so
    ///   `n · (W + 1)` inserts always holds.
    /// - When the cache holds a whole window (`cache_pages ≥ W`) a request
    ///   is marker hits, then misses, never the reverse: a sync fetch
    ///   leaves its marker at or beyond the request's end. Markers chain
    ///   inside one request only through windows too short to leave it, so
    ///   the async fetches insert at most `R + 4n` pages; every sync fetch
    ///   lies inside one span of `W + n − 1` pages starting at the first
    ///   miss, and no fetch needs the safety net. That is `2W + 5n` inserts
    ///   as long as no page is fetched twice, which is certain once
    ///   `cache_pages ≥ W + n − 1`. When the cap is the whole cache a
    ///   request's own prefetch can evict the pages it reads next (the
    ///   worst case seen is `2R − 1`: a full async window, then the sync
    ///   fetch that brings the evicted run back); `tests/trace_burst.rs`
    ///   holds the bound there by search, not by proof.
    /// - Each insert evicts at most one page. Between requests at most
    ///   `dirty_threshold · cache_pages` pages are dirty (a write of no
    ///   more than `writeback_batch` pages flushes back under the
    ///   threshold), so a read adds at most that many writebacks; a write
    ///   inserts `n` pages, evicts `n`, and flushes one batch.
    pub fn max_trace_records_per_op(&self, max_ra_kb: u32, op_pages: u64, writes: bool) -> usize {
        let n = op_pages.max(1) as usize;
        let cap = ra_kb_to_pages(max_ra_kb.max(self.default_ra_kb)) as usize;
        let window = cap.max(n);
        let mut inserts = n * (window + 1);
        if self.cache_pages >= window {
            inserts = inserts.min(2 * window + 5 * n);
        }
        if !writes {
            return inserts;
        }
        let dirty = if n <= self.writeback_batch {
            self.dirty_limit().min(self.cache_pages)
        } else {
            self.cache_pages
        };
        let read = inserts + inserts.min(dirty);
        let write = 2 * n + self.writeback_batch.min(dirty + n);
        read.max(write)
    }
}

/// Aggregated statistics of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Page-cache counters.
    pub cache: CacheStats,
    /// Device counters.
    pub device: DeviceStats,
    /// Logical read requests served.
    pub logical_reads: u64,
    /// Logical write requests served.
    pub logical_writes: u64,
}

/// The simulated storage stack.
#[derive(Debug)]
pub struct Sim {
    cfg: SimConfig,
    clock_ns: u64,
    cache: PageCache,
    device: BlockDevice,
    files: Vec<FileState>,
    trace: TraceSink,
    next_inode: u64,
    logical_reads: u64,
    logical_writes: u64,
    telemetry: SimTelemetry,
    /// Logical operations left before a cache-pressure squeeze lifts
    /// (0 = not squeezed).
    squeeze_remaining: u64,
    /// Dirty pages the current operation is flushing, in flush order. This
    /// and `sorted` are kept between operations so that steady-state reads
    /// and writes allocate nothing.
    flushed: Vec<PageKey>,
    /// `flushed` in device order, for merging into requests.
    sorted: Vec<PageKey>,
}

impl Sim {
    /// Creates a simulator from the configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            cfg,
            clock_ns: 0,
            cache: PageCache::new(cfg.cache_pages),
            device: BlockDevice::new(cfg.device),
            files: Vec::new(),
            trace: TraceSink::disabled(),
            next_inode: 1,
            logical_reads: 0,
            logical_writes: 0,
            telemetry: SimTelemetry::noop(),
            squeeze_remaining: 0,
            flushed: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Attaches (or with `None`, detaches) a seeded fault schedule. Device
    /// requests then may fail, tear, spike, or stall, and logical operations
    /// may squeeze the page cache. Detaching also lifts any active squeeze.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        if plan.is_none() && self.squeeze_remaining > 0 {
            self.squeeze_remaining = 0;
            self.cache.set_capacity(self.cfg.cache_pages);
        }
        self.device.set_fault_plan(plan);
    }

    /// Counters of faults injected so far (zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.device.fault_stats()
    }

    /// Pages currently resident in the cache (DST invariant checks).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Dirty pages currently resident (DST invariant checks).
    pub fn cache_dirty(&self) -> usize {
        self.cache.dirty_count()
    }

    /// Current cache capacity — the configured size, or less during a
    /// fault-injected squeeze (DST invariant checks).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Attaches a KML ring-buffer producer that will receive tracepoint
    /// records (the paper's data-collection hooks).
    pub fn attach_trace(&mut self, producer: Producer<TraceRecord>) {
        self.trace = TraceSink::new(producer);
    }

    /// Tracepoint records emitted into the attached ring so far (0 when no
    /// ring is attached). With a drained consumer this must reconcile
    /// exactly: emitted = consumed + dropped.
    pub fn trace_emitted(&self) -> u64 {
        self.trace.emitted()
    }

    /// Binds this simulator's metrics (`sim.cache.*`, `sim.device.*`) to a
    /// telemetry registry. Until called, all recording is no-op.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = SimTelemetry::bind(registry);
    }

    /// The registry this simulator records into (a no-op registry until
    /// [`Sim::attach_telemetry`] is called). Components layered on top of
    /// the sim register their own metrics here so one run shares one scope.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Creates a file of `pages` 4 KiB pages; returns its handle.
    pub fn create_file(&mut self, pages: u64) -> FileId {
        let inode = self.next_inode;
        self.next_inode += 1;
        self.files.push(FileState {
            inode,
            pages,
            ra: RaState::new(ra_kb_to_pages(self.cfg.default_ra_kb)),
        });
        FileId(self.files.len() - 1)
    }

    /// Size of a file in pages.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn file_pages(&self, f: FileId) -> u64 {
        self.files[f.0].pages
    }

    /// Inode number of a file (matches tracepoint records).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn file_inode(&self, f: FileId) -> u64 {
        self.files[f.0].inode
    }

    /// Current simulated time, ns since start.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the clock by pure compute time (workload think time).
    pub fn advance(&mut self, ns: u64) {
        self.clock_ns += ns;
    }

    /// Sets one file's readahead limit in KiB (`ra_pages` in struct file).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn set_file_ra_kb(&mut self, f: FileId, kb: u32) {
        self.files[f.0].ra.set_ra_pages(ra_kb_to_pages(kb));
    }

    /// Sets every file's readahead limit (the block-device ioctl analogue).
    pub fn set_ra_kb(&mut self, kb: u32) {
        let pages = ra_kb_to_pages(kb);
        for file in &mut self.files {
            file.ra.set_ra_pages(pages);
        }
    }

    /// Current readahead limit of a file, in KiB.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn file_ra_kb(&self, f: FileId) -> u32 {
        (self.files[f.0].ra.ra_pages() * crate::PAGE_SIZE / 1024) as u32
    }

    /// Applies a `posix_fadvise`/`madvise`-style hint to a file — the manual
    /// tuning interface the paper's KML replaces ("hints that users can
    /// provide through system calls such as fadvise and madvise"):
    ///
    /// - [`Advice::Sequential`] doubles the file's readahead limit (as
    ///   `POSIX_FADV_SEQUENTIAL` does in Linux).
    /// - [`Advice::Random`] collapses it to a single page (readahead off).
    /// - [`Advice::Normal`] restores the device default.
    /// - [`Advice::WillNeed`] prefetches the given range immediately.
    /// - [`Advice::DontNeed`] drops the range's clean pages from the cache.
    ///
    /// Returns the cost in ns (nonzero only for `WillNeed`/`DontNeed`), or
    /// the [`crate::IoError`] if an injected fault failed the prefetch or
    /// the dirty flush (the clock still advances by the time consumed).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn fadvise(&mut self, f: FileId, advice: Advice) -> IoResult<u64> {
        let mut cost = 0;
        let res = self.fadvise_inner(f, advice, &mut cost);
        self.clock_ns += cost;
        res.map(|()| cost)
    }

    fn fadvise_inner(&mut self, f: FileId, advice: Advice, cost: &mut u64) -> IoResult<()> {
        let default_pages = ra_kb_to_pages(self.cfg.default_ra_kb);
        match advice {
            Advice::Sequential => {
                let cur = self.files[f.0].ra.ra_pages();
                self.files[f.0].ra.set_ra_pages(cur * 2);
            }
            Advice::Random => self.files[f.0].ra.set_ra_pages(1),
            Advice::Normal => self.files[f.0].ra.set_ra_pages(default_pages),
            Advice::WillNeed { page, npages } => {
                let end = (page + npages).min(self.files[f.0].pages);
                if end > page {
                    self.fetch(f, page, end - page, u64::MAX, cost)?;
                }
            }
            Advice::DontNeed { page, npages } => {
                let inode = self.files[f.0].inode;
                let end = (page + npages).min(self.files[f.0].pages);
                // Forget the range, then flush the pages that were dirty.
                self.flushed.clear();
                for p in page..end {
                    if self.cache.forget((inode, p)) {
                        self.flushed.push((inode, p));
                    }
                }
                self.charge_flushed(cost)?;
                self.emit_flushed();
            }
        }
        Ok(())
    }

    /// Reads `npages` starting at `page`; returns the operation's cost in ns
    /// (the clock advances by the same amount). Reads past EOF are clamped.
    ///
    /// With a fault plan attached the read may fail with [`crate::IoError`];
    /// the clock still advances by the time the failed attempt consumed, and
    /// pages fetched before the failure stay cached. Without a plan the call
    /// never fails.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn read(&mut self, f: FileId, page: u64, npages: u64) -> IoResult<u64> {
        let mut cost = 0;
        let res = self.read_inner(f, page, npages, &mut cost);
        self.clock_ns += cost;
        res.map(|()| cost)
    }

    fn read_inner(&mut self, f: FileId, page: u64, npages: u64, cost: &mut u64) -> IoResult<()> {
        self.logical_reads += 1;
        self.apply_pressure(cost)?;
        let (inode, file_pages) = (self.files[f.0].inode, self.files[f.0].pages);
        let end = (page + npages).min(file_pages);
        let mut p = page;
        while p < end {
            // The resident pages before the marker are hits the heuristic
            // answers with nothing: one run touches them all.
            let quiet = self.files[f.0].ra.quiet_until(p, end);
            let hits = self.cache.touch_run(inode, p..quiet);
            if hits > 0 {
                self.telemetry.cache_hits.add(hits);
                *cost += hits * self.cfg.cache_hit_ns;
                self.files[f.0].ra.quiet_hits(p + hits - 1);
                p += hits;
                if p == end {
                    break;
                }
            }
            // `p` is the marker, or the page the run missed on and counted.
            let cached = p == quiet && self.cache.touch((inode, p));
            if cached {
                self.telemetry.cache_hits.inc();
            } else {
                self.telemetry.cache_misses.inc();
            }
            let action = self.files[f.0].ra.on_access(p, npages, cached, file_pages);
            let fetched = match action {
                RaAction::None => false,
                RaAction::Sync { start, len } | RaAction::Async { start, len } => {
                    self.fetch(f, start, len, p, cost)?
                }
            };
            // Safety net: if readahead declined (EOF edge) the page still
            // needs a single-page demand fetch.
            if !cached && !fetched {
                self.fetch(f, p, 1, p, cost)?;
            }
            *cost += self.cfg.cache_hit_ns;
            p += 1;
        }
        Ok(())
    }

    /// A page-fault-driven access, as an `mmap`ed file generates (paper §5:
    /// KML "also intercepts mmap-based file accesses"): the fault touches
    /// exactly one page, so the readahead heuristic sees `req_len == 1`
    /// regardless of how much the application will eventually read.
    /// Returns the fault's cost in ns (or the injected I/O error).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn mmap_read(&mut self, f: FileId, page: u64) -> IoResult<u64> {
        self.read(f, page, 1)
    }

    /// Writes `npages` starting at `page` (full-page buffered writes:
    /// no read-modify-write); returns the cost in ns. May trigger
    /// threshold writeback.
    ///
    /// With a fault plan attached the operation may fail with
    /// [`crate::IoError`] when an eviction or threshold writeback hits an
    /// injected device error. Written pages stay dirty in the cache; pages
    /// whose threshold writeback failed are re-marked dirty, so no resident
    /// data is silently lost (the analogue of `AS_EIO` + redirty in Linux).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a handle from this simulator.
    pub fn write(&mut self, f: FileId, page: u64, npages: u64) -> IoResult<u64> {
        let mut cost = 0;
        let res = self.write_inner(f, page, npages, &mut cost);
        self.telemetry
            .dirty_pages
            .set(self.cache.dirty_count() as u64);
        self.clock_ns += cost;
        res.map(|()| cost)
    }

    fn write_inner(&mut self, f: FileId, page: u64, npages: u64, cost: &mut u64) -> IoResult<()> {
        self.logical_writes += 1;
        self.apply_pressure(cost)?;
        let inode = self.files[f.0].inode;
        let file_pages = self.files[f.0].pages;
        let end = (page + npages).min(file_pages);
        for p in page..end {
            // Promotes an existing page, evicts for a new one. The logical
            // write itself always lands in the cache; only the eviction
            // flush can fail, after the new page is accounted for.
            let inserted = self.cache.insert_dirty((inode, p));
            if inserted != Inserted::Promoted {
                self.emit(TraceKind::AddToPageCache, inode, p);
            }
            self.flush_victim(inserted.victim(), cost)?;
            *cost += self.cfg.cache_hit_ns;
        }
        // Threshold writeback, like the flusher threads kicking in.
        if self.cache.dirty_count() > self.cfg.dirty_limit() {
            self.writeback(self.cfg.writeback_batch, cost)?;
            self.emit_flushed();
        }
        Ok(())
    }

    /// Flushes every dirty page to the device (`fsync`-ish; SSTable builds
    /// call this so table data reaches the device before being read back).
    ///
    /// On an injected write error the un-flushed pages are re-marked dirty
    /// and the error is returned — like `fsync` reporting `EIO` with the
    /// data still pending.
    pub fn sync(&mut self) -> IoResult<()> {
        let mut cost = 0;
        let res = self.writeback(usize::MAX, &mut cost);
        if res.is_ok() {
            self.emit_flushed();
        }
        self.telemetry
            .dirty_pages
            .set(self.cache.dirty_count() as u64);
        self.clock_ns += cost;
        res
    }

    /// Drops the whole page cache (the paper clears caches between runs).
    /// Dirty pages are flushed first (`sync; echo 3 > drop_caches`).
    ///
    /// If the flush hits an injected write error the cache is NOT cleared
    /// (the dirty pages are re-marked and kept) and the error is returned.
    pub fn drop_caches(&mut self) -> IoResult<()> {
        let mut cost = 0;
        let res = self.writeback(usize::MAX, &mut cost);
        self.clock_ns += cost;
        if res.is_ok() {
            self.cache.clear();
        }
        self.telemetry
            .dirty_pages
            .set(self.cache.dirty_count() as u64);
        res
    }

    /// Aggregated statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cache: self.cache.stats(),
            device: self.device.stats(),
            logical_reads: self.logical_reads,
            logical_writes: self.logical_writes,
        }
    }

    /// Resets statistics (not contents, not the clock).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
        self.device.reset();
        self.logical_reads = 0;
        self.logical_writes = 0;
    }

    /// Consults the fault schedule for cache-pressure squeezes; called once
    /// per logical operation. No-op without an attached plan.
    fn apply_pressure(&mut self, cost: &mut u64) -> IoResult<()> {
        if self.squeeze_remaining > 0 {
            self.squeeze_remaining -= 1;
            if self.squeeze_remaining == 0 {
                // Pressure lifted: the cache may fill back up.
                self.cache.set_capacity(self.cfg.cache_pages);
            }
            return Ok(());
        }
        let Some(sq) = self.device.fault_plan_mut().and_then(|p| p.on_logical_op()) else {
            return Ok(());
        };
        let cap = ((self.cfg.cache_pages as f64 * sq.frac) as usize).max(1);
        let evicted = self.cache.set_capacity(cap);
        self.squeeze_remaining = sq.ops;
        self.flushed.clear();
        let dirty = evicted.iter().filter(|(_, dirty)| *dirty);
        self.flushed.extend(dirty.map(|(key, _)| *key));
        self.charge_flushed(cost)?;
        self.emit_flushed();
        Ok(())
    }

    /// Fetches the uncached pages of `[start, start+len)` from the device,
    /// inserting them into the cache. `demand` is the page the application
    /// actually asked for (inserted non-speculative). On an injected fault
    /// the pages of already-completed runs stay cached and `cost` holds the
    /// time consumed so far (including the failed attempt).
    ///
    /// Returns whether this call brought `demand` in and it is still
    /// resident (a window larger than the cache can push it out again).
    fn fetch(
        &mut self,
        f: FileId,
        start: u64,
        len: u64,
        demand: u64,
        cost: &mut u64,
    ) -> IoResult<bool> {
        let inode = self.files[f.0].inode;
        let end = (start + len).min(self.files[f.0].pages);
        let time_ns = self.clock_ns;
        let mut demand_resident = false;
        let mut p = start;
        while p < end {
            // Uncached pages group into contiguous runs: each run is one
            // device request (bigger readahead ⇒ fewer, larger requests).
            let run_start = p;
            while p < end && !self.cache.contains((inode, p)) {
                p += 1;
            }
            let run_len = p - run_start;
            if run_len > 0 {
                let service_ns = match self.device.read(inode, run_start, run_len) {
                    Ok(ns) => ns,
                    Err(e) => {
                        *cost += e.ns;
                        return Err(e);
                    }
                };
                self.telemetry.read_latency_ns.record(service_ns);
                self.telemetry
                    .read_request_bytes
                    .record(run_len * crate::PAGE_SIZE);
                *cost += service_ns;
                // The run enters the cache in one pass: evict, fill, flush
                // the dirty victim and fire both tracepoints per page.
                self.cache.admit_run(
                    inode,
                    run_start..p,
                    Some(demand),
                    false,
                    |q, old, flush| {
                        if q == demand {
                            demand_resident = true;
                        } else if old == (inode, demand) {
                            demand_resident = false;
                        }
                        if flush {
                            charge_write(&mut self.device, &self.telemetry, old, 1, cost)?;
                            self.trace.emit(TraceKind::WritebackDirtyPage, old, time_ns);
                        }
                        self.trace
                            .emit(TraceKind::AddToPageCache, (inode, q), time_ns);
                        Ok(())
                    },
                )?;
            }
            // `p` is `end`, or was resident when the scan reached it; the
            // run's evictions do not send the scan back to it.
            p += 1;
        }
        Ok(demand_resident)
    }

    /// Writes a dirty eviction victim back to the device. On an injected
    /// write error the victim is already evicted — the loss is *reported*
    /// through the error, never silent.
    fn flush_victim(&mut self, victim: Option<Victim>, cost: &mut u64) -> IoResult<()> {
        if let Some((key, true)) = victim {
            charge_write(&mut self.device, &self.telemetry, key, 1, cost)?;
            self.emit(TraceKind::WritebackDirtyPage, key.0, key.1);
        }
        Ok(())
    }

    /// Flushes up to `max` dirty pages, least recently used first, into
    /// `self.flushed`. On an injected write error the whole batch is
    /// conservatively re-dirtied, so nothing resident is silently dropped;
    /// it will be retried.
    fn writeback(&mut self, max: usize, cost: &mut u64) -> IoResult<()> {
        self.flushed.clear();
        self.cache.writeback(max, &mut self.flushed);
        let res = self.charge_flushed(cost);
        if res.is_err() {
            // Most recent first: each page then finds its place in the
            // dirty order right behind the one re-dirtied before it.
            for &key in self.flushed.iter().rev() {
                self.cache.mark_dirty(key);
            }
        }
        res
    }

    /// Charges device write time for the pages in `self.flushed`, merging
    /// contiguous same-inode pages into single requests. Stops at the first
    /// failed request; `cost` accumulates time consumed by completed
    /// requests and the failed attempt.
    fn charge_flushed(&mut self, cost: &mut u64) -> IoResult<()> {
        if self.flushed.is_empty() {
            return Ok(());
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.flushed);
        self.sorted.sort_unstable();
        let (device, telemetry) = (&mut self.device, &self.telemetry);
        let (mut run_inode, mut run_start) = self.sorted[0];
        let mut run_len = 1;
        for i in 1..self.sorted.len() {
            let (ino, p) = self.sorted[i];
            if ino == run_inode && p == run_start + run_len {
                run_len += 1;
            } else {
                charge_write(device, telemetry, (run_inode, run_start), run_len, cost)?;
                run_inode = ino;
                run_start = p;
                run_len = 1;
            }
        }
        charge_write(device, telemetry, (run_inode, run_start), run_len, cost)
    }

    /// Fires `writeback_dirty_page` for every page in `self.flushed`.
    fn emit_flushed(&mut self) {
        for i in 0..self.flushed.len() {
            let (inode, page) = self.flushed[i];
            self.emit(TraceKind::WritebackDirtyPage, inode, page);
        }
    }

    fn emit(&mut self, kind: TraceKind, inode: u64, page_offset: u64) {
        self.trace.emit(kind, (inode, page_offset), self.clock_ns);
    }
}

/// One merged device write request, recorded in telemetry.
fn charge_write(
    device: &mut BlockDevice,
    telemetry: &SimTelemetry,
    (inode, start): PageKey,
    npages: u64,
    cost: &mut u64,
) -> IoResult<()> {
    match device.write(inode, start, npages) {
        Ok(service_ns) => {
            telemetry.write_latency_ns.record(service_ns);
            telemetry
                .write_request_bytes
                .record(npages * crate::PAGE_SIZE);
            *cost += service_ns;
            Ok(())
        }
        Err(e) => {
            *cost += e.ns;
            Err(e)
        }
    }
}

#[cfg(test)]
mod parity;

#[cfg(test)]
mod tests {
    use super::*;
    use kml_collect::RingBuffer;

    fn small_sim(device: DeviceProfile) -> Sim {
        Sim::new(SimConfig {
            device,
            cache_pages: 256,
            ..SimConfig::default()
        })
    }

    #[test]
    fn warm_reads_cost_cache_hits_only() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let f = sim.create_file(128);
        sim.read(f, 0, 64).unwrap();
        let warm = sim.read(f, 0, 64).unwrap();
        assert_eq!(warm, 64 * sim.cfg.cache_hit_ns);
    }

    #[test]
    fn sequential_read_batches_device_requests() {
        let mut sim = small_sim(DeviceProfile::sata_ssd());
        let f = sim.create_file(4096);
        for chunk in 0..32 {
            sim.read(f, chunk * 8, 8).unwrap(); // a 32 KiB-block sequential scan
        }
        let stats = sim.stats();
        // 256 pages read but far fewer device requests thanks to readahead.
        assert!(stats.device.pages_read >= 256);
        assert!(
            stats.device.read_requests < 32,
            "requests: {}",
            stats.device.read_requests
        );
    }

    #[test]
    fn larger_readahead_speeds_sequential_scans() {
        let mut costs = Vec::new();
        for ra in [8u32, 128, 1024] {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::sata_ssd(),
                cache_pages: 8192,
                default_ra_kb: ra,
                ..SimConfig::default()
            });
            let f = sim.create_file(4096);
            let mut cost = 0;
            for page in 0..4096 {
                cost += sim.read(f, page, 1).unwrap();
            }
            costs.push(cost);
        }
        assert!(
            costs[0] > costs[1] && costs[1] > costs[2],
            "sequential scan costs should fall with readahead: {costs:?}"
        );
    }

    #[test]
    fn smaller_readahead_speeds_random_block_reads() {
        let mut costs = Vec::new();
        for ra in [16u32, 128, 1024] {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::sata_ssd(),
                cache_pages: 1024,
                default_ra_kb: ra,
                ..SimConfig::default()
            });
            let f = sim.create_file(1 << 20); // 4 GiB: cache can't help
            let mut cost = 0;
            let mut x = 12345u64;
            for _ in 0..500 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let block = (x >> 20) % ((1 << 20) / 4);
                cost += sim.read(f, block * 4, 4).unwrap(); // 16 KiB block read
            }
            costs.push(cost);
        }
        assert!(
            costs[0] < costs[1] && costs[1] < costs[2],
            "random block reads should slow down with readahead: {costs:?}"
        );
    }

    #[test]
    fn wasted_prefetch_visible_under_oversized_readahead() {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 512,
            default_ra_kb: 1024,
            ..SimConfig::default()
        });
        let f = sim.create_file(1 << 18);
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.read(f, (x >> 16) % (1 << 18), 1).unwrap();
        }
        assert!(
            sim.stats().cache.wasted_prefetch > 1000,
            "wasted: {}",
            sim.stats().cache.wasted_prefetch
        );
    }

    #[test]
    fn writes_dirty_pages_and_threshold_writeback_fires() {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 64,
            dirty_threshold: 0.25,
            writeback_batch: 8,
            ..SimConfig::default()
        });
        let f = sim.create_file(4096);
        for p in 0..40 {
            sim.write(f, p, 1).unwrap();
        }
        let stats = sim.stats();
        assert!(stats.cache.writebacks > 0, "no writeback happened");
        assert!(stats.device.pages_written > 0);
    }

    #[test]
    fn dirty_eviction_charges_device_write() {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 16,
            dirty_threshold: 0.99, // keep threshold writeback out of the way
            ..SimConfig::default()
        });
        let f = sim.create_file(4096);
        for p in 0..16 {
            sim.write(f, p, 1).unwrap();
        }
        // Reading far away evicts the dirty pages.
        sim.read(f, 2000, 16).unwrap();
        assert!(sim.stats().device.pages_written > 0);
    }

    #[test]
    fn drop_caches_forces_cold_reads() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let f = sim.create_file(64);
        sim.read(f, 0, 32).unwrap();
        sim.drop_caches().unwrap();
        let before = sim.stats().device.pages_read;
        sim.read(f, 0, 32).unwrap();
        assert!(sim.stats().device.pages_read > before);
    }

    #[test]
    fn tracepoints_record_inode_offset_time() {
        let (p, mut c) = RingBuffer::with_capacity(4096).split();
        let mut sim = small_sim(DeviceProfile::nvme());
        sim.attach_trace(p);
        let f = sim.create_file(128);
        let inode = sim.file_inode(f);
        sim.read(f, 0, 8).unwrap();
        sim.write(f, 100, 1).unwrap();
        let records: Vec<TraceRecord> = c.drain().collect();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.inode == inode));
        assert!(records.iter().any(|r| r.kind == TraceKind::AddToPageCache));
        // Timestamps are monotone non-decreasing.
        assert!(records.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
    }

    #[test]
    fn set_ra_kb_changes_file_limits() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let a = sim.create_file(64);
        let b = sim.create_file(64);
        sim.set_file_ra_kb(a, 8);
        assert_eq!(sim.file_ra_kb(a), 8);
        assert_eq!(sim.file_ra_kb(b), 128);
        sim.set_ra_kb(512);
        assert_eq!(sim.file_ra_kb(a), 512);
        assert_eq!(sim.file_ra_kb(b), 512);
    }

    #[test]
    fn reads_past_eof_are_clamped() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let f = sim.create_file(10);
        let cost = sim.read(f, 8, 10).unwrap(); // only pages 8, 9 exist
        assert!(cost > 0);
        let stats = sim.stats();
        assert!(stats.device.pages_read <= 10);
    }

    #[test]
    fn clock_advances_with_every_operation() {
        let mut sim = small_sim(DeviceProfile::sata_ssd());
        let f = sim.create_file(128);
        let t0 = sim.now_ns();
        sim.read(f, 0, 8).unwrap();
        let t1 = sim.now_ns();
        assert!(t1 > t0);
        sim.advance(1_000_000);
        assert_eq!(sim.now_ns(), t1 + 1_000_000);
    }

    #[test]
    fn mmap_faults_drive_readahead_like_single_page_reads() {
        let mut sim = small_sim(DeviceProfile::sata_ssd());
        let f = sim.create_file(4096);
        // Sequential faulting builds a readahead stream: far fewer device
        // requests than pages touched.
        for p in 0..512 {
            sim.mmap_read(f, p).unwrap();
        }
        let stats = sim.stats();
        assert!(stats.device.pages_read >= 512);
        assert!(
            stats.device.read_requests < 64,
            "requests: {}",
            stats.device.read_requests
        );
        // Faults fire tracepoints like any other access path.
        assert!(stats.cache.insertions >= 512);
    }

    #[test]
    fn fadvise_sequential_and_random_retune_windows() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let f = sim.create_file(1 << 16);
        assert_eq!(sim.file_ra_kb(f), 128);
        sim.fadvise(f, Advice::Sequential).unwrap();
        assert_eq!(sim.file_ra_kb(f), 256);
        sim.fadvise(f, Advice::Random).unwrap();
        assert_eq!(sim.file_ra_kb(f), 4); // one page
        sim.fadvise(f, Advice::Normal).unwrap();
        assert_eq!(sim.file_ra_kb(f), 128);
    }

    #[test]
    fn fadvise_willneed_prefetches_range() {
        let mut sim = small_sim(DeviceProfile::sata_ssd());
        let f = sim.create_file(256);
        let cost = sim
            .fadvise(
                f,
                Advice::WillNeed {
                    page: 0,
                    npages: 64,
                },
            )
            .unwrap();
        assert!(cost > 0);
        // A subsequent read is all cache hits.
        let warm = sim.read(f, 0, 64).unwrap();
        assert_eq!(warm, 64 * sim.cfg.cache_hit_ns);
    }

    #[test]
    fn fadvise_dontneed_drops_and_flushes() {
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 256,
            dirty_threshold: 0.99,
            ..SimConfig::default()
        });
        let f = sim.create_file(256);
        sim.read(f, 0, 16).unwrap();
        sim.write(f, 0, 4).unwrap(); // dirty the head of the range
        let before_writes = sim.stats().device.pages_written;
        let cost = sim
            .fadvise(
                f,
                Advice::DontNeed {
                    page: 0,
                    npages: 16,
                },
            )
            .unwrap();
        assert!(cost > 0, "dirty flush must cost device time");
        assert!(sim.stats().device.pages_written > before_writes);
        // The range is cold again.
        let before_reads = sim.stats().device.pages_read;
        sim.read(f, 0, 4).unwrap();
        assert!(sim.stats().device.pages_read > before_reads);
    }

    #[test]
    fn telemetry_mirrors_sim_stats() {
        let reg = Registry::new();
        let mut sim = small_sim(DeviceProfile::sata_ssd());
        sim.attach_telemetry(&reg);
        let f = sim.create_file(512);
        sim.read(f, 0, 64).unwrap(); // cold
        sim.read(f, 0, 64).unwrap(); // warm: pure hits
        sim.write(f, 100, 8).unwrap();
        sim.sync().unwrap();
        let stats = sim.stats();
        if reg.is_enabled() {
            let snap = reg.snapshot();
            assert_eq!(snap.counter("sim.cache.hit_total"), Some(stats.cache.hits));
            assert_eq!(
                snap.counter("sim.cache.miss_total"),
                Some(stats.cache.misses)
            );
            let rd = snap.histogram("sim.device.read_latency_ns").unwrap();
            assert_eq!(rd.count, stats.device.read_requests);
            let wr = snap.histogram("sim.device.write_latency_ns").unwrap();
            assert_eq!(wr.count, stats.device.write_requests);
            // sync() flushed everything.
            assert_eq!(snap.gauge("sim.cache.dirty_pages"), Some(0));
            let bytes = snap.histogram("sim.device.read_request_bytes").unwrap();
            assert_eq!(bytes.sum, stats.device.pages_read * crate::PAGE_SIZE);
        }
    }

    #[test]
    fn detached_sim_records_nothing() {
        let mut sim = small_sim(DeviceProfile::nvme());
        let f = sim.create_file(64);
        sim.read(f, 0, 32).unwrap();
        assert!(sim.telemetry().snapshot().is_empty());
    }

    #[test]
    fn fadvise_random_beats_default_for_random_block_reads() {
        // The manual-hint baseline the paper's KML automates: a programmer
        // who knows the workload is random can fadvise(RANDOM) and get much
        // of the benefit — without adaptivity when the workload changes.
        let run = |hint: bool| {
            let mut sim = Sim::new(SimConfig {
                device: DeviceProfile::sata_ssd(),
                cache_pages: 1024,
                ..SimConfig::default()
            });
            let f = sim.create_file(1 << 20);
            if hint {
                sim.fadvise(f, Advice::Random).unwrap();
            }
            let t0 = sim.now_ns();
            let mut x = 12345u64;
            for _ in 0..400 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                sim.read(f, ((x >> 20) % ((1 << 20) / 4)) * 4, 4).unwrap();
            }
            sim.now_ns() - t0
        };
        let unhinted = run(false);
        let hinted = run(true);
        assert!(
            hinted < unhinted,
            "fadvise(RANDOM) {hinted} should beat default {unhinted}"
        );
    }

    #[test]
    fn injected_read_error_surfaces_and_clock_still_advances() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = small_sim(DeviceProfile::nvme());
        sim.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 2,
            read_error: 1.0,
            ..FaultConfig::off()
        })));
        let f = sim.create_file(128);
        let t0 = sim.now_ns();
        let err = sim.read(f, 0, 8).unwrap_err();
        assert!(sim.now_ns() > t0, "failed attempt must consume time");
        assert_eq!(err.completed, 0);
        assert!(sim.fault_stats().read_errors >= 1);
        // Detach the plan: the same read now succeeds.
        sim.set_fault_plan(None);
        sim.read(f, 0, 8).unwrap();
    }

    #[test]
    fn failed_sync_keeps_pages_dirty_for_retry() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 256,
            dirty_threshold: 0.99,
            ..SimConfig::default()
        });
        let f = sim.create_file(256);
        sim.write(f, 0, 8).unwrap();
        assert_eq!(sim.cache_dirty(), 8);
        sim.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 9,
            write_error: 1.0,
            ..FaultConfig::off()
        })));
        sim.sync().unwrap_err();
        // Nothing silently lost: the batch is dirty again.
        assert_eq!(sim.cache_dirty(), 8);
        sim.set_fault_plan(None);
        sim.sync().unwrap();
        assert_eq!(sim.cache_dirty(), 0);
        assert_eq!(sim.stats().device.pages_written, 8);
    }

    #[test]
    fn cache_squeeze_shrinks_then_lifts() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 128,
            ..SimConfig::default()
        });
        let f = sim.create_file(4096);
        sim.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            seed: 1,
            cache_squeeze: 1.0, // squeeze on the first logical op
            squeeze_frac: 0.25,
            squeeze_ops: 3,
            ..FaultConfig::off()
        })));
        sim.read(f, 0, 1).unwrap();
        assert_eq!(sim.cache_capacity(), 32);
        assert!(sim.cache_len() <= 32);
        // After squeeze_ops more operations the pressure lifts. Detach the
        // plan first so no *new* squeeze starts.
        sim.set_fault_plan(None);
        assert_eq!(sim.cache_capacity(), 128);
    }

    #[test]
    fn squeeze_lifts_by_itself_after_configured_ops() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut sim = Sim::new(SimConfig {
            device: DeviceProfile::nvme(),
            cache_pages: 128,
            ..SimConfig::default()
        });
        let f = sim.create_file(4096);
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 1,
            cache_squeeze: 1.0,
            squeeze_frac: 0.5,
            squeeze_ops: 2,
            ..FaultConfig::off()
        });
        // Neuter further squeezes after the first by draining the trigger:
        // install, trigger once, then set a plan that cannot squeeze.
        sim.set_fault_plan(Some(plan.clone()));
        sim.read(f, 0, 1).unwrap();
        assert_eq!(sim.cache_capacity(), 64);
        plan = FaultPlan::new(FaultConfig::off());
        sim.device.set_fault_plan(Some(plan));
        sim.read(f, 1, 1).unwrap(); // squeeze_remaining 2 -> 1
        sim.read(f, 2, 1).unwrap(); // 1 -> 0: capacity restored
        assert_eq!(sim.cache_capacity(), 128);
    }
}
