//! The robust RPC client: one NFS-like mount with timeout, exponential
//! backoff, retransmission, and exactly-once completion semantics.
//!
//! The completion contract is the NFS client's: every issued RPC returns
//! to the caller **exactly once** — retransmissions reuse the xid, any
//! response matching an outstanding xid completes the call, and late or
//! duplicated responses for an already-completed xid are discarded (and
//! counted). The server side pairs this with a duplicate-request cache so
//! at-least-once delivery never applies an operation twice. Every counter
//! a packet can touch is kept in [`NetStats`], and
//! [`NetStats::reconcile`] proves the books balance — the identity the
//! kml-dst netfs invariants check after every step.

use kernel_sim::{FileId, IoError, IoErrorKind, IoResult, SimConfig};
use kml_collect::event::{RpcEvent, RpcEventKind};
use kml_collect::ringbuf::Producer;
use kml_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::server::{NfsServer, RpcOp};
use crate::transport::{Leg, NetProfile, Transport};

/// Metric name prefix for the mount's RPC metrics.
pub const RPC_METRIC_PREFIX: &str = "netfs.rpc";

/// Smallest rsize/wsize the mount policy allows, KiB.
pub const RSIZE_MIN_KB: u32 = 16;
/// Largest rsize/wsize the mount policy allows, KiB.
pub const RSIZE_MAX_KB: u32 = 1024;
/// The mount default (the common NFS default of 256 KiB).
pub const DEFAULT_RSIZE_KB: u32 = 256;

/// Attempts before the client gives up and fails the call (the `retrans`
/// analogue; far beyond what any surviving link needs).
const MAX_ATTEMPTS: u32 = 32;

/// Most [`RpcEvent`]s one RPC can emit: its `Call`; a `Retransmit` for every
/// attempt but the first and a `DuplicateDrop` for every attempt whose
/// request arrived twice; then, on the attempt that completes, a
/// duplicated response (1), a retransmission that raced the late response
/// and whose two delivered copies are each answered twice (1 + 4), and the
/// `Reply`. A give-up after the last attempt emits fewer.
pub const MAX_EVENTS_PER_RPC: usize = 2 * MAX_ATTEMPTS as usize + 7;

/// Most [`RpcEvent`]s one [`NfsMount::read`] or [`NfsMount::write`] of
/// `npages` pages can emit while the transfer size stays at or above
/// `min_rsize_kb`: one RPC per chunk, [`MAX_EVENTS_PER_RPC`] each. An RPC
/// trace ring of this capacity that is drained after every operation
/// never overwrites an event.
pub fn max_rpc_events_per_op(npages: u64, min_rsize_kb: u32) -> usize {
    let chunk =
        u64::from(min_rsize_kb.clamp(RSIZE_MIN_KB, RSIZE_MAX_KB)) * 1024 / kernel_sim::PAGE_SIZE;
    npages.div_ceil(chunk) as usize * MAX_EVENTS_PER_RPC
}

/// Every counter the RPC path maintains. All transmissions, losses,
/// duplications and completions are accounted here; the identities in
/// [`NetStats::reconcile`] tie them together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Calls started (one per caller-visible RPC).
    pub rpcs_issued: u64,
    /// Calls returned to the caller (== `rpcs_issued` at quiescence:
    /// the exactly-once half of the contract).
    pub rpcs_completed: u64,
    /// Completions that were give-up failures after [`MAX_ATTEMPTS`].
    pub rpcs_failed: u64,
    /// Request transmissions (first sends + retransmissions).
    pub requests_sent: u64,
    /// Retransmissions (`requests_sent - rpcs_issued`).
    pub retransmits: u64,
    /// Request packets dropped in flight.
    pub requests_lost: u64,
    /// Extra request copies delivered by transport duplication.
    pub requests_duplicated: u64,
    /// Requests that arrived at the server (each produces one response).
    pub server_seen: u64,
    /// Arrived requests answered from the duplicate-request cache.
    pub drc_hits: u64,
    /// Response packets dropped in flight.
    pub responses_lost: u64,
    /// Extra response copies delivered by transport duplication.
    pub responses_duplicated: u64,
    /// Responses discarded because their xid had already completed.
    pub duplicate_responses_dropped: u64,
    /// Timer expiries (each triggers a retransmission or give-up).
    pub timeouts: u64,
    /// Legs delivered with a reordering penalty.
    pub reorders: u64,
}

impl NetStats {
    /// Checks the retransmit-accounting identities. Returns the first
    /// violated identity as an error string (the kml-dst
    /// `I7.retransmit-reconciles` invariant calls this every step).
    pub fn reconcile(&self) -> Result<(), String> {
        let sent_minus_lost = self
            .requests_sent
            .checked_sub(self.requests_lost)
            .ok_or("more requests lost than sent")?;
        if self.server_seen != sent_minus_lost + self.requests_duplicated {
            return Err(format!(
                "server saw {} requests, expected {} sent - {} lost + {} duplicated",
                self.server_seen, self.requests_sent, self.requests_lost, self.requests_duplicated
            ));
        }
        if self.requests_sent != self.rpcs_issued + self.retransmits {
            return Err(format!(
                "{} requests sent != {} issued + {} retransmits",
                self.requests_sent, self.rpcs_issued, self.retransmits
            ));
        }
        // Every arrived request yields one response; responses either get
        // lost, complete their call, or are dropped as duplicates.
        let responses_delivered = self
            .server_seen
            .checked_sub(self.responses_lost)
            .ok_or("more responses lost than sent")?
            + self.responses_duplicated;
        let completions_by_response = self
            .rpcs_completed
            .checked_sub(self.rpcs_failed)
            .ok_or("more failures than completions")?;
        if responses_delivered != completions_by_response + self.duplicate_responses_dropped {
            return Err(format!(
                "{responses_delivered} responses delivered != {completions_by_response} \
                 completions + {} duplicate drops",
                self.duplicate_responses_dropped
            ));
        }
        if self.rpcs_completed > self.rpcs_issued {
            return Err(format!(
                "{} completions exceed {} issued calls (duplicate delivery)",
                self.rpcs_completed, self.rpcs_issued
            ));
        }
        Ok(())
    }

    /// Packets lost in either direction.
    pub fn packets_lost(&self) -> u64 {
        self.requests_lost + self.responses_lost
    }
}

/// RPC-path telemetry (lazily bound to the server sim's registry, like the
/// readahead tuner's loop metrics).
#[derive(Debug)]
struct MountTelemetry {
    call_wall_ns: Histogram,
    latency_ns: Histogram,
    completed_total: Counter,
    retransmit_total: Counter,
    timeout_total: Counter,
    duplicate_drop_total: Counter,
    rsize_bytes: Gauge,
}

impl MountTelemetry {
    fn noop() -> Self {
        MountTelemetry {
            call_wall_ns: Histogram::noop(),
            latency_ns: Histogram::noop(),
            completed_total: Counter::noop(),
            retransmit_total: Counter::noop(),
            timeout_total: Counter::noop(),
            duplicate_drop_total: Counter::noop(),
            rsize_bytes: Gauge::noop(),
        }
    }

    fn bind(registry: &Registry) -> Self {
        let p = RPC_METRIC_PREFIX;
        MountTelemetry {
            call_wall_ns: registry.histogram(&format!("{p}.call_wall_ns")),
            latency_ns: registry.histogram(&format!("{p}.latency_ns")),
            completed_total: registry.counter(&format!("{p}.completed_total")),
            retransmit_total: registry.counter(&format!("{p}.retransmit_total")),
            timeout_total: registry.counter(&format!("{p}.timeout_total")),
            duplicate_drop_total: registry.counter(&format!("{p}.duplicate_drop_total")),
            rsize_bytes: registry.gauge("netfs.mount.rsize_bytes"),
        }
    }
}

/// One mounted NFS-like filesystem: server + transport + the per-mount
/// `rsize`/`wsize` knobs the KML loop actuates.
#[derive(Debug)]
pub struct NfsMount {
    server: NfsServer,
    transport: Transport,
    rsize_kb: u32,
    wsize_kb: u32,
    stats: NetStats,
    next_xid: u64,
    trace: Option<Producer<RpcEvent>>,
    events_emitted: u64,
    telemetry: MountTelemetry,
    telemetry_bound: bool,
}

impl NfsMount {
    /// Mounts a fresh server (built from `config`) over `profile`'s link,
    /// with both transfer sizes at [`DEFAULT_RSIZE_KB`].
    pub fn new(profile: NetProfile, config: SimConfig) -> NfsMount {
        let per_rpc_ns = profile.per_rpc_ns;
        NfsMount {
            server: NfsServer::new(config, per_rpc_ns),
            transport: Transport::new(profile),
            rsize_kb: DEFAULT_RSIZE_KB,
            wsize_kb: DEFAULT_RSIZE_KB,
            stats: NetStats::default(),
            next_xid: 1,
            trace: None,
            events_emitted: 0,
            telemetry: MountTelemetry::noop(),
            telemetry_bound: false,
        }
    }

    /// The server behind the mount.
    pub fn server(&self) -> &NfsServer {
        &self.server
    }

    /// Mutable server access (file creation, server fault plans, attaching
    /// a telemetry registry to the kernel).
    pub fn server_mut(&mut self) -> &mut NfsServer {
        &mut self.server
    }

    /// The network profile the mount runs over.
    pub fn profile(&self) -> &NetProfile {
        self.transport.profile()
    }

    /// Creates a file on the server (setup convenience).
    pub fn create_file(&mut self, pages: u64) -> FileId {
        self.server.sim_mut().create_file(pages)
    }

    /// The shared virtual clock, ns.
    pub fn now_ns(&self) -> u64 {
        self.server.sim().now_ns()
    }

    /// RPC accounting so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Packet-fault counters the transport injected so far.
    pub fn transport_fault_stats(&self) -> kernel_sim::FaultStats {
        self.transport.fault_stats()
    }

    /// Attaches the RPC tracepoint producer feeding the KML ring.
    pub fn attach_rpc_trace(&mut self, producer: Producer<RpcEvent>) {
        self.trace = Some(producer);
    }

    /// RPC events emitted into the ring so far (for exact ring
    /// reconciliation, like `Sim::trace_emitted`).
    pub fn rpc_events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// The read transfer size in force, KiB.
    pub fn rsize_kb(&self) -> u32 {
        self.rsize_kb
    }

    /// The write transfer size in force, KiB.
    pub fn wsize_kb(&self) -> u32 {
        self.wsize_kb
    }

    /// Sets the read transfer size, clamped to
    /// `[RSIZE_MIN_KB, RSIZE_MAX_KB]`. Returns the applied value — the
    /// actuation knob the rsize tuner drives.
    pub fn set_rsize_kb(&mut self, kb: u32) -> u32 {
        self.rsize_kb = kb.clamp(RSIZE_MIN_KB, RSIZE_MAX_KB);
        self.telemetry
            .rsize_bytes
            .set(u64::from(self.rsize_kb) * 1024);
        self.rsize_kb
    }

    /// Sets the write transfer size, with the same clamping.
    pub fn set_wsize_kb(&mut self, kb: u32) -> u32 {
        self.wsize_kb = kb.clamp(RSIZE_MIN_KB, RSIZE_MAX_KB);
        self.wsize_kb
    }

    fn rsize_pages(&self) -> u64 {
        u64::from(self.rsize_kb) * 1024 / kernel_sim::PAGE_SIZE
    }

    fn wsize_pages(&self) -> u64 {
        u64::from(self.wsize_kb) * 1024 / kernel_sim::PAGE_SIZE
    }

    /// Reads `npages` at `page`, split into one READ RPC per `rsize`
    /// chunk. Returns the elapsed virtual time, ns.
    ///
    /// # Errors
    ///
    /// Returns the first RPC failure (server I/O error or client
    /// give-up); earlier chunks stay cached server-side, like a real
    /// partially-failed read.
    pub fn read(&mut self, file: FileId, page: u64, npages: u64) -> IoResult<u64> {
        let start = self.now_ns();
        let chunk = self.rsize_pages().max(1);
        let mut at = page;
        let end = page + npages;
        while at < end {
            let n = chunk.min(end - at);
            self.call(RpcOp::Read {
                file,
                page: at,
                npages: n,
            })?;
            at += n;
        }
        Ok(self.now_ns() - start)
    }

    /// Writes `npages` at `page`, split into one WRITE RPC per `wsize`
    /// chunk. Returns the elapsed virtual time, ns.
    ///
    /// # Errors
    ///
    /// Returns the first RPC failure.
    pub fn write(&mut self, file: FileId, page: u64, npages: u64) -> IoResult<u64> {
        let start = self.now_ns();
        let chunk = self.wsize_pages().max(1);
        let mut at = page;
        let end = page + npages;
        while at < end {
            let n = chunk.min(end - at);
            self.call(RpcOp::Write {
                file,
                page: at,
                npages: n,
            })?;
            at += n;
        }
        Ok(self.now_ns() - start)
    }

    /// Issues one RPC and blocks until its exactly-once completion:
    /// transmit, wait for the response or the retransmission timer,
    /// back off exponentially, retransmit with the same xid, and give up
    /// (with an error completion) after [`MAX_ATTEMPTS`].
    ///
    /// # Errors
    ///
    /// Propagates the server's I/O error, or a client-side give-up error
    /// after `MAX_ATTEMPTS` fruitless attempts.
    pub fn call(&mut self, op: RpcOp) -> IoResult<u64> {
        if !self.telemetry_bound {
            self.telemetry = MountTelemetry::bind(self.server.sim().telemetry());
            self.telemetry
                .rsize_bytes
                .set(u64::from(self.rsize_kb) * 1024);
            self.telemetry_bound = true;
        }
        let wall = self.telemetry.call_wall_ns.clone();
        let span = kml_telemetry::Span::start(&wall);
        let result = self.call_inner(op);
        span.finish();
        result
    }

    fn call_inner(&mut self, op: RpcOp) -> IoResult<u64> {
        let xid = self.next_xid;
        self.next_xid += 1;
        self.stats.rpcs_issued += 1;
        let t0 = self.now_ns();
        let payload = op.request_payload_pages().max(op.response_payload_pages());
        self.emit(RpcEventKind::Call, xid, payload, 0);
        let base_rto =
            self.transport.profile().base_rto_ns + 2 * self.transport.profile().wire_ns(payload);

        let mut attempt: u32 = 0;
        loop {
            if attempt >= MAX_ATTEMPTS {
                // Give up: the call still completes exactly once, as an
                // error, after having burned real (virtual) time.
                self.stats.rpcs_completed += 1;
                self.stats.rpcs_failed += 1;
                let now = self.now_ns();
                self.emit(RpcEventKind::Reply, xid, payload, now - t0);
                self.telemetry.completed_total.inc();
                self.telemetry.latency_ns.record(now - t0);
                return Err(self.give_up_error(op, now - t0));
            }
            // Exponential backoff, capped at 4x so a client buried in a
            // long congestion burst keeps sampling the link often enough
            // to notice recovery (NFS clients cap `timeo` the same way).
            let attempt_start = self.now_ns();
            let deadline = attempt_start + (base_rto << attempt.min(2));
            self.stats.requests_sent += 1;
            if attempt > 0 {
                self.stats.retransmits += 1;
                self.emit(RpcEventKind::Retransmit, xid, payload, 0);
                self.telemetry.retransmit_total.inc();
            }

            // Request leg.
            let req_payload = op.request_payload_pages();
            match self.transport.leg(req_payload, attempt_start) {
                Leg::Lost => {
                    self.stats.requests_lost += 1;
                    self.advance_to(deadline);
                    self.stats.timeouts += 1;
                    self.telemetry.timeout_total.inc();
                    attempt += 1;
                    continue;
                }
                Leg::Delivered {
                    delay_ns,
                    duplicated,
                    reordered,
                } => {
                    if reordered {
                        self.stats.reorders += 1;
                    }
                    self.server.sim_mut().advance(delay_ns);
                    let reply = self.server.handle(xid, op, &mut self.stats);
                    if duplicated {
                        // The second copy arrives right behind the first;
                        // the DRC absorbs it and its response is discarded
                        // by the client as a duplicate.
                        self.stats.requests_duplicated += 1;
                        let _ = self.server.handle(xid, op, &mut self.stats);
                        self.drop_duplicate(xid, payload);
                    }

                    // Response leg.
                    let resp_payload = op.response_payload_pages();
                    match self.transport.leg(resp_payload, self.now_ns()) {
                        Leg::Lost => {
                            self.stats.responses_lost += 1;
                            self.advance_to(deadline);
                            self.stats.timeouts += 1;
                            self.telemetry.timeout_total.inc();
                            attempt += 1;
                            continue;
                        }
                        Leg::Delivered {
                            delay_ns,
                            duplicated: resp_dup,
                            reordered: resp_reordered,
                        } => {
                            if resp_reordered {
                                self.stats.reorders += 1;
                            }
                            self.server.sim_mut().advance(delay_ns);
                            if resp_dup {
                                self.stats.responses_duplicated += 1;
                                self.drop_duplicate(xid, payload);
                            }
                            let now = self.now_ns();
                            if now > deadline {
                                // The response beat the caller's patience
                                // but not the timer: a retransmission is
                                // already in flight. Resolve it for the
                                // books — its reply is a pure duplicate.
                                self.stats.timeouts += 1;
                                self.telemetry.timeout_total.inc();
                                self.shadow_retransmit(xid, op, payload, now);
                            }
                            self.stats.rpcs_completed += 1;
                            self.emit(RpcEventKind::Reply, xid, payload, now - t0);
                            self.telemetry.completed_total.inc();
                            self.telemetry.latency_ns.record(now - t0);
                            return reply;
                        }
                    }
                }
            }
        }
    }

    /// Accounts for a retransmission that raced a late response. The call
    /// has already completed; the server answers from its DRC (no device
    /// work) and whatever comes back is dropped as a duplicate. The clock
    /// does not move — these packets ride behind the completion.
    fn shadow_retransmit(&mut self, xid: u64, op: RpcOp, payload: u64, now: u64) {
        self.stats.requests_sent += 1;
        self.stats.retransmits += 1;
        self.emit(RpcEventKind::Retransmit, xid, payload, 0);
        self.telemetry.retransmit_total.inc();
        match self.transport.leg(op.request_payload_pages(), now) {
            Leg::Lost => {
                self.stats.requests_lost += 1;
            }
            Leg::Delivered {
                duplicated,
                reordered,
                ..
            } => {
                if reordered {
                    self.stats.reorders += 1;
                }
                let copies = if duplicated {
                    self.stats.requests_duplicated += 1;
                    2
                } else {
                    1
                };
                for _ in 0..copies {
                    // Guaranteed DRC hit: the original executed moments ago.
                    self.stats.server_seen += 1;
                    self.stats.drc_hits += 1;
                    match self.transport.leg(op.response_payload_pages(), now) {
                        Leg::Lost => self.stats.responses_lost += 1,
                        Leg::Delivered {
                            duplicated: d2,
                            reordered: r2,
                            ..
                        } => {
                            if r2 {
                                self.stats.reorders += 1;
                            }
                            if d2 {
                                self.stats.responses_duplicated += 1;
                                self.drop_duplicate(xid, payload);
                            }
                            self.drop_duplicate(xid, payload);
                        }
                    }
                }
            }
        }
    }

    fn drop_duplicate(&mut self, xid: u64, payload: u64) {
        self.stats.duplicate_responses_dropped += 1;
        self.emit(RpcEventKind::DuplicateDrop, xid, payload, 0);
        self.telemetry.duplicate_drop_total.inc();
    }

    fn advance_to(&mut self, deadline: u64) {
        let now = self.now_ns();
        if deadline > now {
            self.server.sim_mut().advance(deadline - now);
        }
    }

    fn give_up_error(&self, op: RpcOp, ns: u64) -> IoError {
        let (kind, file, page, npages) = match op {
            RpcOp::Read { file, page, npages } => (IoErrorKind::Read, file, page, npages),
            RpcOp::Write { file, page, npages } => (IoErrorKind::Write, file, page, npages),
        };
        IoError {
            kind,
            inode: self.server.sim().file_inode(file),
            page,
            npages,
            completed: 0,
            ns,
        }
    }

    fn emit(&mut self, kind: RpcEventKind, xid: u64, pages: u64, latency_ns: u64) {
        if let Some(trace) = &self.trace {
            trace.push(RpcEvent {
                kind,
                xid,
                pages,
                latency_ns,
                time_ns: self.now_ns(),
            });
            self.events_emitted += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::{DeviceProfile, FaultConfig};
    use kml_collect::RingBuffer;

    fn mount(profile: NetProfile) -> (NfsMount, FileId) {
        let mut m = NfsMount::new(
            profile,
            SimConfig {
                device: DeviceProfile::nvme(),
                cache_pages: 8192,
                ..SimConfig::default()
            },
        );
        let f = m.create_file(1 << 18);
        (m, f)
    }

    #[test]
    fn clean_read_round_trips_and_advances_the_clock() {
        let (mut m, f) = mount(NetProfile::datacenter(1));
        let t0 = m.now_ns();
        let elapsed = m.read(f, 0, 64).expect("clean read succeeds");
        assert!(elapsed > 0);
        assert_eq!(m.now_ns() - t0, elapsed);
        let s = m.stats();
        assert_eq!(s.rpcs_issued, 1, "64 pages fit one 256 KiB rsize RPC");
        assert_eq!(s.rpcs_completed, 1);
        assert_eq!(s.retransmits, 0);
        s.reconcile().expect("books balance");
    }

    #[test]
    fn rsize_controls_the_rpc_split() {
        let (mut m, f) = mount(NetProfile::datacenter(2));
        assert_eq!(m.set_rsize_kb(32), 32);
        m.read(f, 0, 64).unwrap(); // 64 pages = 256 KiB → 8 RPCs at 32 KiB
        assert_eq!(m.stats().rpcs_issued, 8);
    }

    #[test]
    fn rsize_clamps_to_policy_bounds() {
        let (mut m, _) = mount(NetProfile::datacenter(3));
        assert_eq!(m.set_rsize_kb(1), RSIZE_MIN_KB);
        assert_eq!(m.set_rsize_kb(1 << 20), RSIZE_MAX_KB);
        assert_eq!(m.set_wsize_kb(0), RSIZE_MIN_KB);
    }

    #[test]
    fn lossy_link_retransmits_but_completes_exactly_once() {
        let mut profile = NetProfile::datacenter(17);
        profile.faults = FaultConfig {
            seed: 17,
            net_loss: 0.15,
            net_dup: 0.05,
            ..FaultConfig::off()
        };
        let (mut m, f) = mount(profile);
        m.set_rsize_kb(64);
        for i in 0..40 {
            m.read(f, i * 64, 32).expect("retransmission recovers");
        }
        let s = m.stats();
        assert_eq!(s.rpcs_completed, s.rpcs_issued);
        assert_eq!(s.rpcs_failed, 0);
        assert!(s.retransmits > 0, "15% loss must force retransmissions");
        assert!(s.timeouts > 0);
        s.reconcile().expect("books balance under loss");
    }

    #[test]
    fn total_loss_gives_up_with_an_error_after_burning_time() {
        let mut profile = NetProfile::datacenter(5);
        profile.faults = FaultConfig {
            seed: 5,
            net_loss: 1.0,
            ..FaultConfig::off()
        };
        let (mut m, f) = mount(profile);
        let t0 = m.now_ns();
        let err = m.read(f, 0, 8).expect_err("dead link must fail");
        assert_eq!(err.kind, IoErrorKind::Read);
        assert!(m.now_ns() > t0, "timeouts must advance the clock");
        let s = m.stats();
        assert_eq!(s.rpcs_failed, 1);
        assert_eq!(s.rpcs_completed, s.rpcs_issued);
        s.reconcile().expect("books balance even on give-up");
    }

    #[test]
    fn duplicated_replies_are_dropped_not_delivered() {
        let mut profile = NetProfile::datacenter(11);
        profile.faults = FaultConfig {
            seed: 11,
            net_dup: 0.5,
            ..FaultConfig::off()
        };
        let (mut m, f) = mount(profile);
        m.set_rsize_kb(16);
        for i in 0..30 {
            m.read(f, i * 16, 16).unwrap();
        }
        let s = m.stats();
        assert!(s.duplicate_responses_dropped > 0);
        assert_eq!(s.rpcs_completed, s.rpcs_issued);
        assert!(s.drc_hits > 0, "duplicated requests must hit the DRC");
        s.reconcile().expect("books balance under duplication");
    }

    #[test]
    fn rpc_events_feed_the_ring_exactly() {
        let (mut m, f) = mount(NetProfile::datacenter(23));
        let (producer, mut consumer) = RingBuffer::with_capacity(1 << 12).split();
        m.attach_rpc_trace(producer);
        m.read(f, 0, 256).unwrap();
        let drained: Vec<RpcEvent> = consumer.drain().collect();
        assert_eq!(drained.len() as u64, m.rpc_events_emitted());
        let calls = drained
            .iter()
            .filter(|e| e.kind == RpcEventKind::Call)
            .count() as u64;
        let replies: Vec<_> = drained
            .iter()
            .filter(|e| e.kind == RpcEventKind::Reply)
            .collect();
        assert_eq!(calls, m.stats().rpcs_issued);
        assert_eq!(replies.len() as u64, m.stats().rpcs_completed);
        assert!(replies.iter().all(|e| e.latency_ns > 0));
    }

    #[test]
    fn server_io_errors_complete_the_rpc_without_retransmission() {
        let (mut m, f) = mount(NetProfile::datacenter(31));
        m.server_mut()
            .sim_mut()
            .set_fault_plan(Some(kernel_sim::FaultPlan::new(FaultConfig {
                seed: 9,
                read_error: 1.0,
                ..FaultConfig::off()
            })));
        let err = m.read(f, 0, 8).expect_err("server error must surface");
        assert_eq!(err.kind, IoErrorKind::Read);
        let s = m.stats();
        assert_eq!(s.retransmits, 0, "an error reply is a completion");
        assert_eq!(s.rpcs_failed, 0, "not a client give-up");
        s.reconcile().expect("books balance");
    }
}
