//! The NFS-like server: an RPC façade over a [`kernel_sim::Sim`] kernel
//! (block device + page cache + readahead), with a duplicate-request
//! cache.
//!
//! The duplicate-request cache (DRC) is the piece that makes at-least-once
//! transport delivery safe: a retransmitted or duplicated request whose
//! xid is still cached is answered from the cache — no device work, no
//! double application of writes — exactly the NFSv2/v3 server mechanism.

use kernel_sim::{FileId, IoResult, Sim, SimConfig};

use crate::mount::NetStats;

/// Bounded xid → cached-reply window. Retransmits arrive immediately after
/// the original in the synchronous client, so a small window suffices; the
/// bound exists so the server's memory is O(1) like a real DRC.
const DRC_CAPACITY: usize = 256;

/// One RPC operation, page-granular like the underlying simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcOp {
    /// Read `npages` starting at `page`.
    Read {
        /// Target file.
        file: FileId,
        /// First page.
        page: u64,
        /// Page count (bounded by the mount's rsize).
        npages: u64,
    },
    /// Write `npages` starting at `page`.
    Write {
        /// Target file.
        file: FileId,
        /// First page.
        page: u64,
        /// Page count (bounded by the mount's wsize).
        npages: u64,
    },
}

impl RpcOp {
    /// Pages of payload carried by the *request* leg (writes carry data).
    pub fn request_payload_pages(&self) -> u64 {
        match *self {
            RpcOp::Read { .. } => 0,
            RpcOp::Write { npages, .. } => npages,
        }
    }

    /// Pages of payload carried by the *response* leg (reads carry data).
    pub fn response_payload_pages(&self) -> u64 {
        match *self {
            RpcOp::Read { npages, .. } => npages,
            RpcOp::Write { .. } => 0,
        }
    }
}

/// The server: kernel simulator + DRC.
#[derive(Debug)]
pub struct NfsServer {
    sim: Sim,
    per_rpc_ns: u64,
    drc: Vec<(u64, IoResult<u64>)>,
    /// Ring cursor: the oldest reply once the DRC is full, 0 until then.
    drc_next: usize,
    /// Largest xid ever cached; a larger one cannot be in the DRC.
    drc_max_xid: u64,
}

impl NfsServer {
    /// Boots a server over a fresh kernel with `config`, spending
    /// `per_rpc_ns` of processing time on each non-cached request.
    pub fn new(config: SimConfig, per_rpc_ns: u64) -> NfsServer {
        NfsServer {
            sim: Sim::new(config),
            per_rpc_ns,
            drc: Vec::with_capacity(DRC_CAPACITY),
            drc_next: 0,
            drc_max_xid: 0,
        }
    }

    /// The server's kernel (device, page cache, clock).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Mutable access to the server's kernel (file creation, fault plans,
    /// telemetry attachment).
    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Executes one arrived request. A DRC hit replays the cached reply at
    /// a quarter of the normal processing cost and touches no device
    /// state; a miss executes against the kernel and caches the reply.
    /// `stats` gets the server-side accounting either way.
    pub fn handle(&mut self, xid: u64, op: RpcOp, stats: &mut NetStats) -> IoResult<u64> {
        stats.server_seen += 1;
        if let Some(reply) = self.cached_reply(xid) {
            stats.drc_hits += 1;
            self.sim.advance(self.per_rpc_ns / 4);
            return reply;
        }
        self.sim.advance(self.per_rpc_ns);
        let reply = match op {
            RpcOp::Read { file, page, npages } => self.sim.read(file, page, npages),
            RpcOp::Write { file, page, npages } => self.sim.write(file, page, npages),
        };
        if self.drc.len() < DRC_CAPACITY {
            self.drc.push((xid, reply));
        } else {
            self.drc[self.drc_next] = (xid, reply);
            self.drc_next = (self.drc_next + 1) % DRC_CAPACITY;
        }
        self.drc_max_xid = self.drc_max_xid.max(xid);
        reply
    }

    /// The cached reply to `xid`, if the DRC still holds it. A fresh xid —
    /// almost every request — is larger than any cached one and costs no
    /// scan; a retransmit follows its original closely, so the ring is
    /// searched newest first.
    fn cached_reply(&self, xid: u64) -> Option<IoResult<u64>> {
        if xid > self.drc_max_xid {
            return None;
        }
        let (newer, older) = self.drc.split_at(self.drc_next);
        let mut newest_first = newer.iter().rev().chain(older.iter().rev());
        newest_first
            .find(|&&(x, _)| x == xid)
            .map(|&(_, reply)| reply)
    }
}

#[cfg(test)]
impl NfsServer {
    /// [`NfsServer::handle`] as it was: every slot scanned for every xid, in
    /// slot order from the end. The reference of `drc_matches_the_linear_scan`.
    fn handle_scanning(&mut self, xid: u64, op: RpcOp, stats: &mut NetStats) -> IoResult<u64> {
        stats.server_seen += 1;
        if let Some(&(_, reply)) = self.drc.iter().rev().find(|&&(x, _)| x == xid) {
            stats.drc_hits += 1;
            self.sim.advance(self.per_rpc_ns / 4);
            return reply;
        }
        self.sim.advance(self.per_rpc_ns);
        let reply = match op {
            RpcOp::Read { file, page, npages } => self.sim.read(file, page, npages),
            RpcOp::Write { file, page, npages } => self.sim.write(file, page, npages),
        };
        if self.drc.len() < DRC_CAPACITY {
            self.drc.push((xid, reply));
        } else {
            self.drc[self.drc_next] = (xid, reply);
            self.drc_next = (self.drc_next + 1) % DRC_CAPACITY;
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::DeviceProfile;
    use proptest::prelude::*;

    proptest! {
        /// Fresh, retransmitted, long-evicted and out-of-order xids, enough
        /// of them to wrap the ring twice: the same replies, the same
        /// accounting and the same clock as the scan of every slot.
        #[test]
        fn drc_matches_the_linear_scan(
            arrivals in proptest::collection::vec((0u8..8, 0u64..600, 1u64..9), 800..1200),
        ) {
            let ((mut s, f), (mut linear, _)) = (server(), server());
            let (mut stats, mut linear_stats) = (NetStats::default(), NetStats::default());
            let mut next_xid = 0u64;
            for (kind, back, npages) in arrivals {
                let xid = match kind {
                    // Mostly the client's next xid, sometimes skipping ahead …
                    0..=3 => next_xid,
                    4 => next_xid + back,
                    // … a retransmit of a recent one, or something older
                    // than the 256 replies the cache holds.
                    5 | 6 => next_xid.saturating_sub(1 + back % 4),
                    _ => next_xid.saturating_sub(back),
                };
                next_xid = next_xid.max(xid + 1);
                let page = xid * 8 % 4096;
                let op = match xid % 3 {
                    0 => RpcOp::Write { file: f, page, npages },
                    _ => RpcOp::Read { file: f, page, npages },
                };
                let reply = s.handle(xid, op, &mut stats);
                prop_assert_eq!(reply, linear.handle_scanning(xid, op, &mut linear_stats));
                prop_assert_eq!(stats, linear_stats);
                prop_assert_eq!(s.sim().now_ns(), linear.sim().now_ns());
                prop_assert_eq!(&s.drc, &linear.drc);
            }
        }
    }

    fn server() -> (NfsServer, FileId) {
        let mut s = NfsServer::new(
            SimConfig {
                device: DeviceProfile::nvme(),
                cache_pages: 4096,
                ..SimConfig::default()
            },
            10_000,
        );
        let f = s.sim_mut().create_file(1 << 16);
        (s, f)
    }

    #[test]
    fn drc_replays_cached_replies_without_device_work() {
        let (mut s, f) = server();
        let mut stats = NetStats::default();
        let op = RpcOp::Read {
            file: f,
            page: 0,
            npages: 8,
        };
        let first = s.handle(1, op, &mut stats);
        let reads_after_first = s.sim().stats().logical_reads;
        let replay = s.handle(1, op, &mut stats);
        assert_eq!(first, replay);
        assert_eq!(stats.server_seen, 2);
        assert_eq!(stats.drc_hits, 1);
        assert_eq!(
            s.sim().stats().logical_reads,
            reads_after_first,
            "DRC hit must not touch the kernel"
        );
    }

    #[test]
    fn drc_makes_retransmitted_writes_idempotent() {
        let (mut s, f) = server();
        let mut stats = NetStats::default();
        let op = RpcOp::Write {
            file: f,
            page: 64,
            npages: 4,
        };
        s.handle(9, op, &mut stats).unwrap();
        let writes_after_first = s.sim().stats().logical_writes;
        s.handle(9, op, &mut stats).unwrap();
        assert_eq!(s.sim().stats().logical_writes, writes_after_first);
    }

    #[test]
    fn drc_evicts_oldest_beyond_capacity() {
        let (mut s, f) = server();
        let mut stats = NetStats::default();
        for xid in 0..(DRC_CAPACITY as u64 + 10) {
            let op = RpcOp::Read {
                file: f,
                page: xid % 100,
                npages: 1,
            };
            s.handle(xid, op, &mut stats).unwrap();
        }
        // xid 0 was evicted: handling it again is a fresh execution.
        let hits_before = stats.drc_hits;
        s.handle(
            0,
            RpcOp::Read {
                file: f,
                page: 0,
                npages: 1,
            },
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.drc_hits, hits_before);
    }
}
