//! Fixed-size event records for the collection ring.
//!
//! The kernel-side tracepoints must push something tiny and `Copy` into the
//! lock-free ring (§3.1: the inline hook "must do almost nothing"). The
//! block layer already has [`kernel-sim`'s `TraceRecord`]; the network
//! storage path adds its own record here: one [`RpcEvent`] per RPC
//! lifecycle transition, carrying just enough for the rsize tuner's
//! windowed features (latency, payload size, retransmission pressure).
//!
//! [`kernel-sim`'s `TraceRecord`]: https://docs.rs/kernel-sim

/// What happened to an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcEventKind {
    /// The client issued a new RPC (first transmission of an xid).
    Call,
    /// The client delivered a completion to its caller. `latency_ns` is the
    /// full call-to-completion latency, including every retransmission.
    Reply,
    /// The client retransmitted after a timeout.
    Retransmit,
    /// The client discarded a duplicate reply for an already-completed xid.
    DuplicateDrop,
}

/// One RPC lifecycle event, pushed into a `RingBuffer<RpcEvent>` by the
/// netfs client tracepoints and drained by the rsize tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcEvent {
    /// Which transition this records.
    pub kind: RpcEventKind,
    /// Transaction id of the RPC.
    pub xid: u64,
    /// Payload size of the RPC, in pages.
    pub pages: u64,
    /// Call-to-completion latency in ns ([`RpcEventKind::Reply`] only;
    /// 0 otherwise).
    pub latency_ns: u64,
    /// Virtual clock when the event fired.
    pub time_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingBuffer;

    #[test]
    fn rpc_events_flow_through_the_ring() {
        let (producer, mut consumer) = RingBuffer::<RpcEvent>::with_capacity(8).split();
        for xid in 0..4u64 {
            producer.push(RpcEvent {
                kind: RpcEventKind::Reply,
                xid,
                pages: 8,
                latency_ns: 1_000 * xid,
                time_ns: 10_000 * xid,
            });
        }
        let drained: Vec<RpcEvent> = consumer.drain().collect();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[3].xid, 3);
        assert_eq!(drained[3].kind, RpcEventKind::Reply);
        assert_eq!(consumer.dropped(), 0);
    }
}
