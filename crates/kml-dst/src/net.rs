//! The netfs stack as a [`System`]: an NFS-like [`NfsMount`] with its
//! [`RsizeTuner`] under a seeded packet-fault schedule, checked against
//! the RPC-layer invariants I6–I10.

use crate::driver::{violated, Op, RunSummary, System, Trace, Violation};
use crate::scenario::{Scenario, SeedStream};
use kernel_sim::{DeviceProfile, FileId, SimConfig};
use kml_collect::RingBuffer;
use kml_core::dataset::Dataset;
use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
use kml_lifecycle::ArtifactKind;
use netfs::{NetProfile, NfsMount, RsizePolicy, RsizeTuner, RsizeTunerModel};

/// The two rsize settings the netfs harness policy can actuate, KiB.
const POLICY_RSIZE_KB: [u32; 2] = [1024, 64];
/// Pages of the one remote file every op lands on.
const FILE_PAGES: u64 = 1 << 14;

/// The netfs analogue of the LSM stack's stub model: a tree thresholding
/// the retransmit fraction (feature 2). Low fraction → calm (class 0,
/// large rsize), high → congested (class 1, small rsize). The harness
/// validates the loop's plumbing and the RPC ledger, not classifier
/// accuracy.
fn netfs_model() -> RsizeTunerModel {
    let dataset = Dataset::from_rows(
        &[
            vec![50.0, 1e7, 0.02, 1e6, 256.0],
            vec![50.0, 1e7, 0.01, 1e6, 256.0],
            vec![50.0, 4e7, 0.60, 1e6, 256.0],
            vec![50.0, 4e7, 0.80, 1e6, 256.0],
        ],
        &[0, 0, 1, 1],
    )
    .expect("four fixed rows always form a dataset");
    let tree = DecisionTree::fit(&dataset, DecisionTreeConfig::default())
        .expect("four-row dataset always fits");
    RsizeTunerModel::Tree(tree)
}

pub(crate) struct NetStack {
    mount: NfsMount,
    tuner: RsizeTuner,
    file: FileId,
    ops: SeedStream,
    prev_clock: u64,
    prev_lost: u64,
    seq_cursor: u64,
    decision_cursor: usize,
}

impl System for NetStack {
    type Tuner = RsizeTuner;
    const KIND: ArtifactKind = ArtifactKind::NetfsRsize;
    const CLASSES: usize = POLICY_RSIZE_KB.len();
    const KNOB: &'static str = "rsize";

    fn build(scenario: &Scenario) -> Result<Self, Violation> {
        let np = scenario.net_params();
        let profile = NetProfile {
            name: "dst",
            rtt_ns: np.rtt_ns,
            ns_per_page: np.ns_per_page,
            per_rpc_ns: np.per_rpc_ns,
            base_rto_ns: np.base_rto_ns,
            frag_pages: 8,
            faults: np.faults,
            burst_period_ns: np.burst_period_ns,
            burst_frac: np.burst_frac,
        };
        let mut mount = NfsMount::new(
            profile,
            SimConfig {
                device: DeviceProfile::nvme(),
                cache_pages: np.cache_pages,
                ..SimConfig::default()
            },
        );
        let file = mount.create_file(FILE_PAGES);
        let (producer, consumer) = RingBuffer::with_capacity(np.ring_capacity).split();
        mount.attach_rpc_trace(producer);
        let tuner = RsizeTuner::new(
            netfs_model(),
            RsizePolicy::new(POLICY_RSIZE_KB.to_vec()),
            consumer,
            np.window_ns,
        );
        Ok(NetStack {
            prev_clock: mount.now_ns(),
            mount,
            tuner,
            file,
            ops: SeedStream::new(scenario.seed, 0x0E7),
            prev_lost: 0,
            seq_cursor: 0,
            decision_cursor: 0,
        })
    }

    fn now_ns(&self) -> u64 {
        self.mount.now_ns()
    }

    fn op(&mut self, _step: u64, trace: &mut Trace) -> Result<(), Violation> {
        let roll = self.ops.range(0, 100);
        let npages = 1 + self.ops.range(0, 128);
        let span = FILE_PAGES - npages;
        let (op, page) = match roll {
            // Sequential reads: the common streaming client.
            0..=54 => {
                let page = self.seq_cursor.min(span);
                self.seq_cursor = (self.seq_cursor + npages) % span;
                (Op::NetRead, page)
            }
            55..=79 => (Op::NetRead, self.ops.range(0, span)),
            _ => (Op::NetWrite, self.ops.range(0, span)),
        };
        let ok = match op {
            Op::NetWrite => self.mount.write(self.file, page, npages).is_ok(),
            _ => self.mount.read(self.file, page, npages).is_ok(),
        };
        trace.record(self.now_ns(), op, page, if ok { 0 } else { 2 });
        Ok(())
    }

    fn tune(&mut self, _trace: &mut Trace) -> Result<(), Violation> {
        self.tuner.on_op(&mut self.mount).map_err(|e| {
            let detail = format!("rsize tuner failed: {e:?}");
            ("I5.no-panic", detail)
        })
    }

    /// I6–I10.
    fn check(&mut self, _step: u64) -> Result<(), Violation> {
        let s = self.mount.stats();
        // I6: the client is synchronous, so between ops every issued RPC
        // must have returned to the caller exactly once — success, server
        // error, or give-up, but never zero times and never twice.
        if s.rpcs_completed != s.rpcs_issued {
            return violated(
                "I6.rpc-exactly-once",
                format!(
                    "{} RPCs issued but {} completed at quiescence",
                    s.rpcs_issued, s.rpcs_completed
                ),
            );
        }
        // I7: the double-entry packet ledger balances — every transmission
        // is accounted as lost, seen by the server, or duplicated, and
        // every server response as lost, completing, or dropped-duplicate.
        s.reconcile()
            .map_err(|detail| ("I7.retransmit-reconciles", detail))?;
        // I8: the actuated rsize stays inside the mount's clamp range and
        // is either the untouched default or a policy value.
        let rsize = self.mount.rsize_kb();
        if !(netfs::RSIZE_MIN_KB..=netfs::RSIZE_MAX_KB).contains(&rsize)
            || (rsize != netfs::DEFAULT_RSIZE_KB && !POLICY_RSIZE_KB.contains(&rsize))
        {
            return violated(
                "I8.rsize-clamped",
                format!(
                    "mount holds {rsize} KiB, policy allows {POLICY_RSIZE_KB:?} or {}",
                    netfs::DEFAULT_RSIZE_KB
                ),
            );
        }
        // I9: time is never free — the clock is monotone, and any step
        // that lost packets must have burned time on their timeouts.
        let now = self.mount.now_ns();
        let lost = s.packets_lost();
        if now < self.prev_clock {
            return violated(
                "I9.loss-costs-time",
                format!("clock went from {} to {now}", self.prev_clock),
            );
        }
        if lost > self.prev_lost && now == self.prev_clock {
            return violated(
                "I9.loss-costs-time",
                format!(
                    "{} packets lost this step with no clock movement at {now}",
                    lost - self.prev_lost
                ),
            );
        }
        self.prev_clock = now;
        self.prev_lost = lost;
        // I10: the RPC tracepoint ring reconciles exactly while drained.
        let emitted = self.mount.rpc_events_emitted();
        let consumed = self.tuner.events_consumed();
        let dropped = self.tuner.records_dropped();
        if emitted != consumed + dropped {
            return violated(
                "I10.rpc-ring-reconciles",
                format!("emitted={emitted} != consumed={consumed} + dropped={dropped}"),
            );
        }
        Ok(())
    }

    fn knob(&self) -> u32 {
        self.mount.rsize_kb()
    }

    fn tuner(&mut self) -> &mut RsizeTuner {
        &mut self.tuner
    }

    fn fresh_generations(&mut self) -> impl Iterator<Item = u64> + '_ {
        let decisions = self.tuner.decisions();
        let from = std::mem::replace(&mut self.decision_cursor, decisions.len());
        decisions[from..].iter().map(|d| d.generation)
    }

    /// No end-of-run sweep: the RPC ledger is already exact after every
    /// step.
    fn finish(&mut self, _trace: &mut Trace) -> Result<RunSummary, Violation> {
        Ok(RunSummary {
            injected: self.mount.transport_fault_stats(),
            decisions: self.tuner.decisions().len() as u64,
            ring_dropped: self.tuner.records_dropped(),
            ..RunSummary::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, FaultMask, Outcome, Scenario};

    #[test]
    fn a_quiet_netfs_scenario_passes_and_injects_nothing() {
        let mut scenario = Scenario::netfs_from_seed(5, 80);
        scenario.disabled = FaultMask(0x3FF);
        match run(&scenario) {
            Outcome::Pass(s) => {
                assert_eq!(s.steps, 80);
                assert_eq!(s.injected.total(), 0);
                assert_eq!(s.io_errors, 0);
            }
            Outcome::Fail(r) => panic!("quiet netfs scenario failed:\n{r}"),
        }
    }
}
