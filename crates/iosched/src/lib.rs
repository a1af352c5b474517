//! # iosched — the second KML use case (paper §6 future work)
//!
//! "We plan to apply KML to other storage subsystems: e.g., I/O
//! schedulers..." This crate does exactly that, reusing every KML building
//! block the readahead case study uses — the lock-free collection path, the
//! feature/normalization pipeline, the classifier, the closed actuation
//! loop — against a different kernel component: the block-layer **request
//! scheduler**, whose *batching window* is the tunable.
//!
//! ## The knob and the trade-off
//!
//! An anticipatory scheduler may hold submitted requests for up to
//! `batch_wait_ns` hoping to merge adjacent ones into fewer, larger device
//! commands (an elevator pass over the queue). For **mergeable burst**
//! traffic (scattered writeback, scans split across threads) waiting wins:
//! merged requests amortize the per-command base cost. For **dependent
//! random** traffic (a synchronous reader issuing one request at a time)
//! waiting is pure added latency — nothing arrives to merge with.
//! No single window wins everywhere: the same shape of problem as
//! readahead, solved with the same framework.
//!
//! ## Example
//!
//! ```
//! use iosched::{IoScheduler, SchedulerConfig, IoRequest};
//! use kernel_sim::DeviceProfile;
//!
//! let mut sched = IoScheduler::new(DeviceProfile::sata_ssd(), SchedulerConfig {
//!     batch_wait_ns: 0, // dispatch immediately
//!     max_batch: 32,
//! });
//! sched.submit(IoRequest { inode: 1, page: 0, npages: 4, write: false, arrival_ns: 0 });
//! let done = sched.drain(1_000_000);
//! assert_eq!(done.len(), 1);
//! ```

pub mod scheduler;
pub mod tuner;
pub mod workload;

pub use scheduler::{CompletedIo, IoRequest, IoScheduler, SchedStats, SchedulerConfig};
pub use tuner::{SchedDecision, SchedFeatures, SchedTuner};
pub use workload::{run_sched_workload, SchedWorkload, SchedWorkloadReport};
