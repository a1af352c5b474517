//! # kml-collect — data collection and asynchronous training (paper §3.1–§3.2)
//!
//! KML collects training data on the I/O path — "highly sensitive to
//! additional latencies" — so the inline hook must do almost nothing: it
//! pushes a fixed-size record into a **lock-free circular buffer** and
//! returns. A dedicated **asynchronous training thread** drains the buffer,
//! runs the computation-heavy normalization (which needs the FPU), and
//! trains. If the producer outruns the consumer the buffer **overwrites the
//! oldest records and counts the loss**, exactly the trade-off §3.1
//! describes ("losing part of the training data could reduce the model's
//! accuracy, users must carefully configure the circular buffer size").
//!
//! Components:
//!
//! - [`ringbuf::RingBuffer`] — bounded lock-free SPSC queue with overwrite
//!   semantics and drop accounting.
//! - [`stats`] — the paper's data-normalization toolkit: cumulative moving
//!   average, cumulative moving standard deviation (Welford), and the mean
//!   absolute difference of consecutive samples.
//! - [`featurize`] — the shared window engine: channelized streaming
//!   accumulators + the per-window roll discipline every tuner (readahead,
//!   iosched, netfs rsize) builds its feature vectors on.
//! - [`event`] — fixed-size `Copy` event records for the ring; currently
//!   the RPC lifecycle events of the network storage path.
//! - [`trainer::AsyncTrainer`] — the training-thread harness: give it a
//!   buffer and a train callback; it owns the KML training kthread.

pub mod event;
pub mod featurize;
pub mod ringbuf;
pub mod stats;
pub mod trainer;

pub use event::{RpcEvent, RpcEventKind};
pub use featurize::{Channel, FeatureBatch, WindowedFeatures};
pub use ringbuf::RingBuffer;
pub use stats::CumulativeStats;
pub use trainer::{AsyncTrainer, TRAINER_BACKLOG_METRIC, TRAINER_DROPPED_METRIC};
