//! # kml-lifecycle — model lifecycle for the KML stack
//!
//! The paper trains a model once and deploys it once; a production fleet
//! never gets to stop there. This crate is the missing lifecycle around
//! `kml_core::Model`:
//!
//! - **[`artifact`]** — the versioned, checksummed `.kmlm` deployment
//!   artifact: model kind, saved dtype, feature-schema hash,
//!   normalization stats (inside the KMLMODEL payload), optional Q8
//!   calibration tables, and a whole-artifact checksum. Load is
//!   all-or-nothing with typed errors.
//! - **[`swap`]** — [`Generational`], the generation-tagged `Arc` swap
//!   cell: in-flight batches finish on the generation they pinned,
//!   publishes never tear.
//! - **[`shadow`]** — [`ShadowStats`], decision-agreement accounting for
//!   a candidate that infers on live windows without ever actuating.
//! - **[`watchdog`]** — the deterministic promote/rollback state machine:
//!   a shadow is promoted after K clean windows, an active model is
//!   rolled back after N consecutive windows below `ratio × baseline`
//!   throughput.
//! - **[`controller`]** — [`LifecycleController`], gluing the above to a
//!   swap target ([`LifecycleTarget`]: [`ClosedLoop`] and the fleet
//!   server's model lanes implement it). Rollback reinstalls the previous
//!   generation from its retained artifact bytes under its original
//!   generation tag. It keeps the loop's one bounded event log
//!   ([`LoopEvent`], [`LoopRecord`]).
//! - **[`closed_loop`]** — [`ClosedLoop`], the paper's §3.3 execution
//!   flow written once: window polling, the generation-tagged model slot
//!   with its shadow lane, hysteresis memory, loop telemetry, the decision
//!   log and the one tuner-side `LifecycleTarget` impl. The
//!   readahead/netfs/iosched tuners are [`Subsystem`] impls over it.
//!
//! Everything here is deterministic: the watchdog consumes virtual-clock
//! throughput, artifacts decode bit-identically, and generation tags are
//! assigned by the controller — so lifecycle-enabled runs stay
//! byte-identical at any worker count, and kml-dst can torture the whole
//! state machine under seeded fault schedules.

pub mod artifact;
pub mod closed_loop;
pub mod controller;
pub mod shadow;
pub mod swap;
pub mod watchdog;

pub use artifact::{
    load_model, load_model_for, peek_kind, save_model, ArtifactError, ArtifactKind, LoadedArtifact,
};
pub use closed_loop::{ClosedLoop, LoopModel, Subsystem, TimeWindow};
pub use controller::{
    LifecycleController, LifecycleTarget, LoopEvent, LoopRecord, EVENT_LOG_CAPACITY,
};
pub use shadow::ShadowStats;
pub use swap::{Generational, Pinned};
pub use watchdog::{Watchdog, WatchdogAction, WatchdogConfig};
