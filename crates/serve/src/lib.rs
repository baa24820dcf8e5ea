//! # em-serve — online matching over frozen workflow snapshots
//!
//! The case study ends with a *deployed* match list, but deployment is
//! where the paper's story begins again: new UMETRICS records keep
//! arriving (Section 10's "new data" complication), and re-running the
//! whole batch pipeline per record is wasteful. This crate turns the
//! trained batch workflow into an online service:
//!
//! - [`WorkflowSnapshot`]: the trained artifacts — blocking plan, feature
//!   plan, fitted model, rule set, threshold, and the right-hand corpus —
//!   frozen into one versioned text artifact. Loading a snapshot
//!   reproduces batch predictions **bit-identically**.
//! - [`MatchService`]: matches arriving records one at a time
//!   ([`MatchService::match_on_arrival`]) or as deterministic
//!   micro-batches ([`MatchService::match_batch`]), behind a bounded
//!   admission queue, with per-request stage timings. Blocking probes an
//!   [`em_blocking::IncrementalIndex`] — the batch join's bit-sliced index
//!   as sealed segments plus a tail, read through `&self` with nothing
//!   shared locked or written — plus hash-join indexes; the probe is
//!   property-tested equal to the nested-loop scan and the batch join
//!   whatever the index's push history.
//! - [`ServeError`]: typed failures — a corrupt or truncated snapshot is
//!   an error value (and is quarantined to `<path>.quarantined` by
//!   [`WorkflowSnapshot::load_quarantining`]), never a panic.
//!
//! ```
//! use em_serve::{MatchService, WorkflowSnapshot};
//! use em_core::pipeline::{CaseStudy, CaseStudyConfig};
//!
//! let artifacts = CaseStudy::new(CaseStudyConfig::small())
//!     .train_serving_artifacts()
//!     .unwrap();
//! let snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
//! let service = MatchService::from_snapshot(snapshot).unwrap();
//! let outcome = service.match_on_arrival(&artifacts.extra_umetrics, 0).unwrap();
//! assert!(outcome.n_blocked >= outcome.n_candidates);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod chaos;
pub mod error;
pub mod hot;
pub mod overload;
pub mod sched;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod swap;
#[doc(hidden)]
pub mod testkit;
pub mod wal;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use error::ServeError;
pub use hot::{derive_feature_mask, ProbeScratch};
pub use overload::{DrainOutcome, OverloadPolicy, ServeMode};
pub use sched::{BatchPolicy, BatchTrigger, ClosedBatch, MicroBatcher};
pub use service::{
    BatchOutcome, MatchOutcome, MatchService, RecoveryReport, RequestTimings, ServiceStats,
};
pub use shard::{shard_of_key, ShardStats, ShardedMatchService};
pub use snapshot::{quarantine_path, WorkflowSnapshot, SNAPSHOT_VERSION};
pub use swap::{GoldenProbeSet, SnapshotCell, SwapReport};
pub use wal::{read_wal, read_wal_text, WalReplay, WalWriter, WAL_VERSION};
