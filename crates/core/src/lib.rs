//! The cycle-level out-of-order pipeline simulator — the machine on which
//! the paper's speculative-scheduling study runs.
//!
//! The model reproduces Table 1 of Perais et al. (ISCA 2015): an 8-wide
//! frontend / 6-issue superscalar with a 192-entry ROB, a unified
//! 60-entry issue queue, 72/48-entry load/store queues, 256+256 physical
//! registers, TAGE + BTB + RAS, Store Sets, a banked L1D behind a
//! conflict-queue arbiter, an L2 with a stride prefetcher, and a DDR3
//! memory channel. The issue-to-execute delay is configurable (the
//! paper's sweep: 0, 2, 4, 6), the frontend shrinking to keep the branch
//! misprediction penalty constant.
//!
//! Speculative scheduling, the replay mechanism (Alpha-21264-style squash
//! with a Morancho-style recovery buffer), Schedule Shifting, and the
//! hit/miss / criticality wakeup policies are all driven from here.
//!
//! # Example
//!
//! Every way to run the machine goes through one builder,
//! [`RunRequest`]:
//!
//! ```
//! use ss_core::{RunLength, RunRequest};
//! use ss_types::{SchedPolicyKind, SimConfig};
//! use ss_workloads::kernels;
//!
//! let cfg = SimConfig::builder()
//!     .issue_to_execute_delay(4)
//!     .sched_policy(SchedPolicyKind::AlwaysHit)
//!     .build();
//! let outcome = RunRequest::kernel(kernels::fp_compute(1))
//!     .custom_config(cfg)
//!     .length(RunLength::SMOKE)
//!     .execute()
//!     .unwrap();
//! assert!(outcome.stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code must surface failures as `SimError`, never `unwrap()`.
// The remaining `expect()` sites in `pipeline/` assert internal
// invariants that `FetchedUop::validate` guarantees at the fetch
// boundary (malformed traces become `SimError::TraceInvalid` there).
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod diff;
pub mod fault;
pub mod pipeline;
pub mod rename;
pub mod runner;
pub mod schedq;
pub mod window;

pub use diff::DiffChecker;
pub use fault::{FaultKind, FaultPlan, FaultWindow};
pub use pipeline::{
    config_fingerprint, load_snapshot, sections, PipelineSnapshot, Simulator, WorkCounts,
};
pub use rename::{PhysRef, RenameUnit};
pub use runner::{ParseRequestError, RunLength, RunOutcome, RunRequest, RunSource};
pub use schedq::SchedQueue;
pub use ss_types::trace::{NullSink, TraceEvent, TraceSink};
pub use window::{FetchedUop, RobEntry, UopState};
