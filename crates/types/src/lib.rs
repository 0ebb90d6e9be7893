//! Shared vocabulary for the speculative-scheduling simulator workspace.
//!
//! This crate defines the types every other crate speaks in:
//!
//! * [`ids`] — newtyped identifiers ([`Cycle`], [`Addr`], [`Pc`], [`SeqNum`],
//!   register indices) so cycles, addresses, and indices cannot be confused.
//! * [`op`] — the µ-op classification ([`OpClass`]) and execution-port model
//!   used by the issue stage.
//! * [`config`] — the full machine description ([`SimConfig`]) with a
//!   builder, defaulting to the paper's Table 1 configuration.
//! * [`config_spec`] — the typed configuration-name grammar
//!   ([`ConfigSpec`]: `Baseline_4`, `SpecSched_4_Crit`, …) shared by the
//!   harness, the cache keys, and the serve wire protocol.
//! * [`stats`] — the statistics block ([`SimStats`]) every experiment reads,
//!   including the paper's `Unique` / `RpldMiss` / `RpldBank` issue
//!   breakdown.
//! * [`ready`] — event-driven scheduler primitives ([`SeqBitmap`],
//!   [`WakeHeap`], [`EpochRing`], [`VecPool`]) backing the pipeline's
//!   incrementally-maintained ready queue.
//! * [`replay`] — the replay-cause taxonomy ([`ReplayCause`]).
//! * [`error`] — the structured failure taxonomy ([`SimError`]) and the
//!   [`PipelineSnapshot`] attached to deadlock/invariant reports.
//! * [`commit`] — the canonical commit-log record ([`CommitRecord`]) and
//!   the [`CommitOracle`] contract the differential checker compares the
//!   pipeline against.
//! * [`rng`] — vendored SplitMix64 / xoshiro256** PRNGs so the workspace
//!   builds with no external dependencies.
//! * [`exec`] — a std-only scoped-thread worker pool ([`WorkQueue`],
//!   [`CancelFlag`]) the harness shards the experiment matrix with.
//!
//! # Example
//!
//! ```
//! use ss_types::{SimConfig, SchedPolicyKind};
//!
//! let cfg = SimConfig::builder()
//!     .issue_to_execute_delay(4)
//!     .banked_l1d(true)
//!     .sched_policy(SchedPolicyKind::AlwaysHit)
//!     .build();
//! assert_eq!(cfg.issue_to_execute_delay, 4);
//! assert_eq!(cfg.frontend_depth(), 11); // 15 - 4, constant branch penalty
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod commit;
pub mod config;
pub mod config_spec;
pub mod error;
pub mod exec;
pub mod ids;
pub mod op;
pub mod persist;
pub mod ready;
pub mod replay;
pub mod rng;
pub mod stats;
pub mod trace;

pub use backoff::Backoff;
pub use commit::{CommitOracle, CommitRecord};
pub use config::{
    BankInterleaving, BankedL1dConfig, CacheGeometry, CritCriterion, DegradeConfig, DramConfig,
    PredictorConfig, PrfBankConfig, ReplayScheme, SchedPolicyKind, ShiftPolicy, SimConfig,
    SimConfigBuilder,
};
pub use config_spec::{ConfigFamily, ConfigSpec, ConfigVariant, NamedConfig, ParseConfigError};
pub use error::{DeadlockReport, DivergenceReport, InvariantReport, PipelineSnapshot, SimError};
pub use exec::{BoundedMap, CancelFlag, CostEma, PrioQueue, Priority, PushError, WorkQueue};
pub use ids::{Addr, ArchReg, Cycle, Pc, PhysReg, SeqNum};
pub use op::{BranchKind, ExecPort, OpClass, RegClass};
pub use persist::{DecodeError, Persist, PersistState, Reader, Writer};
pub use ready::{EpochRing, SeqBitmap, VecPool, WakeHeap};
pub use replay::ReplayCause;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::{CacheStats, SimStats};
pub use trace::{CaptureSink, NullSink, TraceEvent, TraceSink};
