//! Experiment harness regenerating every table and figure of
//! *Cost-Effective Speculative Scheduling in High Performance Processors*
//! (Perais et al., ISCA 2015).
//!
//! * [`configs`] — the typed configuration name ([`ConfigSpec`]) and the
//!   paper's named machine configurations (`Baseline_*`, `SpecSched_*`,
//!   `_Shift`, `_Ctr`, `_Filter`, `_Combined`, `_Crit`) plus the
//!   DESIGN.md ablations.
//! * [`session`] — cached, fault-isolating simulation execution; a cell
//!   is identified by the canonical text of the request that names it.
//! * [`store`] — the on-disk results store: one checksummed file of
//!   `SimStats` per cell, addressed by that request text.
//! * [`exec`] — the parallel execution engine sharding the
//!   (configuration × benchmark) matrix across worker threads.
//! * [`experiments`] — one regenerator per table/figure; each returns a
//!   [`report::Report`] with the same rows/series the paper plots.
//! * [`journal`] — the crash-safe sweep journal: an fsync'd record of
//!   completed cells that lets a killed sweep resume without guesswork.
//! * [`fuzz`] — the deterministic differential fuzz campaign: random
//!   (config × kernel × fault plan) cells checked against the in-order
//!   golden model, with an automatic shrinker and repro files.
//! * [`snapfuzz`] — the snapshot-corruption fuzzer: seeded bit-flips,
//!   truncations, and section swaps against the checkpoint container,
//!   proving every corruption maps to a typed error.
//! * [`chaos`] — the `experiments chaos` fault-injection harness that
//!   proves the serve layer self-heals under seeded worker panics,
//!   client disconnects, protocol garbage, deadlines, and SIGKILL.
//! * [`serve`] — simulation-as-a-service: the `experiments serve`
//!   resident batch server executing [`ss_core::RunRequest`]s over a
//!   Unix-domain socket with priority queues, admission control, and a
//!   bounded in-memory results front that reads a sweep's results store
//!   lazily.
//! * [`report`] — tables, gmean, CSV.
//! * [`rvrun`] — the `experiments rvrun` subcommand: run a real RV32IM
//!   program from the `ss-frontend` suite through the pipeline under a
//!   configuration ladder with the commit oracle cross-checking every
//!   committed µ-op.
//! * [`tracecmd`] — the `experiments trace` subcommand: capture a µ-op
//!   window with the `ss-trace` observability sinks and render it as
//!   Perfetto JSON or an ASCII pipeview (including two-config diffs).
//!
//! The `experiments` binary drives everything:
//!
//! ```text
//! cargo run -r -p ss-harness --bin experiments -- all
//! cargo run -r -p ss-harness --bin experiments -- fig5 --quick
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod chaos;
pub mod configs;
pub mod energy;
pub mod exec;
pub mod experiments;
pub mod fuzz;
pub mod journal;
pub mod report;
pub mod rvrun;
pub mod serve;
pub mod session;
pub mod snapfuzz;
pub mod store;
pub mod tracecmd;

pub use configs::{ConfigFamily, ConfigSpec, ConfigVariant, NamedConfig};
pub use energy::EnergyModel;
pub use exec::{prewarm, PrewarmStats};
pub use fuzz::{FuzzCell, FuzzOptions, FuzzOutcome, FuzzReport};
pub use report::{gmean, Report, Table};
pub use serve::{ServeOptions, Server};
pub use session::{CellFailure, Session};
