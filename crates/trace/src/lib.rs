//! Pipeline observability: trace sinks, Perfetto export, and a
//! Konata-style ASCII pipeview.
//!
//! The event vocabulary, the [`TraceSink`] contract and the one
//! capturing sink live in [`ss_types::trace`]; the pipeline in `ss-core`
//! feeds whatever sink it is monomorphized with. This crate re-exports
//! them and supplies the renderers that turn a captured event stream
//! into something a human can read:
//!
//! * [`CaptureSink`] — the one capturing sink, a bounded ring of the
//!   newest events or every event of a µ-op sequence window
//!   (re-exported from `ss-types`, where the runner in `ss-core` uses
//!   it too).
//! * [`perfetto::export_chrome_trace`] — Chrome-trace-event JSON
//!   (`chrome://tracing`, [Perfetto](https://ui.perfetto.dev)): one
//!   track per pipeline stage, counter tracks for occupancy, and flow
//!   events linking a replay-triggering load to every squashed
//!   dependent.
//! * [`pipeview`] — gem5-O3/Konata-style ASCII rendering of per-µ-op
//!   stage timelines, plus a two-config differ for terminal A/B reading
//!   of the same kernel window.
//! * [`json`] — a minimal hand-rolled JSON parser (the workspace has no
//!   external dependencies) used by
//!   [`json::validate_chrome_trace`] to schema-check exported traces in
//!   tests and CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod perfetto;
pub mod pipeview;

// Re-export the vocabulary so sink users need only one crate.
pub use ss_types::trace::{CaptureSink, NullSink, TraceEvent, TraceSink};
