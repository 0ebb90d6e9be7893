//! Structured failure taxonomy for the simulator.
//!
//! Every failure mode the workspace can detect maps to one [`SimError`]
//! variant, so the harness can isolate and report per-cell failures
//! instead of aborting an experiment sweep:
//!
//! * [`SimError::Deadlock`] — the watchdog saw no commit for
//!   `watchdog_cycles`; carries a [`DeadlockReport`] with the stuck
//!   window.
//! * [`SimError::InvariantViolation`] — the periodic invariant checker
//!   caught internal state corruption (occupancy counters vs structure
//!   contents, physical-register free-list leaks, replay-queue
//!   consistency) close to where it happened.
//! * [`SimError::ConfigInvalid`] — a [`SimConfig`](crate::SimConfig)
//!   failed [`try_validate`](crate::SimConfig::try_validate).
//! * [`SimError::CacheCorrupt`] — an on-disk stats-cache entry failed its
//!   version or checksum gate and will be re-simulated.
//! * [`SimError::TraceInvalid`] — a trace source handed the pipeline a
//!   malformed µ-op.
//! * [`SimError::Panicked`] — a cell panicked under `catch_unwind`
//!   (an internal bug, preserved so the sweep can continue).
//! * [`SimError::Divergence`] — the out-of-order commit stream differs
//!   from the in-order golden model; carries a [`DivergenceReport`] with
//!   the first diverging commit and a bounded context window.

use crate::commit::CommitRecord;
use crate::ids::Cycle;
use crate::trace::TraceEvent;
use std::fmt;

/// Renders a trailing trace window into a report body: one event per
/// line, oldest first, capped for readability.
fn fmt_trace_window(f: &mut fmt::Formatter<'_>, trace: &[TraceEvent]) -> fmt::Result {
    if trace.is_empty() {
        return Ok(());
    }
    writeln!(f, "\ntrailing trace window ({} events):", trace.len())?;
    for ev in trace {
        writeln!(f, "  {ev}")?;
    }
    Ok(())
}

/// A point-in-time view of pipeline occupancy, attached to deadlock and
/// invariant reports; the traced per-cycle `Occupancy` event is
/// [`PipelineSnapshot::occupancy`] of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineSnapshot {
    /// Current cycle.
    pub cycle: Cycle,
    /// Occupied reorder-buffer entries.
    pub rob: usize,
    /// Occupied issue-queue entries.
    pub iq: u32,
    /// Occupied load-queue entries.
    pub lq: u32,
    /// Occupied store-queue entries.
    pub sq: u32,
    /// µ-ops in the frontend pipe.
    pub frontend: usize,
    /// µ-ops waiting in the recovery buffer.
    pub recovery: usize,
    /// µ-ops in the issue-to-execute pipe.
    pub inflight: usize,
    /// Fetch currently on the wrong path.
    pub wrong_path: bool,
    /// Committed µ-ops so far.
    pub committed: u64,
    /// Issue events so far.
    pub issued: u64,
    /// Replayed µ-ops so far.
    pub replayed: u64,
}

impl PipelineSnapshot {
    /// The per-cycle [`TraceEvent::Occupancy`] sample of this view.
    pub fn occupancy(&self) -> TraceEvent {
        TraceEvent::Occupancy {
            cycle: self.cycle,
            rob: self.rob as u32,
            iq: self.iq,
            lq: self.lq,
            sq: self.sq,
            frontend: self.frontend as u32,
            recovery: self.recovery as u32,
            inflight: self.inflight as u32,
            wrong_path: self.wrong_path,
        }
    }
}

impl fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: rob={} iq={} lq={} sq={} frontend={} recovery={} inflight={} wp={} \
             committed={} issued={} replayed={}",
            self.cycle,
            self.rob,
            self.iq,
            self.lq,
            self.sq,
            self.frontend,
            self.recovery,
            self.inflight,
            self.wrong_path,
            self.committed,
            self.issued,
            self.replayed
        )
    }
}

/// Diagnostics for a watchdog-detected pipeline deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Occupancy at the moment the watchdog fired.
    pub snapshot: PipelineSnapshot,
    /// Cycles without a commit that triggered the watchdog.
    pub watchdog_cycles: u64,
    /// Human-readable picture of the stuck window (ROB head entries with
    /// their wake/avail times, recovery/inflight groups).
    pub detail: String,
    /// The most recent trace events before the watchdog fired, oldest
    /// first. Empty when the simulator ran with the no-op sink.
    pub trace: Vec<TraceEvent>,
    /// Path of the nearest state snapshot preceding the failure, when the
    /// run had checkpointing enabled. A repro can restore it and re-run
    /// only the tail instead of replaying from seq 0.
    pub checkpoint: Option<String>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline deadlock ({} cycles without a commit) at {}\n{}",
            self.watchdog_cycles, self.snapshot, self.detail
        )?;
        if let Some(cp) = &self.checkpoint {
            write!(f, "\nnearest checkpoint: {cp}")?;
        }
        fmt_trace_window(f, &self.trace)
    }
}

/// Diagnostics for an internal-consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Occupancy at the moment the check failed.
    pub snapshot: PipelineSnapshot,
    /// Which invariant failed, with expected-vs-actual values.
    pub what: String,
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violation at {}: {}", self.snapshot, self.what)
    }
}

/// Diagnostics for a commit-stream divergence from the golden model.
///
/// Produced by the `DiffChecker` in `ss-core` the first time the
/// out-of-order pipeline commits a µ-op that differs from what the
/// in-order oracle expects. Timing never appears in the comparison —
/// only the content and order of the commit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Occupancy at the diverging commit.
    pub snapshot: PipelineSnapshot,
    /// Commit-order index at which the streams first differ.
    pub seq: u64,
    /// What the golden model expected to commit at `seq`.
    pub expected: CommitRecord,
    /// What the pipeline actually committed at `seq`.
    pub actual: CommitRecord,
    /// The last N pipeline commits before the divergence (bounded by the
    /// `commit_log_window` config knob), oldest first.
    pub recent: Vec<CommitRecord>,
    /// Human-readable dump of in-flight scheduler/replay state at the
    /// diverging commit (ROB head entries, recovery/inflight groups).
    pub detail: String,
    /// The most recent trace events before the divergence, oldest first.
    /// Empty when the simulator ran with the no-op sink.
    pub trace: Vec<TraceEvent>,
    /// Path of the nearest state snapshot preceding the failure, when the
    /// run had checkpointing enabled (see [`DeadlockReport::checkpoint`]).
    pub checkpoint: Option<String>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "commit-stream divergence at commit #{}: expected [{}], got [{}] ({})",
            self.seq, self.expected, self.actual, self.snapshot
        )?;
        if !self.recent.is_empty() {
            writeln!(f, "last {} commits before divergence:", self.recent.len())?;
            for r in &self.recent {
                writeln!(f, "  {r}")?;
            }
        }
        f.write_str(&self.detail)?;
        if let Some(cp) = &self.checkpoint {
            write!(f, "\nnearest checkpoint: {cp}")?;
        }
        fmt_trace_window(f, &self.trace)
    }
}

/// The structured error type of the whole workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The pipeline stopped committing (watchdog fired).
    Deadlock(Box<DeadlockReport>),
    /// Internal state corruption caught by the invariant checker.
    InvariantViolation(InvariantReport),
    /// A machine configuration is internally inconsistent.
    ConfigInvalid(String),
    /// An on-disk stats-cache entry is stale or corrupt.
    CacheCorrupt {
        /// Path of the offending cache file.
        path: String,
        /// Why it was rejected (version mismatch, checksum, parse).
        reason: String,
    },
    /// A trace source produced a malformed µ-op.
    TraceInvalid {
        /// PC of the offending µ-op.
        pc: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A simulation cell panicked (caught by the harness).
    Panicked(String),
    /// The commit stream diverged from the in-order golden model.
    Divergence(Box<DivergenceReport>),
    /// A state snapshot failed its checksum/structure gate (torn write,
    /// bit rot, tampering). The file is quarantined, never trusted.
    SnapshotCorrupt {
        /// Path of the offending snapshot (`<memory>` for in-memory ops).
        path: String,
        /// Why decoding was rejected.
        reason: String,
    },
    /// A state snapshot was written by an incompatible format version.
    SnapshotVersionMismatch {
        /// Path of the offending snapshot.
        path: String,
        /// Version stamped in the snapshot header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The run was cancelled cooperatively (its
    /// [`CancelFlag`](crate::CancelFlag) fired between measurement
    /// chunks). `committed` records how far the measurement got.
    Cancelled {
        /// Committed µ-ops measured before the cancellation took effect.
        committed: u64,
    },
    /// The serve layer refused admission: its bounded request queue was
    /// full. Clients should back off and retry — never a hang.
    Overloaded {
        /// Pending requests at the time of rejection.
        depth: usize,
        /// The server's admission limit.
        limit: usize,
    },
    /// The run's wall-clock deadline expired before it finished (checked
    /// between measurement chunks, like [`SimError::Cancelled`]). A
    /// wedged or pathologically slow simulation can pin a serve worker
    /// for at most one deadline, never forever.
    DeadlineExceeded {
        /// Committed µ-ops executed before the deadline fired.
        committed: u64,
        /// The wall-clock budget that expired, in milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(r) => write!(f, "{r}"),
            SimError::InvariantViolation(r) => write!(f, "{r}"),
            SimError::ConfigInvalid(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::CacheCorrupt { path, reason } => {
                write!(f, "corrupt stats cache {path}: {reason}")
            }
            SimError::TraceInvalid { pc, reason } => {
                write!(f, "invalid µ-op at pc {pc:#x}: {reason}")
            }
            SimError::Panicked(msg) => write!(f, "simulation panicked: {msg}"),
            SimError::Divergence(r) => write!(f, "{r}"),
            SimError::SnapshotCorrupt { path, reason } => {
                write!(f, "corrupt snapshot {path}: {reason}")
            }
            SimError::SnapshotVersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "snapshot version mismatch {path}: found v{found}, this build reads v{expected}"
            ),
            SimError::Cancelled { committed } => {
                write!(f, "run cancelled after {committed} measured µ-ops")
            }
            SimError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "server overloaded: {depth} requests pending at limit {limit}"
                )
            }
            SimError::DeadlineExceeded {
                committed,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded after {committed} committed µ-ops (budget {budget_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let snap = PipelineSnapshot {
            rob: 3,
            ..Default::default()
        };
        let cases: Vec<(SimError, &str)> = vec![
            (
                SimError::Deadlock(Box::new(DeadlockReport {
                    snapshot: snap,
                    watchdog_cycles: 100,
                    detail: "rob head".into(),
                    trace: vec![],
                    checkpoint: Some("warm/x.snap".into()),
                })),
                "deadlock",
            ),
            (
                SimError::InvariantViolation(InvariantReport {
                    snapshot: snap,
                    what: "iq_used 3 != 2".into(),
                }),
                "invariant",
            ),
            (
                SimError::ConfigInvalid("zero width".into()),
                "invalid configuration",
            ),
            (
                SimError::CacheCorrupt {
                    path: "x.kv".into(),
                    reason: "checksum".into(),
                },
                "corrupt stats cache",
            ),
            (
                SimError::TraceInvalid {
                    pc: 0x40,
                    reason: "no payload".into(),
                },
                "invalid µ-op",
            ),
            (SimError::Panicked("boom".into()), "panicked"),
            (
                SimError::Divergence(Box::new(DivergenceReport {
                    snapshot: snap,
                    seq: 12,
                    expected: CommitRecord {
                        seq: 12,
                        pc: crate::ids::Pc::new(0x40),
                        kind: crate::op::OpClass::Load,
                        dst: None,
                    },
                    actual: CommitRecord {
                        seq: 12,
                        pc: crate::ids::Pc::new(0x44),
                        kind: crate::op::OpClass::IntAlu,
                        dst: None,
                    },
                    recent: vec![],
                    detail: "rob head".into(),
                    trace: vec![],
                    checkpoint: None,
                })),
                "divergence",
            ),
            (
                SimError::SnapshotCorrupt {
                    path: "warm/x.snap".into(),
                    reason: "checksum mismatch".into(),
                },
                "corrupt snapshot",
            ),
            (
                SimError::SnapshotVersionMismatch {
                    path: "warm/x.snap".into(),
                    found: 9,
                    expected: 1,
                },
                "version mismatch",
            ),
            (SimError::Cancelled { committed: 1234 }, "cancelled"),
            (
                SimError::Overloaded {
                    depth: 64,
                    limit: 64,
                },
                "overloaded",
            ),
            (
                SimError::DeadlineExceeded {
                    committed: 9_000,
                    budget_ms: 50,
                },
                "deadline exceeded",
            ),
        ];
        for (e, needle) in cases {
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn checkpoint_path_is_rendered_when_present() {
        let report = DeadlockReport {
            snapshot: PipelineSnapshot::default(),
            watchdog_cycles: 10,
            detail: String::new(),
            trace: vec![],
            checkpoint: Some("ckpt/warm/cell.snap".into()),
        };
        assert!(report
            .to_string()
            .contains("nearest checkpoint: ckpt/warm/cell.snap"));
        let no_cp = DeadlockReport {
            checkpoint: None,
            ..report
        };
        assert!(!no_cp.to_string().contains("nearest checkpoint"));
    }

    #[test]
    fn snapshot_display_names_structures() {
        let s = PipelineSnapshot {
            rob: 5,
            iq: 2,
            ..Default::default()
        }
        .to_string();
        assert!(s.contains("rob=5") && s.contains("iq=2"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::ConfigInvalid("x".into()));
        assert!(e.to_string().contains("x"));
    }
}
