//! Cycle-accurate pipeline-observability events and the sink contract.
//!
//! The pipeline in `ss-core` is instrumented at every stage boundary with
//! calls into a [`TraceSink`]. The sink is a *compile-time* strategy: the
//! simulator is generic over it, and the no-op [`NullSink`] advertises
//! `ENABLED = false`, so every instrumentation site (`if S::ENABLED {
//! sink.record(..) }`) monomorphizes away entirely — an untraced build
//! pays zero cycles and zero bytes for the subsystem.
//!
//! The event taxonomy follows one µ-op through its lifecycle:
//!
//! | event | meaning |
//! |---|---|
//! | [`TraceEvent::Fetch`] | entered the frontend (back-dated to the fetch cycle; recorded once the µ-op reaches dispatch and has a sequence number) |
//! | [`TraceEvent::Rename`] | renamed and inserted into ROB/IQ/LSQ |
//! | [`TraceEvent::SpecWakeup`] | a load issued with a *speculative* wakeup of its dependents at the recorded cycle |
//! | [`TraceEvent::Issue`] | selected by the scheduler (or replayed from the recovery buffer) |
//! | [`TraceEvent::Execute`] | reached the execution stage with verified operands |
//! | [`TraceEvent::ReplaySquash`] | squashed between issue and execute by a schedule misspeculation, with the [`ReplayCause`] and the triggering µ-op |
//! | [`TraceEvent::RecoveryEnter`] | reinserted into the Morancho-style recovery buffer |
//! | [`TraceEvent::Commit`] | retired from the ROB head |
//! | [`TraceEvent::Flush`] | discarded by a branch-misprediction flush |
//! | [`TraceEvent::Occupancy`] | per-cycle structure occupancy (ROB/IQ/LQ/SQ/recovery/in-flight) |
//!
//! Memory-order-violation squashes are not a separate event: the load's
//! re-issue appears as a fresh [`TraceEvent::Issue`], and the violating
//! window's recycling shows up through the ordinary issue/execute events.
//!
//! Events are emitted in *discovery* order, which is not globally sorted
//! by cycle (a `Fetch` is back-dated once its µ-op reaches dispatch). The
//! `cycle` field is authoritative; consumers sort or bucket by it.
//!
//! Every event has a stable single-line text encoding ([`fmt::Display`]),
//! printed in failure reports and hashed by the golden trace-stream
//! digest.
//!
//! [`CaptureSink`] is the one sink that keeps events: a bounded ring of
//! the newest events (fuzzing, failure reports) or every event of a
//! µ-op sequence window (the `trace` renderers). It lives here, next to
//! [`NullSink`], so the runner in `ss-core` captures with the same type
//! the renderers read.

use crate::ids::{Cycle, Pc, SeqNum};
use crate::op::{BranchKind, OpClass};
use crate::replay::ReplayCause;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// One structured pipeline-observability event.
///
/// `Copy` and small by design: hot-path sinks store these in a ring by
/// value, with no allocation per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// µ-op entered the frontend at `cycle` (recorded at dispatch, when
    /// the sequence number exists; the cycle is the original fetch
    /// cycle). Wrong-path µ-ops that die in the frontend before dispatch
    /// are never traced.
    Fetch {
        /// Fetch cycle (back-dated).
        cycle: Cycle,
        /// Dynamic sequence number. Reused by the refetched correct path
        /// after a branch flush; renderers treat a repeated `Fetch` for
        /// the same seq as a new generation.
        seq: SeqNum,
        /// Program counter.
        pc: Pc,
        /// µ-op class.
        class: OpClass,
        /// Fetched past an unresolved mispredicted branch.
        wrong_path: bool,
    },
    /// µ-op renamed and dispatched into the ROB/IQ (and LQ/SQ for memory
    /// µ-ops).
    Rename {
        /// Dispatch cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
    },
    /// A load issued with a speculative wakeup: its dependents will be
    /// selectable at `wake`, before the load's hit/miss outcome is known.
    SpecWakeup {
        /// Issue cycle of the load.
        cycle: Cycle,
        /// The load's sequence number.
        seq: SeqNum,
        /// Cycle its dependents become selectable.
        wake: Cycle,
    },
    /// µ-op selected for issue.
    Issue {
        /// Issue cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
        /// Issued out of the recovery buffer (a replay) rather than the
        /// scheduler's IQ scan.
        from_recovery: bool,
    },
    /// µ-op reached the execution stage with all operands available.
    Execute {
        /// Execution cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
        /// Completion cycle (result available / commit-eligible).
        done_at: Cycle,
    },
    /// µ-op squashed between issue and execute by a schedule
    /// misspeculation.
    ReplaySquash {
        /// Squash cycle.
        cycle: Cycle,
        /// The squashed µ-op.
        seq: SeqNum,
        /// The µ-op that triggered the replay: the late-producing load
        /// when it can be identified, otherwise the µ-op that failed
        /// operand verification at execute.
        trigger: SeqNum,
        /// Why the replay happened.
        cause: ReplayCause,
    },
    /// µ-op reinserted into the recovery buffer to await replay
    /// (non-memory µ-ops; memory µ-ops retain their IQ entry instead).
    RecoveryEnter {
        /// Reinsertion cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
    },
    /// µ-op retired from the ROB head.
    Commit {
        /// Commit cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
    },
    /// µ-op discarded by a branch-misprediction flush (its sequence
    /// number will be reused by the refetched path).
    Flush {
        /// Flush cycle.
        cycle: Cycle,
        /// Dynamic sequence number.
        seq: SeqNum,
    },
    /// Per-cycle occupancy of the pipeline structures.
    Occupancy {
        /// Sampled cycle.
        cycle: Cycle,
        /// Occupied ROB entries.
        rob: u32,
        /// Occupied IQ entries.
        iq: u32,
        /// Occupied LQ entries.
        lq: u32,
        /// Occupied SQ entries.
        sq: u32,
        /// µ-ops in the frontend pipe (fetched, not yet dispatched).
        frontend: u32,
        /// µ-ops waiting in the recovery buffer.
        recovery: u32,
        /// µ-ops in the issue-to-execute pipe.
        inflight: u32,
        /// Fetch is on a mispredicted branch's wrong path.
        wrong_path: bool,
    },
}

impl TraceEvent {
    /// The cycle this event is stamped with.
    pub fn cycle(&self) -> Cycle {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Rename { cycle, .. }
            | TraceEvent::SpecWakeup { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Execute { cycle, .. }
            | TraceEvent::ReplaySquash { cycle, .. }
            | TraceEvent::RecoveryEnter { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Flush { cycle, .. }
            | TraceEvent::Occupancy { cycle, .. } => cycle,
        }
    }

    /// The µ-op this event belongs to (`None` for per-cycle occupancy
    /// samples).
    pub fn seq(&self) -> Option<SeqNum> {
        match *self {
            TraceEvent::Fetch { seq, .. }
            | TraceEvent::Rename { seq, .. }
            | TraceEvent::SpecWakeup { seq, .. }
            | TraceEvent::Issue { seq, .. }
            | TraceEvent::Execute { seq, .. }
            | TraceEvent::ReplaySquash { seq, .. }
            | TraceEvent::RecoveryEnter { seq, .. }
            | TraceEvent::Commit { seq, .. }
            | TraceEvent::Flush { seq, .. } => Some(seq),
            TraceEvent::Occupancy { .. } => None,
        }
    }

    /// Short stable stage tag (also the first token of the text
    /// encoding).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "F",
            TraceEvent::Rename { .. } => "D",
            TraceEvent::SpecWakeup { .. } => "W",
            TraceEvent::Issue { .. } => "I",
            TraceEvent::Execute { .. } => "E",
            TraceEvent::ReplaySquash { .. } => "R",
            TraceEvent::RecoveryEnter { .. } => "V",
            TraceEvent::Commit { .. } => "C",
            TraceEvent::Flush { .. } => "X",
            TraceEvent::Occupancy { .. } => "O",
        }
    }

    /// Human-readable stage name (Perfetto track names, report text).
    pub fn stage_name(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::Rename { .. } => "rename",
            TraceEvent::SpecWakeup { .. } => "spec-wakeup",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Execute { .. } => "execute",
            TraceEvent::ReplaySquash { .. } => "replay-squash",
            TraceEvent::RecoveryEnter { .. } => "recovery",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::Occupancy { .. } => "occupancy",
        }
    }
}

/// Compact stable code for a µ-op class (trace text encoding).
pub fn class_code(class: OpClass) -> &'static str {
    match class {
        OpClass::IntAlu => "alu",
        OpClass::IntMul => "mul",
        OpClass::IntDiv => "div",
        OpClass::FpAlu => "fpalu",
        OpClass::FpMul => "fpmul",
        OpClass::FpDiv => "fpdiv",
        OpClass::Load => "ld",
        OpClass::Store => "st",
        OpClass::Branch(BranchKind::Conditional) => "br.c",
        OpClass::Branch(BranchKind::Direct) => "br.d",
        OpClass::Branch(BranchKind::Indirect) => "br.i",
        OpClass::Branch(BranchKind::Call) => "br.call",
        OpClass::Branch(BranchKind::Return) => "br.ret",
    }
}

/// Stable code for a replay cause (trace text encoding).
fn cause_code(cause: ReplayCause) -> &'static str {
    match cause {
        ReplayCause::L1Miss => "miss",
        ReplayCause::BankConflict => "bank",
        ReplayCause::PrfConflict => "prf",
    }
}

impl fmt::Display for TraceEvent {
    /// The stable one-line text encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Fetch {
                cycle,
                seq,
                pc,
                class,
                wrong_path,
            } => write!(
                f,
                "F c={} s={} pc={:#x} cl={} wp={}",
                cycle.get(),
                seq.get(),
                pc.get(),
                class_code(class),
                u8::from(wrong_path)
            ),
            TraceEvent::Rename { cycle, seq } => write!(f, "D c={} s={}", cycle.get(), seq.get()),
            TraceEvent::SpecWakeup { cycle, seq, wake } => {
                write!(f, "W c={} s={} wake={}", cycle.get(), seq.get(), wake.get())
            }
            TraceEvent::Issue {
                cycle,
                seq,
                from_recovery,
            } => write!(
                f,
                "I c={} s={} rec={}",
                cycle.get(),
                seq.get(),
                u8::from(from_recovery)
            ),
            TraceEvent::Execute {
                cycle,
                seq,
                done_at,
            } => write!(
                f,
                "E c={} s={} done={}",
                cycle.get(),
                seq.get(),
                done_at.get()
            ),
            TraceEvent::ReplaySquash {
                cycle,
                seq,
                trigger,
                cause,
            } => write!(
                f,
                "R c={} s={} trig={} cause={}",
                cycle.get(),
                seq.get(),
                trigger.get(),
                cause_code(cause)
            ),
            TraceEvent::RecoveryEnter { cycle, seq } => {
                write!(f, "V c={} s={}", cycle.get(), seq.get())
            }
            TraceEvent::Commit { cycle, seq } => write!(f, "C c={} s={}", cycle.get(), seq.get()),
            TraceEvent::Flush { cycle, seq } => write!(f, "X c={} s={}", cycle.get(), seq.get()),
            TraceEvent::Occupancy {
                cycle,
                rob,
                iq,
                lq,
                sq,
                frontend,
                recovery,
                inflight,
                wrong_path,
            } => write!(
                f,
                "O c={} rob={rob} iq={iq} lq={lq} sq={sq} front={frontend} rec={recovery} \
                 inf={inflight} wp={}",
                cycle.get(),
                u8::from(wrong_path)
            ),
        }
    }
}

/// The sink contract the pipeline's instrumentation feeds.
///
/// Implementations decide what to keep ([`CaptureSink`] keeps a ring or
/// a window; its [`recent`] feeds failure reports). The simulator is
/// generic over the sink, so the
/// [`NullSink`]'s `ENABLED = false` removes every instrumentation site at
/// monomorphization time.
///
/// [`recent`]: TraceSink::recent
pub trait TraceSink {
    /// Compile-time enable flag. Every instrumentation site is guarded
    /// by `if S::ENABLED`, so a `false` here makes tracing free.
    const ENABLED: bool = true;

    /// Records one event. Called on the simulation hot path; keep it
    /// allocation-free where possible.
    fn record(&mut self, ev: TraceEvent);

    /// A snapshot of the most recent events, oldest first. Attached to
    /// [`DeadlockReport`](crate::DeadlockReport) and
    /// [`DivergenceReport`](crate::DivergenceReport) so failures come
    /// with a replayable pipeline picture. Unbounded sinks may return a
    /// bounded tail.
    fn recent(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The zero-cost disabled sink: `ENABLED = false` compiles every
/// instrumentation site out of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// The capturing sink: a bounded ring of the newest events, or every
/// event of a half-open µ-op sequence window.
///
/// Both modes follow one rule. An event is kept when its µ-op sequence
/// number falls in `window` (per-cycle [`TraceEvent::Occupancy`] samples
/// carry none and always pass), and once `capacity` events are held the
/// oldest is evicted. A [`ring`](CaptureSink::ring) keeps the whole
/// sequence space; a [`window`](CaptureSink::with_window) has no
/// capacity bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    window: Range<u64>,
}

impl CaptureSink {
    /// Default ring capacity: enough to cover several hundred cycles of a
    /// wide pipeline around a failure.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A flight recorder holding the newest `capacity` events (min 1).
    pub fn ring(capacity: usize) -> Self {
        CaptureSink {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            window: 0..u64::MAX,
        }
    }

    /// Every event whose µ-op sequence number falls in `window`
    /// (half-open), plus all occupancy samples.
    pub fn with_window(window: Range<u64>) -> Self {
        CaptureSink {
            events: VecDeque::new(),
            capacity: usize::MAX,
            window,
        }
    }

    /// Consumes the sink, returning the held events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, ev: TraceEvent) {
        if ev.seq().is_some_and(|s| !self.window.contains(&s.get())) {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }

    /// Every held event, oldest first (the run's whole capture).
    fn recent(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }
}

/// The canonical request token: `ring:{capacity}` or `win:{lo}..{hi}`.
impl fmt::Display for CaptureSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.capacity == usize::MAX {
            write!(f, "win:{}..{}", self.window.start, self.window.end)
        } else {
            write!(f, "ring:{}", self.capacity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fetch {
                cycle: Cycle::new(10),
                seq: SeqNum::new(3),
                pc: Pc::new(0x4a0),
                class: OpClass::Load,
                wrong_path: false,
            },
            TraceEvent::Rename {
                cycle: Cycle::new(14),
                seq: SeqNum::new(3),
            },
            TraceEvent::SpecWakeup {
                cycle: Cycle::new(20),
                seq: SeqNum::new(3),
                wake: Cycle::new(24),
            },
            TraceEvent::Issue {
                cycle: Cycle::new(20),
                seq: SeqNum::new(3),
                from_recovery: true,
            },
            TraceEvent::Execute {
                cycle: Cycle::new(25),
                seq: SeqNum::new(3),
                done_at: Cycle::new(29),
            },
            TraceEvent::ReplaySquash {
                cycle: Cycle::new(25),
                seq: SeqNum::new(5),
                trigger: SeqNum::new(3),
                cause: ReplayCause::BankConflict,
            },
            TraceEvent::RecoveryEnter {
                cycle: Cycle::new(25),
                seq: SeqNum::new(5),
            },
            TraceEvent::Commit {
                cycle: Cycle::new(31),
                seq: SeqNum::new(3),
            },
            TraceEvent::Flush {
                cycle: Cycle::new(40),
                seq: SeqNum::new(9),
            },
            TraceEvent::Occupancy {
                cycle: Cycle::new(41),
                rob: 100,
                iq: 30,
                lq: 12,
                sq: 8,
                frontend: 16,
                recovery: 2,
                inflight: 6,
                wrong_path: true,
            },
        ]
    }

    #[test]
    fn text_encoding_is_one_tagged_line_per_variant() {
        for ev in sample_events() {
            let line = ev.to_string();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(line.split_whitespace().next(), Some(ev.tag()), "{line}");
            assert!(line.contains(&format!("c={}", ev.cycle().get())), "{line}");
        }
    }

    #[test]
    fn class_codes_are_distinct() {
        use OpClass::*;
        let codes: std::collections::HashSet<_> = [
            IntAlu,
            IntMul,
            IntDiv,
            FpAlu,
            FpMul,
            FpDiv,
            Load,
            Store,
            Branch(BranchKind::Conditional),
            Branch(BranchKind::Direct),
            Branch(BranchKind::Indirect),
            Branch(BranchKind::Call),
            Branch(BranchKind::Return),
        ]
        .into_iter()
        .map(class_code)
        .collect();
        assert_eq!(codes.len(), 13);
    }

    #[test]
    fn accessors_cover_every_variant() {
        for ev in sample_events() {
            assert!(!ev.tag().is_empty());
            assert!(!ev.stage_name().is_empty());
            let _ = ev.cycle();
            match ev {
                TraceEvent::Occupancy { .. } => assert!(ev.seq().is_none()),
                _ => assert!(ev.seq().is_some()),
            }
        }
    }

    #[test]
    fn null_sink_is_disabled_and_inert() {
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink;
        s.record(TraceEvent::Commit {
            cycle: Cycle::new(1),
            seq: SeqNum::new(1),
        });
        assert!(s.recent().is_empty());
    }

    fn commit(n: u64) -> TraceEvent {
        TraceEvent::Commit {
            cycle: Cycle::new(n),
            seq: SeqNum::new(n),
        }
    }

    #[test]
    fn ring_keeps_newest() {
        let mut r = CaptureSink::ring(3);
        assert!(r.recent().is_empty());
        for n in 0..5 {
            r.record(commit(n));
        }
        let recent = r.recent();
        assert_eq!(recent, vec![commit(2), commit(3), commit(4)]);
        assert_eq!(r.into_events(), recent);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = CaptureSink::ring(0);
        r.record(commit(1));
        assert_eq!(r.recent(), vec![commit(1)]);
        assert_eq!(r.to_string(), "ring:1");
    }

    #[test]
    fn capture_sink_is_enabled() {
        const { assert!(CaptureSink::ENABLED) };
    }

    #[test]
    fn full_window_keeps_everything() {
        let mut c = CaptureSink::with_window(0..u64::MAX);
        for n in 0..10 {
            c.record(commit(n));
        }
        assert_eq!(c.recent().len(), 10);
        assert_eq!(c.into_events().len(), 10);
    }

    #[test]
    fn window_filters_by_seq_but_keeps_occupancy() {
        let mut c = CaptureSink::with_window(3..6);
        for n in 0..10 {
            c.record(commit(n));
        }
        c.record(TraceEvent::Occupancy {
            cycle: Cycle::new(99),
            rob: 1,
            iq: 1,
            lq: 0,
            sq: 0,
            frontend: 0,
            recovery: 0,
            inflight: 0,
            wrong_path: false,
        });
        assert_eq!(c.to_string(), "win:3..6");
        let events = c.into_events();
        let seqs: Vec<_> = events
            .iter()
            .filter_map(|e| e.seq().map(|s| s.get()))
            .collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert_eq!(events.len(), 4, "occupancy sample retained");
    }
}
