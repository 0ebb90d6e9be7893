//! The instruction window: per-µ-op state carried from dispatch to commit.
//!
//! Entries carry no branch-prediction state: the direction metadata of
//! in-flight correct-path branches waits, in program order, in the
//! simulator's own queue, and the predictor keeps the one repair point a
//! misprediction needs.

use crate::rename::PhysRef;
use ss_isa::MicroOp;
use ss_types::{Cycle, SeqNum};

/// Scheduling state of a window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopState {
    /// Dispatched; waiting in the IQ or the recovery buffer to (re-)issue.
    Waiting,
    /// Issued; traversing the issue-to-execute pipe.
    InFlight,
    /// Executed successfully; waiting to commit (`done_at` valid).
    Done,
}

/// One µ-op in the reorder buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RobEntry {
    /// Dynamic sequence number (unique, program order).
    pub seq: SeqNum,
    /// The trace record.
    pub uop: MicroOp,
    /// Fetched past an unresolved mispredicted branch.
    pub wrong_path: bool,
    /// Scheduling state.
    pub state: UopState,
    /// Destination rename: `(new, previous)` mapping.
    pub dst: Option<(PhysRef, PhysRef)>,
    /// Renamed sources.
    pub srcs: [Option<PhysRef>; 2],
    /// Cycle of the most recent issue.
    pub issue_cycle: Cycle,
    /// Times issued (first issue counts toward `Unique`).
    pub times_issued: u32,
    /// Completion cycle (valid once `state == Done`).
    pub done_at: Cycle,
    /// Currently occupies an IQ entry.
    pub holds_iq: bool,
    /// Sits in the recovery buffer awaiting replay.
    pub in_recovery: bool,
    /// Fetch-time knowledge: this branch was mispredicted.
    pub mispredicted: bool,
    /// Direction (vs target) was the wrong part.
    pub dir_wrong: bool,
    /// The misprediction has been resolved (flush already performed).
    pub mispred_handled: bool,
    /// Load outcome recorded at execute: hit the L1D (or forwarded).
    pub load_l1_hit: bool,
    /// Store-set predicted producer this µ-op must wait for.
    pub store_dep: Option<SeqNum>,
    /// For stores: address generated / data written (exec done).
    pub store_executed: bool,
    /// Was the oldest ready µ-op in the IQ when it issued (QOLD
    /// criticality criterion).
    pub was_iq_oldest: bool,
    /// Extra execution delay from a PRF read-port conflict in this µ-op's
    /// issue group (0 or 1; only with the banked-PRF model).
    pub prf_delay: u8,
}

impl RobEntry {
    /// Whether this entry is a candidate for the IQ phase of the issue
    /// stage: waiting, still holding an issue-queue slot, and not parked
    /// in the recovery buffer (which has its own selection loop). This is
    /// the membership predicate of the scheduler's ready queue.
    #[inline]
    pub fn is_iq_waiting(&self) -> bool {
        self.state == UopState::Waiting && !self.in_recovery && self.holds_iq
    }

    /// Whether this entry waits in the recovery buffer to replay: the
    /// membership predicate of the scheduler's recovery ready bits.
    #[inline]
    pub fn is_recovery_waiting(&self) -> bool {
        self.state == UopState::Waiting && self.in_recovery
    }

    /// Creates a freshly-dispatched entry.
    pub fn new(seq: SeqNum, uop: MicroOp, wrong_path: bool) -> Self {
        RobEntry {
            seq,
            uop,
            wrong_path,
            state: UopState::Waiting,
            dst: None,
            srcs: [None, None],
            issue_cycle: Cycle::ZERO,
            times_issued: 0,
            done_at: Cycle::NEVER,
            holds_iq: false,
            in_recovery: false,
            mispredicted: false,
            dir_wrong: false,
            mispred_handled: false,
            load_l1_hit: false,
            store_dep: None,
            store_executed: false,
            was_iq_oldest: false,
            prf_delay: 0,
        }
    }
}

/// A µ-op sitting in the frontend pipe between fetch and dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedUop {
    /// The trace record.
    pub uop: MicroOp,
    /// Fetched on the wrong path.
    pub wrong_path: bool,
    /// Cycle at which it reaches the dispatch stage.
    pub ready_at: Cycle,
    /// Fetch-time knowledge of a misprediction.
    pub mispredicted: bool,
    /// Direction (vs target) was the wrong part.
    pub dir_wrong: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_isa::RegRef;
    use ss_types::{ArchReg, Pc};

    #[test]
    fn fresh_entry_defaults() {
        let r = RegRef::int(ArchReg::new(1));
        let uop = MicroOp::alu(Pc::new(0x100), r, r, None);
        let e = RobEntry::new(SeqNum::new(7), uop, false);
        assert_eq!(e.state, UopState::Waiting);
        assert_eq!(e.times_issued, 0);
        assert!(!e.holds_iq);
        assert_eq!(e.done_at, Cycle::NEVER);
    }

    #[test]
    fn iq_waiting_requires_all_three_flags() {
        let r = RegRef::int(ArchReg::new(1));
        let uop = MicroOp::alu(Pc::new(0x100), r, r, None);
        let mut e = RobEntry::new(SeqNum::new(1), uop, false);
        assert!(!e.is_iq_waiting(), "dispatch sets holds_iq, not the ctor");
        e.holds_iq = true;
        assert!(e.is_iq_waiting());
        e.in_recovery = true;
        assert!(!e.is_iq_waiting(), "recovery entries have their own loop");
        assert!(e.is_recovery_waiting());
        e.in_recovery = false;
        e.state = UopState::InFlight;
        assert!(!e.is_iq_waiting() && !e.is_recovery_waiting());
    }
}

impl ss_types::Persist for UopState {
    fn save(&self, w: &mut ss_types::Writer) {
        ss_types::Persist::save(
            &match self {
                UopState::Waiting => 0,
                UopState::InFlight => 1,
                UopState::Done => 2u8,
            },
            w,
        );
    }
    fn load(r: &mut ss_types::Reader<'_>) -> Result<Self, ss_types::DecodeError> {
        match u8::load(r)? {
            0 => Ok(UopState::Waiting),
            1 => Ok(UopState::InFlight),
            2 => Ok(UopState::Done),
            t => Err(r.err(format_args!("invalid UopState tag {t}"))),
        }
    }
}

ss_types::impl_persist!(RobEntry {
    seq,
    uop,
    wrong_path,
    state,
    dst,
    srcs,
    issue_cycle,
    times_issued,
    done_at,
    holds_iq,
    in_recovery,
    mispredicted,
    dir_wrong,
    mispred_handled,
    load_l1_hit,
    store_dep,
    store_executed,
    was_iq_oldest,
    prf_delay
});

ss_types::impl_persist!(FetchedUop {
    uop,
    wrong_path,
    ready_at,
    mispredicted,
    dir_wrong
});

// The window's working set: a 192-entry ROB is ~26 KB.
const _: () = assert!(std::mem::size_of::<RobEntry>() <= 160);
const _: () = assert!(std::mem::size_of::<FetchedUop>() <= 96);
