//! The instruction window: per-µ-op state carried from dispatch to commit.
//!
//! A branch's fetch-time [`BranchPrediction`] (folded-history and RAS
//! repair checkpoints plus TAGE metadata, ~1.3 KB) lives in a
//! `PredSlab`; window entries carry a 4-byte [`PredSlot`] handle, so
//! moving a µ-op through the frontend and the ROB copies ~100 bytes
//! instead of ~1.4 KB, branch or not.

use crate::rename::PhysRef;
use ss_bpred::BranchPrediction;
use ss_isa::MicroOp;
use ss_types::persist::{DecodeError, Persist, Reader, Writer};
use ss_types::{Cycle, SeqNum};
use std::collections::VecDeque;
use std::num::NonZeroU32;

/// Handle to a prediction held in the simulator's slab.
/// `Option<PredSlot>` is 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredSlot(NonZeroU32);

impl PredSlot {
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Recycled storage for the predictions of in-flight branches. It grows
/// to the most branches ever in flight at once and then reuses freed
/// slots, so steady-state fetch allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PredSlab {
    slots: Vec<BranchPrediction>,
    free: Vec<PredSlot>,
}

impl PredSlab {
    /// Stores `pred` and returns its handle.
    pub fn alloc(&mut self, pred: BranchPrediction) -> PredSlot {
        if let Some(slot) = self.free.pop() {
            self.slots[slot.index()] = pred;
            return slot;
        }
        self.slots.push(pred);
        let id = u32::try_from(self.slots.len()).expect("prediction slab overflow");
        PredSlot(NonZeroU32::new(id).expect("slab length is at least 1"))
    }

    /// Returns `slot` to the free list. The handle must not be used
    /// again.
    pub fn free(&mut self, slot: PredSlot) {
        debug_assert!(slot.index() < self.slots.len(), "foreign slot {slot:?}");
        self.free.push(slot);
    }

    /// Frees every slot, keeping the storage.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    /// Slots ever allocated (live plus free): the slab's high-water mark.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Checks that `held` — every handle the window holds — names
    /// exactly the live slots: none free, none twice, none missing.
    pub fn audit(&self, held: impl Iterator<Item = PredSlot>) -> Result<(), String> {
        let mut owned = vec![false; self.slots.len()];
        for slot in &self.free {
            let Some(o) = owned.get_mut(slot.index()) else {
                return Err(format!("free list holds foreign slot {slot:?}"));
            };
            if std::mem::replace(o, true) {
                return Err(format!("prediction slot {slot:?} freed twice"));
            }
        }
        for slot in held {
            let Some(o) = owned.get_mut(slot.index()) else {
                return Err(format!("window holds foreign slot {slot:?}"));
            };
            if std::mem::replace(o, true) {
                return Err(format!(
                    "prediction slot {slot:?} is free or held by two entries"
                ));
            }
        }
        match owned.iter().position(|o| !o) {
            Some(i) => Err(format!("prediction slot {} leaked", i + 1)),
            None => Ok(()),
        }
    }

    /// Encodes `entries` as `Persist` encodes a `VecDeque`, each entry's
    /// prediction inline.
    pub fn save_window<E: WindowEntry>(&self, entries: &VecDeque<E>, w: &mut Writer) {
        entries.len().save(w);
        for e in entries {
            e.save_with(self, w);
        }
    }

    /// Decodes what [`Self::save_window`] wrote, storing each entry's
    /// prediction in a fresh slot.
    pub fn load_window<E: WindowEntry>(
        &mut self,
        r: &mut Reader<'_>,
    ) -> Result<VecDeque<E>, DecodeError> {
        let len = usize::load(r)?;
        if len > r.remaining() {
            return Err(r.err(format_args!(
                "length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(E::load_with(r, self)?);
        }
        Ok(out)
    }

    fn save_inline(&self, pred: Option<PredSlot>, w: &mut Writer) {
        pred.map(|slot| self[slot]).save(w);
    }

    fn load_inline(&mut self, r: &mut Reader<'_>) -> Result<Option<PredSlot>, DecodeError> {
        Ok(Option::<BranchPrediction>::load(r)?.map(|p| self.alloc(p)))
    }
}

impl std::ops::Index<PredSlot> for PredSlab {
    type Output = BranchPrediction;
    fn index(&self, slot: PredSlot) -> &BranchPrediction {
        &self.slots[slot.index()]
    }
}

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
#[derive(Debug, Clone)]
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
    /// Slab slot of the prediction made at fetch (correct-path branches
    /// only), handed over from the frontend entry; freed at commit or
    /// when a flush pops the entry.
    pub pred: Option<PredSlot>,
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
            pred: None,
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
#[derive(Debug, Clone)]
pub struct FetchedUop {
    /// The trace record.
    pub uop: MicroOp,
    /// Fetched on the wrong path.
    pub wrong_path: bool,
    /// Cycle at which it reaches the dispatch stage.
    pub ready_at: Cycle,
    /// Slab slot of the fetch-time prediction (correct-path branches
    /// only); moves to the ROB entry at dispatch, freed if a flush
    /// drains the frontend first.
    pub pred: Option<PredSlot>,
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

    fn prediction() -> BranchPrediction {
        let mut bp = ss_bpred::BranchPredictor::new(&ss_types::SimConfig::default().predictor);
        bp.on_branch_fetch(Pc::new(0x40), ss_types::BranchKind::Call, Pc::new(0x44))
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = PredSlab::default();
        let a = slab.alloc(prediction());
        let b = slab.alloc(prediction());
        assert_ne!(a, b);
        slab.free(a);
        assert_eq!(slab.alloc(prediction()), a, "freed slot is reused");
        assert_eq!(slab.len(), 2);
        assert_eq!(std::mem::size_of::<Option<PredSlot>>(), 4);
    }

    #[test]
    fn slab_audit_catches_leaks_and_double_frees() {
        let mut slab = PredSlab::default();
        let a = slab.alloc(prediction());
        let b = slab.alloc(prediction());
        assert_eq!(slab.audit([a, b].into_iter()), Ok(()));
        let leak = slab.audit([a].into_iter()).unwrap_err();
        assert!(leak.contains("leaked"), "{leak}");
        let shared = slab.audit([a, b, b].into_iter()).unwrap_err();
        assert!(shared.contains("two entries"), "{shared}");
        slab.free(b);
        let used_after_free = slab.audit([a, b].into_iter()).unwrap_err();
        assert!(used_after_free.contains("two entries"), "{used_after_free}");
        slab.free(b);
        let double = slab.audit([a].into_iter()).unwrap_err();
        assert!(double.contains("freed twice"), "{double}");
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

/// A window entry whose snapshot encoding writes its `pred` handle
/// inline, as the `Option<BranchPrediction>` it names. These are the
/// bytes of the entry from when it embedded the prediction, so the
/// snapshot format does not depend on the slab.
pub(crate) trait WindowEntry: Sized {
    fn save_with(&self, preds: &PredSlab, w: &mut Writer);
    fn load_with(r: &mut Reader<'_>, preds: &mut PredSlab) -> Result<Self, DecodeError>;
}

/// Implements [`WindowEntry`] from the field order: the fields before
/// `pred`, `pred` itself, then the fields after it.
macro_rules! window_entry {
    ($ty:ident { $($before:ident),* ; pred ; $($after:ident),* $(,)? }) => {
        impl WindowEntry for $ty {
            fn save_with(&self, preds: &PredSlab, w: &mut Writer) {
                $( self.$before.save(w); )*
                preds.save_inline(self.pred, w);
                $( self.$after.save(w); )*
            }
            fn load_with(r: &mut Reader<'_>, preds: &mut PredSlab) -> Result<Self, DecodeError> {
                // Struct fields evaluate in source order: the byte order.
                Ok($ty {
                    $( $before: Persist::load(r)?, )*
                    pred: preds.load_inline(r)?,
                    $( $after: Persist::load(r)?, )*
                })
            }
        }
    };
}

window_entry!(RobEntry {
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
    in_recovery;
    pred;
    mispredicted,
    dir_wrong,
    mispred_handled,
    load_l1_hit,
    store_dep,
    store_executed,
    was_iq_oldest,
    prf_delay
});

window_entry!(FetchedUop {
    uop,
    wrong_path,
    ready_at;
    pred;
    mispredicted,
    dir_wrong
});

// The window's working set: a 192-entry ROB is ~26 KB, not ~266 KB.
const _: () = assert!(std::mem::size_of::<RobEntry>() <= 160);
const _: () = assert!(std::mem::size_of::<FetchedUop>() <= 96);
// A slab slot: the history checkpoint keeps fold values only.
const _: () = assert!(std::mem::size_of::<BranchPrediction>() <= 872);
