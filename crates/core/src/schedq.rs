//! The event-driven ready queue behind the issue stage.
//!
//! [`SchedQueue`] composes the `ss-types` scheduler primitives into the
//! structure the pipeline maintains *incrementally* instead of rebuilding
//! by scanning the ROB every cycle:
//!
//! * two ready bitmaps ([`ss_types::SeqBitmap`]) — the age-ordered set
//!   of IQ-resident µ-ops believed selectable right now, and the per-entry
//!   ready bits of the recovery buffer's members;
//! * a wake heap ([`ss_types::WakeHeap`]) — µ-ops whose sources all carry
//!   *finite* future wake times, parked until the latest of them;
//! * store-waiter lists — µ-ops blocked on a predicted store dependence,
//!   parked per store and released when that store executes or commits;
//! * an epoch ring ([`ss_types::EpochRing`]) — generation counters that
//!   lazily invalidate every parked reference when a µ-op re-registers,
//!   issues, or is flushed (references are discarded on pop, never
//!   removed in place).
//!
//! The fourth parking surface — per-register consumer watch lists fired
//! by wake-time changes — lives in [`crate::rename::RenameUnit`], next to
//! the scoreboard it indexes. See DESIGN.md "Scheduler data structures"
//! for the full event inventory and the argument that selection picks
//! exactly the µ-ops a scan of the whole window would.

use ss_types::{Cycle, EpochRing, SeqBitmap, SeqNum, WakeHeap};

/// Incrementally-maintained scheduler state for the IQ selection phase.
#[derive(Debug)]
pub struct SchedQueue {
    ready: SeqBitmap,
    /// Ready bits of recovery-buffer members (paper §2.1: each entry of
    /// the buffer carries its own). Kept apart from `ready` because the
    /// buffer is walked in group order, not selected by age.
    recovery_ready: SeqBitmap,
    heap: WakeHeap,
    epochs: EpochRing,
    /// Ring of per-store waiter lists, indexed by the store's sequence
    /// slot (same geometry as the bitmap). Stale records are dropped by
    /// epoch check when fired.
    store_waiters: Vec<Vec<(SeqNum, u32)>>,
    store_mask: u64,
    /// Waiters released by a store event, pending re-registration.
    store_woken: Vec<(SeqNum, u32)>,
}

impl SchedQueue {
    /// Creates scheduler state for a machine with `rob_entries` in-flight
    /// µ-ops.
    pub fn new(rob_entries: usize) -> Self {
        let ready = SeqBitmap::new(rob_entries);
        let cap = ready.capacity();
        SchedQueue {
            ready,
            recovery_ready: SeqBitmap::new(rob_entries),
            heap: WakeHeap::new(rob_entries),
            epochs: EpochRing::new(rob_entries),
            store_waiters: vec![Vec::new(); cap],
            store_mask: (cap - 1) as u64,
            store_woken: Vec::new(),
        }
    }

    /// Invalidates every outstanding parked reference to `seq` and clears
    /// its ready bits; returns the fresh epoch for new registrations.
    pub fn invalidate(&mut self, seq: SeqNum) -> u32 {
        self.ready.remove(seq);
        self.recovery_ready.remove(seq);
        self.epochs.bump(seq)
    }

    /// Whether a parked reference stamped `epoch` is still current.
    pub fn epoch_matches(&self, seq: SeqNum, epoch: u32) -> bool {
        self.epochs.matches(seq, epoch)
    }

    /// Marks `seq` ready for selection.
    pub fn mark_ready(&mut self, seq: SeqNum) {
        self.ready.insert(seq);
    }

    /// Whether `seq` is currently marked ready.
    pub fn is_ready(&self, seq: SeqNum) -> bool {
        self.ready.contains(seq)
    }

    /// Ready entries currently marked.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Marks recovery-buffer member `seq` ready to replay.
    pub fn mark_recovery_ready(&mut self, seq: SeqNum) {
        self.recovery_ready.insert(seq);
    }

    /// Whether recovery-buffer member `seq` is currently marked ready.
    pub fn is_recovery_ready(&self, seq: SeqNum) -> bool {
        self.recovery_ready.contains(seq)
    }

    /// Recovery-buffer members currently marked ready.
    pub fn recovery_ready_len(&self) -> usize {
        self.recovery_ready.len()
    }

    /// Collects the ready set within `[base, base + span)` into `out`,
    /// oldest first.
    pub fn collect_ready(&self, base: SeqNum, span: usize, out: &mut Vec<SeqNum>) {
        self.ready.collect_range(base, span, out);
    }

    /// Collects at most the `cap` oldest ready entries in
    /// `[base, base + span)` into `out`. The issue stage batches its
    /// selection this way: a full ready set can be IQ-sized while only an
    /// issue-width's worth can leave per cycle.
    pub fn collect_ready_capped(
        &self,
        base: SeqNum,
        span: usize,
        cap: usize,
        out: &mut Vec<SeqNum>,
    ) {
        self.ready.collect_range_capped(base, span, cap, out);
    }

    /// Parks `seq` until cycle `at` (all blocking sources have finite
    /// wake times; `at` is the latest).
    pub fn park_until(&mut self, at: Cycle, seq: SeqNum, epoch: u32) {
        self.heap.push(at, seq, epoch);
    }

    /// Pops the next timer-parked entry due at `now`, skipping records
    /// whose epoch went stale since parking.
    pub fn pop_due(&mut self, now: Cycle) -> Option<SeqNum> {
        while let Some((seq, epoch)) = self.heap.pop_due(now) {
            if self.epochs.matches(seq, epoch) {
                return Some(seq);
            }
        }
        None
    }

    /// The earliest cycle a *valid* timer-parked entry is due, if any.
    /// Stale-epoch heap heads are discarded on the way (lazy deletion,
    /// same as [`Self::pop_due`] — dropping them early is observationally
    /// identical since a stale pop never produces an event).
    pub fn next_due(&mut self) -> Option<Cycle> {
        while let Some((at, seq, epoch)) = self.heap.peek() {
            if self.epochs.matches(seq, epoch) {
                return Some(at);
            }
            self.heap.pop_head();
        }
        None
    }

    /// Whether store-released waiters are pending re-registration.
    /// (Always false between ticks — store events drain within the cycle
    /// that fires them — but the quiet-cycle probe checks rather than
    /// assumes.)
    pub fn has_store_woken(&self) -> bool {
        !self.store_woken.is_empty()
    }

    /// Parks `waiter` until `store` executes or commits.
    pub fn park_on_store(&mut self, store: SeqNum, waiter: SeqNum, epoch: u32) {
        self.store_waiters[(store.get() & self.store_mask) as usize].push((waiter, epoch));
    }

    /// Releases every µ-op parked on `store` into the internal
    /// store-woken buffer (drained with [`Self::pop_store_woken`]).
    pub fn fire_store(&mut self, store: SeqNum) {
        let list = &mut self.store_waiters[(store.get() & self.store_mask) as usize];
        if !list.is_empty() {
            self.store_woken.append(list);
        }
    }

    /// Pops one store-released waiter whose parked reference is still
    /// current.
    pub fn pop_store_woken(&mut self) -> Option<SeqNum> {
        while let Some((seq, epoch)) = self.store_woken.pop() {
            if self.epochs.matches(seq, epoch) {
                return Some(seq);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalidate_clears_ready_and_stales_references() {
        let mut q = SchedQueue::new(192);
        let s = SeqNum::new(9);
        let epoch = q.invalidate(s);
        q.park_until(Cycle::new(5), s, epoch);
        q.mark_ready(s);
        assert!(q.is_ready(s));
        let _fresh = q.invalidate(s);
        assert!(!q.is_ready(s));
        q.mark_recovery_ready(s);
        assert!(q.is_recovery_ready(s) && !q.is_ready(s));
        let _fresh = q.invalidate(s);
        assert_eq!(q.recovery_ready_len(), 0);
        assert_eq!(q.pop_due(Cycle::new(10)), None, "stale timer is dropped");
    }

    #[test]
    fn store_waiters_fire_by_store_seq() {
        let mut q = SchedQueue::new(192);
        let store = SeqNum::new(4);
        let ld1 = SeqNum::new(7);
        let ld2 = SeqNum::new(8);
        let e1 = q.invalidate(ld1);
        let e2 = q.invalidate(ld2);
        q.park_on_store(store, ld1, e1);
        q.park_on_store(store, ld2, e2);
        assert_eq!(q.pop_store_woken(), None);
        // ld2 re-registers before the store fires: its record is stale.
        let _ = q.invalidate(ld2);
        q.fire_store(store);
        assert_eq!(q.pop_store_woken(), Some(ld1));
        assert_eq!(q.pop_store_woken(), None);
    }

    #[test]
    fn timer_parking_pops_in_order() {
        let mut q = SchedQueue::new(64);
        let a = SeqNum::new(1);
        let b = SeqNum::new(2);
        let ea = q.invalidate(a);
        let eb = q.invalidate(b);
        q.park_until(Cycle::new(20), a, ea);
        q.park_until(Cycle::new(10), b, eb);
        assert_eq!(q.pop_due(Cycle::new(9)), None);
        assert_eq!(q.pop_due(Cycle::new(15)), Some(b));
        assert_eq!(q.pop_due(Cycle::new(15)), None);
        assert_eq!(q.pop_due(Cycle::new(20)), Some(a));
    }
}

ss_types::impl_persist_state!(SchedQueue { store_waiters, store_woken ; ready, recovery_ready, heap, epochs });
