//! Scheduler bookkeeping primitives for the event-driven ready queue.
//!
//! The pipeline's issue stage maintains — rather than recomputes — the set
//! of µ-ops eligible for selection. These types are the building blocks:
//!
//! * [`SeqBitmap`] — a ring bitset over [`SeqNum`]s holding the *ready
//!   set*; iteration is oldest-first (program order), so selection keeps
//!   the age priority of the scan it replaces.
//! * [`WakeHeap`] — a lazy-deletion min-heap of future wake-up times:
//!   a consumer whose sources all carry finite `wake_at` times in the
//!   future is parked here keyed by the latest of them.
//! * [`EpochRing`] — per-sequence-slot generation counters. Every
//!   (re-)registration of a µ-op bumps its epoch, instantly invalidating
//!   every stale heap entry, watch-list reference, or store-waiter record
//!   left behind by the previous registration. Consumers of indirect
//!   references compare epochs instead of performing O(n) removals.
//! * [`VecPool`] — recycles the per-issue-group `Vec`s that flow through
//!   the issue→execute pipe and the recovery buffer, so the steady-state
//!   hot loop performs no heap allocation.
//!
//! All structures are sized to a power of two at construction and index
//! by `seq & mask`; they rely on the pipeline invariant that live
//! sequence numbers span less than one reorder-buffer's worth at any
//! time, so no two live µ-ops ever share a slot.

use crate::ids::{Cycle, SeqNum};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rounds `n` up to a power of two (minimum 64).
fn ring_capacity(n: usize) -> usize {
    n.max(64).next_power_of_two()
}

/// A ring bitset over sequence numbers with oldest-first iteration.
///
/// Capacity is rounded up to a power of two; a sequence number occupies
/// slot `seq & (capacity − 1)`. The caller must guarantee that the live
/// sequence window never exceeds the capacity (the pipeline's ROB bound
/// provides exactly this).
#[derive(Debug, Clone)]
pub struct SeqBitmap {
    words: Vec<u64>,
    mask: u64,
    len: usize,
}

impl SeqBitmap {
    /// Creates a bitmap able to track a live window of `capacity`
    /// sequence numbers (rounded up to a power of two, minimum 64).
    pub fn new(capacity: usize) -> Self {
        let cap = ring_capacity(capacity);
        SeqBitmap {
            words: vec![0; cap / 64],
            mask: (cap - 1) as u64,
            len: 0,
        }
    }

    /// Slot capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, seq: SeqNum) -> (usize, u64) {
        let s = seq.get() & self.mask;
        ((s / 64) as usize, 1u64 << (s % 64))
    }

    /// Sets the bit for `seq`; returns `true` if it was newly set.
    pub fn insert(&mut self, seq: SeqNum) -> bool {
        let (w, b) = self.slot(seq);
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        fresh
    }

    /// Clears the bit for `seq`; returns `true` if it was set.
    pub fn remove(&mut self, seq: SeqNum) -> bool {
        let (w, b) = self.slot(seq);
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(was);
        was
    }

    /// Whether the bit for `seq` is set.
    pub fn contains(&self, seq: SeqNum) -> bool {
        let (w, b) = self.slot(seq);
        self.words[w] & b != 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Collects every set sequence number in `[base, base + span)` into
    /// `out`, in increasing (oldest-first) order. `span` must not exceed
    /// the capacity. Word-skipping makes this O(capacity/64 + matches)
    /// rather than O(span).
    pub fn collect_range(&self, base: SeqNum, span: usize, out: &mut Vec<SeqNum>) {
        self.collect_range_capped(base, span, usize::MAX, out);
    }

    /// Like [`Self::collect_range`], but stops after the `cap` *oldest*
    /// matches. The ring is walked in slot order starting at `base`'s
    /// slot, which IS age order (live seqs span less than one capacity),
    /// so no sort is needed and the walk exits as soon as `cap` entries
    /// are gathered — the issue stage collects an issue-width-sized batch
    /// out of a possibly IQ-sized ready set this way.
    pub fn collect_range_capped(
        &self,
        base: SeqNum,
        span: usize,
        cap: usize,
        out: &mut Vec<SeqNum>,
    ) {
        debug_assert!(span <= self.capacity(), "span exceeds ring capacity");
        if self.len == 0 || span == 0 || cap == 0 {
            return;
        }
        let start = base.get();
        let start_slot = start & self.mask;
        let first_word = (start_slot / 64) as usize;
        let low_bits = (1u64 << (start_slot % 64)) - 1;
        let nwords = self.words.len();
        let mut taken = 0usize;
        // Walk words in ring order from `base`'s slot; the first word is
        // visited twice (its high bits lead the walk, its low bits close
        // it), so every slot is seen exactly once in age order.
        for k in 0..=nwords {
            let w_idx = (first_word + k) % nwords;
            let mut word = self.words[w_idx];
            if k == 0 {
                word &= !low_bits;
            } else if k == nwords {
                word &= low_bits;
            }
            while word != 0 {
                let bit = word.trailing_zeros() as u64;
                word &= word - 1;
                let slot = w_idx as u64 * 64 + bit;
                // Age of this slot along the ring walk; the absolute seq
                // is the unique value in [start, start + cap) congruent
                // to `slot` mod cap.
                let age = slot.wrapping_sub(start) & self.mask;
                if age >= span as u64 {
                    // Ages only grow along the walk: nothing further in
                    // this word or any later word can be in range.
                    return;
                }
                out.push(SeqNum::new(start + age));
                taken += 1;
                if taken == cap {
                    return;
                }
            }
        }
    }
}

/// A lazy-deletion min-heap of `(wake_at, seq, epoch)` entries.
///
/// Entries are never removed eagerly; the owner validates the epoch
/// against its [`EpochRing`] when an entry pops and discards stale ones.
#[derive(Debug, Clone, Default)]
pub struct WakeHeap {
    heap: BinaryHeap<Reverse<(Cycle, SeqNum, u32)>>,
}

impl WakeHeap {
    /// Creates an empty heap with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        WakeHeap {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Parks `seq` (at registration `epoch`) until cycle `at`.
    pub fn push(&mut self, at: Cycle, seq: SeqNum, epoch: u32) {
        self.heap.push(Reverse((at, seq, epoch)));
    }

    /// Pops the next entry whose wake time is `<= now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(SeqNum, u32)> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= now => {
                let Reverse((_, seq, epoch)) = self.heap.pop().expect("peeked");
                Some((seq, epoch))
            }
            _ => None,
        }
    }

    /// The head entry — the earliest `(wake_at, seq, epoch)` parked,
    /// stale or not — without removing it.
    pub fn peek(&self) -> Option<(Cycle, SeqNum, u32)> {
        self.heap.peek().map(|Reverse(e)| *e)
    }

    /// Removes and returns the head entry regardless of its due time
    /// (used by owners to discard a head they identified as stale).
    pub fn pop_head(&mut self) -> Option<(Cycle, SeqNum, u32)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Entries currently parked (including stale ones awaiting lazy
    /// deletion).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards every entry.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Per-sequence-slot registration epochs.
///
/// Indirect references to a parked µ-op (heap entries, watch-list
/// records, store waiters) carry the epoch current at registration;
/// bumping the slot's epoch invalidates all of them at once. Slots are
/// ring-indexed like [`SeqBitmap`]; the dispatch-time re-registration of
/// a reused slot bumps the epoch before any new reference is created, so
/// references can never alias across reuse.
#[derive(Debug, Clone)]
pub struct EpochRing {
    epochs: Vec<u32>,
    mask: u64,
}

impl EpochRing {
    /// Creates a ring for a live window of `capacity` sequence numbers.
    pub fn new(capacity: usize) -> Self {
        let cap = ring_capacity(capacity);
        EpochRing {
            epochs: vec![0; cap],
            mask: (cap - 1) as u64,
        }
    }

    #[inline]
    fn idx(&self, seq: SeqNum) -> usize {
        (seq.get() & self.mask) as usize
    }

    /// The current epoch of `seq`'s slot.
    pub fn current(&self, seq: SeqNum) -> u32 {
        self.epochs[self.idx(seq)]
    }

    /// Invalidates every outstanding reference to `seq` and returns the
    /// new epoch.
    pub fn bump(&mut self, seq: SeqNum) -> u32 {
        let i = self.idx(seq);
        self.epochs[i] = self.epochs[i].wrapping_add(1);
        self.epochs[i]
    }

    /// Whether a reference stamped with `epoch` is still current.
    pub fn matches(&self, seq: SeqNum, epoch: u32) -> bool {
        self.current(seq) == epoch
    }
}

/// A free list of recycled `Vec<T>` buffers.
///
/// The issue stage creates one group `Vec` per issuing cycle and the
/// replay machinery one per squash burst; pooling them caps hot-loop
/// allocation at the high-water mark of the first few thousand cycles.
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool { free: Vec::new() }
    }
}

impl<T> VecPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool (or a fresh one).
    pub fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; its contents are dropped.
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        // An unbounded pool would be a slow leak under pathological
        // replay storms; past a generous cap, let buffers drop.
        if self.free.len() < 64 {
            self.free.push(v);
        }
    }

    /// Buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

impl crate::persist::PersistState for SeqBitmap {
    fn save_state(&self, w: &mut crate::persist::Writer) {
        crate::persist::Persist::save(&self.words, w);
    }
    fn restore_state(
        &mut self,
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<(), crate::persist::DecodeError> {
        crate::persist::load_seq_into(r, &mut self.words, "SeqBitmap")?;
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(())
    }
}

impl crate::persist::PersistState for EpochRing {
    fn save_state(&self, w: &mut crate::persist::Writer) {
        crate::persist::Persist::save(&self.epochs, w);
    }
    fn restore_state(
        &mut self,
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<(), crate::persist::DecodeError> {
        crate::persist::load_seq_into(r, &mut self.epochs, "EpochRing")
    }
}

impl crate::persist::PersistState for WakeHeap {
    fn save_state(&self, w: &mut crate::persist::Writer) {
        // A heap has no canonical iteration order; serialize its entries
        // sorted so identical logical state always produces identical
        // bytes (capture -> restore -> capture stability).
        let mut entries: Vec<(Cycle, SeqNum, u32)> =
            self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        crate::persist::Persist::save(&entries, w);
    }
    fn restore_state(
        &mut self,
        r: &mut crate::persist::Reader<'_>,
    ) -> Result<(), crate::persist::DecodeError> {
        let entries: Vec<(Cycle, SeqNum, u32)> = crate::persist::Persist::load(r)?;
        self.heap.clear();
        self.heap.extend(entries.into_iter().map(Reverse));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeSet;

    #[test]
    fn bitmap_insert_remove_contains() {
        let mut b = SeqBitmap::new(192);
        assert_eq!(b.capacity(), 256);
        assert!(b.is_empty());
        assert!(b.insert(SeqNum::new(7)));
        assert!(!b.insert(SeqNum::new(7)), "double insert reports false");
        assert!(b.contains(SeqNum::new(7)));
        assert_eq!(b.len(), 1);
        assert!(b.remove(SeqNum::new(7)));
        assert!(!b.remove(SeqNum::new(7)));
        assert!(b.is_empty());
    }

    #[test]
    fn bitmap_collect_is_oldest_first() {
        let mut b = SeqBitmap::new(64);
        for s in [300u64, 260, 290, 271] {
            b.insert(SeqNum::new(s));
        }
        let mut out = Vec::new();
        b.collect_range(SeqNum::new(258), 60, &mut out);
        let got: Vec<u64> = out.iter().map(|s| s.get()).collect();
        assert_eq!(got, vec![260, 271, 290, 300]);
    }

    #[test]
    fn bitmap_capped_collect_takes_the_oldest_across_a_wrap() {
        let mut b = SeqBitmap::new(64);
        // Window [250, 314) wraps the 64-slot ring (slot 250&63 = 58).
        for s in [312u64, 255, 280, 262, 301] {
            b.insert(SeqNum::new(s));
        }
        let mut out = Vec::new();
        b.collect_range_capped(SeqNum::new(250), 64, 3, &mut out);
        let got: Vec<u64> = out.iter().map(|s| s.get()).collect();
        assert_eq!(got, vec![255, 262, 280], "three oldest, in age order");
        out.clear();
        b.collect_range_capped(SeqNum::new(281), 33, usize::MAX, &mut out);
        let got: Vec<u64> = out.iter().map(|s| s.get()).collect();
        assert_eq!(got, vec![301, 312], "resume past a processed prefix");
    }

    #[test]
    fn bitmap_collect_respects_window() {
        let mut b = SeqBitmap::new(64);
        b.insert(SeqNum::new(10));
        b.insert(SeqNum::new(50));
        let mut out = Vec::new();
        // Window [40, 64): slot 10 is outside the queried span even
        // though its bit is set.
        b.collect_range(SeqNum::new(40), 24, &mut out);
        assert_eq!(out, vec![SeqNum::new(50)]);
    }

    #[test]
    fn bitmap_matches_btreeset_model_across_wraparound() {
        // Seeded-loop property test (PR-1 convention): drive a window of
        // live seqs forward across many ring wraparounds and compare
        // membership + collection order against a BTreeSet model.
        let mut rng = SplitMix64::new(0x5EED_B175);
        let mut b = SeqBitmap::new(128);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut base = 0u64;
        let mut out = Vec::new();
        for step in 0..20_000u64 {
            let r = rng.next_u64();
            match r % 4 {
                0 => {
                    // insert a seq within the live window
                    let s = base + (r >> 8) % 120;
                    b.insert(SeqNum::new(s));
                    model.insert(s);
                }
                1 => {
                    let s = base + (r >> 8) % 120;
                    assert_eq!(b.remove(SeqNum::new(s)), model.remove(&s), "step {step}");
                }
                2 => {
                    // advance the window: everything below the new base
                    // must be removed first (mirrors commit/flush).
                    let adv = (r >> 8) % 16;
                    for s in base..base + adv {
                        if model.remove(&s) {
                            b.remove(SeqNum::new(s));
                        }
                    }
                    base += adv;
                }
                _ => {
                    let s = base + (r >> 8) % 120;
                    assert_eq!(
                        b.contains(SeqNum::new(s)),
                        model.contains(&s),
                        "step {step}"
                    );
                }
            }
            assert_eq!(b.len(), model.len(), "step {step}");
            if step % 64 == 0 {
                out.clear();
                b.collect_range(SeqNum::new(base), 120, &mut out);
                let got: Vec<u64> = out.iter().map(|s| s.get()).collect();
                let want: Vec<u64> = model.iter().copied().collect();
                assert_eq!(got, want, "step {step} base {base}");
            }
        }
    }

    #[test]
    fn heap_pops_in_time_order_with_ties_by_seq() {
        let mut h = WakeHeap::new(8);
        h.push(Cycle::new(30), SeqNum::new(5), 1);
        h.push(Cycle::new(10), SeqNum::new(9), 2);
        h.push(Cycle::new(10), SeqNum::new(3), 7);
        assert!(h.pop_due(Cycle::new(9)).is_none());
        assert_eq!(h.pop_due(Cycle::new(10)), Some((SeqNum::new(3), 7)));
        assert_eq!(h.pop_due(Cycle::new(10)), Some((SeqNum::new(9), 2)));
        assert!(h.pop_due(Cycle::new(29)).is_none());
        assert_eq!(h.pop_due(Cycle::new(31)), Some((SeqNum::new(5), 1)));
        assert!(h.is_empty());
    }

    #[test]
    fn epochs_invalidate_stale_references() {
        let mut e = EpochRing::new(64);
        let s = SeqNum::new(42);
        let ref1 = e.bump(s);
        assert!(e.matches(s, ref1));
        let ref2 = e.bump(s);
        assert!(!e.matches(s, ref1), "old reference must be stale");
        assert!(e.matches(s, ref2));
        // Ring aliasing: a seq one capacity later shares the slot, and a
        // bump through it invalidates the older seq's refs too — exactly
        // the reuse-after-flush behaviour the pipeline depends on.
        let aliased = SeqNum::new(42 + e.epochs.len() as u64);
        e.bump(aliased);
        assert!(!e.matches(s, ref2));
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut p: VecPool<SeqNum> = VecPool::new();
        let mut v = p.get();
        v.reserve(100);
        let cap = v.capacity();
        v.push(SeqNum::new(1));
        p.put(v);
        assert_eq!(p.pooled(), 1);
        let v2 = p.get();
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        assert!(v2.capacity() >= cap, "capacity is retained");
        assert_eq!(p.pooled(), 0);
    }
}
