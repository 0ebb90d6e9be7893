//! Seeded-loop property tests for the event-driven ready queue
//! ([`SchedQueue`]): a randomized sliding window of µ-ops — IQ entries
//! and recovery-buffer members — is driven through every parking surface
//! (both ready bitmaps, wake heap, store-waiter lists) and cross-checked
//! each step against a naive reference model — the moral equivalent of
//! a full scan of the window. Plain deterministic
//! loops over the vendored [`Xoshiro256`], per the workspace convention
//! (no proptest).
//!
//! Invariants enforced every step:
//! * **exact selection** — `collect_ready` returns precisely the model's
//!   IQ ready set, oldest first (so the issue stage selects exactly what
//!   a scan would), and the recovery ready bits are exactly the model's
//!   ready recovery members;
//! * **no stranding** — once time passes a parked entry's wake cycle, or
//!   its blocking store fires, draining the queue surfaces it (a woken
//!   µ-op can never be lost);
//! * **epoch discipline** — records parked before a re-registration or
//!   flush (epoch bump) never resurface, and `invalidate` clears both
//!   ready bits.

use std::collections::BTreeMap;

use speculative_scheduling::core::SchedQueue;
use speculative_scheduling::prelude::*;
use speculative_scheduling::types::rng::Xoshiro256;
use speculative_scheduling::types::Cycle;

/// What the reference model believes a µ-op is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Registered but blocked on something with no parked record (the
    /// pipeline's "a source wakes at NEVER" case: woken later by an
    /// explicit re-registration).
    Idle,
    /// Selectable now.
    Ready,
    /// Parked in the wake heap until the given cycle.
    Timer(Cycle),
    /// Parked on the store with the given sequence number.
    Store(u64),
}

/// One window entry of the reference model.
#[derive(Debug, Clone, Copy)]
struct Entry {
    state: State,
    /// A recovery-buffer member (its ready bit lives in the recovery
    /// bitmap) rather than an IQ entry.
    recovery: bool,
}

/// The reference model: a plain map the test scans the way a scheduler
/// without event tracking would scan the ROB.
struct Model {
    /// Active window entries by seq.
    entries: BTreeMap<u64, Entry>,
    /// Oldest active seq (window base).
    low: u64,
    /// Next seq to admit.
    next: u64,
}

const SPAN: usize = 64;

impl Model {
    fn new() -> Self {
        Model {
            entries: BTreeMap::new(),
            low: 0,
            next: 0,
        }
    }

    /// Ready IQ entries (`recovery == false`) or ready recovery members
    /// (`recovery == true`), oldest first.
    fn ready_seqs(&self, recovery: bool) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| e.state == State::Ready && e.recovery == recovery)
            .map(|(&s, _)| s)
            .collect()
    }
}

/// Sets `seq`'s ready bit in the bitmap its kind uses, as the pipeline's
/// registration does.
fn mark(q: &mut SchedQueue, seq: SeqNum, recovery: bool) {
    if recovery {
        q.mark_recovery_ready(seq);
    } else {
        q.mark_ready(seq);
    }
}

/// Invalidates `seq` and checks that both of its ready bits are clear.
fn invalidate(q: &mut SchedQueue, seq: u64) -> u32 {
    let epoch = q.invalidate(SeqNum::new(seq));
    assert!(
        !q.is_ready(SeqNum::new(seq)) && !q.is_recovery_ready(SeqNum::new(seq)),
        "invalidate left a ready bit on {seq}"
    );
    epoch
}

/// Picks a random kind (IQ entry or recovery member) and parked state
/// for a (re-)registered µ-op and applies them to both the queue and the
/// model.
fn register(q: &mut SchedQueue, m: &mut Model, rng: &mut Xoshiro256, seq: u64, now: Cycle) {
    let epoch = invalidate(q, seq);
    let recovery = rng.next_below(3) == 0;
    let state = match rng.next_below(4) {
        0 => {
            mark(q, SeqNum::new(seq), recovery);
            State::Ready
        }
        1 => {
            let at = now + 1 + rng.next_below(40);
            q.park_until(at, SeqNum::new(seq), epoch);
            State::Timer(at)
        }
        2 if seq > m.low => {
            // park on a random *older* active µ-op standing in for the
            // predicted store producer
            let store = m.low + rng.next_below(seq - m.low);
            q.park_on_store(SeqNum::new(store), SeqNum::new(seq), epoch);
            State::Store(store)
        }
        _ => State::Idle,
    };
    m.entries.insert(seq, Entry { state, recovery });
}

/// Releases every current waiter of `store` in both queue and model,
/// checking each released record against the model.
fn fire_store(q: &mut SchedQueue, m: &mut Model, store: u64) {
    q.fire_store(SeqNum::new(store));
    while let Some(w) = q.pop_store_woken() {
        let e = m
            .entries
            .get_mut(&w.get())
            .unwrap_or_else(|| panic!("store {store} woke dead waiter {w}"));
        assert_eq!(
            e.state,
            State::Store(store),
            "store {store} woke {w}, which the model has in state {:?}",
            e.state
        );
        e.state = State::Ready;
        mark(q, w, e.recovery);
    }
    // No stranding: every current-epoch waiter of this store must have
    // been released above.
    for (&s, e) in &m.entries {
        assert_ne!(
            e.state,
            State::Store(store),
            "µ-op {s} stranded on store {store} after it fired"
        );
    }
}

/// Drains the wake heap at `now`, checking each pop against the model,
/// then asserts nothing due is left behind.
fn drain_due(q: &mut SchedQueue, m: &mut Model, now: Cycle) {
    while let Some(s) = q.pop_due(now) {
        let e = m
            .entries
            .get_mut(&s.get())
            .unwrap_or_else(|| panic!("heap woke dead µ-op {s}"));
        match e.state {
            State::Timer(at) => assert!(at <= now, "µ-op {s} woke early ({at:?} > {now:?})"),
            other => panic!("heap woke {s}, which the model has in state {other:?}"),
        }
        e.state = State::Ready;
        mark(q, s, e.recovery);
    }
    for (&s, e) in &m.entries {
        if let State::Timer(at) = e.state {
            assert!(
                at > now,
                "µ-op {s} stranded in the heap: due at {at:?}, now {now:?}"
            );
        }
    }
}

/// The full scan a scheduler without event tracking would do: the
/// queue's ready sets must match it exactly, the IQ set oldest first.
fn cross_check(q: &SchedQueue, m: &Model, scratch: &mut Vec<SeqNum>) {
    let expect = m.ready_seqs(false);
    assert_eq!(q.ready_len(), expect.len(), "ready count diverged");
    scratch.clear();
    q.collect_ready(SeqNum::new(m.low), SPAN, scratch);
    let got: Vec<u64> = scratch.iter().map(|s| s.get()).collect();
    assert_eq!(got, expect, "ready set or age order diverged from scan");
    assert_eq!(
        q.recovery_ready_len(),
        m.ready_seqs(true).len(),
        "recovery ready count diverged"
    );
    for (&s, e) in &m.entries {
        let ready = e.state == State::Ready;
        assert_eq!(
            q.is_ready(SeqNum::new(s)),
            ready && !e.recovery,
            "is_ready({s}) disagrees with model entry {e:?}"
        );
        assert_eq!(
            q.is_recovery_ready(SeqNum::new(s)),
            ready && e.recovery,
            "is_recovery_ready({s}) disagrees with model entry {e:?}"
        );
    }
}

#[test]
fn ready_queue_matches_full_scan_model() {
    for seed in 0..6u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x5EED_0B17 ^ (seed * 0x9E37_79B9));
        let mut q = SchedQueue::new(SPAN);
        let mut m = Model::new();
        let mut now = Cycle::new(0);
        let mut scratch = Vec::new();

        for step in 0..8_000u64 {
            match rng.next_below(100) {
                // Admit a new µ-op at the young end of the window.
                0..=29 => {
                    if m.next - m.low < SPAN as u64 {
                        let seq = m.next;
                        m.next += 1;
                        register(&mut q, &mut m, &mut rng, seq, now);
                    }
                }
                // Retire the oldest µ-op. Like commit, fire its store
                // waiters first so nothing can strand on a dead seq.
                30..=49 => {
                    if !m.entries.is_empty() {
                        let seq = m.low;
                        fire_store(&mut q, &mut m, seq);
                        invalidate(&mut q, seq);
                        m.entries.remove(&seq);
                        m.low += 1;
                    }
                }
                // Re-register a random live µ-op (the pipeline does this
                // on squash, replay, wake-time change, flush-reacquire).
                50..=69 => {
                    if !m.entries.is_empty() {
                        let keys: Vec<u64> = m.entries.keys().copied().collect();
                        let seq = keys[rng.next_below(keys.len() as u64) as usize];
                        register(&mut q, &mut m, &mut rng, seq, now);
                    }
                }
                // A store executes: release its waiters.
                70..=79 => {
                    if !m.entries.is_empty() {
                        let keys: Vec<u64> = m.entries.keys().copied().collect();
                        let store = keys[rng.next_below(keys.len() as u64) as usize];
                        fire_store(&mut q, &mut m, store);
                    }
                }
                // Time advances: due timers must all surface.
                _ => {
                    now += rng.next_below(12);
                    drain_due(&mut q, &mut m, now);
                }
            }
            if step % 16 == 0 {
                cross_check(&q, &m, &mut scratch);
            }
        }
        // Final full drain + check: fast-forward past every timer and
        // fire every possible store; the whole window must end Ready or
        // Idle with the queue still in exact agreement.
        now += 10_000;
        drain_due(&mut q, &mut m, now);
        let keys: Vec<u64> = m.entries.keys().copied().collect();
        for s in keys {
            fire_store(&mut q, &mut m, s);
        }
        for (&s, e) in &m.entries {
            assert!(
                matches!(e.state, State::Ready | State::Idle),
                "µ-op {s} still parked ({:?}) after global wake",
                e.state
            );
        }
        cross_check(&q, &m, &mut scratch);
    }
}

/// Epoch discipline in isolation: a parked record from before an epoch
/// bump must never resurface, even when the same sequence slot is reused
/// by a later µ-op (ring-geometry collision).
#[test]
fn stale_records_never_resurface_across_slot_reuse() {
    let mut rng = Xoshiro256::seed_from_u64(0xDEAD_E70C);
    let mut q = SchedQueue::new(SPAN);
    for round in 0..2_000u64 {
        // Two generations occupying the same slot, SPAN apart.
        let old = rng.next_below(1 << 20);
        let new = old + SPAN as u64;
        let e_old = q.invalidate(SeqNum::new(old));
        let at = Cycle::new(round * 100 + 10);
        q.park_until(at, SeqNum::new(old), e_old);
        q.park_on_store(SeqNum::new(old.wrapping_sub(1)), SeqNum::new(old), e_old);
        // The slot is flushed and reused: the pipeline invalidates on
        // flush, then the new occupant registers.
        let e_new = q.invalidate(SeqNum::new(new));
        assert!(!q.epoch_matches(SeqNum::new(old), e_old), "round {round}");
        q.park_until(at + 5, SeqNum::new(new), e_new);
        // Only the new occupant may surface from either surface.
        q.fire_store(SeqNum::new(old.wrapping_sub(1)));
        assert_eq!(
            q.pop_store_woken(),
            None,
            "round {round}: stale store waiter"
        );
        assert_eq!(q.pop_due(at), None, "round {round}: stale timer");
        assert_eq!(
            q.pop_due(at + 5),
            Some(SeqNum::new(new)),
            "round {round}: fresh timer lost"
        );
        q.invalidate(SeqNum::new(new));
    }
}
