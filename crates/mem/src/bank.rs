//! The banked-L1D access arbiter (paper §3.1 "Bank Conflicts" + §4.2).
//!
//! The L1D is organized as 8 quadword-interleaved banks behind 2 read
//! ports. Per cycle the cache services at most two accesses; two accesses
//! may share a cycle iff they target *different banks*, or the *same set
//! of the same bank* (a Rivers-style single line buffer with two read
//! ports). Accesses that lose arbitration wait in an unbounded
//! Sandy-Bridge-style queue buffer; queued accesses have priority over new
//! ones and drain in FIFO order under the same rules.
//!
//! Because queued accesses always have priority, their service cycles can
//! be computed exactly at enqueue time, which is what [`BankArbiter`]
//! does — new arrivals can never delay an already-queued access.

use ss_types::{Addr, BankInterleaving, BankedL1dConfig, Cycle};
use std::collections::VecDeque;

/// Maximum accesses the cache can service per cycle (2 read ports).
const SLOTS_PER_CYCLE: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Target {
    bank: u32,
    set: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Queued {
    target: Target,
    service: Cycle,
}

/// Outcome of presenting one load to the banked L1D in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGrant {
    /// Cycles of delay before the access starts (0 = serviced this cycle).
    pub delay: u64,
}

/// The per-cycle bank/port arbiter.
#[derive(Debug, Clone)]
pub struct BankArbiter {
    cfg: BankedL1dConfig,
    set_shift: u32,
    set_mask: u64,
    /// The cycle `served` refers to.
    cur: Cycle,
    /// Accesses granted in `cur` (from the queue or new arrivals).
    served: Vec<Target>,
    /// Deferred accesses with precomputed service cycles, FIFO.
    queue: VecDeque<Queued>,
    /// Reusable buffer for the targets sharing the tail service cycle:
    /// `request` runs once per load and must not allocate in steady state.
    scratch_same: Vec<Target>,
    /// Total accesses delayed ≥ 1 cycle.
    pub delayed_accesses: u64,
    /// Total cycles of queueing delay.
    pub delay_cycles: u64,
}

impl BankArbiter {
    /// Creates an arbiter for the given banking config and L1D geometry
    /// (line size and set count determine the set index bits).
    pub fn new(cfg: BankedL1dConfig, line_bytes: u64, sets: u64) -> Self {
        BankArbiter {
            cfg,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            cur: Cycle::ZERO,
            served: Vec::with_capacity(SLOTS_PER_CYCLE as usize),
            queue: VecDeque::new(),
            scratch_same: Vec::with_capacity(SLOTS_PER_CYCLE as usize),
            delayed_accesses: 0,
            delay_cycles: 0,
        }
    }

    fn target(&self, addr: Addr) -> Target {
        let bank_bits = self.cfg.banks.trailing_zeros();
        let bank = match self.cfg.interleaving {
            // word interleaving: bank from the quadword bits within a line
            BankInterleaving::Word => {
                addr.bits(self.cfg.interleave_bytes.trailing_zeros(), bank_bits) as u32
            }
            // set interleaving: bank from the low set-index bits
            BankInterleaving::Set => addr.bits(self.set_shift, bank_bits) as u32,
        };
        let set = (addr.get() >> self.set_shift) & self.set_mask;
        Target { bank, set }
    }

    /// The bank `addr` maps to.
    pub fn bank_of(&self, addr: Addr) -> u32 {
        self.target(addr).bank
    }

    /// Whether `t` may share a service cycle with already-granted `others`.
    fn compatible(&self, t: Target, others: &[Target]) -> bool {
        if others.len() >= SLOTS_PER_CYCLE as usize {
            return false;
        }
        others
            .iter()
            .all(|o| o.bank != t.bank || (self.cfg.line_buffer && o.set == t.set))
    }

    /// Advances internal state to `now`, granting queued accesses their
    /// scheduled slots.
    fn advance(&mut self, now: Cycle) {
        if now == self.cur {
            return;
        }
        debug_assert!(now > self.cur, "time must move forward");
        self.cur = now;
        self.served.clear();
        while let Some(q) = self.queue.front() {
            if q.service < now {
                self.queue.pop_front();
            } else if q.service == now {
                self.served.push(q.target);
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    /// Presents a load at `now`; returns its bank-queueing delay.
    ///
    /// Accesses must be presented in non-decreasing cycle order.
    pub fn request(&mut self, addr: Addr, now: Cycle) -> BankGrant {
        self.advance(now);
        let t = self.target(addr);
        // Serviced now only if no older access is still queued (FIFO
        // priority) and the slot/bank rules allow it.
        if self.queue.is_empty() && self.compatible(t, &self.served) {
            self.served.push(t);
            return BankGrant { delay: 0 };
        }
        // Enqueue: schedule after the current queue tail.
        let mut in_cycle = std::mem::take(&mut self.scratch_same);
        in_cycle.clear();
        let mut cycle = match self.queue.back() {
            Some(tail) => tail.service,
            None => now + 1,
        };
        if cycle <= now {
            // tail was scheduled in the past relative to `now` (can happen
            // only transiently); start fresh next cycle
            cycle = now + 1;
        } else {
            in_cycle.extend(
                self.queue
                    .iter()
                    .filter(|q| q.service == cycle)
                    .map(|q| q.target),
            );
        }
        if !self.compatible(t, &in_cycle) {
            cycle += 1;
        }
        self.scratch_same = in_cycle;
        let delay = cycle - now;
        self.queue.push_back(Queued {
            target: t,
            service: cycle,
        });
        self.delayed_accesses += 1;
        self.delay_cycles += delay;
        BankGrant { delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(line_buffer: bool) -> BankArbiter {
        BankArbiter::new(
            BankedL1dConfig {
                line_buffer,
                ..Default::default()
            },
            64,
            64,
        )
    }

    /// addr with a given bank (0-7) and set (0-63)
    fn a(bank: u64, set: u64) -> Addr {
        Addr::new(set * 64 + bank * 8)
    }

    #[test]
    fn different_banks_share_a_cycle() {
        let mut b = arb(true);
        assert_eq!(b.request(a(0, 0), Cycle::new(1)).delay, 0);
        assert_eq!(b.request(a(1, 0), Cycle::new(1)).delay, 0);
    }

    #[test]
    fn same_bank_different_set_conflicts() {
        let mut b = arb(true);
        assert_eq!(b.request(a(3, 0), Cycle::new(1)).delay, 0);
        assert_eq!(b.request(a(3, 5), Cycle::new(1)).delay, 1);
        assert_eq!(b.delayed_accesses, 1);
    }

    #[test]
    fn same_bank_same_set_uses_line_buffer() {
        let mut b = arb(true);
        assert_eq!(b.request(a(3, 7), Cycle::new(1)).delay, 0);
        assert_eq!(
            b.request(a(3, 7), Cycle::new(1)).delay,
            0,
            "line buffer: 2 reads of one set"
        );
    }

    #[test]
    fn same_bank_same_set_conflicts_without_line_buffer() {
        let mut b = arb(false);
        assert_eq!(b.request(a(3, 7), Cycle::new(1)).delay, 0);
        assert_eq!(b.request(a(3, 7), Cycle::new(1)).delay, 1);
    }

    #[test]
    fn at_most_two_accesses_per_cycle() {
        let mut b = arb(true);
        assert_eq!(b.request(a(0, 0), Cycle::new(1)).delay, 0);
        assert_eq!(b.request(a(1, 0), Cycle::new(1)).delay, 0);
        // third access, even to a free bank, must wait (2 ports)
        assert_eq!(b.request(a(2, 0), Cycle::new(1)).delay, 1);
    }

    /// The paper's worked example (§3.1): two loads conflict in cycle 0;
    /// the loser is queued. In cycle 1, two new loads conflict with the
    /// queued one: the queued load and one new load are serviced; the
    /// other new load waits until cycle 3... here exactly: queued has
    /// priority, new compatible arrivals fill the second slot.
    #[test]
    fn queued_loads_have_priority_over_new_ones() {
        let mut b = arb(true);
        // cycle 0: L0a and L0b conflict (bank 2, sets 0/1)
        assert_eq!(b.request(a(2, 0), Cycle::new(0)).delay, 0);
        assert_eq!(b.request(a(2, 1), Cycle::new(0)).delay, 1); // queued for cycle 1
                                                                // cycle 1: two new loads to bank 2 (sets 2, 3): both conflict with
                                                                // the queued load being serviced this cycle
        assert_eq!(b.request(a(2, 2), Cycle::new(1)).delay, 1); // cycle 2
        assert_eq!(b.request(a(2, 3), Cycle::new(1)).delay, 2); // cycle 3
    }

    #[test]
    fn new_load_fills_free_slot_next_to_queued_one() {
        let mut b = arb(true);
        b.request(a(2, 0), Cycle::new(0));
        assert_eq!(b.request(a(2, 1), Cycle::new(0)).delay, 1); // queued → cycle 1
                                                                // cycle 1: a load to a different bank coexists with the queued one
        assert_eq!(b.request(a(5, 0), Cycle::new(1)).delay, 0);
        // but a third access in cycle 1 is out of slots
        assert_eq!(b.request(a(6, 0), Cycle::new(1)).delay, 1);
    }

    #[test]
    fn queue_drains_two_per_cycle_when_banks_differ() {
        let mut b = arb(true);
        // fill cycle 0 with two grants
        b.request(a(0, 0), Cycle::new(0));
        b.request(a(1, 0), Cycle::new(0));
        // four more to distinct banks: queue two per cycle
        assert_eq!(b.request(a(2, 0), Cycle::new(0)).delay, 1);
        assert_eq!(b.request(a(3, 0), Cycle::new(0)).delay, 1);
        assert_eq!(b.request(a(4, 0), Cycle::new(0)).delay, 2);
        assert_eq!(b.request(a(5, 0), Cycle::new(0)).delay, 2);
    }

    #[test]
    fn far_future_request_resets_state() {
        let mut b = arb(true);
        b.request(a(0, 0), Cycle::new(0));
        b.request(a(0, 1), Cycle::new(0));
        // much later, the queue has long drained
        assert_eq!(b.request(a(0, 2), Cycle::new(100)).delay, 0);
    }

    #[test]
    fn set_interleaving_banks_on_set_bits() {
        use ss_types::BankInterleaving;
        let mut b = BankArbiter::new(
            BankedL1dConfig {
                interleaving: BankInterleaving::Set,
                ..Default::default()
            },
            64,
            64,
        );
        // same line, different quadwords: same bank AND same set → line buffer
        assert_eq!(b.request(Addr::new(0), Cycle::new(1)).delay, 0);
        assert_eq!(b.request(Addr::new(8), Cycle::new(1)).delay, 0);
        // sets 0 and 8 → banks 0 and 0 (8 % 8): conflict, different sets
        assert_eq!(b.request(Addr::new(8 * 64), Cycle::new(2)).delay, 0);
        assert_eq!(b.request(Addr::new(16 * 64), Cycle::new(2)).delay, 1);
        // sets 0 and 1 → different banks: no conflict
        assert_eq!(b.request(Addr::new(0), Cycle::new(10)).delay, 0);
        assert_eq!(b.request(Addr::new(64), Cycle::new(10)).delay, 0);
    }

    #[test]
    fn delay_stats_accumulate() {
        let mut b = arb(true);
        b.request(a(0, 0), Cycle::new(0));
        b.request(a(0, 1), Cycle::new(0));
        b.request(a(0, 2), Cycle::new(0));
        assert_eq!(b.delayed_accesses, 2);
        assert_eq!(b.delay_cycles, 1 + 2);
    }
}

ss_types::impl_persist!(Target { bank, set });
ss_types::impl_persist!(Queued { target, service });
ss_types::impl_persist_state!(BankArbiter {
    cur,
    served,
    queue,
    delayed_accesses,
    delay_cycles
});
