//! Execute: operand verification, replay and squash, memory-order
//! checks, branch resolution and the deferred wake revisions.

use super::Simulator;
use crate::rename::PhysRef;
use crate::window::{RobEntry, UopState};
use ss_mem::MemLevel;
use ss_types::trace::{TraceEvent, TraceSink};
use ss_types::{Cycle, OpClass, ReplayCause, ReplayScheme, SeqNum};
use ss_workloads::TraceSource;

impl<T: TraceSource, S: TraceSink> Simulator<T, S> {
    /// Applies the pending wake revisions `due` selects by signal cycle
    /// and register: those whose hit/miss signal has arrived, or the late
    /// source a replay just observed. A revision is dropped unapplied if
    /// the producing load was squashed since (its availability was reset;
    /// the re-execution schedules a fresh one).
    pub(super) fn apply_deferred_wakes(&mut self, due: impl Fn(Cycle, PhysRef) -> bool) {
        let rename = &mut self.rename;
        self.deferred_wakes.retain(|&(apply_at, reg, wake)| {
            if !due(apply_at, reg) {
                return true;
            }
            if rename.avail_at(reg) != Cycle::NEVER {
                rename.set_wake(reg, wake);
            }
            false
        });
    }

    /// Executes the issue group that reaches Execute this cycle (the
    /// stage's gate has opened, so the oldest in-flight group is due).
    pub(super) fn execute(&mut self) {
        let exec_issue_cycle = Cycle::new(self.now.get() - self.delay - 1);
        let (issued_at, group) = self.inflight.pop_front().expect("an issue group is due");
        assert_eq!(
            issued_at, exec_issue_cycle,
            "missed issue group at {}",
            self.now
        );
        let mut replayed = false;
        for &seq in &group {
            // Validate membership: the entry may have been flushed or
            // squashed since issue.
            let Some(e) = self.entry(seq) else { continue };
            if e.state != UopState::InFlight || e.issue_cycle != exec_issue_cycle {
                continue;
            }
            if replayed {
                // Already replaying this cycle: the rest of the group is
                // part of the squashed window.
                continue;
            }
            // Operand verification against ground truth.
            let late_src = e
                .srcs
                .iter()
                .flatten()
                .find(|&&s| self.rename.avail_at(s) > self.now)
                .copied();
            if let Some(src) = late_src {
                // The replay detection IS the hardware's notification
                // that the source is late: apply its pending reschedule
                // now so squashed dependents wait for the residue instead
                // of recirculating blindly every few cycles.
                self.apply_deferred_wakes(|_, reg| reg == src);
                let cause = self.rename.late_cause(src).unwrap_or(ReplayCause::L1Miss);
                // For the trace: the replay's trigger is the µ-op
                // producing the late source (typically the missing load);
                // fall back to the detecting µ-op if the producer already
                // left the ROB.
                let trigger = if S::ENABLED {
                    self.rob
                        .iter()
                        .find(|p| p.dst.map(|(new, _)| new) == Some(src))
                        .map_or(seq, |p| p.seq)
                } else {
                    seq
                };
                match self.cfg.replay_scheme {
                    ReplayScheme::Squash => {
                        self.trigger_replay(cause, trigger, &group);
                        replayed = true;
                    }
                    ReplayScheme::Selective => {
                        // Pentium-4-style: only this µ-op recycles; the
                        // rest of the window is untouched and issue
                        // continues this cycle.
                        self.stats.add_replay_event(cause);
                        self.stats.add_replayed(cause, 1);
                        let mut group = self.group_pool.get();
                        self.squash_one(seq, &mut group, trigger, cause);
                        self.enqueue_recovery(self.now, group, false);
                    }
                    ReplayScheme::Refetch => {
                        // Branch-misprediction-style recovery: squash from
                        // the offender onward and stall fetch for a
                        // frontend refill.
                        self.stats.add_replay_event(cause);
                        let n = self.squash_from(seq, Some((trigger, cause)));
                        self.stats.add_replayed(cause, n);
                        self.issue_blocked_at = Some(self.now);
                        self.fetch_stall_until = self.now + self.cfg.frontend_depth();
                        // Group members *older* than the offender are
                        // unaffected and keep executing, so the loop
                        // continues without the `replayed` flag; younger
                        // members were reset to Waiting and fail the
                        // state re-validation.
                    }
                }
                continue;
            }
            self.execute_one(seq);
        }
        self.group_pool.put(group);
        #[cfg(debug_assertions)]
        {
            // Paranoia: nothing issued at or before the processed cycle may
            // remain InFlight — it would be orphaned forever.
            if let Some(e) = self
                .rob
                .iter()
                .find(|e| e.state == UopState::InFlight && e.issue_cycle <= exec_issue_cycle)
            {
                panic!(
                    "orphaned in-flight µ-op {} (issued @{:?}, exec target {:?}, now {})",
                    e.seq, e.issue_cycle, exec_issue_cycle, self.now
                );
            }
        }
    }

    /// Trace helper: records a replay squash for `seq`, plus its
    /// recovery-buffer reinsertion when the squash routed it there.
    /// Callers guard with `S::ENABLED`.
    #[inline]
    fn record_squash(&mut self, seq: SeqNum, trigger: SeqNum, cause: ReplayCause) {
        self.sink.record(TraceEvent::ReplaySquash {
            cycle: self.now,
            seq,
            trigger,
            cause,
        });
        if self.entry(seq).is_some_and(|e| e.in_recovery) {
            self.sink.record(TraceEvent::RecoveryEnter {
                cycle: self.now,
                seq,
            });
        }
    }

    /// Executes one verified µ-op (`state == InFlight`).
    fn execute_one(&mut self, seq: SeqNum) {
        // Copy out the (all-`Copy`) fields this stage reads rather than
        // cloning the whole `RobEntry`.
        let (uop, wrong_path, dst, prf_delay, mispredicted, mispred_handled) = {
            let e = self.entry(seq).expect("validated");
            (
                e.uop,
                e.wrong_path,
                e.dst,
                e.prf_delay,
                e.mispredicted,
                e.mispred_handled,
            )
        };
        let exec_start = self.now;
        match uop.class {
            OpClass::Load => {
                let aliasing = if wrong_path {
                    None
                } else {
                    self.youngest_older_aliasing_store(seq)
                };
                if let Some((store_seq, false)) = aliasing {
                    // Memory-order violation: the aliasing store has not
                    // executed yet.
                    self.handle_violation(seq, store_seq);
                    return;
                }
                let addr = uop.mem_addr().expect("load has address");
                let forwarded = matches!(aliasing, Some((_, true)));
                let (mut extra, mut cause, l1_hit) = if forwarded {
                    (0u64, None, true)
                } else {
                    let r = self.mem.load(uop.pc, addr, exec_start, wrong_path);
                    let hit = r.level == MemLevel::L1;
                    if !wrong_path {
                        self.engine.on_load_outcome(hit);
                    }
                    let cause = if !hit {
                        Some(ReplayCause::L1Miss)
                    } else if r.bank_delay > 0 {
                        Some(ReplayCause::BankConflict)
                    } else {
                        None
                    };
                    (r.extra_latency, cause, hit)
                };
                // Fault injection: an active window delays this load's
                // data past what the hierarchy reported, attributed to
                // the window's replay cause. Wrong-path loads are exempt
                // (their timing never reaches the scoreboard).
                if !wrong_path {
                    if let Some((f_extra, f_cause)) = self
                        .fault_plan
                        .as_ref()
                        .and_then(|p| p.load_fault(exec_start))
                    {
                        extra += f_extra;
                        cause = Some(f_cause);
                        self.stats.faults_injected += 1;
                    }
                }
                if prf_delay > 0 {
                    extra += u64::from(prf_delay);
                    cause = cause.or(Some(ReplayCause::PrfConflict));
                }
                // Train the bank predictor with the actual bank.
                if !wrong_path {
                    if let Some(bank) = self.mem.l1d_bank(addr) {
                        self.bank_pred.train(uop.pc, bank as u8);
                    }
                }
                let v = exec_start + self.cfg.l1d_load_to_use + extra;
                let dst = dst.expect("load writes a register").0;
                self.rename
                    .set_avail(dst, v, if extra > 0 { cause } else { None });
                // Wakeup revision: conservative loads wake dependents on
                // the hit/miss signal (one cycle before data ⇒ they pay
                // the issue-to-execute delay); speculatively-woken loads
                // that turned out late re-wake on the known residue (the
                // Pentium-4-style replay-loop schedule).
                let spec_wake = self.rename.wake_at(dst);
                if spec_wake == Cycle::NEVER {
                    // Conservative wakeup: dependents ride the actual
                    // hit/miss signal (one cycle before the data), paying
                    // the issue-to-execute delay on the chain.
                    self.rename
                        .set_wake(dst, Cycle::new((v.get() - 1).max(self.now.get() + 1)));
                } else if spec_wake + self.delay + 1 < v {
                    // Dependents woken at spec_wake would execute before
                    // the data exists. The hardware only learns this when
                    // the hit/miss signal arrives (v − 2); until then the
                    // speculative wakeup stands and dependents selected in
                    // the meantime replay — exactly the paper's doomed
                    // issues at small delays. From the signal on, pending
                    // dependents are rescheduled onto the known residue
                    // (the Pentium-4-style replay-loop schedule).
                    let revised = Cycle::new(
                        (v.get().saturating_sub(self.delay + 1)).max(self.now.get() + 1),
                    );
                    let signal_at = Cycle::new((v.get() - 2).max(self.now.get()));
                    if signal_at <= self.now {
                        self.rename.set_wake(dst, revised);
                    } else {
                        self.deferred_wakes.push((signal_at, dst, revised));
                    }
                }
                let em = self.entry_mut(seq).expect("validated");
                em.load_l1_hit = l1_hit;
                em.done_at = v;
                em.state = UopState::Done;
                if em.holds_iq {
                    em.holds_iq = false;
                    self.iq_used -= 1;
                }
            }
            OpClass::Store => {
                let em = self.entry_mut(seq).expect("validated");
                em.store_executed = true;
                em.done_at = exec_start + 1;
                em.state = UopState::Done;
                if em.holds_iq {
                    em.holds_iq = false;
                    self.iq_used -= 1;
                }
                if !wrong_path {
                    self.store_sets.on_store_complete(uop.pc, seq);
                }
                // Release loads parked on this store's execution.
                self.sched_fire_store_event(seq);
            }
            OpClass::Branch(kind) => {
                {
                    let em = self.entry_mut(seq).expect("validated");
                    em.done_at = exec_start + 1;
                    em.state = UopState::Done;
                }
                if !wrong_path && mispredicted && !mispred_handled {
                    // Resolve: flush everything younger, repair the
                    // predictor, resume correct-path fetch. A later
                    // memory-order squash may re-execute this branch;
                    // `mispred_handled` keeps the flush from repeating
                    // (the refetched path is already correct). The wrong
                    // path never consults the predictor, so this branch is
                    // still its last fetched one.
                    let b = uop.branch.expect("branch payload");
                    self.bpred.on_mispredict(uop.pc, kind, b.taken);
                    self.flush_younger_than(seq);
                    self.wrong_path_mode = false;
                    self.entry_mut(seq).expect("branch entry").mispred_handled = true;
                }
            }
            class => {
                let lat = class.base_latency();
                let em = self.entry_mut(seq).expect("validated");
                em.done_at = exec_start + lat + u64::from(em.prf_delay);
                em.state = UopState::Done;
                // avail/wake were set deterministically at issue
            }
        }
        // Trace the completed execution (memory-order violations reset
        // the load to Waiting above and are not an execution).
        if S::ENABLED {
            if let Some(e) = self.entry(seq) {
                if e.state == UopState::Done {
                    let done_at = e.done_at;
                    self.sink.record(TraceEvent::Execute {
                        cycle: exec_start,
                        seq,
                        done_at,
                    });
                }
            }
        }
    }

    /// Quadword key of a store the memory-order index tracks: correct-
    /// path stores with a known address — exactly the entries the
    /// aliasing walk can match. Wrong-path and address-less stores are
    /// invisible to it and stay out of [`Self::store_ring`].
    pub(super) fn tracked_store_qw(e: &RobEntry) -> Option<u64> {
        if e.wrong_path || !e.uop.class.is_store() {
            return None;
        }
        e.uop.mem_addr().map(|a| a.get() >> 3)
    }

    /// Finds the youngest store older than `load_seq` to the same
    /// quadword, returning `(seq, executed)`. Aliasing is quadword-
    /// granular — the workloads emit aligned 8-byte accesses only.
    ///
    /// An unexecuted match is a memory-order violation if the load
    /// executes now; an executed match satisfies the load by
    /// store-to-load forwarding.
    ///
    /// The walk runs over [`Self::store_ring`] — the program-ordered ring
    /// of in-flight correct-path stores — so its cost is bounded by store
    /// queue occupancy, not ROB size.
    fn youngest_older_aliasing_store(&self, load_seq: SeqNum) -> Option<(SeqNum, bool)> {
        let load = self.entry(load_seq)?;
        let qw = load.uop.mem_addr()?.get() >> 3;
        for &(sqw, sseq) in self.store_ring.iter().rev() {
            if sseq >= load_seq {
                continue;
            }
            if sqw == qw {
                let executed = self
                    .entry(sseq)
                    .expect("store ring entry is in the ROB")
                    .store_executed;
                return Some((sseq, executed));
            }
        }
        None
    }

    /// Memory-order violation: train Store Sets, squash the load and
    /// everything younger back to re-issue, and make the load wait for
    /// the store.
    fn handle_violation(&mut self, load_seq: SeqNum, store_seq: SeqNum) {
        self.stats.memdep_violations += 1;
        let load_pc = self.entry(load_seq).expect("load").uop.pc;
        let store_pc = self.entry(store_seq).expect("store").uop.pc;
        self.store_sets.on_violation(load_pc, store_pc);
        // Memory-order squashes carry no `ReplayCause` (they are not a
        // schedule misspeculation), so they go untraced; the load's
        // re-issue shows up as a fresh `Issue` event.
        let _ = self.squash_from(load_seq, None);
        let em = self.entry_mut(load_seq).expect("load");
        em.store_dep = Some(store_seq);
        // The dependence was attached after the squash walk registered
        // the load; re-classify so it parks on the store.
        self.sched_register(load_seq);
        self.issue_blocked_at = Some(self.now);
    }

    /// Alpha-style replay: squash every µ-op between Issue and Execute
    /// (all in-flight issue groups, plus the unexecuted rest of
    /// `exec_group`, the group executing this cycle), lose one issue
    /// cycle, and account the squashed µ-ops to `cause`. `trigger` is the
    /// µ-op whose late result was detected (trace linkage only; no
    /// timing effect).
    fn trigger_replay(&mut self, cause: ReplayCause, trigger: SeqNum, exec_group: &[SeqNum]) {
        // Seeded-bug hook (tests only, armed via `seed_wakeup_bug`): a
        // recovery bug that loses one correct-path µ-op during the
        // squash. Timing-only wakeup bugs cannot change the commit
        // stream, so this models the dangerous class — replay recovery
        // that silently drops work — which the differential oracle must
        // catch as a pc mismatch at the next commit of the dropped spot.
        if self.wakeup_bug_armed && !self.wakeup_bug_fired {
            self.wakeup_bug_fired = true;
            let _ = self.next_correct_uop();
        }
        self.stats.add_replay_event(cause);
        self.issue_blocked_at = Some(self.now);
        let mut squashed = 0u64;
        while let Some((issue_cycle, group)) = self.inflight.pop_front() {
            let mut recovery_group = self.group_pool.get();
            for &seq in &group {
                let Some(e) = self.entry(seq) else { continue };
                if e.state != UopState::InFlight || e.issue_cycle != issue_cycle {
                    continue;
                }
                squashed += 1;
                self.squash_one(seq, &mut recovery_group, trigger, cause);
            }
            self.group_pool.put(group);
            self.enqueue_recovery(issue_cycle, recovery_group, false);
        }
        // The µ-op that detected the misspeculation is part of the
        // squashed window too (its group was popped before this call);
        // account it through the caller's `continue` path: the remaining
        // members of the executing group were skipped, not squashed, so
        // re-squash its InFlight stragglers, oldest first. Every µ-op
        // issued at the exec group's cycle is in that group.
        let exec_cycle = Cycle::new(self.now.get() - self.delay - 1);
        let mut stragglers = std::mem::take(&mut self.scratch_squash);
        stragglers.clear();
        stragglers.extend(exec_group.iter().copied().filter(|&seq| {
            self.entry(seq)
                .is_some_and(|e| e.state == UopState::InFlight && e.issue_cycle == exec_cycle)
        }));
        stragglers.sort_unstable();
        let mut recovery_group = self.group_pool.get();
        for &seq in &stragglers {
            squashed += 1;
            self.squash_one(seq, &mut recovery_group, trigger, cause);
        }
        stragglers.clear();
        self.scratch_squash = stragglers;
        self.enqueue_recovery(exec_cycle, recovery_group, true);
        self.stats.add_replayed(cause, squashed);
    }

    /// Queues a recovery group a squash filled, keyed by `cycle`, behind
    /// the buffer's others (at its head when `oldest`), or returns it to
    /// the pool when the squash routed nothing to the buffer.
    fn enqueue_recovery(&mut self, cycle: Cycle, group: Vec<SeqNum>, oldest: bool) {
        if group.is_empty() {
            self.group_pool.put(group);
        } else if oldest {
            self.recovery.push_front((cycle, group));
        } else {
            self.recovery.push_back((cycle, group));
        }
    }

    /// Squashes one issued-but-unexecuted µ-op back to a re-issuable
    /// state, tracing it against `trigger` and `cause`. Memory µ-ops
    /// still hold their IQ entry and re-issue from the scheduler; others
    /// go to the recovery buffer.
    fn squash_one(
        &mut self,
        seq: SeqNum,
        recovery_group: &mut Vec<SeqNum>,
        trigger: SeqNum,
        cause: ReplayCause,
    ) {
        let e = self.entry_mut(seq).expect("squash target");
        e.state = UopState::Waiting;
        let is_mem = e.uop.class.is_mem();
        let dst = e.dst;
        if !is_mem {
            e.in_recovery = true;
            recovery_group.push(seq);
        }
        if let Some((new, _)) = dst {
            self.rename.reset_timing(new);
        }
        // Memory µ-ops went back to IQ-waiting, the rest to the recovery
        // buffer; both register with the scheduler.
        self.sched_register(seq);
        if S::ENABLED {
            self.record_squash(seq, trigger, cause);
        }
    }

    /// Squashes `from` and everything younger back to re-issue (memory-
    /// order violation and Refetch recovery; no true refetch — the µ-ops
    /// stay in the ROB). Returns the number of µ-ops squashed. `traced`
    /// carries the (trigger, cause) pair to trace the squashes with;
    /// `None` (memory-order violations) leaves them untraced.
    fn squash_from(&mut self, from: SeqNum, traced: Option<(SeqNum, ReplayCause)>) -> u64 {
        let mut seqs = std::mem::take(&mut self.scratch_squash);
        seqs.clear();
        seqs.extend(
            self.rob
                .iter()
                .filter(|e| e.seq >= from && e.state != UopState::Waiting)
                .map(|e| e.seq),
        );
        let n_squashed = seqs.len() as u64;
        let mut recovery_group = self.group_pool.get();
        for &seq in &seqs {
            let e = self.entry_mut(seq).expect("entry");
            let was_done = e.state == UopState::Done;
            e.state = UopState::Waiting;
            e.done_at = Cycle::NEVER;
            let is_mem = e.uop.class.is_mem();
            let is_store = e.uop.class.is_store();
            let wrong_path = e.wrong_path;
            let pc = e.uop.pc;
            let dst = e.dst;
            let mut reacquire_iq = false;
            if is_mem {
                // Re-acquire the IQ entry it released at execute.
                if was_done && !e.holds_iq {
                    e.holds_iq = true;
                    reacquire_iq = true;
                }
                if is_store {
                    e.store_executed = false;
                }
            } else if !e.in_recovery {
                e.in_recovery = true;
                recovery_group.push(seq);
            }
            if reacquire_iq {
                self.iq_used += 1;
            }
            if is_store && !wrong_path {
                // Make the set's loads wait for this store again.
                let _ = self.store_sets.on_store_dispatch(pc, seq);
            }
            if let Some((new, _)) = dst {
                self.rename.reset_timing(new);
            }
            self.sched_register(seq);
            if S::ENABLED {
                if let Some((trigger, cause)) = traced {
                    self.record_squash(seq, trigger, cause);
                }
            }
        }
        seqs.clear();
        self.scratch_squash = seqs;
        self.enqueue_recovery(self.now, recovery_group, false);
        n_squashed
    }
}
