//! Issue: the event-driven scheduler, the recovery buffer and IQ
//! selection, port arbitration and wakeup speculation.

use super::Simulator;
use crate::window::UopState;
use ss_sched::WakeupDecision;
use ss_types::trace::{TraceEvent, TraceSink};
use ss_types::{Cycle, OpClass, ReplayCause, SeqNum, ShiftPolicy, SimConfig};
use ss_workloads::TraceSource;

/// One cycle's issue-stage budget and context, shared by the recovery
/// and IQ selection loops: the issue slots and ports left (the Table 1
/// mix), and what drives Schedule Shifting and the banked-PRF model.
#[derive(Debug)]
struct IssueCycle {
    width: u32,
    alu: u32,
    muldiv: u32,
    fp: u32,
    /// FP multiply/divide ports.
    fpmd: u32,
    /// Load/store and store-only port slots.
    mem: u32,
    /// Load slots (two with dual load issue).
    loads: u32,
    loads_issued: u32,
    /// Predicted bank of the first load issued this cycle (only tracked
    /// under [`ShiftPolicy::Predicted`]).
    first_load_bank: Option<u8>,
    /// PRF reads per (register class, bank) this cycle (banked-PRF model).
    prf_reads: [[u8; 16]; 2],
}

impl IssueCycle {
    fn new(cfg: &SimConfig) -> Self {
        IssueCycle {
            width: cfg.issue_width,
            alu: cfg.alu_ports,
            muldiv: cfg.muldiv_ports,
            fp: cfg.fp_ports,
            fpmd: cfg.fpmuldiv_ports,
            mem: cfg.ldst_ports + cfg.store_only_ports,
            loads: cfg.max_loads_per_cycle(),
            loads_issued: 0,
            first_load_bank: None,
            prf_reads: [[0; 16]; 2],
        }
    }
}

impl<T: TraceSource, S: TraceSink> Simulator<T, S> {
    /// Debug-build proof that no recovery member is stranded: every
    /// member selectable this cycle has its ready bit set, so the issue
    /// stage's walk, which visits only marked members, misses none.
    #[cfg(debug_assertions)]
    pub(super) fn assert_no_stranded_recovery(&self) {
        for &seq in self.recovery.iter().flat_map(|(_, g)| g) {
            assert!(
                self.sched.is_recovery_ready(seq) || !self.ready_to_issue(seq),
                "stranded recovery member {seq} at {}",
                self.now
            );
        }
    }

    /// (Re-)registers `seq` with the event-driven scheduler after any
    /// event that may change its readiness. Invalidate-then-classify:
    ///
    /// * every outstanding parked reference goes stale (epoch bump);
    /// * neither IQ-waiting nor waiting in the recovery buffer → nothing
    ///   to track (both kinds classify the same way below and differ
    ///   only in which ready bitmap they mark);
    /// * a source is `NEVER` (conservative/unissued producer) → watch
    ///   only the `NEVER` sources; nothing can change until one of them
    ///   acquires a wake time, and the re-classification that triggers
    ///   sees every finite source fresh;
    /// * otherwise some source wakes at a finite future time → watch the
    ///   *latest*-waking source and park on the wake heap at its wake.
    ///   Readiness is the max over sources, so only the governing
    ///   source's wake moving *earlier* can advance it (broadcast fires
    ///   the watcher); any source moving *later* is discovered at the
    ///   parked re-check, before the µ-op could have issued anyway;
    /// * blocked on an unexecuted predicted store → park on that store;
    /// * otherwise → mark ready (the recovery bitmap for a recovery
    ///   member).
    ///
    /// The ready bit is a *belief*: selection re-verifies with
    /// [`Self::ready_to_issue`] and re-registers on mismatch (lazy
    /// invalidation), so a stale bit costs a re-check, never correctness.
    pub(super) fn sched_register(&mut self, seq: SeqNum) {
        self.work.registrations += 1;
        let epoch = self.sched.invalidate(seq);
        let (srcs, store_dep, in_recovery) = {
            let Some(e) = self.entry(seq) else { return };
            let in_recovery = e.is_recovery_waiting();
            if !in_recovery && !e.is_iq_waiting() {
                return;
            }
            (e.srcs, e.store_dep, in_recovery)
        };
        let now = self.now;
        let mut latest = Cycle::ZERO;
        let mut latest_src = None;
        let mut has_never = false;
        for s in srcs.iter().flatten() {
            let w = self.rename.wake_at(*s);
            if w > now {
                if w == Cycle::NEVER {
                    has_never = true;
                    self.rename.watch(*s, seq, epoch);
                } else if w > latest {
                    latest = w;
                    latest_src = Some(*s);
                }
            }
        }
        if has_never {
            return;
        }
        if let Some(governing) = latest_src {
            self.rename.watch(governing, seq, epoch);
            self.sched.park_until(latest, seq, epoch);
            return;
        }
        if let Some(dep) = store_dep {
            let unexecuted = self
                .entry(dep)
                .is_some_and(|s| s.uop.class.is_store() && !s.store_executed);
            if unexecuted {
                self.sched.park_on_store(dep, seq, epoch);
                return;
            }
        }
        if in_recovery {
            self.sched.mark_recovery_ready(seq);
        } else {
            self.sched.mark_ready(seq);
        }
    }

    /// Releases every µ-op parked on `store` (it executed or committed)
    /// and re-registers them immediately.
    pub(super) fn sched_fire_store_event(&mut self, store: SeqNum) {
        self.sched.fire_store(store);
        while let Some(seq) = self.sched.pop_store_woken() {
            self.sched_register(seq);
        }
    }

    /// Drains the cycle's scheduler events at the top of the issue stage:
    /// timer-parked µ-ops whose latest source wake has arrived, and
    /// µ-ops whose watched source registers had their wake time changed
    /// since last cycle (tag broadcast). Each is re-classified by
    /// [`Self::sched_register`].
    fn sched_drain_events(&mut self) {
        while let Some(seq) = self.sched.pop_due(self.now) {
            self.sched_register(seq);
        }
        if self.rename.has_woken() {
            let mut woken = std::mem::take(&mut self.scratch_woken);
            self.rename.drain_woken(&mut woken);
            for &(seq, epoch) in &woken {
                if self.sched.epoch_matches(seq, epoch) {
                    self.sched_register(seq);
                }
            }
            woken.clear();
            self.scratch_woken = woken;
        }
    }

    /// Debug-build cross-check (every 256 cycles): no eligible ready
    /// µ-op may be stranded outside its ready bitmap, and every marked
    /// bit must belong to a live entry of the matching kind (IQ-waiting
    /// or recovery member). The bitmaps may legitimately hold entries
    /// that are no longer `ready_to_issue` (lazy invalidation); the issue
    /// stage filters those.
    #[cfg(debug_assertions)]
    fn sched_cross_check(&self) {
        if !self.now.get().is_multiple_of(256) {
            return;
        }
        for e in &self.rob {
            let member = e.is_recovery_waiting();
            if (member || e.is_iq_waiting()) && self.ready_to_issue(e.seq) {
                let marked = if member {
                    self.sched.is_recovery_ready(e.seq)
                } else {
                    self.sched.is_ready(e.seq)
                };
                assert!(
                    marked,
                    "stranded ready µ-op {} ({:?}, recovery={member}) at {}",
                    e.seq, e.uop.class, self.now
                );
            }
            if self.sched.is_recovery_ready(e.seq) {
                assert!(
                    member,
                    "recovery ready bit on non-member µ-op {} ({:?}) at {}",
                    e.seq, e.state, self.now
                );
            }
            if self.sched.is_ready(e.seq) {
                assert!(
                    e.is_iq_waiting(),
                    "ready bit on non-IQ-waiting µ-op {} ({:?}) at {}",
                    e.seq,
                    e.state,
                    self.now
                );
            }
        }
    }

    /// The issue stage: drain the cycle's scheduler events, replay
    /// ready recovery-buffer members, then select from the IQ ready set.
    /// Both phases visit only µ-ops whose ready bit is set and re-verify
    /// each one, re-registering it on a mismatch (lazy invalidation).
    pub(super) fn issue(&mut self) {
        self.sched_drain_events();
        #[cfg(debug_assertions)]
        {
            self.sched_cross_check();
            self.assert_no_stranded_recovery();
        }
        if self.issue_blocked_at == Some(self.now) {
            // A replay squashed this cycle: selection is suppressed.
            return;
        }
        let mut cycle = IssueCycle::new(&self.cfg);
        let mut issued_group: Vec<SeqNum> = self.group_pool.get();

        // Recovery buffer first (Morancho-style): oldest group first,
        // members in order, visiting only entries whose ready bit is set.
        // (A literal single-group select can livelock once several replay
        // events interleave group ages, so the buffer carries per-entry
        // ready bits instead — see DESIGN.md.) The marked members are
        // collected up front; nothing in the loop can set a bit.
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let mut marked = self.sched.recovery_ready_len();
        for &seq in self.recovery.iter().flat_map(|(_, g)| g) {
            if marked == 0 {
                break;
            }
            if self.sched.is_recovery_ready(seq) {
                candidates.push(seq);
                marked -= 1;
            }
        }
        for &seq in &candidates {
            if cycle.width == 0 {
                break;
            }
            self.work.recovery_visits += 1;
            if self.try_issue(seq, &mut cycle) {
                self.stats.recovery_buffer_replays += 1;
                issued_group.push(seq);
            }
        }
        // Only replays are in the issue group so far.
        if !issued_group.is_empty() {
            self.prune_recovery();
        }

        // Scheduler: oldest-first selection over IQ-resident µ-ops. The
        // event-driven path pulls issue-width-sized batches off the ready
        // bitmap (age-ordered by construction), resuming past each batch
        // until the width is spent — the ready set can be IQ-sized, and
        // collecting all of it per cycle would dwarf the selection
        // itself. Batching is sound because nothing inside the selection
        // loop can *set* a ready bit (`sched_register` of a stale
        // candidate re-parks it; issue clears bits), so resuming after
        // the last processed age sees exactly the survivors a single
        // full collection would have. Batches reuse the scratch buffer.
        if cycle.width > 0 {
            /// Ready entries pulled per batch: comfortably above the
            /// 6-wide issue width, small enough to keep the common case
            /// at one batch.
            const SELECT_BATCH: usize = 16;
            let mut first_iq_issue = true;
            let base = self.rob.front().map(|e| e.seq);
            let mut consumed = 0u64;
            'select: loop {
                candidates.clear();
                if self.sched.ready_len() > 0 {
                    if let Some(base) = base {
                        let span = self.rob.len() as u64;
                        if consumed < span {
                            self.sched.collect_ready_capped(
                                SeqNum::new(base.get() + consumed),
                                (span - consumed) as usize,
                                SELECT_BATCH,
                                &mut candidates,
                            );
                        }
                    }
                }
                let Some(&last) = candidates.last() else {
                    break;
                };
                for &seq in &candidates {
                    if cycle.width == 0 {
                        break 'select;
                    }
                    self.work.select_checks += 1;
                    if !self.try_issue(seq, &mut cycle) {
                        continue;
                    }
                    if first_iq_issue {
                        // The oldest ready IQ entry this cycle:
                        // QOLD-critical.
                        self.entry_mut(seq).expect("just issued").was_iq_oldest = true;
                        first_iq_issue = false;
                    }
                    issued_group.push(seq);
                }
                if candidates.len() < SELECT_BATCH {
                    // A short batch took every ready entry left.
                    break;
                }
                // Resume the next batch just past the last processed age.
                let head = base.expect("candidates imply a ROB head");
                consumed = last.get() + 1 - head.get();
            }
        }
        self.scratch_candidates = candidates;

        if !issued_group.is_empty() {
            self.inflight.push_back((self.now, issued_group));
        } else {
            self.group_pool.put(issued_group);
        }
    }

    /// Drops the members that left the recovery buffer (replayed, or
    /// flushed off the ROB tail) and recycles the groups they emptied,
    /// keeping group order. A member still waiting has `in_recovery` set
    /// ([`Self::check_invariants`] enforces it), so that flag is the
    /// whole membership test.
    pub(super) fn prune_recovery(&mut self) {
        let mut recovery = std::mem::take(&mut self.recovery);
        for (_, group) in &mut recovery {
            group.retain(|&seq| self.entry(seq).is_some_and(|e| e.in_recovery));
        }
        recovery.retain_mut(|(_, group)| {
            let keep = !group.is_empty();
            if !keep {
                self.group_pool.put(std::mem::take(group));
            }
            keep
        });
        self.recovery = recovery;
    }

    /// Source wakeup + memory-dependence readiness.
    fn ready_to_issue(&self, seq: SeqNum) -> bool {
        let e = self.entry(seq).unwrap_or_else(|| {
            panic!(
                "stale seq {seq} at {}: rob base {:?} len {} recovery {:?}",
                self.now,
                self.rob.front().map(|e| e.seq),
                self.rob.len(),
                self.recovery
                    .iter()
                    .map(|(c, g)| (*c, g.len()))
                    .collect::<Vec<_>>()
            )
        });
        for s in e.srcs.iter().flatten() {
            if self.rename.wake_at(*s) > self.now {
                return false;
            }
        }
        if let Some(dep) = e.store_dep {
            if let Some(store) = self.entry(dep) {
                if store.uop.class.is_store() && !store.store_executed {
                    return false;
                }
            }
        }
        true
    }

    /// The selection step both loops share. Re-verifies `seq` and, on a
    /// mismatch, re-registers it (lazy invalidation: a ready bit may
    /// have gone stale since it was set — producer squashed, wakeup
    /// revised later, store dependence re-armed — and `sched_register`
    /// re-derives the conditions `ready_to_issue` checks, so a not-ready
    /// entry never re-marks itself ready). Then takes its ports and
    /// issues it. Returns whether it issued.
    #[inline]
    fn try_issue(&mut self, seq: SeqNum, cycle: &mut IssueCycle) -> bool {
        let live = (self.entry(seq)).is_some_and(|e| e.is_iq_waiting() || e.is_recovery_waiting());
        debug_assert!(
            live,
            "ready bit on µ-op {seq}, which is not waiting to issue"
        );
        if !live || !self.ready_to_issue(seq) {
            self.sched_register(seq);
            return false;
        }
        let class = self.entry(seq).expect("entry").uop.class;
        if !self.take_ports(class, cycle) {
            return false;
        }
        self.do_issue(seq, cycle);
        true
    }

    /// Port/unit arbitration: takes an issue slot and the port `class`
    /// needs from `cycle`, or returns false, taking nothing, when one is
    /// spent or the class's unpipelined divider is still busy.
    #[inline]
    fn take_ports(&mut self, class: OpClass, cycle: &mut IssueCycle) -> bool {
        debug_assert!(cycle.width > 0);
        let now = self.now;
        match class {
            OpClass::IntAlu | OpClass::Branch(_) => {
                if cycle.alu == 0 {
                    return false;
                }
                cycle.alu -= 1;
            }
            OpClass::IntMul | OpClass::IntDiv => {
                if cycle.muldiv == 0 || self.muldiv_free > now {
                    return false;
                }
                cycle.muldiv -= 1;
                if class == OpClass::IntDiv {
                    self.muldiv_free = now + class.base_latency();
                }
            }
            OpClass::FpAlu => {
                if cycle.fp == 0 {
                    return false;
                }
                cycle.fp -= 1;
            }
            OpClass::FpMul | OpClass::FpDiv => {
                if cycle.fpmd == 0 {
                    return false;
                }
                let Some(port) = self.fpdiv_free.iter().position(|&f| f <= now) else {
                    return false;
                };
                cycle.fpmd -= 1;
                if class == OpClass::FpDiv {
                    self.fpdiv_free[port] = now + class.base_latency();
                }
            }
            OpClass::Load => {
                if cycle.mem == 0 || cycle.loads == 0 {
                    return false;
                }
                cycle.mem -= 1;
                cycle.loads -= 1;
            }
            OpClass::Store => {
                if cycle.mem == 0 {
                    return false;
                }
                cycle.mem -= 1;
            }
        }
        cycle.width -= 1;
        true
    }

    /// Issues one µ-op: bookkeeping, wakeup speculation, stats.
    fn do_issue(&mut self, seq: SeqNum, cycle: &mut IssueCycle) {
        let delay = self.delay;
        let now = self.now;
        let load_to_use = self.cfg.l1d_load_to_use;

        // Issued µ-ops leave the ready set; any parked reference is stale.
        self.sched.invalidate(seq);
        // Copy out the (all-`Copy`) fields issue reads — no `RobEntry`
        // clone on the hot path.
        let (uop, wrong_path, dst, srcs, in_recovery, times_issued) = {
            let e = self.entry(seq).expect("entry");
            (
                e.uop,
                e.wrong_path,
                e.dst,
                e.srcs,
                e.in_recovery,
                e.times_issued,
            )
        };
        self.stats.issued_total += 1;
        if S::ENABLED {
            self.sink.record(TraceEvent::Issue {
                cycle: now,
                seq,
                from_recovery: in_recovery,
            });
        }
        let first_issue = times_issued == 0;
        if first_issue {
            self.stats.unique_issued += 1;
            if wrong_path {
                self.stats.wrong_path_issued += 1;
            }
        }
        // Banked-PRF read-port arbitration (§4.2): a µ-op whose issue
        // group oversubscribes a bank's read ports is delayed one cycle —
        // discovered at register read, after its dependents were woken.
        let mut prf_delay = 0u8;
        if let Some(pb) = self.cfg.prf_banking {
            for src in srcs.iter().flatten() {
                let bank = src.reg.index() % pb.banks as usize;
                let reads = &mut cycle.prf_reads[src.class.index()][bank];
                *reads += 1;
                if u32::from(*reads) > pb.read_ports_per_bank {
                    prf_delay = 1;
                }
            }
        }
        // Wakeup speculation for the destination.
        if let Some((dst, _)) = dst {
            match uop.class {
                OpClass::Load => {
                    let decision = self.engine.decide(uop.pc);
                    cycle.loads_issued += 1;
                    let shifted = match self.cfg.shift_policy {
                        ShiftPolicy::Off => false,
                        ShiftPolicy::Always => cycle.loads_issued == 2,
                        ShiftPolicy::Predicted => {
                            // Shift only if this load and the group's
                            // first load are confidently predicted to hit
                            // the same bank (Yoaz-style).
                            let my_pred = self.bank_pred.predict(uop.pc);
                            let conflict = cycle.loads_issued == 2
                                && match (cycle.first_load_bank, my_pred) {
                                    (Some(a), Some(b)) => a == b,
                                    _ => false,
                                };
                            if cycle.loads_issued == 1 {
                                cycle.first_load_bank = my_pred;
                            }
                            conflict
                        }
                    };
                    match decision {
                        WakeupDecision::Speculative => {
                            let wake = now + load_to_use + if shifted { 1 } else { 0 };
                            self.rename.set_wake(dst, wake);
                            if S::ENABLED {
                                self.sink.record(TraceEvent::SpecWakeup {
                                    cycle: now,
                                    seq,
                                    wake,
                                });
                            }
                        }
                        WakeupDecision::Conservative => {
                            self.rename.set_wake(dst, Cycle::NEVER);
                        }
                    }
                    self.rename.set_avail(dst, Cycle::NEVER, None);
                }
                class => {
                    let lat = class.base_latency();
                    // Dependents are woken on the bypass schedule; a PRF
                    // read-port delay is only discovered later, so they
                    // replay against the delayed availability.
                    self.rename.set_wake(dst, now + lat);
                    let cause = (prf_delay > 0).then_some(ReplayCause::PrfConflict);
                    self.rename
                        .set_avail(dst, now + delay + 1 + lat + u64::from(prf_delay), cause);
                }
            }
        }

        let em = self.entry_mut(seq).expect("entry");
        em.state = UopState::InFlight;
        em.issue_cycle = now;
        em.times_issued += 1;
        em.in_recovery = false;
        em.prf_delay = prf_delay;
        // Non-memory µ-ops release their IQ entry at (first) issue.
        if !em.uop.class.is_mem() && em.holds_iq {
            em.holds_iq = false;
            self.iq_used -= 1;
        }
    }
}
