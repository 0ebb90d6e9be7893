//! The cycle-level out-of-order pipeline with speculative scheduling and
//! Alpha-21264-style replay.
//!
//! Stage order within [`Simulator::tick`] (one call = one cycle), each
//! stage in its own file behind one gate (`Simulator::due`):
//!
//! 1. **Commit** (`commit.rs`) — retire up to 8 completed µ-ops from the
//!    ROB head; train the branch predictor, filter and criticality table.
//! 2. **Execute** (`execute.rs`) — the issue group from `now − delay − 1`
//!    reaches the execution stage. Every µ-op verifies its operands
//!    against the physical-register scoreboard; a missing operand is a
//!    *schedule misspeculation*: all µ-ops in flight between Issue and
//!    Execute are squashed into the recovery buffer (or back to their
//!    retained IQ entries for loads/stores) and one issue cycle is lost.
//! 3. **Issue** (`issue.rs`) — the recovery buffer's head group has
//!    priority; the scheduler fills the holes (Morancho-style). Up to 6
//!    µ-ops across the Table 1 port mix; loads consult the wakeup-policy
//!    engine and (optionally) Schedule Shifting decides the wakeup of the
//!    second load of the group.
//! 4. **Dispatch** (`frontend.rs`) — rename and insert into ROB/IQ/LSQ.
//! 5. **Fetch** (`frontend.rs`) — up to 8 µ-ops from two 16-byte blocks
//!    over at most one taken branch; wrong-path µ-ops are synthesized
//!    past a mispredicted branch until it resolves.
//!
//! Capture and restore live in `persist.rs`.

mod commit;
mod execute;
mod frontend;
mod issue;
mod persist;
#[cfg(test)]
mod tests;

use crate::diff::DiffChecker;
use crate::fault::FaultPlan;
use crate::rename::{PhysRef, RenameUnit};
use crate::schedq::SchedQueue;
use crate::window::{FetchedUop, RobEntry, UopState};
use ss_bpred::{BranchPredictor, PredMeta};
use ss_isa::MicroOp;
use ss_mem::MemoryHierarchy;
use ss_memdep::StoreSets;
use ss_sched::{BankPredictor, SchedEngine};
use ss_types::commit::CommitRecord;
use ss_types::trace::{NullSink, TraceSink};
use ss_types::{
    Cycle, DeadlockReport, InvariantReport, SeqNum, SimConfig, SimError, SimStats, VecPool,
};
use ss_workloads::{TraceSource, WrongPathGen};
use std::collections::VecDeque;

pub use persist::{config_fingerprint, load_snapshot, sections};
pub use ss_types::PipelineSnapshot;

/// Exact counts of the work a [`Simulator`] did over its whole life.
/// Deterministic, so a test can pin them where a wall-clock timing
/// would drift with the host. They are bookkeeping, not machine state:
/// kept out of [`SimStats`] and out of snapshots, so counting moves no
/// digest (a restore leaves them as they are).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Cycles stepped by [`Simulator::tick`] (quiet-skipped cycles are
    /// not stepped).
    pub ticks: u64,
    /// Ticks whose issue gate was open.
    pub issue_calls: u64,
    /// Recovery-buffer members the issue stage's walk re-verified (only
    /// members whose ready bit is set are visited).
    pub recovery_visits: u64,
    /// Ready-set candidates selection re-verified.
    pub select_checks: u64,
    /// Scheduler (re-)registrations of a µ-op.
    pub registrations: u64,
}

/// The pipeline stages [`Simulator::tick`] steps, in order. Each has one
/// gate, [`Simulator::due`]: the earliest cycle it has work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Wake revisions whose hit/miss signal has arrived.
    DeferredWakes,
    Commit,
    Execute,
    Issue,
    Dispatch,
    Fetch,
}

impl Stage {
    const ALL: [Stage; 6] = [
        Stage::DeferredWakes,
        Stage::Commit,
        Stage::Execute,
        Stage::Issue,
        Stage::Dispatch,
        Stage::Fetch,
    ];
}

/// The simulator: one out-of-order core running one trace.
///
/// Generic over a [`TraceSink`] so observability is a compile-time
/// strategy: the default [`NullSink`] advertises `ENABLED = false` and
/// every instrumentation site monomorphizes away — an untraced
/// `Simulator<T>` is bit-for-bit the machine it was before tracing
/// existed. Construct with [`Simulator::with_sink`] to capture events.
pub struct Simulator<T, S: TraceSink = NullSink> {
    cfg: SimConfig,
    delay: u64,
    trace: T,
    wp_gen: WrongPathGen,
    bpred: BranchPredictor,
    mem: MemoryHierarchy,
    store_sets: StoreSets,
    engine: SchedEngine,
    bank_pred: BankPredictor,
    rename: RenameUnit,

    rob: VecDeque<RobEntry>,
    frontend: VecDeque<FetchedUop>,
    frontend_cap: usize,
    /// Direction metadata of the correct-path branches in `frontend` and
    /// `rob`, in program order: fetch pushes, commit pops. A flush never
    /// touches it, because everything a flush drops is wrong-path.
    pred_metas: VecDeque<PredMeta>,
    /// Issue groups in the issue-to-execute pipe, keyed by issue cycle.
    inflight: VecDeque<(Cycle, Vec<SeqNum>)>,
    /// Replay groups, keyed by original issue cycle (head group replays
    /// first; the scheduler fills holes).
    recovery: VecDeque<(Cycle, Vec<SeqNum>)>,

    iq_used: u32,
    lq_used: u32,
    sq_used: u32,
    /// Reusable per-cycle scratch for the issue stage (avoids two heap
    /// allocations per simulated cycle on the hot path).
    scratch_candidates: Vec<SeqNum>,
    /// Event-driven scheduler state: the incrementally-maintained ready
    /// set the IQ selection phase iterates instead of scanning the ROB.
    sched: SchedQueue,
    /// Recycled `Vec<SeqNum>` buffers for issue/recovery groups — the
    /// steady-state hot loop allocates nothing.
    group_pool: VecPool<SeqNum>,
    /// Scratch for draining rename watcher wakeups (reused each cycle).
    scratch_woken: Vec<(SeqNum, u32)>,
    /// Scratch seq list for squash walks (reused per event).
    scratch_squash: Vec<SeqNum>,
    /// In-flight correct-path stores with a known address, in program
    /// order: `(quadword, seq)`. The memory-order check walks this
    /// (bounded by the store queue) instead of the whole ROB per load.
    store_ring: VecDeque<(u64, SeqNum)>,
    muldiv_free: Cycle,
    fpdiv_free: [Cycle; 2],

    now: Cycle,
    next_seq: SeqNum,
    /// Issue is suppressed for this cycle (replay handled this cycle).
    issue_blocked_at: Option<Cycle>,
    /// Fetching synthesized wrong-path µ-ops.
    wrong_path_mode: bool,
    /// Next correct-path µ-op (lookahead buffer over the trace).
    pending_correct: Option<MicroOp>,
    fetch_stall_until: Cycle,
    last_commit_at: Cycle,
    /// Wake revisions that take effect when the hit/miss *signal* exists
    /// (one cycle before data return — paper footnote 2). Revising at the
    /// load's execute would let the scheduler cancel doomed wakeups the
    /// hardware could not have known about yet, erasing the replays the
    /// paper observes at small issue-to-execute delays.
    deferred_wakes: Vec<(Cycle, PhysRef, Cycle)>,
    /// Ring of recent correct-path load addresses; wrong-path loads probe
    /// near these (real wrong paths touch the program's own data, so they
    /// mostly hit — probing a disjoint region would fabricate misses and
    /// inflate wrong-path-induced replays).
    recent_load_addrs: [ss_types::Addr; 64],
    recent_load_idx: usize,
    wp_rng: u64,

    /// Injected-fault schedule (robustness testing), if any.
    fault_plan: Option<FaultPlan>,
    /// A structured error detected mid-tick (e.g. a malformed µ-op at the
    /// fetch boundary), surfaced by [`Simulator::try_run_committed`].
    pending_error: Option<SimError>,

    /// Bounded ring of the last `commit_log_window` committed µ-ops (the
    /// canonical commit log a divergence report carries as context;
    /// O(window) memory regardless of run length).
    commit_ring: VecDeque<CommitRecord>,
    /// Online differential checker against a golden model, if attached.
    diff: Option<DiffChecker>,
    /// Test-only seeded bug: when armed, the next replay "loses" one
    /// correct-path µ-op (see [`Simulator::seed_wakeup_bug`]).
    wakeup_bug_armed: bool,
    wakeup_bug_fired: bool,

    /// Path of the nearest checkpoint this run was captured to or
    /// restored from, attached to failure reports so a crash can be
    /// reproduced from warm state instead of a cold replay.
    checkpoint_note: Option<String>,

    /// The observability sink every stage reports into (see
    /// [`ss_types::trace`]).
    sink: S,

    /// Work counters (see [`WorkCounts`]); never read by the machine.
    work: WorkCounts,
    /// The core's own counters; [`Self::stats`] adds the components'.
    stats: SimStats,
}

impl<T: TraceSource> Simulator<T> {
    /// Builds an untraced simulator for `cfg` running `trace` (the
    /// [`NullSink`] compiles all instrumentation out).
    pub fn new(cfg: SimConfig, trace: T) -> Self {
        Self::with_sink(cfg, trace, NullSink)
    }
}

impl<T: TraceSource, S: TraceSink> Simulator<T, S> {
    /// Builds a simulator for `cfg` running `trace`, reporting every
    /// pipeline event into `sink`.
    pub fn with_sink(cfg: SimConfig, trace: T, sink: S) -> Self {
        cfg.validate();
        let delay = cfg.issue_to_execute_delay;
        let frontend_cap = (cfg.frontend_width as u64 * (cfg.frontend_depth() + 2)) as usize;
        Simulator {
            delay,
            bpred: BranchPredictor::new(&cfg.predictor),
            mem: MemoryHierarchy::new(&cfg),
            store_sets: StoreSets::new(1024, 131_072),
            engine: SchedEngine::new(&cfg),
            bank_pred: BankPredictor::new(cfg.bank_predictor_entries),
            rename: RenameUnit::new(cfg.int_prf, cfg.fp_prf),
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            frontend: VecDeque::with_capacity(frontend_cap),
            frontend_cap,
            pred_metas: VecDeque::new(),
            inflight: VecDeque::new(),
            recovery: VecDeque::new(),
            iq_used: 0,
            lq_used: 0,
            sq_used: 0,
            scratch_candidates: Vec::with_capacity(256),
            sched: SchedQueue::new(cfg.rob_entries as usize),
            group_pool: VecPool::new(),
            scratch_woken: Vec::new(),
            scratch_squash: Vec::new(),
            store_ring: VecDeque::with_capacity(cfg.sq_entries as usize + 1),
            muldiv_free: Cycle::ZERO,
            fpdiv_free: [Cycle::ZERO; 2],
            now: Cycle::ZERO,
            next_seq: SeqNum::FIRST,
            issue_blocked_at: None,
            wrong_path_mode: false,
            pending_correct: None,
            fetch_stall_until: Cycle::ZERO,
            last_commit_at: Cycle::ZERO,
            deferred_wakes: Vec::new(),
            recent_load_addrs: [ss_types::Addr::new(0x1_0000_0000); 64],
            recent_load_idx: 0,
            wp_rng: 0x2545_F491_4F6C_DD1D,
            fault_plan: None,
            pending_error: None,
            commit_ring: VecDeque::new(),
            diff: None,
            wakeup_bug_armed: false,
            wakeup_bug_fired: false,
            checkpoint_note: None,
            work: WorkCounts::default(),
            stats: SimStats::default(),
            wp_gen: WrongPathGen::new(0x57A7_5EED),
            sink,
            cfg,
            trace,
        }
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the simulator, returning the sink (and whatever it
    /// captured).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The work this simulator has done since it was built.
    pub fn work(&self) -> WorkCounts {
        self.work
    }

    /// Current statistics, each counter read from its owner: the core's
    /// own counters, the memory hierarchy's, and the scheduling-policy
    /// engine's decision counts.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        self.mem.export_into(&mut s);
        let es = self.engine.stats;
        s.loads_spec_woken = es.speculative;
        s.loads_conservative = es.conservative;
        s.filter_sure_hit = es.sure_hit;
        s.filter_sure_miss = es.sure_miss;
        s.filter_unstable = es.unstable;
        s.crit_predicted_critical = es.critical;
        s.crit_predicted_noncritical = es.noncritical;
        s
    }

    /// Installs a fault-injection schedule (see [`FaultPlan`]) after
    /// validating it.
    ///
    /// # Errors
    ///
    /// [`SimError::ConfigInvalid`] if the plan contains a zero-duration
    /// or overlapping window.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate()?;
        self.fault_plan = Some(plan);
        Ok(())
    }

    /// Attaches an online differential checker: every subsequent commit
    /// is compared against the checker's golden model, and the first
    /// mismatch ends the run with [`SimError::Divergence`]. The oracle
    /// must consume a *fresh* copy of the same trace this simulator runs
    /// (attach before the first call to a `run` method).
    pub fn attach_diff_checker(&mut self, checker: DiffChecker) {
        self.diff = Some(checker);
    }

    /// Records the filesystem path of the nearest checkpoint this run
    /// relates to (last captured to, or restored from). The note rides
    /// along on [`DeadlockReport`]/[`ss_types::DivergenceReport`] so
    /// failures name the warm state they can be reproduced from.
    pub fn set_checkpoint_note(&mut self, note: impl Into<String>) {
        self.checkpoint_note = Some(note.into());
    }

    /// The checkpoint note, if one was recorded.
    pub fn checkpoint_note(&self) -> Option<&str> {
        self.checkpoint_note.as_deref()
    }

    /// Commits verified by the attached differential checker, if any.
    pub fn diff_verified(&self) -> Option<u64> {
        self.diff.as_ref().map(DiffChecker::verified)
    }

    /// Arms a deliberately-seeded wakeup-recovery bug for oracle "teeth"
    /// tests: the first schedule-misspeculation replay after arming
    /// silently drops one correct-path µ-op from the frontend, exactly
    /// the class of recovery bug the differential checker exists to
    /// catch. Never enable outside tests.
    pub fn seed_wakeup_bug(&mut self) {
        self.wakeup_bug_armed = true;
    }

    /// Runs until at least `n` more µ-ops commit, returning a structured
    /// error instead of panicking when the machine misbehaves:
    ///
    /// * [`SimError::Deadlock`] — no commit for
    ///   [`SimConfig::watchdog_cycles`] consecutive cycles;
    /// * [`SimError::InvariantViolation`] — the periodic checker (every
    ///   [`SimConfig::invariant_check_interval`] cycles, when non-zero)
    ///   caught internal state corruption;
    /// * [`SimError::TraceInvalid`] — the trace source handed fetch a
    ///   malformed µ-op.
    ///
    /// Windows where no stage has work — 30–50% of all cycles on
    /// scheduler-bound workloads — are fast-forwarded in one jump (the
    /// private `quiet_skip` probe finds them). The jump only covers
    /// cycles where [`Self::tick`] would have advanced the clock and
    /// counted `cycles` (plus `dispatch_stall_cycles` while a ready
    /// frontend head is blocked, and one `Occupancy` event each when
    /// tracing) without touching anything else, and it lands exactly on
    /// the watchdog deadline and on every invariant-check multiple, so
    /// statistics, errors and failure reports are those of stepping
    /// every cycle.
    ///
    /// The simulator must not be used further after an error.
    pub fn try_run_committed(&mut self, n: u64) -> Result<SimStats, SimError> {
        let target = self.stats.committed_uops + n;
        let watchdog = self.cfg.watchdog_cycles;
        let interval = self.cfg.invariant_check_interval;
        while self.stats.committed_uops < target {
            if let Some((skip, dispatch_stall)) = self.quiet_skip() {
                // Land exactly on the watchdog deadline (the report must
                // carry the same cycle a per-cycle check would see) and
                // on every invariant-check multiple.
                let deadline = self.last_commit_at.get().saturating_add(watchdog);
                let mut skip = skip.min(deadline - self.now.get());
                if let Some(period) = self.now.get().checked_div(interval) {
                    let next_check = (period + 1) * interval;
                    skip = skip.min(next_check - self.now.get());
                }
                self.advance_quiet(skip, dispatch_stall);
            } else {
                self.tick();
                if let Some(e) = self.pending_error.take() {
                    return Err(e);
                }
            }
            if self.now.since(self.last_commit_at) >= watchdog {
                return Err(SimError::Deadlock(Box::new(self.deadlock_report())));
            }
            if interval > 0 && self.now.get().is_multiple_of(interval) {
                self.check_invariants()?;
            }
        }
        Ok(self.stats())
    }

    /// Advances the machine one cycle, stepping each stage in order:
    /// deferred wakes, commit, execute, issue, dispatch, fetch. A stage
    /// runs once its gate (the cycle its work is due) has come; each gate
    /// is read right before its stage, so a stage that runs can arm the
    /// next. An open gate may run a stage that finds nothing to do; a
    /// closed one never skips work. Debug builds assert on every tick,
    /// once the cycle's scheduler events are drained, that no selectable
    /// recovery member lacks its ready bit.
    pub fn tick(&mut self) {
        self.work.ticks += 1;
        self.now += 1;
        self.stats.cycles += 1;
        let now = self.now;
        for stage in Stage::ALL {
            if self.due(stage) > now {
                #[cfg(debug_assertions)]
                if stage == Stage::Issue {
                    self.assert_no_stranded_recovery();
                }
                continue;
            }
            match stage {
                Stage::DeferredWakes => self.apply_deferred_wakes(|apply_at, _| apply_at <= now),
                Stage::Commit => self.commit(),
                Stage::Execute => self.execute(),
                Stage::Issue => {
                    self.work.issue_calls += 1;
                    self.issue();
                }
                Stage::Dispatch => self.dispatch(),
                Stage::Fetch => self.fetch(),
            }
        }
        if S::ENABLED {
            self.record_occupancy();
        }
    }

    /// The earliest cycle `stage` has work: the one gate both
    /// [`Self::tick`] and quiet skip read. [`Cycle::NEVER`] means no
    /// work until another stage acts; [`Cycle::ZERO`] means work is
    /// pending now. Issue's gate covers the IQ and the recovery buffer:
    /// both register with the same event-driven scheduler. `&mut`
    /// because reading the next timer drops stale heap heads.
    #[inline]
    fn due(&mut self, stage: Stage) -> Cycle {
        match stage {
            Stage::DeferredWakes => {
                (self.deferred_wakes.iter().map(|&(at, _, _)| at).min()).unwrap_or(Cycle::NEVER)
            }
            Stage::Commit => match self.rob.front() {
                Some(head) if head.state == UopState::Done => head.done_at,
                _ => Cycle::NEVER,
            },
            Stage::Execute => (self.inflight.front())
                .map_or(Cycle::NEVER, |&(issued_at, _)| issued_at + self.delay + 1),
            Stage::Issue => {
                if self.sched.ready_len() > 0
                    || self.sched.recovery_ready_len() > 0
                    || self.rename.has_woken()
                    || self.sched.has_store_woken()
                {
                    Cycle::ZERO
                } else {
                    self.sched.next_due().unwrap_or(Cycle::NEVER)
                }
            }
            Stage::Dispatch => self.frontend.front().map_or(Cycle::NEVER, |f| f.ready_at),
            Stage::Fetch => {
                if self.frontend.len() < self.frontend_cap {
                    self.fetch_stall_until
                } else {
                    Cycle::NEVER
                }
            }
        }
    }

    /// Emits this cycle's `Occupancy` trace event: the occupancy counts
    /// of [`Self::snapshot`].
    fn record_occupancy(&mut self) {
        self.sink.record(self.snapshot().occupancy());
    }

    /// Probes whether the upcoming cycles are *quiet* — provably free of
    /// any stage activity — and if so, how many may be skipped. Valid
    /// between any two ticks: a marked ready set (IQ or recovery) is
    /// busy, and every parked µ-op waits on the wake heap, whose next due
    /// time bounds the skip, or on an event only a stage can fire.
    ///
    /// Returns `Some((n, dispatch_stall))` when cycles `now+1 ..= now+n`
    /// are all quiet (`dispatch_stall` reports whether each of them
    /// would have counted a dispatch stall), `None` when the next cycle
    /// is (or may be) busy. The skip ends before the earliest stage gate
    /// ([`Self::due`]); everything else the stages consult (scoreboard
    /// wake/avail times, memory hierarchy, predictors, fault windows) is
    /// only read when one of them runs. The one exception is a ready
    /// frontend head blocked on a structural resource: dispatch only
    /// counts a stall cycle until another stage frees the resource, so
    /// the probe counts it and reads the gate as closed. Conservative by
    /// construction: anything this cannot bound (e.g. a ready-but-port-
    /// blocked µ-op) reports busy and falls back to a real cycle.
    fn quiet_skip(&mut self) -> Option<(u64, bool)> {
        let c = self.now + 1;
        let mut event = Cycle::NEVER;
        let mut dispatch_stall = false;
        for stage in Stage::ALL {
            let due = self.due(stage);
            if due > c {
                event = event.min(due);
            } else if stage == Stage::Dispatch
                && (self.frontend.front()).is_some_and(|f| self.dispatch_blocked(&f.uop))
            {
                dispatch_stall = true;
            } else {
                return None;
            }
        }
        if event == Cycle::NEVER {
            // Nothing will ever happen again; the caller's watchdog clamp
            // bounds the skip and surfaces the deadlock.
            return Some((u64::MAX, dispatch_stall));
        }
        // `event` is the first cycle with work; skip up to just before it.
        Some((event.get() - self.now.get() - 1, dispatch_stall))
    }

    /// Advances the clock over `n` quiet cycles, applying exactly the
    /// statistics a real [`Self::tick`] would have counted on each:
    /// `cycles` always, and `dispatch_stall_cycles` when the probe saw a
    /// ready frontend head blocked on a structural resource (the
    /// condition is constant across a quiet window — nothing that feeds
    /// it changes).
    /// An enabled trace sink gets the `Occupancy` event of each skipped
    /// cycle; occupancy is constant across the window too.
    fn advance_quiet(&mut self, n: u64, dispatch_stall: bool) {
        debug_assert!(n >= 1);
        if dispatch_stall {
            self.stats.dispatch_stall_cycles += n;
        }
        self.stats.cycles += n;
        if S::ENABLED {
            for _ in 0..n {
                self.now += 1;
                self.record_occupancy();
            }
        } else {
            self.now += n;
        }
    }

    /// Captures the current pipeline occupancy (cheap; no simulation
    /// side effects). The one definition of the occupancy counts: the
    /// traced `Occupancy` event and the `Debug` view read it.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            cycle: self.now,
            rob: self.rob.len(),
            iq: self.iq_used,
            lq: self.lq_used,
            sq: self.sq_used,
            frontend: self.frontend.len(),
            recovery: self.recovery.iter().map(|(_, g)| g.len()).sum(),
            inflight: self.inflight.iter().map(|(_, g)| g.len()).sum(),
            wrong_path: self.wrong_path_mode,
            committed: self.stats.committed_uops,
            issued: self.stats.issued_total,
            replayed: self.stats.replayed_miss + self.stats.replayed_bank,
        }
    }

    /// Builds the watchdog's detailed picture of the stuck window.
    fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            snapshot: self.snapshot(),
            watchdog_cycles: self.cfg.watchdog_cycles,
            detail: self.window_detail(),
            checkpoint: self.checkpoint_note.clone(),
            trace: self.sink.recent(),
        }
    }

    /// Human-readable dump of in-flight scheduler/replay state: ROB head
    /// entries with their wake/avail times, the recovery head group, and
    /// the in-flight issue groups. Shared by deadlock and divergence
    /// reports.
    fn window_detail(&self) -> String {
        use std::fmt::Write as _;
        // Streamed into one buffer — no intermediate Vec<String> or
        // per-field format! allocations (this runs from failure reports,
        // but also from tests exercising them in bulk).
        let mut msg = String::new();
        for e in self.rob.iter().take(12) {
            let _ = write!(
                msg,
                "  {} {} {:?} issued={}@{:?} rec={} iq={} dep={:?} srcs=[",
                e.seq,
                e.uop.class,
                e.state,
                e.times_issued,
                e.issue_cycle,
                e.in_recovery,
                e.holds_iq,
                e.store_dep
            );
            for (i, s) in e.srcs.iter().flatten().enumerate() {
                let _ = write!(
                    msg,
                    "{}{:?}/w{:?}/a{:?}",
                    if i > 0 { ", " } else { "" },
                    s.reg,
                    self.rename.wake_at(*s),
                    self.rename.avail_at(*s)
                );
            }
            msg.push_str("]\n");
        }
        if let Some((c, g)) = self.recovery.front() {
            let _ = writeln!(msg, "  recovery head group @{c:?}: {g:?}");
        }
        msg.push_str("  inflight groups: [");
        for (i, (c, g)) in self.inflight.iter().enumerate() {
            let _ = write!(msg, "{}({c:?}, {})", if i > 0 { ", " } else { "" }, g.len());
        }
        msg.push_str("]\n");
        msg
    }

    /// Verifies the machine's internal-consistency invariants:
    /// occupancy counters vs structure contents, physical-register
    /// free-list conservation, and recovery-buffer/in-flight group
    /// consistency. Cheap enough to run every few thousand cycles (see
    /// [`SimConfig::invariant_check_interval`]); catches state corruption
    /// close to where it happened instead of as a downstream deadlock.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let fail = |what: String| {
            Err(SimError::InvariantViolation(InvariantReport {
                snapshot: self.snapshot(),
                what,
            }))
        };
        // Occupancy counters must equal what the ROB actually holds.
        let iq = self.rob.iter().filter(|e| e.holds_iq).count() as u32;
        if iq != self.iq_used {
            return fail(format!(
                "iq_used {} != {} IQ-holding ROB entries",
                self.iq_used, iq
            ));
        }
        let lq = self.rob.iter().filter(|e| e.uop.class.is_load()).count() as u32;
        if lq != self.lq_used {
            return fail(format!("lq_used {} != {} loads in ROB", self.lq_used, lq));
        }
        let sq = self.rob.iter().filter(|e| e.uop.class.is_store()).count() as u32;
        if sq != self.sq_used {
            return fail(format!("sq_used {} != {} stores in ROB", self.sq_used, sq));
        }
        // Structure capacities.
        if self.rob.len() > self.cfg.rob_entries as usize {
            return fail(format!(
                "rob {} over capacity {}",
                self.rob.len(),
                self.cfg.rob_entries
            ));
        }
        if self.iq_used > self.cfg.iq_entries
            || self.lq_used > self.cfg.lq_entries
            || self.sq_used > self.cfg.sq_entries
        {
            return fail(format!(
                "queue over capacity: iq {}/{} lq {}/{} sq {}/{}",
                self.iq_used,
                self.cfg.iq_entries,
                self.lq_used,
                self.cfg.lq_entries,
                self.sq_used,
                self.cfg.sq_entries
            ));
        }
        // Recovery buffer: every member must be a live ROB entry still
        // marked as waiting in the buffer.
        for (cycle, group) in &self.recovery {
            for &seq in group {
                let Some(e) = self.entry(seq) else {
                    return fail(format!("recovery group @{cycle:?} holds dead seq {seq}"));
                };
                if !e.in_recovery || e.state != UopState::Waiting {
                    return fail(format!(
                        "recovery member {seq} in state {:?} (in_recovery={})",
                        e.state, e.in_recovery
                    ));
                }
            }
        }
        // In-flight groups may hold stale members (entries re-validate by
        // state at execute), but never sequence numbers never dispatched.
        for (cycle, group) in &self.inflight {
            for &seq in group {
                if seq >= self.next_seq {
                    return fail(format!(
                        "inflight group @{cycle:?} holds undispatched seq {seq}"
                    ));
                }
            }
        }
        // Physical-register free-list conservation: the free lists, the
        // rename maps, and the previous mappings held by in-ROB µ-ops
        // must exactly partition each register file (no leak, no
        // double-free).
        let mut held: [Vec<ss_types::PhysReg>; 2] = [Vec::new(), Vec::new()];
        for e in &self.rob {
            if let Some((_, prev)) = e.dst {
                held[prev.class.index()].push(prev.reg);
            }
        }
        if let Err(what) = self.rename.audit(&held[0], &held[1]) {
            return fail(what);
        }
        // Branch-metadata conservation: one queued meta per correct-path
        // branch in the frontend and the ROB.
        let branches = (self.frontend.iter().map(|f| (f.wrong_path, f.uop.class)))
            .chain(self.rob.iter().map(|e| (e.wrong_path, e.uop.class)))
            .filter(|&(wrong_path, class)| !wrong_path && class.is_branch())
            .count();
        if branches != self.pred_metas.len() {
            return fail(format!(
                "{} queued branch metas for {branches} correct-path branches in flight",
                self.pred_metas.len()
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // entry plumbing
    // ------------------------------------------------------------------

    /// The ROB slot of `seq`. Sequence numbers in the ROB are contiguous
    /// and end just below `next_seq` (dispatch hands out `next_seq`, a
    /// flush resets it to the branch's successor), so the head's seq is
    /// derived rather than loaded.
    fn rob_index(&self, seq: SeqNum) -> Option<usize> {
        let base = self.next_seq.get() - self.rob.len() as u64;
        debug_assert!(
            self.rob.front().is_none_or(|e| e.seq.get() == base),
            "ROB seqs must end just below next_seq"
        );
        seq.get().checked_sub(base).map(|i| i as usize)
    }

    fn entry(&self, seq: SeqNum) -> Option<&RobEntry> {
        self.rob.get(self.rob_index(seq)?)
    }

    fn entry_mut(&mut self, seq: SeqNum) -> Option<&mut RobEntry> {
        let i = self.rob_index(seq)?;
        self.rob.get_mut(i)
    }
}

impl<T: TraceSource, S: TraceSink> std::fmt::Debug for Simulator<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Simulator")
            .field("now", &s.cycle)
            .field("rob", &s.rob)
            .field("iq_used", &s.iq)
            .field("committed", &s.committed)
            .finish_non_exhaustive()
    }
}
