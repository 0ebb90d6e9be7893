//! The cycle-level out-of-order pipeline with speculative scheduling and
//! Alpha-21264-style replay.
//!
//! Stage order within [`Simulator::tick`] (one call = one cycle):
//!
//! 1. **Commit** — retire up to 8 completed µ-ops from the ROB head;
//!    train the branch predictor, hit/miss filter, and criticality table.
//! 2. **Execute** — the issue group from `now − delay − 1` reaches the
//!    execution stage. Every µ-op verifies its operands against the
//!    physical-register scoreboard; a missing operand is a *schedule
//!    misspeculation*: all µ-ops in flight between Issue and Execute are
//!    squashed into the recovery buffer (or back to their retained IQ
//!    entries for loads/stores) and one issue cycle is lost (§3.1).
//! 3. **Issue** — the recovery buffer's head group has priority; the
//!    scheduler fills the holes (Morancho-style). Up to 6 µ-ops across
//!    the Table 1 port mix; loads consult the wakeup-policy engine and
//!    (optionally) Schedule Shifting decides the wakeup of the second
//!    load of the group.
//! 4. **Dispatch** — rename and insert into ROB/IQ/LSQ.
//! 5. **Fetch** — up to 8 µ-ops from two 16-byte blocks over at most one
//!    taken branch; wrong-path µ-ops are synthesized past a mispredicted
//!    branch until it resolves.

use crate::diff::DiffChecker;
use crate::fault::FaultPlan;
use crate::rename::{PhysRef, RenameUnit};
use crate::schedq::SchedQueue;
use crate::window::{FetchedUop, PredSlab, RobEntry, UopState};
use ss_bpred::BranchPredictor;
use ss_isa::MicroOp;
use ss_mem::{MemLevel, MemoryHierarchy};
use ss_memdep::StoreSets;
use ss_sched::{BankPredictor, SchedEngine, WakeupDecision};
use ss_types::commit::CommitRecord;
use ss_types::persist::{DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::trace::{NullSink, TraceEvent, TraceSink};
use ss_types::{
    BankInterleaving, CritCriterion, Cycle, DeadlockReport, DivergenceReport, InvariantReport,
    OpClass, ReplayCause, ReplayScheme, SeqNum, ShiftPolicy, SimConfig, SimError, SimStats,
    VecPool,
};
use ss_workloads::{TraceSource, WrongPathGen};
use std::collections::VecDeque;

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

/// Per-cycle issue-stage context shared by the replay and scheduler
/// selection loops (drives Schedule Shifting decisions).
#[derive(Debug, Default)]
struct IssueCycleState {
    loads_issued: u32,
    /// Predicted bank of the first load issued this cycle (only tracked
    /// under [`ShiftPolicy::Predicted`]).
    first_load_bank: Option<u8>,
    /// PRF reads per (register class, bank) this cycle (banked-PRF model).
    prf_reads: [[u8; 16]; 2],
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
    /// Fetch-time predictions of the branches in `frontend` and `rob`,
    /// named by their entries' `pred` handles.
    preds: PredSlab,
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
    stats: SimStats,
    /// Memory-order violations (Store Sets training events).
    pub memdep_violations: u64,
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
            preds: PredSlab::default(),
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
            memdep_violations: 0,
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

    /// Current statistics (memory counters freshly exported).
    pub fn stats(&mut self) -> SimStats {
        self.mem.export_into(&mut self.stats);
        let es = self.engine.stats;
        self.stats.loads_spec_woken = es.speculative;
        self.stats.loads_conservative = es.conservative;
        self.stats.filter_sure_hit = es.sure_hit;
        self.stats.filter_sure_miss = es.sure_miss;
        self.stats.filter_unstable = es.unstable;
        self.stats.crit_predicted_critical = es.critical;
        self.stats.crit_predicted_noncritical = es.noncritical;
        self.stats.memdep_violations = self.memdep_violations;
        self.stats.clone()
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
    /// along on [`DeadlockReport`]/[`DivergenceReport`] so failures name
    /// the warm state they can be reproduced from.
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

    /// Advances the machine one cycle, calling each stage in order:
    /// deferred wakes, commit, execute, issue, dispatch, fetch.
    ///
    /// The first four are *gated*: a stage is called only when its
    /// no-op condition does not hold. Each gate is checked immediately
    /// before its stage, so it sees exactly the state the stage would
    /// (a stage that runs can arm the next — commit firing a store
    /// release, execute pushing a squash into recovery). Gates are
    /// conservative: a false positive calls a stage that early-exits;
    /// the no-op conditions make false negatives impossible:
    ///
    /// * deferred wakes — nothing due (`min apply_at > now`);
    /// * commit — ROB head absent, not `Done`, or `done_at > now`;
    /// * execute — no in-flight group due (`issue_cycle + delay + 1`);
    /// * issue — no drainable scheduler event (due timer, woken
    ///   watcher, store release) and both ready sets empty: IQ µ-ops and
    ///   recovery-buffer members register with the same event-driven
    ///   scheduler, so one set of checks covers both.
    ///
    /// Dispatch and fetch exit on their first check when they have
    /// nothing to do. Debug builds assert on every tick, once the
    /// cycle's scheduler events are drained, that no selectable recovery
    /// member lacks its ready bit.
    pub fn tick(&mut self) {
        self.work.ticks += 1;
        self.now += 1;
        self.stats.cycles += 1;
        let now = self.now;

        if self.deferred_wakes.iter().any(|&(at, _, _)| at <= now) {
            self.apply_deferred_wakes();
        }
        if self
            .rob
            .front()
            .is_some_and(|h| h.state == UopState::Done && h.done_at <= now)
        {
            self.commit();
        }
        if self
            .inflight
            .front()
            .is_some_and(|&(c, _)| c + self.delay < now)
        {
            self.execute();
        }
        let issue_needed = self.sched.recovery_ready_len() > 0
            || self.sched.ready_len() > 0
            || self.rename.has_woken()
            || self.sched.has_store_woken()
            || self.sched.next_due().is_some_and(|d| d <= now);
        if issue_needed {
            self.work.issue_calls += 1;
            self.issue();
        } else {
            #[cfg(debug_assertions)]
            self.assert_no_stranded_recovery();
        }

        self.dispatch();
        self.fetch();
        if S::ENABLED {
            self.record_occupancy();
        }
    }

    /// Debug-build proof that no recovery member is stranded: every
    /// member selectable this cycle has its ready bit set, so the issue
    /// stage's walk, which visits only marked members, misses none.
    #[cfg(debug_assertions)]
    fn assert_no_stranded_recovery(&self) {
        for &seq in self.recovery.iter().flat_map(|(_, g)| g) {
            assert!(
                self.sched.is_recovery_ready(seq) || !self.ready_to_issue(seq),
                "stranded recovery member {seq} at {}",
                self.now
            );
        }
    }

    /// Emits this cycle's `Occupancy` trace event.
    fn record_occupancy(&mut self) {
        self.sink.record(TraceEvent::Occupancy {
            cycle: self.now,
            rob: self.rob.len() as u32,
            iq: self.iq_used,
            lq: self.lq_used,
            sq: self.sq_used,
            frontend: self.frontend.len() as u32,
            recovery: self.recovery.iter().map(|(_, g)| g.len() as u32).sum(),
            inflight: self.inflight.iter().map(|(_, g)| g.len() as u32).sum(),
            wrong_path: self.wrong_path_mode,
        });
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
    /// is (or may be) busy. The per-stage no-op conditions are those of
    /// [`Self::tick`]; everything else the stages consult
    /// (scoreboard wake/avail times, memory hierarchy, predictors,
    /// fault windows) is only read when one of them fires, so the
    /// earliest stage event bounds the skip. Conservative by
    /// construction: anything this cannot bound (e.g. a ready-but-port-
    /// blocked µ-op) reports busy and falls back to a real cycle.
    fn quiet_skip(&mut self) -> Option<(u64, bool)> {
        let c = self.now + 1;
        // Cheapest busy checks first: scheduler events pending this cycle.
        if self.sched.ready_len() > 0
            || self.sched.recovery_ready_len() > 0
            || self.rename.has_woken()
            || self.sched.has_store_woken()
        {
            return None;
        }
        let mut event = Cycle::NEVER;
        if let Some(head) = self.rob.front() {
            if head.state == UopState::Done {
                if head.done_at <= c {
                    return None;
                }
                event = event.min(head.done_at);
            }
        }
        if let Some((issued_at, _)) = self.inflight.front() {
            let due = *issued_at + self.delay + 1;
            if due <= c {
                return None;
            }
            event = event.min(due);
        }
        for &(apply_at, _, _) in &self.deferred_wakes {
            if apply_at <= c {
                return None;
            }
            event = event.min(apply_at);
        }
        if let Some(due) = self.sched.next_due() {
            if due <= c {
                return None;
            }
            event = event.min(due);
        }
        let mut dispatch_stall = false;
        if let Some(f) = self.frontend.front() {
            if f.ready_at <= c {
                if !self.dispatch_blocked(&f.uop) {
                    return None;
                }
                dispatch_stall = true;
            } else {
                event = event.min(f.ready_at);
            }
        }
        let wp_parked = self.wrong_path_mode && !self.cfg.wrong_path;
        if self.frontend.len() < self.frontend_cap && !wp_parked {
            if self.fetch_stall_until <= c {
                return None;
            }
            event = event.min(self.fetch_stall_until);
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
    /// side effects).
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
        // Prediction-slab conservation: the live slots are exactly the
        // handles the frontend and the ROB hold, and the slab never grew
        // past the entries that can hold one.
        let slab_bound = self.cfg.rob_entries as usize + self.frontend_cap;
        if self.preds.len() > slab_bound {
            return fail(format!(
                "prediction slab grew to {} slots (bound {slab_bound})",
                self.preds.len()
            ));
        }
        let handles = (self.frontend.iter().filter_map(|f| f.pred))
            .chain(self.rob.iter().filter_map(|e| e.pred));
        if let Err(what) = self.preds.audit(handles) {
            return fail(what);
        }
        Ok(())
    }

    /// Applies a pending wake revision for `reg` immediately (a replay
    /// event observed the late source before its signal-time reschedule).
    fn force_deferred_wake(&mut self, reg: PhysRef) {
        let rename = &mut self.rename;
        self.deferred_wakes.retain(|&(_, r, wake)| {
            if r == reg {
                if rename.avail_at(r) != Cycle::NEVER {
                    rename.set_wake(r, wake);
                }
                false
            } else {
                true
            }
        });
    }

    /// Applies wake revisions whose hit/miss signal has now arrived. A
    /// revision is dropped if the producing load was squashed since (its
    /// availability was reset; the re-execution schedules a fresh one).
    fn apply_deferred_wakes(&mut self) {
        let now = self.now;
        let rename = &mut self.rename;
        self.deferred_wakes.retain(|&(apply_at, reg, wake)| {
            if apply_at > now {
                return true;
            }
            if rename.avail_at(reg) != Cycle::NEVER {
                rename.set_wake(reg, wake);
            }
            false
        });
    }

    // ------------------------------------------------------------------
    // entry plumbing
    // ------------------------------------------------------------------

    fn entry(&self, seq: SeqNum) -> Option<&RobEntry> {
        let base = self.rob.front()?.seq;
        if seq < base {
            return None;
        }
        self.rob.get((seq.get() - base.get()) as usize)
    }

    fn entry_mut(&mut self, seq: SeqNum) -> Option<&mut RobEntry> {
        let base = self.rob.front()?.seq;
        if seq < base {
            return None;
        }
        self.rob.get_mut((seq.get() - base.get()) as usize)
    }

    // ------------------------------------------------------------------
    // event-driven scheduler maintenance
    // ------------------------------------------------------------------

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
    fn sched_register(&mut self, seq: SeqNum) {
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

    /// Drops `seq` from the scheduler (issued or flushed): clears its
    /// ready bits and stales every parked reference.
    fn sched_forget(&mut self, seq: SeqNum) {
        self.sched.invalidate(seq);
    }

    /// Releases every µ-op parked on `store` (it executed or committed)
    /// and re-registers them immediately.
    fn sched_fire_store_event(&mut self, store: SeqNum) {
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

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            if head.state != UopState::Done || head.done_at > self.now {
                break;
            }
            let e = self.rob.pop_front().expect("head exists");
            debug_assert!(!e.wrong_path, "wrong-path µ-op reached commit");
            if Self::tracked_store_qw(&e).is_some() {
                let front = self.store_ring.pop_front();
                debug_assert_eq!(front.map(|(_, s)| s), Some(e.seq), "store ring out of sync");
            }
            self.last_commit_at = self.now;
            self.stats.committed_uops += 1;
            if S::ENABLED {
                self.sink.record(TraceEvent::Commit {
                    cycle: self.now,
                    seq: e.seq,
                });
            }

            // Commit-log hook: record the canonical commit and compare it
            // online against the golden model, if one is attached. The
            // record is content-only (no timing), so scheduler/replay
            // timing differences can never diverge — only a dropped,
            // duplicated, reordered, or wrong-path commit can.
            let log_window = self.cfg.commit_log_window as usize;
            if log_window > 0 || self.diff.is_some() {
                let rec = CommitRecord {
                    seq: self.stats.committed_uops - 1,
                    pc: e.uop.pc,
                    kind: e.uop.class,
                    dst: e.uop.dst.map(|d| (d.class, d.reg)),
                };
                let mismatch = match &mut self.diff {
                    Some(checker) if self.pending_error.is_none() => checker.check(&rec).err(),
                    _ => None,
                };
                if let Some(expected) = mismatch {
                    self.pending_error = Some(SimError::Divergence(Box::new(DivergenceReport {
                        snapshot: self.snapshot(),
                        seq: rec.seq,
                        expected,
                        actual: rec,
                        recent: self.commit_ring.iter().copied().collect(),
                        detail: self.window_detail(),
                        checkpoint: self.checkpoint_note.clone(),
                        trace: self.sink.recent(),
                    })));
                }
                if log_window > 0 {
                    if self.commit_ring.len() >= log_window {
                        self.commit_ring.pop_front();
                    }
                    self.commit_ring.push_back(rec);
                }
            }

            // Criticality criterion.
            let critical = match self.cfg.crit_criterion {
                // Completed while (or after) becoming the commit blocker.
                CritCriterion::RobHead => e.done_at + 1 >= self.now,
                // Was the oldest ready µ-op in the IQ when it issued
                // (Tune's QOLD).
                CritCriterion::IqOldest => e.was_iq_oldest,
            };
            self.engine.on_retire(e.uop.pc, critical);

            match e.uop.class {
                OpClass::Load => {
                    self.stats.committed_loads += 1;
                    self.lq_used -= 1;
                    self.engine.on_load_commit(e.uop.pc, e.load_l1_hit);
                }
                OpClass::Store => {
                    self.sq_used -= 1;
                    let addr = e.uop.mem_addr().expect("store has address");
                    self.mem.store_commit(addr, self.now);
                    // Drain any (stale) waiter records before the seq slot
                    // can be reused.
                    self.sched_fire_store_event(e.seq);
                }
                OpClass::Branch(kind) => {
                    if matches!(kind, ss_types::BranchKind::Conditional) {
                        self.stats.cond_branches += 1;
                        if e.mispredicted && e.dir_wrong {
                            self.stats.cond_mispredicts += 1;
                        }
                    }
                    if e.mispredicted && !e.dir_wrong {
                        self.stats.target_mispredicts += 1;
                    }
                    let b = e.uop.branch.expect("branch payload");
                    if let Some(slot) = e.pred {
                        let target = if b.taken { b.target } else { e.uop.next_pc() };
                        self.bpred.on_commit(
                            e.uop.pc,
                            kind,
                            b.taken,
                            target,
                            &self.preds[slot].meta,
                        );
                    }
                }
                _ => {}
            }
            if let Some(slot) = e.pred {
                self.preds.free(slot);
            }
            if let Some((_new, prev)) = e.dst {
                self.rename.release(prev);
            }
        }
    }

    // ------------------------------------------------------------------
    // execute
    // ------------------------------------------------------------------

    fn execute(&mut self) {
        // Pop the group that reaches Execute this cycle.
        let exec_issue_cycle = match self.now.get().checked_sub(self.delay + 1) {
            Some(c) => Cycle::new(c),
            None => return,
        };
        let group = match self.inflight.front() {
            Some((c, _)) if *c == exec_issue_cycle => self
                .inflight
                .pop_front()
                .map(|(_, g)| g)
                .unwrap_or_default(),
            Some((c, _)) => {
                assert!(
                    *c > exec_issue_cycle,
                    "missed issue group: front {c:?} vs exec {exec_issue_cycle:?} at {}",
                    self.now
                );
                return;
            }
            None => return,
        };

        #[cfg(debug_assertions)]
        let processed_cycle = exec_issue_cycle;
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
                self.force_deferred_wake(src);
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
                        self.squash_one(seq, &mut group);
                        if S::ENABLED {
                            self.record_squash(seq, trigger, cause);
                        }
                        if !group.is_empty() {
                            self.recovery.push_back((self.now, group));
                        } else {
                            self.group_pool.put(group);
                        }
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
                .find(|e| e.state == UopState::InFlight && e.issue_cycle <= processed_cycle)
            {
                panic!(
                    "orphaned in-flight µ-op {} (issued @{:?}, exec target {:?}, now {})",
                    e.seq, e.issue_cycle, processed_cycle, self.now
                );
            }
        }
    }

    /// Trace helper: records a replay squash for `seq`, plus its
    /// recovery-buffer reinsertion when the squash routed it there.
    /// Callers guard with `S::ENABLED`.
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
        // cloning the whole `RobEntry`; the prediction stays in the slab.
        let (uop, wrong_path, dst, prf_delay, mispredicted, mispred_handled, pred) = {
            let e = self.entry(seq).expect("validated");
            (
                e.uop,
                e.wrong_path,
                e.dst,
                e.prf_delay,
                e.mispredicted,
                e.mispred_handled,
                e.pred,
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
                    if let Some(banking) = &self.cfg.l1d_banking {
                        let bank_bits = banking.banks.trailing_zeros();
                        let actual = match banking.interleaving {
                            BankInterleaving::Word => {
                                addr.bits(banking.interleave_bytes.trailing_zeros(), bank_bits)
                            }
                            BankInterleaving::Set => {
                                addr.bits(self.cfg.l1d.line_bytes.trailing_zeros(), bank_bits)
                            }
                        };
                        self.bank_pred.train(uop.pc, actual as u8);
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
                    // (the refetched path is already correct).
                    let b = uop.branch.expect("branch payload");
                    if let Some(slot) = pred {
                        self.bpred.on_mispredict(
                            uop.pc,
                            kind,
                            b.taken,
                            uop.next_pc(),
                            &self.preds[slot].meta,
                        );
                    }
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
    fn tracked_store_qw(e: &RobEntry) -> Option<u64> {
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
        self.memdep_violations += 1;
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
                self.squash_one(seq, &mut recovery_group);
                if S::ENABLED {
                    self.record_squash(seq, trigger, cause);
                }
            }
            self.group_pool.put(group);
            if !recovery_group.is_empty() {
                self.recovery.push_back((issue_cycle, recovery_group));
            } else {
                self.group_pool.put(recovery_group);
            }
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
            self.squash_one(seq, &mut recovery_group);
            if S::ENABLED {
                self.record_squash(seq, trigger, cause);
            }
        }
        stragglers.clear();
        self.scratch_squash = stragglers;
        if !recovery_group.is_empty() {
            self.recovery.push_front((exec_cycle, recovery_group));
        } else {
            self.group_pool.put(recovery_group);
        }
        self.stats.add_replayed(cause, squashed);
    }

    /// Squashes one issued-but-unexecuted µ-op back to a re-issuable
    /// state. Memory µ-ops still hold their IQ entry and re-issue from
    /// the scheduler; others go to the recovery buffer.
    fn squash_one(&mut self, seq: SeqNum, recovery_group: &mut Vec<SeqNum>) {
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
            let mut entered_recovery = false;
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
                entered_recovery = true;
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
                    self.sink.record(TraceEvent::ReplaySquash {
                        cycle: self.now,
                        seq,
                        trigger,
                        cause,
                    });
                    if entered_recovery {
                        self.sink.record(TraceEvent::RecoveryEnter {
                            cycle: self.now,
                            seq,
                        });
                    }
                }
            }
        }
        seqs.clear();
        self.scratch_squash = seqs;
        // Drop stale in-flight bookkeeping; entries re-validate by state.
        if !recovery_group.is_empty() {
            self.recovery.push_back((self.now, recovery_group));
        } else {
            self.group_pool.put(recovery_group);
        }
        n_squashed
    }

    // ------------------------------------------------------------------
    // issue
    // ------------------------------------------------------------------

    /// The issue stage: drain the cycle's scheduler events, replay
    /// ready recovery-buffer members, then select from the IQ ready set.
    /// Both phases visit only µ-ops whose ready bit is set and re-verify
    /// each one, re-registering it on a mismatch (lazy invalidation).
    fn issue(&mut self) {
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
        let mut width = self.cfg.issue_width;
        let mut alu = self.cfg.alu_ports;
        let mut muldiv = self.cfg.muldiv_ports;
        let mut fp = self.cfg.fp_ports;
        let mut fpmd = self.cfg.fpmuldiv_ports;
        let mut mem_slots = self.cfg.ldst_ports + self.cfg.store_only_ports;
        let mut load_slots = self.cfg.max_loads_per_cycle();
        let mut cycle_state = IssueCycleState::default();
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
            if width == 0 {
                break;
            }
            self.work.recovery_visits += 1;
            if !self.ready_to_issue(seq) {
                self.sched_register(seq);
                continue;
            }
            if !Self::take_ports(
                self.entry(seq).expect("entry").uop.class,
                self.now,
                &mut width,
                &mut alu,
                &mut muldiv,
                &mut fp,
                &mut fpmd,
                &mut mem_slots,
                &mut load_slots,
                &mut self.muldiv_free,
                &mut self.fpdiv_free,
            ) {
                continue;
            }
            self.do_issue(seq, &mut cycle_state);
            self.stats.recovery_buffer_replays += 1;
            issued_group.push(seq);
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
        if width > 0 {
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
                    if width == 0 {
                        break 'select;
                    }
                    self.work.select_checks += 1;
                    // Lazy invalidation: a ready bit may have gone stale
                    // since it was set (producer squashed, wakeup revised
                    // later, store dependence re-armed). Re-verify and
                    // re-park on mismatch — `sched_register` re-derives
                    // the same conditions `ready_to_issue` checks, so a
                    // not-ready entry can never re-mark itself ready.
                    let live = self.entry(seq).is_some_and(RobEntry::is_iq_waiting);
                    debug_assert!(live, "ready bit on non-IQ-waiting µ-op {seq}");
                    if !live || !self.ready_to_issue(seq) {
                        self.sched_register(seq);
                        continue;
                    }
                    if !Self::take_ports(
                        self.entry(seq).expect("entry").uop.class,
                        self.now,
                        &mut width,
                        &mut alu,
                        &mut muldiv,
                        &mut fp,
                        &mut fpmd,
                        &mut mem_slots,
                        &mut load_slots,
                        &mut self.muldiv_free,
                        &mut self.fpdiv_free,
                    ) {
                        continue;
                    }
                    self.do_issue(seq, &mut cycle_state);
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
    fn prune_recovery(&mut self) {
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

    /// Port/unit arbitration. Returns false if the µ-op cannot issue this
    /// cycle for structural reasons.
    #[allow(clippy::too_many_arguments)]
    fn take_ports(
        class: OpClass,
        now: Cycle,
        width: &mut u32,
        alu: &mut u32,
        muldiv: &mut u32,
        fp: &mut u32,
        fpmd: &mut u32,
        mem_slots: &mut u32,
        load_slots: &mut u32,
        muldiv_free: &mut Cycle,
        fpdiv_free: &mut [Cycle; 2],
    ) -> bool {
        debug_assert!(*width > 0);
        match class {
            OpClass::IntAlu | OpClass::Branch(_) => {
                if *alu == 0 {
                    return false;
                }
                *alu -= 1;
            }
            OpClass::IntMul | OpClass::IntDiv => {
                if *muldiv == 0 || *muldiv_free > now {
                    return false;
                }
                *muldiv -= 1;
                if class == OpClass::IntDiv {
                    *muldiv_free = now + class.base_latency();
                }
            }
            OpClass::FpAlu => {
                if *fp == 0 {
                    return false;
                }
                *fp -= 1;
            }
            OpClass::FpMul | OpClass::FpDiv => {
                if *fpmd == 0 {
                    return false;
                }
                let Some(port) = fpdiv_free.iter().position(|&f| f <= now) else {
                    return false;
                };
                *fpmd -= 1;
                if class == OpClass::FpDiv {
                    fpdiv_free[port] = now + class.base_latency();
                }
            }
            OpClass::Load => {
                if *mem_slots == 0 || *load_slots == 0 {
                    return false;
                }
                *mem_slots -= 1;
                *load_slots -= 1;
            }
            OpClass::Store => {
                if *mem_slots == 0 {
                    return false;
                }
                *mem_slots -= 1;
            }
        }
        *width -= 1;
        true
    }

    /// Issues one µ-op: bookkeeping, wakeup speculation, stats.
    fn do_issue(&mut self, seq: SeqNum, cycle_state: &mut IssueCycleState) {
        let delay = self.delay;
        let now = self.now;
        let load_to_use = self.cfg.l1d_load_to_use;

        // Issued µ-ops leave the ready set; any parked reference is stale.
        self.sched_forget(seq);
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
                let reads = &mut cycle_state.prf_reads[src.class.index()][bank];
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
                    cycle_state.loads_issued += 1;
                    let shifted = match self.cfg.shift_policy {
                        ShiftPolicy::Off => false,
                        ShiftPolicy::Always => cycle_state.loads_issued == 2,
                        ShiftPolicy::Predicted => {
                            // Shift only if this load and the group's
                            // first load are confidently predicted to hit
                            // the same bank (Yoaz-style).
                            let my_pred = self.bank_pred.predict(uop.pc);
                            let conflict = cycle_state.loads_issued == 2
                                && match (cycle_state.first_load_bank, my_pred) {
                                    (Some(a), Some(b)) => a == b,
                                    _ => false,
                                };
                            if cycle_state.loads_issued == 1 {
                                cycle_state.first_load_bank = my_pred;
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

    // ------------------------------------------------------------------
    // dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        let mut stalled = false;
        while dispatched < self.cfg.frontend_width {
            let Some(f) = self.frontend.front() else {
                break;
            };
            if f.ready_at > self.now {
                break;
            }
            if self.dispatch_blocked(&f.uop) {
                stalled = true;
                break;
            }
            let class = f.uop.class;
            let f = self.frontend.pop_front().expect("peeked");
            let seq = self.next_seq;
            self.next_seq = self.next_seq.next();
            let mut e = RobEntry::new(seq, f.uop, f.wrong_path);
            e.pred = f.pred;
            e.mispredicted = f.mispredicted;
            e.dir_wrong = f.dir_wrong;
            // Rename sources then destination (true dependencies only).
            for (i, s) in f.uop.srcs.iter().enumerate() {
                if let Some(s) = s {
                    e.srcs[i] = Some(self.rename.lookup(s.class, s.reg));
                }
            }
            if let Some(d) = f.uop.dst {
                let (new, prev) = self
                    .rename
                    .rename_dst(d.class, d.reg)
                    .expect("free list checked");
                e.dst = Some((new, prev));
            }
            // Memory-dependence prediction.
            if !f.wrong_path {
                if class.is_load() {
                    e.store_dep = self.store_sets.load_dependence(f.uop.pc);
                } else if class.is_store() {
                    e.store_dep = self.store_sets.on_store_dispatch(f.uop.pc, seq);
                }
            }
            if class.is_load() {
                self.lq_used += 1;
            }
            if class.is_store() {
                self.sq_used += 1;
            }
            e.holds_iq = true;
            self.iq_used += 1;
            if S::ENABLED {
                // The seq did not exist at fetch time, so the fetch event
                // is back-dated here: `ready_at` was stamped as
                // fetch-cycle + frontend depth at fetch.
                self.sink.record(TraceEvent::Fetch {
                    cycle: Cycle::new(f.ready_at.get().saturating_sub(self.cfg.frontend_depth())),
                    seq,
                    pc: e.uop.pc,
                    class: e.uop.class,
                    wrong_path: e.wrong_path,
                });
                self.sink.record(TraceEvent::Rename {
                    cycle: self.now,
                    seq,
                });
            }
            if let Some(qw) = Self::tracked_store_qw(&e) {
                self.store_ring.push_back((qw, seq));
            }
            self.rob.push_back(e);
            self.sched_register(seq);
            dispatched += 1;
        }
        if stalled && dispatched == 0 {
            self.stats.dispatch_stall_cycles += 1;
        }
    }

    /// Whether `uop` cannot dispatch for lack of a structural resource:
    /// a ROB, IQ, LQ or SQ entry, or a free destination register.
    fn dispatch_blocked(&self, uop: &MicroOp) -> bool {
        self.rob.len() >= self.cfg.rob_entries as usize
            || self.iq_used >= self.cfg.iq_entries
            || (uop.class.is_load() && self.lq_used >= self.cfg.lq_entries)
            || (uop.class.is_store() && self.sq_used >= self.cfg.sq_entries)
            || uop
                .dst
                .is_some_and(|d| self.rename.free_count(d.class) == 0)
    }

    // ------------------------------------------------------------------
    // fetch
    // ------------------------------------------------------------------

    fn next_correct_uop(&mut self) -> MicroOp {
        match self.pending_correct.take() {
            Some(u) => u,
            None => self.trace.next_uop(),
        }
    }

    fn fetch(&mut self) {
        if self.now < self.fetch_stall_until {
            return;
        }
        let mut fetched = 0;
        let mut taken_branches = 0;
        let mut cur_block: Option<u64> = None;
        let mut blocks = 1;
        let block_mask = !(self.cfg.fetch_block_bytes - 1);

        while fetched < self.cfg.frontend_width && self.frontend.len() < self.frontend_cap {
            // Obtain the next µ-op on the (predicted) fetch path.
            let (mut uop, wrong_path) = if self.wrong_path_mode {
                if !self.cfg.wrong_path {
                    break; // model without wrong-path fetch: just stall
                }
                (self.wp_gen.next_uop(), true)
            } else {
                let u = self.next_correct_uop();
                // Fetch-boundary validation: a malformed µ-op from the
                // trace source becomes a structured error here, before
                // any deeper stage could trip an internal `expect` on a
                // missing payload. Every `expect` on µ-op payloads past
                // this point (branch targets, memory addresses, load
                // destinations) is guaranteed by this gate.
                if let Err(reason) = u.validate() {
                    self.pending_error = Some(SimError::TraceInvalid {
                        pc: u.pc.get(),
                        reason,
                    });
                    return;
                }
                (u, false)
            };
            if wrong_path {
                if let Some(m) = &mut uop.mem {
                    // Retarget near a recent correct-path address.
                    self.wp_rng ^= self.wp_rng << 13;
                    self.wp_rng ^= self.wp_rng >> 7;
                    self.wp_rng ^= self.wp_rng << 17;
                    let base = self.recent_load_addrs[(self.wp_rng as usize) & 63];
                    let jitter = ((self.wp_rng >> 8) % 17) as i64 * 8 - 64;
                    m.addr = ss_types::Addr::new(base.offset(jitter).get() & !7);
                }
            } else if let (OpClass::Load, Some(m)) = (uop.class, &uop.mem) {
                self.recent_load_addrs[self.recent_load_idx & 63] = m.addr;
                self.recent_load_idx = self.recent_load_idx.wrapping_add(1);
            }

            // Fetch-block accounting.
            let block = uop.pc.get() & block_mask;
            match cur_block {
                None => cur_block = Some(block),
                Some(b) if b != block => {
                    blocks += 1;
                    if blocks > self.cfg.fetch_blocks_per_cycle {
                        // Does not fit this fetch cycle: put it back.
                        if wrong_path {
                            // regenerate next cycle from the same PC
                            self.wp_gen.redirect(uop.pc);
                        } else {
                            self.pending_correct = Some(uop);
                        }
                        break;
                    }
                    cur_block = Some(block);
                }
                _ => {}
            }

            // Instruction-cache access (once per block in spirit; modeled
            // per µ-op with line granularity inside the cache).
            let icache_extra = self.mem.icache_fetch(uop.pc, self.now);
            if icache_extra > 0 {
                self.fetch_stall_until = self.now + icache_extra;
            }

            let mut pred = None;
            let mut pred_next = None;
            let mut mispredicted = false;
            let mut dir_wrong = false;
            let mut predicted_taken = false;
            if uop.class.is_branch() {
                if wrong_path {
                    // Wrong-path branches are synthesized never-taken and
                    // do not consult or pollute the predictor tables (the
                    // history they would have inserted is restored at
                    // resolve anyway).
                    predicted_taken = false;
                } else {
                    let OpClass::Branch(kind) = uop.class else {
                        unreachable!()
                    };
                    let b = uop.branch.expect("branch payload");
                    let p = self.bpred.on_branch_fetch(uop.pc, kind, uop.next_pc());
                    predicted_taken = p.taken;
                    let actual_next = uop.successor_pc();
                    if p.next_pc != actual_next {
                        mispredicted = true;
                        dir_wrong = p.taken != b.taken;
                    }
                    pred_next = Some(p.next_pc);
                    pred = Some(self.preds.alloc(p));
                }
            }

            self.frontend.push_back(FetchedUop {
                uop,
                wrong_path,
                ready_at: self.now + self.cfg.frontend_depth(),
                pred,
                mispredicted,
                dir_wrong,
            });
            fetched += 1;

            if mispredicted {
                // Fetch diverges: follow the *predicted* path.
                self.wrong_path_mode = true;
                self.wp_gen
                    .redirect(pred_next.expect("mispredicted branch has prediction"));
                // `diverged` is recorded at dispatch (needs the seq).
            }
            if uop.class.is_branch() && predicted_taken {
                taken_branches += 1;
                if taken_branches > 1 {
                    break; // at most one taken branch per fetch cycle
                }
            }
        }
    }

    /// Flushes every µ-op younger than `branch_seq`: frontend, ROB tail
    /// (youngest-first rename unwind), recovery buffer, LSQ counters,
    /// and the prediction slots of the flushed branches.
    fn flush_younger_than(&mut self, branch_seq: SeqNum) {
        // Everything in the frontend was fetched after the branch.
        for f in self.frontend.drain(..) {
            if let Some(slot) = f.pred {
                self.preds.free(slot);
            }
        }
        self.fetch_stall_until = Cycle::ZERO;
        while let Some(tail) = self.rob.back() {
            if tail.seq <= branch_seq {
                break;
            }
            let e = self.rob.pop_back().expect("tail exists");
            if let Some(slot) = e.pred {
                self.preds.free(slot);
            }
            if Self::tracked_store_qw(&e).is_some() {
                let back = self.store_ring.pop_back();
                debug_assert_eq!(back.map(|(_, s)| s), Some(e.seq), "store ring out of sync");
            }
            if e.holds_iq {
                self.iq_used -= 1;
            }
            if e.uop.class.is_load() {
                self.lq_used -= 1;
            }
            if e.uop.class.is_store() {
                self.sq_used -= 1;
                if !e.wrong_path {
                    self.store_sets.on_store_complete(e.uop.pc, e.seq);
                }
            }
            if let Some(d) = e.uop.dst {
                let (new, prev) = e.dst.expect("renamed");
                self.rename.unwind(d.reg, new, prev);
            }
            // The refetched path reuses this sequence number: clear its
            // ready bit and stale every parked reference now.
            self.sched_forget(e.seq);
            if S::ENABLED {
                self.sink.record(TraceEvent::Flush {
                    cycle: self.now,
                    seq: e.seq,
                });
            }
        }
        // Sequence numbers index the ROB (contiguous); the refetched path
        // reuses the flushed range. Deferred revisions for unwound
        // registers are dropped lazily by the avail-reset guard.
        self.next_seq = branch_seq.next();
        // Purge flushed seqs from replay structures (in-flight entries
        // validate by state, but keep the queues tidy).
        self.prune_recovery();
        let last = self.rob.back().map(|e| e.seq);
        let valid = |s: &SeqNum| last.is_some_and(|l| *s <= l);
        for (_, g) in &mut self.inflight {
            g.retain(valid);
        }
    }
}

impl<T: TraceSource, S: TraceSink> std::fmt::Debug for Simulator<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("rob", &self.rob.len())
            .field("iq_used", &self.iq_used)
            .field("committed", &self.stats.committed_uops)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint capture/restore.
// ---------------------------------------------------------------------------

/// Section tags for the [`ss_snapshot`] container. Tags are part of the
/// on-disk format: renumbering is a format break and must bump
/// [`ss_snapshot::SNAPSHOT_FORMAT_VERSION`].
pub mod sections {
    /// Core pipeline state: ROB, frontend, in-flight/recovery groups,
    /// occupancy counters, cycle/seq clocks, fault plan, and statistics.
    pub const CORE: u32 = 1;
    /// Workload engine position plus the wrong-path generator.
    pub const TRACE: u32 = 2;
    /// Branch predictor (direction tables, BTB, RAS, history).
    pub const BPRED: u32 = 3;
    /// Memory hierarchy (caches, MSHRs, banks, DRAM, prefetcher).
    pub const MEM: u32 = 4;
    /// Memory-dependence predictor (Store Sets).
    pub const MEMDEP: u32 = 5;
    /// Scheduling-policy engine and bank predictor.
    pub const SCHED: u32 = 6;
    /// Rename/scoreboard state and the event-driven ready queue.
    pub const RENAME: u32 = 7;
}

/// Fingerprint of a machine configuration, used to gate restores: a
/// snapshot is only loadable into a simulator built from the identical
/// [`SimConfig`].
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    ss_types::persist::fnv1a64(format!("{cfg:?}").as_bytes())
}

fn section_of(tag: u32, fill: impl FnOnce(&mut Writer)) -> ss_snapshot::Section {
    let mut w = Writer::new();
    fill(&mut w);
    ss_snapshot::Section {
        tag,
        bytes: w.into_bytes(),
    }
}

fn corrupt(reason: impl Into<String>) -> SimError {
    SimError::SnapshotCorrupt {
        path: "<memory>".into(),
        reason: reason.into(),
    }
}

impl<T: TraceSource + PersistState, S: TraceSink> Simulator<T, S> {
    /// Serializes the complete architectural and microarchitectural state
    /// of the machine into a versioned snapshot. A [`Simulator`] built
    /// from the same [`SimConfig`] and restored from this snapshot
    /// produces bit-identical statistics to one that never stopped.
    ///
    /// Not captured (by design): the trace sink, an attached differential
    /// checker, and per-cycle scratch buffers (all empty between ticks).
    /// Capture at a quiescent point — after a `try_run_committed` call —
    /// never mid-`tick`.
    pub fn capture(&self) -> ss_snapshot::Snapshot {
        let core = section_of(sections::CORE, |w| {
            self.now.save(w);
            self.next_seq.save(w);
            self.preds.save_window(&self.rob, w);
            self.preds.save_window(&self.frontend, w);
            self.inflight.save(w);
            self.recovery.save(w);
            self.iq_used.save(w);
            self.lq_used.save(w);
            self.sq_used.save(w);
            self.store_ring.save(w);
            self.muldiv_free.save(w);
            self.fpdiv_free.save(w);
            self.issue_blocked_at.save(w);
            self.wrong_path_mode.save(w);
            self.pending_correct.save(w);
            self.fetch_stall_until.save(w);
            self.last_commit_at.save(w);
            self.deferred_wakes.save(w);
            self.recent_load_addrs.save(w);
            self.recent_load_idx.save(w);
            self.wp_rng.save(w);
            self.fault_plan.save(w);
            self.commit_ring.save(w);
            self.wakeup_bug_armed.save(w);
            self.wakeup_bug_fired.save(w);
            self.stats.save(w);
            self.memdep_violations.save(w);
        });
        let trace = section_of(sections::TRACE, |w| {
            self.trace.save_state(w);
            self.wp_gen.save_state(w);
        });
        let bpred = section_of(sections::BPRED, |w| self.bpred.save_state(w));
        let mem = section_of(sections::MEM, |w| self.mem.save_state(w));
        let memdep = section_of(sections::MEMDEP, |w| self.store_sets.save_state(w));
        let sched = section_of(sections::SCHED, |w| {
            self.engine.save_state(w);
            self.bank_pred.save_state(w);
        });
        let rename = section_of(sections::RENAME, |w| {
            self.rename.save_state(w);
            self.sched.save_state(w);
        });
        ss_snapshot::Snapshot::new(
            config_fingerprint(&self.cfg),
            vec![core, trace, bpred, mem, memdep, sched, rename],
        )
    }

    /// Restores the machine to the exact state [`Simulator::capture`]
    /// serialized. The simulator must have been built from the identical
    /// [`SimConfig`] (gated by the config fingerprint).
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] on any config mismatch, missing
    /// section, or malformed section body. On error the simulator state
    /// is unspecified and it must not be used further.
    pub fn restore(&mut self, snap: &ss_snapshot::Snapshot) -> Result<(), SimError> {
        let expected = config_fingerprint(&self.cfg);
        if snap.config_fingerprint != expected {
            return Err(corrupt(format!(
                "config fingerprint {:016x} does not match this machine ({expected:016x})",
                snap.config_fingerprint
            )));
        }
        let mut r = self.section_reader(snap, sections::CORE)?;
        self.restore_core(&mut r)
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("core section: {e}")))?;

        let mut r = self.section_reader(snap, sections::TRACE)?;
        self.trace
            .restore_state(&mut r)
            .and_then(|()| self.wp_gen.restore_state(&mut r))
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("trace section: {e}")))?;

        let mut r = self.section_reader(snap, sections::BPRED)?;
        self.bpred
            .restore_state(&mut r)
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("branch-predictor section: {e}")))?;

        let mut r = self.section_reader(snap, sections::MEM)?;
        self.mem
            .restore_state(&mut r)
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("memory section: {e}")))?;

        let mut r = self.section_reader(snap, sections::MEMDEP)?;
        self.store_sets
            .restore_state(&mut r)
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("memdep section: {e}")))?;

        let mut r = self.section_reader(snap, sections::SCHED)?;
        self.engine
            .restore_state(&mut r)
            .and_then(|()| self.bank_pred.restore_state(&mut r))
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("scheduler section: {e}")))?;

        let mut r = self.section_reader(snap, sections::RENAME)?;
        self.rename
            .restore_state(&mut r)
            .and_then(|()| self.sched.restore_state(&mut r))
            .and_then(|()| Self::finish(r))
            .map_err(|e| corrupt(format!("rename section: {e}")))?;

        // Per-cycle scratch is empty between ticks by construction; clear
        // it so a restore into a used simulator matches a fresh one.
        self.scratch_candidates.clear();
        self.scratch_woken.clear();
        self.scratch_squash.clear();
        self.pending_error = None;
        Ok(())
    }

    fn section_reader<'s>(
        &self,
        snap: &'s ss_snapshot::Snapshot,
        tag: u32,
    ) -> Result<Reader<'s>, SimError> {
        snap.section(tag)
            .map(Reader::new)
            .ok_or_else(|| corrupt(format!("missing section {tag}")))
    }

    fn finish(r: Reader<'_>) -> Result<(), DecodeError> {
        if r.is_finished() {
            Ok(())
        } else {
            Err(r.err(format_args!("{} trailing bytes", r.remaining())))
        }
    }

    fn restore_core(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.now = Persist::load(r)?;
        self.next_seq = Persist::load(r)?;
        self.preds.clear();
        self.rob = self.preds.load_window(r)?;
        self.frontend = self.preds.load_window(r)?;
        self.inflight = Persist::load(r)?;
        self.recovery = Persist::load(r)?;
        self.iq_used = Persist::load(r)?;
        self.lq_used = Persist::load(r)?;
        self.sq_used = Persist::load(r)?;
        self.store_ring = Persist::load(r)?;
        self.muldiv_free = Persist::load(r)?;
        self.fpdiv_free = Persist::load(r)?;
        self.issue_blocked_at = Persist::load(r)?;
        self.wrong_path_mode = Persist::load(r)?;
        self.pending_correct = Persist::load(r)?;
        self.fetch_stall_until = Persist::load(r)?;
        self.last_commit_at = Persist::load(r)?;
        self.deferred_wakes = Persist::load(r)?;
        self.recent_load_addrs = Persist::load(r)?;
        self.recent_load_idx = Persist::load(r)?;
        self.wp_rng = Persist::load(r)?;
        self.fault_plan = Persist::load(r)?;
        self.commit_ring = Persist::load(r)?;
        self.wakeup_bug_armed = Persist::load(r)?;
        self.wakeup_bug_fired = Persist::load(r)?;
        self.stats = Persist::load(r)?;
        self.memdep_violations = Persist::load(r)?;
        Ok(())
    }
}

/// Reads and verifies a snapshot file, mapping every failure to the
/// simulator's typed error space: a version stamp from another build is
/// [`SimError::SnapshotVersionMismatch`], everything else (damage,
/// identity mismatch, I/O) is [`SimError::SnapshotCorrupt`]. Corrupt
/// files are quarantined to `<path>.corrupt` by the read layer.
pub fn load_snapshot(path: &std::path::Path) -> Result<ss_snapshot::Snapshot, SimError> {
    ss_snapshot::read_verified(path).map_err(|e| match e {
        ss_snapshot::SnapshotError::VersionMismatch { found, expected } => {
            SimError::SnapshotVersionMismatch {
                path: path.display().to_string(),
                found,
                expected,
            }
        }
        other => SimError::SnapshotCorrupt {
            path: path.display().to_string(),
            reason: other.to_string(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::SchedPolicyKind;
    use ss_workloads::{kernels, KernelTrace};

    fn sim() -> Simulator<KernelTrace> {
        let cfg = SimConfig::builder()
            .issue_to_execute_delay(4)
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .banked_l1d(true)
            .build();
        Simulator::new(cfg, KernelTrace::new(kernels::dep_chain_l2(2)))
    }

    /// The stepper's gates and quiet skip must stay exact across every
    /// entry point: a run interrupted by a capture, more stepping, a
    /// restore back to the capture and single `tick`s ends on the same
    /// statistics as one uninterrupted call.
    #[test]
    fn stepper_survives_restore_and_direct_ticks() {
        const TARGET: u64 = 12_000;
        let mut whole = sim();
        whole.try_run_committed(TARGET).unwrap();

        let mut split = sim();
        split.try_run_committed(4_000).unwrap();
        let snap = split.capture();
        // Advance past the capture so the scheduler state describes a
        // later machine than the one restored below.
        split.try_run_committed(3_000).unwrap();
        split.restore(&snap).unwrap();
        for _ in 0..500 {
            split.tick();
        }
        let done = split.stats().committed_uops;
        assert!(done < TARGET, "ticks overshot the target");
        split.try_run_committed(TARGET - done).unwrap();

        assert_eq!(split.stats(), whole.stats());
    }

    /// A restore into a used simulator mid replay storm must carry the
    /// recovery buffer's ready bits with it. The snapshot is taken on a
    /// cycle where a recovery member is marked ready while no deferred
    /// wake, commit or execute is due, so nothing but the restored bit
    /// opens the next cycle's issue gate; the target simulator has run
    /// a different stretch of the same machine first.
    #[test]
    fn restore_mid_replay_storm_matches_an_uninterrupted_run() {
        const TARGET: u64 = 6_000;
        let plan = || FaultPlan::new().replay_storm(1_000, 4_000);
        let mut whole = sim();
        whole.set_fault_plan(plan()).unwrap();
        whole.try_run_committed(TARGET).unwrap();

        let mut src = sim();
        src.set_fault_plan(plan()).unwrap();
        src.try_run_committed(1_000).unwrap();
        let snap = loop {
            assert!(src.stats.committed_uops < TARGET, "no restore point found");
            let c = src.now + 1;
            let wakes_due = src.deferred_wakes.iter().any(|&(at, _, _)| at <= c);
            let commit_due =
                (src.rob.front()).is_some_and(|h| h.state == UopState::Done && h.done_at <= c);
            let execute_due = (src.inflight.front()).is_some_and(|&(at, _)| at + src.delay < c);
            if src.sched.recovery_ready_len() > 0 && !(wakes_due || commit_due || execute_due) {
                break src.capture();
            }
            src.tick();
        };

        let mut dst = sim();
        dst.try_run_committed(500).unwrap();
        dst.restore(&snap).unwrap();
        let done = dst.stats().committed_uops;
        dst.try_run_committed(TARGET - done).unwrap();
        assert_eq!(dst.stats(), whole.stats());
    }

    /// Branch-heavy kernels with flushes (branchy_int mispredicts
    /// directions, call_ret_mix stresses the RAS) recycle prediction
    /// slots: with the invariant check auditing the slab every few
    /// hundred cycles, the slab never outgrows the window that can hold
    /// a branch.
    #[test]
    fn prediction_slab_is_conserved_and_bounded() {
        for spec in [kernels::branchy_int(3), kernels::call_ret_mix(3)] {
            let cfg = SimConfig::builder()
                .issue_to_execute_delay(4)
                .sched_policy(SchedPolicyKind::AlwaysHit)
                .invariant_check_interval(257)
                .build();
            let mut sim = Simulator::new(cfg, KernelTrace::new(spec));
            let stats = sim.try_run_committed(30_000).unwrap();
            assert!(
                stats.cond_mispredicts + stats.target_mispredicts > 10,
                "no flushes to free slots on"
            );
            sim.check_invariants().unwrap();
            let bound = sim.cfg.rob_entries as usize + sim.frontend_cap;
            assert!(
                (1..=bound).contains(&sim.preds.len()),
                "slab grew to {} slots (bound {bound})",
                sim.preds.len()
            );
        }
    }
}
