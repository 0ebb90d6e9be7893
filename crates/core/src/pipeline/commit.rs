//! Commit: retire completed µ-ops in order and train the predictors.

use super::Simulator;
use crate::window::UopState;
use ss_types::commit::CommitRecord;
use ss_types::trace::{TraceEvent, TraceSink};
use ss_types::{CritCriterion, DivergenceReport, OpClass, SimError};
use ss_workloads::TraceSource;

impl<T: TraceSource, S: TraceSink> Simulator<T, S> {
    pub(super) fn commit(&mut self) {
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
                    let meta = self
                        .pred_metas
                        .pop_front()
                        .expect("committing branch has a meta");
                    let target = if b.taken { b.target } else { e.uop.next_pc() };
                    self.bpred.on_commit(e.uop.pc, kind, b.taken, target, &meta);
                }
                _ => {}
            }
            if let Some((_new, prev)) = e.dst {
                self.rename.release(prev);
            }
        }
    }
}
