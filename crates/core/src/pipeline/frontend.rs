//! Fetch and dispatch, and the flush a resolved misprediction makes.

use super::Simulator;
use crate::window::{FetchedUop, RobEntry};
use ss_isa::MicroOp;
use ss_types::trace::{TraceEvent, TraceSink};
use ss_types::{Cycle, OpClass, SeqNum, SimError};
use ss_workloads::TraceSource;

impl<T: TraceSource, S: TraceSink> Simulator<T, S> {
    pub(super) fn dispatch(&mut self) {
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
    pub(super) fn dispatch_blocked(&self, uop: &MicroOp) -> bool {
        self.rob.len() >= self.cfg.rob_entries as usize
            || self.iq_used >= self.cfg.iq_entries
            || (uop.class.is_load() && self.lq_used >= self.cfg.lq_entries)
            || (uop.class.is_store() && self.sq_used >= self.cfg.sq_entries)
            || uop
                .dst
                .is_some_and(|d| self.rename.free_count(d.class) == 0)
    }

    pub(super) fn next_correct_uop(&mut self) -> MicroOp {
        match self.pending_correct.take() {
            Some(u) => u,
            None => self.trace.next_uop(),
        }
    }

    pub(super) fn fetch(&mut self) {
        let mut fetched = 0;
        let mut taken_branches = 0;
        let mut cur_block: Option<u64> = None;
        let mut blocks = 1;
        let block_mask = !(self.cfg.fetch_block_bytes - 1);

        while fetched < self.cfg.frontend_width && self.frontend.len() < self.frontend_cap {
            // Obtain the next µ-op on the (predicted) fetch path.
            let (mut uop, wrong_path) = if self.wrong_path_mode {
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

            let mut mispredicted = false;
            let mut dir_wrong = false;
            let mut predicted_taken = false;
            // Wrong-path branches are synthesized never-taken and do not
            // consult or pollute the predictor tables.
            if let (OpClass::Branch(kind), false) = (uop.class, wrong_path) {
                let b = uop.branch.expect("branch payload");
                let p = self.bpred.on_branch_fetch(uop.pc, kind, uop.next_pc());
                predicted_taken = p.taken;
                if p.next_pc != uop.successor_pc() {
                    // Fetch diverges: follow the *predicted* path.
                    mispredicted = true;
                    dir_wrong = p.taken != b.taken;
                    self.wrong_path_mode = true;
                    self.wp_gen.redirect(p.next_pc);
                }
                self.pred_metas.push_back(p.meta);
            }

            self.frontend.push_back(FetchedUop {
                uop,
                wrong_path,
                ready_at: self.now + self.cfg.frontend_depth(),
                mispredicted,
                dir_wrong,
            });
            fetched += 1;
            if predicted_taken {
                taken_branches += 1;
                if taken_branches > 1 {
                    break; // at most one taken branch per fetch cycle
                }
            }
        }
    }

    /// Flushes every µ-op younger than the mispredicted branch
    /// `branch_seq`: frontend, ROB tail (youngest-first rename unwind),
    /// recovery buffer and LSQ counters. All of it was fetched on the
    /// branch's wrong path, so no queued branch meta goes with it.
    pub(super) fn flush_younger_than(&mut self, branch_seq: SeqNum) {
        // Everything in the frontend was fetched after the branch.
        debug_assert!(
            self.frontend.iter().all(|f| f.wrong_path),
            "flush drops a correct-path µ-op from the frontend"
        );
        self.frontend.clear();
        self.fetch_stall_until = Cycle::ZERO;
        while let Some(tail) = self.rob.back() {
            if tail.seq <= branch_seq {
                break;
            }
            let e = self.rob.pop_back().expect("tail exists");
            debug_assert!(e.wrong_path, "flush drops correct-path µ-op {}", e.seq);
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
            self.sched.invalidate(e.seq);
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
