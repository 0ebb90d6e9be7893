//! Branch-prediction substrate: TAGE direction prediction, a 2-way BTB,
//! and a return-address stack, behind a single pipeline-facing facade.
//!
//! The pipeline calls [`BranchPredictor::on_branch_fetch`] for every
//! correct-path branch (getting a redirect PC plus `Copy` direction
//! metadata), [`BranchPredictor::on_mispredict`] when Execute discovers a
//! wrong prediction, and [`BranchPredictor::on_commit`] to train the
//! tables in retirement order.
//!
//! The wrong path never consults the predictor, so a mispredicted branch
//! is the last branch fetched when it resolves: one repair point, not a
//! checkpoint per in-flight branch, undoes its speculative history
//! update. The RAS needs no repair (see
//! [`BranchPredictor::on_mispredict`]).
//!
//! # Example
//!
//! ```
//! use ss_bpred::BranchPredictor;
//! use ss_types::{BranchKind, Pc, PredictorConfig};
//!
//! let mut bp = BranchPredictor::new(&PredictorConfig::default());
//! let pred = bp.on_branch_fetch(Pc::new(0x1000), BranchKind::Conditional, Pc::new(0x1004));
//! // ... pipeline compares pred.next_pc with the actual successor ...
//! bp.on_commit(Pc::new(0x1000), BranchKind::Conditional, true, Pc::new(0x2000), &pred.meta);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bimodal;
pub mod btb;
pub mod history;
pub mod ras;
pub mod tage;

pub use bimodal::{Bimodal, BimodalMeta};
pub use btb::Btb;
pub use history::{GlobalHistory, HistoryCheckpoint};
pub use ras::Ras;
pub use tage::{geometric_lengths, Tage, TageMeta};

use ss_types::{BranchKind, Pc, PredictorConfig};

/// Direction-predictor metadata, carried from fetch to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirMeta {
    /// TAGE prediction metadata.
    Tage(TageMeta),
    /// Bimodal prediction metadata (AB3 ablation).
    Bimodal(BimodalMeta),
}

/// What the pipeline carries per in-flight branch from fetch to commit
/// to train the direction predictor. Plain `Copy` data — no allocation
/// per branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredMeta {
    dir: Option<DirMeta>,
}

// One per in-flight correct-path branch: direction metadata only.
const _: () = assert!(std::mem::size_of::<PredMeta>() <= 120);

/// The fetch-time prediction for one branch.
#[derive(Debug, Clone, Copy)]
pub struct BranchPrediction {
    /// Predicted direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// The PC fetch should proceed to. Falls back to the fall-through
    /// when the direction is not-taken *or* no target is known (cold
    /// BTB/RAS), which is what a real frontend does.
    pub next_pc: Pc,
    /// Training metadata, handed back at commit.
    pub meta: PredMeta,
}

/// The direction history as it stood before the last fetched branch:
/// what a misprediction of that branch restores.
#[derive(Debug, Clone, Copy)]
struct RepairPoint {
    pc: Pc,
    hist: Option<HistoryCheckpoint>,
}

enum Dir {
    Tage(Box<Tage>),
    Bimodal(Bimodal),
}

/// The combined branch predictor (direction + target + returns).
pub struct BranchPredictor {
    dir: Dir,
    btb: Btb,
    ras: Ras,
    /// Set by every fetch, restored by a misprediction.
    repair: Option<RepairPoint>,
}

impl std::fmt::Debug for BranchPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchPredictor")
            .field(
                "dir",
                &match self.dir {
                    Dir::Tage(_) => "tage",
                    Dir::Bimodal(_) => "bimodal",
                },
            )
            .finish_non_exhaustive()
    }
}

impl BranchPredictor {
    /// Builds the predictor complex from the machine configuration.
    pub fn new(cfg: &PredictorConfig) -> Self {
        let dir = if cfg.bimodal_only {
            Dir::Bimodal(Bimodal::new(cfg.tage_log_base_entries + 2))
        } else {
            Dir::Tage(Box::new(Tage::new(cfg)))
        };
        BranchPredictor {
            dir,
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: Ras::new(cfg.ras_entries),
            repair: None,
        }
    }

    /// Predicts a fetched branch and speculatively updates history/RAS,
    /// first making the history before it the repair point.
    /// `fallthrough` is the PC of the next sequential instruction.
    pub fn on_branch_fetch(
        &mut self,
        pc: Pc,
        kind: BranchKind,
        fallthrough: Pc,
    ) -> BranchPrediction {
        self.repair = Some(RepairPoint {
            pc,
            hist: match &self.dir {
                Dir::Tage(t) => Some(t.checkpoint()),
                Dir::Bimodal(_) => None,
            },
        });

        let (taken, dir_meta) = match kind {
            BranchKind::Conditional => match &mut self.dir {
                Dir::Tage(t) => {
                    let (p, m) = t.predict(pc);
                    (p, Some(DirMeta::Tage(m)))
                }
                Dir::Bimodal(b) => {
                    let (p, m) = b.predict(pc);
                    (p, Some(DirMeta::Bimodal(m)))
                }
            },
            _ => (true, None),
        };

        let popped = match (kind, &mut self.dir) {
            (BranchKind::Call, _) => {
                self.ras.push(fallthrough);
                None
            }
            (BranchKind::Return, _) => self.ras.pop(),
            (BranchKind::Conditional, Dir::Tage(t)) => {
                t.push_history(taken, pc);
                None
            }
            _ => None,
        };
        let target = if taken {
            popped.or_else(|| self.btb.lookup(pc))
        } else {
            None
        };
        BranchPrediction {
            taken,
            next_pc: target.unwrap_or(fallthrough),
            meta: PredMeta { dir: dir_meta },
        }
    }

    /// Repairs the direction history after Execute discovers a
    /// misprediction of the last fetched branch: restores the history
    /// from before it and shifts in the actual direction.
    ///
    /// The RAS needs no repair. Nothing touches it between the branch's
    /// fetch and this call (the wrong path never consults the predictor),
    /// and the push or pop fetch made for a call or return does not
    /// depend on the prediction, so the RAS already holds what the
    /// correct path leaves.
    ///
    /// # Panics
    ///
    /// Panics unless `pc` is the last branch passed to
    /// [`Self::on_branch_fetch`]: a caller that fetched a later branch
    /// first has lost the state this repair needs.
    pub fn on_mispredict(&mut self, pc: Pc, kind: BranchKind, actual_taken: bool) {
        let Some(rp) = self.repair.filter(|rp| rp.pc == pc) else {
            panic!("on_mispredict for {pc:?}, which is not the last fetched branch");
        };
        if let (Dir::Tage(t), Some(cp)) = (&mut self.dir, &rp.hist) {
            t.restore(cp);
            if kind == BranchKind::Conditional {
                t.push_history(actual_taken, pc);
            }
        }
    }

    /// The return-address stack.
    pub fn ras(&self) -> &Ras {
        &self.ras
    }

    /// Trains the direction tables and the BTB with the resolved outcome,
    /// in retirement order.
    pub fn on_commit(
        &mut self,
        pc: Pc,
        kind: BranchKind,
        actual_taken: bool,
        actual_target: Pc,
        meta: &PredMeta,
    ) {
        if matches!(kind, BranchKind::Conditional) {
            match (&mut self.dir, &meta.dir) {
                (Dir::Tage(t), Some(DirMeta::Tage(m))) => t.update(actual_taken, m),
                (Dir::Bimodal(b), Some(DirMeta::Bimodal(m))) => b.update(actual_taken, m),
                _ => {}
            }
        }
        if actual_taken {
            self.btb.update(pc, actual_target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(&PredictorConfig::default())
    }

    #[test]
    fn conditional_loop_becomes_predictable() {
        let mut p = bp();
        let pc = Pc::new(0x1000);
        let ft = Pc::new(0x1004);
        let tgt = Pc::new(0x0F00);
        let mut wrong = 0;
        for i in 0..2000u64 {
            let taken = i % 8 != 7;
            let pred = p.on_branch_fetch(pc, BranchKind::Conditional, ft);
            let actual_next = if taken { tgt } else { ft };
            if pred.next_pc != actual_next {
                wrong += 1;
                p.on_mispredict(pc, BranchKind::Conditional, taken);
            }
            p.on_commit(pc, BranchKind::Conditional, taken, tgt, &pred.meta);
        }
        assert!(
            wrong < 100,
            "loop branch + BTB should converge, wrong={wrong}"
        );
    }

    #[test]
    fn btb_cold_miss_then_learned_target() {
        let mut p = bp();
        let pc = Pc::new(0x2000);
        let ft = Pc::new(0x2004);
        let tgt = Pc::new(0x3000);
        let pred = p.on_branch_fetch(pc, BranchKind::Direct, ft);
        assert!(pred.taken);
        assert_eq!(pred.next_pc, ft, "cold BTB: no redirect possible");
        p.on_commit(pc, BranchKind::Direct, true, tgt, &pred.meta);
        let pred2 = p.on_branch_fetch(pc, BranchKind::Direct, ft);
        assert_eq!(pred2.next_pc, tgt, "target learned");
    }

    #[test]
    fn call_return_pairs_predict_via_ras() {
        let mut p = bp();
        let call_pc = Pc::new(0x4000);
        let ret_pc = Pc::new(0x8000);
        let callee = Pc::new(0x8000 - 16);
        // teach the BTB the call target
        let pred = p.on_branch_fetch(call_pc, BranchKind::Call, call_pc.step(4));
        p.on_commit(call_pc, BranchKind::Call, true, callee, &pred.meta);
        // second call: target known, RAS holds the return address
        let pred = p.on_branch_fetch(call_pc, BranchKind::Call, call_pc.step(4));
        assert_eq!(pred.next_pc, callee);
        let rpred = p.on_branch_fetch(ret_pc, BranchKind::Return, ret_pc.step(4));
        assert_eq!(rpred.next_pc, call_pc.step(4), "return predicted from RAS");
    }

    #[test]
    fn mispredict_repair_restores_ras() {
        let mut p = bp();
        let outer = Pc::new(0x1000);
        let call_pc = Pc::new(0x4000);
        let _ = p.on_branch_fetch(outer, BranchKind::Call, outer.step(4));
        // Cold BTB: the call's target is unknown, so it is mispredicted.
        let pred = p.on_branch_fetch(call_pc, BranchKind::Call, call_pc.step(4));
        assert_eq!(pred.next_pc, call_pc.step(4));
        // The wrong path never consults the predictor; the call resolves.
        p.on_mispredict(call_pc, BranchKind::Call, true);
        // The call's return address is on the RAS once, above the outer one.
        let ret = Pc::new(0x9000);
        let rpred = p.on_branch_fetch(ret, BranchKind::Return, ret.step(4));
        assert_eq!(rpred.next_pc, call_pc.step(4));
        let rpred = p.on_branch_fetch(ret, BranchKind::Return, ret.step(4));
        assert_eq!(rpred.next_pc, outer.step(4));
    }

    #[test]
    #[should_panic(expected = "last fetched branch")]
    fn mispredict_after_a_later_fetch_panics() {
        let mut p = bp();
        let call_pc = Pc::new(0x4000);
        let _ = p.on_branch_fetch(call_pc, BranchKind::Call, call_pc.step(4));
        let _ = p.on_branch_fetch(Pc::new(0x9000), BranchKind::Return, Pc::new(0x9004));
        p.on_mispredict(call_pc, BranchKind::Call, true);
    }

    #[test]
    fn bimodal_ablation_runs() {
        let cfg = PredictorConfig {
            bimodal_only: true,
            ..Default::default()
        };
        let mut p = BranchPredictor::new(&cfg);
        let pc = Pc::new(0x1000);
        let ft = Pc::new(0x1004);
        let mut wrong = 0;
        for i in 0..1000u64 {
            let taken = i % 2 == 0; // alternating: bimodal cannot learn
            let pred = p.on_branch_fetch(pc, BranchKind::Conditional, ft);
            if pred.taken != taken {
                wrong += 1;
                p.on_mispredict(pc, BranchKind::Conditional, taken);
            }
            p.on_commit(
                pc,
                BranchKind::Conditional,
                taken,
                Pc::new(0x0F00),
                &pred.meta,
            );
        }
        assert!(
            wrong > 300,
            "bimodal must not learn alternation, wrong={wrong}"
        );
    }

    #[test]
    fn tage_beats_bimodal_on_history_patterns() {
        let run = |bimodal: bool| -> u64 {
            let cfg = PredictorConfig {
                bimodal_only: bimodal,
                ..Default::default()
            };
            let mut p = BranchPredictor::new(&cfg);
            let pc = Pc::new(0x1000);
            let ft = Pc::new(0x1004);
            let tgt = Pc::new(0x0F00);
            let mut wrong = 0;
            for i in 0..4000u64 {
                let taken = (i % 3 == 0) ^ (i % 5 == 0);
                let pred = p.on_branch_fetch(pc, BranchKind::Conditional, ft);
                if pred.taken != taken {
                    wrong += 1;
                    p.on_mispredict(pc, BranchKind::Conditional, taken);
                }
                p.on_commit(pc, BranchKind::Conditional, taken, tgt, &pred.meta);
            }
            wrong
        };
        let tage_wrong = run(false);
        let bimodal_wrong = run(true);
        assert!(
            tage_wrong * 2 < bimodal_wrong,
            "TAGE ({tage_wrong}) should beat bimodal ({bimodal_wrong}) by 2x on a period-15 pattern"
        );
    }
}

use ss_types::persist::{DecodeError, Persist, PersistState, Reader, Writer};

impl Persist for DirMeta {
    fn save(&self, w: &mut Writer) {
        match self {
            DirMeta::Tage(m) => {
                0u8.save(w);
                m.save(w);
            }
            DirMeta::Bimodal(m) => {
                1u8.save(w);
                m.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::load(r)? {
            0 => DirMeta::Tage(TageMeta::load(r)?),
            1 => DirMeta::Bimodal(BimodalMeta::load(r)?),
            t => return Err(r.err(format_args!("invalid DirMeta tag {t}"))),
        })
    }
}

ss_types::impl_persist!(PredMeta { dir });
ss_types::impl_persist!(RepairPoint { pc, hist });

impl PersistState for BranchPredictor {
    fn save_state(&self, w: &mut Writer) {
        match &self.dir {
            Dir::Tage(t) => {
                0u8.save(w);
                t.save_state(w);
            }
            Dir::Bimodal(b) => {
                1u8.save(w);
                b.save_state(w);
            }
        }
        self.btb.save_state(w);
        self.ras.save_state(w);
        self.repair.save(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let tag = u8::load(r)?;
        match (&mut self.dir, tag) {
            (Dir::Tage(t), 0) => t.restore_state(r)?,
            (Dir::Bimodal(b), 1) => b.restore_state(r)?,
            (_, t @ (0 | 1)) => {
                return Err(r.err(format_args!(
                    "direction-predictor kind mismatch (snapshot tag {t})"
                )))
            }
            (_, t) => return Err(r.err(format_args!("invalid direction-predictor tag {t}"))),
        }
        self.btb.restore_state(r)?;
        self.ras.restore_state(r)?;
        self.repair = Persist::load(r)?;
        Ok(())
    }
}
