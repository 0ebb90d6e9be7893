//! Randomized (deterministic, seeded) tests for the branch-prediction
//! substrate: the RAS against a reference stack, BTB against a reference
//! map, and TAGE checkpoint/restore correctness under arbitrary
//! speculation. Formerly proptest properties; now plain loops over the
//! vendored [`Xoshiro256`] generator so the crate builds offline.

use ss_bpred::{BranchPredictor, Btb, Ras, Tage};
use ss_types::rng::Xoshiro256;
use ss_types::{BranchKind, Pc, PredictorConfig};

/// `Some(push value)` or `None` (pop), like the old proptest strategy.
fn gen_op(rng: &mut Xoshiro256) -> Option<u16> {
    if rng.next_bool() {
        Some(rng.next_below(1 << 16) as u16)
    } else {
        None
    }
}

/// The RAS behaves as a bounded stack that drops the *oldest* entry
/// on overflow.
#[test]
fn ras_matches_bounded_stack() {
    let mut rng = Xoshiro256::seed_from_u64(0x4A5);
    for case in 0..64 {
        let cap = 8usize;
        let mut ras = Ras::new(cap as u32);
        let mut model: Vec<u64> = Vec::new();
        let ops = 1 + rng.next_below(199) as usize;
        for _ in 0..ops {
            match gen_op(&mut rng) {
                Some(v) => {
                    ras.push(Pc::new(v as u64));
                    model.push(v as u64);
                    if model.len() > cap {
                        model.remove(0);
                    }
                }
                None => {
                    let got = ras.pop().map(|p| p.get());
                    let want = model.pop();
                    assert_eq!(got, want, "case {case}");
                }
            }
            assert_eq!(
                ras.peek().map(|p| p.get()),
                model.last().copied(),
                "case {case}"
            );
        }
    }
}

/// A mispredict repair leaves the RAS as fetch left it: equal to a
/// clone taken before the branch's fetch, with the branch's own push or
/// pop redone. Random call/return/conditional sequences on small stacks
/// (so they wrap and underflow), driven as the pipeline drives the
/// predictor: the wrong path never fetches through it, so each repair
/// follows its branch's fetch, and every branch then commits.
#[test]
fn mispredict_repair_leaves_the_ras_as_fetch_left_it() {
    let mut rng = Xoshiro256::seed_from_u64(0x4A5_C4EC);
    let mut repairs = 0;
    for case in 0..64 {
        let cfg = PredictorConfig {
            ras_entries: 2 + rng.next_below(15) as u32,
            ..Default::default()
        };
        let mut bp = BranchPredictor::new(&cfg);
        for step in 0..200 {
            let pc = Pc::new(0x1000 + 4 * rng.next_below(64));
            let fallthrough = pc.step(4);
            let mut expected = bp.ras().clone();
            let kind = match rng.next_below(3) {
                0 => {
                    expected.push(fallthrough);
                    BranchKind::Call
                }
                1 => {
                    let _ = expected.pop();
                    BranchKind::Return
                }
                _ => BranchKind::Conditional,
            };
            let pred = bp.on_branch_fetch(pc, kind, fallthrough);
            let taken = kind != BranchKind::Conditional || rng.next_bool();
            let target = Pc::new(0x8000 + 4 * rng.next_below(64));
            let actual_next = if taken { target } else { fallthrough };
            if pred.next_pc != actual_next {
                bp.on_mispredict(pc, kind, taken);
                repairs += 1;
            }
            assert_eq!(bp.ras(), &expected, "case {case} step {step}");
            bp.on_commit(pc, kind, taken, target, &pred.meta);
        }
    }
    assert!(repairs > 1_000, "only {repairs} repairs exercised");
}

/// The BTB always returns the most recently installed target for a PC
/// still resident, and never a target installed for a different PC.
#[test]
fn btb_returns_latest_target() {
    let mut rng = Xoshiro256::seed_from_u64(0xB7B);
    for case in 0..64 {
        let mut btb = Btb::new(1024, 2);
        let mut latest: std::collections::HashMap<u64, u64> = Default::default();
        let ops = 1 + rng.next_below(199) as usize;
        for _ in 0..ops {
            let pc_idx = rng.next_below(64);
            let tgt = rng.next_below(1024);
            let pc = Pc::new(0x1000 + pc_idx * 4);
            btb.update(pc, Pc::new(tgt));
            latest.insert(pc.get(), tgt);
            match btb.lookup(pc) {
                Some(hit) => assert_eq!(hit.get(), latest[&pc.get()], "case {case}"),
                None => panic!("case {case}: just-installed entry must hit"),
            }
        }
        // Residency may have evicted entries, but any hit must be exact.
        for (&pc, &tgt) in &latest {
            if let Some(hit) = btb.lookup(Pc::new(pc)) {
                assert_eq!(hit.get(), tgt, "case {case}");
            }
        }
    }
}

/// TAGE: restoring a checkpoint after arbitrary wrong-path pushes
/// reproduces the exact same prediction as never having speculated.
#[test]
fn tage_checkpoint_isolates_wrong_path() {
    let mut rng = Xoshiro256::seed_from_u64(0x7A6E);
    for case in 0..64 {
        let warm_len = 50 + rng.next_below(100) as usize;
        let junk_len = rng.next_below(60) as usize;
        let probe_pc = rng.next_below(512);
        let cfg = PredictorConfig::default();
        let mut a = Tage::new(&cfg);
        let mut b = Tage::new(&cfg);
        for i in 0..warm_len {
            let t = rng.next_bool();
            let pc = Pc::new(0x2000 + (i as u64 % 8) * 4);
            let (_, ma) = a.predict(pc);
            let (_, mb) = b.predict(pc);
            a.push_history(t, pc);
            b.push_history(t, pc);
            a.update(t, &ma);
            b.update(t, &mb);
        }
        let cp = a.checkpoint();
        for _ in 0..junk_len {
            a.push_history(rng.next_bool(), Pc::new(0x9999));
        }
        a.restore(&cp);
        let pc = Pc::new(0x2000 + probe_pc * 4);
        let (pa, _) = a.predict(pc);
        let (pb, _) = b.predict(pc);
        assert_eq!(pa, pb, "case {case}");
    }
}
