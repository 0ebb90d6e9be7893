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
        let others_due = [Stage::DeferredWakes, Stage::Commit, Stage::Execute]
            .into_iter()
            .any(|stage| src.due(stage) <= c);
        if src.sched.recovery_ready_len() > 0 && !others_due {
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
/// directions, call_ret_mix stresses the RAS): with the invariant
/// check run every few hundred cycles, the branch-meta queue holds
/// exactly one meta per correct-path branch in flight throughout.
#[test]
fn branch_meta_queue_matches_the_window() {
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
            "no flushes to check the queue across"
        );
        sim.check_invariants().unwrap();
        assert!(!sim.pred_metas.is_empty(), "no branch in flight at the end");
    }
}
