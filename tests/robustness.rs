//! Fault-tolerance coverage: structured deadlock errors, the periodic
//! invariant checker, and fault-injected replay storms. These exercise the `try_*` Result APIs end to end — no
//! test here relies on catching a panic.

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::prelude::*;
use speculative_scheduling::types::SimError;
use speculative_scheduling::workloads::{kernels, KernelTrace};

/// Test-local shim over the unified runner, preserving the fallible
/// signature these tests assert error taxonomy through.
fn try_run_kernel(
    cfg: speculative_scheduling::types::SimConfig,
    spec: speculative_scheduling::workloads::KernelSpec,
    len: RunLength,
) -> Result<speculative_scheduling::types::SimStats, speculative_scheduling::types::SimError> {
    RunRequest::kernel(spec)
        .custom_config(cfg)
        .length(len)
        .execute()
        .map(|o| o.stats)
}

/// A watchdog shorter than the pipeline fill latency fires before the
/// first commit can land, and the starvation surfaces as a structured
/// `Err` — not a panic — with a populated diagnostic report.
#[test]
fn starved_pipeline_returns_deadlock_err() {
    let cfg = SimConfig::builder()
        .issue_to_execute_delay(4)
        .watchdog_cycles(3)
        .build();
    let err = try_run_kernel(cfg, kernels::ptr_chase_big(1), RunLength::SMOKE)
        .expect_err("a 3-cycle watchdog must trip during pipeline fill");
    match err {
        SimError::Deadlock(report) => {
            assert_eq!(report.watchdog_cycles, 3);
            assert!(
                !report.detail.is_empty(),
                "report carries head-of-ROB diagnostics"
            );
        }
        other => panic!("expected SimError::Deadlock, got {other}"),
    }
}

/// With a sane watchdog the same workloads complete, so the tiny-watchdog
/// failure above is the watchdog's doing, not the workload's.
#[test]
fn default_watchdog_does_not_fire_on_healthy_runs() {
    let cfg = SimConfig::builder().issue_to_execute_delay(4).build();
    let len = RunLength {
        warmup: 1_000,
        measure: 10_000,
    };
    let s = try_run_kernel(cfg, kernels::ptr_chase_big(1), len).expect("healthy run");
    assert!(s.ipc() > 0.0);
}

/// The periodic invariant checker (ROB/queue occupancy, register
/// conservation, recovery-buffer consistency) stays silent across the
/// configuration matrix — every policy, banking mode, and delay.
#[test]
fn invariant_checker_is_silent_across_config_matrix() {
    let len = RunLength {
        warmup: 0,
        measure: 6_000,
    };
    let policies = [
        SchedPolicyKind::Conservative,
        SchedPolicyKind::AlwaysHit,
        SchedPolicyKind::GlobalCounter,
        SchedPolicyKind::FilterAndCounter,
        SchedPolicyKind::FilterNoSilence,
        SchedPolicyKind::Criticality,
    ];
    for policy in policies {
        for banked in [false, true] {
            for delay in [0u64, 4] {
                let cfg = SimConfig::builder()
                    .issue_to_execute_delay(delay)
                    .sched_policy(policy)
                    .banked_l1d(banked)
                    .invariant_check_interval(256)
                    .build();
                for k in [
                    kernels::crafty_like as fn(u64) -> _,
                    kernels::stream_all_miss,
                ] {
                    try_run_kernel(cfg.clone(), k(1), len)
                        .unwrap_or_else(|e| panic!("{policy:?}/banked={banked}/d={delay}: {e}"));
                }
            }
        }
    }
}

/// The checker can also be invoked directly at an arbitrary mid-run point.
#[test]
fn invariant_checker_passes_mid_flight() {
    let cfg = SimConfig::builder().issue_to_execute_delay(4).build();
    let mut sim = Simulator::new(cfg, KernelTrace::new(kernels::crafty_like(7)));
    for committed in [100u64, 500, 2_000] {
        sim.try_run_committed(committed).expect("run segment");
        sim.check_invariants().expect("invariants hold mid-flight");
    }
}

/// A fault-injected replay storm is weathered through the ordinary
/// replay path: the window perturbs loads, their dependents replay, and
/// the run still completes.
#[test]
fn fault_plan_without_degrade_policy_just_replays() {
    let cfg = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .build();
    let mut sim = Simulator::new(cfg, KernelTrace::new(kernels::stream_hi_ilp(1)));
    sim.set_fault_plan(FaultPlan::new().replay_storm(1_000, 4_000))
        .expect("valid plan");
    let stats = sim.try_run_committed(30_000).expect("run completes");
    assert!(stats.faults_injected > 0);
    assert!(stats.replay_events_miss > 0, "the storm forced replays");
    assert!(stats.committed_uops >= 30_000);
}

/// Invalid configurations surface as `ConfigInvalid`, not panics, through
/// the same `try_*` entry point the harness uses.
#[test]
fn invalid_config_is_a_structured_error() {
    let cfg = SimConfig::builder().watchdog_cycles(0).try_build();
    assert!(matches!(cfg, Err(SimError::ConfigInvalid { .. })));
}
