//! Smoke coverage of the full configuration matrix: every scheduling
//! policy × L1D organization × issue-to-execute delay must simulate two
//! contrasting workloads without panics and with sane results.

use speculative_scheduling::core::{RunLength, RunRequest};
use speculative_scheduling::prelude::*;
use speculative_scheduling::workloads::kernels;

/// Test-local shim over the unified runner: these tests assert on the
/// statistics and treat any simulator error as a test failure.
fn run_kernel(
    cfg: speculative_scheduling::types::SimConfig,
    spec: speculative_scheduling::workloads::KernelSpec,
    len: RunLength,
) -> speculative_scheduling::types::SimStats {
    RunRequest::kernel(spec)
        .custom_config(cfg)
        .length(len)
        .execute()
        .expect("simulation runs")
        .stats
}

const POLICIES: [SchedPolicyKind; 6] = [
    SchedPolicyKind::Conservative,
    SchedPolicyKind::AlwaysHit,
    SchedPolicyKind::GlobalCounter,
    SchedPolicyKind::FilterAndCounter,
    SchedPolicyKind::FilterNoSilence,
    SchedPolicyKind::Criticality,
];

#[test]
fn full_policy_matrix_smoke() {
    let len = RunLength {
        warmup: 0,
        measure: 8_000,
    };
    for policy in POLICIES {
        for banked in [false, true] {
            for delay in [0u64, 4] {
                for shifting in [false, true] {
                    let cfg = SimConfig::builder()
                        .issue_to_execute_delay(delay)
                        .sched_policy(policy)
                        .banked_l1d(banked)
                        .schedule_shifting(shifting)
                        .build();
                    for k in [
                        kernels::crafty_like as fn(u64) -> _,
                        kernels::stream_all_miss,
                    ] {
                        let s = run_kernel(cfg.clone(), k(1), len);
                        assert!(
                            s.ipc() > 0.0 && s.ipc() <= 8.0,
                            "{policy:?}/banked={banked}/d={delay}/shift={shifting}: IPC {}",
                            s.ipc()
                        );
                        if policy == SchedPolicyKind::Conservative {
                            assert_eq!(
                                s.replayed_total(),
                                0,
                                "conservative scheduling can never misspeculate"
                            );
                        }
                        if !banked {
                            assert_eq!(s.replayed_bank, 0, "no banks, no bank replays");
                            assert_eq!(s.bank_delayed_loads, 0);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn delay_sweep_is_monotone_for_conservative_chains() {
    let len = RunLength {
        warmup: 2_000,
        measure: 20_000,
    };
    let mut last = f64::MAX;
    for d in [0u64, 2, 4, 6] {
        let cfg = SimConfig::builder()
            .issue_to_execute_delay(d)
            .sched_policy(SchedPolicyKind::Conservative)
            .banked_l1d(false)
            .build();
        let ipc = run_kernel(cfg, kernels::list_walk(1), len).ipc();
        assert!(
            ipc < last,
            "conservative IPC must fall with delay: {ipc} at d={d}"
        );
        last = ipc;
    }
}

#[test]
fn prefetcher_converts_dram_misses_into_l2_hits() {
    // A pure stream is DRAM-*bandwidth*-bound, so prefetching cannot raise
    // its IPC (each line crosses the 8B bus either way); what it does is
    // convert demand DRAM misses into L2 hits — which is exactly why the
    // paper's streaming benchmarks keep replaying (L1 still misses) while
    // performing acceptably.
    let len = RunLength {
        warmup: 5_000,
        measure: 30_000,
    };
    let on = SimConfig::builder().issue_to_execute_delay(4).build();
    let off = SimConfig::builder()
        .issue_to_execute_delay(4)
        .prefetch_degree(0)
        .build();
    let a = run_kernel(on, kernels::stream_all_miss(1), len);
    let b = run_kernel(off, kernels::stream_all_miss(1), len);
    assert!(
        a.l2.prefetches > 1_000,
        "stride stream must train the prefetcher"
    );
    assert_eq!(b.l2.prefetches, 0);
    // On a bandwidth-saturated stream the prefetcher runs only a few
    // lines ahead, so demands often catch their line still in flight:
    // both clean L2 hits and merges into prefetch-owned MSHRs count as
    // "the prefetcher got there first".
    let covered_on = (a.l2.hits + a.l2.mshr_merges) as f64 / a.l2.accesses.max(1) as f64;
    let covered_off = (b.l2.hits + b.l2.mshr_merges) as f64 / b.l2.accesses.max(1) as f64;
    assert!(
        covered_on > covered_off + 0.3,
        "prefetching must cover demand misses: {covered_on:.3} vs {covered_off:.3}"
    );
}

#[test]
fn bimodal_ablation_mispredicts_more() {
    let len = RunLength {
        warmup: 5_000,
        measure: 30_000,
    };
    let tage = SimConfig::builder().issue_to_execute_delay(4).build();
    let bim = SimConfig::builder()
        .issue_to_execute_delay(4)
        .predictor(PredictorConfig {
            bimodal_only: true,
            ..Default::default()
        })
        .build();
    let a = run_kernel(tage, kernels::mix_int(1), len);
    let b = run_kernel(bim, kernels::mix_int(1), len);
    assert!(
        b.branch_mpki() > a.branch_mpki() * 1.5,
        "TAGE must clearly beat bimodal on patterned branches: {:.2} vs {:.2}",
        a.branch_mpki(),
        b.branch_mpki()
    );
}

use speculative_scheduling::types::PredictorConfig;
