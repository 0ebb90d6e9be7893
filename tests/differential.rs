//! End-to-end "teeth" tests for the differential oracle: an
//! intentionally seeded pipeline bug must be *caught* (with a usable
//! context dump), a clean pipeline must survive a whole seeded fuzz
//! campaign, and shrunk repro files must replay to the same
//! first-divergence commit.
//!
//! The real-program frontend rides the same machinery: every µ-op the
//! RV32IM interpreter cracks must pass [`MicroOp::validate`], and a
//! frontend-oracle-checked run must stay divergence-free under *every*
//! named scheduling configuration.

use speculative_scheduling::core::{DiffChecker, RunLength, RunRequest, Simulator};
use speculative_scheduling::frontend::{programs, ProgramSpec, RvTraceSource};
use speculative_scheduling::harness::configs::ConfigSpec;
use speculative_scheduling::harness::fuzz::{
    divergence_seq, replay_repro, run_campaign, write_repro, FuzzOptions,
};
use speculative_scheduling::oracle::InOrderModel;
use speculative_scheduling::prelude::*;
use speculative_scheduling::types::SimError;
use speculative_scheduling::workloads::{kernels, KernelTrace};

/// A machine + workload combination guaranteed to replay early: a
/// pointer chase misses constantly, and the always-hit policy wakes
/// dependents speculatively on every one of those misses.
fn missy_sim() -> Simulator<KernelTrace> {
    let cfg = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .commit_log_window(32)
        .build();
    let spec = kernels::ptr_chase_big(7);
    let oracle = InOrderModel::from_spec(spec.clone());
    let mut sim = Simulator::new(cfg, KernelTrace::new(spec));
    sim.attach_diff_checker(DiffChecker::new(Box::new(oracle)));
    sim
}

/// With the seeded wakeup-recovery bug armed, the DiffChecker must end
/// the run with a divergence whose report carries real context: the
/// ring of recent commits and an in-flight state dump.
#[test]
fn seeded_wakeup_bug_is_caught_with_context() {
    let mut sim = missy_sim();
    sim.seed_wakeup_bug();
    match sim.try_run_committed(20_000) {
        Err(SimError::Divergence(r)) => {
            assert!(
                !r.recent.is_empty(),
                "divergence report should carry the recent-commit ring"
            );
            assert!(
                !r.detail.is_empty(),
                "divergence report should carry the in-flight window dump"
            );
            assert_ne!(r.expected, r.actual, "a divergence is a mismatch");
            // The dropped µ-op shifts the whole stream: the report text
            // must localize the first bad commit.
            let text = r.to_string();
            assert!(text.contains("divergence at commit"), "got: {text}");
        }
        Err(other) => panic!("expected a divergence, got: {other}"),
        Ok(_) => panic!("seeded bug went undetected by the oracle"),
    }
}

/// The identical machine with the bug left dormant verifies every single
/// commit against the golden model.
#[test]
fn unseeded_pipeline_verifies_every_commit() {
    let mut sim = missy_sim();
    let stats = sim.try_run_committed(20_000).expect("clean run");
    assert_eq!(sim.diff_verified(), Some(stats.committed_uops));
    assert!(stats.committed_uops >= 20_000);
}

/// A full seeded campaign over random (config × kernel × fault plan)
/// cells finds nothing wrong with the real pipeline.
#[test]
fn clean_campaign_has_zero_divergences() {
    let report = run_campaign(&FuzzOptions {
        campaign_seed: 0xD1FF_5EED,
        cells: 64,
        run: 1_000,
        jobs: 2,
        out_dir: None,
        seed_bug: false,
    });
    assert_eq!(report.cells, 64);
    assert!(
        report.outcomes.is_empty(),
        "unexpected failures: {:?}",
        report.failures.iter().map(|f| f.note()).collect::<Vec<_>>()
    );
}

/// With the bug armed in every cell, the campaign must catch it, the
/// failure records must carry the fuzz cell key + seed, and the shrunk
/// repro must replay to the *same* first-divergence commit.
#[test]
fn seeded_campaign_catches_shrinks_and_reproduces() {
    let opts = FuzzOptions {
        campaign_seed: 0xD1FF_5EED,
        cells: 64,
        run: 1_000,
        jobs: 2,
        out_dir: None,
        seed_bug: true,
    };
    let report = run_campaign(&opts);
    assert!(
        !report.outcomes.is_empty(),
        "seeded bug escaped a 64-cell campaign"
    );
    let failure = &report.failures[0];
    assert!(
        failure.cell_key.starts_with("fuzz|"),
        "{}",
        failure.cell_key
    );
    assert!(failure.fuzz_seed.is_some());

    let o = &report.outcomes[0];
    // Shrinking preserves the failure class and never grows the cell.
    assert!(o.shrunk.run <= o.cell.run);
    assert!(o.shrunk.faults.windows().len() <= o.cell.faults.windows().len());
    let seq = divergence_seq(&o.shrunk_error).expect("seeded bug diverges");

    // Round-trip: serialize the shrunk cell, replay it, and land on the
    // exact same first-divergence commit index.
    let text = write_repro(&o.shrunk, opts.campaign_seed, &o.shrunk_error);
    let replay = replay_repro(&text).expect("repro parses");
    assert_eq!(replay.recorded_seq, Some(seq));
    assert!(
        replay.reproduced,
        "repro did not reproduce: {:?}",
        replay.outcome
    );
}

/// Property: every µ-op the frontend emits — across the whole program
/// suite and several seeds, through at least one restart of each
/// program — satisfies the same `MicroOp::validate` contract the fetch
/// boundary enforces, and consecutive µ-ops chain by PC (same µ-op PC
/// for multi-µ-op instructions, else the predecessor's successor PC).
#[test]
fn every_frontend_uop_validates_and_chains_across_the_suite() {
    use speculative_scheduling::workloads::TraceSource as _;
    for name in programs::names() {
        for seed in [1u32, 0xB5, 7_777] {
            let prog = ProgramSpec::suite(name, seed)
                .resolve()
                .expect("suite programs resolve");
            let mut src = RvTraceSource::new(prog);
            let mut prev: Option<speculative_scheduling::isa::MicroOp> = None;
            for i in 0..30_000u64 {
                let u = src.next_uop();
                u.validate()
                    .unwrap_or_else(|e| panic!("{name}@{seed} µ-op {i}: {e} ({u:?})"));
                if let Some(p) = prev {
                    assert!(
                        u.pc == p.pc || u.pc == p.successor_pc(),
                        "{name}@{seed} µ-op {i}: PC chain broke ({:?} -> {:?})",
                        p.pc,
                        u.pc
                    );
                }
                prev = Some(u);
            }
            assert!(
                src.restarts() >= 1,
                "{name}@{seed}: 30k µ-ops must wrap the program at least once"
            );
        }
    }
}

/// The commit oracle of a checked `rv:` run is the in-order model over a
/// second `RvTraceSource`: it yields one record per µ-op of the trace
/// stream, numbered densely from zero.
#[test]
fn oracle_mirrors_the_trace_stream() {
    use speculative_scheduling::types::CommitOracle as _;
    use speculative_scheduling::workloads::TraceSource as _;
    let prog = programs::build("alloc", 9).unwrap();
    let mut src = RvTraceSource::new(prog.clone());
    let mut oracle = InOrderModel::new(RvTraceSource::new(prog));
    for seq in 0..10_000u64 {
        let u = src.next_uop();
        let c = oracle.next_commit();
        assert_eq!(c.seq, seq);
        assert_eq!(c.pc, u.pc);
        assert_eq!(c.kind, u.class);
        assert_eq!(c.dst, u.dst.map(|d| (d.class, d.reg)));
    }
}

/// Every named configuration at the paper's headline delay commits the
/// exact architectural instruction stream of the functional interpreter:
/// the frontend oracle re-executes the program and the DiffChecker
/// compares PC/kind/destination at every single commit. A passing run
/// also pins the commit *count* to the requested measure window.
#[test]
fn frontend_oracle_matches_pipeline_across_the_policy_matrix() {
    let len = RunLength {
        warmup: 200,
        measure: 2_000,
    };
    for (i, spec) in ConfigSpec::variants_at(4).into_iter().enumerate() {
        // Rotate programs through the matrix so every program meets
        // several policies without multiplying the runtime.
        let names = programs::names();
        let prog = ProgramSpec::suite(names[i % names.len()], 0xB5);
        let outcome = RunRequest::program(prog.clone())
            .config(spec)
            .length(len)
            .checked(true)
            .execute()
            .unwrap_or_else(|e| panic!("{spec} on {prog}: {e}"));
        assert!(
            outcome.stats.committed_uops >= len.measure,
            "{spec} on {prog}: committed {} < measure window {}",
            outcome.stats.committed_uops,
            len.measure
        );
        assert!(outcome.stats.ipc() > 0.0, "{spec} on {prog}: zero IPC");
    }
}
