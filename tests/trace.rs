//! Integration tests for the observability subsystem (`ss-trace`):
//! tracing must be invisible to the simulation (identical `SimStats`
//! with any sink attached), captured traces must be deterministic —
//! across repeated runs and across `--jobs 1` vs `--jobs 2` fuzz
//! campaigns — the Perfetto export must survive a schema-validating
//! parse, and a seeded-bug divergence must carry the trailing trace
//! window with the squash events that explain it.

use speculative_scheduling::core::{DiffChecker, RunLength, Simulator};
use speculative_scheduling::harness::fuzz::{error_trace, run_campaign, FuzzOptions};
use speculative_scheduling::oracle::InOrderModel;
use speculative_scheduling::prelude::*;
use speculative_scheduling::trace::{
    json, perfetto, pipeview, CaptureSink, NullSink, TraceEvent, TraceSink,
};
use speculative_scheduling::types::SimError;
use speculative_scheduling::workloads::{kernels, KernelSpec, KernelTrace};

fn missy_cfg() -> SimConfig {
    SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .commit_log_window(32)
        .build()
}

fn missy_kernel() -> KernelSpec {
    kernels::ptr_chase_big(7)
}

const LEN: RunLength = RunLength {
    warmup: 1_000,
    measure: 10_000,
};

fn stats_with<S: TraceSink>(sink: S) -> SimStats {
    let mut sim = Simulator::with_sink(missy_cfg(), KernelTrace::new(missy_kernel()), sink);
    let warm = sim.try_run_committed(LEN.warmup).expect("warmup");
    let end = sim.try_run_committed(LEN.measure).expect("measure");
    end.delta(&warm)
}

/// Tracing must never perturb the simulation: the no-op sink (the
/// "compiled out" configuration every production path uses) and the
/// recording sinks must produce identical statistics on a replay-heavy
/// machine.
#[test]
fn stats_are_identical_with_and_without_tracing() {
    let null = stats_with(NullSink);
    let ring = stats_with(CaptureSink::ring(CaptureSink::DEFAULT_CAPACITY));
    let capture = stats_with(CaptureSink::with_window(0..u64::MAX));
    assert_eq!(null, ring, "ring capture perturbed the simulation");
    assert_eq!(null, capture, "window capture perturbed the simulation");
    assert!(
        null.replayed_miss + null.replayed_bank + null.replayed_prf > 0,
        "fixture must actually replay"
    );
}

fn capture_window(window: std::ops::Range<u64>) -> Vec<TraceEvent> {
    let mut sim = Simulator::with_sink(
        missy_cfg(),
        KernelTrace::new(missy_kernel()),
        CaptureSink::with_window(window.clone()),
    );
    sim.try_run_committed(window.end).expect("runs");
    sim.into_sink().into_events()
}

/// The traced `Occupancy` samples and `Simulator::snapshot` are one view
/// of the pipeline: wherever a window-traced run stops, the last sample
/// equals the snapshot on every field the two share.
#[test]
fn last_occupancy_sample_equals_the_snapshot() {
    let mut sim = Simulator::with_sink(
        missy_cfg(),
        KernelTrace::new(missy_kernel()),
        CaptureSink::with_window(100..300),
    );
    let mut committed = 0;
    for stop in [1, 150, 299, 1_000, 2_500, 6_000] {
        sim.try_run_committed(stop - committed).expect("runs");
        committed = stop;
        let events = sim.sink().recent();
        let last = events
            .iter()
            .rev()
            .find(|e| matches!(e, TraceEvent::Occupancy { .. }));
        let Some(&TraceEvent::Occupancy {
            cycle,
            rob,
            iq,
            lq,
            sq,
            frontend,
            recovery,
            inflight,
            wrong_path,
        }) = last
        else {
            panic!("no occupancy sample by commit {stop}");
        };
        let snap = sim.snapshot();
        let sample = (cycle, rob as usize, iq, lq, sq, frontend as usize);
        let view = (
            snap.cycle,
            snap.rob,
            snap.iq,
            snap.lq,
            snap.sq,
            snap.frontend,
        );
        assert_eq!(sample, view, "commit {stop}: cycle/rob/iq/lq/sq/frontend");
        let sample = (recovery as usize, inflight as usize, wrong_path);
        let view = (snap.recovery, snap.inflight, snap.wrong_path);
        assert_eq!(sample, view, "commit {stop}: recovery/inflight/wrong_path");
        assert!(snap.committed >= stop, "commit {stop}: {snap}");
    }
}

/// The same (config × kernel × window) capture is bit-identical across
/// repeated runs, and both renderers are pure functions of it.
#[test]
fn captures_are_deterministic_across_repeated_runs() {
    let a = capture_window(100..300);
    let b = capture_window(100..300);
    assert!(!a.is_empty());
    assert_eq!(a, b, "capture differs between identical runs");
    assert_eq!(pipeview::render(&a), pipeview::render(&b));
    assert_eq!(
        perfetto::export_chrome_trace(&a),
        perfetto::export_chrome_trace(&b)
    );
}

/// Failure traces are independent of worker parallelism: a seeded-bug
/// fuzz campaign sharded over 1 vs 2 jobs records the same trailing
/// trace window for every failing cell.
#[test]
fn fuzz_failure_traces_match_across_jobs_1_and_2() {
    let opts = |jobs| FuzzOptions {
        campaign_seed: 0xD1FF_5EED,
        cells: 16,
        run: 1_000,
        jobs,
        out_dir: None,
        seed_bug: true,
    };
    let one = run_campaign(&opts(1));
    let two = run_campaign(&opts(2));
    assert!(!one.outcomes.is_empty(), "seeded bug escaped the campaign");
    assert_eq!(one.outcomes.len(), two.outcomes.len());
    for (a, b) in one.outcomes.iter().zip(&two.outcomes) {
        assert_eq!(a.cell.seed, b.cell.seed, "outcome order must be stable");
        assert_eq!(
            error_trace(&a.error),
            error_trace(&b.error),
            "trace for cell {:#x} differs between --jobs 1 and --jobs 2",
            a.cell.seed
        );
    }
}

/// The Perfetto export of a real captured window round-trips through
/// the schema-validating JSON parser: every event phase is well-formed
/// and the expected track metadata is present.
#[test]
fn perfetto_export_roundtrips_through_schema_validation() {
    let events = capture_window(0..256);
    let doc = perfetto::export_chrome_trace(&events);
    let summary = json::validate_chrome_trace(&doc).expect("schema-valid trace");
    assert!(summary.spans > 0, "{summary:?}");
    assert!(summary.counters > 0, "occupancy counter track missing");
    // 1 process_name + (thread_name + thread_sort_index) per stage track.
    assert_eq!(summary.metadata, 1 + 2 * 8, "{summary:?}");
    // A replay-heavy window must link squashes back to their triggers.
    assert!(summary.flows > 0, "no replay flow events captured");
}

/// Acceptance criterion: a `DivergenceReport` produced by the seeded
/// wakeup-recovery bug carries the trailing trace window, and that
/// window shows the squash activity around the dropped µ-op.
#[test]
fn seeded_bug_divergence_carries_squash_trace() {
    let spec = missy_kernel();
    let oracle = InOrderModel::from_spec(spec.clone());
    let mut sim = Simulator::with_sink(
        missy_cfg(),
        KernelTrace::new(spec),
        CaptureSink::ring(CaptureSink::DEFAULT_CAPACITY),
    );
    sim.attach_diff_checker(DiffChecker::new(Box::new(oracle)));
    sim.seed_wakeup_bug();
    let err = sim
        .try_run_committed(20_000)
        .expect_err("seeded bug must diverge");
    let SimError::Divergence(report) = err else {
        panic!("expected a divergence, got: {err}");
    };
    assert!(
        !report.trace.is_empty(),
        "divergence report should carry the trailing trace window"
    );
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::ReplaySquash { .. })),
        "trace window should show the squash that lost the µ-op"
    );
    // The report text renders the window for humans…
    let text = report.to_string();
    assert!(text.contains("trailing trace window"), "got: {text}");
    // …and the window renders through the pipeview for diffing.
    let pv = pipeview::render(&report.trace);
    assert!(
        pv.contains('R'),
        "pipeview should show replay glyphs:\n{pv}"
    );
}
