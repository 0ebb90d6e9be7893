//! Golden `SimStats` digests: checked-in evidence that the simulator's
//! observable behaviour has not moved.
//!
//! `tests/golden/stats.txt` holds one FNV-1a digest per cell of the
//! [`SimStats`] in its `Persist` byte encoding (every field, the form
//! snapshots store), plus one digest of a traced
//! run's event stream. The cells cover the headline policy matrix
//! (`ConfigSpec::variants_at(4)`) × three kernels × {no faults, a
//! latency-spike + replay-storm plan}, and every `rv:` suite program at
//! two configurations. It also pins the exact bytes of a few mid-run
//! snapshots (`Snapshot::to_bytes`), taken with branches in flight, one
//! of them just after a mispredicted branch sent fetch down the wrong
//! path: the on-disk snapshot format must not drift under a refactor of
//! the instruction window. A refactor of the pipeline or the run loop
//! must leave every digest unchanged; a deliberate behaviour change
//! re-blesses the file and says so in its commit.
//!
//! Regenerate the file with the ignored `bless` test:
//!
//! ```text
//! cargo test --test golden_stats -- --ignored
//! ```

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::frontend::{programs, ProgramSpec, RvTraceSource};
use speculative_scheduling::snapshot::Snapshot;
use speculative_scheduling::types::persist::{fnv1a64, Persist, PersistState, Writer};
use speculative_scheduling::types::{ConfigSpec, SimStats};
use speculative_scheduling::workloads::{benchmark, KernelTrace, TraceSource};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Short enough for a debug build, long enough that warmup, misses,
/// replays and the fault windows all land inside the run.
const LEN: RunLength = RunLength {
    warmup: 500,
    measure: 4_000,
};

const KERNELS: [&str; 3] = ["dep_chain_l2", "mix_int", "stream_all_miss"];

/// The faulted half of the matrix: a latency spike, then (without
/// overlap) a replay storm.
fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .latency_spike(300, 400, 60)
        .replay_storm(1_200, 500)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.txt")
}

fn stats_digest(stats: &SimStats) -> u64 {
    let mut w = Writer::new();
    stats.save(&mut w);
    fnv1a64(&w.into_bytes())
}

/// Runs `req` and returns `(key, digest)`, keyed by the request's
/// canonical wire text.
fn cell(req: RunRequest) -> (String, u64) {
    let key = req.to_string();
    let stats = req
        .execute()
        .unwrap_or_else(|e| panic!("{key}: run failed: {e}"))
        .stats;
    (key, stats_digest(&stats))
}

fn policy_cells(faults: bool) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for spec in ConfigSpec::variants_at(4) {
        for kernel in KERNELS {
            let mut req = RunRequest::bench(kernel, 1).config(spec).length(LEN);
            if faults {
                req = req.faults(fault_plan());
            }
            out.push(cell(req));
        }
    }
    out
}

fn rv_cells() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for name in programs::names() {
        for cfg in ["Baseline_4", "SpecSched_4"] {
            out.push(cell(
                RunRequest::program(ProgramSpec::suite(name, 1))
                    .config(cfg.parse().expect("known config"))
                    .length(LEN)
                    .checked(true),
            ));
        }
    }
    out
}

/// The digest of a traced run's whole event stream (the ring is large
/// enough to keep every event), in canonical text form.
fn trace_cell() -> (String, u64) {
    let req = RunRequest::bench("dep_chain_l2", 1)
        .config("SpecSched_4".parse().expect("known config"))
        .length(RunLength {
            warmup: 200,
            measure: 2_000,
        })
        .ring_trace(1 << 20);
    let key = format!("events {req}");
    let outcome = req
        .execute()
        .unwrap_or_else(|e| panic!("{key}: run failed: {e}"));
    assert!(
        outcome.trace.len() < 1 << 20,
        "ring overflowed; the digest would miss the stream's start"
    );
    let mut text = String::new();
    for ev in &outcome.trace {
        text.push_str(&ev.to_string());
        text.push('\n');
    }
    (key, fnv1a64(text.as_bytes()))
}

/// Where in a run a snapshot cell captures.
#[derive(Clone, Copy)]
enum CapturePoint {
    /// Right after `n` committed µ-ops.
    Committed(u64),
    /// After `n` committed µ-ops, then single ticks until fetch has been
    /// on a mispredicted branch's wrong path for a full frontend depth,
    /// so the branch and wrong-path µ-ops sit in the window.
    WrongPath(u64),
}

/// Digest of `Snapshot::to_bytes` captured at `at`. Also proves the
/// capture round-trips: restoring it into a fresh simulator and
/// capturing again gives the same bytes.
fn snapshot_digest<T: TraceSource + PersistState>(
    make: impl Fn() -> Simulator<T>,
    at: CapturePoint,
) -> u64 {
    let mut sim = make();
    match at {
        CapturePoint::Committed(n) => {
            sim.try_run_committed(n).expect("run to the capture point");
        }
        CapturePoint::WrongPath(n) => {
            sim.try_run_committed(n).expect("run to the capture point");
            let depth = sim.config().frontend_depth();
            let mut on_wrong_path = 0;
            while on_wrong_path <= depth {
                sim.tick();
                on_wrong_path = if sim.snapshot().wrong_path {
                    on_wrong_path + 1
                } else {
                    0
                };
                assert!(sim.snapshot().cycle.get() < 1_000_000, "no mispredict");
            }
        }
    }
    assert!(sim.snapshot().rob > 0, "capture with an empty window");
    let bytes = sim.capture().to_bytes();
    let mut again = make();
    again
        .restore(&Snapshot::from_bytes(&bytes).expect("decode"))
        .expect("restore");
    assert!(
        again.capture().to_bytes() == bytes,
        "restore then capture changed the snapshot bytes"
    );
    fnv1a64(&bytes)
}

/// Mid-run snapshot bytes: branch-heavy kernels with branches in flight,
/// one capture on a mispredicted branch's wrong path, and one `rv:`
/// program.
fn snapshot_cells() -> Vec<(String, u64)> {
    let cfg = |name: &str| name.parse::<ConfigSpec>().expect("known config").config();
    let mut out = Vec::new();
    let kernel_cells = [
        ("branchy_int", "SpecSched_4", CapturePoint::Committed(3_000)),
        (
            "call_ret_mix",
            "SpecSched_4",
            CapturePoint::Committed(3_000),
        ),
        (
            "mix_int",
            "SpecSched_4_Crit",
            CapturePoint::Committed(3_000),
        ),
        ("branchy_int", "SpecSched_4", CapturePoint::WrongPath(2_000)),
    ];
    for (kernel, config, at) in kernel_cells {
        let spec = (benchmark(kernel).expect("known kernel").build)(1);
        let digest = snapshot_digest(
            || Simulator::new(cfg(config), KernelTrace::new(spec.clone())),
            at,
        );
        let point = match at {
            CapturePoint::Committed(n) => format!("c{n}"),
            CapturePoint::WrongPath(n) => format!("c{n}+wrongpath"),
        };
        out.push((
            format!("snapshot src=bench:{kernel}@0x1 cfg={config} at={point}"),
            digest,
        ));
    }
    let prog = ProgramSpec::suite("hashjoin", 1)
        .resolve()
        .expect("suite program");
    let digest = snapshot_digest(
        || Simulator::new(cfg("SpecSched_4"), RvTraceSource::new(prog.clone())),
        CapturePoint::Committed(3_000),
    );
    out.push((
        "snapshot src=rv:hashjoin@0x1 cfg=SpecSched_4 at=c3000".to_string(),
        digest,
    ));
    out
}

fn load_golden() -> BTreeMap<String, u64> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless it first)", path.display()));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (digest, key) = l.split_once(' ').expect("`{digest} {key}` line");
            let digest = u64::from_str_radix(digest, 16).expect("hex digest");
            (key.to_string(), digest)
        })
        .collect()
}

fn assert_golden(got: Vec<(String, u64)>) {
    let golden = load_golden();
    let mut bad = Vec::new();
    for (key, digest) in &got {
        match golden.get(key) {
            Some(want) if want == digest => {}
            Some(want) => bad.push(format!("{key}: {digest:016x} != golden {want:016x}")),
            None => bad.push(format!("{key}: missing from the golden file")),
        }
    }
    assert!(
        bad.is_empty(),
        "{} digest(s) moved:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn policy_matrix_digests_hold() {
    assert_golden(policy_cells(false));
}

#[test]
fn fault_plan_digests_hold() {
    assert_golden(policy_cells(true));
}

#[test]
fn rv_program_digests_hold() {
    assert_golden(rv_cells());
}

#[test]
fn trace_stream_digest_holds() {
    assert_golden(vec![trace_cell()]);
}

#[test]
fn snapshot_bytes_digests_hold() {
    assert_golden(snapshot_cells());
}

#[test]
#[ignore = "rewrites tests/golden/stats.txt; run explicitly to re-bless"]
fn bless() {
    let mut all = policy_cells(false);
    all.extend(policy_cells(true));
    all.extend(rv_cells());
    all.push(trace_cell());
    all.extend(snapshot_cells());
    let mut text = String::from(
        "# FNV-1a digests of persisted SimStats, one trace event stream and mid-run snapshot bytes.\n\
         # Regenerate: cargo test --test golden_stats -- --ignored\n",
    );
    for (key, digest) in &all {
        text.push_str(&format!("{digest:016x} {key}\n"));
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
    std::fs::write(&path, text).expect("write golden file");
}
