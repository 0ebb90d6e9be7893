//! Golden `SimStats` digests: checked-in evidence that the simulator's
//! observable behaviour has not moved.
//!
//! `tests/golden/stats.txt` holds one FNV-1a digest per cell of the
//! [`SimStats`] in its `Persist` byte encoding (every field, the form
//! snapshots store), plus one digest of a traced
//! run's event stream. The cells cover the headline policy matrix
//! (`ConfigSpec::variants_at(4)`) × three kernels × {no faults, a
//! latency-spike + replay-storm plan}, and every `rv:` suite program at
//! two configurations. A refactor of the pipeline or the run loop must
//! leave every digest unchanged; a deliberate behaviour change
//! re-blesses the file and says so in its commit.
//!
//! Regenerate the file with the ignored `bless` test:
//!
//! ```text
//! cargo test --test golden_stats -- --ignored
//! ```

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest};
use speculative_scheduling::frontend::{programs, ProgramSpec};
use speculative_scheduling::types::persist::{fnv1a64, Persist, Writer};
use speculative_scheduling::types::{ConfigSpec, SimStats};
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
#[ignore = "rewrites tests/golden/stats.txt; run explicitly to re-bless"]
fn bless() {
    let mut all = policy_cells(false);
    all.extend(policy_cells(true));
    all.extend(rv_cells());
    all.push(trace_cell());
    let mut text = String::from(
        "# FNV-1a digests of persisted SimStats (and one trace event stream).\n\
         # Regenerate: cargo test --test golden_stats -- --ignored\n",
    );
    for (key, digest) in &all {
        text.push_str(&format!("{digest:016x} {key}\n"));
    }
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
    std::fs::write(&path, text).expect("write golden file");
}
