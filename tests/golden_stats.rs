//! Golden `SimStats`: checked-in evidence that the simulator's
//! observable behaviour has not moved.
//!
//! `tests/golden/stats.txt` holds, per cell, every non-zero counter of
//! the run's [`SimStats`] by name (`key | name=value ...`, in the
//! order of [`SimStats::counters`]; a counter the line leaves out is
//! 0), plus FNV-1a digests (`digest key`) of one traced run's event
//! stream and of a few mid-run snapshots' bytes. The cells cover the
//! headline policy matrix (`ConfigSpec::variants_at(4)`) × three
//! kernels × {no faults, a latency-spike + replay-storm plan}, and every
//! `rv:` suite program at two configurations. Scheduler cells widen the
//! net where the issue stage's event paths (tag broadcast, timer
//! parking, store-dependence waiters, squash re-registration, the
//! recovery buffer) differ most: the whole matrix at delays 0 and 4 on
//! a replay-heavy kernel, five contrasting kernels over a longer run,
//! each injected-fault kind on its own, and 32 seeded fuzz cells
//! (random machine × generated kernel × fault windows; their lines
//! carry the run's outcome, `ok` or `err …`, before the counters, so a
//! cell that ends in an error is pinned as well). The snapshot digests
//! pin the exact bytes of mid-run captures (`Snapshot::to_bytes`),
//! taken with branches in flight, one of them just after a mispredicted
//! branch sent fetch down the wrong path: the on-disk snapshot format
//! must not drift under a refactor of the instruction window. A
//! refactor of the pipeline or the run loop must leave every line
//! unchanged; a deliberate behaviour change re-blesses the file and
//! says so in its commit. A mismatch names the counter that moved, as
//! `cell: counter expected → got`.
//!
//! `tests/golden/work.txt` pins, for the same runs, the simulator's
//! exact [`WorkCounts`]: cycles stepped, issue-stage calls, recovery
//! members visited, selection re-checks and scheduler registrations.
//! They are deterministic, so this is a performance gate with no noise:
//! any difference fails, and the message says which count rose or fell.
//! A rise is new work per run and wants a cause; a fall is a re-bless,
//! and the commit says so.
//!
//! Regenerate both files with the ignored `bless` test:
//!
//! ```text
//! cargo test --test golden_stats -- --ignored
//! ```

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest, Simulator, WorkCounts};
use speculative_scheduling::frontend::{programs, ProgramSpec, RvTraceSource};
use speculative_scheduling::harness::fuzz::FuzzCell;
use speculative_scheduling::snapshot::Snapshot;
use speculative_scheduling::types::persist::{fnv1a64, PersistState};
use speculative_scheduling::types::{ConfigSpec, SimStats};
use speculative_scheduling::workloads::{benchmark, KernelTrace, TraceSource};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

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

fn work_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/work.txt")
}

fn spec(name: &str) -> ConfigSpec {
    name.parse().expect("known config")
}

/// What a cell pins in `stats.txt`.
enum Pinned {
    /// A run's statistics; a fuzz cell also pins how the run ended.
    Stats {
        outcome: Option<String>,
        stats: Box<SimStats>,
    },
    /// An FNV-1a digest of output too long to pin value by value.
    Digest(u64),
}

impl Pinned {
    /// The cell's `stats.txt` line under `key`.
    fn line(&self, key: &str) -> String {
        match self {
            Pinned::Stats { outcome, stats } => match outcome {
                Some(o) => format!("{key} | {o} | {}", stats.sparse_text()),
                None => format!("{key} | {}", stats.sparse_text()),
            },
            Pinned::Digest(d) => format!("{d:016x} {key}"),
        }
    }

    /// How this differs from the blessed `want` line, one entry per
    /// value that moved.
    fn diff(&self, want: &str) -> Vec<String> {
        let (outcome, stats) = match self {
            Pinned::Stats { outcome, stats } => (outcome, stats),
            Pinned::Digest(d) => {
                let was = want.split(' ').next().unwrap_or("");
                return vec![format!("digest {was} → {d:016x}")];
            }
        };
        let (_, value) = want.split_once(" | ").unwrap_or(("", ""));
        let (want_outcome, counters) = match value.rsplit_once(" | ") {
            Some((o, c)) => (Some(o), c),
            None => (None, value),
        };
        let mut out = Vec::new();
        if want_outcome != outcome.as_deref() {
            out.push(format!(
                "outcome {} → {}",
                want_outcome.unwrap_or("-"),
                outcome.as_deref().unwrap_or("-")
            ));
        }
        let Some(blessed) = SimStats::parse_text(counters) else {
            out.push(format!("unreadable counters `{counters}`"));
            return out;
        };
        for ((name, was), (_, now)) in blessed.counters().into_iter().zip(stats.counters()) {
            if was != now {
                out.push(format!("{name} {was} → {now}"));
            }
        }
        out
    }
}

/// One pinned cell: the key it is filed under in both golden files, and
/// the run that yields what it pins and the work it took. Keys are
/// known before anything runs.
struct Cell {
    key: String,
    run: Box<dyn FnOnce() -> (Pinned, WorkCounts)>,
}

impl Cell {
    fn new(key: String, run: impl FnOnce() -> (Pinned, WorkCounts) + 'static) -> Cell {
        Cell {
            key,
            run: Box::new(run),
        }
    }

    /// A request's measured statistics, keyed by its canonical wire
    /// text; `check` sees them before they are pinned.
    fn checked_request(req: RunRequest, check: impl FnOnce(&str, &SimStats) + 'static) -> Cell {
        let key = req.to_string();
        Cell::new(key.clone(), move || {
            let outcome = req
                .execute()
                .unwrap_or_else(|e| panic!("{key}: run failed: {e}"));
            check(&key, &outcome.stats);
            let pinned = Pinned::Stats {
                outcome: None,
                stats: Box::new(outcome.stats),
            };
            (pinned, outcome.work)
        })
    }

    fn request(req: RunRequest) -> Cell {
        Cell::checked_request(req, |_, _| {})
    }
}

fn policy_cells(faults: bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for spec in ConfigSpec::variants_at(4) {
        for kernel in KERNELS {
            let mut req = RunRequest::bench(kernel, 1).config(spec).length(LEN);
            if faults {
                req = req.faults(fault_plan());
            }
            out.push(Cell::request(req));
        }
    }
    out
}

fn rv_cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for name in programs::names() {
        for cfg in ["Baseline_4", "SpecSched_4"] {
            out.push(Cell::request(
                RunRequest::program(ProgramSpec::suite(name, 1))
                    .config(spec(cfg))
                    .length(LEN)
                    .checked(true),
            ));
        }
    }
    out
}

/// Every configuration the harness's experiments name, at delays 0 and
/// 4, on a replay-heavy kernel: wakeup policies, replay schemes,
/// banking, shifting, PRF banking and criticality.
fn sched_matrix_cells() -> Vec<Cell> {
    let len = RunLength {
        warmup: 500,
        measure: 6_000,
    };
    let mut out = Vec::new();
    for delay in [0, 4] {
        for spec in ConfigSpec::variants_at(delay) {
            out.push(Cell::request(
                RunRequest::bench("mix_int", 3).config(spec).length(len),
            ));
        }
    }
    out
}

/// Memory-bound, dependency-chained, branchy and store-forwarding-heavy
/// kernels at the sweet-spot delay, each stressing a different
/// scheduler event path.
fn sched_kernel_cells() -> Vec<Cell> {
    let len = RunLength {
        warmup: 1_000,
        measure: 12_000,
    };
    [
        "dep_chain_l2",
        "ptr_chase_big",
        "mix_int",
        "crafty_like",
        "stream_all_miss",
    ]
    .into_iter()
    .map(|kernel| {
        Cell::request(
            RunRequest::bench(kernel, 1)
                .config(spec("SpecSched_4"))
                .length(len),
        )
    })
    .collect()
}

/// Every injected-fault kind on its own: fault windows perturb load
/// latencies and force replay storms mid-run, which exercises squash
/// re-registration and the recovery buffer under the nastiest timing.
fn fault_kind_cells() -> Vec<Cell> {
    [
        FaultPlan::new().latency_spike(2_000, 1_500, 40),
        FaultPlan::new().bank_conflict_burst(2_000, 1_500, 6),
        FaultPlan::new().replay_storm(2_000, 1_500),
    ]
    .into_iter()
    .map(|plan| {
        let req = RunRequest::bench("mix_int", 5)
            .config(spec("SpecSched_4"))
            .length(RunLength {
                warmup: 0,
                measure: 15_000,
            })
            .faults(plan);
        Cell::checked_request(req, |key, stats| {
            assert!(
                stats.faults_injected > 0,
                "{key}: fault window never fired — the cell proves nothing"
            );
        })
    })
    .collect()
}

/// 32 seeded fuzz cells, keyed by `FuzzCell::cell_key`. A run may end in
/// a structured error (an extreme fault plan can trip the periodic
/// invariant checker); the line pins the outcome text and the
/// statistics at that point.
fn fuzz_cells() -> Vec<Cell> {
    (0..32u64)
        .map(|seed| {
            let cell = FuzzCell::from_seed(0xEC0_5EED ^ (seed * 0x9E37_79B9), 4_000, false);
            Cell::new(cell.cell_key(), move || {
                let key = cell.cell_key();
                let cfg = cell.config().unwrap_or_else(|e| panic!("{key}: {e}"));
                let mut sim = Simulator::new(cfg, KernelTrace::new(cell.kernel()));
                sim.set_fault_plan(cell.fault_plan())
                    .unwrap_or_else(|e| panic!("{key}: bad plan: {e}"));
                let outcome = match sim.try_run_committed(cell.run) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => format!("err {e}"),
                };
                let pinned = Pinned::Stats {
                    outcome: Some(outcome),
                    stats: Box::new(sim.stats()),
                };
                (pinned, sim.work())
            })
        })
        .collect()
}

/// The digest of a traced run's whole event stream (the ring is large
/// enough to keep every event), in canonical text form.
fn trace_cell() -> Cell {
    let req = RunRequest::bench("dep_chain_l2", 1)
        .config(spec("SpecSched_4"))
        .length(RunLength {
            warmup: 200,
            measure: 2_000,
        })
        .ring_trace(1 << 20);
    let key = format!("events {req}");
    Cell::new(key.clone(), move || {
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
        (Pinned::Digest(fnv1a64(text.as_bytes())), outcome.work)
    })
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

/// Digest of `Snapshot::to_bytes` captured at `at`, and the work the
/// run up to it took. Also proves the capture round-trips: restoring it
/// into a fresh simulator and capturing again gives the same bytes.
fn snapshot_digest<T: TraceSource + PersistState>(
    make: impl Fn() -> Simulator<T>,
    at: CapturePoint,
) -> (Pinned, WorkCounts) {
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
    (Pinned::Digest(fnv1a64(&bytes)), sim.work())
}

/// Mid-run snapshot bytes: branch-heavy kernels with branches in flight,
/// one capture on a mispredicted branch's wrong path, and one `rv:`
/// program.
fn snapshot_cells() -> Vec<Cell> {
    let cfg = |name: &str| spec(name).config();
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
        let point = match at {
            CapturePoint::Committed(n) => format!("c{n}"),
            CapturePoint::WrongPath(n) => format!("c{n}+wrongpath"),
        };
        out.push(Cell::new(
            format!("snapshot src=bench:{kernel}@0x1 cfg={config} at={point}"),
            move || {
                let spec = (benchmark(kernel).expect("known kernel").build)(1);
                snapshot_digest(
                    || Simulator::new(cfg(config), KernelTrace::new(spec.clone())),
                    at,
                )
            },
        ));
    }
    out.push(Cell::new(
        "snapshot src=rv:hashjoin@0x1 cfg=SpecSched_4 at=c3000".to_string(),
        move || {
            let prog = ProgramSpec::suite("hashjoin", 1)
                .resolve()
                .expect("suite program");
            snapshot_digest(
                || Simulator::new(cfg("SpecSched_4"), RvTraceSource::new(prog.clone())),
                CapturePoint::Committed(3_000),
            )
        },
    ));
    out
}

/// Every pinned cell, in file order.
fn all_cells() -> Vec<Cell> {
    let mut all = policy_cells(false);
    all.extend(policy_cells(true));
    all.extend(rv_cells());
    all.push(trace_cell());
    all.extend(snapshot_cells());
    all.extend(sched_matrix_cells());
    all.extend(sched_kernel_cells());
    all.extend(fault_kind_cells());
    all.extend(fuzz_cells());
    all
}

/// The lines of a golden file, in file order, without `#` comments.
fn golden_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless it first)", path.display()));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The `(key, line)` pairs of `stats.txt`, in file order: a counter line
/// is `{key} | …`, a digest line `{digest} {key}`.
fn read_stats(path: &Path) -> Vec<(String, String)> {
    golden_lines(path)
        .into_iter()
        .map(|l| {
            let key = match l.split_once(" | ") {
                Some((key, _)) => key,
                None => {
                    l.split_once(' ')
                        .unwrap_or_else(|| panic!("{}: `{l}` has no key", path.display()))
                        .1
                }
            };
            (key.to_string(), l.clone())
        })
        .collect()
}

/// The `(key, counts)` pairs of `work.txt`, in file order. A line is
/// `{counts} {key}`, the counts being [`WORK_TOKENS`] space-separated
/// tokens.
fn read_work(path: &Path) -> Vec<(String, String)> {
    golden_lines(path)
        .iter()
        .map(|l| {
            let mut parts = l.splitn(WORK_TOKENS + 1, ' ');
            let value: Vec<&str> = parts.by_ref().take(WORK_TOKENS).collect();
            let key = parts
                .next()
                .unwrap_or_else(|| panic!("{}: `{l}` has no key", path.display()));
            (key.to_string(), value.join(" "))
        })
        .collect()
}

/// Counts per line of the work file.
const WORK_TOKENS: usize = 5;

/// Every count with its name, in file order. Destructured in full, so a
/// new counter does not compile until it is pinned here.
fn work_fields(work: &WorkCounts) -> [(&'static str, u64); WORK_TOKENS] {
    let WorkCounts {
        ticks,
        issue_calls,
        recovery_visits,
        select_checks,
        registrations,
    } = *work;
    [
        ("ticks", ticks),
        ("issue_calls", issue_calls),
        ("recovery_visits", recovery_visits),
        ("select_checks", select_checks),
        ("registrations", registrations),
    ]
}

fn work_text(work: &WorkCounts) -> String {
    let fields: Vec<String> = work_fields(work)
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    fields.join(" ")
}

/// How `got` differs from the blessed `want` text, count by count.
fn work_diff(want: &str, got: &WorkCounts) -> String {
    let want: Vec<(&str, u64)> = want
        .split(' ')
        .map(|tok| {
            let (name, n) = tok.split_once('=').expect("`name=count` token");
            (name, n.parse().expect("count"))
        })
        .collect();
    let mut out = Vec::new();
    for (name, now) in work_fields(got) {
        match want.iter().find(|(n, _)| *n == name) {
            Some(&(_, was)) if was < now => out.push(format!("{name} rose {was} -> {now}")),
            Some(&(_, was)) if was > now => out.push(format!("{name} fell {was} -> {now}")),
            Some(_) => {}
            None => out.push(format!("{name} not blessed")),
        }
    }
    out.join(", ")
}

fn assert_golden(cells: Vec<Cell>) {
    let stats: BTreeMap<String, String> = read_stats(&golden_path()).into_iter().collect();
    let works: BTreeMap<String, String> = read_work(&work_path()).into_iter().collect();
    let mut moved = Vec::new();
    let mut work_moved = Vec::new();
    for Cell { key, run } in cells {
        let (pinned, work) = run();
        match stats.get(&key) {
            Some(want) if *want == pinned.line(&key) => {}
            Some(want) => moved.extend(pinned.diff(want).iter().map(|d| format!("{key}: {d}"))),
            None => moved.push(format!("{key}: missing from the golden file")),
        }
        match works.get(&key) {
            Some(want) if *want == work_text(&work) => {}
            Some(want) => work_moved.push(format!("{key}: {}", work_diff(want, &work))),
            None => work_moved.push(format!("{key}: missing from the work file")),
        }
    }
    assert!(
        moved.is_empty() && work_moved.is_empty(),
        "{} golden value(s) moved (expected → got):\n{}\n{} work count line(s) moved (a rise \
         is new work per run and wants a cause; a fall is a re-bless, said in the commit):\n{}",
        moved.len(),
        moved.join("\n"),
        work_moved.len(),
        work_moved.join("\n")
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
fn scheduler_matrix_digests_hold() {
    assert_golden(sched_matrix_cells());
}

#[test]
fn scheduler_kernel_digests_hold() {
    assert_golden(sched_kernel_cells());
}

#[test]
fn fault_kind_digests_hold() {
    assert_golden(fault_kind_cells());
}

#[test]
fn fuzz_cell_digests_hold() {
    assert_golden(fuzz_cells());
}

/// Each golden file lists exactly the cells `bless` writes, once each:
/// a duplicate line would silently shadow another, and a line no
/// generator emits any more would never be checked.
#[test]
fn golden_files_list_exactly_the_blessed_cells() {
    let want: Vec<String> = all_cells().into_iter().map(|c| c.key).collect();
    let want_set: BTreeSet<&String> = want.iter().collect();
    assert_eq!(
        want_set.len(),
        want.len(),
        "two generated cells share a key"
    );
    for (path, lines) in [
        (golden_path(), read_stats(&golden_path())),
        (work_path(), read_work(&work_path())),
    ] {
        let mut seen = BTreeSet::new();
        let mut bad = Vec::new();
        for (key, _) in lines {
            if !want_set.contains(&key) {
                bad.push(format!("{key}: no generator emits it"));
            }
            if !seen.insert(key.clone()) {
                bad.push(format!("{key}: listed twice"));
            }
        }
        for key in want_set.iter().filter(|k| !seen.contains(**k)) {
            bad.push(format!("{key}: never blessed"));
        }
        assert!(bad.is_empty(), "{}:\n{}", path.display(), bad.join("\n"));
    }
}

#[test]
#[ignore = "rewrites tests/golden/stats.txt and work.txt; run explicitly to re-bless"]
fn bless() {
    let mut stats = String::from(
        "# Per cell `key | name=value ...`: every non-zero SimStats counter (absent means 0);\n\
         # fuzz cells put the run's outcome first. One trace event stream and mid-run\n\
         # snapshot bytes are pinned as FNV-1a digests, `digest key`.\n\
         # Regenerate: cargo test --test golden_stats -- --ignored\n",
    );
    let mut work = String::from(
        "# Exact simulator work counts (ss_core::WorkCounts) of the runs behind stats.txt.\n\
         # Regenerate: cargo test --test golden_stats -- --ignored\n",
    );
    for Cell { key, run } in all_cells() {
        let (pinned, counts) = run();
        stats.push_str(&pinned.line(&key));
        stats.push('\n');
        work.push_str(&format!("{} {key}\n", work_text(&counts)));
    }
    for (path, text) in [(golden_path(), stats), (work_path(), work)] {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden file");
    }
}
