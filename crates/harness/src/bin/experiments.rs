//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [table2|fig3|fig4|fig5|fig7|fig8|sweep|headline|ablations|all]
//!             [--jobs N] [--quick] [--smoke] [--out DIR] [--no-cache]
//!             [--no-progress] [--checkpoint-dir DIR] [--resume]
//! experiments fuzz [--seeds N] [--smoke] [--jobs N] [--out DIR]
//!             [--campaign-seed S] [--repro FILE]
//! experiments trace --bench NAME --config SPEC [--config SPEC2]
//!             [--window LO..HI] [--format perfetto|pipeview] [--out FILE]
//! experiments bench [--out FILE] [--smoke] [--baseline FILE]
//!             [--max-regress PCT]
//! experiments snapfuzz [--seeds N] [--seed S]
//! experiments serve --socket PATH [--jobs N] [--queue-depth D]
//!             [--checkpoint-dir DIR]
//! experiments client --socket PATH [--id ID] [--prio CLASS]
//!             [--cancel-after N] [--stats] [--shutdown] [--req TEXT]
//! experiments run --req TEXT
//! experiments chaos [--seed N] [--events N] [--dir DIR]
//! experiments rvrun [--prog SPEC] [--config SPEC]... [--all] [--delay D]
//!             [--len wNmN] [--smoke] [--no-check] [--jobs N]
//! ```
//!
//! Results print as ASCII tables; CSVs land in `--out` (default
//! `results/`). Simulation results are cached under `results/cache/`.
//!
//! `--checkpoint-dir DIR` makes the sweep crash-safe and warm-forkable:
//! the results store moves to `DIR/cache`, per-cell warm-state snapshots
//! land in `DIR/warm` (each cell's warmup simulates once, ever), and an
//! fsync'd journal of completed cells is kept at `DIR/journal.log`. A
//! killed sweep rerun with the same `--checkpoint-dir` picks up where it
//! died and produces byte-identical reports; add `--resume` to print how
//! much completed work was found on record.
//!
//! `--jobs N` shards the (configuration × benchmark) matrix across `N`
//! worker threads (default: the host's available parallelism) before the
//! reports are generated sequentially from the warmed cache — the report
//! output is byte-identical to a `--jobs 1` run. A live progress line
//! (cells done / total, aggregate sim-cycles/sec) is drawn on stderr.

use ss_core::RunLength;
use ss_harness::{exec, experiments, Report, Session};
use ss_types::CancelFlag;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The fuzz campaign has its own flag set; intercept it before
    // experiment resolution.
    if args.first().map(String::as_str) == Some("fuzz") {
        std::process::exit(ss_harness::fuzz::run_cli(&args[1..]));
    }
    // Same for the trace capture subcommand.
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(ss_harness::tracecmd::run_cli(&args[1..]));
    }
    // And the scheduler-throughput benchmark.
    if args.first().map(String::as_str) == Some("bench") {
        std::process::exit(ss_harness::bench::run_cli(&args[1..]));
    }
    // And the snapshot-corruption fuzzer.
    if args.first().map(String::as_str) == Some("snapfuzz") {
        std::process::exit(ss_harness::snapfuzz::run_cli(&args[1..]));
    }
    // And the simulation service plus its client / offline reference.
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(ss_harness::serve::run_serve_cli(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("client") {
        std::process::exit(ss_harness::serve::run_client_cli(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("run") {
        std::process::exit(ss_harness::serve::run_offline_cli(&args[1..]));
    }
    // And the service-layer chaos-injection harness.
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(ss_harness::chaos::run_chaos_cli(&args[1..]));
    }
    // And the real-program (RV32IM) frontend runner.
    if args.first().map(String::as_str) == Some("rvrun") {
        std::process::exit(ss_harness::rvrun::run_cli(&args[1..]));
    }
    let mut which: Vec<String> = Vec::new();
    let mut quick = false;
    let mut smoke = false;
    let mut cache = true;
    let mut progress = true;
    let mut jobs = ss_types::exec::default_jobs();
    let mut out = PathBuf::from("results");
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--no-cache" => cache = false,
            "--no-progress" => progress = false,
            "--jobs" | "-j" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a worker count")
            }
            "--out" => out = PathBuf::from(it.next().expect("--out needs a directory")),
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(
                    it.next().expect("--checkpoint-dir needs a directory"),
                ))
            }
            "--resume" => resume = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [{}|all]... [--jobs N] [--quick] [--smoke] [--out DIR] [--no-cache] [--no-progress] [--checkpoint-dir DIR] [--resume]",
                    experiments::EXPERIMENTS
                        .iter()
                        .map(|e| e.id)
                        .collect::<Vec<_>>()
                        .join("|")
                );
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }

    let len = if smoke {
        // CI-sized: exercises the full pipeline, not the statistics.
        RunLength {
            warmup: 1_000,
            measure: 10_000,
        }
    } else if quick {
        RunLength {
            warmup: 20_000,
            measure: 150_000,
        }
    } else {
        RunLength {
            warmup: 50_000,
            measure: 500_000,
        }
    };
    if resume && checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir (the directory of the interrupted sweep)");
        std::process::exit(2);
    }
    let cache_dir = match &checkpoint_dir {
        Some(d) => Some(d.join("cache")),
        None => cache.then(|| out.join("cache")),
    };
    let mut sess = Session::new(len, cache_dir);
    if let Some(d) = &checkpoint_dir {
        sess.enable_warm_fork(d.join("warm"));
        match sess.attach_journal(&d.join("journal.log")) {
            Ok(done) => {
                if resume {
                    eprintln!("[resume: {done} cells already complete on the journal]");
                }
            }
            Err(e) => eprintln!("warning: sweep journal unavailable ({e}); continuing without"),
        }
    }

    // Resolve the experiment list up front so the parallel engine can
    // prewarm exactly the (configuration × benchmark) matrix the
    // regenerators will ask for.
    let mut selected: Vec<&'static experiments::Experiment> = Vec::new();
    for w in &which {
        if w == "all" {
            selected.extend(experiments::EXPERIMENTS.iter());
        } else if let Some(e) = experiments::find(w) {
            selected.push(e);
        } else {
            eprintln!("unknown experiment `{w}` (see --help)");
            std::process::exit(2);
        }
    }

    let t0 = std::time::Instant::now();
    if jobs > 1 {
        let cfgs: Vec<_> = selected.iter().flat_map(|e| (e.plan)()).collect();
        let cancel = CancelFlag::new();
        let stats = exec::prewarm(&mut sess, &cfgs, jobs, &cancel, progress);
        eprintln!(
            "[prewarm: {} cells across {jobs} workers, {:.1}s, {:.1}M sim-cycles/s{}]",
            stats.cells,
            stats.seconds,
            stats.sim_cycles as f64 / stats.seconds.max(1e-9) / 1e6,
            if stats.failures > 0 {
                format!(", {} FAILED", stats.failures)
            } else {
                String::new()
            }
        );
    }

    let mut reports: Vec<Report> = Vec::new();
    let mut broken = 0u32;
    for e in &selected {
        match (e.run)(&mut sess) {
            Ok(r) => reports.push(r),
            Err(err) => {
                broken += 1;
                eprintln!("experiment {} failed: {err}", e.id);
            }
        }
    }
    for r in &reports {
        println!("{}", r.to_text());
        if let Err(e) = r.write_csvs(&out) {
            eprintln!("warning: could not write CSVs for {}: {e}", r.id);
        }
    }
    sess.sort_failures();
    for note in sess.failure_notes() {
        eprintln!("{note}");
    }
    eprintln!(
        "[{} simulations run, {} cache entries rejected, {} quarantined, {} warm forks, {} cell failures, {:.1}s, run length {}+{} µ-ops, CSVs in {}]",
        sess.simulated,
        sess.cache_rejected,
        sess.cache_quarantined,
        sess.warm_forked,
        sess.failures.len(),
        t0.elapsed().as_secs_f64(),
        sess.run_length().warmup,
        sess.run_length().measure,
        out.display()
    );
    if !sess.failures.is_empty() || broken > 0 {
        std::process::exit(1);
    }
}
