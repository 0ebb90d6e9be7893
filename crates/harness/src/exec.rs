//! Parallel execution engine for the experiment matrix.
//!
//! Every (configuration × benchmark) cell is an independent,
//! deterministic simulation, so the matrix is embarrassingly parallel.
//! [`prewarm`] shards the cells across `jobs` workers using the
//! work-stealing queue from [`ss_types::exec`]: each worker owns a
//! private [`Session`] (no shared mutable state while simulating) whose
//! on-disk cache is *sharded by construction* — one file per cell key,
//! and the queue hands every cell to exactly one worker, so no two
//! workers ever touch the same file.
//!
//! When the queue drains, the worker sessions are merged back into the
//! caller's session **in worker order** and failures are sorted by
//! (configuration, benchmark), so results and reports are deterministic
//! regardless of completion order. Report generation then runs
//! sequentially over the warmed session and produces byte-for-byte the
//! same output as a sequential run (verified by `tests/parallel.rs`).
//!
//! PR 1's fault isolation carries through unchanged: each cell still
//! runs under [`Session::try_run`]'s `catch_unwind`, so a panicking cell
//! becomes a [`crate::session::CellFailure`] in the merged session
//! without poisoning sibling cells or killing its worker.
//!
//! [`run_cli`] is the sweep behind the `experiments` binary: it
//! prewarms the selected experiments' cells, then prints their reports
//! and writes their CSVs.

use crate::cli::{self, Args};
use crate::configs::NamedConfig;
use crate::experiments::{self, Experiment};
use crate::report::Report;
use crate::session::Session;
use ss_core::RunLength;
use ss_types::exec::{scoped_workers, CancelFlag, WorkQueue};
use ss_workloads::{Benchmark, BENCHMARKS};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The (configuration × benchmark) cells of a sweep over `cfgs`, in
/// deterministic (config, benchmark) order, deduplicated by cell name.
pub fn matrix(cfgs: &[NamedConfig]) -> Vec<(NamedConfig, &'static Benchmark)> {
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for cfg in cfgs {
        for b in &BENCHMARKS {
            if seen.insert((cfg.name.clone(), b.name)) {
                cells.push((cfg.clone(), b));
            }
        }
    }
    cells
}

/// Live progress counters shared by the workers of one [`prewarm`] call.
pub struct Progress {
    /// Cells completed (success or failure).
    pub done: AtomicU64,
    /// Total cells in this sweep.
    pub total: u64,
    /// Simulated cycles accumulated by freshly-run cells (cache hits add
    /// nothing, keeping the throughput figure honest).
    pub sim_cycles: AtomicU64,
    /// Failed cells so far.
    pub failed: AtomicU64,
    started: Instant,
    live: bool,
}

impl Progress {
    fn new(total: u64, live: bool) -> Self {
        Progress {
            done: AtomicU64::new(0),
            total,
            sim_cycles: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            started: Instant::now(),
            live,
        }
    }

    /// One line summarizing the sweep so far:
    /// `cells done/total, aggregate sim-cycles/sec, failures`.
    pub fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let cycles = self.sim_cycles.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let mut s = format!(
            "{done}/{} cells, {:.1}M sim-cycles/s",
            self.total,
            cycles as f64 / secs / 1e6
        );
        if failed > 0 {
            s.push_str(&format!(", {failed} FAILED"));
        }
        s
    }

    fn tick(&self, fresh_cycles: u64, failed: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.sim_cycles.fetch_add(fresh_cycles, Ordering::Relaxed);
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        if self.live {
            // Single atomic-ish write per cell; interleaving between
            // workers only ever mixes whole lines, and the final state
            // is printed by `prewarm` after the queue drains.
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r[prewarm] {}    ", self.line());
        }
    }
}

/// Outcome of a [`prewarm`] call.
pub struct PrewarmStats {
    /// Cells processed (simulated or recalled from disk).
    pub cells: u64,
    /// Cells that failed (also recorded in the session).
    pub failures: u64,
    /// Wall-clock seconds the sweep took.
    pub seconds: f64,
    /// Aggregate simulated cycles of freshly-run cells.
    pub sim_cycles: u64,
    /// Workers that ran: `min(jobs, uncached cells)`, or the one inline
    /// worker when every cell was cached.
    pub workers: usize,
}

/// Runs every (configuration × benchmark) cell of `cfgs` that the
/// session has not already cached, sharded across at most `jobs`
/// workers (never more workers than cells), and merges the results into
/// `sess`. Each cell runs through [`Session::try_run`], so its result is
/// the one a sequential sweep would produce.
///
/// With one worker it runs on the calling thread. `cancel` stops the
/// sweep at the next cell boundary (completed cells stay cached).
/// `live_progress` draws a `\r`-refreshed progress line on stderr; pass
/// `false` when stderr is being captured.
pub fn prewarm(
    sess: &mut Session,
    cfgs: &[NamedConfig],
    jobs: usize,
    cancel: &CancelFlag,
    live_progress: bool,
) -> PrewarmStats {
    let cells: Vec<_> = matrix(cfgs)
        .into_iter()
        .filter(|(c, b)| !sess.is_cached(c, b))
        .collect();
    let total = cells.len() as u64;
    let progress = Progress::new(total, live_progress);
    let queue = WorkQueue::with_cancel(cells.len(), cancel.clone());
    let started = Instant::now();
    let workers = scoped_workers(jobs.min(cells.len()), |_worker| {
        let mut local = sess.fork_worker();
        while let Some(i) = queue.take() {
            let (cfg, bench) = &cells[i];
            let before = local.simulated;
            let outcome = local.try_run(cfg, bench);
            // Recalled cells (a failure memoized by another experiment)
            // add no simulated cycles.
            let fresh = if local.simulated > before {
                outcome.as_ref().map_or(0, |s| s.cycles)
            } else {
                0
            };
            progress.tick(fresh, outcome.is_err());
        }
        local
    });
    if live_progress && total > 0 {
        eprintln!("\r[prewarm] {}    ", progress.line());
    }
    let n_workers = workers.len();
    for w in workers {
        sess.merge(w);
    }
    sess.sort_failures();
    PrewarmStats {
        cells: progress.done.load(Ordering::Relaxed),
        failures: progress.failed.load(Ordering::Relaxed),
        seconds: started.elapsed().as_secs_f64(),
        sim_cycles: progress.sim_cycles.load(Ordering::Relaxed),
        workers: n_workers,
    }
}

/// A parsed sweep command line.
struct SweepArgs {
    selected: Vec<&'static Experiment>,
    len: RunLength,
    cache: bool,
    progress: bool,
    jobs: usize,
    out: PathBuf,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
}

fn parse_sweep(args: &[String]) -> Result<SweepArgs, String> {
    let mut which: Vec<&str> = Vec::new();
    let (mut quick, mut smoke) = (false, false);
    let mut sweep = SweepArgs {
        selected: Vec::new(),
        len: RunLength {
            warmup: 50_000,
            measure: 500_000,
        },
        cache: true,
        progress: true,
        jobs: cli::default_jobs(),
        out: PathBuf::from("results"),
        checkpoint_dir: None,
        resume: false,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--no-cache" => sweep.cache = false,
            "--no-progress" => sweep.progress = false,
            "--jobs" | "-j" => sweep.jobs = args.jobs()?,
            "--out" => sweep.out = args.parse("--out needs a directory")?,
            "--checkpoint-dir" => {
                sweep.checkpoint_dir = Some(args.parse("--checkpoint-dir needs a directory")?)
            }
            "--resume" => sweep.resume = true,
            experiment => which.push(experiment),
        }
    }
    if smoke {
        // CI-sized: exercises the full pipeline, not the statistics.
        sweep.len = RunLength {
            warmup: 1_000,
            measure: 10_000,
        };
    } else if quick {
        sweep.len = RunLength {
            warmup: 20_000,
            measure: 150_000,
        };
    }
    if sweep.resume && sweep.checkpoint_dir.is_none() {
        return Err(
            "--resume requires --checkpoint-dir (the directory of the interrupted sweep)".into(),
        );
    }
    if !sweep.cache && sweep.checkpoint_dir.is_some() {
        return Err(
            "--no-cache conflicts with --checkpoint-dir (a checkpointed sweep keeps its results \
             in DIR/cache)"
                .into(),
        );
    }
    if which.is_empty() {
        which.push("all");
    }
    for w in which {
        if w == "all" {
            sweep.selected.extend(experiments::EXPERIMENTS.iter());
        } else {
            sweep
                .selected
                .push(experiments::find(w).ok_or(format!("unknown experiment `{w}`"))?);
        }
    }
    Ok(sweep)
}

/// Entry point for the sweep, `experiments [EXPERIMENT|all]... [flags]`;
/// returns the process exit code: 0 when every cell and report
/// succeeded, 1 otherwise, 2 on a bad command line.
pub fn run_cli(args: &[String]) -> i32 {
    let ids: Vec<_> = experiments::EXPERIMENTS.iter().map(|e| e.id).collect();
    let usage = format!(
        "usage: experiments [{}|all]... [--jobs N] [--quick] [--smoke] [--out DIR] [--no-cache] \
         [--no-progress] [--checkpoint-dir DIR] [--resume]",
        ids.join("|")
    );
    cli::command(args, &usage, parse_sweep, run_sweep)
}

fn run_sweep(args: SweepArgs) -> i32 {
    let cache_dir = match &args.checkpoint_dir {
        Some(d) => Some(d.join("cache")),
        None => args.cache.then(|| args.out.join("cache")),
    };
    let mut sess = Session::new(args.len, cache_dir);
    if let Some(d) = &args.checkpoint_dir {
        sess.enable_warm_fork(d.join("warm"));
        match sess.attach_journal(&d.join("journal.log")) {
            Ok(done) => {
                if args.resume {
                    eprintln!("[resume: {done} cells already complete on the journal]");
                }
            }
            Err(e) => eprintln!("warning: sweep journal unavailable ({e}); continuing without"),
        }
    }

    // Warm exactly the (configuration × benchmark) matrix the
    // regenerators will ask for; they then read every cell from `sess`.
    let t0 = Instant::now();
    let cfgs: Vec<_> = args.selected.iter().flat_map(|e| (e.plan)()).collect();
    let stats = prewarm(
        &mut sess,
        &cfgs,
        args.jobs,
        &CancelFlag::new(),
        args.progress,
    );
    eprintln!(
        "[prewarm: {} cells across {} workers, {:.1}s, {:.1}M sim-cycles/s{}]",
        stats.cells,
        stats.workers,
        stats.seconds,
        stats.sim_cycles as f64 / stats.seconds.max(1e-9) / 1e6,
        if stats.failures > 0 {
            format!(", {} FAILED", stats.failures)
        } else {
            String::new()
        }
    );

    let mut reports: Vec<Report> = Vec::new();
    let mut broken = 0u32;
    for e in &args.selected {
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
        if let Err(e) = r.write_csvs(&args.out) {
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
        args.out.display()
    );
    i32::from(!sess.failures.is_empty() || broken > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    /// The worker count reported is the one that ran: two for a cold
    /// sweep with `jobs = 2`, the one inline worker for a fully cached
    /// rerun.
    #[test]
    fn prewarm_reports_the_workers_it_started() {
        let len = RunLength {
            warmup: 0,
            measure: 200,
        };
        let mut sess = Session::new(len, None);
        let cfgs = [configs::baseline(0)];
        let cold = prewarm(&mut sess, &cfgs, 2, &CancelFlag::new(), false);
        assert_eq!((cold.cells, cold.failures, cold.workers), (20, 0, 2));
        let warm = prewarm(&mut sess, &cfgs, 2, &CancelFlag::new(), false);
        assert_eq!((warm.cells, warm.workers), (0, 1));
    }
}
