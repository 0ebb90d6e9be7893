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

use crate::configs::NamedConfig;
use crate::session::Session;
use ss_types::exec::{scoped_workers, CancelFlag, WorkQueue};
use ss_workloads::{Benchmark, BENCHMARKS};
use std::collections::HashSet;
use std::io::Write as _;
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
}

/// Runs every (configuration × benchmark) cell of `cfgs` that the
/// session has not already cached, sharded across `jobs` workers, and
/// merges the results into `sess`. Each cell runs through
/// [`Session::try_run`], so its result is the one a sequential sweep
/// would produce.
///
/// With `jobs <= 1` the single worker runs on the calling thread — the
/// sequential code path, byte for byte. `cancel` stops the sweep at the
/// next cell boundary (completed cells stay cached). `live_progress`
/// draws a `\r`-refreshed progress line on stderr; pass `false` when
/// stderr is being captured.
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
    let workers = scoped_workers(jobs, |_worker| {
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
    for w in workers {
        sess.merge(w);
    }
    sess.sort_failures();
    PrewarmStats {
        cells: progress.done.load(Ordering::Relaxed),
        failures: progress.failed.load(Ordering::Relaxed),
        seconds: started.elapsed().as_secs_f64(),
        sim_cycles: progress.sim_cycles.load(Ordering::Relaxed),
    }
}
