//! The parallel execution engine's contract: sharding the experiment
//! matrix across workers changes nothing observable — not the per-cell
//! statistics, not the report text, and not PR 1's fault isolation.

use speculative_scheduling::core::RunLength;
use speculative_scheduling::harness::{configs, exec, experiments, prewarm, Session};
use speculative_scheduling::types::exec::{scoped_workers, WorkQueue};
use speculative_scheduling::types::{CancelFlag, SimError};
use speculative_scheduling::workloads::{Benchmark, KernelSpec, BENCHMARKS};

/// Tiny run: exercises the engine code paths, not the statistics.
const TINY: RunLength = RunLength {
    warmup: 150,
    measure: 1_000,
};

/// A `--jobs 4` prewarm followed by report generation produces exactly
/// the per-cell statistics and report text of a sequential run.
#[test]
fn parallel_prewarm_matches_sequential() {
    let e = experiments::find("fig5").expect("fig5 is registered");

    let mut seq = Session::new(TINY, None);
    let seq_report = (e.run)(&mut seq).expect("sequential fig5");

    let mut par = Session::new(TINY, None);
    let stats = prewarm(&mut par, &(e.plan)(), 4, &CancelFlag::new(), false);
    assert!(stats.cells > 0, "prewarm should have fresh cells to run");
    assert_eq!(stats.failures, 0);
    let simulated_after_prewarm = par.simulated;
    let par_report = (e.run)(&mut par).expect("parallel fig5");
    assert_eq!(
        par.simulated, simulated_after_prewarm,
        "the regenerator should be served entirely from the warm cache"
    );

    assert_eq!(
        seq_report.to_text(),
        par_report.to_text(),
        "report text must be byte-identical regardless of --jobs"
    );
    for (cfg, bench) in exec::matrix(&(e.plan)()) {
        let a = seq.try_run(&cfg, bench).expect("sequential cell");
        let b = par.try_run(&cfg, bench).expect("parallel cell");
        assert_eq!(
            a, b,
            "per-cell stats differ for {} on {}",
            cfg.name, bench.name
        );
    }
}

/// Every registered experiment's prewarm plan covers every cell the
/// regenerator asks for: after a prewarm, the regenerator must not
/// simulate anything in-line. Plans are derived by running the
/// regenerator on placeholder statistics, so a regenerator that picked
/// its cells from its results would ask for other cells on real ones;
/// this test catches that.
#[test]
fn every_plan_covers_its_experiment() {
    // One session for the whole registry: experiments share many cells,
    // and a warm in-memory cache doesn't weaken the assertion — anything
    // a plan missed would still be simulated in-line by the regenerator.
    let mut sess = Session::new(TINY, None);
    for e in experiments::EXPERIMENTS {
        prewarm(&mut sess, &(e.plan)(), 2, &CancelFlag::new(), false);
        let before = sess.simulated;
        (e.run)(&mut sess).expect(e.id);
        assert_eq!(
            sess.simulated, before,
            "experiment {} simulated cells outside its plan",
            e.id
        );
    }
}

fn panicking_kernel(_seed: u64) -> KernelSpec {
    panic!("injected kernel panic")
}

/// A benchmark whose kernel construction panics — the worst-case cell.
static PANICKY: Benchmark = Benchmark {
    name: "panicky",
    paper_analogue: "-",
    build: panicking_kernel,
};

/// A panicking cell under parallel execution becomes a [`CellFailure`]
/// in the merged session; sibling cells on other workers complete
/// normally (PR 1's fault isolation survives the worker pool).
#[test]
fn panicking_cell_does_not_poison_parallel_siblings() {
    let sess = Session::new(TINY, None);
    let cfg = configs::spec_sched(4, true);
    let cells: [&Benchmark; 4] = [&PANICKY, &BENCHMARKS[0], &BENCHMARKS[1], &BENCHMARKS[2]];
    let queue = WorkQueue::new(cells.len());
    let workers = scoped_workers(4, |_| {
        let mut local = sess.fork_worker();
        while let Some(i) = queue.take() {
            let _ = local.try_run(&cfg, cells[i]);
        }
        local
    });
    let mut sess = sess;
    for w in workers {
        sess.merge(w);
    }
    sess.sort_failures();

    assert_eq!(sess.failures.len(), 1, "exactly the injected cell fails");
    assert_eq!(sess.failures[0].bench, "panicky");
    assert!(
        matches!(sess.failures[0].error, SimError::Panicked(_)),
        "panic should surface as SimError::Panicked, got {:?}",
        sess.failures[0].error
    );
    for b in &cells[1..] {
        assert!(
            sess.try_run(&cfg, b).is_ok(),
            "sibling {} should have completed normally",
            b.name
        );
    }
}
