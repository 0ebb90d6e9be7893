//! Regenerates the paper's tables and figures, and hosts the tools
//! around them.
//!
//! ```text
//! experiments [table2|fig3|fig4|fig5|fig7|fig8|sweep|headline|ablations|all]
//!             [--jobs N] [--quick] [--smoke] [--out DIR] [--no-cache]
//!             [--no-progress] [--checkpoint-dir DIR] [--resume]
//! experiments fuzz [--seeds N] [--smoke] [--jobs N] [--out DIR]
//!             [--campaign-seed S] [--repro FILE]
//! experiments trace --bench NAME --config SPEC [--config SPEC2]
//!             [--window LO..HI] [--format perfetto|pipeview|occupancy]
//!             [--every N] [--out FILE] [--check]
//! experiments snapfuzz [--seeds N] [--seed S]
//! experiments serve --socket PATH [--jobs N] [--queue-depth D]
//!             [--checkpoint-dir DIR] [--drain-grace-ms MS] [--allow-poison]
//! experiments client --socket PATH [--id ID] [--prio CLASS]
//!             [--cancel-after N] [--metrics] [--shutdown] [--req TEXT]
//! experiments run --req TEXT
//! experiments chaos [--seed N] [--events N] [--dir DIR]
//! experiments rvrun [--prog SPEC] [--config SPEC]... [--all] [--delay D]
//!             [--len wNmN] [--smoke] [--no-check] [--jobs N]
//! ```
//!
//! Every subcommand answers `--help` (exit 0) and reports a bad command
//! line as `error: … (see --help)` with exit 2. `--jobs` takes 1 to
//! 1024 workers everywhere.
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
//! output is byte-identical for every `N`. A live progress line (cells
//! done / total, aggregate sim-cycles/sec) is drawn on stderr.

use ss_harness::{chaos, exec, fuzz, rvrun, serve, snapfuzz, tracecmd};

/// A subcommand's entry point: its command line in, its exit code out.
type RunCli = fn(&[String]) -> i32;

/// The subcommands; any other first argument starts a sweep.
const SUBCOMMANDS: [(&str, RunCli); 8] = [
    ("fuzz", fuzz::run_cli),
    ("trace", tracecmd::run_cli),
    ("snapfuzz", snapfuzz::run_cli),
    ("serve", serve::run_serve_cli),
    ("client", serve::run_client_cli),
    ("run", serve::run_offline_cli),
    ("chaos", chaos::run_chaos_cli),
    ("rvrun", rvrun::run_cli),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match SUBCOMMANDS
        .iter()
        .find(|(name, _)| args.first().is_some_and(|a| a == name))
    {
        Some((_, run_cli)) => run_cli(&args[1..]),
        None => exec::run_cli(&args),
    };
    std::process::exit(code);
}
