//! The four end-to-end workloads, each timed at the user's surface: the
//! `experiments` CLI or the `experiments serve` socket, run as child
//! processes of this one load-generating process.
//!
//! Every workload reports the same end-to-end metrics. A *cell* is one
//! simulation result the user receives: a sweep or `rvrun` cell, or one
//! served request. A CLI hands back all its cells when it exits, so each
//! of its cells waits the invocation's whole wall time.

use crate::child::{run_cli, CliRun, Server};
use crate::digest::{self, Digests};
use crate::mix;
use crate::results::RunResult;
use crate::stats;
use ss_core::{RunLength, RunRequest};
use ss_frontend::ProgramSpec;
use ss_types::{ConfigSpec, Xoshiro256};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["sweep_quick", "sweep_ckpt", "rv_oracle", "serve_mix"];

/// The seed `bless` pins digests at, and the paper grid's workload seed.
pub const DEFAULT_SEED: u64 = 0xb5;

/// Worker threads every child runs with (the benchmark host has 2 cores).
pub const JOBS: &str = "2";

/// Set-up measurements per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The RV32IM suite programs `rv_oracle` runs.
pub const PROGRAMS: [&str; 4] = ["sort", "hashjoin", "alloc", "lz"];

/// `rv_oracle`'s run length.
pub const RV_LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 500_000,
};

/// What one run needs to drive the system under test.
#[derive(Clone)]
pub struct Ctx {
    pub exp: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub expected: Digests,
}

/// Timed repetitions of a workload's measured phase.
#[derive(Default)]
struct Timed {
    walls: Vec<f64>,
    cells: u64,
    latencies_ms: Vec<f64>,
    rss_kb: u64,
    setups: Vec<f64>,
}

impl Timed {
    /// One CLI invocation's worth of cells, each waiting its wall time.
    fn cli_cells(&mut self, run: &CliRun, cells: u64) {
        let ms = run.wall.as_secs_f64() * 1e3;
        self.latencies_ms
            .extend(std::iter::repeat_n(ms, cells as usize));
        self.rss_kb = self.rss_kb.max(run.maxrss_kb);
    }

    /// Pushes the end-to-end metrics.
    fn report(self, res: &mut RunResult) {
        let reps = self.walls.len().max(1) as u64;
        let wall = stats::median(&self.walls).unwrap_or(0.0);
        let per_rep = self.cells / reps;
        res.push("wall_s", wall, "s");
        res.push("setup_s", stats::median(&self.setups).unwrap_or(0.0), "s");
        res.push("cells_per_s", per_rep as f64 / wall.max(1e-9), "1/s");
        res.push(
            "cell_p50_ms",
            stats::percentile(&self.latencies_ms, 50.0).unwrap_or(0.0),
            "ms",
        );
        let (pct, tail) = stats::tail(&self.latencies_ms).unwrap_or((0.0, 0.0));
        eprintln!(
            "ssbench: {} cells over {reps} repetition(s); tail = p{pct:.2}",
            self.latencies_ms.len()
        );
        res.push("cell_tail_ms", tail, "ms");
        res.push("peak_rss_mb", self.rss_kb as f64 / 1024.0, "MB");
    }
}

/// Runs `phase` once, then again while another repetition of the same
/// length still fits in `--seconds` (counted from `start`).
fn repeat(
    ctx: &Ctx,
    start: Instant,
    mut phase: impl FnMut(usize) -> Result<Duration, String>,
) -> Result<(), String> {
    let mut rep = 0;
    loop {
        let took = phase(rep)?;
        rep += 1;
        if (start.elapsed() + took).as_secs_f64() > ctx.seconds {
            return Ok(());
        }
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// The number just before `label` on the CLI's closing summary line
/// (`[240 simulations run, …, 0 cell failures, …]`).
fn summary_count(stderr: &str, label: &str) -> Option<u64> {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with('[') && l.contains("simulations run"))?;
    let before = &line[..line.find(label)?];
    before.trim_end().rsplit([' ', '[']).next()?.parse().ok()
}

/// Checks a sweep invocation: clean exit, and every cell freshly
/// simulated.
fn check_sweep(res: &mut RunResult, run: &CliRun, cells: u64) {
    let failures = summary_count(&run.stderr, "cell failures");
    match (run.ok(), failures) {
        (true, Some(0)) => res.count(cells, 0),
        (_, Some(f)) if f > 0 => {
            eprintln!("ssbench: {}: {f} cell failures", res.workload);
            res.count(cells, f);
        }
        _ => {
            eprintln!("{}", run.stderr);
            res.count(cells, cells);
        }
    }
    let simulated = summary_count(&run.stderr, "simulations run");
    if simulated != Some(cells) {
        res.fail(&format!(
            "expected {cells} simulations, the CLI reported {simulated:?}"
        ));
    }
}

fn check_csvs(ctx: &Ctx, res: &mut RunResult, dir: &Path) {
    for m in digest::mismatches(&ctx.expected, &res.workload, &digest::csv_digests(dir)) {
        res.fail(&m);
    }
}

/// Set-up of a CLI workload: a rerun that finds every cell cached, the
/// fixed cost each invocation pays before any simulation.
fn cached_reruns(
    ctx: &Ctx,
    res: &mut RunResult,
    t: &mut Timed,
    args: &[String],
) -> Result<(), String> {
    for _ in 0..SETUPS {
        let run = run_cli(&ctx.exp, args, &ctx.work)?;
        if !run.ok() || summary_count(&run.stderr, "simulations run") != Some(0) {
            res.fail("a rerun over a complete cache did not answer from it");
            return Ok(());
        }
        t.setups.push(run.wall.as_secs_f64());
    }
    Ok(())
}

pub fn sweep_quick_args(out: &Path) -> Vec<String> {
    let mut a = strings(&[
        "fig4",
        "fig5",
        "fig8",
        "--quick",
        "--jobs",
        JOBS,
        "--no-progress",
    ]);
    a.extend(["--out".to_string(), path_arg(out)]);
    a
}

/// `fig4 fig5 fig8 --quick`: 240 cells of 170K µ-ops, the paper grid at
/// the fixed workload seed. Long cells on the lane path; no snapshots,
/// oracle or serve.
fn sweep_quick(ctx: &Ctx, res: &mut RunResult) -> Result<(), String> {
    const CELLS: u64 = 240;
    let start = Instant::now();
    let mut t = Timed::default();
    let mut last = Vec::new();
    repeat(ctx, start, |rep| {
        let out = ctx.work.join(format!("quick{rep}"));
        let args = sweep_quick_args(&out);
        let run = run_cli(&ctx.exp, &args, &ctx.work)?;
        check_sweep(res, &run, CELLS);
        check_csvs(ctx, res, &out);
        t.walls.push(run.wall.as_secs_f64());
        t.cells += CELLS;
        t.cli_cells(&run, CELLS);
        last = args;
        Ok(run.wall)
    })?;
    cached_reruns(ctx, res, &mut t, &last)?;
    t.report(res);
    Ok(())
}

pub fn sweep_ckpt_args(dir: &Path) -> Vec<String> {
    let mut a = strings(&["all", "--smoke", "--jobs", JOBS, "--no-progress"]);
    a.extend([
        "--checkpoint-dir".to_string(),
        path_arg(dir),
        "--out".to_string(),
        path_arg(&dir.join("out")),
    ]);
    a
}

/// Bytes under `dir`, recursively.
fn disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `all --smoke --checkpoint-dir D` cold (680 cells, each capturing and
/// writing a warm snapshot), then again after deleting `D/cache` and
/// `D/journal.log`, so every cell forks from its snapshot. Short cells
/// on the per-cell path, where snapshot I/O, journal fsyncs and cache
/// I/O are a large share.
fn sweep_ckpt(ctx: &Ctx, res: &mut RunResult) -> Result<(), String> {
    const CELLS: u64 = 680;
    let start = Instant::now();
    let mut t = Timed::default();
    let mut last = Vec::new();
    repeat(ctx, start, |rep| {
        let dir = ctx.work.join(format!("ckpt{rep}"));
        let args = sweep_ckpt_args(&dir);
        let cold = run_cli(&ctx.exp, &args, &ctx.work)?;
        check_sweep(res, &cold, CELLS);
        check_csvs(ctx, res, &dir.join("out"));
        eprintln!(
            "ssbench: sweep_ckpt: checkpoint holds {:.1} MB",
            disk_bytes(&dir) as f64 / 1e6
        );
        let _ = std::fs::remove_dir_all(dir.join("cache"));
        let _ = std::fs::remove_file(dir.join("journal.log"));
        let _ = std::fs::remove_dir_all(dir.join("out"));
        let refork = run_cli(&ctx.exp, &args, &ctx.work)?;
        check_sweep(res, &refork, CELLS);
        if summary_count(&refork.stderr, "warm forks") != Some(CELLS) {
            res.fail("the second pass did not fork every cell from its snapshot");
        }
        check_csvs(ctx, res, &dir.join("out"));
        let wall = cold.wall + refork.wall;
        eprintln!(
            "ssbench: sweep_ckpt: cold {:.3} s, refork {:.3} s",
            cold.wall.as_secs_f64(),
            refork.wall.as_secs_f64()
        );
        t.walls.push(wall.as_secs_f64());
        t.cells += 2 * CELLS;
        t.cli_cells(&cold, CELLS);
        t.cli_cells(&refork, CELLS);
        if let Some(prev) = rep.checked_sub(1) {
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("ckpt{prev}")));
        }
        last = args;
        Ok(wall)
    })?;
    cached_reruns(ctx, res, &mut t, &last)?;
    t.report(res);
    Ok(())
}

/// The RV32IM program spec `rv_oracle` runs for `seed`.
pub fn rv_spec(prog: &str, seed: u64) -> ProgramSpec {
    ProgramSpec::suite(prog, seed as u32)
}

pub fn rvrun_args(spec: &ProgramSpec, len: RunLength) -> Vec<String> {
    let mut a = strings(&["rvrun", "--all", "--jobs", JOBS]);
    a.extend([
        "--prog".to_string(),
        spec.to_string(),
        "--len".to_string(),
        len.to_string(),
    ]);
    a
}

/// One printed `rvrun` row: `(config, ipc text, committed)`.
fn rv_rows(stdout: &str) -> Vec<(String, String, u64)> {
    stdout
        .lines()
        .filter(|l| l.starts_with("  ") && !l.contains("FAILED"))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let at = |key: &str| f.iter().position(|&w| w == key).and_then(|i| f.get(i + 1));
            Some((
                f.first()?.to_string(),
                at("ipc")?.to_string(),
                at("committed")?.parse().ok()?,
            ))
        })
        .collect()
}

/// `rvrun --all` with the commit oracle on, for each suite program at
/// the run's seed: the frontend interpreter plus oracle on the per-cell
/// stepper, which the sweeps never exercise.
fn rv_oracle(ctx: &Ctx, res: &mut RunResult) -> Result<(), String> {
    let ladder = ConfigSpec::variants_at(4);
    let cells = ladder.len() as u64;
    let start = Instant::now();
    let mut t = Timed::default();
    // Off the blessed seed, one seeded cell per run is re-executed here.
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed ^ 0x0AC1E);
    let checked = PROGRAMS[rng.next_below(PROGRAMS.len() as u64) as usize];
    repeat(ctx, start, |rep| {
        let mut wall = Duration::ZERO;
        let mut tables = BTreeMap::new();
        for prog in PROGRAMS {
            let spec = rv_spec(prog, ctx.seed);
            let run = run_cli(&ctx.exp, &rvrun_args(&spec, RV_LEN), &ctx.work)?;
            let rows = rv_rows(&run.stdout);
            let clean = run.ok()
                && rows.len() == ladder.len()
                && rows.iter().all(|r| r.2 >= RV_LEN.measure);
            if clean {
                res.count(cells, 0);
            } else {
                eprintln!("{}{}", run.stdout, run.stderr);
                res.count(cells, cells - rows.len().min(ladder.len()) as u64);
            }
            if ctx.seed != DEFAULT_SEED && rep == 0 && prog == checked {
                spot_check(res, &spec, &ladder, &rows, &mut rng);
            }
            tables.insert(spec.to_string(), digest::digest(run.stdout.as_bytes()));
            wall += run.wall;
            t.cli_cells(&run, cells);
        }
        if ctx.seed == DEFAULT_SEED {
            for m in digest::mismatches(&ctx.expected, "rv_oracle", &tables) {
                res.fail(&m);
            }
        }
        t.walls.push(wall.as_secs_f64());
        t.cells += cells * PROGRAMS.len() as u64;
        Ok(wall)
    })?;
    for i in 0..SETUPS {
        let spec = rv_spec(PROGRAMS[i % PROGRAMS.len()], ctx.seed);
        let len = RunLength {
            warmup: 0,
            measure: 1,
        };
        let run = run_cli(&ctx.exp, &rvrun_args(&spec, len), &ctx.work)?;
        if !run.ok() {
            res.fail("a one-µ-op rvrun failed");
            break;
        }
        t.setups.push(run.wall.as_secs_f64());
    }
    t.report(res);
    Ok(())
}

/// Off the blessed seed there is no digest: re-execute one seeded cell
/// of the ladder in this process and compare it with the printed row.
fn spot_check(
    res: &mut RunResult,
    spec: &ProgramSpec,
    ladder: &[ConfigSpec],
    rows: &[(String, String, u64)],
    rng: &mut Xoshiro256,
) {
    let cfg = ladder[rng.next_below(ladder.len() as u64) as usize];
    let want = RunRequest::program(spec.clone())
        .config(cfg)
        .length(RV_LEN)
        .execute();
    let printed = rows.iter().find(|r| r.0 == cfg.to_string());
    match (want, printed) {
        (Ok(o), Some((_, ipc, committed)))
            if format!("{:.3}", o.stats.ipc()) == *ipc && o.stats.committed_uops == *committed => {}
        (want, printed) => res.fail(&format!(
            "{spec} {cfg}: printed {printed:?}, in-process {:?}",
            want.map(|o| (o.stats.ipc(), o.stats.committed_uops))
        )),
    }
}

/// Arguments of the untimed sweep whose checkpoint the server preloads.
fn serve_prep_args(dir: &Path) -> Vec<String> {
    let mut a = strings(&[
        "fig4",
        "fig5",
        "fig8",
        "--smoke",
        "--jobs",
        JOBS,
        "--no-progress",
    ]);
    a.extend([
        "--checkpoint-dir".to_string(),
        path_arg(dir),
        "--out".to_string(),
        path_arg(&dir.join("out")),
    ]);
    a
}

fn serve_args(ckpt: &Path) -> Vec<String> {
    vec![
        "--jobs".to_string(),
        JOBS.to_string(),
        "--checkpoint-dir".to_string(),
        path_arg(ckpt),
    ]
}

/// Prepares the checkpoint a server preloads: the `fig4 fig5 fig8
/// --smoke` sweep, untimed.
fn serve_prep(ctx: &Ctx) -> Result<PathBuf, String> {
    let dir = ctx.work.join("serve_ckpt");
    let run = run_cli(&ctx.exp, &serve_prep_args(&dir), &ctx.work)?;
    if !run.ok() {
        eprintln!("{}", run.stderr);
        return Err("the sweep behind the server's checkpoint failed".into());
    }
    Ok(dir)
}

/// `experiments serve` under a closed loop of 2 connections × 4
/// outstanding requests, over a seeded mix of short kernel cells,
/// oracle-checked `rv:` cells, repeats and preloaded grid cells.
fn serve_mix(ctx: &Ctx, res: &mut RunResult) -> Result<(), String> {
    let ckpt = serve_prep(ctx)?;
    let texts = mix::generate(ctx.seed, mix::MIX_REQUESTS, &mix::grid_cells());
    let socket = ctx.work.join("serve.sock");
    let log = ctx.work.join("serve.log");
    let args = serve_args(&ckpt);
    let mut t = Timed::default();
    let mut server = None;
    for i in 0..SETUPS {
        let s = Server::start(&ctx.exp, &socket, &args, &log)?;
        t.setups.push(s.ready_after.as_secs_f64());
        if i + 1 < SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let start = Instant::now();
    let mut answers = Vec::new();
    repeat(ctx, start, |_| {
        let s = match server.take() {
            Some(s) => s,
            None => Server::start(&ctx.exp, &socket, &args, &log)?,
        };
        let (replies, wall) = mix::play(&socket, &texts, || {})?;
        let reaped = s.shutdown()?;
        t.walls.push(wall);
        t.cells += texts.len() as u64;
        t.rss_kb = t.rss_kb.max(reaped.maxrss_kb);
        t.latencies_ms
            .extend(replies.iter().filter_map(mix::Reply::latency_ms));
        answers = replies;
        Ok(Duration::from_secs_f64(wall))
    })?;
    let (failed, first) = mix::check_replies(&texts, &answers);
    res.count(texts.len() as u64, failed);
    let sampled = mix::sample(&texts, 5, ctx.seed);
    let mut bad = 0;
    for text in &sampled {
        let got = first.get(text).map(String::as_str);
        match mix::execute_wire(text) {
            Ok(want) if Some(want.as_str()) == got => {}
            other => {
                eprintln!("ssbench: serve_mix: `{text}` served {got:?}, in-process {other:?}");
                bad += 1;
            }
        }
    }
    res.count(sampled.len() as u64, bad);
    t.report(res);
    Ok(())
}

/// Runs workload `name` and fills `res` with its end-to-end metrics.
pub fn run(ctx: &Ctx, name: &str, res: &mut RunResult) -> Result<(), String> {
    match name {
        "sweep_quick" => sweep_quick(ctx, res),
        "sweep_ckpt" => sweep_ckpt(ctx, res),
        "rv_oracle" => rv_oracle(ctx, res),
        "serve_mix" => serve_mix(ctx, res),
        other => Err(format!("unknown workload `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_are_read_off_the_closing_line() {
        let err = "warning: x\n[prewarm: 240 cells across 2 workers, 19.3s]\n\
                   [240 simulations run, 0 cache entries rejected, 0 quarantined, 680 warm forks, 3 cell failures, 19.3s, run length 20000+150000 µ-ops, CSVs in out]\n";
        assert_eq!(summary_count(err, "simulations run"), Some(240));
        assert_eq!(summary_count(err, "warm forks"), Some(680));
        assert_eq!(summary_count(err, "cell failures"), Some(3));
        assert_eq!(summary_count(err, "no such label"), None);
        assert_eq!(summary_count("", "cell failures"), None);
    }

    #[test]
    fn rvrun_rows_parse() {
        let out = "rvrun: rv:sort@0xb5 len=w20000m500000 check=on configs=2\n\
                   \x20 Baseline_4               ipc  0.731  repl/1k    0.00  mpki   0.20  committed    500001\n\
                   \x20 SpecSched_4              FAILED: boom\n";
        assert_eq!(
            rv_rows(out),
            vec![("Baseline_4".to_string(), "0.731".to_string(), 500_001)]
        );
    }

    #[test]
    fn rv_programs_follow_the_seed() {
        assert_eq!(rv_spec("sort", 0xb5).to_string(), "rv:sort@0xb5");
        assert_eq!(rv_spec("lz", 7), rv_spec("lz", 7));
        assert_ne!(rv_spec("lz", 7), rv_spec("lz", 8));
        let args = rvrun_args(&rv_spec("alloc", 3), RV_LEN);
        assert!(args.windows(2).any(|w| w == ["--prog", "rv:alloc@0x3"]));
        assert!(args.windows(2).any(|w| w == ["--len", "w20000m500000"]));
    }
}
