//! Deterministic differential fuzz campaign with automatic shrinking.
//!
//! The campaign samples random `(SimConfig × kernel × FaultPlan)` cells
//! — every cell derived from a single `u64` seed, so the whole run is
//! reproducible from the campaign seed alone — and executes each one
//! with the in-order golden model attached ([`ss_oracle::InOrderModel`]
//! plus [`DiffChecker`](ss_core::DiffChecker)). Any divergence, panic, deadlock, or invariant
//! violation is fed to an automatic **shrinker** that minimizes the
//! failing cell (halve the run length, drop fault windows, neutralize
//! config knobs one at a time, keeping each mutation only while the same
//! failure class persists) and writes a plain-text repro file that
//! `experiments fuzz --repro <file>` replays.
//!
//! Every cell runs with a bounded [`CaptureSink`] ring attached, so a
//! failing cell's [`DivergenceReport`](ss_types::DivergenceReport) /
//! [`DeadlockReport`](ss_types::DeadlockReport) carries the trailing
//! pipeline-event window and each repro file gets a
//! `repro-<seed>.trace.txt` pipeview sidecar — a replayable picture of
//! the cycles leading up to the failure.
//!
//! Cells are sharded across worker threads with the same
//! [`ss_types::exec`] pool the experiment matrix uses; shrinking runs
//! sequentially afterwards (failures are rare and shrink runs are
//! cheap).

use crate::cli::{self, Args};
use crate::session::{catch_panic, CellFailure};
use ss_core::{FaultPlan, RunLength, RunRequest};
use ss_trace::{pipeview, CaptureSink, TraceEvent};
use ss_types::exec::{scoped_workers, WorkQueue};
use ss_types::{
    ReplayScheme, SchedPolicyKind, ShiftPolicy, SimConfig, SimError, SplitMix64, Xoshiro256,
};
use ss_workloads::{gen, KernelSpec};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic tag leading every repro file.
const REPRO_MAGIC: &str = "ss-fuzz-repro";
/// Repro file format version.
const REPRO_VERSION: u32 = 2;
/// Commit-log ring size used for divergence context in fuzz cells.
const FUZZ_COMMIT_LOG_WINDOW: u32 = 32;
/// Shrinker floor for the run length (committed µ-ops).
const MIN_RUN: u64 = 64;

/// One fully-derived fuzz cell: a machine configuration, a generated
/// kernel, a fault plan, and a run length. Everything is plain data so a
/// *shrunk* cell (which no longer matches its seed's derivation) still
/// round-trips through a repro file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCell {
    /// The seed this cell was originally derived from.
    pub seed: u64,
    /// Issue-to-execute delay (paper sweep: 0, 2, 4, 6).
    pub delay: u64,
    /// Wakeup policy.
    pub policy: SchedPolicyKind,
    /// Replay scheme.
    pub replay: ReplayScheme,
    /// Schedule-shifting policy.
    pub shift: ShiftPolicy,
    /// Banked L1D model on/off.
    pub banked: bool,
    /// Dual-load issue on/off.
    pub dual_load: bool,
    /// Seed for the generated kernel ([`gen::gen_kernel`]).
    pub kernel_seed: u64,
    /// Injected-fault windows (valid by construction; the shrinker only
    /// ever removes windows).
    pub faults: FaultPlan,
    /// Committed µ-ops to run.
    pub run: u64,
    /// Test hook: arm the intentionally-seeded wakeup-recovery bug
    /// ([`ss_core::Simulator::seed_wakeup_bug`]) so oracle "teeth" tests have a
    /// real divergence to find.
    pub seed_bug: bool,
}

impl FuzzCell {
    /// Derives a complete cell from `seed`. Deterministic: the same seed
    /// always yields the same cell.
    pub fn from_seed(seed: u64, run: u64, seed_bug: bool) -> FuzzCell {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let delay = [0, 2, 4, 6][rng.next_below(4) as usize];
        let policy = [
            SchedPolicyKind::Conservative,
            SchedPolicyKind::AlwaysHit,
            SchedPolicyKind::GlobalCounter,
            SchedPolicyKind::FilterAndCounter,
            SchedPolicyKind::FilterNoSilence,
            SchedPolicyKind::Criticality,
        ][rng.next_below(6) as usize];
        let replay = [
            ReplayScheme::Squash,
            ReplayScheme::Selective,
            ReplayScheme::Refetch,
        ][rng.next_below(3) as usize];
        let shift = [
            ShiftPolicy::Off,
            ShiftPolicy::Always,
            ShiftPolicy::Predicted,
        ][rng.next_below(3) as usize];
        let banked = rng.next_bool();
        let dual_load = rng.next_bool();
        let kernel_seed = rng.next_u64();
        // Non-overlapping windows by construction: each one starts past
        // the previous window's end. A storm draws a magnitude it does
        // not use, which keeps every later draw of the seed in place.
        let mut faults = FaultPlan::new();
        let mut cursor = 200;
        for _ in 0..rng.next_below(3) {
            let start = cursor + rng.next_below(2_000);
            let duration = 1 + rng.next_below(500);
            let kind = rng.next_below(3);
            let param = 1 + rng.next_below(24);
            faults = match kind {
                0 => faults.latency_spike(start, duration, param),
                1 => faults.bank_conflict_burst(start, duration, param),
                _ => faults.replay_storm(start, duration),
            };
            cursor = start + duration;
        }
        FuzzCell {
            seed,
            delay,
            policy,
            replay,
            shift,
            banked,
            dual_load,
            kernel_seed,
            faults,
            run,
            seed_bug,
        }
    }

    /// The machine configuration this cell runs.
    pub fn config(&self) -> Result<SimConfig, SimError> {
        SimConfig::builder()
            .issue_to_execute_delay(self.delay)
            .sched_policy(self.policy)
            .replay_scheme(self.replay)
            .shift_policy(self.shift)
            .banked_l1d(self.banked)
            .dual_load_issue(self.dual_load)
            .commit_log_window(FUZZ_COMMIT_LOG_WINDOW)
            .watchdog_cycles(100_000)
            .invariant_check_interval(5_000)
            .try_build()
    }

    /// The generated kernel this cell runs.
    pub fn kernel(&self) -> KernelSpec {
        let mut rng = Xoshiro256::seed_from_u64(self.kernel_seed);
        gen::gen_kernel(&mut rng)
    }

    /// Canonical cell key, analogous to
    /// [`CellFailure::cell_key`](crate::session::CellFailure::cell_key):
    /// every knob that defines the cell, so a reported failure is
    /// reproducible from the report alone.
    pub fn cell_key(&self) -> String {
        format!(
            "fuzz|seed={:#x}|d{}|{:?}|{:?}|{:?}|banked={}|dual={}|k={:#x}|faults=[{}]|r{}{}",
            self.seed,
            self.delay,
            self.policy,
            self.replay,
            self.shift,
            self.banked,
            self.dual_load,
            self.kernel_seed,
            self.faults,
            self.run,
            if self.seed_bug { "|seeded-bug" } else { "" },
        )
    }

    /// Short human-readable configuration summary (report `config`
    /// column).
    pub fn summary(&self) -> String {
        format!(
            "fuzz[d{} {:?} {:?} {:?}{}{}]",
            self.delay,
            self.policy,
            self.replay,
            self.shift,
            if self.banked { " banked" } else { "" },
            if self.dual_load { " dual" } else { "" },
        )
    }
}

/// Runs one cell with the differential oracle attached. `Ok(())` means
/// the cell completed with every commit verified; panics are caught and
/// come back as [`SimError::Panicked`].
pub fn run_cell(cell: &FuzzCell) -> Result<(), SimError> {
    let cfg = cell.config()?;
    catch_panic(|| {
        // Bounded ring trace: failure reports carry the trailing
        // pipeline-event window at negligible steady-state cost.
        let mut req = RunRequest::kernel(cell.kernel())
            .custom_config(cfg)
            .length(RunLength {
                warmup: 0,
                measure: cell.run,
            })
            .checked(true)
            .ring_trace(CaptureSink::DEFAULT_CAPACITY)
            .faults(cell.faults.clone());
        if cell.seed_bug {
            req = req.seed_wakeup_bug();
        }
        req.execute().map(|_| ())
    })
}

/// Whether two errors are the same failure class (the shrinker's
/// invariant: a mutation is kept only while the class persists).
fn same_class(a: &SimError, b: &SimError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// The first-divergence commit index, if the error is a divergence.
pub fn divergence_seq(e: &SimError) -> Option<u64> {
    match e {
        SimError::Divergence(r) => Some(r.seq),
        _ => None,
    }
}

/// The nearest-checkpoint path a failure report carries, if any.
pub fn error_checkpoint(e: &SimError) -> Option<&str> {
    match e {
        SimError::Divergence(r) => r.checkpoint.as_deref(),
        SimError::Deadlock(r) => r.checkpoint.as_deref(),
        _ => None,
    }
}

/// The trailing pipeline-trace window a failure report carries (empty
/// for error classes that don't capture one).
pub fn error_trace(e: &SimError) -> &[TraceEvent] {
    match e {
        SimError::Divergence(r) => &r.trace,
        SimError::Deadlock(r) => &r.trace,
        _ => &[],
    }
}

/// Automatic shrinker: minimizes `cell` while the same failure class
/// persists. Deterministic (each candidate is one fresh `run_cell`).
///
/// The shrink order is: (1) halve the run length, (2) drop fault windows
/// one at a time (youngest first), (3) neutralize config knobs one at a
/// time toward the defaults (shift off, squash replay, unbanked,
/// single-load, always-hit wakeup). Returns the minimal cell and the
/// error it still produces.
pub fn shrink(cell: &FuzzCell, baseline: &SimError) -> (FuzzCell, SimError) {
    let mut best = cell.clone();
    let mut err = baseline.clone();
    let try_keep = |cand: FuzzCell, best: &mut FuzzCell, err: &mut SimError| -> bool {
        match run_cell(&cand) {
            Err(e) if same_class(&e, baseline) => {
                *best = cand;
                *err = e;
                true
            }
            _ => false,
        }
    };

    // 1. Halve the run length while the failure persists.
    loop {
        let half = best.run / 2;
        if half < MIN_RUN {
            break;
        }
        let cand = FuzzCell {
            run: half,
            ..best.clone()
        };
        if !try_keep(cand, &mut best, &mut err) {
            break;
        }
    }
    // 2. Drop fault windows one at a time.
    let mut i = best.faults.windows().len();
    while i > 0 {
        i -= 1;
        let cand = FuzzCell {
            faults: best.faults.without_window(i),
            ..best.clone()
        };
        try_keep(cand, &mut best, &mut err);
    }
    // 3. Neutralize config knobs one at a time.
    let knobs: [fn(&mut FuzzCell); 5] = [
        |c| c.shift = ShiftPolicy::Off,
        |c| c.replay = ReplayScheme::Squash,
        |c| c.banked = false,
        |c| c.dual_load = false,
        |c| c.policy = SchedPolicyKind::AlwaysHit,
    ];
    for knob in knobs {
        let mut cand = best.clone();
        knob(&mut cand);
        if cand != best {
            try_keep(cand, &mut best, &mut err);
        }
    }
    (best, err)
}

// ---------------------------------------------------------------------
// repro files
// ---------------------------------------------------------------------

/// Serializes a failing cell (plus its campaign context and recorded
/// first-divergence seq, if any) into the plain-text repro format.
pub fn write_repro(cell: &FuzzCell, campaign_seed: u64, error: &SimError) -> String {
    let mut out = format!("{REPRO_MAGIC} v{REPRO_VERSION}\n");
    out += &format!("campaign_seed {:#x}\n", campaign_seed);
    out += &format!("cell_seed {:#x}\n", cell.seed);
    out += &format!("run {}\n", cell.run);
    out += &format!("delay {}\n", cell.delay);
    out += &format!("policy {:?}\n", cell.policy);
    out += &format!("replay {:?}\n", cell.replay);
    out += &format!("shift {:?}\n", cell.shift);
    out += &format!("banked {}\n", u8::from(cell.banked));
    out += &format!("dual_load {}\n", u8::from(cell.dual_load));
    out += &format!("kernel_seed {:#x}\n", cell.kernel_seed);
    if !cell.faults.windows().is_empty() {
        out += &format!("faults {}\n", cell.faults);
    }
    out += &format!("seed_bug {}\n", u8::from(cell.seed_bug));
    if let Some(seq) = divergence_seq(error) {
        out += &format!("divergence_seq {seq}\n");
    }
    if let Some(cp) = error_checkpoint(error) {
        out += &format!("checkpoint {cp}\n");
    }
    let first_line = error.to_string();
    let first_line = first_line.lines().next().unwrap_or("").to_string();
    out += &format!("error {first_line}\n");
    out
}

/// Parses a repro file back into a cell and the recorded
/// first-divergence seq (if the original failure was a divergence).
pub fn parse_repro(text: &str) -> Result<(FuzzCell, Option<u64>), String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != format!("{REPRO_MAGIC} v{REPRO_VERSION}") {
        return Err(format!(
            "not a {REPRO_MAGIC} v{REPRO_VERSION} file: `{header}`"
        ));
    }
    let mut cell = FuzzCell {
        seed: 0,
        delay: 4,
        policy: SchedPolicyKind::AlwaysHit,
        replay: ReplayScheme::Squash,
        shift: ShiftPolicy::Off,
        banked: false,
        dual_load: false,
        kernel_seed: 1,
        faults: FaultPlan::new(),
        run: 1_000,
        seed_bug: false,
    };
    let mut recorded_seq = None;
    let parse_u64 =
        |v: &str| cli::parse_seed(v).ok_or_else(|| format!("bad number `{}`", v.trim()));
    for line in lines {
        let Some((key, val)) = line.split_once(' ') else {
            continue;
        };
        match key {
            "campaign_seed" => {} // informational
            "cell_seed" => cell.seed = parse_u64(val)?,
            "run" => cell.run = parse_u64(val)?,
            "delay" => cell.delay = parse_u64(val)?,
            "policy" => {
                cell.policy = match val {
                    "Conservative" => SchedPolicyKind::Conservative,
                    "AlwaysHit" => SchedPolicyKind::AlwaysHit,
                    "GlobalCounter" => SchedPolicyKind::GlobalCounter,
                    "FilterAndCounter" => SchedPolicyKind::FilterAndCounter,
                    "FilterNoSilence" => SchedPolicyKind::FilterNoSilence,
                    "Criticality" => SchedPolicyKind::Criticality,
                    other => return Err(format!("unknown policy `{other}`")),
                }
            }
            "replay" => {
                cell.replay = match val {
                    "Squash" => ReplayScheme::Squash,
                    "Selective" => ReplayScheme::Selective,
                    "Refetch" => ReplayScheme::Refetch,
                    other => return Err(format!("unknown replay scheme `{other}`")),
                }
            }
            "shift" => {
                cell.shift = match val {
                    "Off" => ShiftPolicy::Off,
                    "Always" => ShiftPolicy::Always,
                    "Predicted" => ShiftPolicy::Predicted,
                    other => return Err(format!("unknown shift policy `{other}`")),
                }
            }
            "banked" => cell.banked = parse_u64(val)? != 0,
            "dual_load" => cell.dual_load = parse_u64(val)? != 0,
            "kernel_seed" => cell.kernel_seed = parse_u64(val)?,
            "seed_bug" => cell.seed_bug = parse_u64(val)? != 0,
            "divergence_seq" => recorded_seq = Some(parse_u64(val)?),
            "faults" => cell.faults = val.parse()?,
            "checkpoint" => {} // informational (nearest warm-state snapshot)
            "error" => {}      // informational
            other => return Err(format!("unknown repro key `{other}`")),
        }
    }
    Ok((cell, recorded_seq))
}

/// Result of replaying a repro file.
#[derive(Debug)]
pub struct ReproResult {
    /// The replayed cell.
    pub cell: FuzzCell,
    /// First-divergence seq recorded in the file, if any.
    pub recorded_seq: Option<u64>,
    /// What the replay produced (`Ok` = the cell ran clean).
    pub outcome: Result<(), SimError>,
    /// Whether the replay reproduced the recorded failure: some failure
    /// occurred and, when a divergence seq was recorded, the replay
    /// diverged at the same commit index.
    pub reproduced: bool,
}

/// Replays a repro file.
pub fn replay_repro(text: &str) -> Result<ReproResult, String> {
    let (cell, recorded_seq) = parse_repro(text)?;
    let outcome = run_cell(&cell);
    let reproduced = match (&outcome, recorded_seq) {
        (Err(e), Some(seq)) => divergence_seq(e) == Some(seq),
        (Err(_), None) => true,
        (Ok(()), _) => false,
    };
    Ok(ReproResult {
        cell,
        recorded_seq,
        outcome,
        reproduced,
    })
}

// ---------------------------------------------------------------------
// campaign
// ---------------------------------------------------------------------

/// Options for one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Seed every cell seed derives from.
    pub campaign_seed: u64,
    /// Number of cells to run.
    pub cells: u64,
    /// Committed µ-ops per cell.
    pub run: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Directory for repro files (`None` = don't write any).
    pub out_dir: Option<PathBuf>,
    /// Test hook: arm the seeded wakeup bug in every cell.
    pub seed_bug: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            campaign_seed: 0xD1FF_5EED,
            cells: 64,
            run: 10_000,
            jobs: 1,
            out_dir: None,
            seed_bug: false,
        }
    }
}

/// One failing cell of a campaign, after shrinking.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The original failing cell.
    pub cell: FuzzCell,
    /// The error the original cell produced.
    pub error: SimError,
    /// The shrunk (minimal) cell.
    pub shrunk: FuzzCell,
    /// The error the shrunk cell produces (same class as `error`).
    pub shrunk_error: SimError,
    /// Repro file written for the shrunk cell, if an output directory
    /// was configured.
    pub repro_path: Option<PathBuf>,
}

/// The result of a whole campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// The campaign seed the run derived from.
    pub campaign_seed: u64,
    /// Cells executed.
    pub cells: u64,
    /// Failing cells, shrunk, in cell-index order.
    pub outcomes: Vec<FuzzOutcome>,
    /// Session-style failure records (config summary, kernel name,
    /// canonical cell key, and the cell seed) for report integration.
    pub failures: Vec<CellFailure>,
}

/// Runs a deterministic fuzz campaign: `opts.cells` cells derived from
/// `opts.campaign_seed`, sharded over at most `opts.jobs` workers (never
/// more than cells), each checked
/// against the golden model. Failing cells are shrunk and (when
/// `opts.out_dir` is set) written as repro files
/// `fuzz/repro-<cell_seed>.txt` under the output directory.
pub fn run_campaign(opts: &FuzzOptions) -> FuzzReport {
    // Derive per-cell seeds up front (SplitMix64 stream, like the RNG
    // seeding idiom everywhere else in the workspace).
    let mut sm = SplitMix64::new(opts.campaign_seed);
    let cells: Vec<FuzzCell> = (0..opts.cells)
        .map(|_| FuzzCell::from_seed(sm.next_u64(), opts.run, opts.seed_bug))
        .collect();

    let queue = WorkQueue::new(cells.len());
    let results: Mutex<Vec<Option<SimError>>> = Mutex::new(vec![None; cells.len()]);
    scoped_workers(opts.jobs.min(cells.len()), |_w| {
        while let Some(i) = queue.take() {
            if let Err(e) = run_cell(&cells[i]) {
                if let Ok(mut slots) = results.lock() {
                    slots[i] = Some(e);
                }
            }
        }
    });
    let results = results.into_inner().unwrap_or_else(|p| p.into_inner());

    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    for (cell, error) in cells.iter().zip(results) {
        let Some(error) = error else { continue };
        let (shrunk, shrunk_error) = shrink(cell, &error);
        let repro_path = opts.out_dir.as_ref().and_then(|dir| {
            let fuzz_dir = dir.join("fuzz");
            if let Err(e) = std::fs::create_dir_all(&fuzz_dir) {
                eprintln!("warning: cannot create {}: {e}", fuzz_dir.display());
                return None;
            }
            let path = fuzz_dir.join(format!("repro-{:016x}.txt", cell.seed));
            let body = write_repro(&shrunk, opts.campaign_seed, &shrunk_error);
            // Pipeview sidecar: the trailing trace window rendered as a
            // pipeline picture, next to the repro it explains.
            let trace = error_trace(&shrunk_error);
            if !trace.is_empty() {
                let tpath = fuzz_dir.join(format!("repro-{:016x}.trace.txt", cell.seed));
                if let Err(e) = std::fs::write(&tpath, pipeview::render(trace)) {
                    eprintln!("warning: cannot write {}: {e}", tpath.display());
                }
            }
            match std::fs::write(&path, body) {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                    None
                }
            }
        });
        failures.push(CellFailure {
            config: cell.summary(),
            bench: format!("seeded_kernel#{:x}", cell.kernel_seed),
            cell_key: cell.cell_key(),
            fuzz_seed: Some(cell.seed),
            error: error.clone(),
        });
        outcomes.push(FuzzOutcome {
            cell: cell.clone(),
            error,
            shrunk,
            shrunk_error,
            repro_path,
        });
    }
    FuzzReport {
        campaign_seed: opts.campaign_seed,
        cells: opts.cells,
        outcomes,
        failures,
    }
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

const USAGE: &str = "usage: experiments fuzz [--seeds N] [--smoke] [--jobs N] [--out DIR] \
                     [--campaign-seed S] [--repro FILE]";

/// Entry point for the `experiments fuzz` subcommand. Returns the
/// process exit code: 0 on a clean campaign (or a reproduced repro),
/// 1 on failures (or a repro that no longer reproduces), 2 on usage or
/// parse errors.
pub fn run_cli(args: &[String]) -> i32 {
    cli::command(args, USAGE, parse_args, |(opts, repro)| match repro {
        Some(path) => run_repro_cli(&path),
        None => run_campaign_cli(&opts),
    })
}

/// The campaign options and the `--repro` file, if one was given.
fn parse_args(args: &[String]) -> Result<(FuzzOptions, Option<PathBuf>), String> {
    let mut opts = FuzzOptions {
        jobs: cli::default_jobs(),
        out_dir: Some(PathBuf::from("results")),
        ..FuzzOptions::default()
    };
    let mut repro = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--seeds" => opts.cells = args.parse("--seeds needs a cell count")?,
            "--smoke" => opts.run = 2_000,
            "--jobs" | "-j" => opts.jobs = args.jobs()?,
            "--out" => opts.out_dir = Some(args.parse("--out needs a directory")?),
            "--campaign-seed" => {
                opts.campaign_seed = args.seed("--campaign-seed needs a number")?
            }
            "--repro" => repro = Some(args.parse("--repro needs a file")?),
            other => return Err(format!("unknown fuzz flag `{other}`")),
        }
    }
    Ok((opts, repro))
}

fn run_campaign_cli(opts: &FuzzOptions) -> i32 {
    println!(
        "fuzz: {} cells × {} committed µ-ops, campaign seed {:#x}, {} jobs",
        opts.cells, opts.run, opts.campaign_seed, opts.jobs
    );
    let report = run_campaign(opts);
    if report.outcomes.is_empty() {
        println!("fuzz: {} cells clean (zero divergences)", report.cells);
        return 0;
    }
    for (f, o) in report.failures.iter().zip(&report.outcomes) {
        eprintln!("{}", f.note());
        eprintln!(
            "  shrunk to: run={} faults={} key={}",
            o.shrunk.run,
            o.shrunk.faults.windows().len(),
            o.shrunk.cell_key()
        );
        if let Some(p) = &o.repro_path {
            eprintln!("  repro written: {}", p.display());
        }
    }
    eprintln!(
        "fuzz: {}/{} cells FAILED",
        report.outcomes.len(),
        report.cells
    );
    1
}

fn run_repro_cli(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let result = match replay_repro(&text) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {}: {msg}", path.display());
            return 2;
        }
    };
    println!("repro cell: {}", result.cell.cell_key());
    match (&result.outcome, result.recorded_seq) {
        (Err(e), _) => println!("replay failed as recorded: {e}"),
        (Ok(()), _) => println!("replay ran clean"),
    }
    if let Some(seq) = result.recorded_seq {
        println!("recorded first-divergence seq: {seq}");
    }
    if result.reproduced {
        println!("REPRODUCED");
        0
    } else {
        println!("NOT reproduced");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_derivation_is_deterministic() {
        let a = FuzzCell::from_seed(0xABCD, 5_000, false);
        let b = FuzzCell::from_seed(0xABCD, 5_000, false);
        assert_eq!(a, b);
        let c = FuzzCell::from_seed(0xABCE, 5_000, false);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn generated_fault_plans_are_always_valid() {
        let mut sm = SplitMix64::new(42);
        for _ in 0..500 {
            let cell = FuzzCell::from_seed(sm.next_u64(), 1_000, false);
            assert!(
                cell.faults.validate().is_ok(),
                "cell {:#x} built an invalid plan",
                cell.seed
            );
            assert!(cell.config().is_ok());
        }
    }

    #[test]
    fn repro_roundtrips_cell_and_seq() {
        let mut cell = FuzzCell::from_seed(0x5EED, 4_000, true);
        cell.run = 1_234; // pretend the shrinker shortened it
        cell.faults = FaultPlan::new()
            .latency_spike(250, 40, 9)
            .replay_storm(404, 174);
        // Key and repro carry the `FaultPlan` text a request carries.
        let windows = "spike@250x40+9,storm@404x174";
        assert!(cell.cell_key().contains(&format!("|faults=[{windows}]|")));
        let snap = ss_types::PipelineSnapshot::default();
        let rec = ss_types::CommitRecord {
            seq: 17,
            pc: ss_types::Pc::new(0x40),
            kind: ss_types::OpClass::Load,
            dst: None,
        };
        let err = SimError::Divergence(Box::new(ss_types::DivergenceReport {
            snapshot: snap,
            seq: 17,
            expected: rec,
            actual: rec,
            recent: vec![],
            detail: String::new(),
            checkpoint: Some("warm/cell.snap".into()),
            trace: vec![],
        }));
        let text = write_repro(&cell, 0xC0FFEE, &err);
        assert!(text.contains(&format!("\nfaults {windows}\n")));
        let (back, seq) = parse_repro(&text).expect("parses");
        assert_eq!(back, cell);
        assert_eq!(seq, Some(17));
        // The shrinker's one plan mutation keeps the other window as is.
        assert_eq!(cell.faults.without_window(0).to_string(), "storm@404x174");
    }

    #[test]
    fn repro_rejects_garbage() {
        assert!(parse_repro("not a repro").is_err());
        assert!(parse_repro("ss-fuzz-repro v2\npolicy Bogus\n").is_err());
        assert!(parse_repro("ss-fuzz-repro v2\nfaults storm@404+174x8\n").is_err());
        // A version-1 file, whose fault lines this build does not read.
        assert!(parse_repro("ss-fuzz-repro v1\nfault storm 404 174 8\n").is_err());
    }
}
