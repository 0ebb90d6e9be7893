//! The `experiments rvrun` subcommand: run a real RV32IM program from
//! the `ss-frontend` suite (or an ELF/flat binary on disk) through the
//! full out-of-order pipeline under a set of scheduling configurations,
//! with the commit oracle cross-checking every committed µ-op against a
//! second functional execution of the same program.
//!
//! ```text
//! experiments rvrun [--prog SPEC] [--config SPEC]... [--all] [--delay D]
//!                   [--len wNmN] [--smoke] [--no-check] [--jobs N]
//! ```
//!
//! `--prog` takes the canonical program grammar (`rv:sort@0x1`,
//! `rv:hashjoin@7`, `rv:elf:/path/to/a.out`, `rv:bin:/path@0x100`;
//! default `rv:sort@0x1`). The default configuration set is the paper's
//! headline ladder at one delay — `Baseline_D` plus the six `SpecSched_D`
//! wakeup variants; `--all` widens it to every named variant at that
//! delay ([`ConfigSpec::variants_at`]). The oracle check is **on** by
//! default (`--no-check` disables it), so a zero exit is a proof that
//! every configuration committed the exact architectural instruction
//! stream of the functional interpreter.
//!
//! Output is deterministic and byte-identical for any `--jobs` value:
//! cells execute in parallel but results print in configuration order.

use crate::cli::{self, Args};
use crate::configs::ConfigSpec;
use ss_core::{RunLength, RunOutcome, RunRequest};
use ss_frontend::ProgramSpec;
use ss_types::exec::scoped_workers;
use ss_types::{SimStats, WorkQueue};
use std::sync::Mutex;

const USAGE: &str = "usage: experiments rvrun [--prog SPEC] [--config SPEC]... [--all] \
                     [--delay D] [--len wNmN] [--smoke] [--no-check] [--jobs N]";

/// Parsed command line for `experiments rvrun`.
#[derive(Debug)]
struct RvArgs {
    prog: ProgramSpec,
    configs: Vec<ConfigSpec>,
    len: RunLength,
    check: bool,
    jobs: usize,
}

/// The default ladder: baseline plus every headline speculative-wakeup
/// policy at one delay.
fn default_configs(delay: u64) -> Vec<ConfigSpec> {
    [
        format!("Baseline_{delay}"),
        format!("SpecSched_{delay}"),
        format!("SpecSched_{delay}_Shift"),
        format!("SpecSched_{delay}_Ctr"),
        format!("SpecSched_{delay}_Filter"),
        format!("SpecSched_{delay}_Combined"),
        format!("SpecSched_{delay}_Crit"),
    ]
    .iter()
    .map(|s| s.parse().expect("default ladder names are canonical"))
    .collect()
}

fn parse_args(args: &[String]) -> Result<RvArgs, String> {
    let mut prog: Option<ProgramSpec> = None;
    let mut configs: Vec<ConfigSpec> = Vec::new();
    let mut all = false;
    let mut delay = 4u64;
    let mut len = RunLength {
        warmup: 10_000,
        measure: 100_000,
    };
    let mut check = true;
    let mut jobs = cli::default_jobs();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--prog" => prog = Some(args.value("--prog needs a program")?.parse()?),
            "--config" => {
                let spec = args.value("--config needs a configuration")?;
                configs.push(spec.parse::<ConfigSpec>().map_err(|e| e.to_string())?);
            }
            "--all" => all = true,
            "--delay" => delay = args.parse("--delay needs a cycle count")?,
            "--len" => len = args.value("--len needs wNmN")?.parse()?,
            "--smoke" => {
                len = RunLength {
                    warmup: 1_000,
                    measure: 10_000,
                }
            }
            "--no-check" => check = false,
            "--jobs" => jobs = args.jobs()?,
            other => return Err(format!("unknown rvrun flag `{other}`")),
        }
    }
    if all && !configs.is_empty() {
        return Err("--all and --config are mutually exclusive".to_string());
    }
    let configs = if all {
        ConfigSpec::variants_at(delay)
    } else if configs.is_empty() {
        default_configs(delay)
    } else {
        configs
    };
    Ok(RvArgs {
        prog: prog.unwrap_or_else(|| ProgramSpec::suite("sort", 1)),
        configs,
        len,
        check,
        jobs,
    })
}

/// Runs one configuration over the program; errors (including oracle
/// divergences) come back as strings for the report.
fn run_cell(
    prog: &ProgramSpec,
    spec: ConfigSpec,
    len: RunLength,
    check: bool,
) -> Result<RunOutcome, String> {
    RunRequest::program(prog.clone())
        .config(spec)
        .length(len)
        .checked(check)
        .execute()
        .map_err(|e| format!("{spec}: {e}"))
}

/// One formatted result row; kept as a function so the table stays
/// aligned if columns change.
fn row(spec: &ConfigSpec, s: &SimStats) -> String {
    let per_k = |n: u64| {
        if s.committed_uops == 0 {
            0.0
        } else {
            n as f64 * 1_000.0 / s.committed_uops as f64
        }
    };
    format!(
        "  {:<24} ipc {:>6.3}  repl/1k {:>7.2}  mpki {:>6.2}  committed {:>9}",
        spec.to_string(),
        s.ipc(),
        per_k(s.replayed_total()),
        per_k(s.cond_mispredicts),
        s.committed_uops,
    )
}

/// Entry point for `experiments rvrun ...`; returns the process exit
/// code (0 on success, 1 on any run error or oracle divergence, 2 on a
/// bad command line).
pub fn run_cli(args: &[String]) -> i32 {
    cli::command(args, USAGE, parse_args, rvrun)
}

fn rvrun(parsed: RvArgs) -> i32 {
    println!(
        "rvrun: {} len={} check={} configs={}",
        parsed.prog,
        parsed.len,
        if parsed.check { "on" } else { "off" },
        parsed.configs.len()
    );
    let queue = WorkQueue::new(parsed.configs.len());
    let slots: Vec<Mutex<Option<Result<RunOutcome, String>>>> =
        parsed.configs.iter().map(|_| Mutex::new(None)).collect();
    scoped_workers(parsed.jobs.min(parsed.configs.len()), |_worker| {
        while let Some(i) = queue.take() {
            let r = run_cell(&parsed.prog, parsed.configs[i], parsed.len, parsed.check);
            if let Ok(mut slot) = slots[i].lock() {
                *slot = Some(r);
            }
        }
    });
    let results: Vec<Option<Result<SimStats, String>>> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .ok()
                .flatten()
                .map(|r| r.map(|outcome| outcome.stats))
        })
        .collect();
    let mut failed = false;
    for (spec, cell) in parsed.configs.iter().zip(results) {
        match cell {
            Some(Ok(stats)) => println!("{}", row(spec, &stats)),
            Some(Err(msg)) => {
                println!("  {:<24} FAILED: {msg}", spec.to_string());
                failed = true;
            }
            None => {
                println!("  {:<24} FAILED: worker dropped the cell", spec.to_string());
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("rvrun: at least one configuration failed");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_are_the_headline_ladder() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.prog, ProgramSpec::suite("sort", 1));
        assert_eq!(a.configs.len(), 7);
        assert_eq!(a.configs[0].to_string(), "Baseline_4");
        assert_eq!(a.configs[6].to_string(), "SpecSched_4_Crit");
        assert!(a.check, "oracle check defaults on");
    }

    #[test]
    fn all_expands_to_every_variant_and_excludes_config() {
        let a = parse_args(&s(&["--all", "--delay", "2"])).unwrap();
        assert_eq!(a.configs, ConfigSpec::variants_at(2));
        assert!(parse_args(&s(&["--all", "--config", "Baseline_4"])).is_err());
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(
            parse_args(&s(&["--prog", "sort@1"])).is_err(),
            "missing rv: prefix"
        );
        assert!(parse_args(&s(&["--jobs", "0"])).is_err());
        assert!(parse_args(&s(&["--jobs", "1025"])).is_err());
        assert!(parse_args(&s(&["--len", "bogus"])).is_err());
        assert!(parse_args(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn checked_cell_runs_divergence_free() {
        let len = RunLength {
            warmup: 200,
            measure: 2_000,
        };
        let prog = ProgramSpec::suite("hashjoin", 3);
        let spec: ConfigSpec = "SpecSched_4_Combined".parse().unwrap();
        let out = run_cell(&prog, spec, len, true).expect("oracle-checked run");
        assert!(out.stats.ipc() > 0.0);
        assert!(out.stats.committed_uops >= len.measure);
        let line = row(&spec, &out.stats);
        assert!(line.contains("SpecSched_4_Combined"), "{line}");
        assert!(line.contains("ipc"), "{line}");
    }

    #[test]
    fn output_rows_are_jobs_invariant() {
        // The printing loop iterates `configs` in order reading indexed
        // slots, so ordering cannot depend on jobs; this pins the row
        // formatter itself to a stable shape.
        let out = run_cell(
            &ProgramSpec::suite("sort", 1),
            "Baseline_4".parse().unwrap(),
            RunLength {
                warmup: 100,
                measure: 1_000,
            },
            false,
        )
        .unwrap();
        let line = row(&"Baseline_4".parse().unwrap(), &out.stats);
        assert!(line.starts_with("  Baseline_4"), "{line}");
    }
}
