//! `ssbench`: the benchmark of record for the speculative-scheduling
//! simulator.
//!
//! ```text
//! ssbench run --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ssbench bless
//! ssbench compare A.json B.json
//! ```
//!
//! `run` builds `experiments` from the checkout, measures one workload
//! and prints every metric by name and unit; its last stdout line is the
//! result object. With `--trace 1` it runs the traced per-layer pass
//! instead. `bless` records digests of the default seed's outputs;
//! `compare` sets two results files side by side. See README.md.

mod child;
mod compare;
mod digest;
mod layers;
mod mix;
mod results;
mod spans;
mod stats;
mod workloads;

use results::RunResult;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{Ctx, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: ssbench run --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
                     \x20      ssbench bless\n\
                     \x20      ssbench compare A.json B.json";

/// How long one workload's run may take once the build is done.
const RUN_LIMIT: Duration = Duration::from_secs(175);

/// This package's directory, and the checkout root above it.
fn pkg_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn root_dir() -> PathBuf {
    pkg_dir()
        .parent()
        .expect("the package sits inside the checkout")
        .to_path_buf()
}

struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                a.workloads = if w == "all" {
                    WORKLOADS.iter().map(|s| s.to_string()).collect()
                } else if WORKLOADS.contains(&w.as_str()) {
                    vec![w.clone()]
                } else {
                    return Err(format!(
                        "unknown workload `{w}` (have {WORKLOADS:?} or all)"
                    ));
                };
            }
            "--seed" => {
                let v = value()?;
                a.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("--seed wants an integer, got `{v}`"))?;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Kills the children and ends the process if a run overstays.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("ssbench: run exceeded {} s; stopping", limit.as_secs());
        child::kill_all();
        std::process::exit(1);
    });
}

fn context(seed: u64, seconds: f64) -> Result<Ctx, String> {
    let root = root_dir();
    let exp = child::build_experiments(&root)?;
    let work = root
        .join(".ssbench")
        .join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Ctx {
        exp,
        work,
        seed,
        seconds,
        expected: digest::Digests::load(&pkg_dir()),
    })
}

fn print_result(res: &RunResult) {
    for m in &res.metrics {
        println!(
            "{} {:<30} {:>16.6} {}",
            res.workload, m.name, m.value, m.unit
        );
    }
    println!(
        "{} correct={} attempted={} failed={}",
        res.workload, res.correct, res.attempted, res.failed
    );
    println!("{}", res.to_json_line());
}

fn cmd_run(args: &[String]) -> i32 {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let ctx = match context(a.seed, a.seconds) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ssbench: {e}");
            return 1;
        }
    };
    watchdog(RUN_LIMIT * a.workloads.len() as u32);
    let mut code = 0;
    for w in &a.workloads {
        // Each workload starts from an empty directory of its own.
        let ctx = Ctx {
            work: ctx.work.join(w),
            ..ctx.clone()
        };
        let mut res = RunResult::new(w, a.seed, a.trace);
        let outcome = std::fs::create_dir_all(&ctx.work)
            .map_err(|e| format!("{}: {e}", ctx.work.display()))
            .and_then(|()| {
                if a.trace {
                    let spans = root_dir()
                        .join(".ssbench")
                        .join(format!("spans-{w}-{}.json", a.seed));
                    layers::run(&ctx, &mut res, &spans)
                } else {
                    workloads::run(&ctx, w, &mut res)
                }
            });
        let _ = std::fs::remove_dir_all(&ctx.work);
        if let Err(e) = outcome {
            eprintln!("ssbench: {w}: {e}");
            code = 1;
            break;
        }
        if let Some(out) = &a.out {
            if let Err(e) = results::append_file(out, &res) {
                eprintln!("ssbench: {e}");
                code = 1;
            }
        }
        print_result(&res);
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    code
}

/// Runs each workload's outputs at the default seed and records their
/// digests as the expected results.
fn cmd_bless() -> i32 {
    let bless = || -> Result<digest::Digests, String> {
        let ctx = context(DEFAULT_SEED, 1.0)?;
        let mut d = digest::Digests::default();
        let mut record = |workload: &str, dir: &Path| {
            for (name, sum) in digest::csv_digests(dir) {
                d.0.insert(format!("{workload}/{name}"), sum);
            }
        };
        let quick = ctx.work.join("quick");
        let ckpt = ctx.work.join("ckpt");
        for (workload, args, out) in [
            (
                "sweep_quick",
                workloads::sweep_quick_args(&quick),
                quick.clone(),
            ),
            (
                "sweep_ckpt",
                workloads::sweep_ckpt_args(&ckpt),
                ckpt.join("out"),
            ),
        ] {
            let run = child::run_cli(&ctx.exp, &args, &ctx.work)?;
            if !run.ok() {
                return Err(format!("{workload}: {}", run.stderr));
            }
            record(workload, &out);
        }
        for prog in workloads::PROGRAMS {
            let spec = workloads::rv_spec(prog, DEFAULT_SEED);
            let args = workloads::rvrun_args(&spec, workloads::RV_LEN);
            let run = child::run_cli(&ctx.exp, &args, &ctx.work)?;
            if !run.ok() {
                return Err(format!("{spec}: {}", run.stderr));
            }
            d.0.insert(
                format!("rv_oracle/{spec}"),
                digest::digest(run.stdout.as_bytes()),
            );
        }
        let _ = std::fs::remove_dir_all(&ctx.work);
        Ok(d)
    };
    match bless().and_then(|d| {
        d.save(&pkg_dir()).map_err(|e| e.to_string())?;
        Ok(d)
    }) {
        Ok(d) => {
            println!(
                "blessed {} digests into {}",
                d.0.len(),
                digest::Digests::path(&pkg_dir()).display()
            );
            0
        }
        Err(e) => {
            eprintln!("ssbench bless: {e}");
            1
        }
    }
}

fn cmd_compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let loaded = (|| {
        let spec = compare::load_spec(&root_dir().join("BENCHMARK.json"))?;
        Ok::<_, String>((
            spec,
            results::read_file(Path::new(a))?,
            results::read_file(Path::new(b))?,
        ))
    })();
    match loaded {
        Ok(((e2e, layers), ra, rb)) => {
            let (table, worse) = compare::compare(&ra, &rb, &e2e, &layers);
            print!("{table}");
            i32::from(worse > 0)
        }
        Err(e) => {
            eprintln!("ssbench compare: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bless") => cmd_bless(),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    child::kill_all();
    std::process::exit(code);
}
