//! Per-cycle pipeline trace: watch the window fill, replay, and drain.
//!
//! ```text
//! trace <benchmark> [--config NAME] [--cycles N] [--skip N] [--every N]
//! ```
//!
//! Prints one line per sampled cycle with the occupancy of every pipeline
//! structure plus cumulative commit/issue/replay counters — the quickest
//! way to see a replay storm or a recovery-buffer drain in action.
//!
//! `--config` accepts every name the harness can build, via
//! [`ConfigSpec`]'s `FromStr`: `Baseline_d`, `SpecSched_d`,
//! `SpecSched_d_Shift`, `_Ctr`, `_Filter`, `_Combined`, `_Crit`, the
//! ablations (`_FilterNoSilence`, `_NoLineBuffer`, `_Bimodal`, …) and
//! extensions (`_Squash`/`_Selective`/`_Refetch`, `_ShiftPred`,
//! `_CritQold`, `_SetInterleaved`, `_Prf4x2`, …).
//!
//! For *per-µ-op* pipeline pictures (Perfetto JSON or a Konata-style
//! ASCII pipeview, including two-config diffs), use the event-level
//! tracer instead: `experiments trace --bench NAME --config SPEC
//! [--window LO..HI] [--format perfetto|pipeview]`.

use ss_core::Simulator;
use ss_harness::ConfigSpec;
use ss_workloads::{benchmark, KernelTrace};

const USAGE: &str = "usage: trace <benchmark> [--config NAME] [--cycles N] [--skip N] [--every N]";

/// Reports a bad command line and exits 2, like the `experiments` binary.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (see --help)");
    std::process::exit(2)
}

/// The value following `flag`, or a usage error when it is missing.
fn value(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// The count following `flag`, or a usage error when it is missing or
/// not a non-negative integer.
fn count(flag: &str, v: Option<String>) -> u64 {
    let v = value(flag, v);
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} expects a count, got `{v}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_name = None;
    let mut config_name = "SpecSched_4".to_string();
    let mut cycles = 200u64;
    let mut skip = 1_000u64;
    let mut every = 1u64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config_name = value("--config", it.next()),
            "--cycles" => cycles = count("--cycles", it.next()),
            "--skip" => skip = count("--skip", it.next()),
            "--every" => every = count("--every", it.next()),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => bench_name = Some(other.to_string()),
        }
    }
    if every == 0 {
        usage_error("--every must be at least 1");
    }
    let bench_name = bench_name.unwrap_or_else(|| "crafty_like".to_string());
    let Some(bench) = benchmark(&bench_name) else {
        usage_error(&format!(
            "unknown benchmark `{bench_name}`; available: {:?}",
            ss_workloads::benchmark_names()
        ));
    };
    let cfg = match config_name.parse::<ConfigSpec>() {
        Ok(spec) => spec.named(),
        Err(e) => usage_error(&format!("{e} (e.g. SpecSched_4_Crit)")),
    };

    println!("# {} on {}", bench.name, cfg.name);
    let mut sim = Simulator::new(cfg.config, KernelTrace::new((bench.build)(0xB5)));
    for _ in 0..skip {
        sim.tick();
    }
    println!(
        "{:>9} {:>4} {:>3} {:>3} {:>3} {:>5} {:>4} {:>4} {:>3}  {:>10} {:>10} {:>9}",
        "cycle",
        "rob",
        "iq",
        "lq",
        "sq",
        "front",
        "recv",
        "infl",
        "wp",
        "committed",
        "issued",
        "replayed"
    );
    let mut last = sim.snapshot();
    for i in 0..cycles {
        sim.tick();
        if i % every != 0 {
            continue;
        }
        let s = sim.snapshot();
        let marker = if s.replayed > last.replayed {
            " <-- replay"
        } else {
            ""
        };
        println!(
            "{:>9} {:>4} {:>3} {:>3} {:>3} {:>5} {:>4} {:>4} {:>3}  {:>10} {:>10} {:>9}{}",
            s.cycle.get(),
            s.rob,
            s.iq,
            s.lq,
            s.sq,
            s.frontend,
            s.recovery,
            s.inflight,
            if s.wrong_path { "y" } else { "" },
            s.committed,
            s.issued,
            s.replayed,
            marker,
        );
        last = s;
    }
    let stats = sim.stats();
    println!("\nIPC so far: {:.3}", stats.ipc());
}
