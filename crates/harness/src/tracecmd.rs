//! The `experiments trace` subcommand: capture a µ-op window from one
//! (or two) configurations over a benchmark and render it through the
//! Perfetto exporter, the ASCII pipeview or the per-cycle occupancy view.
//!
//! ```text
//! experiments trace --bench NAME --config SPEC [--config SPEC2]
//!                   [--window LO..HI] [--format perfetto|pipeview|occupancy]
//!                   [--every N] [--out FILE] [--check]
//! ```
//!
//! `--window LO..HI` selects a half-open µ-op sequence window (default
//! `0..200`). With one `--config` the window renders directly; with two
//! and `--format pipeview`, both configurations run the same kernel and
//! the renderer prints a relative-cycle diff of their pipelines (the
//! fastest way to see *where* a scheduling policy wins or loses).
//!
//! `--format occupancy` prints one row per cycle (every `N`th with
//! `--every N`) from the window's first event to its last: the
//! structure occupancy of each `Occupancy` event, and the window's
//! cumulative commit, issue and replay counts, with a `<-- replay`
//! marker where replays happened since the previous row. It is the
//! quickest way to watch a replay storm or a recovery-buffer drain.
//!
//! Every capture is a [`RunRequest`] with a window trace, run through
//! the same loop as any other request (quiet skip, watchdog, invariant
//! checks). The pipeview and occupancy headers print its canonical
//! text, which `experiments run --req` accepts.
//!
//! Configuration specs use the canonical [`ConfigSpec`] grammar
//! (`Baseline_2`, `SpecSched_4_Crit`, ...); benchmarks come from the
//! registry in `ss-workloads` (`fp_compute`, `ptr_chase_big`, ...).

use crate::cli::{self, Args};
use crate::configs::ConfigSpec;
use crate::session::WORKLOAD_SEED;
use ss_core::{RunLength, RunRequest};
use ss_trace::{perfetto, pipeview, TraceEvent};
use ss_workloads::{benchmark, benchmark_names, Benchmark};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::PathBuf;

/// Output renderer selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Chrome-trace-event JSON for <https://ui.perfetto.dev>.
    Perfetto,
    /// Konata-style ASCII pipeline view (or diff, with two configs).
    Pipeview,
    /// One row of structure occupancy and cumulative counts per cycle.
    Occupancy,
}

/// Parsed command line for `experiments trace`.
#[derive(Debug)]
struct TraceArgs {
    bench: &'static Benchmark,
    configs: Vec<ConfigSpec>,
    window: Range<u64>,
    format: Format,
    /// Row sampling period of the occupancy view (`--every`).
    every: Option<u64>,
    out: Option<PathBuf>,
    check: bool,
}

const USAGE: &str = "usage: experiments trace --bench NAME --config SPEC [--config SPEC2] \
                     [--window LO..HI] [--format perfetto|pipeview|occupancy] [--every N] \
                     [--out FILE] [--check]";

fn parse_window(s: &str) -> Result<Range<u64>, String> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| format!("--window wants `LO..HI`, got `{s}`"))?;
    let lo: u64 = lo
        .parse()
        .map_err(|_| format!("--window: `{lo}` is not a µ-op sequence number"))?;
    let hi: u64 = hi
        .parse()
        .map_err(|_| format!("--window: `{hi}` is not a µ-op sequence number"))?;
    if lo >= hi {
        return Err(format!("--window: empty window {lo}..{hi}"));
    }
    Ok(lo..hi)
}

fn parse_args(args: &[String]) -> Result<TraceArgs, String> {
    let mut bench: Option<&'static Benchmark> = None;
    let mut configs: Vec<ConfigSpec> = Vec::new();
    let mut window = 0..200u64;
    let mut format = Format::Pipeview;
    let mut every = None;
    let mut out = None;
    let mut check = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--bench" => {
                let name = args.value("--bench needs a benchmark name")?;
                bench = Some(benchmark(name).ok_or_else(|| {
                    format!(
                        "unknown benchmark `{name}`; available: {}",
                        benchmark_names().join(", ")
                    )
                })?);
            }
            "--config" => {
                let spec = args.value("--config needs a configuration")?;
                configs.push(spec.parse::<ConfigSpec>().map_err(|e| e.to_string())?);
            }
            "--window" => window = parse_window(args.value("--window needs LO..HI")?)?,
            "--format" => {
                format = match args.value("--format needs perfetto|pipeview|occupancy")? {
                    "perfetto" => Format::Perfetto,
                    "pipeview" => Format::Pipeview,
                    "occupancy" => Format::Occupancy,
                    other => {
                        return Err(format!(
                            "--format wants perfetto|pipeview|occupancy, got `{other}`"
                        ))
                    }
                }
            }
            "--every" => match args.parse("--every needs a row count")? {
                0 => return Err("--every must be at least 1".to_string()),
                n => every = Some(n),
            },
            "--out" => out = Some(args.parse("--out needs a file")?),
            "--check" => check = true,
            other => return Err(format!("unknown trace flag `{other}`")),
        }
    }
    let bench = bench.ok_or("--bench is required")?;
    if configs.is_empty() {
        return Err("at least one --config is required".to_string());
    }
    if configs.len() > 2 {
        return Err("at most two --config values (the second selects diff mode)".to_string());
    }
    if configs.len() == 2 && format != Format::Pipeview {
        return Err(
            "--format perfetto|occupancy renders one configuration; diffing needs \
             --format pipeview"
                .to_string(),
        );
    }
    if every.is_some() && format != Format::Occupancy {
        return Err("--every samples occupancy rows; it needs --format occupancy".to_string());
    }
    Ok(TraceArgs {
        bench,
        configs,
        window,
        format,
        every,
        out,
        check,
    })
}

/// `--check`: self-validate the rendered document. Perfetto output must
/// pass the schema-checking JSON parser; a pipeview must contain at
/// least one µ-op row, and an occupancy view at least one cycle row.
fn check_output(format: Format, doc: &str) -> Result<(), String> {
    match format {
        Format::Perfetto => {
            let s = ss_trace::json::validate_chrome_trace(doc)
                .map_err(|e| format!("perfetto output failed schema validation: {e}"))?;
            if s.spans == 0 {
                return Err("perfetto output contains no stage spans".to_string());
            }
            eprintln!(
                "[trace check: {} spans, {} instants, {} flows, {} counters, {} metadata]",
                s.spans, s.instants, s.flows, s.counters, s.metadata
            );
        }
        Format::Pipeview => {
            if !doc.contains("u0") && !doc.lines().any(|l| l.starts_with('u')) {
                return Err("pipeview output contains no µ-op rows".to_string());
            }
        }
        Format::Occupancy => {
            if !doc
                .lines()
                .any(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            {
                return Err("occupancy output contains no cycle rows".to_string());
            }
        }
    }
    Ok(())
}

/// Runs `spec` over `bench` as a [`RunRequest`] with a window trace
/// and returns the request's canonical text and the captured events.
///
/// Committed sequence numbers are dense (flushed wrong-path µ-ops hand
/// their numbers back), so measuring until `window.end` µ-ops have
/// committed guarantees every in-window µ-op has completed its
/// lifecycle.
fn capture(
    spec: ConfigSpec,
    bench: &Benchmark,
    window: Range<u64>,
) -> Result<(String, Vec<TraceEvent>), String> {
    let req = RunRequest::bench(bench.name, WORKLOAD_SEED)
        .config(spec)
        .length(RunLength {
            warmup: 0,
            measure: window.end,
        })
        .window_trace(window);
    let text = req.to_string();
    let outcome = req.execute().map_err(|e| format!("{text}: {e}"))?;
    Ok((text, outcome.trace))
}

/// Renders the per-cycle occupancy view of a window capture: one row
/// per cycle, every `every`th, from the window's first µ-op event to
/// its last. The committed, issued and replayed columns count the
/// window's `Commit`, `Issue` and `ReplaySquash` events up to and
/// including the row's cycle.
fn render_occupancy(events: &[TraceEvent], every: u64) -> String {
    let mut counts: HashMap<u64, [u64; 3]> = HashMap::new();
    let (mut first, mut last) = (u64::MAX, 0);
    for ev in events.iter().filter(|e| e.seq().is_some()) {
        let cycle = ev.cycle().get();
        first = first.min(cycle);
        last = last.max(cycle);
        let column = match ev {
            TraceEvent::Commit { .. } => 0,
            TraceEvent::Issue { .. } => 1,
            TraceEvent::ReplaySquash { .. } => 2,
            _ => continue,
        };
        counts.entry(cycle).or_default()[column] += 1;
    }
    let mut out = String::from(
        "    cycle  rob  iq  lq  sq front recv infl  wp   committed     issued  replayed\n",
    );
    let mut total = [0u64; 3];
    let mut shown_replays = 0;
    let mut row = 0u64;
    for ev in events {
        let TraceEvent::Occupancy {
            cycle,
            rob,
            iq,
            lq,
            sq,
            frontend,
            recovery,
            inflight,
            wrong_path,
        } = *ev
        else {
            continue;
        };
        if !(first..=last).contains(&cycle.get()) {
            continue;
        }
        if let Some(n) = counts.get(&cycle.get()) {
            for (t, n) in total.iter_mut().zip(n) {
                *t += n;
            }
        }
        let sampled = row.is_multiple_of(every);
        row += 1;
        if !sampled {
            continue;
        }
        let [committed, issued, replayed] = total;
        let marker = if replayed > shown_replays {
            " <-- replay"
        } else {
            ""
        };
        shown_replays = replayed;
        let _ = writeln!(
            out,
            "{:>9} {rob:>4} {iq:>3} {lq:>3} {sq:>3} {frontend:>5} {recovery:>4} {inflight:>4} \
             {:>3}  {committed:>10} {issued:>10} {replayed:>9}{marker}",
            cycle.get(),
            if wrong_path { "y" } else { "" },
        );
    }
    out
}

fn render(args: &TraceArgs) -> Result<String, String> {
    let (req, first) = capture(args.configs[0], args.bench, args.window.clone())?;
    match (args.format, args.configs.len()) {
        (Format::Perfetto, _) => Ok(perfetto::export_chrome_trace(&first)),
        (Format::Occupancy, _) => Ok(format!(
            "# {req}\n{}",
            render_occupancy(&first, args.every.unwrap_or(1))
        )),
        (Format::Pipeview, 1) => Ok(format!("# {req}\n{}", pipeview::render(&first))),
        (Format::Pipeview, _) => {
            let (req2, second) = capture(args.configs[1], args.bench, args.window.clone())?;
            Ok(format!(
                "# {req}\n# {req2}\n{}",
                pipeview::diff(
                    &args.configs[0].to_string(),
                    &first,
                    &args.configs[1].to_string(),
                    &second,
                )
            ))
        }
    }
}

/// Entry point for `experiments trace ...`; returns the process exit
/// code.
pub fn run_cli(args: &[String]) -> i32 {
    cli::command(args, USAGE, parse_args, trace)
}

fn trace(parsed: TraceArgs) -> i32 {
    let doc = match render(&parsed) {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("trace: {msg}");
            return 1;
        }
    };
    if parsed.check {
        if let Err(msg) = check_output(parsed.format, &doc) {
            eprintln!("trace: {msg}");
            return 1;
        }
    }
    match &parsed.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("trace: cannot write {}: {e}", path.display());
                return 1;
            }
            eprintln!("[trace written to {}]", path.display());
        }
        None => print!("{doc}"),
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn window_parses_and_rejects() {
        assert_eq!(parse_window("0..200").unwrap(), 0..200);
        assert_eq!(parse_window("50..60").unwrap(), 50..60);
        assert!(parse_window("60..50").is_err());
        assert!(parse_window("5..5").is_err());
        assert!(parse_window("abc").is_err());
        assert!(parse_window("1..x").is_err());
    }

    #[test]
    fn args_require_bench_and_config() {
        assert!(parse_args(&s(&["--config", "Baseline_2"])).is_err());
        assert!(parse_args(&s(&["--bench", "fp_compute"])).is_err());
        let ok = parse_args(&s(&["--bench", "fp_compute", "--config", "Baseline_2"])).unwrap();
        assert_eq!(ok.bench.name, "fp_compute");
        assert_eq!(ok.window, 0..200);
        assert_eq!(ok.format, Format::Pipeview);
    }

    #[test]
    fn perfetto_diff_is_rejected() {
        let r = parse_args(&s(&[
            "--bench",
            "fp_compute",
            "--config",
            "Baseline_2",
            "--config",
            "SpecSched_2",
            "--format",
            "perfetto",
        ]));
        assert!(r.is_err());
    }

    #[test]
    fn unknown_bench_lists_registry() {
        let e = parse_args(&s(&["--bench", "nope", "--config", "Baseline_2"])).unwrap_err();
        assert!(e.contains("fp_compute"), "{e}");
    }

    #[test]
    fn captured_window_renders_through_both_sinks() {
        let spec: ConfigSpec = "SpecSched_2".parse().unwrap();
        let bench = benchmark("fp_compute").unwrap();
        let (req, events) = capture(spec, bench, 0..64).unwrap();
        assert_eq!(
            req,
            "src=bench:fp_compute@0xb5 cfg=SpecSched_2 len=w0m64 trace=win:0..64"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Commit { seq, .. } if seq.get() == 63)),
            "window tail must commit"
        );
        let pv = pipeview::render(&events);
        assert!(pv.contains("u63"), "{pv}");
        let json = perfetto::export_chrome_trace(&events);
        ss_trace::json::validate_chrome_trace(&json).expect("schema-valid");
    }

    #[test]
    fn diff_of_identical_configs_reports_no_differences() {
        let spec: ConfigSpec = "Baseline_0".parse().unwrap();
        let bench = benchmark("mix_int").unwrap();
        let (_, a) = capture(spec, bench, 0..32).unwrap();
        let (_, b) = capture(spec, bench, 0..32).unwrap();
        assert_eq!(a, b, "same config + kernel must capture identically");
        let d = pipeview::diff("a", &a, "b", &b);
        assert!(d.contains("0 rows differ"), "{d}");
    }

    /// The cycle rows of an occupancy view, split into columns, without
    /// the replay marker (the `wp` cell may be blank, so count the
    /// trailing counters from the right).
    fn rows(doc: &str) -> Vec<Vec<&str>> {
        doc.lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| {
                l.trim_end_matches(" <-- replay")
                    .split_whitespace()
                    .collect()
            })
            .collect()
    }

    #[test]
    fn occupancy_view_counts_the_window_and_samples_rows() {
        let spec: ConfigSpec = "SpecSched_4".parse().unwrap();
        let bench = benchmark("ptr_chase_big").unwrap();
        let (_, events) = capture(spec, bench, 100..300).unwrap();

        let all = render_occupancy(&events, 1);
        check_output(Format::Occupancy, &all).expect("has rows");
        let every = rows(&all);
        let cycles: Vec<u64> = every.iter().map(|r| r[0].parse().unwrap()).collect();
        assert!(
            cycles.windows(2).all(|w| w[1] == w[0] + 1),
            "one row per cycle"
        );
        let last = every.last().unwrap();
        assert_eq!(last[last.len() - 3], "200", "committed ends at HI - LO");
        assert!(all.contains("<-- replay"), "ptr_chase_big replays");

        let sampled = render_occupancy(&events, 7);
        let sampled = rows(&sampled);
        assert_eq!(sampled.len(), every.len().div_ceil(7));
        assert!(sampled
            .iter()
            .zip(every.iter().step_by(7))
            .all(|(a, b)| a[0] == b[0]));
    }

    #[test]
    fn occupancy_check_rejects_a_view_without_rows() {
        let empty = render_occupancy(&[], 1);
        assert!(rows(&empty).is_empty());
        assert!(check_output(Format::Occupancy, &empty).is_err());
    }
}
