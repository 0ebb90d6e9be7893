//! The `experiments bench` subcommand: a fixed scheduler-throughput
//! micro-benchmark grid comparing the event-driven ready queue against
//! the legacy per-cycle O(ROB) scan.
//!
//! ```text
//! experiments bench [--out FILE] [--smoke] [--baseline FILE]
//!                   [--max-regress PCT] [--only SUBSTRING]
//! ```
//!
//! Each cell runs one kernel on one machine shape under **both**
//! scheduler implementations and records simulated-cycles-per-second of
//! wall time, wall time, and the process peak RSS. Results land as JSON
//! (`BENCH_sched.json` by default; schema documented in EXPERIMENTS.md).
//! With `--baseline FILE`, the run fails (exit 1) if any cell's
//! event/legacy speedup ratio regressed more than `--max-regress`
//! percent (default 20) against the committed baseline — the ratio, not
//! absolute throughput, so the gate is stable across host machines. A
//! *missing* baseline file skips the gate with exit 0 (a fresh branch
//! has nothing to regress against); only a present-but-unreadable
//! baseline is an error.

use ss_core::{RunLength, RunRequest};
use ss_frontend::{ProgramSpec, RvTraceSource};
use ss_types::SimConfig;
use ss_workloads::kernels;
use ss_workloads::TraceSource as _;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One (kernel × machine shape) grid point.
struct Cell {
    name: &'static str,
    kernel: &'static str,
    rob: u32,
    iq: u32,
}

/// The fixed grid: the paper machine (ROB 192) and a doubled window
/// (ROB 384), on a dependency-chained and a mixed-integer kernel — the
/// two shapes where per-cycle scan cost dominates — plus a streaming
/// memory-bound kernel as a low-IQ-occupancy control.
const GRID: &[Cell] = &[
    Cell {
        name: "dep_chain_l2_rob192",
        kernel: "dep_chain_l2",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "mix_int_rob192",
        kernel: "mix_int",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "stream_all_miss_rob192",
        kernel: "stream_all_miss",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "dep_chain_l2_rob384",
        kernel: "dep_chain_l2",
        rob: 384,
        iq: 120,
    },
    Cell {
        name: "mix_int_rob384",
        kernel: "mix_int",
        rob: 384,
        iq: 120,
    },
];

/// Measured numbers for one scheduler on one cell.
struct Sample {
    sim_cycles: u64,
    wall_ms: f64,
    cycles_per_sec: f64,
    peak_rss_kb: u64,
}

/// A completed cell: both schedulers plus the ratio the CI gate watches.
struct CellResult {
    name: &'static str,
    kernel: &'static str,
    rob: u32,
    event: Sample,
    legacy: Sample,
    speedup: f64,
}

fn kernel_spec(name: &str) -> ss_workloads::KernelSpec {
    match name {
        "dep_chain_l2" => kernels::dep_chain_l2(1),
        "mix_int" => kernels::mix_int(1),
        "stream_all_miss" => kernels::stream_all_miss(1),
        other => panic!("bench grid names unknown kernel {other}"),
    }
}

/// Process peak RSS in kB from `/proc/self/status` (`VmHWM`); 0 where
/// procfs is unavailable (non-Linux hosts still produce a valid report).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Short git revision of the working tree, or `unknown` outside a repo.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DD` (UTC) from a unix timestamp — civil-from-days, so the
/// harness needs no date dependency.
fn civil_date(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn cell_config(cell: &Cell, legacy: bool) -> SimConfig {
    SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(ss_types::SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .rob_entries(cell.rob)
        .iq_entries(cell.iq)
        .legacy_scan(legacy)
        .build()
}

fn run_one(cell: &Cell, legacy: bool, len: RunLength) -> Result<Sample, String> {
    let cfg = cell_config(cell, legacy);
    let start = Instant::now();
    let stats = RunRequest::kernel(kernel_spec(cell.kernel))
        .custom_config(cfg)
        .length(len)
        .execute()
        .map(|o| o.stats)
        .map_err(|e| format!("{}: run failed: {e}", cell.name))?;
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1_000.0;
    Ok(Sample {
        sim_cycles: stats.cycles,
        wall_ms,
        cycles_per_sec: stats.cycles as f64 / wall.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Measured decode+crack throughput of the RV32IM frontend on its own
/// (no pipeline attached): µ-ops emitted per second of wall time.
struct FrontendSample {
    uops: u64,
    wall_ms: f64,
    uops_per_sec: f64,
}

/// Pulls `uops` µ-ops out of a fresh [`RvTraceSource`] over the suite's
/// `sort` program — pure interpret+crack cost, the frontend-side ceiling
/// on real-program simulation speed.
fn run_frontend(uops: u64) -> Result<FrontendSample, String> {
    let prog = ProgramSpec::suite("sort", 1).resolve()?;
    let mut src = RvTraceSource::new(prog);
    let start = Instant::now();
    for _ in 0..uops {
        let u = src.next_uop();
        std::hint::black_box(&u);
    }
    let wall = start.elapsed();
    Ok(FrontendSample {
        uops,
        wall_ms: wall.as_secs_f64() * 1_000.0,
        uops_per_sec: uops as f64 / wall.as_secs_f64().max(1e-9),
    })
}

fn frontend_json(s: &FrontendSample) -> String {
    format!(
        "{{\"program\": \"rv:sort@0x1\", \"uops\": {}, \"wall_ms\": {:.3}, \"uops_per_sec\": {:.1}}}",
        s.uops, s.wall_ms, s.uops_per_sec
    )
}

fn sample_json(s: &Sample) -> String {
    format!(
        "{{\"sim_cycles\": {}, \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}, \"peak_rss_kb\": {}}}",
        s.sim_cycles, s.wall_ms, s.cycles_per_sec, s.peak_rss_kb
    )
}

/// Renders the full report document (schema `bench_sched/v1`; the
/// `frontend` key is additive — gating reads `cells` only).
fn report_json(results: &[CellResult], frontend: &FrontendSample, len: RunLength) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"bench_sched/v1\",");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(out, "  \"date\": \"{}\",", civil_date(unix));
    let _ = writeln!(out, "  \"unix_time\": {unix},");
    let _ = writeln!(out, "  \"warmup\": {},", len.warmup);
    let _ = writeln!(out, "  \"measure\": {},", len.measure);
    let _ = writeln!(out, "  \"frontend\": {},", frontend_json(frontend));
    let _ = writeln!(out, "  \"cells\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"kernel\": \"{}\",", r.kernel);
        let _ = writeln!(out, "      \"rob\": {},", r.rob);
        let _ = writeln!(out, "      \"event\": {},", sample_json(&r.event));
        let _ = writeln!(out, "      \"legacy\": {},", sample_json(&r.legacy));
        let _ = writeln!(out, "      \"speedup\": {:.3}", r.speedup);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Reads `name → speedup` pairs out of a committed baseline document.
fn baseline_speedups(path: &PathBuf) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = ss_trace::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let cells = doc
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or_else(|| format!("{}: no `cells` array", path.display()))?;
    let mut out = Vec::new();
    for c in cells {
        let name = c
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("cell without name")?
            .to_string();
        let speedup = c
            .get("speedup")
            .and_then(|s| s.as_num())
            .ok_or("cell without speedup")?;
        out.push((name, speedup));
    }
    Ok(out)
}

/// Entry point for `experiments bench`; returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut out_path = PathBuf::from("BENCH_sched.json");
    let mut baseline: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut max_regress_pct = 20.0f64;
    let mut len = RunLength {
        warmup: 20_000,
        measure: 400_000,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(v) => out_path = PathBuf::from(v),
                None => {
                    eprintln!("error: --out needs a file");
                    return 2;
                }
            },
            "--baseline" => match it.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: --baseline needs a file");
                    return 2;
                }
            },
            "--only" => match it.next() {
                Some(v) => only = Some(v.clone()),
                None => {
                    eprintln!("error: --only needs a cell-name substring");
                    return 2;
                }
            },
            "--max-regress" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_regress_pct = v,
                None => {
                    eprintln!("error: --max-regress needs a percentage");
                    return 2;
                }
            },
            "--smoke" => {
                // CI-sized: enough committed work for stable ratios,
                // small enough for a PR gate.
                len = RunLength {
                    warmup: 5_000,
                    measure: 60_000,
                }
            }
            other => {
                eprintln!("error: unknown bench option `{other}`");
                eprintln!(
                    "usage: experiments bench [--out FILE] [--smoke] [--baseline FILE] \
                     [--max-regress PCT] [--only SUBSTRING]"
                );
                return 2;
            }
        }
    }

    let cells: Vec<&Cell> = GRID
        .iter()
        .filter(|c| only.as_deref().is_none_or(|o| c.name.contains(o)))
        .collect();
    println!(
        "bench: {} cells × {} committed µ-ops (warmup {})",
        cells.len(),
        len.measure,
        len.warmup
    );
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        // Best-of-3, interleaved: wall-clock noise on a shared host hits
        // both schedulers alike, and the fastest repetition of each is
        // the least-perturbed measurement.
        let mut best: [Option<Sample>; 2] = [None, None];
        for _rep in 0..3 {
            for (slot, legacy) in [(0usize, false), (1, true)] {
                let s = match run_one(cell, legacy, len) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                };
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| s.cycles_per_sec > b.cycles_per_sec)
                {
                    best[slot] = Some(s);
                }
            }
        }
        let [Some(event), Some(legacy)] = best else {
            unreachable!("three reps filled both slots")
        };
        let speedup = event.cycles_per_sec / legacy.cycles_per_sec.max(1e-9);
        println!(
            "  {:<24} event {:>10.0} c/s  legacy {:>10.0} c/s  speedup {:.2}x",
            cell.name, event.cycles_per_sec, legacy.cycles_per_sec, speedup
        );
        results.push(CellResult {
            name: cell.name,
            kernel: cell.kernel,
            rob: cell.rob,
            event,
            legacy,
            speedup,
        });
    }

    // Frontend decode+crack throughput: best-of-3, same noise logic as
    // the scheduler cells.
    let mut frontend: Option<FrontendSample> = None;
    for _rep in 0..3 {
        let s = match run_frontend(len.measure) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: frontend bench: {e}");
                return 1;
            }
        };
        if frontend
            .as_ref()
            .is_none_or(|b| s.uops_per_sec > b.uops_per_sec)
        {
            frontend = Some(s);
        }
    }
    let Some(frontend) = frontend else {
        unreachable!("three reps filled the frontend slot")
    };
    println!(
        "  {:<24} decode+crack {:>10.0} µops/s ({} µops)",
        "frontend_rv_sort", frontend.uops_per_sec, frontend.uops
    );

    let doc = report_json(&results, &frontend, len);
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("error: writing {}: {e}", out_path.display());
        return 1;
    }
    println!("bench: wrote {}", out_path.display());

    if let Some(base_path) = baseline {
        // A missing baseline is not a failure: first runs on a fresh
        // branch (or a CI job before the baseline is committed) have
        // nothing to gate against. Only a present-but-unreadable baseline
        // fails the run.
        if !base_path.exists() {
            println!(
                "bench: no baseline at {} — gate skipped (commit one to enable regression gating)",
                base_path.display()
            );
            return 0;
        }
        let base = match baseline_speedups(&base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: baseline: {e}");
                return 1;
            }
        };
        let mut failed = false;
        for (name, base_speedup) in base {
            let Some(r) = results.iter().find(|r| r.name == name) else {
                eprintln!("warn: baseline cell `{name}` not in current grid; skipped");
                continue;
            };
            // Gate on the event/legacy ratio: machine-speed independent.
            let floor = base_speedup * (1.0 - max_regress_pct / 100.0);
            if r.speedup < floor {
                eprintln!(
                    "FAIL: {name}: speedup {:.2}x fell below {floor:.2}x \
                     (baseline {base_speedup:.2}x − {max_regress_pct}%)",
                    r.speedup
                );
                failed = true;
            }
        }
        if failed {
            return 1;
        }
        println!(
            "bench: all cells within {max_regress_pct}% of baseline {}",
            base_path.display()
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_round_trips_known_epochs() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_785_974_400), "2026-08-06");
    }

    #[test]
    fn report_json_parses_and_carries_the_gate_fields() {
        let results = vec![CellResult {
            name: "dep_chain_l2_rob192",
            kernel: "dep_chain_l2",
            rob: 192,
            event: Sample {
                sim_cycles: 1_000,
                wall_ms: 2.0,
                cycles_per_sec: 500_000.0,
                peak_rss_kb: 4_096,
            },
            legacy: Sample {
                sim_cycles: 1_000,
                wall_ms: 4.0,
                cycles_per_sec: 250_000.0,
                peak_rss_kb: 4_096,
            },
            speedup: 2.0,
        }];
        let frontend = FrontendSample {
            uops: 10_000,
            wall_ms: 5.0,
            uops_per_sec: 2_000_000.0,
        };
        let doc = report_json(
            &results,
            &frontend,
            RunLength {
                warmup: 1,
                measure: 2,
            },
        );
        let parsed = ss_trace::json::parse(&doc).expect("self-emitted JSON parses");
        let cells = parsed.get("cells").and_then(|c| c.as_arr()).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("speedup").and_then(|s| s.as_num()),
            Some(2.0),
            "the CI gate reads this field"
        );
        assert_eq!(
            cells[0]
                .get("event")
                .and_then(|e| e.get("cycles_per_sec"))
                .and_then(|v| v.as_num()),
            Some(500_000.0)
        );
        assert!(parsed.get("schema").and_then(|s| s.as_str()) == Some("bench_sched/v1"));
        let fe = parsed.get("frontend").expect("frontend row present");
        assert_eq!(
            fe.get("program").and_then(|p| p.as_str()),
            Some("rv:sort@0x1")
        );
        assert_eq!(
            fe.get("uops_per_sec").and_then(|v| v.as_num()),
            Some(2_000_000.0)
        );
    }

    #[test]
    fn frontend_bench_emits_real_uops() {
        let s = run_frontend(5_000).expect("suite program resolves");
        assert_eq!(s.uops, 5_000);
        assert!(s.uops_per_sec > 0.0);
    }

    #[test]
    fn baseline_gate_reads_speedups() {
        let dir = std::env::temp_dir().join("ss_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        std::fs::write(
            &path,
            "{\"schema\": \"bench_sched/v1\", \"cells\": [\
             {\"name\": \"a\", \"speedup\": 1.5}, {\"name\": \"b\", \"speedup\": 2.25}]}",
        )
        .unwrap();
        let base = baseline_speedups(&path).unwrap();
        assert_eq!(base.len(), 2);
        assert_eq!(base[0], ("a".to_string(), 1.5));
        assert_eq!(base[1], ("b".to_string(), 2.25));
        let _ = std::fs::remove_file(&path);
    }
}
