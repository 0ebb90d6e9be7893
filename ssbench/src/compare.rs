//! `ssbench compare A.json B.json`: per (metric, workload), both sides'
//! medians and quartiles and a verdict from the `BENCHMARK.json` bounds.

use crate::results::RunResult;
use crate::stats::quartiles;
use ss_trace::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of A's median B may lose; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric declarations.
pub fn load_spec(path: &Path) -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                Ok(MetricSpec {
                    name: s("name"),
                    unit: s("unit"),
                    lower_is_better: s("better") == "lower",
                    bound: m.get("bound").and_then(Json::as_num),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Agree,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// One side's quartile spread is wider than the bound, so the
    /// medians cannot be told apart at this bound.
    Unresolved,
}

/// Relative spread: interquartile distance over the median.
fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, m, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        Some(_) => 0.0,
        None => f64::INFINITY,
    }
}

/// The change from A's median to B's, as a share of A's, signed so a
/// positive value is worse.
fn worsening(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = match (quartiles(a), quartiles(b)) {
        (Some((_, ma, _)), Some((_, mb, _))) => (ma, mb),
        _ => return 0.0,
    };
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worsening(a, b, lower_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Agree
    }
}

fn values(runs: &[RunResult], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .flat_map(|r| r.metrics.iter().filter(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

fn cell(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        None => "-".into(),
    }
}

/// The comparison table, and how many rows came out `worse`.
pub fn compare(
    a: &[RunResult],
    b: &[RunResult],
    e2e: &[MetricSpec],
    layers: &[MetricSpec],
) -> (String, usize) {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<12} {:<36} {:<44} {:<44} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for w in &workloads {
        for (specs, trace) in [(e2e, false), (layers, true)] {
            for m in specs {
                let (va, vb) = (values(a, w, trace, &m.name), values(b, w, trace, &m.name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let v = m
                    .bound
                    .map(|bound| verdict(&va, &vb, m.lower_is_better, bound));
                worse += usize::from(v == Some(Verdict::Worse));
                let _ = writeln!(
                    out,
                    "{:<12} {:<36} {:<44} {:<44} {:>+7.1}%  {}",
                    w,
                    format!("{} ({})", m.name, m.unit),
                    cell(&va),
                    cell(&vb),
                    100.0 * worsening(&va, &vb, m.lower_is_better),
                    match v {
                        Some(Verdict::Agree) => "agree",
                        Some(Verdict::Worse) => "WORSE",
                        Some(Verdict::Unresolved) => "unresolved",
                        None => "-",
                    }
                );
            }
        }
        let failed = |runs: &[RunResult]| {
            let (f, n) = runs
                .iter()
                .filter(|r| r.workload == *w)
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            (f as f64 / n.max(1) as f64, f)
        };
        let ((fa, na), (fb, nb)) = (failed(a), failed(b));
        let more_failures = fb > fa;
        worse += usize::from(more_failures);
        let _ = writeln!(
            out,
            "{:<12} {:<36} {:<44} {:<44} {:>8}  {}",
            w,
            "failed_frac",
            format!("{fa:.6} ({na} failed)"),
            format!("{fb:.6} ({nb} failed)"),
            "",
            if more_failures { "WORSE" } else { "agree" }
        );
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // 5% slower, bound 10%: agree.
        assert_eq!(
            verdict(&a, &a.map(|x| x * 1.05), true, 0.10),
            Verdict::Agree
        );
        // 20% slower: worse.
        assert_eq!(verdict(&a, &a.map(|x| x * 1.2), true, 0.10), Verdict::Worse);
        // 20% faster is never worse.
        assert_eq!(verdict(&a, &a.map(|x| x * 0.8), true, 0.10), Verdict::Agree);
        // For a higher-is-better metric the same drop is worse.
        assert_eq!(
            verdict(&a, &a.map(|x| x * 0.8), false, 0.10),
            Verdict::Worse
        );
        // A side whose quartiles spread wider than the bound: unresolved.
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&a, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &a, true, 0.10), Verdict::Unresolved);
        assert!((worsening(&a, &a.map(|x| x * 1.2), true) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn compare_reports_each_workload_and_counts_regressions() {
        let spec = vec![MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.1),
        }];
        let run = |w: &str, wall: f64, failed: u64| {
            let mut r = RunResult::new(w, 1, false);
            r.count(10, failed);
            r.push("wall_s", wall, "s");
            r
        };
        let a: Vec<_> = (0..3)
            .map(|i| run("sweep_quick", 20.0 + 0.1 * i as f64, 0))
            .collect();
        let b: Vec<_> = (0..3)
            .map(|i| run("sweep_quick", 30.0 + 0.1 * i as f64, 0))
            .collect();
        let (table, worse) = compare(&a, &b, &spec, &[]);
        assert_eq!(worse, 1, "{table}");
        assert!(table.contains("WORSE"));
        let (_, same) = compare(&a, &a, &spec, &[]);
        assert_eq!(same, 0);
        let failing: Vec<_> = (0..3)
            .map(|i| run("sweep_quick", 20.0 + 0.1 * i as f64, 1))
            .collect();
        let (table, worse) = compare(&a, &failing, &spec, &[]);
        assert_eq!(worse, 1, "{table}");
    }
}
