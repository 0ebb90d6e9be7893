//! One run's result, its JSON line, and the results file `compare` reads.
//!
//! The last line a run prints is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--out FILE` also appends the run to a results file:
//! `{"runs":[{"workload":…,"seed":…,"trace":0|1, <the result fields>}, …]}`.

use ss_trace::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one `run` invocation reports for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        RunResult {
            workload: workload.to_string(),
            seed,
            trace,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records `n` attempts of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
        }
    }

    /// Records one failed check of the outputs, with the reason on
    /// stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("ssbench: {}: {why}", self.workload);
        self.count(1, 1);
    }

    /// The contract's result object, on one line.
    pub fn to_json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    fn to_record(&self) -> String {
        let line = self.to_json_line();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {}",
            quote(&self.workload),
            self.seed,
            u8::from(self.trace),
            &line[1..]
        )
    }

    fn from_record(v: &Json) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run record lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let mut metrics = Vec::new();
        let map = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?;
        for (name, m) in map {
            metrics.push(Metric {
                name: name.clone(),
                value: m
                    .get("value")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("metric `{name}` lacks a numeric value"))?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric `{name}` lacks a unit"))?
                    .to_string(),
            });
        }
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            trace: num("trace")? != 0.0,
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// Renders a results file holding `runs`.
fn render_file(runs: &[RunResult]) -> String {
    let body: Vec<String> = runs
        .iter()
        .map(|r| format!("  {}", r.to_record()))
        .collect();
    format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n"))
}

/// Parses a results file.
fn parse_file(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("results file lacks a `runs` array")?
        .iter()
        .map(RunResult::from_record)
        .collect()
}

/// Reads a results file.
pub fn read_file(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_file(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `run` to the results file at `path`, creating it if absent.
pub fn append_file(path: &Path, run: &RunResult) -> Result<(), String> {
    let mut runs = if path.exists() {
        read_file(path)?
    } else {
        Vec::new()
    };
    runs.push(run.clone());
    std::fs::write(path, render_file(&runs))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A JSON number with every digit of the measurement (Rust prints the
/// shortest text that reads back as the same `f64`).
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, seed: u64, wall: f64) -> RunResult {
        let mut r = RunResult::new(workload, seed, false);
        r.count(240, 0);
        r.push("wall_s", wall, "s");
        r.push("cells_per_s", 240.0 / wall, "1/s");
        r.push("odd\"name", 1e-7, "µs");
        r
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = sample("sweep_quick", 3, 19.25).to_json_line();
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num),
            Some(19.25)
        );
    }

    #[test]
    fn results_file_round_trips() {
        let mut failed = sample("serve_mix", 7, 18.123456789012345);
        failed.fail("digest mismatch");
        failed.trace = true;
        let runs = vec![sample("sweep_quick", 0xb5, 19.3), failed];
        let text = render_file(&runs);
        let back = parse_file(&text).expect("parses");
        // Metrics come back in name order; compare as sorted sets.
        for (a, b) in runs.iter().zip(&back) {
            let mut a = a.clone();
            a.metrics.sort_by(|x, y| x.name.cmp(&y.name));
            assert_eq!(&a, b);
        }
        assert!(!back[1].correct);
        assert_eq!(back[1].failed, 1);
        assert_eq!(back[1].attempted, 241);
    }

    #[test]
    fn append_creates_then_extends_the_file() {
        let path =
            std::env::temp_dir().join(format!("ssbench-results-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_file(&path, &sample("rv_oracle", 1, 13.0)).unwrap();
        append_file(&path, &sample("rv_oracle", 2, 14.0)).unwrap();
        let runs = read_file(&path).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].seed, 2);
        let _ = std::fs::remove_file(&path);
    }
}
