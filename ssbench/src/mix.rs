//! The `serve_mix` traffic: seeded request texts, and a closed-loop
//! client that plays them against a live server.

use crate::child::Conn;
use ss_core::{RunLength, RunRequest};
use ss_types::{ConfigSpec, Xoshiro256};
use ss_workloads::BENCHMARKS;
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Requests in one timed mix: enough that p99 has 24 samples beyond it.
pub const MIX_REQUESTS: usize = 2400;
/// Connections, and requests each keeps outstanding.
const CONNECTIONS: usize = 2;
const OUTSTANDING: usize = 4;

/// The run length of the served grid cells (`--smoke`).
pub const SMOKE: RunLength = RunLength {
    warmup: 1_000,
    measure: 10_000,
};

/// The six delay-4 machines fresh requests ask for.
const CONFIGS: [&str; 6] = [
    "Baseline_4",
    "SpecSched_4",
    "SpecSched_4_Shift",
    "SpecSched_4_Filter",
    "SpecSched_4_Combined",
    "SpecSched_4_Crit",
];

const PROGRAMS: [&str; 4] = ["sort", "hashjoin", "alloc", "lz"];

/// Canonical request texts of the `fig4 fig5 fig8 --smoke` cells a
/// checkpoint preload serves: every standard grid cell at the sweep's
/// workload seed.
pub fn grid_cells() -> Vec<String> {
    let mut cells = Vec::new();
    for id in ["fig4", "fig5", "fig8"] {
        let plan = ss_harness::experiments::find(id).expect("paper figure registered");
        for cfg in (plan.plan)() {
            for b in &BENCHMARKS {
                let text = RunRequest::bench(b.name, ss_harness::session::WORKLOAD_SEED)
                    .config(cfg.spec)
                    .length(SMOKE)
                    .to_string();
                if !cells.contains(&text) {
                    cells.push(text);
                }
            }
        }
    }
    cells
}

/// The seeded request sequence: about 55% fresh short kernel cells, 15%
/// fresh oracle-checked `rv:` cells, 25% repeats of an earlier request
/// and 5% grid cells the checkpoint preload already holds. The same
/// seed gives the same texts.
pub fn generate(seed: u64, n: usize, grid: &[String]) -> Vec<String> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5E2E_A11C);
    // Fresh sources get seeds no other request in the mix uses; the high
    // bit keeps them clear of the sweep's workload seed.
    let base = rng.next_u64() >> 24 | 1 << 40;
    let mut texts: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        let cfg: ConfigSpec = CONFIGS[rng.next_below(CONFIGS.len() as u64) as usize]
            .parse()
            .expect("canonical config name");
        let roll = rng.percent();
        let text = if roll < 5 && !grid.is_empty() {
            grid[rng.next_below(grid.len() as u64) as usize].clone()
        } else if roll < 30 && i > 0 {
            texts[rng.next_below(i as u64) as usize].clone()
        } else if roll < 45 {
            let prog = PROGRAMS[rng.next_below(PROGRAMS.len() as u64) as usize];
            format!(
                "src=rv:{prog}@{:#x} cfg={cfg} len=w2000m20000 check=1",
                (base as u32).wrapping_add(i as u32)
            )
        } else {
            let bench = BENCHMARKS[rng.next_below(BENCHMARKS.len() as u64) as usize].name;
            RunRequest::bench(bench, base + i as u64)
                .config(cfg)
                .length(SMOKE)
                .to_string()
        };
        texts.push(text);
    }
    texts
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Seconds from the start of the mix.
    pub sent: f64,
    pub acked: Option<f64>,
    pub done: Option<f64>,
    /// The `ack` said `cached`.
    pub cached: bool,
    /// The `done` payload, or the `err`/`overloaded` line.
    pub payload: Result<String, String>,
}

impl Default for Reply {
    fn default() -> Self {
        Reply {
            sent: 0.0,
            acked: None,
            done: None,
            cached: false,
            payload: Err("no reply".into()),
        }
    }
}

impl Reply {
    /// Send → terminal reply, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.sent) * 1e3)
    }
}

/// Plays `texts` against the server at `socket`: [`CONNECTIONS`]
/// connections, each keeping [`OUTSTANDING`] requests in flight and
/// sending the next only when one finishes (a closed loop).
/// `at_half` runs once when half the requests have been sent.
pub fn play(
    socket: &Path,
    texts: &[String],
    at_half: impl Fn() + Sync,
) -> Result<(Vec<Reply>, f64), String> {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<Reply>> = Mutex::new(vec![Reply::default(); texts.len()]);
    let half = texts.len() / 2;
    let conn_result = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
                    let mut conn = Conn::new(stream)?;
                    let mut inflight = 0usize;
                    let send_next = |conn: &mut Conn| -> Result<bool, String> {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= texts.len() {
                            return Ok(false);
                        }
                        if i == half {
                            at_half();
                        }
                        let sent = origin.elapsed().as_secs_f64();
                        replies.lock().expect("replies lock")[i].sent = sent;
                        conn.send(&format!("run {i} {}", texts[i]))?;
                        Ok(true)
                    };
                    for _ in 0..OUTSTANDING {
                        if send_next(&mut conn)? {
                            inflight += 1;
                        }
                    }
                    while inflight > 0 {
                        let line = conn.recv()?;
                        let now = origin.elapsed().as_secs_f64();
                        let mut parts = line.splitn(3, ' ');
                        let verb = parts.next().unwrap_or("");
                        let id = parts.next().unwrap_or("");
                        let rest = parts.next().unwrap_or("");
                        if verb == "progress" {
                            continue;
                        }
                        let i: usize = id
                            .parse()
                            .map_err(|_| format!("unexpected server line `{line}`"))?;
                        let mut all = replies.lock().expect("replies lock");
                        let r = all
                            .get_mut(i)
                            .ok_or_else(|| format!("reply for unknown id in `{line}`"))?;
                        match verb {
                            "ack" => {
                                r.acked = Some(now);
                                r.cached = rest == "cached";
                            }
                            "done" | "err" | "overloaded" => {
                                r.done = Some(now);
                                r.payload = if verb == "done" {
                                    Ok(rest.to_string())
                                } else {
                                    Err(line.clone())
                                };
                                drop(all);
                                inflight -= 1;
                                if send_next(&mut conn)? {
                                    inflight += 1;
                                }
                            }
                            _ => return Err(format!("unexpected server line `{line}`")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Result<Vec<()>, String>>()
    });
    conn_result?;
    let replies = replies.into_inner().expect("replies lock");
    let end = replies.iter().filter_map(|r| r.done).fold(0.0, f64::max);
    let start = replies.iter().map(|r| r.sent).fold(f64::INFINITY, f64::min);
    Ok((replies, end - start))
}

/// Checks the answers: every request got a `done`, and every repeat of
/// a text got the bytes of its first answer. Returns the failure count
/// and the first answer per distinct text.
pub fn check_replies<'a>(
    texts: &'a [String],
    replies: &[Reply],
) -> (u64, HashMap<&'a str, String>) {
    let mut failed = 0;
    let mut first: HashMap<&str, String> = HashMap::new();
    for (text, r) in texts.iter().zip(replies) {
        match &r.payload {
            Ok(p) => match first.get(text.as_str()) {
                Some(seen) if seen != p => {
                    eprintln!("ssbench: serve_mix: repeat of `{text}` answered differently");
                    failed += 1;
                }
                Some(_) => {}
                None => {
                    first.insert(text, p.clone());
                }
            },
            Err(line) => {
                eprintln!("ssbench: serve_mix: `{text}` failed: {line}");
                failed += 1;
            }
        }
    }
    (failed, first)
}

/// A seeded sample of about `share_pct`% of the distinct texts, in
/// first-seen order.
pub fn sample(texts: &[String], share_pct: u64, seed: u64) -> Vec<&str> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC4EC_0001);
    let mut seen = std::collections::HashSet::new();
    texts
        .iter()
        .map(String::as_str)
        .filter(|t| seen.insert(*t))
        .filter(|_| rng.next_below(100) < share_pct)
        .collect()
}

/// The reference answer: the request executed in this process, encoded
/// the way the server encodes `done`.
pub fn execute_wire(text: &str) -> Result<String, String> {
    let req: RunRequest = text.parse().map_err(|e| format!("{e}"))?;
    let outcome = req.execute().map_err(|e| e.to_string())?;
    Ok(ss_harness::serve::stats_to_wire(&outcome.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let grid = grid_cells();
        let a = generate(7, 600, &grid);
        assert_eq!(a, generate(7, 600, &grid));
        assert_ne!(a, generate(8, 600, &grid));
        assert_eq!(a.len(), 600);
        // Every text is a valid request.
        for t in &a {
            t.parse::<RunRequest>().expect("mix texts parse");
        }
    }

    #[test]
    fn the_mix_has_the_intended_shape() {
        let grid = grid_cells();
        assert_eq!(
            grid.len(),
            12 * 20,
            "fig4+fig5+fig8 cover 12 standard configs"
        );
        let texts = generate(0xb5, MIX_REQUESTS, &grid);
        let share = |pred: &dyn Fn(&str) -> bool| {
            texts.iter().filter(|t| pred(t)).count() as f64 / texts.len() as f64
        };
        let rv = share(&|t| t.starts_with("src=rv:"));
        let preloaded = share(&|t| grid.iter().any(|g| g == t));
        let distinct = texts.iter().collect::<std::collections::HashSet<_>>().len();
        let repeats = 1.0 - distinct as f64 / texts.len() as f64;
        assert!((0.12..0.22).contains(&rv), "rv share {rv}");
        assert!(
            (0.03..0.12).contains(&preloaded),
            "preloaded share {preloaded}"
        );
        assert!((0.2..0.35).contains(&repeats), "repeat share {repeats}");
        assert!(texts
            .iter()
            .filter(|t| t.starts_with("src=rv:"))
            .all(|t| t.ends_with("check=1")));
    }

    #[test]
    fn the_sample_is_seeded_and_distinct() {
        let texts: Vec<String> = (0..400).map(|i| format!("t{}", i % 200)).collect();
        let a = sample(&texts, 5, 3);
        assert_eq!(a, sample(&texts, 5, 3));
        assert!(!a.is_empty() && a.len() < 30, "{}", a.len());
        let distinct = a.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(distinct, a.len());
    }

    #[test]
    fn repeats_must_match_their_first_answer() {
        let texts: Vec<String> = ["a", "b", "a", "a"].iter().map(|s| s.to_string()).collect();
        let ok = |p: &str| Reply {
            payload: Ok(p.to_string()),
            ..Reply::default()
        };
        let replies = vec![ok("1"), ok("2"), ok("1"), ok("9")];
        let (failed, first) = check_replies(&texts, &replies);
        assert_eq!(failed, 1);
        assert_eq!(first["a"], "1");
        let err = Reply {
            payload: Err("err 1 boom".into()),
            ..Reply::default()
        };
        assert_eq!(check_replies(&texts[..1], &[err]).0, 1);
    }
}
