//! The traced per-layer pass (`--trace 1`): spans around this process's
//! calls into each crate's public functions, plus the CLI and socket
//! measurements that some layer metrics are defined against.
//!
//! Every traced run measures every layer; the workload only names the
//! span file and seeds the generated inputs. Costs that are a difference
//! of two timings (capture, oracle, session overhead) are medians of
//! paired measurements taken in alternating order, and are reported as
//! measured, so noise can make a small one negative.

use crate::child::{run_cli, vm_hwm_kb, Server};
use crate::digest;
use crate::mix;
use crate::results::RunResult;
use crate::spans::{self, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::{self, Ctx, PROGRAMS};
use ss_bpred::Tage;
use ss_core::{RunLength, RunRequest};
use ss_harness::journal::SweepJournal;
use ss_harness::session::WORKLOAD_SEED;
use ss_harness::Session;
use ss_mem::{BankArbiter, SetAssocCache};
use ss_types::{Addr, BankedL1dConfig, CacheGeometry, ConfigSpec, Cycle, Pc, PredictorConfig};
use ss_workloads::{TraceSource, BENCHMARKS};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The sweep_quick cell length, run as one measured phase so the
/// statistics count every simulated cycle the timer saw.
const QUICK_CELL: RunLength = RunLength {
    warmup: 0,
    measure: 170_000,
};
/// Requests in the traced serve pass, and how many distinct executed
/// ones are re-executed in process (p95 of 200 has 10 beyond it).
const SERVE_REQUESTS: usize = 400;
const QUEUE_SAMPLE: usize = 200;
/// Repetitions of the micro pass with spans off and on.
const OVERHEAD_REPS: usize = 9;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn spec(name: &str) -> ConfigSpec {
    name.parse().expect("canonical config name")
}

fn len(warmup: u64, measure: u64) -> RunLength {
    RunLength { warmup, measure }
}

/// Metric values, in the order they are reported.
#[derive(Default)]
struct Values(Vec<(&'static str, f64, &'static str)>);

impl Values {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Runs `f` over `items` on two threads, as a sweep's or a server's two
/// workers run cells, and returns each result with its wall time, in
/// item order.
fn on_two_threads<T: Sync, R: Send>(
    t: &mut Tracer,
    name: &str,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<(R, Duration)> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, Duration)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let forks: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=2)
            .map(|tid| {
                let mut tw = t.fork(tid);
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(item) = items.get(i) else { break };
                        let done = tw.time(name, |_| f(item));
                        *slots[i].lock().expect("result slot lock") = Some(done);
                    }
                    tw
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    for tw in forks {
        t.join(tw);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every item ran")
        })
        .collect()
}

/// Times `a` and `b` back to back, `b` first when `flip`, and returns
/// their durations as `(a, b)`.
fn pair(
    t: &mut Tracer,
    flip: bool,
    (name_a, a): (&str, &mut dyn FnMut() -> Result<(), String>),
    (name_b, b): (&str, &mut dyn FnMut() -> Result<(), String>),
) -> Result<(Duration, Duration), String> {
    let mut time = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| {
        let (r, d) = t.time(name, |_| f());
        r.map(|()| d)
    };
    if flip {
        let db = time(name_b, b)?;
        Ok((time(name_a, a)?, db))
    } else {
        let da = time(name_a, a)?;
        Ok((da, time(name_b, b)?))
    }
}

/// The cheap in-process probes, run repeatedly with spans off and on.
fn micro(t: &mut Tracer) -> Values {
    let mut v = Values::default();
    // Per-cell set-up: construction, source build and one committed µ-op.
    let mut setups = Vec::new();
    for b in &BENCHMARKS {
        for cfg in ["Baseline_0", "SpecSched_4_Crit"] {
            let req = RunRequest::bench(b.name, WORKLOAD_SEED)
                .config(spec(cfg))
                .length(len(0, 1));
            let (r, d) = t.time("core.execute", |_| req.execute());
            black_box(r.expect("a one-µ-op cell runs"));
            setups.push(ns(d) / 1e6);
        }
    }
    v.put("core.cell_setup_ms", median(&setups).unwrap_or(0.0), "ms");

    const GEN: usize = 20_000;
    let mut total = Duration::ZERO;
    for b in &BENCHMARKS {
        let mut src = (b.build)(WORKLOAD_SEED).into_source();
        total += t
            .time("workloads.next_uop", |_| {
                for _ in 0..GEN {
                    black_box(src.next_uop());
                }
            })
            .1;
    }
    v.put(
        "workloads.gen_ns_per_uop",
        ns(total) / (GEN * BENCHMARKS.len()) as f64,
        "ns",
    );

    // The component probes of the simulator microbenchmarks.
    const OPS: u64 = 200_000;
    let mut tage = Tage::new(&PredictorConfig::default());
    let d = t
        .time("bpred.tage", |_| {
            for i in 0..OPS {
                let pc = Pc::new(0x1000 + (i % 64) * 4);
                let taken = i % 7 < 4;
                let (p, meta) = tage.predict(pc);
                tage.push_history(taken, pc);
                tage.update(taken, &meta);
                black_box(p);
            }
        })
        .1;
    v.put("bpred.tage_ns_per_branch", ns(d) / OPS as f64, "ns");

    let mut cache = SetAssocCache::new(CacheGeometry {
        capacity_bytes: 32 * 1024,
        ways: 8,
        line_bytes: 64,
    });
    for i in 0..512u64 {
        cache.fill(Addr::new(i * 64), false);
    }
    let d = t
        .time("mem.l1_lookup", |_| {
            let mut a = 0u64;
            for _ in 0..OPS {
                a = a.wrapping_add(0x9E37_79B9);
                black_box(cache.lookup(Addr::new((a % (32 * 1024)) & !7)));
            }
        })
        .1;
    v.put("mem.l1_lookup_ns", ns(d) / OPS as f64, "ns");

    let mut arb = BankArbiter::new(BankedL1dConfig::default(), 64, 64);
    let d = t
        .time("mem.bank_request", |_| {
            for i in 0..OPS {
                black_box(arb.request(Addr::new((i * 520) % 32768), Cycle::new(i / 2)));
            }
        })
        .1;
    v.put("mem.bank_request_ns", ns(d) / OPS as f64, "ns");
    v
}

/// The micro pass with spans off and on, in alternating order after one
/// warm-up pass. The overhead is the median paired ratio; the micro
/// metrics are medians over the traced passes.
fn micro_with_overhead(t: &mut Tracer, v: &mut Values, res: &mut RunResult) {
    micro(&mut Tracer::new(false));
    let mut ratios = Vec::new();
    let mut runs: Vec<Values> = Vec::new();
    for rep in 0..OVERHEAD_REPS {
        let mut quiet = Tracer::new(false);
        let mut off = || quiet.time("bench.micro", micro).1;
        let (off, (vals, on)) = if rep % 2 == 0 {
            (off(), t.time("bench.micro", micro))
        } else {
            let on = t.time("bench.micro", micro);
            (off(), on)
        };
        ratios.push(on.as_secs_f64() / off.as_secs_f64() - 1.0);
        runs.push(vals);
    }
    res.count((OVERHEAD_REPS * 2 * 2 * BENCHMARKS.len()) as u64, 0);
    for (i, &(name, _, unit)) in runs[0].0.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r.0[i].1).collect();
        v.put(name, median(&values).unwrap_or(0.0), unit);
    }
    v.put(
        "bench.trace_overhead_frac",
        median(&ratios).unwrap_or(0.0),
        "frac",
    );
}

/// One sweep_quick cell per benchmark, the machines taken in turn from
/// the `fig5` plan, executed from canonical request text on two threads.
fn core_sample(t: &mut Tracer, v: &mut Values, res: &mut RunResult) {
    let plan = (ss_harness::experiments::find("fig5")
        .expect("registered")
        .plan)();
    let texts: Vec<String> = BENCHMARKS
        .iter()
        .enumerate()
        .map(|(i, b)| {
            RunRequest::bench(b.name, WORKLOAD_SEED)
                .config(plan[i % plan.len()].spec)
                .length(QUICK_CELL)
                .to_string()
        })
        .collect();
    let runs = on_two_threads(t, "core.execute", &texts, |text| {
        text.parse::<RunRequest>()
            .map_err(|e| e.to_string())
            .and_then(|r| r.execute().map_err(|e| e.to_string()))
    });
    let (mut busy, mut uops, mut cycles, mut issued) = (Duration::ZERO, 0, 0, 0);
    for (text, (r, d)) in texts.iter().zip(runs) {
        match r {
            Ok(o) => {
                busy += d;
                uops += o.stats.committed_uops;
                cycles += o.stats.cycles;
                issued += o.stats.issued_total;
                res.count(1, 0);
            }
            Err(e) => res.fail(&format!("`{text}`: {e}")),
        }
    }
    let (uops, cycles) = (uops.max(1) as f64, cycles.max(1) as f64);
    v.put("core.ns_per_uop", ns(busy) / uops, "ns");
    v.put("core.ns_per_cycle", ns(busy) / cycles, "ns");
    v.put("core.cpi", cycles / uops, "cycle/uop");
    v.put("core.issued_per_commit", issued as f64 / uops, "ratio");
}

/// A `fig5 --quick` CLI sweep (60 of sweep_quick's cells, on the same
/// lane path) and fully cached reruns of it. The sweep's idle share is
/// the part of its two workers' wall time the process spent off-CPU:
/// 1 − CPU time ÷ (2 × wall).
fn sweep_and_recall(
    t: &mut Tracer,
    ctx: &Ctx,
    v: &mut Values,
    res: &mut RunResult,
) -> Result<(), String> {
    let out = ctx.work.join("fig5");
    let mut args: Vec<String> = [
        "fig5",
        "--quick",
        "--jobs",
        workloads::JOBS,
        "--no-progress",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(["--out".to_string(), out.display().to_string()]);
    let (run, wall) = t.time("harness.cli.sweep", |_| run_cli(&ctx.exp, &args, &ctx.work));
    let run = run?;
    res.count(60, u64::from(!run.ok()) * 60);
    let got = digest::csv_digests(&out).remove("fig5_0.csv");
    let want = ctx.expected.0.get("sweep_quick/fig5_0.csv");
    if got.as_ref() != want {
        res.fail(&format!("fig5_0.csv: digest {got:?}, blessed {want:?}"));
    }
    v.put(
        "harness.exec.idle_frac",
        1.0 - run.cpu.as_secs_f64() / (2.0 * wall.as_secs_f64()),
        "frac",
    );
    let mut recalls = Vec::new();
    for _ in 0..3 {
        let (r, d) = t.time("harness.cli.recall", |_| {
            run_cli(&ctx.exp, &args, &ctx.work)
        });
        if !r.as_ref().is_ok_and(|r| r.ok()) {
            res.fail("a cached rerun failed");
        }
        recalls.push(d.as_secs_f64());
    }
    v.put("harness.recall_s", median(&recalls).unwrap_or(0.0), "s");
    Ok(())
}

/// rv: cells with the oracle off and on, three alternating pairs per
/// program.
fn rv_probe(t: &mut Tracer, seed: u64, v: &mut Values, res: &mut RunResult) -> Result<(), String> {
    const UOPS: u64 = 100_000;
    let (mut plain, mut oracle) = (Vec::new(), Vec::new());
    for (i, prog) in PROGRAMS.iter().enumerate() {
        let req = |check: bool| {
            RunRequest::program(workloads::rv_spec(prog, seed))
                .config(spec("SpecSched_4"))
                .length(len(0, UOPS))
                .checked(check)
        };
        for rep in 0..3 {
            let (a, b) = pair(
                t,
                (i + rep) % 2 == 1,
                ("core.execute", &mut || {
                    req(false).execute().map(drop).map_err(|e| e.to_string())
                }),
                ("oracle.execute", &mut || {
                    req(true).execute().map(drop).map_err(|e| e.to_string())
                }),
            )?;
            plain.push(ns(a) / UOPS as f64);
            oracle.push((ns(b) - ns(a)) / UOPS as f64);
            res.count(2, 0);
        }
    }
    v.put("core.rv_ns_per_uop", median(&plain).unwrap_or(0.0), "ns");
    v.put("oracle.ns_per_uop", median(&oracle).unwrap_or(0.0), "ns");
    Ok(())
}

/// Snapshot capture/restore, then the session's warm-fork, cache-hit and
/// journal costs over the same cells.
fn snapshot_and_session(
    t: &mut Tracer,
    dir: &Path,
    v: &mut Values,
    res: &mut RunResult,
) -> Result<(), String> {
    let cfg = spec("SpecSched_4").named();
    let warm = len(mix::SMOKE.warmup, 0);
    std::fs::create_dir_all(dir.join("snaps")).map_err(|e| e.to_string())?;
    let (mut capture, mut restore, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    let mut snaps = Vec::new();
    for (i, b) in BENCHMARKS.iter().enumerate() {
        let req = || RunRequest::bench(b.name, WORKLOAD_SEED).config(cfg.spec);
        let mut snap = None;
        let (plain, with_capture) = pair(
            t,
            i % 2 == 1,
            ("core.execute", &mut || {
                req()
                    .length(warm)
                    .execute()
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
            ("snapshot.capture", &mut || {
                let o = req().length(warm).capture_warm().execute();
                snap = o.map_err(|e| e.to_string())?.snapshot;
                Ok(())
            }),
        )?;
        capture.push(ns(with_capture) / 1e6 - ns(plain) / 1e6);
        let snap = snap.ok_or("capture produced no snapshot")?;
        kb.push(snap.to_bytes().len() as f64 / 1024.0);
        let path = dir.join("snaps").join(format!("{}.snap", b.name));
        t.span("snapshot.write", |_| {
            ss_snapshot::write_atomic(&path, &snap)
        })
        .map_err(|e| e.to_string())?;
        let from = path.display().to_string();
        let (r, d) = t.time("snapshot.restore", |_| {
            req().length(len(0, 0)).from_snapshot_path(from).execute()
        });
        r.map_err(|e| e.to_string())?;
        restore.push(ns(d) / 1e6);
        snaps.push(snap);
        res.count(3, 0);
    }
    v.put("snapshot.capture_ms", median(&capture).unwrap_or(0.0), "ms");
    v.put("snapshot.kb", median(&kb).unwrap_or(0.0), "KB");
    v.put("snapshot.restore_ms", median(&restore).unwrap_or(0.0), "ms");

    // A first session captures each cell's warm state; a second, with a
    // fresh stats cache and journal, forks every cell from it, paired
    // with the same fork from the in-memory snapshot.
    let session = |cache: &str, journal: &str| -> Result<Session, String> {
        let mut s = Session::new(mix::SMOKE, Some(dir.join(cache)));
        s.enable_warm_fork(dir.join("warm"));
        s.attach_journal(&dir.join(journal))
            .map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut first = session("cache1", "journal1.log")?;
    for b in &BENCHMARKS {
        first.try_run(&cfg, b).map_err(|e| e.to_string())?;
    }
    let mut forked = session("cache2", "journal2.log")?;
    let mut overhead = Vec::new();
    for (i, (b, snap)) in BENCHMARKS.iter().zip(snaps).enumerate() {
        let mut snap = Some(snap);
        let (core, in_session) = pair(
            t,
            i % 2 == 1,
            ("core.execute", &mut || {
                RunRequest::bench(b.name, WORKLOAD_SEED)
                    .config(cfg.spec)
                    .length(len(0, mix::SMOKE.measure))
                    .from_snapshot(snap.take().expect("one fork per snapshot"))
                    .execute()
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
            ("harness.session.try_run", &mut || {
                forked.try_run(&cfg, b).map(drop).map_err(|e| e.to_string())
            }),
        )?;
        overhead.push(ns(in_session) / 1e6 - ns(core) / 1e6);
        res.count(2, 0);
    }
    if forked.warm_forked != BENCHMARKS.len() as u64 {
        res.fail("the session did not fork its cells from the warm snapshots");
    }
    v.put(
        "harness.session.overhead_ms",
        median(&overhead).unwrap_or(0.0),
        "ms",
    );

    let mut recall = session("cache2", "journal2.log")?;
    let mut hits = Vec::new();
    for b in &BENCHMARKS {
        let (r, d) = t.time("harness.session.try_run", |_| recall.try_run(&cfg, b));
        r.map_err(|e| e.to_string())?;
        hits.push(ns(d) / 1e3);
    }
    if recall.simulated != 0 {
        res.fail("a session over a complete cache re-simulated");
    }
    v.put("harness.session.hit_us", median(&hits).unwrap_or(0.0), "us");

    let mut journal = SweepJournal::open(&dir.join("journal3.log")).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for i in 0..100 {
        let key = format!("probe|SpecSched_4|cell{i}|w1000m10000");
        let (r, d) = t.time("harness.journal.record", |_| journal.record(&key));
        r.map_err(|e| e.to_string())?;
        records.push(ns(d) / 1e3);
    }
    v.put(
        "harness.journal.record_us",
        median(&records).unwrap_or(0.0),
        "us",
    );
    res.count(BENCHMARKS.len() as u64 + 100, 0);
    Ok(())
}

/// A short served mix: reply timings seen by the client, the server's
/// memory growth, and queue wait as (ack → done) minus the same request
/// executed in this process.
fn serve_probe(
    t: &mut Tracer,
    ctx: &Ctx,
    v: &mut Values,
    res: &mut RunResult,
) -> Result<(), String> {
    let texts = mix::generate(ctx.seed, SERVE_REQUESTS, &mix::grid_cells());
    let (parsed, d) = t.time("serve.parse", |_| {
        texts
            .iter()
            .filter(|s| black_box(s.parse::<RunRequest>()).is_ok())
            .count()
    });
    if parsed != texts.len() {
        res.fail("a mix request did not parse");
    }
    v.put("serve.parse_us", ns(d) / texts.len() as f64 / 1e3, "us");

    let socket = ctx.work.join("trace.sock");
    let server = Server::start(
        &ctx.exp,
        &socket,
        &["--jobs".to_string(), workloads::JOBS.to_string()],
        &ctx.work.join("trace-serve.log"),
    )?;
    let pid = server.pid();
    let mid = Mutex::new(None);
    let played = t.span("serve.mix", |_| {
        mix::play(&socket, &texts, || {
            *mid.lock().expect("mid lock") = vm_hwm_kb(pid);
        })
    });
    let end = vm_hwm_kb(pid);
    server.shutdown()?;
    let (replies, _) = played?;
    let (failed, first) = mix::check_replies(&texts, &replies);
    res.count(texts.len() as u64, failed);

    let ms = |a: f64, b: f64| (b - a) * 1e3;
    let acks: Vec<f64> = replies
        .iter()
        .filter_map(|r| Some(ms(r.sent, r.acked?)))
        .collect();
    let cached: Vec<f64> = replies
        .iter()
        .filter(|r| r.cached)
        .filter_map(|r| Some(ms(r.sent, r.done?)))
        .collect();
    v.put("serve.ack_ms_p50", median(&acks).unwrap_or(0.0), "ms");
    v.put("serve.cached_ms_p50", median(&cached).unwrap_or(0.0), "ms");
    v.put(
        "serve.hit_frac",
        cached.len() as f64 / replies.len() as f64,
        "frac",
    );
    let growth = end
        .zip(mid.into_inner().expect("mid lock"))
        .map_or(0, |(e, m)| e.saturating_sub(m));
    v.put(
        "serve.rss_kb_per_1k_req",
        growth as f64 * 1000.0 / (SERVE_REQUESTS / 2) as f64,
        "KB",
    );

    // The first executed (not cached) answer of each distinct text, run
    // again here on two threads as the server's two workers ran it.
    let mut seen = std::collections::HashSet::new();
    let executed: Vec<(&String, &mix::Reply)> = texts
        .iter()
        .zip(&replies)
        .filter(|(text, r)| !r.cached && seen.insert(text.as_str()))
        .take(QUEUE_SAMPLE)
        .collect();
    let again = on_two_threads(t, "serve.execute_in_process", &executed, |(text, _)| {
        mix::execute_wire(text)
    });
    let (mut queue, mut run) = (Vec::new(), Vec::new());
    let mut bad = 0;
    for ((text, r), (want, d)) in executed.iter().zip(again) {
        if want.ok().as_ref() != first.get(text.as_str()) {
            bad += 1;
        }
        let run_ms = ns(d) / 1e6;
        if let (Some(a), Some(done)) = (r.acked, r.done) {
            queue.push(ms(a, done) - run_ms);
        }
        run.push(run_ms);
    }
    res.count(executed.len() as u64, bad);
    v.put("serve.queue_ms_p50", median(&queue).unwrap_or(0.0), "ms");
    v.put(
        "serve.queue_ms_p95",
        percentile(&queue, 95.0).unwrap_or(0.0),
        "ms",
    );
    v.put("serve.run_ms_p50", median(&run).unwrap_or(0.0), "ms");
    Ok(())
}

/// The whole traced pass; fills `res` with every per-layer metric and
/// writes the span file.
pub fn run(ctx: &Ctx, res: &mut RunResult, span_file: &Path) -> Result<(), String> {
    let mut v = Values::default();
    let mut t = Tracer::new(true);
    micro_with_overhead(&mut t, &mut v, res);
    t.span("bench.pass", |t| -> Result<(), String> {
        t.span("bench.core_sample", |t| core_sample(t, &mut v, res));
        sweep_and_recall(t, ctx, &mut v, res)?;
        rv_probe(t, ctx.seed, &mut v, res)?;
        snapshot_and_session(t, &ctx.work.join("layers"), &mut v, res)?;
        serve_probe(t, ctx, &mut v, res)
    })?;
    for (name, value, unit) in v.0 {
        res.push(name, value, unit);
    }

    let doc = spans::chrome_trace(t.spans(), &res.workload);
    if let Err(e) = ss_trace::json::validate_chrome_trace(&doc) {
        res.fail(&format!("span file is not a valid Chrome trace: {e}"));
    }
    std::fs::write(span_file, doc).map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!(
        "ssbench: {} spans written to {}",
        t.spans().len(),
        span_file.display()
    );
    println!(
        "{:<10} {:>7} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (layer, (count, total, own)) in spans::layer_table(t.spans()) {
        println!(
            "{layer:<10} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    Ok(())
}
