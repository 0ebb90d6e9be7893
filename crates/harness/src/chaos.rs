//! `experiments chaos`: a deterministic chaos-injection harness for the
//! serve layer.
//!
//! Spins up a real [`Server`] (in-process, `--allow-poison` armed) and
//! drives it through a **seeded fault schedule** — every event drawn
//! from one generator, so a failing run reproduces exactly from its
//! seed:
//!
//! * **clean** — a normal request; the reply must be byte-identical to
//!   the same request executed offline.
//! * **poison** — deliberately kills a worker thread; the supervisor
//!   must respawn it (`restarted` grows, `live` returns to full
//!   strength).
//! * **garbage** — malformed, truncated, oversized, or non-UTF-8
//!   protocol lines; every one must earn a typed `err` reply or a clean
//!   close, never a hang or a crash.
//! * **disconnect** — a client vanishes mid-run; the orphaned run must
//!   be cancelled and counted (`clients_vanished`).
//! * **deadline** — a run whose fault-plan-inflated length cannot finish
//!   inside its `deadline=<ms>` budget; the server must answer with the
//!   typed deadline error and stay available.
//!
//! After the schedule, the harness re-runs every clean request (cached,
//! still byte-identical), then exercises two more failure modes:
//! **SIGKILL-and-restart** of a child-process server that answers from
//! a sweep's results store both times, and a **bounded graceful
//! drain** with a run still in flight.
//!
//! The event schedule and a full transcript are written to the working
//! directory (CI uploads them as artifacts on failure).

use crate::cli::{self, Args};
use crate::serve::{stats_to_wire, ServeOptions, Server};
use crate::store::Store;
use ss_core::RunRequest;
use ss_types::rng::SplitMix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests the clean events rotate through — small enough to finish in
/// tens of milliseconds, distinct enough to exercise separate cache
/// cells.
const CLEAN_POOL: [&str; 3] = [
    "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000",
    "src=bench:mix_int@0xb5 cfg=Baseline_4 len=w200m2000",
    "src=bench:hash_probe@0xb5 cfg=SpecSched_4_Crit len=w200m2000",
];

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Clean(usize),
    Poison,
    Garbage(u64),
    Disconnect,
    Deadline,
}

impl Event {
    fn label(&self) -> String {
        match self {
            Event::Clean(i) => format!("clean#{i}"),
            Event::Poison => "poison".into(),
            Event::Garbage(sub) => format!("garbage@{sub:#x}"),
            Event::Disconnect => "disconnect".into(),
            Event::Deadline => "deadline".into(),
        }
    }
}

/// Draws the schedule and guarantees every fault family appears at
/// least once, whatever the seed.
fn build_schedule(seed: u64, events: usize) -> Vec<Event> {
    let mut rng = SplitMix64::new(seed);
    let draw = |rng: &mut SplitMix64| match rng.next_u64() % 5 {
        0 => Event::Clean((rng.next_u64() % CLEAN_POOL.len() as u64) as usize),
        1 => Event::Poison,
        2 => Event::Garbage(rng.next_u64()),
        3 => Event::Disconnect,
        _ => Event::Deadline,
    };
    let mut schedule: Vec<Event> = (0..events).map(|_| draw(&mut rng)).collect();
    let must_have = [
        Event::Clean(0),
        Event::Poison,
        Event::Garbage(seed),
        Event::Disconnect,
        Event::Deadline,
    ];
    for want in must_have {
        let covered = schedule
            .iter()
            .any(|e| std::mem::discriminant(e) == std::mem::discriminant(&want));
        if !covered {
            schedule.push(want);
        }
    }
    schedule
}

/// A line-oriented protocol client with a bounded read patience, so a
/// wedged server fails the harness instead of hanging it.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send `{line}`: {e}"))
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("raw send: {e}"))
    }

    /// Reads one line; `Ok(None)` is a clean close.
    fn recv(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Skips `progress` lines until the request's terminal reply.
    fn terminal(&mut self, id: &str) -> Result<String, String> {
        loop {
            let Some(line) = self.recv()? else {
                return Err(format!("connection closed waiting on `{id}`"));
            };
            if line.starts_with(&format!("progress {id} ")) {
                continue;
            }
            return Ok(line);
        }
    }
}

/// Fetches and parses one `metrics` report off a fresh connection.
fn metrics(socket: &Path) -> Result<HashMap<String, u64>, String> {
    let mut c = Client::connect(socket)?;
    c.send("metrics")?;
    let Some(line) = c.recv()? else {
        return Err("connection closed on metrics".into());
    };
    let rest = line
        .strip_prefix("metrics ")
        .ok_or_else(|| format!("unexpected metrics reply `{line}`"))?;
    Ok(rest
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|n| (k.to_string(), n)))
        .collect())
}

/// Polls `metrics` until `pred` holds or the timeout expires.
fn wait_metrics(
    socket: &Path,
    what: &str,
    timeout: Duration,
    pred: impl Fn(&HashMap<String, u64>) -> bool,
) -> Result<HashMap<String, u64>, String> {
    let t0 = Instant::now();
    loop {
        let h = metrics(socket)?;
        if pred(&h) {
            return Ok(h);
        }
        if t0.elapsed() > timeout {
            return Err(format!("timed out waiting for {what}: last metrics {h:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The harness: owns the fault schedule, the transcript, and the
/// offline reference results.
struct Chaos {
    dir: PathBuf,
    socket: PathBuf,
    log: Vec<String>,
    /// Clean-pool request text → expected `done` payload, computed
    /// offline before the server ever runs.
    reference: HashMap<&'static str, String>,
    next_id: u64,
}

impl Chaos {
    fn log(&mut self, line: String) {
        eprintln!("[chaos] {line}");
        self.log.push(line);
    }

    fn fresh_id(&mut self, prefix: &str) -> String {
        self.next_id += 1;
        format!("{prefix}{}", self.next_id)
    }

    /// Clean request: served result must be byte-identical to offline.
    fn event_clean(&mut self, which: usize) -> Result<(), String> {
        let req = CLEAN_POOL[which % CLEAN_POOL.len()];
        let want = self.reference[req].clone();
        let id = self.fresh_id("c");
        let mut c = Client::connect(&self.socket)?;
        c.send(&format!("run {id} {req}"))?;
        let ack = c.terminal(&id)?;
        if !ack.starts_with(&format!("ack {id} ")) {
            return Err(format!("clean run `{req}`: expected ack, got `{ack}`"));
        }
        let done = c.terminal(&id)?;
        let got = done
            .strip_prefix(&format!("done {id} "))
            .ok_or_else(|| format!("clean run `{req}`: expected done, got `{done}`"))?;
        if got != want {
            return Err(format!(
                "clean run `{req}` diverged from offline:\n served: {got}\noffline: {want}"
            ));
        }
        self.log(format!("clean `{req}` byte-identical to offline"));
        Ok(())
    }

    /// Poison: a worker dies on purpose; the supervisor must restore the
    /// pool to full strength.
    fn event_poison(&mut self, workers: u64) -> Result<(), String> {
        let before = metrics(&self.socket)?;
        let id = self.fresh_id("p");
        let mut c = Client::connect(&self.socket)?;
        c.send(&format!("poison {id}"))?;
        // The ack comes from the reader thread, the err from the dying
        // worker — they race on the shared socket, so accept either
        // order.
        let mut replies = [c.terminal(&id)?, c.terminal(&id)?];
        replies.sort();
        if replies[0] != format!("ack {id} poison")
            || !replies[1].starts_with(&format!("err {id} worker poisoned"))
        {
            return Err(format!("poison: unexpected replies {replies:?}"));
        }
        let restarted_before = before.get("restarted").copied().unwrap_or(0);
        let h = wait_metrics(
            &self.socket,
            "worker respawn",
            Duration::from_secs(10),
            |h| {
                h.get("restarted").copied().unwrap_or(0) > restarted_before
                    && h.get("live").copied().unwrap_or(0) == workers
            },
        )?;
        self.log(format!(
            "poison: pool back to {workers} live workers (restarted={})",
            h["restarted"]
        ));
        Ok(())
    }

    /// Garbage: a seeded malformed line must earn a typed `err` (or a
    /// clean close for unframeable input), after which the server still
    /// answers `ping` from a fresh connection.
    fn event_garbage(&mut self, sub: u64) -> Result<(), String> {
        let mut rng = SplitMix64::new(sub);
        let kind = rng.next_u64() % 6;
        let (desc, payload): (String, Vec<u8>) = match kind {
            0 => ("unknown verb".into(), b"frobnicate the pipeline\n".to_vec()),
            1 => ("run without id".into(), b"run\n".to_vec()),
            2 => (
                "malformed request".into(),
                format!("run g src=bogus:{:x} cfg=Nope len=banana\n", rng.next_u64()).into_bytes(),
            ),
            3 => {
                let n = 70 * 1024 + (rng.next_u64() % 4096) as usize;
                (format!("oversized line ({n} bytes)"), {
                    let mut v = vec![b'x'; n];
                    v.push(b'\n');
                    v
                })
            }
            4 => (
                "non-UTF-8 bytes".into(),
                vec![b'r', b'u', b'n', b' ', 0xff, 0xfe, 0x80, b'\n'],
            ),
            _ => (
                "duplicate keys".into(),
                b"run g src=gen:1 src=gen:2 cfg=Baseline_4 len=w10m100\n".to_vec(),
            ),
        };
        let mut c = Client::connect(&self.socket)?;
        c.send_raw(&payload)?;
        match c.recv()? {
            Some(line) if line.starts_with("err ") => {
                self.log(format!("garbage ({desc}): typed reply `{line}`"));
            }
            Some(line) => return Err(format!("garbage ({desc}): non-err reply `{line}`")),
            None => self.log(format!("garbage ({desc}): connection closed cleanly")),
        }
        // Availability: a fresh client still gets a pong.
        let mut c2 = Client::connect(&self.socket)?;
        c2.send("ping")?;
        if c2.recv()? != Some("pong".into()) {
            return Err(format!("garbage ({desc}): server stopped answering ping"));
        }
        Ok(())
    }

    /// Disconnect: vanish mid-run; the orphaned run must be cancelled
    /// and the vanish counted.
    fn event_disconnect(&mut self) -> Result<(), String> {
        let before = metrics(&self.socket)?;
        let id = self.fresh_id("d");
        let mut c = Client::connect(&self.socket)?;
        c.send(&format!(
            "run {id} src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1000m40000000"
        ))?;
        let ack = c.terminal(&id)?;
        if !ack.starts_with(&format!("ack {id} queued")) {
            return Err(format!("disconnect: expected queued ack, got `{ack}`"));
        }
        // Wait for the run to actually start (first progress line), then
        // vanish without a word.
        let Some(line) = c.recv()? else {
            return Err("disconnect: server closed first".into());
        };
        if !line.starts_with(&format!("progress {id} ")) {
            return Err(format!("disconnect: expected progress, got `{line}`"));
        }
        drop(c);
        let vanished_before = before.get("clients_vanished").copied().unwrap_or(0);
        let h = wait_metrics(
            &self.socket,
            "orphan cancellation",
            Duration::from_secs(15),
            |h| {
                h.get("inflight").copied().unwrap_or(u64::MAX) == 0
                    && h.get("clients_vanished").copied().unwrap_or(0) > vanished_before
            },
        )?;
        self.log(format!(
            "disconnect: orphaned run cancelled, clients_vanished={}",
            h["clients_vanished"]
        ));
        Ok(())
    }

    /// Deadline: a replay-storm-inflated run that cannot finish in time
    /// must die to the typed deadline error, with committed evidence.
    fn event_deadline(&mut self) -> Result<(), String> {
        let id = self.fresh_id("t");
        let mut c = Client::connect(&self.socket)?;
        c.send(&format!(
            "run {id} src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1000m40000000 \
             deadline=30 faults=spike@200x50+8"
        ))?;
        let ack = c.terminal(&id)?;
        if !ack.starts_with(&format!("ack {id} queued")) {
            return Err(format!("deadline: expected queued ack, got `{ack}`"));
        }
        let reply = c.terminal(&id)?;
        let msg = reply
            .strip_prefix(&format!("err {id} "))
            .ok_or_else(|| format!("deadline: expected err, got `{reply}`"))?;
        if !msg.contains("deadline exceeded after") || !msg.contains("budget 30 ms") {
            return Err(format!("deadline: untyped error `{msg}`"));
        }
        self.log(format!("deadline: `{msg}`"));
        Ok(())
    }

    fn run_event(&mut self, ev: Event, workers: u64) -> Result<(), String> {
        match ev {
            Event::Clean(i) => self.event_clean(i),
            Event::Poison => self.event_poison(workers),
            Event::Garbage(sub) => self.event_garbage(sub),
            Event::Disconnect => self.event_disconnect(),
            Event::Deadline => self.event_deadline(),
        }
    }

    /// SIGKILL a child-process server and restart it over the same
    /// checkpoint: its results store must answer `ack cached` both
    /// before the kill and after the restart.
    fn kill_restart_phase(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let ckpt = self.dir.join("ckpt");
        let req = CLEAN_POOL[0];
        let stats = crate::serve::stats_from_wire(&self.reference[req])
            .ok_or("internal: reference stats unparseable")?;
        Store::create(ckpt.join("cache"))
            .and_then(|store| store.put(req, &stats))
            .map_err(|e| e.to_string())?;
        let sock = self.dir.join("child.sock");
        let spawn = |sock: &Path| {
            std::process::Command::new(&exe)
                .args([
                    "serve",
                    "--socket",
                    &sock.display().to_string(),
                    "--jobs",
                    "1",
                    "--checkpoint-dir",
                    &ckpt.display().to_string(),
                ])
                .stderr(std::process::Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn child server: {e}"))
        };
        let wait_up = |sock: &Path| -> Result<(), String> {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_secs(15) {
                if UnixStream::connect(sock).is_ok() {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err("child server never came up".into())
        };
        let want = self.reference[req].clone();
        let expect_cached = move |sock: &Path| -> Result<(), String> {
            let mut c = Client::connect(sock)?;
            c.send(&format!("run k1 {req}"))?;
            let ack = c.terminal("k1")?;
            if ack != "ack k1 cached" {
                return Err(format!("expected `ack k1 cached`, got `{ack}`"));
            }
            let done = c.terminal("k1")?;
            let got = done
                .strip_prefix("done k1 ")
                .ok_or_else(|| format!("expected done, got `{done}`"))?;
            if got != want {
                return Err("store-served result diverged from offline".into());
            }
            Ok(())
        };
        let mut child = spawn(&sock)?;
        wait_up(&sock)?;
        expect_cached(&sock)?;
        self.log("kill-restart: cold child served from the results store".into());
        child.kill().map_err(|e| e.to_string())?; // SIGKILL, no cleanup
        let _ = child.wait();
        let mut child = spawn(&sock)?;
        wait_up(&sock)?;
        expect_cached(&sock)?;
        self.log("kill-restart: post-SIGKILL restart served `ack cached` again".into());
        let mut c = Client::connect(&sock)?;
        c.send("shutdown")?;
        let _ = c.recv();
        let _ = child.wait();
        Ok(())
    }
}

/// `experiments chaos [--seed N] [--events N] [--dir DIR]`: runs the
/// full chaos schedule against a live server; exits 0 only if every
/// availability and byte-identity assertion holds.
pub fn run_chaos_cli(args: &[String]) -> i32 {
    cli::command(args, USAGE, parse_args, chaos)
}

const USAGE: &str = "usage: experiments chaos [--seed N] [--events N] [--dir DIR]\n\
     \n\
     flags (with defaults):\n\
     \x20 --seed N     fault-schedule seed (0xc4a05)\n\
     \x20 --events N   scheduled events before the fixed phases (12)\n\
     \x20 --dir DIR    working directory for the socket, schedule,\n\
     \x20              and transcript (temp dir)";

fn chaos((seed, events, dir): (u64, usize, Option<PathBuf>)) -> i32 {
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ss-chaos-{}-{seed:x}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("chaos: cannot create {}: {e}", dir.display());
        return 1;
    }
    match run_chaos(seed, events, &dir) {
        Ok(log) => {
            let _ = std::fs::write(dir.join("chaos.log"), log.join("\n") + "\n");
            println!(
                "chaos PASS seed={seed:#x} events={events} (transcript in {})",
                dir.display()
            );
            0
        }
        Err((log, e)) => {
            let _ = std::fs::write(dir.join("chaos.log"), log.join("\n") + "\n");
            eprintln!("chaos FAIL seed={seed:#x}: {e}");
            eprintln!("chaos: schedule and transcript in {}", dir.display());
            1
        }
    }
}

/// `--seed`, `--events` and `--dir`, with their defaults.
fn parse_args(args: &[String]) -> Result<(u64, usize, Option<PathBuf>), String> {
    let (mut seed, mut events, mut dir) = (0xC4A05, 12, None);
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--seed" => seed = args.seed("--seed needs a number")?,
            "--events" => events = args.parse("--events needs a count")?,
            "--dir" => dir = Some(args.parse("--dir needs a directory")?),
            other => return Err(format!("unknown chaos flag `{other}`")),
        }
    }
    Ok((seed, events, dir))
}

/// The full harness run. Returns the transcript on success, or the
/// transcript so far plus the failure on error.
#[allow(clippy::result_large_err)]
fn run_chaos(seed: u64, events: usize, dir: &Path) -> Result<Vec<String>, (Vec<String>, String)> {
    const WORKERS: u64 = 2;
    let schedule = build_schedule(seed, events);
    let _ = std::fs::write(
        dir.join("schedule.txt"),
        schedule
            .iter()
            .map(Event::label)
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
    );
    let mut chaos = Chaos {
        dir: dir.to_path_buf(),
        socket: dir.join("chaos.sock"),
        log: Vec::new(),
        reference: HashMap::new(),
        next_id: 0,
    };
    let fail = |chaos: Chaos, e: String| (chaos.log, e);

    // Offline references first: the ground truth never touches the
    // server.
    for req in CLEAN_POOL {
        let parsed: RunRequest = match req.parse() {
            Ok(r) => r,
            Err(e) => return Err(fail(chaos, e.to_string())),
        };
        match parsed.execute() {
            Ok(out) => {
                chaos.reference.insert(req, stats_to_wire(&out.stats));
            }
            Err(e) => return Err(fail(chaos, format!("offline reference `{req}`: {e}"))),
        }
    }
    chaos.log(format!(
        "schedule: {} events at seed {seed:#x}",
        schedule.len()
    ));

    let server = match Server::start(ServeOptions {
        socket: chaos.socket.clone(),
        jobs: WORKERS as usize,
        queue_depth: 16,
        allow_poison: true,
        drain_grace_ms: 800,
        ..ServeOptions::default()
    }) {
        Ok(s) => s,
        Err(e) => return Err(fail(chaos, format!("server start: {e}"))),
    };

    for (i, ev) in schedule.iter().enumerate() {
        let label = ev.label();
        if let Err(e) = chaos.run_event(*ev, WORKERS) {
            server.shutdown();
            return Err(fail(chaos, format!("event {i} ({label}): {e}")));
        }
    }

    // Post-schedule availability: every clean request again, now served
    // from the memo and still byte-identical.
    for i in 0..CLEAN_POOL.len() {
        if let Err(e) = chaos.event_clean(i) {
            server.shutdown();
            return Err(fail(chaos, format!("post-schedule clean sweep: {e}")));
        }
    }
    match metrics(&chaos.socket) {
        Ok(h) => chaos.log(format!("final metrics: {h:?}")),
        Err(e) => {
            server.shutdown();
            return Err(fail(chaos, format!("final metrics: {e}")));
        }
    }

    // Bounded drain: shut down with a run still in flight that cannot
    // finish inside the grace; the 800 ms budget bounds the wait and the
    // straggler gets a typed cancellation. The client stays connected
    // throughout — dropping it would exercise orphan cleanup instead.
    let drain_client = (|| -> Result<Client, String> {
        let id = "drain1";
        let mut c = Client::connect(&chaos.socket)?;
        c.send(&format!(
            "run {id} src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1000m400000000"
        ))?;
        let ack = c.terminal(id)?;
        if !ack.starts_with(&format!("ack {id} queued")) {
            return Err(format!("drain: expected queued ack, got `{ack}`"));
        }
        Ok(c)
    })();
    let mut drain_client = match drain_client {
        Ok(c) => c,
        Err(e) => {
            server.shutdown();
            return Err(fail(chaos, e));
        }
    };
    let t0 = Instant::now();
    server.shutdown();
    let drain = t0.elapsed();
    if drain > Duration::from_secs(10) {
        return Err(fail(
            chaos,
            format!("drain took {drain:?}, far beyond the 800 ms grace"),
        ));
    }
    match drain_client.terminal("drain1") {
        Ok(reply) if reply.starts_with("err drain1 ") => {
            chaos.log(format!(
                "drain: shutdown with a run in flight took {drain:?}, straggler got `{reply}`"
            ));
        }
        Ok(reply) => {
            return Err(fail(
                chaos,
                format!("drain: expected a typed err for the straggler, got `{reply}`"),
            ));
        }
        Err(e) => return Err(fail(chaos, format!("drain: {e}"))),
    }
    drop(drain_client);

    if let Err(e) = chaos.kill_restart_phase() {
        return Err(fail(chaos, format!("kill-restart phase: {e}")));
    }

    chaos.log("all chaos phases passed".into());
    Ok(chaos.log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_covers_every_fault_family() {
        let a = build_schedule(7, 12);
        let b = build_schedule(7, 12);
        let c = build_schedule(8, 12);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        for seed in 0..20u64 {
            let s = build_schedule(seed, 3);
            for want in [
                Event::Clean(0),
                Event::Poison,
                Event::Garbage(0),
                Event::Disconnect,
                Event::Deadline,
            ] {
                assert!(
                    s.iter()
                        .any(|e| std::mem::discriminant(e) == std::mem::discriminant(&want)),
                    "seed {seed}: missing {want:?} in {s:?}"
                );
            }
        }
    }
}
