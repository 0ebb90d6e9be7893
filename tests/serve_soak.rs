//! Soak test for the `experiments serve` simulation service: concurrent
//! clients over a live Unix-domain socket, mixed priority classes,
//! saturation.
//!
//! * **Byte identity** — every `done` line the server emits carries the
//!   exact statistics an offline [`RunRequest::execute`] produces for
//!   the same request text.
//! * **Priority** — under a saturated worker pool, interactive requests
//!   overtake queued bulk work: FIFO order within each class, and
//!   interactive p99 queue latency strictly below bulk p99.
//! * **Control** — cancellation interrupts a running cell with the
//!   typed [`SimError::Cancelled`] rendering, and admission control
//!   answers `overloaded` instead of queueing without bound.

mod common;

use common::Client;
use speculative_scheduling::core::RunRequest;
use speculative_scheduling::harness::serve::{stats_from_wire, ServeOptions, Server};
use speculative_scheduling::types::Priority;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs one request to completion and returns the `done` payload.
fn run_to_done(c: &mut Client, id: &str, prio: &str, req: &str) -> String {
    c.send(&format!("run {id} prio={prio} {req}"));
    let ack = c.terminal(id);
    assert!(
        ack == format!("ack {id} queued prio={prio}") || ack == format!("ack {id} cached"),
        "unexpected ack: {ack}"
    );
    if ack.ends_with("cached") {
        let done = c.terminal(id);
        return done
            .strip_prefix(&format!("done {id} "))
            .unwrap_or_else(|| panic!("expected done, got {done}"))
            .to_string();
    }
    let done = c.terminal(id);
    done.strip_prefix(&format!("done {id} "))
        .unwrap_or_else(|| panic!("expected done, got {done}"))
        .to_string()
}

#[test]
fn saturated_mixed_workload_is_byte_identical_and_prioritized() {
    let dir = scratch("mixed");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 1, // serialized execution makes the FIFO evidence exact
        queue_depth: 64,
        ..ServeOptions::default()
    })
    .expect("server starts");
    let socket = server.socket().to_path_buf();

    // Plug the lone worker with a long bulk run so every request below
    // is admitted while the worker is busy and measures *queue* latency
    // under saturation. The plug is long relative to admission (~100ms
    // of simulation vs ~ms of socket writes).
    let mut plug = Client::connect(&socket, None);
    plug.send("run plug prio=bulk src=bench:stream_hi_ilp@0x1 cfg=Baseline_2 len=w0m600000");
    assert_eq!(plug.recv(), "ack plug queued prio=bulk");
    // The first progress line proves the worker is busy.
    assert!(plug.recv().starts_with("progress plug "));

    // Mixed fleet: 9 bulk + 6 interactive client threads, one distinct
    // cell each, all admitted while the worker is plugged.
    let benches = ["fp_compute", "mix_int", "branchy_int"];
    let results: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut threads = Vec::new();
    for t in 0..9 {
        let socket = socket.clone();
        let results = Arc::clone(&results);
        let bench = benches[t % benches.len()].to_string();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(&socket, None);
            let req = format!("src=bench:{bench}@0x{t} cfg=SpecSched_4 len=w200m12000");
            let done = run_to_done(&mut c, &format!("b{t}"), "bulk", &req);
            results.lock().unwrap().insert(req, done);
        }));
    }
    for t in 0..6 {
        let socket = socket.clone();
        let results = Arc::clone(&results);
        let bench = benches[t % benches.len()].to_string();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(&socket, None);
            let req = format!("src=bench:{bench}@0xa{t} cfg=Baseline_2 len=w100m1500");
            let done = run_to_done(&mut c, &format!("i{t}"), "interactive", &req);
            results.lock().unwrap().insert(req, done);
        }));
    }
    for t in threads {
        t.join().expect("client thread");
    }
    let plug_done = plug.terminal("plug");
    assert!(plug_done.starts_with("done plug "), "{plug_done}");

    // Byte identity: each served result equals the offline reference.
    let results = results.lock().unwrap();
    assert_eq!(results.len(), 15);
    for (req, served) in results.iter() {
        let offline = req
            .parse::<RunRequest>()
            .expect("wire text parses")
            .execute()
            .expect("offline run")
            .stats;
        let served_stats = stats_from_wire(served).expect("served stats parse");
        assert_eq!(
            served_stats, offline,
            "served result diverged from offline for `{req}`"
        );
    }

    // FIFO within each priority class: admission order = execution order.
    let log = server.exec_log();
    assert_eq!(log.len(), 16, "plug + 15 soak cells executed");
    for class in [Priority::Interactive, Priority::Normal, Priority::Bulk] {
        let seqs: Vec<u64> = log
            .iter()
            .filter(|(p, _)| *p == class)
            .map(|&(_, s)| s)
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "{} executed out of admission order: {seqs:?}",
            class.tag()
        );
    }

    // Priority inversion check: every interactive cell ran before every
    // queued bulk cell (the plug, seq 0, was already running).
    let first_bulk = log
        .iter()
        .position(|&(p, s)| p == Priority::Bulk && s > 0)
        .expect("bulk cells ran");
    let last_interactive = log
        .iter()
        .rposition(|&(p, _)| p == Priority::Interactive)
        .expect("interactive cells ran");
    assert!(
        last_interactive < first_bulk,
        "interactive work did not overtake queued bulk work: {log:?}"
    );

    // And the queue-wait distributions agree: interactive p99 < bulk p99.
    let m = Client::connect(&socket, None).metrics();
    assert_eq!(m["wait.interactive.n"], 6);
    assert_eq!(m["wait.bulk.n"], 10);
    assert!(
        m["wait.interactive.p99_us"] < m["wait.bulk.p99_us"],
        "interactive p99 {}µs !< bulk p99 {}µs",
        m["wait.interactive.p99_us"],
        m["wait.bulk.p99_us"]
    );

    assert_eq!(m["completed"], 16);
    assert_eq!(m["rejected"], 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_interrupts_and_admission_control_rejects() {
    let dir = scratch("control");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 1,
        queue_depth: 2,
        ..ServeOptions::default()
    })
    .expect("server starts");
    let socket = server.socket().to_path_buf();
    let mut c = Client::connect(&socket, None);

    // A long bulk cell occupies the worker...
    c.send("run victim prio=bulk src=bench:stream_hi_ilp@0x9 cfg=SpecSched_4 len=w0m800000");
    assert_eq!(c.recv(), "ack victim queued prio=bulk");
    assert!(c.recv().starts_with("progress victim "));

    // ...two more fill the bounded queue to its limit...
    c.send("run q1 prio=bulk src=bench:fp_compute@0x91 cfg=SpecSched_4 len=w0m5000");
    c.send("run q2 prio=bulk src=bench:fp_compute@0x92 cfg=SpecSched_4 len=w0m5000");
    assert_eq!(c.terminal("q1"), "ack q1 queued prio=bulk");
    assert_eq!(c.terminal("q2"), "ack q2 queued prio=bulk");

    // ...so the next request is refused, typed and immediate — no hang.
    c.send("run extra prio=interactive src=bench:mix_int@0x93 cfg=SpecSched_4 len=w0m1000");
    assert_eq!(c.terminal("extra"), "overloaded extra depth=2 limit=2");

    // Cancelling the running cell stops it mid-measurement with the
    // typed error; the committed count proves it was genuinely running.
    c.send("cancel victim");
    let mut cancelled = None;
    for _ in 0..64 {
        let line = c.recv();
        if line.starts_with("progress ") || line == "ack victim cancel" {
            continue;
        }
        cancelled = Some(line);
        break;
    }
    let cancelled = cancelled.expect("terminal reply for victim");
    assert!(
        cancelled.starts_with("err victim run cancelled after "),
        "expected typed cancellation, got {cancelled}"
    );
    let committed: u64 = cancelled
        .split(' ')
        .nth(5)
        .and_then(|w| w.parse().ok())
        .expect("committed count in message");
    assert!(
        committed > 0 && committed < 800_000,
        "cancel landed mid-run, not at an edge: {committed}"
    );

    // The queued cells still complete normally afterwards.
    assert!(c.terminal("q1").starts_with("done q1 "));
    assert!(c.terminal("q2").starts_with("done q2 "));
    assert_eq!(c.metrics()["rejected"], 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
