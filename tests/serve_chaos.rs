//! Pins for the self-healing service layer:
//!
//! * **Supervision** — a `poison`ed worker thread dies with an
//!   uncontained panic, the supervisor respawns it, and the pool serves
//!   byte-identical results afterwards at full strength.
//! * **Deadlines** — a `deadline=`-tagged request that blows its budget
//!   ends with the typed `deadline exceeded` error carrying committed
//!   evidence, while concurrent requests finish normally.
//! * **Drain** — graceful shutdown with work in flight completes within
//!   the grace bound and every casualty gets a typed error, never a
//!   silent close.

mod common;

use common::Client;
use speculative_scheduling::core::RunRequest;
use speculative_scheduling::harness::serve::{stats_from_wire, ServeOptions, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a read may wait before the test fails instead of hanging.
const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-chaos-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The offline reference a served `done` payload must match bytewise.
fn offline(req: &str) -> speculative_scheduling::types::SimStats {
    req.parse::<RunRequest>()
        .expect("request parses")
        .execute()
        .expect("offline run")
        .stats
}

#[test]
fn poisoned_workers_are_respawned_and_results_stay_byte_identical() {
    let dir = scratch("poison");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 2,
        allow_poison: true,
        ..ServeOptions::default()
    })
    .expect("server starts");
    let mut c = Client::connect(server.socket(), TIMEOUT);

    // Kill both workers, one after the other. The ack is guaranteed to
    // precede the dying worker's reply (admission holds the writer lock
    // across the queue push).
    for id in ["p1", "p2"] {
        c.send(&format!("poison {id}"));
        assert_eq!(c.recv(), format!("ack {id} poison"));
        let died = c.terminal(id);
        assert!(
            died.starts_with(&format!("err {id} worker poisoned")),
            "expected a typed poison reply, got {died}"
        );
    }

    // The supervisor notices the corpses and respawns: the pool returns
    // to full strength.
    let t0 = Instant::now();
    loop {
        let restarted = c.metrics()["restarted"];
        if restarted >= 2 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "supervisor never respawned the poisoned workers \
             (restarted={restarted})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let t0 = Instant::now();
    loop {
        let h = c.metrics();
        if h["live"] == 2 && h["busy"] == 0 {
            assert_eq!(h["workers"], 2);
            assert!(h["restarted"] >= 2);
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "pool never returned to full strength: {h:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // And the healed pool still produces byte-identical results.
    let req = "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000";
    c.send(&format!("run c1 {req}"));
    let ack = c.recv();
    assert!(ack.starts_with("ack c1 "), "unexpected ack: {ack}");
    let done = c.terminal("c1");
    let payload = done
        .strip_prefix("done c1 ")
        .unwrap_or_else(|| panic!("expected done, got {done}"));
    assert_eq!(
        stats_from_wire(payload).expect("served stats parse"),
        offline(req),
        "post-respawn result diverged from the offline reference"
    );

    // Poison is an uncontained kill, not a caught panic.
    let m = c.metrics();
    assert_eq!(m["restarted"], 2);
    assert_eq!(m["panics_caught"], 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_exceeded_is_typed_with_evidence_while_neighbors_finish() {
    let dir = scratch("deadline");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 2,
        ..ServeOptions::default()
    })
    .expect("server starts");

    // One request that cannot possibly finish inside its 25ms budget...
    let mut doomed = Client::connect(server.socket(), TIMEOUT);
    doomed.send(
        "run d1 src=bench:stream_hi_ilp@0x7 cfg=SpecSched_4 \
         len=w1000m400000000 deadline=25",
    );
    assert!(doomed.recv().starts_with("ack d1 "));

    // ...while a neighbor on the second worker finishes normally.
    let mut fine = Client::connect(server.socket(), TIMEOUT);
    let req = "src=bench:mix_int@0xb5 cfg=Baseline_4 len=w200m2000";
    fine.send(&format!("run n1 {req}"));
    assert!(fine.recv().starts_with("ack n1 "));
    let done = fine.terminal("n1");
    let payload = done
        .strip_prefix("done n1 ")
        .unwrap_or_else(|| panic!("expected done, got {done}"));
    assert_eq!(
        stats_from_wire(payload).expect("served stats parse"),
        offline(req),
        "neighbor result diverged while a deadline was firing"
    );

    // The doomed request ends with the typed error and real evidence.
    let err = doomed.terminal("d1");
    assert!(
        err.starts_with("err d1 deadline exceeded after "),
        "expected the typed deadline error, got {err}"
    );
    assert!(err.ends_with("(budget 25 ms)"), "budget missing: {err}");
    let committed: u64 = err
        .split(' ')
        .nth(5)
        .and_then(|w| w.parse().ok())
        .expect("committed count in the message");
    assert!(
        committed > 0 && committed < 400_000_000,
        "deadline fired mid-run, not at an edge: {committed}"
    );
    assert_eq!(doomed.metrics()["deadline_exceeded"], 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_grace_bounds_shutdown_and_types_every_casualty() {
    let dir = scratch("drain");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 1,
        drain_grace_ms: 400,
        ..ServeOptions::default()
    })
    .expect("server starts");
    let mut c = Client::connect(server.socket(), TIMEOUT);

    // One run occupying the lone worker indefinitely...
    c.send("run r1 src=bench:stream_hi_ilp@0x3 cfg=SpecSched_4 len=w1000m400000000");
    assert!(c.recv().starts_with("ack r1 "));
    assert!(c.recv().starts_with("progress r1 "));
    // ...and one queued behind it that will never get the worker.
    c.send("run q1 src=bench:fp_compute@0x4 cfg=SpecSched_4 len=w200m2000");
    assert!(c.recv().starts_with("ack q1 "));

    // Shutdown must drain within the grace bound, not hang on the
    // endless run.
    let t0 = Instant::now();
    server.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "drain blew far past its 400ms grace: {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(300),
        "drain returned before the grace window could elapse: {elapsed:?}"
    );

    // Both casualties got typed errors before the close.
    let replies = c.drain_lines(256);
    assert!(
        replies
            .iter()
            .any(|l| l.starts_with("err q1 server shutting down (drain grace expired)")),
        "queued casualty got no typed drain error: {replies:?}"
    );
    assert!(
        replies
            .iter()
            .any(|l| l.starts_with("err r1 run cancelled after ")),
        "running casualty got no typed cancellation: {replies:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
