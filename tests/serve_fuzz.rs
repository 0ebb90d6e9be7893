//! Seeded protocol fuzz against a live `experiments serve` socket.
//!
//! Mutants of valid protocol lines — bit flips, truncations, byte
//! inserts, duplicated/swapped tokens, oversized lines, raw binary,
//! and spliced hybrids — are thrown at the server. The contract:
//!
//! * every reply the server writes is a line of the typed protocol
//!   grammar (malformed input earns an `err …`, never silence),
//! * a connection is only ever closed *after* a typed refusal
//!   (oversized or non-UTF-8 lines) or a clean `pong`,
//! * the server neither panics nor hangs: a fresh `ping` round-trips
//!   after the whole campaign, and a clean run still produces results
//!   byte-identical to the offline reference.

use speculative_scheduling::core::RunRequest;
use speculative_scheduling::harness::serve::{stats_from_wire, ServeOptions, Server};
use speculative_scheduling::types::SplitMix64;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-fuzz-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Seed lines every mutation starts from. Run lengths are tiny
/// (`w10m100`) so mutants that stay parseable execute in microseconds.
const CORPUS: &[&str] = &[
    "ping",
    "metrics",
    "cancel ghost",
    "run m1 src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w10m100",
    "run m2 prio=interactive src=bench:mix_int@0x7 cfg=Baseline_2 len=w10m100",
    "run m3 prio=bulk src=gen:0x12 cfg=SpecSched_4_Crit len=w10m100 check=1",
];

/// One seeded mutant: raw bytes, possibly non-UTF-8, no trailing newline.
fn mutate(rng: &mut SplitMix64) -> Vec<u8> {
    let base = CORPUS[(rng.next_u64() % CORPUS.len() as u64) as usize]
        .as_bytes()
        .to_vec();
    match rng.next_u64() % 8 {
        // Bit flip at a random position.
        0 => {
            let mut b = base;
            let i = (rng.next_u64() % b.len() as u64) as usize;
            b[i] ^= 1 << (rng.next_u64() % 8);
            b
        }
        // Truncate mid-token.
        1 => {
            let mut b = base;
            b.truncate((rng.next_u64() % b.len() as u64) as usize);
            b
        }
        // Insert one random byte.
        2 => {
            let mut b = base;
            let i = (rng.next_u64() % (b.len() as u64 + 1)) as usize;
            b.insert(i, (rng.next_u64() % 256) as u8);
            b
        }
        // Duplicate a random whitespace token (duplicate-key attack).
        3 => {
            let s = String::from_utf8(base).expect("corpus is UTF-8");
            let toks: Vec<&str> = s.split(' ').collect();
            let dup = toks[(rng.next_u64() % toks.len() as u64) as usize];
            format!("{s} {dup}").into_bytes()
        }
        // Swap two tokens.
        4 => {
            let s = String::from_utf8(base).expect("corpus is UTF-8");
            let mut toks: Vec<&str> = s.split(' ').collect();
            let i = (rng.next_u64() % toks.len() as u64) as usize;
            let j = (rng.next_u64() % toks.len() as u64) as usize;
            toks.swap(i, j);
            toks.join(" ").into_bytes()
        }
        // Blow straight through MAX_LINE_BYTES.
        5 => {
            let mut b = base;
            b.extend(std::iter::repeat_n(b'x', 100 * 1024));
            b
        }
        // Raw binary garbage, deliberately including non-UTF-8.
        6 => {
            let n = 1 + (rng.next_u64() % 64) as usize;
            (0..n).map(|_| (rng.next_u64() % 256) as u8).collect()
        }
        // Splice two corpus lines at random offsets.
        _ => {
            let other = CORPUS[(rng.next_u64() % CORPUS.len() as u64) as usize].as_bytes();
            let cut_a = (rng.next_u64() % (base.len() as u64 + 1)) as usize;
            let cut_b = (rng.next_u64() % (other.len() as u64 + 1)) as usize;
            let mut b = base[..cut_a].to_vec();
            b.extend_from_slice(&other[cut_b..]);
            b
        }
    }
}

/// Mutants that would legitimately stop or kill the server are out of
/// scope — the campaign measures robustness, not the off switch.
fn is_forbidden(mutant: &[u8]) -> bool {
    String::from_utf8_lossy(mutant)
        .lines()
        .any(|l| l.trim_start().starts_with("shutdown") || l.trim_start().starts_with("poison"))
}

/// Every reply line must belong to the typed protocol grammar.
fn is_typed_reply(line: &str) -> bool {
    ["err ", "overloaded ", "ack ", "done ", "progress "]
        .iter()
        .any(|p| line.starts_with(p))
        || line == "pong"
        || line.starts_with("metrics ")
}

/// What one mutant connection observed.
struct Outcome {
    /// Typed `err` replies seen.
    errs: u32,
    /// The trailing `ping` round-tripped on this same connection.
    ponged: bool,
}

/// Drives one connection: mutant bytes (possibly split mid-write), then
/// a `ping`, then reads until `pong` or a close. A read timeout is a
/// hang, and a hang is a failure.
fn drive(socket: &Path, mutant: &[u8], split_at: Option<usize>) -> Outcome {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    match split_at {
        // Interleaved partial write: half the line, a pause shorter
        // than the server's read timeout, then the rest.
        Some(cut) if cut < mutant.len() => {
            let _ = stream.write_all(&mutant[..cut]);
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(5));
            let _ = stream.write_all(&mutant[cut..]);
        }
        _ => {
            let _ = stream.write_all(mutant);
        }
    }
    let _ = stream.write_all(b"\nping\n");
    let _ = stream.flush();
    let mut reader = BufReader::new(stream);
    let mut out = Outcome {
        errs: 0,
        ponged: false,
    };
    loop {
        let mut buf = Vec::new();
        match reader.read_until(b'\n', &mut buf) {
            // Clean close: only legal after a typed refusal (the loop
            // body already checked every prior line was typed).
            Ok(0) => break,
            Ok(_) => {
                let line = String::from_utf8_lossy(&buf);
                let line = line.trim_end();
                assert!(
                    is_typed_reply(line),
                    "untyped server reply to mutant {:?}: {line:?}",
                    String::from_utf8_lossy(mutant)
                );
                if line.starts_with("err ") {
                    out.errs += 1;
                }
                if line == "pong" {
                    out.ponged = true;
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!(
                    "server hung for 20s on mutant {:?}",
                    String::from_utf8_lossy(mutant)
                );
            }
            // Hard reset while our bytes were still in flight — the
            // close itself is the (permitted) refusal.
            Err(_) => break,
        }
    }
    out
}

#[test]
fn seeded_protocol_mutants_always_earn_typed_replies_and_never_wedge() {
    let dir = scratch("campaign");
    let server = Server::start(ServeOptions {
        socket: dir.join("serve.sock"),
        jobs: 2,
        queue_depth: 16,
        ..ServeOptions::default()
    })
    .expect("server starts");
    let socket = server.socket().to_path_buf();

    let mut rng = SplitMix64::new(0xF0_22ED);
    let mut errs = 0u32;
    let mut ponged = 0u32;
    let mut driven = 0u32;
    for _ in 0..220 {
        let mutant = mutate(&mut rng);
        if is_forbidden(&mutant) {
            continue;
        }
        // Every fourth mutant arrives as two interleaved partial writes.
        let split_at = if rng.next_u64().is_multiple_of(4) && !mutant.is_empty() {
            Some((rng.next_u64() % mutant.len() as u64) as usize)
        } else {
            None
        };
        let outcome = drive(&socket, &mutant, split_at);
        errs += outcome.errs;
        ponged += u32::from(outcome.ponged);
        driven += 1;
    }
    // The campaign must actually exercise the error paths, and most
    // connections must survive to their trailing ping (only oversized
    // and non-UTF-8 mutants may close first).
    assert!(driven >= 200, "forbidden-filter ate the campaign: {driven}");
    assert!(
        errs >= 50,
        "campaign produced almost no typed errors: {errs}"
    );
    assert!(
        ponged >= driven / 2,
        "most connections should survive to the trailing ping: {ponged}/{driven}"
    );

    let mut c = UnixStream::connect(&socket).expect("connect after campaign");
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(c.try_clone().expect("clone"));

    // Zero panics: the pool never lost a worker to malformed input.
    c.write_all(b"metrics\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    let metrics: HashMap<&str, u64> = line
        .trim_end()
        .strip_prefix("metrics ")
        .unwrap_or_else(|| panic!("expected metrics, got {line}"))
        .split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k, v.parse().expect("metrics value")))
        .collect();
    assert_eq!(metrics["restarted"], 0, "a mutant killed a worker");
    assert_eq!(metrics["panics_caught"], 0, "a mutant panicked a worker");

    // And the server still does real work, byte-identically.
    let req = "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000";
    c.write_all(format!("run final {req}\nping\n").as_bytes())
        .expect("send");
    let text = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("recv") > 0);
        if line.starts_with("done final ") {
            break line.trim_end().to_string();
        }
    };
    let payload = text.strip_prefix("done final ").expect("done payload");
    let offline = req
        .parse::<RunRequest>()
        .expect("request parses")
        .execute()
        .expect("offline run")
        .stats;
    assert_eq!(
        stats_from_wire(payload).expect("served stats parse"),
        offline,
        "post-campaign result diverged from the offline reference"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
