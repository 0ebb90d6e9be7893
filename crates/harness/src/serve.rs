//! Simulation-as-a-service: the `experiments serve` resident batch
//! server.
//!
//! A long-lived process keeps hot state across requests — an in-memory
//! results front (over a read-only view of a sweep's results [`Store`])
//! and the per-(config, source) cost history, both [`BoundedMap`]s of
//! [`RESULTS_FRONT_CAPACITY`] entries — and executes [`RunRequest`]s
//! received over a Unix-domain socket, line by line. No async runtime,
//! no dependencies: a threaded accept loop, [`PrioQueue`] worker
//! dispatch, and plain `std::os::unix::net` sockets. The socket is the
//! only way to observe the server: the `metrics` verb reports every
//! counter, gauge and resident-map size.
//!
//! # Protocol
//!
//! One UTF-8 line per message (at most 64 KiB). Client → server:
//!
//! ```text
//! run <id> [prio=interactive|normal|bulk] <request-text>
//! cancel <id>
//! metrics
//! ping
//! poison <id>          # chaos hook, only with --allow-poison
//! shutdown
//! ```
//!
//! `<request-text>` is the canonical [`RunRequest`] encoding
//! (`src=bench:fp_compute@0xb5 cfg=SpecSched_4_Crit len=w1000m5000 …`,
//! optionally carrying a `deadline=<ms>` wall-clock budget);
//! `<id>` is a client-chosen token scoped to the connection. A
//! `fork=snap:PATH` request reads and verifies its snapshot file on the
//! worker, each time it runs, as `experiments run --req` does. Server →
//! client:
//!
//! ```text
//! ack <id> queued prio=<class> | ack <id> cached | ack <id> cancel
//! progress <id> <done>/<total>
//! done <id> <k=v ...>              # wire-encoded SimStats (stats_to_wire)
//! err <id> <message>               # typed SimError rendering
//! overloaded <id> depth=<d> limit=<l>
//! metrics <k=v ...> | pong | bye
//! ```
//!
//! # Scheduling policy
//!
//! Admitted requests land in one of three FIFO classes —
//! interactive > normal > bulk — selected by an explicit `prio=`
//! override or, absent one, by the exponential moving average of past
//! wall-clock cost for the request's `(config, kernel)` cell
//! ([`RunRequest::cost_key`], [`CostEma`], α = 1/4): at most 200 ms
//! predicted runs interactive, at least 2 s bulk, and unknown cells run
//! normal. Admission is bounded: when the queue holds `queue_depth`
//! requests the server answers `overloaded` immediately
//! ([`SimError::Overloaded`]) instead of queueing or blocking. Each
//! running request polls its [`CancelFlag`] between bounded chunks, so
//! `cancel` interrupts mid-simulation with a typed
//! [`SimError::Cancelled`].
//!
//! # Failure model
//!
//! The server assumes every component around a request can fail and
//! stays available through all of them (see DESIGN.md, "Service failure
//! model"):
//!
//! * **Worker panics** are contained per job (`catch_unwind`): the
//!   client gets a typed `err` line and the worker survives. A panic
//!   that kills a worker thread anyway (the `poison` chaos hook does
//!   this deliberately) is detected by a supervisor thread that joins
//!   the corpse and respawns a replacement, counting `workers_restarted`.
//! * **Slow or vanished clients** cannot wedge the server: readers wake
//!   every second to check for shutdown, and a reply write that fails
//!   or stays blocked for 5 s marks the client vanished
//!   (`clients_vanished`), cancels its in-flight runs, and frees the
//!   reader thread. A client disconnect mid-run cancels that
//!   connection's orphaned runs the same way.
//! * **Runaway simulations** are bounded by the request's own
//!   `deadline=<ms>` budget, enforced between measurement chunks as
//!   [`SimError::DeadlineExceeded`] with committed-µ-op evidence.
//! * **Shutdown drains**: new work is refused, queued and running
//!   requests get `drain_grace_ms` to finish, then stragglers are
//!   cancelled with typed errors and the process exits.
//!
//! `metrics` reports the live counters behind all of this; the
//! `experiments chaos` harness drives every one of these paths against
//! a real server under a seeded fault schedule.

use crate::cli::{self, Args};
use crate::store::Store;
use ss_core::RunRequest;
pub use ss_types::stats::{stats_from_wire, stats_to_wire};
use ss_types::{
    Backoff, BoundedMap, CancelFlag, CostEma, PrioQueue, Priority, PushError, SimError, SimStats,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest accepted protocol line, in bytes. Anything larger is a
/// protocol error, not a memory commitment.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Results the server keeps in memory, however many requests it serves.
/// A result evicted from this front is simulated again (or re-read from
/// the results store) when next asked for. The cost history keeps as
/// many cells; an evicted cell classifies as unknown (normal) again.
pub const RESULTS_FRONT_CAPACITY: usize = 4096;

/// Executed jobs kept in the [`Server::exec_log`] evidence ring.
pub const EXEC_LOG_CAPACITY: usize = 1024;

/// EMA-predicted cost (wall ms) at or below which a cell classifies as
/// interactive.
const INTERACTIVE_MAX_MS: u64 = 200;

/// EMA-predicted cost (wall ms) at or above which a cell classifies as
/// bulk.
const BULK_MIN_MS: u64 = 2_000;

/// Socket read timeout: how often an idle reader thread wakes to check
/// shutdown and liveness (it does NOT disconnect idle clients).
const READ_TIMEOUT: Duration = Duration::from_millis(1_000);

/// Socket write timeout: a reply blocked longer than this marks the
/// client vanished and cancels its in-flight runs.
const WRITE_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Resident worker threads executing requests.
    pub jobs: usize,
    /// Admission-control bound: queued (not yet running) requests.
    pub queue_depth: usize,
    /// Checkpoint (or `--out`) directory of a prior sweep whose results
    /// store, `DIR/cache`, answers requests for its cells. Read-only:
    /// the server never writes, deletes or renames a file there.
    pub checkpoint_dir: Option<PathBuf>,
    /// Graceful-shutdown budget: queued and running requests get this
    /// long to finish before being cancelled with typed errors.
    pub drain_grace_ms: u64,
    /// Enables the `poison` protocol verb (deliberately kills a worker
    /// thread to exercise supervisor respawn). Chaos testing only.
    pub allow_poison: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("experiments.sock"),
            jobs: 2,
            queue_depth: 64,
            checkpoint_dir: None,
            drain_grace_ms: 5_000,
            allow_poison: false,
        }
    }
}

impl ServeOptions {
    /// Rejects configurations that cannot run sanely — zero or absurd
    /// worker counts and queue bounds — with a typed
    /// [`SimError::ConfigInvalid`] instead of silently clamping or
    /// wedging later.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |m: String| Err(SimError::ConfigInvalid(m));
        if self.jobs == 0 {
            return bad(
                "serve: --jobs must be ≥ 1 (a server with no workers hangs every request)".into(),
            );
        }
        if self.jobs > cli::MAX_JOBS {
            return bad(format!(
                "serve: --jobs {} is absurd (max {})",
                self.jobs,
                cli::MAX_JOBS
            ));
        }
        if self.queue_depth == 0 {
            return bad("serve: --queue-depth must be ≥ 1 (0 rejects every request)".into());
        }
        if self.queue_depth > 65_536 {
            return bad(format!(
                "serve: --queue-depth {} is absurd (max 65536)",
                self.queue_depth
            ));
        }
        Ok(())
    }
}

/// Why [`Server::start`] refused to come up.
#[derive(Debug)]
pub enum StartError {
    /// The [`ServeOptions`] failed [`ServeOptions::validate`].
    Config(SimError),
    /// Binding or preparing the socket failed.
    Io(std::io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid server configuration: {e}"),
            StartError::Io(e) => write!(f, "socket setup failed: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// One client connection's shared write half plus liveness and the
/// registry of its in-flight request ids.
struct Conn {
    stream: Mutex<UnixStream>,
    /// Cleared on the first failed write (or disconnect); checked before
    /// every send so a vanished client costs at most one timeout.
    alive: AtomicBool,
    /// id → cancel flag for this connection's admitted, unfinished runs.
    inflight: Mutex<HashMap<String, Arc<CancelFlag>>>,
}

/// One admitted request travelling from the reader thread to a worker.
struct Job {
    /// Global admission sequence number (FIFO evidence).
    seq: u64,
    /// Client-chosen request id, echoed on every reply line.
    id: String,
    prio: Priority,
    /// Canonical request text — the results-cache key.
    canonical: String,
    req: RunRequest,
    cost_key: String,
    cancel: Arc<CancelFlag>,
    enqueued: Instant,
    out: Arc<Conn>,
}

/// What a worker pops off the queue.
enum Task {
    /// A real simulation request.
    Run(Box<Job>),
    /// Chaos hook: reply, then kill this worker thread with an
    /// uncontained panic so the supervisor has a corpse to find.
    Poison { id: String, out: Arc<Conn> },
}

/// Sub-buckets per power of two in a [`LatencyHistogram`]: 2^4 = 16, so
/// a bucket spans at most 1/16 (6.25%) of its lower bound.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering all of `u64`: `SUB` exact buckets below `SUB`, then
/// `SUB` per power of two up to 2^63.
const BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// A fixed-size latency histogram: log2 buckets, each split into 16
/// linear sub-buckets. Recording a sample increments one counter, so a
/// resident server's memory stays flat however many jobs it runs.
/// Percentiles report the upper bound of the bucket holding the
/// nearest-rank sample.
struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
    }

    /// The largest value that lands in bucket `b`.
    fn upper_bound(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let shift = (b / SUB - 1) as u32;
        let lower = ((SUB + b % SUB) as u64) << shift;
        lower.saturating_add((1u64 << shift) - 1)
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0 < p ≤ 100), `None` when empty.
    fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::upper_bound(b));
            }
        }
        unreachable!("rank ≤ total")
    }

    /// Median.
    fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 99th percentile.
    fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }
}

/// Shared server state: everything resident across requests.
struct ServerState {
    opts: ServeOptions,
    queue: PrioQueue<Task>,
    /// The in-memory front of the results cache: canonical request
    /// text → statistics.
    results: Mutex<BoundedMap<SimStats>>,
    /// Read-only view of the checkpoint directory's results store.
    store: Option<Store>,
    /// Per-cell wall-cost averages that classify requests without `prio=`.
    ema: Mutex<CostEma>,
    /// admission seq → cancel flag for every unfinished run (the drain
    /// path's kill list): at most `queue_depth + jobs` entries.
    inflight: Mutex<HashMap<u64, Arc<CancelFlag>>>,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics_caught: AtomicU64,
    workers_restarted: AtomicU64,
    clients_vanished: AtomicU64,
    drain_cancelled: AtomicU64,
    live_workers: AtomicU64,
    busy_workers: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// (class, admission seq) of the last [`EXEC_LOG_CAPACITY`] executed
    /// jobs, in execution order.
    exec_log: Mutex<VecDeque<(Priority, u64)>>,
    /// Queue wait (µs) per class, indexed by [`Priority::index`].
    wait_us: Mutex<[LatencyHistogram; 3]>,
}

/// A running server: background accept loop, supervised worker pool,
/// and a monitor thread that respawns dead workers and runs the
/// shutdown drain. Dropping the handle does NOT stop the server; call
/// [`Server::shutdown`] (or send `shutdown` over the socket, then
/// [`Server::join`]).
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
    monitor: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<Option<std::thread::JoinHandle<()>>>>>,
}

impl Server {
    /// Validates the options, binds the socket, and starts the worker
    /// pool, its supervisor, and the accept loop.
    pub fn start(opts: ServeOptions) -> Result<Server, StartError> {
        opts.validate().map_err(StartError::Config)?;
        // A stale socket file from a dead server would fail the bind.
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket).map_err(StartError::Io)?;
        let store = opts.checkpoint_dir.as_ref().map(|dir| {
            eprintln!(
                "[serve: reading cached results from {}/cache]",
                dir.display()
            );
            Store::at(dir.join("cache"))
        });
        let state = Arc::new(ServerState {
            queue: PrioQueue::new(opts.queue_depth),
            results: Mutex::new(BoundedMap::new(RESULTS_FRONT_CAPACITY)),
            store,
            ema: Mutex::new(CostEma::new(RESULTS_FRONT_CAPACITY)),
            inflight: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            workers_restarted: AtomicU64::new(0),
            clients_vanished: AtomicU64::new(0),
            drain_cancelled: AtomicU64::new(0),
            live_workers: AtomicU64::new(0),
            busy_workers: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            exec_log: Mutex::new(VecDeque::with_capacity(EXEC_LOG_CAPACITY)),
            wait_us: Mutex::default(),
            opts,
        });
        let workers = Arc::new(Mutex::new(
            (0..state.opts.jobs)
                .map(|_| Some(spawn_worker(&state)))
                .collect::<Vec<_>>(),
        ));
        let monitor = {
            let st = Arc::clone(&state);
            let wk = Arc::clone(&workers);
            std::thread::spawn(move || monitor_loop(&st, &wk))
        };
        let accept = {
            let st = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&st, listener))
        };
        Ok(Server {
            state,
            accept: Some(accept),
            monitor: Some(monitor),
            workers,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.state.opts.socket
    }

    /// `(class, admission-sequence)` of the last [`EXEC_LOG_CAPACITY`]
    /// executed requests, in execution order — the soak test's
    /// FIFO-within-priority evidence.
    pub fn exec_log(&self) -> Vec<(Priority, u64)> {
        let log = self.state.exec_log.lock().expect("exec log lock");
        log.iter().copied().collect()
    }

    /// Initiates shutdown (idempotent), drains with the configured
    /// grace, and joins every thread.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.state.opts.socket);
        self.join_threads();
        let _ = std::fs::remove_file(&self.state.opts.socket);
    }

    /// Waits for a socket-initiated `shutdown` to finish.
    pub fn join(mut self) {
        self.join_threads();
        let _ = std::fs::remove_file(&self.state.opts.socket);
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The monitor exits only after the drain completes, and it is
        // the only thread that respawns workers — joining it first makes
        // the worker sweep below race-free.
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = {
            let mut slots = self.workers.lock().expect("worker slots lock");
            slots.iter_mut().filter_map(Option::take).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

fn spawn_worker(state: &Arc<ServerState>) -> std::thread::JoinHandle<()> {
    let st = Arc::clone(state);
    std::thread::spawn(move || worker_loop(&st))
}

/// Panic-safe gauge: increments on creation, decrements on drop — the
/// drop also runs during unwinding, so `live_workers`/`busy_workers`
/// stay truthful when a worker dies mid-job.
struct Gauge<'a>(&'a AtomicU64);

impl<'a> Gauge<'a> {
    fn new(counter: &'a AtomicU64) -> Gauge<'a> {
        counter.fetch_add(1, Ordering::SeqCst);
        Gauge(counter)
    }
}

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Supervisor: respawns workers that died to an uncontained panic, and
/// runs the graceful drain once shutdown starts.
fn monitor_loop(
    state: &Arc<ServerState>,
    workers: &Arc<Mutex<Vec<Option<std::thread::JoinHandle<()>>>>>,
) {
    loop {
        let shutting_down = state.shutdown.load(Ordering::SeqCst);
        {
            let mut slots = workers.lock().expect("worker slots lock");
            for slot in slots.iter_mut() {
                let dead = matches!(slot, Some(h) if h.is_finished());
                if !dead {
                    continue;
                }
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
                // During shutdown workers exit normally (closed, empty
                // queue) — leave the slot empty instead of respawning.
                if !shutting_down {
                    state.workers_restarted.fetch_add(1, Ordering::SeqCst);
                    eprintln!("[serve: worker died, respawned]");
                    *slot = Some(spawn_worker(state));
                }
            }
        }
        if shutting_down {
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    drain(state);
}

/// Graceful drain: give queued + running requests `drain_grace_ms` to
/// finish, then cancel the stragglers with typed errors.
fn drain(state: &Arc<ServerState>) {
    let grace = Duration::from_millis(state.opts.drain_grace_ms);
    let t0 = Instant::now();
    while t0.elapsed() < grace {
        if state.queue.depth() == 0 && state.busy_workers.load(Ordering::SeqCst) == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Grace expired. First pull everything still queued (so no worker
    // picks it up), then cancel whatever is actually running.
    for task in state.queue.drain() {
        if let Task::Run(job) = task {
            state.drain_cancelled.fetch_add(1, Ordering::SeqCst);
            state
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&job.seq);
            job.out
                .inflight
                .lock()
                .expect("conn inflight lock")
                .remove(&job.id);
            send(
                state,
                &job.out,
                &format!("err {} server shutting down (drain grace expired)", job.id),
            );
        }
    }
    let flags: Vec<Arc<CancelFlag>> = {
        let inflight = state.inflight.lock().expect("inflight lock");
        inflight.values().cloned().collect()
    };
    for f in flags {
        f.cancel();
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: UnixListener) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => {
                let st = Arc::clone(state);
                std::thread::spawn(move || handle_connection(&st, s));
            }
            Err(e) => {
                eprintln!("[serve: accept error: {e}]");
                break;
            }
        }
    }
}

/// Writes one protocol line, reporting success. The first failed write
/// (broken pipe, write timeout) flips the connection dead and counts
/// one vanished client; every later send is a cheap no-op.
fn send(state: &ServerState, conn: &Conn, line: &str) -> bool {
    let stream = conn.stream.lock().expect("socket writer lock");
    send_via(state, conn, stream, line)
}

/// [`send`] through a caller-held writer lock. The admission path takes
/// the lock *before* publishing a job to the queue and writes its `ack`
/// through this, so a worker finishing instantly (cached result, tiny
/// run) queues its `done` behind the `ack` instead of overtaking it.
fn send_via(
    state: &ServerState,
    conn: &Conn,
    mut stream: std::sync::MutexGuard<'_, UnixStream>,
    line: &str,
) -> bool {
    if !conn.alive.load(Ordering::SeqCst) {
        return false;
    }
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let ok = stream.write_all(&buf).and_then(|()| stream.flush()).is_ok();
    drop(stream);
    if !ok && conn.alive.swap(false, Ordering::SeqCst) {
        state.clients_vanished.fetch_add(1, Ordering::SeqCst);
    }
    ok
}

/// One bounded line read off the socket.
enum ReadOutcome {
    Line(String),
    /// The read timeout elapsed with no complete line — poll liveness
    /// and try again.
    Timeout,
    /// The line exceeded [`MAX_LINE_BYTES`].
    TooLong,
    BadUtf8,
    /// EOF or a hard read error.
    Closed,
}

/// Bounded, timeout-aware line reader: accumulates bytes via
/// `fill_buf`/`consume` so a single over-long or never-terminated line
/// can neither allocate unboundedly nor block the thread past the read
/// timeout.
struct LineReader {
    inner: BufReader<UnixStream>,
    partial: Vec<u8>,
}

impl LineReader {
    fn new(stream: UnixStream) -> LineReader {
        LineReader {
            inner: BufReader::new(stream),
            partial: Vec::new(),
        }
    }

    fn next_line(&mut self) -> ReadOutcome {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return ReadOutcome::Timeout;
                }
                Err(_) => return ReadOutcome::Closed,
            };
            if buf.is_empty() {
                return ReadOutcome::Closed;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.partial.extend_from_slice(&buf[..i]);
                    self.inner.consume(i + 1);
                    let bytes = std::mem::take(&mut self.partial);
                    if bytes.len() > MAX_LINE_BYTES {
                        return ReadOutcome::TooLong;
                    }
                    match String::from_utf8(bytes) {
                        Ok(s) => return ReadOutcome::Line(s),
                        Err(_) => return ReadOutcome::BadUtf8,
                    }
                }
                None => {
                    let n = buf.len();
                    self.partial.extend_from_slice(buf);
                    self.inner.consume(n);
                    if self.partial.len() > MAX_LINE_BYTES {
                        return ReadOutcome::TooLong;
                    }
                }
            }
        }
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream),
        alive: AtomicBool::new(true),
        inflight: Mutex::new(HashMap::new()),
    });
    let mut reader = LineReader::new(reader_half);
    loop {
        match reader.next_line() {
            ReadOutcome::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
                match verb {
                    "ping" => {
                        send(state, &conn, "pong");
                    }
                    "metrics" => {
                        send(state, &conn, &metrics_line(state));
                    }
                    "shutdown" => {
                        send(state, &conn, "bye");
                        state.shutdown.store(true, Ordering::SeqCst);
                        state.queue.close();
                        let _ = UnixStream::connect(&state.opts.socket);
                        break;
                    }
                    "cancel" => {
                        let id = rest.trim();
                        let flag = conn
                            .inflight
                            .lock()
                            .expect("conn inflight lock")
                            .get(id)
                            .cloned();
                        match flag {
                            Some(flag) => {
                                // Writer lock before the flag flips: the
                                // worker's `err … cancelled` reply must
                                // queue behind this `ack`.
                                let stream = conn.stream.lock().expect("socket writer lock");
                                flag.cancel();
                                send_via(state, &conn, stream, &format!("ack {id} cancel"));
                            }
                            None => {
                                send(state, &conn, &format!("err {id} unknown request id"));
                            }
                        }
                    }
                    "poison" => handle_poison(state, &conn, rest),
                    "run" => handle_run(state, &conn, rest),
                    other => {
                        send(state, &conn, &format!("err - unknown verb `{other}`"));
                    }
                }
            }
            ReadOutcome::Timeout => {
                if !conn.alive.load(Ordering::SeqCst) {
                    break;
                }
                if state.shutdown.load(Ordering::SeqCst)
                    && conn.inflight.lock().expect("conn inflight lock").is_empty()
                {
                    break;
                }
            }
            ReadOutcome::TooLong => {
                send(
                    state,
                    &conn,
                    &format!("err - line exceeds {MAX_LINE_BYTES} bytes"),
                );
                break;
            }
            ReadOutcome::BadUtf8 => {
                send(state, &conn, "err - line is not valid UTF-8");
                break;
            }
            ReadOutcome::Closed => break,
        }
    }
    // Teardown: a client that left runs behind has vanished — cancel
    // its orphans so they stop burning a worker.
    let orphans: Vec<Arc<CancelFlag>> = {
        let mut inflight = conn.inflight.lock().expect("conn inflight lock");
        inflight.drain().map(|(_, f)| f).collect()
    };
    if orphans.is_empty() {
        conn.alive.store(false, Ordering::SeqCst);
    } else {
        for f in &orphans {
            f.cancel();
        }
        if conn.alive.swap(false, Ordering::SeqCst) {
            state.clients_vanished.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The `metrics` payload, one `k=v` line: pool strength, queue depth
/// per class, request and failure counters, the size of each resident
/// map against its capacity, and queue wait per class
/// (`wait.{class}.n`, plus `wait.{class}.p50_us` and `.p99_us` once the
/// class has a sample).
fn metrics_line(state: &ServerState) -> String {
    let [qi, qn, qb] = state.queue.depths();
    let n = |c: &AtomicU64| c.load(Ordering::SeqCst);
    let (results, results_cap) = {
        let front = state.results.lock().expect("results lock");
        (front.len(), front.capacity())
    };
    let (ema_cells, ema_cap) = {
        let ema = state.ema.lock().expect("ema lock");
        (ema.len(), ema.capacity())
    };
    let mut line = format!(
        "metrics uptime_ms={} workers={} live={} busy={} restarted={} depth={} limit={} \
         qi={qi} qn={qn} qb={qb} inflight={} completed={} cached={} rejected={} cancelled={} \
         failed={} deadline_exceeded={} panics_caught={} clients_vanished={} \
         drain_cancelled={} results={results} results_cap={results_cap} \
         ema_cells={ema_cells} ema_cap={ema_cap}",
        state.started.elapsed().as_millis(),
        state.opts.jobs,
        n(&state.live_workers),
        n(&state.busy_workers),
        n(&state.workers_restarted),
        qi + qn + qb,
        state.queue.limit(),
        state.inflight.lock().expect("inflight lock").len(),
        n(&state.completed),
        n(&state.cache_hits),
        n(&state.rejected),
        n(&state.cancelled),
        n(&state.failed),
        n(&state.deadline_exceeded),
        n(&state.panics_caught),
        n(&state.clients_vanished),
        n(&state.drain_cancelled),
    );
    let wait = state.wait_us.lock().expect("wait lock");
    for class in Priority::ALL {
        let h = &wait[class.index()];
        let tag = class.tag();
        let _ = write!(line, " wait.{tag}.n={}", h.count());
        if let (Some(p50), Some(p99)) = (h.p50(), h.p99()) {
            let _ = write!(line, " wait.{tag}.p50_us={p50} wait.{tag}.p99_us={p99}");
        }
    }
    line
}

/// Admits a `poison <id>` chaos request (only with
/// [`ServeOptions::allow_poison`]): a worker will reply, then die to a
/// deliberate uncontained panic for the supervisor to clean up.
fn handle_poison(state: &Arc<ServerState>, conn: &Arc<Conn>, rest: &str) {
    let id = rest.trim();
    let id = if id.is_empty() { "-" } else { id };
    if !state.opts.allow_poison {
        send(
            state,
            conn,
            &format!("err {id} poison is disabled (start the server with --allow-poison)"),
        );
        return;
    }
    let task = Task::Poison {
        id: id.to_string(),
        out: Arc::clone(conn),
    };
    // Writer lock before the push (see `handle_run`): the poisoned
    // worker's dying `err` must not overtake this `ack`.
    let stream = conn.stream.lock().expect("socket writer lock");
    match state.queue.try_push(Priority::Interactive, task) {
        Ok(()) => {
            send_via(state, conn, stream, &format!("ack {id} poison"));
        }
        Err((_, PushError::Overloaded { depth, limit })) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            send_via(
                state,
                conn,
                stream,
                &format!("overloaded {id} depth={depth} limit={limit}"),
            );
        }
        Err((_, PushError::Closed)) => {
            send_via(
                state,
                conn,
                stream,
                &format!("err {id} server is shutting down"),
            );
        }
    }
}

/// Parses and admits one `run` line:
/// `<id> [prio=<class>] <request-text>`.
fn handle_run(state: &Arc<ServerState>, conn: &Arc<Conn>, rest: &str) {
    let (id, rest) = rest.trim().split_once(' ').unwrap_or((rest.trim(), ""));
    if id.is_empty() {
        send(state, conn, "err - run needs `<id> <request>`");
        return;
    }
    let (explicit_prio, req_text) = match rest.strip_prefix("prio=") {
        Some(tail) => {
            let (tag, req) = tail.split_once(' ').unwrap_or((tail, ""));
            match tag.parse::<Priority>() {
                Ok(p) => (Some(p), req),
                Err(e) => {
                    send(state, conn, &format!("err {id} {e}"));
                    return;
                }
            }
        }
        None => (None, rest),
    };
    let req = match req_text.parse::<RunRequest>() {
        Ok(r) => r,
        Err(e) => {
            // Through `SimError`, so a library-only `<…>` marker comes
            // back as the typed ConfigInvalid that names the marker.
            send(state, conn, &format!("err {id} {}", SimError::from(e)));
            return;
        }
    };
    let canonical = req.to_string();
    if let Some(stats) = cached_result(state, &canonical) {
        state.cache_hits.fetch_add(1, Ordering::SeqCst);
        send(state, conn, &format!("ack {id} cached"));
        send(state, conn, &format!("done {id} {}", stats_to_wire(&stats)));
        return;
    }
    if conn
        .inflight
        .lock()
        .expect("conn inflight lock")
        .contains_key(id)
    {
        send(
            state,
            conn,
            &format!("err {id} request id already in flight"),
        );
        return;
    }
    let cost_key = req.cost_key();
    let prio = explicit_prio.unwrap_or_else(|| {
        state
            .ema
            .lock()
            .expect("ema lock")
            .classify(&cost_key, INTERACTIVE_MAX_MS, BULK_MIN_MS)
    });
    let cancel = Arc::new(CancelFlag::new());
    // Take the writer lock before the push: the instant the job is
    // visible a worker may finish it, and its `done` must not reach the
    // socket ahead of our `ack`.
    let stream = conn.stream.lock().expect("socket writer lock");
    // The queue numbers the job under its lock, so admission order is
    // pop order even when connections race. The job is registered
    // before it becomes visible: a fast worker must find the entries to
    // remove, never the other way around. (No path holds a registry
    // lock while taking the queue's.)
    let pushed = state.queue.try_push_numbered(prio, |seq| {
        conn.inflight
            .lock()
            .expect("conn inflight lock")
            .insert(id.to_string(), Arc::clone(&cancel));
        state
            .inflight
            .lock()
            .expect("inflight lock")
            .insert(seq, Arc::clone(&cancel));
        Task::Run(Box::new(Job {
            seq,
            id: id.to_string(),
            prio,
            canonical,
            req,
            cost_key,
            cancel,
            enqueued: Instant::now(),
            out: Arc::clone(conn),
        }))
    });
    match pushed {
        Ok(()) => {
            send_via(
                state,
                conn,
                stream,
                &format!("ack {id} queued prio={}", prio.tag()),
            );
        }
        Err(e) => {
            // Nothing was registered or published.
            drop(stream);
            match e {
                PushError::Overloaded { depth, limit } => {
                    state.rejected.fetch_add(1, Ordering::SeqCst);
                    send(
                        state,
                        conn,
                        &format!("overloaded {id} depth={depth} limit={limit}"),
                    );
                }
                PushError::Closed => {
                    send(state, conn, &format!("err {id} server is shutting down"));
                }
            }
        }
    }
}

/// The cached result for `canonical`: the in-memory front first, then
/// the checkpoint's results store. A store hit joins the front; a
/// missing, stale or corrupt store entry is only a miss, left in place.
fn cached_result(state: &ServerState, canonical: &str) -> Option<SimStats> {
    if let Some(s) = state.results.lock().expect("results lock").get(canonical) {
        return Some(s.clone());
    }
    let stats = state.store.as_ref()?.get(canonical).ok().flatten()?;
    state
        .results
        .lock()
        .expect("results lock")
        .insert(canonical.to_string(), stats.clone());
    Some(stats)
}

fn worker_loop(state: &Arc<ServerState>) {
    let _live = Gauge::new(&state.live_workers);
    while let Some(task) = state.queue.pop() {
        match task {
            Task::Poison { id, out } => {
                send(
                    state,
                    &out,
                    &format!("err {id} worker poisoned (deliberate chaos fault)"),
                );
                // Escapes every catch_unwind on purpose: the monitor
                // must find a genuinely dead thread to respawn.
                panic!("chaos: worker deliberately poisoned");
            }
            Task::Run(job) => run_job(state, *job),
        }
    }
}

/// Executes one admitted request with panic containment: a panic inside
/// the simulator becomes a typed `err` reply and a counter bump, never
/// a lost worker.
fn run_job(state: &Arc<ServerState>, job: Job) {
    let _busy = Gauge::new(&state.busy_workers);
    let wait_us = job.enqueued.elapsed().as_micros() as u64;
    {
        let mut log = state.exec_log.lock().expect("exec log lock");
        if log.len() >= EXEC_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back((job.prio, job.seq));
    }
    state.wait_us.lock().expect("wait lock")[job.prio.index()].record(wait_us);
    let Job {
        seq,
        id,
        canonical,
        req,
        cost_key,
        cancel,
        out,
        ..
    } = job;
    let total = req
        .run_length()
        .map(|l| l.warmup + l.measure)
        .unwrap_or(u64::MAX);
    // ~8 progress lines per run, chunk floor so cancel stays snappy.
    let chunk = (total / 8).clamp(1_000, 250_000);
    let started = Instant::now();
    let progress_cancel = Arc::clone(&cancel);
    let result = catch_unwind(AssertUnwindSafe(|| {
        req.execute_observed(&cancel, chunk, |done, total| {
            // A reply the client will never read is a run nobody wants:
            // a failed progress write cancels the request.
            if !send(state, &out, &format!("progress {id} {done}/{total}")) {
                progress_cancel.cancel();
            }
        })
    }));
    state.inflight.lock().expect("inflight lock").remove(&seq);
    out.inflight.lock().expect("conn inflight lock").remove(&id);
    state.completed.fetch_add(1, Ordering::SeqCst);
    match result {
        Ok(Ok(outcome)) => {
            let ms = started.elapsed().as_millis() as u64;
            state
                .ema
                .lock()
                .expect("ema lock")
                .observe(&cost_key, ms.max(1));
            state
                .results
                .lock()
                .expect("results lock")
                .insert(canonical, outcome.stats.clone());
            send(
                state,
                &out,
                &format!("done {id} {}", stats_to_wire(&outcome.stats)),
            );
        }
        Ok(Err(e)) => {
            match e {
                SimError::Cancelled { .. } => {
                    state.cancelled.fetch_add(1, Ordering::SeqCst);
                }
                SimError::DeadlineExceeded { .. } => {
                    state.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
                }
                _ => {
                    state.failed.fetch_add(1, Ordering::SeqCst);
                }
            }
            send(state, &out, &format!("err {id} {e}"));
        }
        Err(_panic) => {
            state.panics_caught.fetch_add(1, Ordering::SeqCst);
            state.failed.fetch_add(1, Ordering::SeqCst);
            send(
                state,
                &out,
                &format!("err {id} internal: worker panicked executing the request (pool intact)"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// CLI entry points: `experiments serve`, `experiments client`,
// `experiments run`.
// ---------------------------------------------------------------------

const SERVE_USAGE: &str = "usage: experiments serve --socket PATH [flags]\n\
     \n\
     flags (with defaults):\n\
     \x20 --socket PATH            socket path (experiments.sock)\n\
     \x20 --jobs N                 worker threads, 1 to 1024 (cores)\n\
     \x20 --queue-depth D          admission bound (64)\n\
     \x20 --checkpoint-dir DIR     answer from a sweep's results in DIR/cache\n\
     \x20 --drain-grace-ms MS      graceful-shutdown budget (5000)\n\
     \x20 --allow-poison           enable the `poison` chaos verb (off)";

const CLIENT_USAGE: &str = "usage: experiments client --socket PATH [flags]\n\
     \n\
     flags (with defaults):\n\
     \x20 --req 'src=... cfg=... len=...'  request to run\n\
     \x20 --id ID                  request id token (r1)\n\
     \x20 --prio P                 interactive|normal|bulk (server EMA)\n\
     \x20 --cancel-after N         cancel after N progress lines\n\
     \x20 --metrics | --shutdown   send a control verb instead of --req\n\
     \n\
     A connect failure or `overloaded` reply is retried 3 times with\n\
     seeded, jittered backoff from 100 ms up to 5 s. A wall-clock\n\
     deadline rides the request text: `deadline=MS`.";

const RUN_USAGE: &str = "usage: experiments run --req 'src=... cfg=... len=...'";

/// `experiments serve --socket PATH [flags]`: runs the server until a
/// client sends `shutdown` (or the process is killed).
pub fn run_serve_cli(args: &[String]) -> i32 {
    cli::command(args, SERVE_USAGE, parse_serve_args, serve)
}

fn serve(opts: ServeOptions) -> i32 {
    let server = match Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: could not start: {e}");
            return 1;
        }
    };
    eprintln!(
        "[serve: listening on {} with {} workers, queue depth {}]",
        server.socket().display(),
        server.state.opts.jobs,
        server.state.opts.queue_depth
    );
    server.join();
    eprintln!("[serve: shut down cleanly]");
    0
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions {
        jobs: cli::default_jobs(),
        ..ServeOptions::default()
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--socket" => opts.socket = args.parse("--socket needs a path")?,
            "--jobs" | "-j" => opts.jobs = args.jobs()?,
            "--queue-depth" => opts.queue_depth = args.parse("--queue-depth needs a count")?,
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(args.parse("--checkpoint-dir needs a directory")?)
            }
            "--drain-grace-ms" => {
                opts.drain_grace_ms = args.parse("--drain-grace-ms needs a millisecond count")?
            }
            "--allow-poison" => opts.allow_poison = true,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    Ok(opts)
}

/// One client attempt's verdict.
enum Attempt {
    /// Terminal outcome: exit with this code, no retry.
    Exit(i32),
    /// Transient failure worth a backoff-delayed retry.
    Retry(String),
    /// Hard failure: no retry.
    Fail(String),
}

/// Connect or `overloaded` retries before the client gives up.
const CLIENT_RETRIES: u32 = 3;

/// Backoff of those retries: base delay, cap (ms) and jitter seed.
const RETRY_BASE_MS: u64 = 100;
const RETRY_CAP_MS: u64 = 5_000;
const RETRY_SEED: u64 = 0x5EED;

/// What a client asks the server.
enum Ask {
    /// `run` this request text.
    Run(String),
    /// A control verb: `metrics` or `shutdown`.
    Verb(&'static str),
}

/// A parsed `experiments client` command line.
struct ClientArgs {
    socket: PathBuf,
    id: String,
    prio: Option<String>,
    ask: Ask,
    cancel_after: Option<u32>,
}

/// `experiments client --socket PATH [flags]`: one-shot client with
/// seeded-backoff retries. Streams every server line to stdout; exits 0
/// on `done` (or acknowledged control message), 1 on `err`. Connect
/// failures and `overloaded` rejections retry with jittered exponential
/// backoff — safe because completed runs are memoized server-side and
/// answered `ack cached`, so a retried request never re-executes.
pub fn run_client_cli(args: &[String]) -> i32 {
    cli::command(args, CLIENT_USAGE, parse_client_args, client)
}

fn client(args: ClientArgs) -> i32 {
    let mut backoff = Backoff::new(RETRY_BASE_MS, RETRY_CAP_MS, RETRY_SEED);
    let mut attempt = 0u32;
    loop {
        match client_attempt(&args) {
            Attempt::Exit(code) => return code,
            Attempt::Fail(reason) => {
                eprintln!("client: {reason}");
                return 1;
            }
            Attempt::Retry(reason) => {
                if attempt >= CLIENT_RETRIES {
                    eprintln!("client: giving up after {attempt} retries ({reason})");
                    return 1;
                }
                attempt += 1;
                let delay = backoff.next_delay_ms();
                eprintln!("client: {reason}; retry {attempt}/{CLIENT_RETRIES} in {delay} ms");
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

fn parse_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let mut socket = PathBuf::from("experiments.sock");
    let mut id = String::from("r1");
    let mut prio = None;
    let mut req: Option<&str> = None;
    let mut verb = None;
    let mut cancel_after = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--socket" => socket = args.parse("--socket needs a path")?,
            "--id" => id = args.value("--id needs a token")?.to_string(),
            "--prio" => prio = Some(args.value("--prio needs a class")?.to_string()),
            "--req" => req = Some(args.value("--req needs request text")?),
            "--cancel-after" => {
                cancel_after = Some(args.parse("--cancel-after needs a progress-line count")?)
            }
            "--metrics" => verb = Some("metrics"),
            "--shutdown" => verb = Some("shutdown"),
            other => return Err(format!("unknown client flag `{other}`")),
        }
    }
    let ask = match (verb, req) {
        (Some(verb), _) => Ask::Verb(verb),
        (None, Some(text)) => Ask::Run(text.to_string()),
        (None, None) => return Err("client needs --req, --metrics or --shutdown".into()),
    };
    Ok(ClientArgs {
        socket,
        id,
        prio,
        ask,
        cancel_after,
    })
}

/// One connect-send-read transaction against the server.
fn client_attempt(args: &ClientArgs) -> Attempt {
    let socket = &args.socket;
    let id = &args.id;
    let mut stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            return Attempt::Retry(format!("cannot connect to {}: {e}", socket.display()));
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => return Attempt::Fail(e.to_string()),
    };
    let send_line = |s: &mut UnixStream, line: &str| -> bool {
        s.write_all(line.as_bytes()).is_ok() && s.write_all(b"\n").is_ok() && s.flush().is_ok()
    };
    let read_line = |reader: &mut BufReader<UnixStream>| -> Result<Option<String>, Attempt> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(Attempt::Retry(format!("read failed: {e}"))),
        }
    };
    let line = match &args.ask {
        Ask::Verb(verb) => {
            if !send_line(&mut stream, verb) {
                return Attempt::Retry("send failed".into());
            }
            return match read_line(&mut reader) {
                Ok(Some(line)) => {
                    println!("{line}");
                    Attempt::Exit(0)
                }
                Ok(None) => Attempt::Retry("connection closed before a reply".into()),
                Err(a) => a,
            };
        }
        Ask::Run(req) => match &args.prio {
            Some(p) => format!("run {id} prio={p} {req}"),
            None => format!("run {id} {req}"),
        },
    };
    if !send_line(&mut stream, &line) {
        return Attempt::Retry("send failed".into());
    }
    let mut progress_seen = 0u32;
    loop {
        let line = match read_line(&mut reader) {
            Ok(Some(l)) => l,
            Ok(None) => {
                return Attempt::Retry("connection closed before a terminal reply".into());
            }
            Err(a) => return a,
        };
        println!("{line}");
        let verb = line.split(' ').next().unwrap_or("");
        match verb {
            "done" => return Attempt::Exit(0),
            "err" => return Attempt::Exit(1),
            // Admission-control rejection is the retryable overload
            // signal: back off and try again.
            "overloaded" => return Attempt::Retry("server overloaded".into()),
            "progress" => {
                progress_seen += 1;
                if args.cancel_after == Some(progress_seen)
                    && !send_line(&mut stream, &format!("cancel {id}"))
                {
                    return Attempt::Fail("cancel send failed".into());
                }
            }
            _ => {}
        }
    }
}

/// `experiments run --req TEXT`: executes one wire-encoded request
/// offline (no server) and prints the identical `done <k=v ...>` line —
/// the reference output the CI smoke test diffs server replies against.
pub fn run_offline_cli(args: &[String]) -> i32 {
    cli::command(args, RUN_USAGE, parse_run_args, run_offline)
}

fn run_offline(parsed: RunRequest) -> i32 {
    let id = "offline";
    match parsed.execute() {
        Ok(outcome) => {
            println!("done {id} {}", stats_to_wire(&outcome.stats));
            0
        }
        Err(e) => {
            println!("err {id} {e}");
            1
        }
    }
}

fn parse_run_args(args: &[String]) -> Result<RunRequest, String> {
    let mut req = None;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--req" => req = Some(args.value("--req needs request text")?),
            other => return Err(format!("unknown run flag `{other}`")),
        }
    }
    let text = req.ok_or("run needs --req")?;
    // Through `SimError`, so a library-only `<…>` marker names itself.
    text.parse::<RunRequest>()
        .map_err(|e| SimError::from(e).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_are_contiguous_and_tight() {
        let mut prev = None;
        for b in 0..BUCKETS {
            let hi = LatencyHistogram::upper_bound(b);
            assert_eq!(LatencyHistogram::bucket(hi), b, "upper bound of {b}");
            if let Some(p) = prev {
                assert_eq!(
                    LatencyHistogram::bucket(p + 1),
                    b,
                    "bucket {b} starts past {p}"
                );
                // Never wider than 1/16 of the values it holds.
                assert!(hi - p <= (p + 1) / SUB as u64 + 1, "bucket {b} too wide");
            }
            prev = Some(hi);
        }
        assert_eq!(prev, Some(u64::MAX));
    }

    #[test]
    fn latency_histogram_stays_fixed_size_and_reports_percentiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.p50(), None);
        let heap = h.counts.len();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(
            h.counts.len(),
            heap,
            "recording must not grow the histogram"
        );
        assert_eq!(
            std::mem::size_of_val(&h),
            std::mem::size_of::<LatencyHistogram>()
        );
        assert_eq!(h.count(), 100_000);
        // Exact answers are 50_000 and 99_000; buckets are ≤ 6.25% wide.
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((50_000..=53_125).contains(&p50), "p50 {p50}");
        assert!((99_000..=105_188).contains(&p99), "p99 {p99}");
        let mut small = LatencyHistogram::default();
        for v in [3, 7, 7, 9] {
            small.record(v);
        }
        assert_eq!(small.p50(), Some(7));
        assert_eq!(small.p99(), Some(9));
    }

    #[test]
    fn results_front_never_exceeds_its_capacity() {
        let mut front = BoundedMap::new(3);
        let stats = |n: u64| SimStats {
            cycles: n,
            ..Default::default()
        };
        for n in 0..10u64 {
            front.insert(format!("req{n}"), stats(n));
            assert!(front.len() <= 3);
        }
        assert_eq!(front.len(), 3);
        // The newest entries stay; the oldest made room.
        assert_eq!(front.get("req9"), Some(&stats(9)));
        assert_eq!(front.get("req7"), Some(&stats(7)));
        assert_eq!(front.get("req6"), None);
        // Re-inserting a resident text keeps its entry and evicts nothing.
        front.insert("req8".into(), stats(80));
        assert_eq!(front.len(), 3);
        assert_eq!(front.get("req8"), Some(&stats(8)));
        assert_eq!(front.get("req7"), Some(&stats(7)));
    }

    /// Sends `run <id> <req>` and returns (ack line, terminal line),
    /// skipping progress lines.
    fn run_to_end(
        lines: &mut std::io::Lines<BufReader<UnixStream>>,
        c: &mut UnixStream,
        id: &str,
        req: &str,
    ) -> (String, String) {
        c.write_all(format!("run {id} {req}\n").as_bytes()).unwrap();
        let ack = lines.next().unwrap().unwrap();
        loop {
            let line = lines.next().unwrap().unwrap();
            if !line.starts_with("progress ") {
                return (ack, line);
            }
        }
    }

    /// Sends `run <id> <req>` and returns (ack line, done payload).
    fn run_over(
        lines: &mut std::io::Lines<BufReader<UnixStream>>,
        c: &mut UnixStream,
        id: &str,
        req: &str,
    ) -> (String, String) {
        let (ack, end) = run_to_end(lines, c, id, req);
        let done = end
            .strip_prefix(&format!("done {id} "))
            .unwrap_or_else(|| panic!("expected done, got {end}"));
        (ack, done.to_string())
    }

    #[test]
    fn served_snapshot_forks_read_their_file_on_every_run() {
        let dir = std::env::temp_dir().join(format!("ss-serve-fork-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.snap");
        let warm = "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m0 fork=capture"
            .parse::<RunRequest>()
            .unwrap()
            .execute()
            .unwrap()
            .snapshot
            .expect("capture produces a snapshot");
        ss_snapshot::write_atomic(&path, &warm).unwrap();
        let fork = |len: &str| {
            format!(
                "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len={len} fork=snap:{}",
                path.display()
            )
        };
        let server = Server::start(ServeOptions {
            socket: dir.join("fork.sock"),
            jobs: 1,
            queue_depth: 4,
            ..ServeOptions::default()
        })
        .expect("server starts");
        let mut c = UnixStream::connect(server.socket()).unwrap();
        let mut lines = BufReader::new(c.try_clone().unwrap()).lines();
        // A served fork answers the bytes `experiments run --req` prints.
        let text = fork("w200m2000");
        let offline = text.parse::<RunRequest>().unwrap().execute().unwrap();
        let (ack, done) = run_over(&mut lines, &mut c, "a", &text);
        assert_eq!(ack, "ack a queued prio=normal");
        assert_eq!(
            done,
            stats_to_wire(&offline.stats),
            "same bytes as `run --req`"
        );
        // With the file gone, a new run from the same warm state is a
        // typed error: the server kept no copy of the snapshot.
        std::fs::remove_file(&path).unwrap();
        let (_, end) = run_to_end(&mut lines, &mut c, "b", &fork("w200m3000"));
        let corrupt = format!("err b corrupt snapshot {}: snapshot io: ", path.display());
        assert!(end.starts_with(&corrupt), "{end}");
        // A file in an older format names the version mismatch.
        ss_snapshot::write_atomic(&path, &warm).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let vpos = ss_snapshot::SNAPSHOT_MAGIC.len() + 2;
        assert_eq!(
            bytes[vpos],
            b'0' + ss_snapshot::SNAPSHOT_FORMAT_VERSION as u8
        );
        bytes[vpos] = b'1';
        std::fs::write(&path, bytes).unwrap();
        let (_, end) = run_to_end(&mut lines, &mut c, "c", &fork("w200m4000"));
        assert_eq!(
            end,
            format!(
                "err c snapshot version mismatch {}: found v1, this build reads v{}",
                path.display(),
                ss_snapshot::SNAPSHOT_FORMAT_VERSION
            )
        );
        drop(c);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_reads_a_sweep_results_store_lazily_and_read_only() {
        use crate::session::Session;
        let dir = std::env::temp_dir().join(format!("ss-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("ckpt");
        std::fs::create_dir_all(&ckpt).unwrap();
        // The server starts over an empty checkpoint directory …
        let server = Server::start(ServeOptions {
            socket: dir.join("store.sock"),
            jobs: 1,
            queue_depth: 4,
            checkpoint_dir: Some(ckpt.clone()),
            ..ServeOptions::default()
        })
        .expect("server starts");
        // … and only then does a sweep session write a cell there.
        let len = ss_core::RunLength {
            warmup: 200,
            measure: 2000,
        };
        let cfg = crate::configs::spec_sched(4, true);
        let bench = ss_workloads::benchmark("fp_compute").unwrap();
        Session::new(len, Some(ckpt.join("cache")))
            .try_run(&cfg, bench)
            .expect("runs");
        let text = "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000";
        let offline = text.parse::<RunRequest>().unwrap().execute().unwrap();
        let mut c = UnixStream::connect(server.socket()).unwrap();
        let mut lines = BufReader::new(c.try_clone().unwrap()).lines();
        let (ack, done) = run_over(&mut lines, &mut c, "a", text);
        assert_eq!(
            ack, "ack a cached",
            "the sweep's cell is answered from the store"
        );
        assert_eq!(
            done,
            stats_to_wire(&offline.stats),
            "same bytes as `run --req`"
        );
        // A corrupt entry is only a miss: the server simulates, and the
        // file stays where it was, unrenamed and unchanged.
        let other = "src=bench:mix_int@0xb5 cfg=SpecSched_4 len=w200m2000";
        let store = Store::at(ckpt.join("cache"));
        store.put(other, &SimStats::default()).unwrap();
        let path = store.path(other);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let (ack, done) = run_over(&mut lines, &mut c, "b", other);
        assert_eq!(ack, "ack b queued prio=normal");
        let want = other.parse::<RunRequest>().unwrap().execute().unwrap();
        assert_eq!(done, stats_to_wire(&want.stats));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "corrupt entry left in place"
        );
        let entries = std::fs::read_dir(ckpt.join("cache")).unwrap().count();
        assert_eq!(entries, 2, "the server wrote nothing into the store");
        drop(c);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_options_are_rejected_before_binding() {
        let cases = [
            ServeOptions {
                jobs: 0,
                ..ServeOptions::default()
            },
            ServeOptions {
                queue_depth: 0,
                ..ServeOptions::default()
            },
            ServeOptions {
                queue_depth: 1 << 20,
                ..ServeOptions::default()
            },
        ];
        for opts in cases {
            let err = opts.validate().expect_err("must be rejected");
            assert!(
                matches!(err, SimError::ConfigInvalid(_)),
                "expected ConfigInvalid, got {err}"
            );
            // Server::start surfaces the same error without binding.
            match Server::start(opts) {
                Err(StartError::Config(_)) => {}
                other => panic!(
                    "expected StartError::Config, got {other:?}",
                    other = other.map(|_| ())
                ),
            }
        }
        assert!(ServeOptions::default().validate().is_ok());
    }

    #[test]
    fn server_answers_ping_run_and_metrics_over_the_socket() {
        let dir = std::env::temp_dir().join(format!("ss-serve-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::start(ServeOptions {
            socket: dir.join("unit.sock"),
            jobs: 1,
            queue_depth: 4,
            ..ServeOptions::default()
        })
        .expect("server starts");
        let mut c = UnixStream::connect(server.socket()).unwrap();
        c.write_all(b"ping\nrun a src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000\n")
            .unwrap();
        let mut lines = BufReader::new(c.try_clone().unwrap()).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "pong");
        assert_eq!(lines.next().unwrap().unwrap(), "ack a queued prio=normal");
        let done = loop {
            let line = lines.next().unwrap().unwrap();
            if let Some(rest) = line.strip_prefix("done a ") {
                break rest.to_string();
            }
            assert!(line.starts_with("progress a "), "unexpected line {line}");
        };
        let stats = stats_from_wire(&done).expect("wire stats parse");
        assert!(stats.committed_uops >= 2_000);
        // Same request again: served from the results memo.
        c.write_all(b"run b src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w200m2000\n")
            .unwrap();
        assert_eq!(lines.next().unwrap().unwrap(), "ack b cached");
        let cached = lines.next().unwrap().unwrap();
        assert_eq!(cached.strip_prefix("done b ").unwrap(), done);
        // Metrics report a fully alive pool, the completed run, the hit,
        // each resident map against its capacity and the queue wait.
        c.write_all(b"metrics\n").unwrap();
        let metrics = lines.next().unwrap().unwrap();
        assert!(metrics.starts_with("metrics uptime_ms="), "{metrics}");
        for kv in [
            " workers=1 ",
            " live=1 ",
            " restarted=0 ",
            " depth=0 limit=4 ",
            " completed=1 ",
            " cached=1 ",
            " results=1 results_cap=4096 ",
            " ema_cells=1 ema_cap=4096 ",
            " wait.interactive.n=0 ",
            " wait.normal.n=1 wait.normal.p50_us=",
            " wait.bulk.n=0",
        ] {
            assert!(metrics.contains(kv), "`{kv}` missing from {metrics}");
        }
        assert!(!metrics.contains("wait.bulk.p50_us"), "{metrics}");
        // `stats` and `health` are retired: `metrics` is the one status verb.
        c.write_all(b"stats\nhealth\n").unwrap();
        assert_eq!(lines.next().unwrap().unwrap(), "err - unknown verb `stats`");
        assert_eq!(
            lines.next().unwrap().unwrap(),
            "err - unknown verb `health`"
        );
        // Poison is refused unless explicitly enabled.
        c.write_all(b"poison p1\n").unwrap();
        let refused = lines.next().unwrap().unwrap();
        assert!(
            refused.starts_with("err p1 poison is disabled"),
            "{refused}"
        );
        drop(c);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
