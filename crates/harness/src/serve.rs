//! Simulation-as-a-service: the `experiments serve` resident batch
//! server.
//!
//! A long-lived process keeps hot state across requests — the memoized
//! results cache (pre-populated from a sweep's [`SweepJournal`] and
//! on-disk stats cache), a resident warm-[`Snapshot`] store, and the
//! per-(config, kernel) cost history — and executes [`RunRequest`]s
//! received over a Unix-domain socket, line by line. No async runtime,
//! no dependencies: a threaded accept loop, [`PrioQueue`] worker
//! dispatch, and plain `std::os::unix::net` sockets.
//!
//! # Protocol
//!
//! One UTF-8 line per message (at most 64 KiB). Client → server:
//!
//! ```text
//! run <id> [prio=interactive|normal|bulk] <request-text>
//! cancel <id>
//! stats
//! health
//! ping
//! poison <id>          # chaos hook, only with --allow-poison
//! shutdown
//! ```
//!
//! `<request-text>` is the canonical [`RunRequest`] encoding
//! (`src=bench:fp_compute@0xb5 cfg=SpecSched_4_Crit len=w1000m5000 …`,
//! optionally carrying a `deadline=<ms>` wall-clock budget);
//! `<id>` is a client-chosen token scoped to the connection. Server →
//! client:
//!
//! ```text
//! ack <id> queued prio=<class> | ack <id> cached | ack <id> cancel
//! progress <id> <done>/<total>
//! done <id> <k=v ...>              # wire-encoded SimStats
//! err <id> <message>               # typed SimError rendering
//! overloaded <id> depth=<d> limit=<l>
//! stats <k=v ...> | health <k=v ...> | pong | bye
//! ```
//!
//! # Scheduling policy
//!
//! Admitted requests land in one of three FIFO classes —
//! interactive > normal > bulk — selected by an explicit `prio=`
//! override or, absent one, by the exponential moving average of past
//! wall-clock cost for the request's `(config, kernel)` cell
//! ([`RunRequest::cost_key`], [`CostEma`], α = 1/4; unknown cells run
//! normal). Admission is bounded: when the queue holds `queue_depth`
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
//! * **Slow or vanished clients** cannot wedge the server: connections
//!   carry read/write timeouts, a blocked or failed reply write marks
//!   the client vanished (`clients_vanished`), cancels its in-flight
//!   runs, and frees the reader thread. A client disconnect mid-run
//!   cancels that connection's orphaned runs the same way.
//! * **Runaway simulations** are bounded by the request's own
//!   `deadline=<ms>` budget, enforced between measurement chunks as
//!   [`SimError::DeadlineExceeded`] with committed-µ-op evidence.
//! * **Shutdown drains**: new work is refused, queued and running
//!   requests get `drain_grace_ms` to finish, then stragglers are
//!   cancelled with typed errors and the process exits.
//!
//! `health` reports the live counters behind all of this; the
//! `experiments chaos` harness drives every one of these paths against
//! a real server under a seeded fault schedule.

use crate::journal::SweepJournal;
use crate::session::{stats_from_cache_file, stats_from_kv, stats_to_kv, WORKLOAD_SEED};
use ss_core::{RunLength, RunRequest};
use ss_snapshot::Snapshot;
use ss_types::{
    Backoff, CancelFlag, ConfigSpec, CostEma, PrioQueue, Priority, PushError, SimError, SimStats,
};
use std::collections::HashMap;
use std::fmt;
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

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Resident worker threads executing requests.
    pub jobs: usize,
    /// Admission-control bound: queued (not yet running) requests.
    pub queue_depth: usize,
    /// Checkpoint directory of a prior sweep (`journal.log` + `cache/`)
    /// to pre-populate the results cache from.
    pub checkpoint_dir: Option<PathBuf>,
    /// EMA-predicted cost (wall ms) at or below which a cell classifies
    /// as interactive.
    pub interactive_max_ms: u64,
    /// EMA-predicted cost (wall ms) at or above which a cell classifies
    /// as bulk.
    pub bulk_min_ms: u64,
    /// Socket read timeout: how often an idle reader thread wakes to
    /// check shutdown and liveness (it does NOT disconnect idle
    /// clients).
    pub read_timeout_ms: u64,
    /// Socket write timeout: a reply blocked longer than this marks the
    /// client vanished and cancels its in-flight runs.
    pub write_timeout_ms: u64,
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
            interactive_max_ms: 200,
            bulk_min_ms: 2_000,
            read_timeout_ms: 1_000,
            write_timeout_ms: 5_000,
            drain_grace_ms: 5_000,
            allow_poison: false,
        }
    }
}

impl ServeOptions {
    /// Rejects configurations that cannot run sanely — zero workers,
    /// absurd queue bounds, inverted cost thresholds, zero I/O timeouts
    /// — with a typed [`SimError::ConfigInvalid`] instead of silently
    /// clamping or wedging later.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |m: String| Err(SimError::ConfigInvalid(m));
        if self.jobs == 0 {
            return bad(
                "serve: --jobs must be ≥ 1 (a server with no workers hangs every request)".into(),
            );
        }
        if self.jobs > 1024 {
            return bad(format!("serve: --jobs {} is absurd (max 1024)", self.jobs));
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
        if self.interactive_max_ms >= self.bulk_min_ms {
            return bad(format!(
                "serve: --interactive-max-ms {} must be below --bulk-min-ms {}",
                self.interactive_max_ms, self.bulk_min_ms
            ));
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return bad(
                "serve: read/write timeouts must be ≥ 1 ms (0 busy-spins or blocks forever)".into(),
            );
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
#[derive(Clone)]
pub struct LatencyHistogram {
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
    pub fn count(&self) -> u64 {
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
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }
}

/// Shared server state: everything resident across requests.
struct ServerState {
    opts: ServeOptions,
    queue: PrioQueue<Task>,
    /// canonical request text → statistics.
    results: Mutex<HashMap<String, SimStats>>,
    /// snapshot path → loaded, verified warm state.
    snapshots: Mutex<HashMap<String, Snapshot>>,
    ema: Mutex<CostEma>,
    /// admission seq → cancel flag for every unfinished run (the drain
    /// path's kill list).
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
    /// (class, admission seq) per executed job, in execution order.
    exec_log: Mutex<Vec<(Priority, u64)>>,
    /// Queue latency (µs) per class.
    latency_us: Mutex<[LatencyHistogram; 3]>,
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
    /// Validates the options, binds the socket, preloads the results
    /// cache, and starts the worker pool, its supervisor, and the
    /// accept loop.
    pub fn start(opts: ServeOptions) -> Result<Server, StartError> {
        opts.validate().map_err(StartError::Config)?;
        // A stale socket file from a dead server would fail the bind.
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket).map_err(StartError::Io)?;
        let mut results = HashMap::new();
        if let Some(dir) = &opts.checkpoint_dir {
            let loaded = preload_results(dir, &mut results);
            eprintln!(
                "[serve: preloaded {loaded} cached results from {}]",
                dir.display()
            );
        }
        let state = Arc::new(ServerState {
            queue: PrioQueue::new(opts.queue_depth),
            results: Mutex::new(results),
            snapshots: Mutex::new(HashMap::new()),
            ema: Mutex::new(CostEma::new()),
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
            exec_log: Mutex::new(Vec::new()),
            latency_us: Mutex::default(),
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

    /// Requests executed to completion (success or typed failure).
    pub fn completed(&self) -> u64 {
        self.state.completed.load(Ordering::SeqCst)
    }

    /// Requests answered straight from the results cache.
    pub fn cache_hits(&self) -> u64 {
        self.state.cache_hits.load(Ordering::SeqCst)
    }

    /// Requests rejected by admission control.
    pub fn rejected(&self) -> u64 {
        self.state.rejected.load(Ordering::SeqCst)
    }

    /// Worker threads the supervisor has respawned after a fatal panic.
    pub fn workers_restarted(&self) -> u64 {
        self.state.workers_restarted.load(Ordering::SeqCst)
    }

    /// Panics contained inside a worker without losing the thread.
    pub fn panics_caught(&self) -> u64 {
        self.state.panics_caught.load(Ordering::SeqCst)
    }

    /// Clients that vanished mid-conversation (failed reply write or
    /// disconnect with runs still in flight).
    pub fn clients_vanished(&self) -> u64 {
        self.state.clients_vanished.load(Ordering::SeqCst)
    }

    /// Runs that exhausted their wall-clock deadline.
    pub fn deadline_exceeded(&self) -> u64 {
        self.state.deadline_exceeded.load(Ordering::SeqCst)
    }

    /// `(class, admission-sequence)` per executed request, in execution
    /// order — the soak test's FIFO-within-priority evidence.
    pub fn exec_log(&self) -> Vec<(Priority, u64)> {
        self.state.exec_log.lock().expect("exec log lock").clone()
    }

    /// Queue-latency histograms in microseconds, indexed by
    /// [`Priority::index`].
    pub fn latency_us(&self) -> [LatencyHistogram; 3] {
        self.state.latency_us.lock().expect("latency lock").clone()
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

/// Pre-populates the results cache from a sweep checkpoint directory:
/// every journaled `{name}|{spec}|{bench}|w{W}m{M}` cell whose name is
/// the canonical spec (the standard sweep cells) and whose cache file
/// verifies becomes a served `src=bench:… cfg=… len=…` entry.
fn preload_results(dir: &Path, results: &mut HashMap<String, SimStats>) -> usize {
    let journal = match SweepJournal::open(&dir.join("journal.log")) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("[serve: no usable journal in {} ({e})]", dir.display());
            return 0;
        }
    };
    let cache = dir.join("cache");
    let mut loaded = 0;
    for key in journal.completed_cells() {
        let Some((canonical, cache_file)) = translate_journal_key(key) else {
            continue;
        };
        let path = cache.join(cache_file);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match stats_from_cache_file(&path, &text, key) {
            Ok(stats) => {
                results.insert(canonical, stats);
                loaded += 1;
            }
            Err(e) => eprintln!("[serve: skipping {}: {e}]", path.display()),
        }
    }
    loaded
}

/// Maps a sweep-journal cell key to `(canonical request text, cache file
/// name)`. Only standard cells — display name identical to the canonical
/// [`ConfigSpec`] — translate; renamed test cells are skipped.
fn translate_journal_key(key: &str) -> Option<(String, String)> {
    let mut parts = key.split('|');
    let (name, spec, bench, len) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || name != spec {
        return None;
    }
    let spec: ConfigSpec = spec.parse().ok()?;
    let len_parsed: RunLength = len.parse().ok()?;
    let canonical = RunRequest::bench(bench, WORKLOAD_SEED)
        .config(spec)
        .length(len_parsed)
        .to_string();
    Some((canonical, format!("{name}__{bench}__{len}.kv")))
}

/// Serializes statistics as one `k=v ...` wire line (the `done` payload).
pub fn stats_to_wire(s: &SimStats) -> String {
    stats_to_kv(s)
        .lines()
        .map(|l| l.replacen(' ', "=", 1))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses the `k=v ...` wire line back into statistics.
pub fn stats_from_wire(line: &str) -> Option<SimStats> {
    let kv: String = line
        .split_whitespace()
        .filter_map(|t| t.split_once('='))
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    stats_from_kv(&kv)
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
    let _ = stream.set_read_timeout(Some(Duration::from_millis(state.opts.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(state.opts.write_timeout_ms)));
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
                    "stats" => {
                        send(state, &conn, &server_stats_line(state));
                    }
                    "health" => {
                        send(state, &conn, &health_line(state));
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

fn server_stats_line(state: &ServerState) -> String {
    format!(
        "stats depth={} limit={} completed={} cached={} rejected={} cancelled={} failed={} results={} ema_cells={}",
        state.queue.depth(),
        state.queue.limit(),
        state.completed.load(Ordering::SeqCst),
        state.cache_hits.load(Ordering::SeqCst),
        state.rejected.load(Ordering::SeqCst),
        state.cancelled.load(Ordering::SeqCst),
        state.failed.load(Ordering::SeqCst),
        state.results.lock().expect("results lock").len(),
        state.ema.lock().expect("ema lock").len(),
    )
}

/// The `health` payload: liveness gauges and failure counters.
fn health_line(state: &ServerState) -> String {
    let [qi, qn, qb] = state.queue.depths();
    format!(
        "health uptime_ms={} workers={} live={} busy={} restarted={} qi={qi} qn={qn} qb={qb} \
         inflight={} completed={} cached={} rejected={} cancelled={} failed={} \
         deadline_exceeded={} panics_caught={} clients_vanished={} drain_cancelled={} results={}",
        state.started.elapsed().as_millis(),
        state.opts.jobs,
        state.live_workers.load(Ordering::SeqCst),
        state.busy_workers.load(Ordering::SeqCst),
        state.workers_restarted.load(Ordering::SeqCst),
        state.inflight.lock().expect("inflight lock").len(),
        state.completed.load(Ordering::SeqCst),
        state.cache_hits.load(Ordering::SeqCst),
        state.rejected.load(Ordering::SeqCst),
        state.cancelled.load(Ordering::SeqCst),
        state.failed.load(Ordering::SeqCst),
        state.deadline_exceeded.load(Ordering::SeqCst),
        state.panics_caught.load(Ordering::SeqCst),
        state.clients_vanished.load(Ordering::SeqCst),
        state.drain_cancelled.load(Ordering::SeqCst),
        state.results.lock().expect("results lock").len(),
    )
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
    let mut req = match req_text.parse::<RunRequest>() {
        Ok(r) => r,
        Err(e) => {
            // Through `SimError`, so a library-only `<…>` marker comes
            // back as the typed ConfigInvalid that names the marker.
            send(state, conn, &format!("err {id} {}", SimError::from(e)));
            return;
        }
    };
    let canonical = req.to_string();
    if let Some(stats) = state
        .results
        .lock()
        .expect("results lock")
        .get(&canonical)
        .cloned()
    {
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
    // Satisfy disk-snapshot forks from the resident warm-state store.
    if let Some(path) = req.snapshot_path().map(str::to_string) {
        let hit = state
            .snapshots
            .lock()
            .expect("snapshot lock")
            .get(&path)
            .cloned();
        let snap = match hit {
            Some(s) => Some(s),
            None => match ss_snapshot::read_verified(Path::new(&path)) {
                Ok(s) => {
                    state
                        .snapshots
                        .lock()
                        .expect("snapshot lock")
                        .insert(path.clone(), s.clone());
                    Some(s)
                }
                // Leave the path in place: execution reports the typed
                // SnapshotCorrupt / io error with full context.
                Err(_) => None,
            },
        };
        if let Some(s) = snap {
            req = req.from_snapshot(s).checkpoint_note(&path);
        }
    }
    let cost_key = req.cost_key();
    let prio = explicit_prio.unwrap_or_else(|| {
        state.ema.lock().expect("ema lock").classify(
            &cost_key,
            state.opts.interactive_max_ms,
            state.opts.bulk_min_ms,
        )
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
        log.push((job.prio, job.seq));
    }
    state.latency_us.lock().expect("latency lock")[job.prio.index()].record(wait_us);
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

/// `experiments serve --socket PATH [flags]`: runs the server until a
/// client sends `shutdown` (or the process is killed).
pub fn run_serve_cli(args: &[String]) -> i32 {
    let mut opts = ServeOptions {
        jobs: ss_types::exec::default_jobs(),
        ..ServeOptions::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => opts.socket = PathBuf::from(it.next().expect("--socket needs a path")),
            "--jobs" | "-j" => {
                opts.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a worker count")
            }
            "--queue-depth" => {
                opts.queue_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queue-depth needs a count")
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(PathBuf::from(
                    it.next().expect("--checkpoint-dir needs a directory"),
                ))
            }
            "--interactive-max-ms" => {
                opts.interactive_max_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--interactive-max-ms needs a millisecond count")
            }
            "--bulk-min-ms" => {
                opts.bulk_min_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--bulk-min-ms needs a millisecond count")
            }
            "--read-timeout-ms" => {
                opts.read_timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--read-timeout-ms needs a millisecond count")
            }
            "--write-timeout-ms" => {
                opts.write_timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--write-timeout-ms needs a millisecond count")
            }
            "--drain-grace-ms" => {
                opts.drain_grace_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--drain-grace-ms needs a millisecond count")
            }
            "--allow-poison" => opts.allow_poison = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments serve --socket PATH [flags]\n\
                     \n\
                     flags (with defaults):\n\
                     \x20 --socket PATH            socket path (experiments.sock)\n\
                     \x20 --jobs N                 worker threads (cores - 1)\n\
                     \x20 --queue-depth D          admission bound (64)\n\
                     \x20 --checkpoint-dir DIR     preload results from a sweep checkpoint\n\
                     \x20 --interactive-max-ms MS  interactive cost ceiling (200)\n\
                     \x20 --bulk-min-ms MS         bulk cost floor (2000)\n\
                     \x20 --read-timeout-ms MS     reader liveness poll (1000)\n\
                     \x20 --write-timeout-ms MS    reply-write bound before a client\n\
                     \x20                          counts as vanished (5000)\n\
                     \x20 --drain-grace-ms MS      graceful-shutdown budget (5000)\n\
                     \x20 --allow-poison           enable the `poison` chaos verb (off)"
                );
                return 0;
            }
            other => {
                eprintln!("unknown serve flag `{other}`");
                return 2;
            }
        }
    }
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

/// One client attempt's verdict.
enum Attempt {
    /// Terminal outcome: exit with this code, no retry.
    Exit(i32),
    /// Transient failure worth a backoff-delayed retry.
    Retry(String),
    /// Hard failure: no retry.
    Fail(String),
}

/// `experiments client --socket PATH [flags]`: one-shot client with
/// seeded-backoff retries. Streams every server line to stdout; exits 0
/// on `done` (or acknowledged control message), 1 on `err`. Connect
/// failures and `overloaded` rejections retry with jittered exponential
/// backoff — safe because completed runs are memoized server-side and
/// answered `ack cached`, so a retried request never re-executes.
pub fn run_client_cli(args: &[String]) -> i32 {
    let mut socket = PathBuf::from("experiments.sock");
    let mut id = String::from("r1");
    let mut prio: Option<String> = None;
    let mut req: Option<String> = None;
    let mut cancel_after: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut retries: u32 = 3;
    let mut retry_base_ms: u64 = 100;
    let mut retry_cap_ms: u64 = 5_000;
    let mut retry_seed: u64 = 0x5EED;
    let mut timeout_ms: u64 = 0;
    let mut want_stats = false;
    let mut want_health = false;
    let mut want_shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = PathBuf::from(it.next().expect("--socket needs a path")),
            "--id" => id = it.next().expect("--id needs a token").clone(),
            "--prio" => prio = Some(it.next().expect("--prio needs a class").clone()),
            "--req" => req = Some(it.next().expect("--req needs request text").clone()),
            "--cancel-after" => {
                cancel_after = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--cancel-after needs a progress-line count"),
                )
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--deadline-ms needs a millisecond count"),
                )
            }
            "--retries" => {
                retries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--retries needs a count")
            }
            "--retry-base-ms" => {
                retry_base_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--retry-base-ms needs a millisecond count")
            }
            "--retry-cap-ms" => {
                retry_cap_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--retry-cap-ms needs a millisecond count")
            }
            "--retry-seed" => {
                retry_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--retry-seed needs a number")
            }
            "--timeout-ms" => {
                timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--timeout-ms needs a millisecond count")
            }
            "--stats" => want_stats = true,
            "--health" => want_health = true,
            "--shutdown" => want_shutdown = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments client --socket PATH [flags]\n\
                     \n\
                     flags (with defaults):\n\
                     \x20 --req 'src=... cfg=... len=...'  request to run\n\
                     \x20 --id ID                  request id token (r1)\n\
                     \x20 --prio P                 interactive|normal|bulk (server EMA)\n\
                     \x20 --deadline-ms MS         arm a wall-clock deadline on the request\n\
                     \x20 --cancel-after N         cancel after N progress lines\n\
                     \x20 --retries N              retry budget for connect/overloaded (3)\n\
                     \x20 --retry-base-ms MS       backoff base delay (100)\n\
                     \x20 --retry-cap-ms MS        backoff delay cap (5000)\n\
                     \x20 --retry-seed N           backoff jitter seed (0x5EED)\n\
                     \x20 --timeout-ms MS          overall wall budget, 0 = unlimited (0)\n\
                     \x20 --stats | --health | --shutdown   control verbs"
                );
                return 0;
            }
            other => {
                eprintln!("unknown client flag `{other}`");
                return 2;
            }
        }
    }
    // Arm the deadline by round-tripping through the typed request, so
    // a malformed request fails here, not at the server.
    if let Some(ms) = deadline_ms {
        match req.as_deref().map(str::parse::<RunRequest>) {
            Some(Ok(parsed)) => req = Some(parsed.deadline_ms(ms).to_string()),
            Some(Err(e)) => {
                eprintln!("client: {e}");
                return 2;
            }
            None => {
                eprintln!("client: --deadline-ms needs --req");
                return 2;
            }
        }
    }
    let overall = Instant::now();
    let out_of_budget =
        |overall: &Instant| timeout_ms > 0 && overall.elapsed().as_millis() as u64 >= timeout_ms;
    let mut backoff = Backoff::new(retry_base_ms, retry_cap_ms, retry_seed);
    let mut attempt = 0u32;
    loop {
        let verdict = client_attempt(
            &socket,
            &id,
            prio.as_deref(),
            req.as_deref(),
            cancel_after,
            want_stats,
            want_health,
            want_shutdown,
            timeout_ms,
            &overall,
        );
        match verdict {
            Attempt::Exit(code) => return code,
            Attempt::Fail(reason) => {
                eprintln!("client: {reason}");
                return 1;
            }
            Attempt::Retry(reason) => {
                if attempt >= retries {
                    eprintln!("client: giving up after {attempt} retries ({reason})");
                    return 1;
                }
                attempt += 1;
                let delay = backoff.next_delay_ms();
                if out_of_budget(&overall) {
                    eprintln!("client: --timeout-ms budget exhausted ({reason})");
                    return 1;
                }
                eprintln!("client: {reason}; retry {attempt}/{retries} in {delay} ms");
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

/// One connect-send-read transaction against the server.
#[allow(clippy::too_many_arguments)]
fn client_attempt(
    socket: &Path,
    id: &str,
    prio: Option<&str>,
    req: Option<&str>,
    cancel_after: Option<u32>,
    want_stats: bool,
    want_health: bool,
    want_shutdown: bool,
    timeout_ms: u64,
    overall: &Instant,
) -> Attempt {
    let mut stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            return Attempt::Retry(format!("cannot connect to {}: {e}", socket.display()));
        }
    };
    if timeout_ms > 0 {
        // Poll in slices so the overall budget is enforced even when
        // the server stops talking mid-conversation.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    }
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => return Attempt::Fail(e.to_string()),
    };
    let send_line = |s: &mut UnixStream, line: &str| -> bool {
        s.write_all(line.as_bytes()).is_ok() && s.write_all(b"\n").is_ok() && s.flush().is_ok()
    };
    let out_of_budget =
        |overall: &Instant| timeout_ms > 0 && overall.elapsed().as_millis() as u64 >= timeout_ms;
    let read_line = |reader: &mut BufReader<UnixStream>| -> Result<Option<String>, Attempt> {
        let mut line = String::new();
        loop {
            if out_of_budget(overall) {
                return Err(Attempt::Fail("--timeout-ms budget exhausted".into()));
            }
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) => return Ok(Some(line.trim_end().to_string())),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(Attempt::Retry(format!("read failed: {e}"))),
            }
        }
    };
    if want_stats || want_health || want_shutdown {
        let verb = if want_shutdown {
            "shutdown"
        } else if want_health {
            "health"
        } else {
            "stats"
        };
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
    let Some(req) = req else {
        eprintln!("client: --req (or --stats/--health/--shutdown) is required");
        return Attempt::Exit(2);
    };
    let line = match prio {
        Some(p) => format!("run {id} prio={p} {req}"),
        None => format!("run {id} {req}"),
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
                if cancel_after == Some(progress_seen)
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
    let mut req: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--req" => req = Some(it.next().expect("--req needs request text").clone()),
            "--help" | "-h" => {
                eprintln!("usage: experiments run --req 'src=... cfg=... len=...'");
                return 0;
            }
            other => {
                eprintln!("unknown run flag `{other}`");
                return 2;
            }
        }
    }
    let Some(text) = req else {
        eprintln!("run: --req is required");
        return 2;
    };
    let parsed = match text.parse::<RunRequest>() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run: {}", SimError::from(e));
            return 2;
        }
    };
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
    fn wire_stats_round_trip_preserves_all_fields() {
        let mut s = SimStats {
            cycles: 12_345,
            committed_uops: 678,
            ..Default::default()
        };
        s.l1d.misses = 9;
        s.l2.accesses = 11;
        let line = stats_to_wire(&s);
        assert!(line.contains("cycles=12345"), "{line}");
        let back = stats_from_wire(&line).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn journal_keys_translate_only_for_standard_cells() {
        let (canonical, file) =
            translate_journal_key("SpecSched_4_Crit|SpecSched_4_Crit|fp_compute|w1000m5000")
                .expect("standard cell translates");
        assert_eq!(
            canonical,
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4_Crit len=w1000m5000"
        );
        assert_eq!(file, "SpecSched_4_Crit__fp_compute__w1000m5000.kv");
        // Renamed test cells and malformed keys are skipped, not errors.
        assert!(translate_journal_key("odd-name|SpecSched_4|fp_compute|w1m2").is_none());
        assert!(translate_journal_key("SpecSched_4|SpecSched_4|fp_compute").is_none());
        assert!(translate_journal_key("Bogus_4|Bogus_4|fp_compute|w1m2").is_none());
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
            ServeOptions {
                interactive_max_ms: 5_000,
                bulk_min_ms: 100,
                ..ServeOptions::default()
            },
            ServeOptions {
                write_timeout_ms: 0,
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
    fn server_answers_ping_run_and_stats_over_the_socket() {
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
        // Health reports a fully alive pool and the completed run.
        c.write_all(b"health\n").unwrap();
        let health = lines.next().unwrap().unwrap();
        assert!(health.starts_with("health uptime_ms="), "{health}");
        assert!(health.contains("workers=1"), "{health}");
        assert!(health.contains(" live=1"), "{health}");
        assert!(health.contains(" restarted=0"), "{health}");
        assert!(health.contains(" completed=1"), "{health}");
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
