//! The unified runner: every way to execute a simulation — fresh runs,
//! warm-state forks, oracle-checked runs, fault injection, trace capture
//! — behind one builder, [`RunRequest`], with one entry point,
//! [`RunRequest::execute`].
//!
//! A `RunRequest` is `source × config × length × oracle-check ×
//! snapshot-fork × trace-sink × fault-plan`. The encodable subset of
//! that product has a canonical single-line text form ([`fmt::Display`]
//! / [`FromStr`], property-tested like
//! [`ConfigSpec`]), so the same type is both the
//! library API and the `experiments serve` wire protocol:
//!
//! ```text
//! src=bench:fp_compute@0xb5 cfg=SpecSched_4_Crit len=w1000m5000 check=1
//! ```
//!
//! Real RV32IM programs run through the same front door: `src=rv:…`
//! resolves a [`ProgramSpec`] (suite program, ELF, or raw binary) into
//! the functional-frontend trace source; with `check=1` the in-order
//! golden model walks a second copy of the same program.
//!
//! Library-only capabilities (custom [`SimConfig`]s, in-memory
//! [`KernelSpec`]s / [`Snapshot`]s, arbitrary [`TraceSource`]s) render
//! as `<...>` markers the parser rejects with a typed
//! [`ParseRequestError`] naming the marker — they can run, but not
//! travel.
//!
//! [`RunRequest::execute_observed`] adds cooperative cancellation (a
//! [`CancelFlag`] checked between bounded measurement chunks, surfacing
//! [`SimError::Cancelled`]) and incremental progress callbacks; chunked
//! execution is bit-identical to a single `try_run_committed` call
//! because commit targets are computed against absolute commit counts.

use crate::diff::DiffChecker;
use crate::fault::FaultPlan;
use crate::pipeline::{load_snapshot, Simulator, WorkCounts};
use ss_frontend::{ProgramSpec, RvTraceSource};
use ss_oracle::InOrderModel;
use ss_snapshot::Snapshot;
use ss_types::persist::PersistState;
use ss_types::trace::{CaptureSink, TraceEvent, TraceSink};
use ss_types::{CancelFlag, ConfigSpec, SimConfig, SimError, SimStats};
use ss_workloads::{kernels, KernelSpec, KernelTrace, TraceSource};
use std::fmt;
use std::str::FromStr;

/// How long to run a measurement, in committed µ-ops.
///
/// Canonical text form `w{warmup}m{measure}` (the same token used in
/// session cache keys and the `RunRequest` wire encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Committed µ-ops of warmup discarded from the statistics.
    pub warmup: u64,
    /// Committed µ-ops measured.
    pub measure: u64,
}

impl RunLength {
    /// A short smoke-test length for unit/integration tests.
    pub const SMOKE: RunLength = RunLength {
        warmup: 5_000,
        measure: 30_000,
    };
}

impl fmt::Display for RunLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}m{}", self.warmup, self.measure)
    }
}

impl FromStr for RunLength {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("invalid run length `{s}` (expected `w{{warmup}}m{{measure}}`)");
        let rest = s.strip_prefix('w').ok_or_else(bad)?;
        let (w, m) = rest.split_once('m').ok_or_else(bad)?;
        Ok(RunLength {
            warmup: w.parse().map_err(|_| bad())?,
            measure: m.parse().map_err(|_| bad())?,
        })
    }
}

/// A trace source whose internal state rides along in snapshots, so
/// warm-state capture/fork works through it. Blanket-implemented; boxed
/// trait objects of it still satisfy `TraceSource + PersistState`.
pub trait RunSource: TraceSource + PersistState + Send {}
impl<T: TraceSource + PersistState + Send> RunSource for T {}

/// Where the µ-op stream comes from.
enum Source {
    /// A registry benchmark built at a seed (`bench:{name}@{seed:#x}`).
    Bench { name: String, seed: u64 },
    /// A random kernel from the generator (`gen:{seed:#x}`).
    Gen { seed: u64 },
    /// A real RV32IM program run by the functional frontend
    /// (`rv:{name}@{seed:#x}` / `rv:elf:{path}` / `rv:bin:{path}@{entry}`).
    Rv(ProgramSpec),
    /// An in-memory kernel spec (library-only).
    Spec(KernelSpec),
    /// An arbitrary caller trace that persists into snapshots
    /// (library-only).
    Trace(Box<dyn RunSource>),
}

impl fmt::Debug for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Bench { name, seed } => write!(f, "Bench({name}@{seed:#x})"),
            Source::Gen { seed } => write!(f, "Gen({seed:#x})"),
            Source::Rv(spec) => write!(f, "Rv({spec})"),
            Source::Spec(spec) => write!(f, "Spec({})", spec.name),
            Source::Trace(t) => write!(f, "Trace({})", t.name()),
        }
    }
}

impl PartialEq for Source {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Source::Bench { name: a, seed: x }, Source::Bench { name: b, seed: y }) => {
                a == b && x == y
            }
            (Source::Gen { seed: a }, Source::Gen { seed: b }) => a == b,
            (Source::Rv(a), Source::Rv(b)) => a == b,
            (Source::Spec(a), Source::Spec(b)) => a == b,
            // Opaque sources never compare equal (like NaN): equality is
            // only meaningful for the encodable surface.
            _ => false,
        }
    }
}

/// The machine description.
#[derive(Debug, Clone, PartialEq)]
enum Config {
    /// A named paper configuration (encodable).
    Spec(ConfigSpec),
    /// An arbitrary `SimConfig` (library-only).
    Custom(Box<SimConfig>),
}

/// Snapshot forking mode.
#[derive(Debug, PartialEq)]
enum Fork {
    /// Cold start, no snapshot involvement.
    Fresh,
    /// Run the warmup, capture the warm state into
    /// [`RunOutcome::snapshot`], then measure.
    Capture,
    /// Restore an in-memory warm snapshot and measure (library-only).
    Snapshot(Box<Snapshot>),
    /// Load a verified warm snapshot from disk and measure (encodable:
    /// `fork=snap:{path}`).
    Path(String),
}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Warmup-corrected statistics for the measurement window.
    pub stats: SimStats,
    /// The warm state captured after warmup, when the request asked for
    /// [`RunRequest::capture_warm`].
    pub snapshot: Option<Snapshot>,
    /// Captured pipeline events (empty unless a trace mode was set).
    pub trace: Vec<TraceEvent>,
    /// Work counts over the whole run, warmup included (for a fork,
    /// from the restore on).
    pub work: WorkCounts,
}

/// Error from parsing a [`RunRequest`] wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRequestError {
    /// The offending input line.
    pub input: String,
    /// What was wrong with it.
    pub reason: String,
    /// When the input carried a library-only `<…>` marker (a rendered
    /// request whose capabilities cannot travel over the wire — e.g.
    /// `<custom>`, `<spec:…>`, `<snapshot>`, `<unset>`), the marker
    /// itself; `None` for ordinary syntax errors.
    pub library_only: Option<String>,
}

impl fmt::Display for ParseRequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid run request `{}`: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParseRequestError {}

/// Lifts a parse failure into the simulator's typed error space:
/// library-only markers become a [`SimError::ConfigInvalid`] that names
/// the offending marker, so callers (and wire peers) see *which*
/// capability failed to travel rather than a generic syntax complaint.
impl From<ParseRequestError> for SimError {
    fn from(e: ParseRequestError) -> Self {
        match &e.library_only {
            Some(marker) => SimError::ConfigInvalid(format!(
                "library-only marker `{marker}` cannot travel over the wire: {e}"
            )),
            None => SimError::ConfigInvalid(e.to_string()),
        }
    }
}

/// The unified run description: build with the source constructors
/// ([`bench`](RunRequest::bench), [`generated`](RunRequest::generated),
/// [`kernel`](RunRequest::kernel), [`trace_source`](RunRequest::trace_source)),
/// refine with the
/// chainable setters, run with [`execute`](RunRequest::execute).
#[derive(Debug, PartialEq)]
pub struct RunRequest {
    source: Source,
    config: Config,
    len: Option<RunLength>,
    deadline_ms: Option<u64>,
    check: bool,
    fork: Fork,
    /// The capture sink to run with; `None` keeps the zero-cost
    /// `NullSink` path.
    trace: Option<CaptureSink>,
    faults: FaultPlan,
    seed_bug: bool,
    checkpoint: Option<String>,
}

impl RunRequest {
    fn with_source(source: Source) -> Self {
        RunRequest {
            source,
            config: Config::Custom(Box::<SimConfig>::default()),
            len: None,
            deadline_ms: None,
            check: false,
            fork: Fork::Fresh,
            trace: None,
            faults: FaultPlan::new(),
            seed_bug: false,
            checkpoint: None,
        }
    }

    /// A registry benchmark built at `seed` (see
    /// [`ss_workloads::BENCHMARKS`]). The name is resolved at
    /// [`execute`](RunRequest::execute) time; an unknown name is
    /// [`SimError::ConfigInvalid`].
    pub fn bench(name: impl Into<String>, seed: u64) -> Self {
        Self::with_source(Source::Bench {
            name: name.into(),
            seed,
        })
    }

    /// A random kernel from the seeded generator
    /// ([`ss_workloads::gen::gen_kernel`]).
    pub fn generated(seed: u64) -> Self {
        Self::with_source(Source::Gen { seed })
    }

    /// A real RV32IM program executed by the functional frontend
    /// (encodable: `rv:{name}@{seed:#x}`, `rv:elf:{path}`, or
    /// `rv:bin:{path}@{entry:#x}`). Resolution — suite build or file
    /// load — happens at [`execute`](RunRequest::execute) time; a
    /// failure is [`SimError::ConfigInvalid`]. Oracle checking and
    /// snapshot forking both work: the trace source persists its full
    /// architectural state, and the oracle re-walks the same program.
    pub fn program(spec: ProgramSpec) -> Self {
        Self::with_source(Source::Rv(spec))
    }

    /// An in-memory kernel spec (library-only: renders unparseable).
    pub fn kernel(spec: KernelSpec) -> Self {
        Self::with_source(Source::Spec(spec))
    }

    /// An arbitrary trace source whose state persists into snapshots
    /// (library-only). Supports warm-state capture and restore; oracle
    /// checking requires a kernel-backed source.
    pub fn trace_source(src: impl TraceSource + PersistState + Send + 'static) -> Self {
        Self::with_source(Source::Trace(Box::new(src)))
    }

    /// Runs on the named paper configuration (encodable).
    pub fn config(mut self, spec: ConfigSpec) -> Self {
        self.config = Config::Spec(spec);
        self
    }

    /// Runs on an arbitrary machine description (library-only).
    pub fn custom_config(mut self, cfg: SimConfig) -> Self {
        self.config = Config::Custom(Box::new(cfg));
        self
    }

    /// Sets the warmup/measure budget. Required: executing without one
    /// is [`SimError::ConfigInvalid`].
    pub fn length(mut self, len: RunLength) -> Self {
        self.len = Some(len);
        self
    }

    /// The configured budget, if set.
    pub fn run_length(&self) -> Option<RunLength> {
        self.len
    }

    /// Bounds the run's wall-clock time: past `ms` milliseconds the run
    /// ends with [`SimError::DeadlineExceeded`], checked between
    /// measurement chunks exactly like cancellation (the chunk size is
    /// capped while a deadline is armed, so enforcement granularity is
    /// milliseconds, not the whole run). Clamped to ≥ 1 ms.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms.max(1));
        self
    }

    /// The armed wall-clock budget in milliseconds, if any.
    pub fn deadline(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Attaches the differential oracle: every commit is compared
    /// against an in-order golden model; the first mismatch ends the run
    /// with [`SimError::Divergence`]. Requires a kernel-backed or
    /// program-backed ([`program`](RunRequest::program)) source.
    pub fn checked(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Captures the warm machine state after warmup into
    /// [`RunOutcome::snapshot`] (then measures, if `measure > 0`).
    pub fn capture_warm(mut self) -> Self {
        self.fork = Fork::Capture;
        self
    }

    /// Forks off an in-memory warm snapshot instead of running the
    /// warmup; the statistics baseline travels inside the snapshot.
    pub fn from_snapshot(mut self, snap: Snapshot) -> Self {
        self.fork = Fork::Snapshot(Box::new(snap));
        self
    }

    /// Forks off a verified on-disk warm snapshot (encodable). The path
    /// doubles as the failure-report checkpoint note unless
    /// [`checkpoint_note`](RunRequest::checkpoint_note) overrides it.
    pub fn from_snapshot_path(mut self, path: impl Into<String>) -> Self {
        self.fork = Fork::Path(path.into());
        self
    }

    /// Names the warm state's filesystem home in failure reports, so
    /// crashes reproduce from the checkpoint directly.
    pub fn checkpoint_note(mut self, note: impl Into<String>) -> Self {
        self.checkpoint = Some(note.into());
        self
    }

    /// Keeps a bounded flight recorder of the most recent `capacity`
    /// pipeline events (the fuzzing sink).
    pub fn ring_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(CaptureSink::ring(capacity));
        self
    }

    /// Captures every event whose µ-op sequence number falls in
    /// `[lo, hi)`, plus per-cycle occupancy samples (the pipeview /
    /// Perfetto sink).
    pub fn window_trace(mut self, window: std::ops::Range<u64>) -> Self {
        self.trace = Some(CaptureSink::with_window(window));
        self
    }

    /// Injects a deterministic fault schedule (validated at execute).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Arms the intentional wakeup bug (oracle "teeth" test hook).
    pub fn seed_wakeup_bug(mut self) -> Self {
        self.seed_bug = true;
        self
    }

    /// The EMA cost-tracking key the serve layer buckets this request
    /// under: `{config}|{source}` — one moving average per
    /// (machine, workload) cell, whatever the lengths and trimmings.
    pub fn cost_key(&self) -> String {
        format!("{}|{}", self.config_token(), self.source_token())
    }

    fn source_token(&self) -> String {
        match &self.source {
            Source::Bench { name, seed } => format!("bench:{name}@{seed:#x}"),
            Source::Gen { seed } => format!("gen:{seed:#x}"),
            Source::Rv(spec) => spec.to_string(),
            Source::Spec(spec) => format!("<spec:{}>", spec.name),
            Source::Trace(t) => format!("<trace:{}>", t.name()),
        }
    }

    fn config_token(&self) -> String {
        match &self.config {
            Config::Spec(spec) => spec.to_string(),
            Config::Custom(_) => "<custom>".to_string(),
        }
    }

    /// Runs to completion. Equivalent to
    /// [`execute_observed`](RunRequest::execute_observed) with a fresh
    /// (never-fired) cancel flag and a single measurement chunk.
    pub fn execute(self) -> Result<RunOutcome, SimError> {
        self.execute_observed(&CancelFlag::new(), u64::MAX, |_, _| {})
    }

    /// Runs with cooperative cancellation and incremental progress.
    ///
    /// The run is sliced into chunks of at most `chunk` committed µ-ops
    /// (`0` means unbounded); between chunks `cancel` is polled —
    /// firing it ends the run with [`SimError::Cancelled`] — and
    /// `progress(done, total)` is invoked with committed-µ-op counts
    /// over the whole warmup + measure budget. Chunking is bit-identical
    /// to an unchunked run: commit targets are absolute, so the slice
    /// boundaries leave no trace in the statistics.
    pub fn execute_observed(
        self,
        cancel: &CancelFlag,
        chunk: u64,
        progress: impl FnMut(u64, u64),
    ) -> Result<RunOutcome, SimError> {
        let RunRequest {
            source,
            config,
            len,
            deadline_ms,
            check,
            fork,
            trace,
            faults,
            seed_bug,
            checkpoint,
        } = self;
        let cfg = match config {
            Config::Spec(spec) => spec.config(),
            Config::Custom(cfg) => *cfg,
        };
        cfg.try_validate()?;
        let len = len.ok_or_else(|| {
            SimError::ConfigInvalid("run request has no length (call .length(..))".into())
        })?;

        // Resolve the fork mode: disk snapshots are loaded and verified
        // here, and the path becomes the default checkpoint note.
        let (fork, checkpoint) = match fork {
            Fork::Path(path) => {
                let snap = load_snapshot(std::path::Path::new(&path))?;
                (Fork::Snapshot(Box::new(snap)), checkpoint.or(Some(path)))
            }
            other => (other, checkpoint),
        };

        let mut progress = progress;
        let chunk = if chunk == 0 { u64::MAX } else { chunk };
        // An armed deadline needs the between-chunk check to fire at
        // millisecond granularity: cap the slice size. Chunking is
        // bit-identical to an unchunked run, so this never changes stats.
        let chunk = if deadline_ms.is_some() {
            chunk.min(20_000)
        } else {
            chunk
        };
        let drive = Drive {
            len,
            fork,
            faults,
            seed_bug,
            checkpoint,
            cancel,
            chunk,
            deadline: deadline_ms.map(|ms| (std::time::Instant::now(), ms)),
            progress: &mut progress,
        };

        // Resolve the source, build the oracle when asked, dispatch.
        match source {
            Source::Bench { name, seed } => {
                let bench = kernels::benchmark(&name).ok_or_else(|| {
                    SimError::ConfigInvalid(format!("unknown benchmark `{name}`"))
                })?;
                drive.kernel(cfg, (bench.build)(seed), check, trace)
            }
            Source::Gen { seed } => {
                let mut rng = ss_types::Xoshiro256::seed_from_u64(seed);
                drive.kernel(cfg, ss_workloads::gen::gen_kernel(&mut rng), check, trace)
            }
            Source::Spec(spec) => drive.kernel(cfg, spec, check, trace),
            Source::Rv(spec) => {
                let prog = spec.resolve().map_err(SimError::ConfigInvalid)?;
                let checker = check.then(|| {
                    let oracle = InOrderModel::new(RvTraceSource::new(prog.clone()));
                    DiffChecker::new(Box::new(oracle))
                });
                drive.sink_dispatch(cfg, RvTraceSource::new(prog), checker, trace)
            }
            Source::Trace(src) => {
                if check {
                    return Err(SimError::ConfigInvalid(
                        "oracle checking requires a kernel-backed source".into(),
                    ));
                }
                drive.sink_dispatch(cfg, src, None, trace)
            }
        }
    }
}

/// The resolved run parameters threaded through the generic drivers.
struct Drive<'a> {
    len: RunLength,
    fork: Fork,
    faults: FaultPlan,
    seed_bug: bool,
    checkpoint: Option<String>,
    cancel: &'a CancelFlag,
    chunk: u64,
    /// Wall-clock budget: the instant the run started driving and the
    /// number of milliseconds it may take, when a deadline is armed.
    deadline: Option<(std::time::Instant, u64)>,
    progress: &'a mut dyn FnMut(u64, u64),
}

impl Drive<'_> {
    /// Kernel-backed sources: validated when checked, oracle attachable,
    /// snapshot-forkable.
    fn kernel(
        self,
        cfg: SimConfig,
        spec: KernelSpec,
        check: bool,
        trace: Option<CaptureSink>,
    ) -> Result<RunOutcome, SimError> {
        let checker = if check {
            spec.validate().map_err(SimError::ConfigInvalid)?;
            Some(DiffChecker::new(Box::new(InOrderModel::from_spec(
                spec.clone(),
            ))))
        } else {
            None
        };
        self.sink_dispatch(cfg, KernelTrace::new(spec), checker, trace)
    }

    /// Monomorphizes the sink: the no-trace path keeps the zero-cost
    /// `NullSink`, tracing runs pay for exactly what they capture.
    fn sink_dispatch<T: TraceSource + PersistState>(
        self,
        cfg: SimConfig,
        src: T,
        checker: Option<DiffChecker>,
        trace: Option<CaptureSink>,
    ) -> Result<RunOutcome, SimError> {
        match trace {
            None => self.run(Simulator::new(cfg, src), checker),
            Some(sink) => self.run(Simulator::with_sink(cfg, src, sink), checker),
        }
    }

    fn prepare<T: TraceSource, S: TraceSink>(
        &self,
        sim: &mut Simulator<T, S>,
        checker: Option<DiffChecker>,
    ) -> Result<(), SimError> {
        if let Some(ck) = checker {
            sim.attach_diff_checker(ck);
        }
        if self.faults != FaultPlan::new() {
            sim.set_fault_plan(self.faults.clone())?;
        }
        if self.seed_bug {
            sim.seed_wakeup_bug();
        }
        Ok(())
    }

    /// Runs `sim` cold, capturing its warm state, or forked from a
    /// snapshot.
    fn run<T: TraceSource + PersistState, S: TraceSink>(
        mut self,
        mut sim: Simulator<T, S>,
        checker: Option<DiffChecker>,
    ) -> Result<RunOutcome, SimError> {
        match std::mem::replace(&mut self.fork, Fork::Fresh) {
            Fork::Fresh => {
                self.prepare(&mut sim, checker)?;
                let total = self.len.warmup + self.len.measure;
                let warm = self.run_chunked(&mut sim, self.len.warmup, 0, total)?;
                let end = self.run_chunked(&mut sim, self.len.measure, self.len.warmup, total)?;
                Ok(RunOutcome {
                    stats: end.delta(&warm),
                    snapshot: None,
                    work: sim.work(),
                    trace: sim.sink().recent(),
                })
            }
            Fork::Capture => {
                self.prepare(&mut sim, checker)?;
                let total = self.len.warmup + self.len.measure;
                let warm = self.run_chunked(&mut sim, self.len.warmup, 0, total)?;
                let snapshot = sim.capture();
                let end = self.run_chunked(&mut sim, self.len.measure, self.len.warmup, total)?;
                Ok(RunOutcome {
                    stats: end.delta(&warm),
                    snapshot: Some(snapshot),
                    work: sim.work(),
                    trace: sim.sink().recent(),
                })
            }
            Fork::Snapshot(snap) => {
                self.prepare(&mut sim, checker)?;
                sim.restore(&snap)?;
                if let Some(cp) = self.checkpoint.take() {
                    sim.set_checkpoint_note(cp);
                }
                let warm = sim.stats();
                let end = self.run_chunked(&mut sim, self.len.measure, 0, self.len.measure)?;
                Ok(RunOutcome {
                    stats: end.delta(&warm),
                    snapshot: None,
                    work: sim.work(),
                    trace: sim.sink().recent(),
                })
            }
            Fork::Path(_) => unreachable!("paths resolve to snapshots in execute_observed"),
        }
    }

    /// Runs `n` more committed µ-ops in cancellable slices. Targets are
    /// absolute commit counts, so slicing is bit-identical to one call.
    fn run_chunked<T: TraceSource, S: TraceSink>(
        &mut self,
        sim: &mut Simulator<T, S>,
        n: u64,
        base: u64,
        total: u64,
    ) -> Result<SimStats, SimError> {
        let start = sim.stats().committed_uops;
        let target = start + n;
        loop {
            let committed = sim.stats().committed_uops;
            let done = committed.saturating_sub(start).min(n);
            if self.cancel.is_cancelled() {
                return Err(SimError::Cancelled {
                    committed: base + done,
                });
            }
            if let Some((started, budget_ms)) = self.deadline {
                if started.elapsed().as_millis() as u64 >= budget_ms {
                    return Err(SimError::DeadlineExceeded {
                        committed: base + done,
                        budget_ms,
                    });
                }
            }
            if committed >= target {
                return Ok(sim.stats());
            }
            let step = self.chunk.min(target - committed);
            sim.try_run_committed(step)?;
            let done = (sim.stats().committed_uops - start).min(n);
            (self.progress)(base + done, total);
        }
    }
}

// ---------------------------------------------------------------------
// Canonical text encoding: `src=... cfg=... len=... [deadline=ms]
// [fork=] [check=1] [trace=] [faults=] [bug=1] [note=]`. Display
// renders tokens in that fixed order; FromStr accepts any order and
// rejects duplicates, unknown keys, and the `<...>` markers of
// library-only requests.
// ---------------------------------------------------------------------

impl fmt::Display for RunRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src={} cfg={}", self.source_token(), self.config_token())?;
        match self.len {
            Some(len) => write!(f, " len={len}")?,
            None => write!(f, " len=<unset>")?,
        }
        if let Some(ms) = self.deadline_ms {
            write!(f, " deadline={ms}")?;
        }
        match &self.fork {
            Fork::Fresh => {}
            Fork::Capture => write!(f, " fork=capture")?,
            Fork::Snapshot(_) => write!(f, " fork=<snapshot>")?,
            Fork::Path(p) => write!(f, " fork=snap:{p}")?,
        }
        if self.check {
            write!(f, " check=1")?;
        }
        if let Some(sink) = &self.trace {
            write!(f, " trace={sink}")?;
        }
        if self.faults != FaultPlan::new() {
            write!(f, " faults={}", self.faults)?;
        }
        if self.seed_bug {
            write!(f, " bug=1")?;
        }
        if let Some(note) = &self.checkpoint {
            write!(f, " note={note}")?;
        }
        Ok(())
    }
}

/// Parses `0x`-prefixed hex or decimal.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl FromStr for RunRequest {
    type Err = ParseRequestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: String| ParseRequestError {
            input: s.to_string(),
            reason,
            library_only: None,
        };
        let mut src: Option<Source> = None;
        let mut cfg: Option<ConfigSpec> = None;
        let mut len: Option<RunLength> = None;
        let mut deadline: Option<u64> = None;
        let mut fork: Option<Fork> = None;
        let mut check = false;
        let mut trace: Option<CaptureSink> = None;
        let mut faults: Option<FaultPlan> = None;
        let mut bug = false;
        let mut note: Option<String> = None;
        let mut seen = std::collections::HashSet::new();
        for token in s.split_whitespace() {
            let (key, val) = token
                .split_once('=')
                .ok_or_else(|| err(format!("token `{token}` is not `key=value`")))?;
            if !seen.insert(key.to_string()) {
                return Err(err(format!("duplicate key `{key}`")));
            }
            // Library-only `<…>` markers (how Display renders requests
            // that cannot travel: custom configs, in-memory specs and
            // snapshots, arbitrary trace sources, unset lengths) are a
            // distinct, typed failure: the caller pasted a rendered
            // request whose capability has no wire form.
            if val.starts_with('<') {
                return Err(ParseRequestError {
                    input: s.to_string(),
                    reason: format!(
                        "`{key}={val}`: `{val}` is a library-only marker, not an encodable value"
                    ),
                    library_only: Some(val.to_string()),
                });
            }
            match key {
                "src" => {
                    let parsed = if let Some(rest) = val.strip_prefix("bench:") {
                        let (name, seed) = rest.split_once('@').ok_or_else(|| {
                            err(format!("src `{val}`: expected `bench:{{name}}@{{seed}}`"))
                        })?;
                        Source::Bench {
                            name: name.to_string(),
                            seed: parse_u64(seed)
                                .ok_or_else(|| err(format!("src `{val}`: bad seed")))?,
                        }
                    } else if let Some(seed) = val.strip_prefix("gen:") {
                        Source::Gen {
                            seed: parse_u64(seed)
                                .ok_or_else(|| err(format!("src `{val}`: bad seed")))?,
                        }
                    } else if val.starts_with("rv:") {
                        Source::Rv(
                            val.parse::<ProgramSpec>()
                                .map_err(|e| err(format!("src `{val}`: {e}")))?,
                        )
                    } else {
                        return Err(err(format!(
                            "src `{val}`: expected `bench:{{name}}@{{seed}}`, `gen:{{seed}}`, \
                             or `rv:…`"
                        )));
                    };
                    src = Some(parsed);
                }
                "cfg" => {
                    cfg = Some(val.parse::<ConfigSpec>().map_err(|e| err(e.to_string()))?);
                }
                "len" => {
                    len = Some(val.parse::<RunLength>().map_err(&err)?);
                }
                "deadline" => {
                    let ms = parse_u64(val)
                        .ok_or_else(|| err(format!("deadline `{val}`: bad millisecond count")))?;
                    if ms == 0 {
                        return Err(err("deadline `0`: must be ≥ 1 ms".to_string()));
                    }
                    deadline = Some(ms);
                }
                "fork" => {
                    fork = Some(if val == "capture" {
                        Fork::Capture
                    } else if let Some(path) = val.strip_prefix("snap:") {
                        if path.is_empty() {
                            return Err(err("fork `snap:`: empty path".to_string()));
                        }
                        Fork::Path(path.to_string())
                    } else {
                        return Err(err(format!(
                            "fork `{val}`: expected `capture` or `snap:{{path}}`"
                        )));
                    });
                }
                "check" => match val {
                    "1" => check = true,
                    _ => return Err(err(format!("check `{val}`: expected `1`"))),
                },
                "trace" => {
                    trace = Some(if let Some(cap) = val.strip_prefix("ring:") {
                        CaptureSink::ring(
                            cap.parse::<usize>()
                                .ok()
                                .filter(|&c| c > 0)
                                .ok_or_else(|| err(format!("trace `{val}`: bad capacity")))?,
                        )
                    } else if let Some(win) = val.strip_prefix("win:") {
                        let (lo, hi) = win
                            .split_once("..")
                            .and_then(|(l, h)| Some((parse_u64(l)?, parse_u64(h)?)))
                            .ok_or_else(|| {
                                err(format!("trace `{val}`: expected `win:{{lo}}..{{hi}}`"))
                            })?;
                        CaptureSink::with_window(lo..hi)
                    } else {
                        return Err(err(format!(
                            "trace `{val}`: expected `ring:{{cap}}` or `win:{{lo}}..{{hi}}`"
                        )));
                    });
                }
                "faults" => {
                    faults = Some(
                        val.parse::<FaultPlan>()
                            .map_err(|e| err(format!("faults `{val}`: {e}")))?,
                    );
                }
                "bug" => match val {
                    "1" => bug = true,
                    _ => return Err(err(format!("bug `{val}`: expected `1`"))),
                },
                "note" => note = Some(val.to_string()),
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        let src = src.ok_or_else(|| err("missing `src=`".to_string()))?;
        let cfg = cfg.ok_or_else(|| err("missing `cfg=`".to_string()))?;
        let len = len.ok_or_else(|| err("missing `len=`".to_string()))?;
        Ok(RunRequest {
            source: src,
            config: Config::Spec(cfg),
            len: Some(len),
            deadline_ms: deadline,
            check,
            fork: fork.unwrap_or(Fork::Fresh),
            trace,
            faults: faults.unwrap_or_default(),
            seed_bug: bug,
            checkpoint: note,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::SchedPolicyKind;
    use ss_workloads::kernels;

    #[test]
    fn smoke_run_produces_sane_stats() {
        let cfg = SimConfig::builder()
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .build();
        let s = RunRequest::kernel(kernels::fp_compute(1))
            .custom_config(cfg)
            .length(RunLength::SMOKE)
            .execute()
            .unwrap()
            .stats;
        // run_committed stops at the first commit boundary past the target
        assert!(s.committed_uops >= 30_000 && s.committed_uops < 30_000 + 8);
        assert!(s.cycles > 0);
        let ipc = s.ipc();
        assert!(ipc > 0.1 && ipc < 8.0, "implausible IPC {ipc}");
    }

    #[test]
    fn warm_restore_run_is_stat_identical_to_fresh_run() {
        let cfg = SimConfig::builder().build();
        let len = RunLength {
            warmup: 2_000,
            measure: 8_000,
        };
        let fresh = RunRequest::kernel(kernels::mix_int(3))
            .custom_config(cfg.clone())
            .length(len)
            .execute()
            .unwrap()
            .stats;
        let snap = RunRequest::kernel(kernels::mix_int(3))
            .custom_config(cfg.clone())
            .length(RunLength {
                warmup: len.warmup,
                measure: 0,
            })
            .capture_warm()
            .execute()
            .unwrap()
            .snapshot
            .unwrap();
        let warm = RunRequest::kernel(kernels::mix_int(3))
            .custom_config(cfg)
            .length(RunLength {
                warmup: 0,
                measure: len.measure,
            })
            .from_snapshot(snap)
            .checkpoint_note("warm/test.snap")
            .execute()
            .unwrap()
            .stats;
        assert_eq!(fresh, warm, "restored run must be bit-identical");
    }

    #[test]
    fn checked_run_matches_unchecked_stats() {
        let cfg = SimConfig::builder()
            .sched_policy(SchedPolicyKind::AlwaysHit)
            .commit_log_window(32)
            .build();
        let len = RunLength {
            warmup: 1_000,
            measure: 5_000,
        };
        let base = RunRequest::kernel(kernels::mix_int(2))
            .custom_config(cfg.clone())
            .length(len);
        let plain = base.execute().unwrap().stats;
        let checked = RunRequest::kernel(kernels::mix_int(2))
            .custom_config(cfg)
            .length(len)
            .checked(true)
            .execute()
            .unwrap()
            .stats;
        assert_eq!(plain.committed_uops, checked.committed_uops);
        assert_eq!(
            plain.cycles, checked.cycles,
            "checker must not perturb timing"
        );
    }

    #[test]
    fn chunked_execution_is_bit_identical_and_reports_progress() {
        let cfg = SimConfig::builder().build();
        let len = RunLength {
            warmup: 1_000,
            measure: 6_000,
        };
        let one_shot = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg.clone())
            .length(len)
            .execute()
            .unwrap()
            .stats;
        let mut reports = Vec::new();
        let chunked = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg)
            .length(len)
            .execute_observed(&CancelFlag::new(), 500, |done, total| {
                reports.push((done, total))
            })
            .unwrap()
            .stats;
        assert_eq!(one_shot, chunked, "chunking must leave no trace in stats");
        assert!(reports.len() >= 14, "expected ~14 chunks, saw {reports:?}");
        assert!(reports.iter().all(|&(_, t)| t == 7_000));
        assert_eq!(reports.last().unwrap().0, 7_000);
        let dones: Vec<u64> = reports.iter().map(|r| r.0).collect();
        assert!(dones.windows(2).all(|w| w[0] < w[1]), "monotone progress");
    }

    #[test]
    fn cancellation_stops_a_running_cell_with_typed_error() {
        let cfg = SimConfig::builder().build();
        let cancel = CancelFlag::new();
        let err = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg)
            .length(RunLength {
                warmup: 1_000,
                measure: 1_000_000,
            })
            .execute_observed(&cancel, 500, |done, _| {
                if done >= 2_000 {
                    cancel.cancel();
                }
            })
            .unwrap_err();
        match err {
            SimError::Cancelled { committed } => {
                assert!(
                    (2_000..10_000).contains(&committed),
                    "cancel took effect at the next chunk boundary, got {committed}"
                );
            }
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn deadline_ends_a_long_run_with_committed_evidence() {
        let cfg = SimConfig::builder().build();
        let err = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg)
            .length(RunLength {
                warmup: 1_000,
                // Far more work than 1 ms of wall clock can commit.
                measure: u64::MAX / 2,
            })
            .deadline_ms(1)
            .execute()
            .unwrap_err();
        match err {
            SimError::DeadlineExceeded {
                committed,
                budget_ms,
            } => {
                assert_eq!(budget_ms, 1);
                assert!(
                    committed < u64::MAX / 4,
                    "a 1 ms budget cannot have finished the run, got {committed}"
                );
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn generous_deadline_leaves_stats_untouched() {
        let cfg = SimConfig::builder().build();
        let len = RunLength {
            warmup: 1_000,
            measure: 6_000,
        };
        let plain = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg.clone())
            .length(len)
            .execute()
            .unwrap()
            .stats;
        let bounded = RunRequest::kernel(kernels::mix_int(5))
            .custom_config(cfg)
            .length(len)
            .deadline_ms(600_000)
            .execute()
            .unwrap()
            .stats;
        assert_eq!(plain, bounded, "an unhit deadline must leave no trace");
    }

    #[test]
    fn deadline_wire_round_trips_and_rejects_zero() {
        let req = RunRequest::bench("fp_compute", 0xb5)
            .config("Baseline_4".parse().unwrap())
            .length(RunLength {
                warmup: 1_000,
                measure: 5_000,
            })
            .deadline_ms(2_500);
        let line = req.to_string();
        assert_eq!(
            line,
            "src=bench:fp_compute@0xb5 cfg=Baseline_4 len=w1000m5000 deadline=2500"
        );
        assert_eq!(line.parse::<RunRequest>().as_ref(), Ok(&req));
        let err = "src=gen:0x1 cfg=Baseline_4 len=w10m100 deadline=0"
            .parse::<RunRequest>()
            .unwrap_err();
        assert!(err.reason.contains("≥ 1 ms"), "{err}");
    }

    #[test]
    fn execute_requires_a_length() {
        let err = RunRequest::kernel(kernels::mix_int(1))
            .execute()
            .unwrap_err();
        assert!(matches!(err, SimError::ConfigInvalid(_)), "{err}");
    }

    #[test]
    fn checked_trace_source_is_rejected() {
        let err = RunRequest::trace_source(KernelTrace::new(kernels::mix_int(1)))
            .length(RunLength::SMOKE)
            .checked(true)
            .execute()
            .unwrap_err();
        assert!(err.to_string().contains("kernel-backed"), "{err}");
    }

    #[test]
    fn wire_encoding_round_trips_and_rejects_library_only() {
        let req = RunRequest::bench("fp_compute", 0xb5)
            .config("SpecSched_4_Crit".parse().unwrap())
            .length(RunLength {
                warmup: 1_000,
                measure: 5_000,
            })
            .checked(true)
            .faults(FaultPlan::new().latency_spike(200, 50, 8))
            .ring_trace(256);
        let line = req.to_string();
        assert_eq!(
            line,
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4_Crit len=w1000m5000 check=1 \
             trace=ring:256 faults=spike@200x50+8"
        );
        assert_eq!(line.parse::<RunRequest>().as_ref(), Ok(&req));

        let library_only = RunRequest::kernel(kernels::mix_int(1))
            .custom_config(SimConfig::default())
            .length(RunLength::SMOKE);
        let line = library_only.to_string();
        assert!(line.contains("<spec:") && line.contains("<custom>"));
        assert!(line.parse::<RunRequest>().is_err());
    }

    #[test]
    fn library_only_markers_are_typed_and_convert_to_config_invalid() {
        let line = RunRequest::kernel(kernels::mix_int(1))
            .custom_config(SimConfig::default())
            .length(RunLength::SMOKE)
            .to_string();
        let err = line.parse::<RunRequest>().unwrap_err();
        assert_eq!(err.library_only.as_deref(), Some("<spec:mix_int>"));
        let sim_err = SimError::from(err);
        match sim_err {
            SimError::ConfigInvalid(msg) => {
                assert!(msg.contains("<spec:mix_int>"), "{msg}");
                assert!(msg.contains("library-only"), "{msg}");
            }
            other => panic!("expected ConfigInvalid, got {other}"),
        }
        // Ordinary syntax errors carry no marker.
        let err = "src=gen:zz cfg=Baseline_4 len=w1m2"
            .parse::<RunRequest>()
            .unwrap_err();
        assert_eq!(err.library_only, None);
    }

    #[test]
    fn rv_source_round_trips_the_wire_and_executes() {
        let req = RunRequest::program(ProgramSpec::suite("sort", 0xb5))
            .config("SpecSched_4".parse().unwrap())
            .length(RunLength {
                warmup: 1_000,
                measure: 8_000,
            })
            .checked(true);
        let line = req.to_string();
        assert_eq!(
            line,
            "src=rv:sort@0xb5 cfg=SpecSched_4 len=w1000m8000 check=1"
        );
        let parsed: RunRequest = line.parse().unwrap();
        assert_eq!(parsed, req);
        let stats = parsed.execute().unwrap().stats;
        assert!(stats.committed_uops >= 8_000 && stats.committed_uops < 8_000 + 8);
        assert!(stats.ipc() > 0.1 && stats.ipc() < 8.0);
    }

    #[test]
    fn rv_unknown_program_is_config_invalid() {
        let err = "src=rv:nope@0x1 cfg=Baseline_4 len=w100m1000"
            .parse::<RunRequest>()
            .unwrap()
            .execute()
            .unwrap_err();
        match err {
            SimError::ConfigInvalid(msg) => assert!(msg.contains("nope"), "{msg}"),
            other => panic!("expected ConfigInvalid, got {other}"),
        }
    }
}
