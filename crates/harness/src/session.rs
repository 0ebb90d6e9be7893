//! Experiment session: runs (configuration × benchmark) simulations with
//! an in-memory memo and an on-disk [`Store`], so figures sharing
//! configurations (and repeated invocations) do not re-simulate.
//!
//! A cell's identity is the canonical text of the [`RunRequest`] that
//! names it — `src=bench:{bench}@{seed} cfg={spec} len=w{W}m{M}`, the
//! same text `experiments serve` receives for that cell and
//! `experiments run --req` accepts. The in-memory memos, the results
//! store, the sweep journal and every [`CellFailure`] use it.
//!
//! The session is the harness's fault boundary. Each cell runs under
//! [`Session::try_run`], which catches panics and structured
//! [`SimError`]s and records them in [`Session::failures`] so one broken
//! cell cannot abort a whole sweep. *Stale* store entries (another
//! format version or another request's text — expected across builds)
//! are deleted and re-simulated, counted in [`Session::cache_rejected`];
//! *corrupt* entries (damaged bytes) are quarantined to `<name>.corrupt`
//! for inspection and counted separately in
//! [`Session::cache_quarantined`]. Disk I/O failures are logged once and
//! degrade the session to in-memory-only caching.
//!
//! With a warm-state directory attached ([`Session::enable_warm_fork`]),
//! the warmup phase of each (config × benchmark × warmup) cell is
//! simulated once, captured as an [`ss_snapshot`] snapshot, and every
//! later measurement for that cell forks off the warm state instead of
//! re-simulating the warmup — bit-identical to the fresh run by the
//! snapshot identity guarantee.

use crate::configs::NamedConfig;
use crate::journal::SweepJournal;
use crate::store::{Rejected, Store};
use ss_core::{RunLength, RunRequest};
use ss_types::{SimError, SimStats};
use ss_workloads::{Benchmark, BENCHMARKS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Seed used for all workload generation (fixed for reproducibility).
pub const WORKLOAD_SEED: u64 = 0xB5;

/// One failed (configuration × benchmark) cell of a sweep.
///
/// Carries enough identity to reproduce the cell from the report alone:
/// the canonical request text and, for fuzz-campaign cells, the cell's
/// derivation seed.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Configuration name.
    pub config: String,
    /// Benchmark name.
    pub bench: String,
    /// The cell's canonical request text — paste it into
    /// `experiments run --req` to re-run the identical cell. Fuzz cells,
    /// whose machine has no request encoding, carry their own key
    /// ([`crate::FuzzCell::cell_key`]).
    pub cell_key: String,
    /// For fuzz cells: the seed the whole cell (config × kernel × fault
    /// plan) derives from, replayable via `experiments fuzz --repro`.
    pub fuzz_seed: Option<u64>,
    /// What went wrong.
    pub error: SimError,
}

/// Runs simulations and caches their statistics.
pub struct Session {
    len: RunLength,
    store: Option<Store>,
    /// canonical request text → statistics.
    mem: HashMap<String, SimStats>,
    /// Memoized failed cells: a cell that failed once is not re-simulated
    /// on later recalls (each figure sharing it gets the same error back).
    failed: HashMap<String, SimError>,
    disk_warned: bool,
    /// Simulations actually executed (not served from cache).
    pub simulated: u64,
    /// Store entries rejected as *stale* (another format version or
    /// another request's text; deleted and re-simulated).
    pub cache_rejected: u64,
    /// Store entries rejected as *corrupt* (damaged bytes; quarantined
    /// to `<name>.corrupt` and re-simulated).
    pub cache_quarantined: u64,
    /// Measurement runs forked off an on-disk warm-state snapshot
    /// (warmup simulation skipped).
    pub warm_forked: u64,
    /// Cells that failed (panic or structured error); the sweep
    /// continues past them.
    pub failures: Vec<CellFailure>,
    /// Warm-state snapshot directory, when warm forking is enabled.
    warm_dir: Option<PathBuf>,
    /// Crash-safe record of completed cells, when attached.
    journal: Option<SweepJournal>,
}

impl Session {
    /// Creates a session with the given run length; `cache_dir` roots
    /// the on-disk results [`Store`]. If the directory cannot be created
    /// the error is logged and the session falls back to in-memory-only
    /// caching.
    pub fn new(len: RunLength, cache_dir: Option<PathBuf>) -> Self {
        let mut sess = Session {
            len,
            store: None,
            mem: HashMap::new(),
            failed: HashMap::new(),
            disk_warned: false,
            simulated: 0,
            cache_rejected: 0,
            cache_quarantined: 0,
            warm_forked: 0,
            failures: Vec::new(),
            warm_dir: None,
            journal: None,
        };
        if let Some(d) = cache_dir {
            match Store::create(&d) {
                Ok(store) => sess.store = Some(store),
                Err(e) => sess.disk_cache_failed(&format!("create {}", d.display()), &e),
            }
        }
        sess
    }

    /// The run length in use.
    pub fn run_length(&self) -> RunLength {
        self.len
    }

    /// A cell's identity: the canonical text of the request
    /// `src=bench:{bench}@{WORKLOAD_SEED} cfg={spec} len={len}`.
    fn cell_text(&self, cfg: &NamedConfig, bench: &Benchmark) -> String {
        RunRequest::bench(bench.name, WORKLOAD_SEED)
            .config(cfg.spec)
            .length(self.len)
            .to_string()
    }

    /// Whether this cell already has an in-memory result (or a memoized
    /// failure) and needs no work.
    pub fn is_cached(&self, cfg: &NamedConfig, bench: &Benchmark) -> bool {
        let text = self.cell_text(cfg, bench);
        self.mem.contains_key(&text) || self.failed.contains_key(&text)
    }

    /// An empty worker session sharing this session's run length, store,
    /// and disk-degradation state. The parallel engine gives one to each
    /// worker and [`Session::merge`]s them back afterwards.
    pub fn fork_worker(&self) -> Session {
        Session {
            store: self.store.clone(),
            disk_warned: self.disk_warned,
            warm_dir: self.warm_dir.clone(),
            journal: self.journal.as_ref().and_then(|j| j.reopen().ok()),
            ..Session::new(self.len, None)
        }
    }

    /// Enables warm-state forking: warmup snapshots are captured into
    /// (and reused from) `dir`. If the directory cannot be created the
    /// error is logged and forking stays disabled.
    pub fn enable_warm_fork(&mut self, dir: PathBuf) {
        match std::fs::create_dir_all(&dir) {
            Ok(()) => self.warm_dir = Some(dir),
            Err(e) => eprintln!(
                "warning: warm-state dir {} unavailable ({e}); warm forking disabled",
                dir.display()
            ),
        }
    }

    /// Attaches the crash-safe sweep journal at `path`, creating it if
    /// absent. Returns the number of cells already on record (a resumed
    /// sweep's completed work).
    pub fn attach_journal(&mut self, path: &Path) -> std::io::Result<usize> {
        let journal = SweepJournal::open(path)?;
        let completed = journal.completed();
        self.journal = Some(journal);
        Ok(completed)
    }

    /// The attached sweep journal, if any.
    pub fn journal(&self) -> Option<&SweepJournal> {
        self.journal.as_ref()
    }

    /// Logs a disk-cache failure once and degrades to in-memory-only
    /// caching for the rest of the session.
    fn disk_cache_failed(&mut self, what: &str, err: &std::io::Error) {
        if !self.disk_warned {
            eprintln!("warning: stats cache disabled (failed to {what}: {err}); continuing in-memory only");
            self.disk_warned = true;
        }
        self.store = None;
    }

    /// Runs (or recalls) one configuration × benchmark, isolating
    /// failures: a panicking or erroring simulation is recorded in
    /// [`Session::failures`] and returned as `Err` instead of taking the
    /// whole sweep down. A cell that already failed in this session is
    /// not re-simulated; the recorded error is returned again.
    pub fn try_run(&mut self, cfg: &NamedConfig, bench: &Benchmark) -> Result<SimStats, SimError> {
        let text = self.cell_text(cfg, bench);
        if let Some(recalled) = self.try_recall(&text) {
            return recalled;
        }
        let warm_path = self.warm_path(&cfg.name, bench.name);
        let len = self.len;
        // The simulation the text names: the kernel `bench` builds at the
        // workload seed (what `src=bench:` resolves to for a registry
        // benchmark) on the spec's machine.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let kernel = (bench.build)(WORKLOAD_SEED);
            let req = || {
                RunRequest::kernel(kernel.clone())
                    .config(cfg.spec)
                    .length(len)
            };
            run_cell(req, warm_path.as_deref())
        }));
        let outcome = match outcome {
            Ok(Ok((s, forked))) => {
                self.warm_forked += u64::from(forked);
                Ok(s)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload")
                    .to_string();
                Err(SimError::Panicked(msg))
            }
        };
        self.record_run(cfg, bench, text, outcome)
    }

    /// Recall half of [`Session::try_run`]: serves the cell from the
    /// in-memory result map, the memoized-failure map, or the store.
    /// `None` means the cell is fresh and must be simulated (stale store
    /// entries were deleted, corrupt ones quarantined).
    fn try_recall(&mut self, text: &str) -> Option<Result<SimStats, SimError>> {
        if let Some(s) = self.mem.get(text) {
            return Some(Ok(s.clone()));
        }
        if let Some(e) = self.failed.get(text) {
            return Some(Err(e.clone()));
        }
        match self.store.as_ref()?.get_or_clear(text) {
            Ok(Some(s)) => {
                self.journal_done(text);
                self.mem.insert(text.to_string(), s.clone());
                return Some(Ok(s));
            }
            Ok(None) => {}
            Err(Rejected::Stale(e)) => {
                // Written by another build or for another request —
                // expected across upgrades; deleted, re-simulate.
                self.cache_rejected += 1;
                eprintln!("warning: {e}; re-simulating");
            }
            Err(Rejected::Corrupt(e)) => {
                // Damaged bytes: the evidence is kept under
                // `<name>.corrupt`; re-simulate.
                self.cache_quarantined += 1;
                eprintln!("warning: {e}; quarantined and re-simulating");
            }
        }
        None
    }

    /// Record half of [`Session::try_run`]: files a freshly simulated
    /// cell's outcome — counters, store entry, journal record,
    /// memoization.
    fn record_run(
        &mut self,
        cfg: &NamedConfig,
        bench: &Benchmark,
        text: String,
        outcome: Result<SimStats, SimError>,
    ) -> Result<SimStats, SimError> {
        let stats = match outcome {
            Ok(s) => s,
            Err(e) => {
                self.failures.push(CellFailure {
                    config: cfg.name.clone(),
                    bench: bench.name.to_string(),
                    cell_key: text.clone(),
                    fuzz_seed: None,
                    error: e.clone(),
                });
                self.failed.insert(text, e.clone());
                return Err(e);
            }
        };
        self.simulated += 1;
        if let Some(store) = &self.store {
            if let Err(e) = store.put(&text, &stats) {
                let what = format!("write {}", store.path(&text).display());
                self.disk_cache_failed(&what, &e);
            }
        }
        self.journal_done(&text);
        self.mem.insert(text, stats.clone());
        Ok(stats)
    }

    /// Durably journals a completed cell (no-op without a journal; I/O
    /// failures are logged once and disable the journal for the session).
    fn journal_done(&mut self, text: &str) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.record(text) {
                eprintln!(
                    "warning: sweep journal {} unwritable ({e}); journaling disabled",
                    j.path().display()
                );
                self.journal = None;
            }
        }
    }

    fn warm_path(&self, cfg: &str, bench: &str) -> Option<PathBuf> {
        self.warm_dir
            .as_ref()
            .map(|d| d.join(format!("{cfg}__{bench}__w{}.snap", self.len.warmup)))
    }

    /// Runs one configuration over the whole benchmark suite, in table
    /// order, stopping at the first failing cell (which is recorded in
    /// [`Session::failures`] like any other).
    pub fn try_run_suite(
        &mut self,
        cfg: &NamedConfig,
    ) -> Result<Vec<(&'static str, SimStats)>, SimError> {
        BENCHMARKS
            .iter()
            .map(|b| Ok((b.name, self.try_run(cfg, b)?)))
            .collect()
    }

    /// Folds a worker session's results into this one (used by the
    /// parallel execution engine in [`crate::exec`]). Cached statistics,
    /// failures, and counters are merged; entries already present locally
    /// win (the matrix shards cells disjointly, so overlaps only happen
    /// when the same cell was deliberately run twice).
    pub fn merge(&mut self, other: Session) {
        for (k, v) in other.mem {
            self.mem.entry(k).or_insert(v);
        }
        for f in other.failures {
            if let std::collections::hash_map::Entry::Vacant(e) =
                self.failed.entry(f.cell_key.clone())
            {
                e.insert(f.error.clone());
                self.failures.push(f);
            }
        }
        self.simulated += other.simulated;
        self.cache_rejected += other.cache_rejected;
        self.cache_quarantined += other.cache_quarantined;
        self.warm_forked += other.warm_forked;
        if other.disk_warned {
            self.disk_warned = true;
        }
    }

    /// Sorts recorded failures by (configuration, benchmark) so parallel
    /// sweeps report them in a deterministic order regardless of worker
    /// completion order.
    pub fn sort_failures(&mut self) {
        self.failures
            .sort_by(|a, b| (&a.config, &a.bench).cmp(&(&b.config, &b.bench)));
    }

    /// Human-readable lines describing every recorded cell failure (for
    /// report notes). Each line carries the canonical request text (and,
    /// for fuzz cells, the derivation seed) so any reported failure can
    /// be reproduced from the report alone.
    pub fn failure_notes(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|f| {
                let seed = match f.fuzz_seed {
                    Some(s) => format!(" [fuzz seed {s:#x}]"),
                    None => String::new(),
                };
                format!(
                    "FAILED {} × {}: {} [cell {}]{seed}",
                    f.config, f.bench, f.error, f.cell_key
                )
            })
            .collect()
    }
}

/// Runs one cell, forking off a warm-state snapshot when a directory is
/// attached. `req` builds the cell's request, whose run length is `len`.
/// Returns the warmup-corrected statistics and whether the warmup
/// simulation was skipped via an on-disk snapshot.
///
/// A fork restores the snapshot and runs only the measure phase. The
/// cold path runs the whole length in one simulator, which captures and
/// persists its warm state at the warmup boundary and measures on; the
/// snapshot identity guarantee (tested in `ss-core` and by the golden
/// snapshot digests) makes both produce identical statistics. A snapshot
/// that fails verification is quarantined by
/// [`ss_snapshot::read_verified`] and the cell falls back to a cold run.
fn run_cell(
    req: impl Fn() -> RunRequest,
    warm_path: Option<&Path>,
) -> Result<(SimStats, bool), SimError> {
    let Some(path) = warm_path else {
        return Ok((req().execute()?.stats, false));
    };
    let note = path.display().to_string();
    match ss_snapshot::read_verified(path) {
        Ok(snap) => {
            match req().from_snapshot(snap).checkpoint_note(&note).execute() {
                Ok(o) => return Ok((o.stats, true)),
                // A config that drifted under an unchanged name: re-warm.
                Err(
                    SimError::SnapshotCorrupt { .. } | SimError::SnapshotVersionMismatch { .. },
                ) => {}
                Err(e) => return Err(e),
            }
        }
        Err(ss_snapshot::SnapshotError::Io(_)) => {} // absent: first visit
        Err(e) => eprintln!("warning: warm snapshot {note}: {e}; re-warming"),
    }
    let cold = req().capture_warm().execute()?;
    let snap = cold
        .snapshot
        .ok_or_else(|| SimError::ConfigInvalid("capture run produced no snapshot".into()))?;
    if let Err(e) = ss_snapshot::write_atomic(path, &snap) {
        eprintln!("warning: could not persist warm snapshot {note}: {e}");
    }
    Ok((cold.stats, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use ss_snapshot::Snapshot;
    use ss_workloads::{benchmark, KernelSpec};

    const LEN: RunLength = RunLength {
        warmup: 1000,
        measure: 5000,
    };

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exploding_kernel(_seed: u64) -> KernelSpec {
        panic!("injected kernel panic")
    }

    /// A benchmark the registry does not know, whose kernel construction
    /// panics: a failing cell whose request text still names it.
    static EXPLODING: Benchmark = Benchmark {
        name: "exploding",
        paper_analogue: "-",
        build: exploding_kernel,
    };

    #[test]
    fn cell_identity_is_the_canonical_request_text() {
        let sess = Session::new(LEN, None);
        let text = sess.cell_text(
            &configs::spec_sched(4, true),
            benchmark("fp_compute").unwrap(),
        );
        assert_eq!(
            text,
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1000m5000"
        );
        // It is exactly the text a client sends, and it parses back.
        assert_eq!(text.parse::<RunRequest>().unwrap().to_string(), text);
    }

    #[test]
    fn session_result_equals_the_request_it_names() {
        let cfg = configs::spec_sched_crit(4);
        let bench = benchmark("mix_int").unwrap();
        let mut sess = Session::new(LEN, None);
        let got = sess.try_run(&cfg, bench).expect("runs");
        let text = sess.cell_text(&cfg, bench);
        let offline = text.parse::<RunRequest>().unwrap().execute().unwrap();
        assert_eq!(got, offline.stats);
    }

    #[test]
    fn memory_cache_avoids_resimulation() {
        let mut sess = Session::new(LEN, None);
        let cfg = configs::spec_sched(4, true);
        let bench = benchmark("fp_compute").unwrap();
        let a = sess.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess.simulated, 1);
        let b = sess.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess.simulated, 1, "second call served from memory");
        assert_eq!(a, b);
    }

    #[test]
    fn disk_cache_roundtrips() {
        let dir = tmp("disk");
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(LEN, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        let mut sess2 = Session::new(LEN, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.simulated, 0, "served from disk");
        assert_eq!(a, b);
        // The entry is addressed by the cell's request text.
        let text = sess2.cell_text(&cfg, bench);
        assert_eq!(Store::at(&dir).get(&text).unwrap(), Some(a));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn another_requests_entry_cannot_be_read_as_this_cell() {
        // An intact entry for another request, under this cell's file
        // name (a hash collision, or a hand-copied file), must be
        // re-simulated even though version and checksum validate.
        let dir = tmp("rename");
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(LEN, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        let store = Store::at(&dir);
        let text = Session::new(LEN, None).cell_text(&cfg, bench);
        let other = "src=bench:fp_compute@0xb5 cfg=Baseline_9 len=w1000m5000";
        store.put(other, &a).unwrap();
        std::fs::rename(store.path(other), store.path(&text)).unwrap();
        let mut sess2 = Session::new(LEN, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.cache_rejected, 1, "foreign entry rejected as stale");
        assert_eq!(sess2.simulated, 1, "foreign entry re-simulated");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_disk_cache_entry_is_resimulated() {
        let dir = tmp("stale");
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(LEN, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        // Rewrite the single entry as if an older build had written it.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let path = entries[0].as_ref().unwrap().path();
        std::fs::write(&path, "ss-results v0 0000000000000000 x\n").unwrap();
        let mut sess2 = Session::new(LEN, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.cache_rejected, 1, "stale entry detected");
        assert_eq!(sess2.simulated, 1, "stale entry re-simulated");
        assert_eq!(a, b, "re-simulation reproduces the original result");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_not_deleted() {
        let dir = tmp("quar");
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(LEN, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        // Flip a body byte: version and text still parse, but the
        // checksum fails — damaged data, not a routine stale entry.
        let path = Store::at(&dir).path(&Session::new(LEN, None).cell_text(&cfg, bench));
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let mut sess2 = Session::new(LEN, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.cache_quarantined, 1, "damage is quarantined");
        assert_eq!(sess2.cache_rejected, 0, "not miscounted as stale");
        assert_eq!(sess2.simulated, 1, "corrupt entry re-simulated");
        assert_eq!(a, b);
        let quarantined: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
            .collect();
        assert_eq!(quarantined.len(), 1, "evidence kept as <name>.corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_fork_skips_warmup_and_matches_cold_run() {
        let dir = tmp("warm");
        let cfg = configs::spec_sched(4, false);
        let bench = benchmark("mix_int").unwrap();
        // Cold reference: no warm dir, no disk cache.
        let cold = Session::new(LEN, None).try_run(&cfg, bench).expect("runs");
        // First warm session captures the warm state (no fork yet).
        let mut warm1 = Session::new(LEN, None);
        warm1.enable_warm_fork(dir.clone());
        let first = warm1.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm1.warm_forked, 0, "first visit warms up from cold");
        assert_eq!(first, cold, "warm-captured run is bit-identical");
        // Second session forks off the persisted snapshot.
        let mut warm2 = Session::new(LEN, None);
        warm2.enable_warm_fork(dir.clone());
        let second = warm2.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm2.warm_forked, 1, "warmup simulation skipped");
        assert_eq!(second, cold, "forked run is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_snapshot_from_another_build_is_rewarmed() {
        let dir = tmp("foreign-warm");
        let cfg = configs::spec_sched(4, false);
        let bench = benchmark("mix_int").unwrap();
        let cold = Session::new(LEN, None).try_run(&cfg, bench).expect("runs");
        let mut probe = Session::new(LEN, None);
        probe.enable_warm_fork(dir.clone());
        let path = probe.warm_path(&cfg.name, bench.name).unwrap();
        let warm_bytes = |spec| {
            RunRequest::kernel((bench.build)(WORKLOAD_SEED))
                .config(spec)
                .length(RunLength {
                    warmup: LEN.warmup,
                    measure: 0,
                })
                .capture_warm()
                .execute()
                .unwrap()
                .snapshot
                .unwrap()
                .to_bytes()
        };
        let fingerprint = ss_core::config_fingerprint(&cfg.config);
        // What another build can leave at this cell's warm path:
        // * an intact snapshot whose fingerprint is not this machine's
        //   (here, the same warmup on the banked machine);
        let foreign = warm_bytes(configs::spec_sched(4, true).spec);
        assert_ne!(
            Snapshot::from_bytes(&foreign).unwrap().config_fingerprint,
            fingerprint
        );
        // * this machine's own warm state, stamped with format version 1,
        //   2 or 3, whose layouts this build no longer reads.
        let current = format!(
            "{} v{} ",
            ss_snapshot::SNAPSHOT_MAGIC,
            ss_snapshot::SNAPSHOT_FORMAT_VERSION
        );
        let payload = warm_bytes(cfg.spec)[current.len()..].to_vec();
        let [v1, v2, v3] = [1, 2, 3].map(|version| {
            let mut old = format!("{} v{version} ", ss_snapshot::SNAPSHOT_MAGIC).into_bytes();
            old.extend_from_slice(&payload);
            assert!(matches!(
                Snapshot::from_bytes(&old),
                Err(ss_snapshot::SnapshotError::VersionMismatch { found, .. }) if found == version
            ));
            old
        });

        for stale in [foreign, v1, v2, v3] {
            std::fs::write(&path, stale).unwrap();
            let mut sess = Session::new(LEN, None);
            sess.enable_warm_fork(dir.clone());
            let got = sess
                .try_run(&cfg, bench)
                .expect("re-warms instead of failing");
            assert_eq!(got, cold, "re-warmed run is bit-identical to a cold one");
            assert_eq!(sess.warm_forked, 0, "the stale snapshot was not forked");
            let rewritten = ss_snapshot::read_verified(&path).unwrap();
            assert_eq!(rewritten.config_fingerprint, fingerprint, "file replaced");
            // The replacement is one this build forks from.
            let mut next = Session::new(LEN, None);
            next.enable_warm_fork(dir.clone());
            assert_eq!(next.try_run(&cfg, bench).expect("runs"), cold);
            assert_eq!(next.warm_forked, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_finished_cells_across_sessions() {
        let dir = tmp("journal");
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let journal_path = dir.join("journal.log");
        let mut sess = Session::new(LEN, Some(dir.join("cache")));
        assert_eq!(sess.attach_journal(&journal_path).unwrap(), 0);
        sess.try_run(&cfg, bench).expect("runs");
        let text = sess.cell_text(&cfg, bench);
        assert!(sess.journal().unwrap().contains(&text));
        // A resumed session sees the completed cell on record and serves
        // it from the disk cache without re-simulating.
        let mut resumed = Session::new(LEN, Some(dir.join("cache")));
        assert_eq!(resumed.attach_journal(&journal_path).unwrap(), 1);
        resumed.try_run(&cfg, bench).expect("runs");
        assert_eq!(resumed.simulated, 0, "served from cache on resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_cell_is_recorded_and_does_not_abort() {
        let cfg = configs::baseline(0);
        let mut sess = Session::new(
            RunLength {
                warmup: 100,
                measure: 1000,
            },
            None,
        );
        let err = sess.try_run(&cfg, &EXPLODING).unwrap_err();
        assert!(
            matches!(err, SimError::Panicked(_)),
            "expected a contained panic, got {err}"
        );
        assert_eq!(sess.failures.len(), 1);
        assert_eq!(sess.failures[0].config, "Baseline_0");
        assert_eq!(sess.failures[0].bench, "exploding");
        // The failure carries the cell's canonical request text (and no
        // fuzz seed — this is a matrix cell), so it is reproducible from
        // the report alone with `experiments run --req`.
        assert_eq!(
            sess.failures[0].cell_key,
            "src=bench:exploding@0xb5 cfg=Baseline_0 len=w100m1000"
        );
        assert!(sess.failures[0].cell_key.parse::<RunRequest>().is_ok());
        assert!(sess.failures[0].fuzz_seed.is_none());
        assert!(sess.failure_notes()[0].contains("FAILED"));
        assert!(sess.failure_notes()[0].contains("[cell src=bench:exploding@0xb5 "));
        // The session keeps working for healthy cells.
        let ok = sess.try_run(&cfg, benchmark("fp_compute").unwrap());
        assert!(ok.is_ok());
        // A recall of the failed cell is memoized: same error back, no
        // re-simulation, no duplicate failure record.
        let again = sess.try_run(&cfg, &EXPLODING).unwrap_err();
        assert!(matches!(again, SimError::Panicked(_)));
        assert_eq!(sess.failures.len(), 1, "failure recorded once");
    }

    #[test]
    fn merge_folds_worker_results_and_failures() {
        let len = RunLength {
            warmup: 100,
            measure: 1000,
        };
        let bench = benchmark("fp_compute").unwrap();
        let mut main = Session::new(len, None);
        let mut w1 = Session::new(len, None);
        let ok = w1.try_run(&configs::baseline(0), bench).expect("runs");
        let mut w2 = Session::new(len, None);
        let _ = w2.try_run(&configs::baseline(0), &EXPLODING);
        main.merge(w1);
        main.merge(w2);
        assert_eq!(main.simulated, 1);
        assert_eq!(main.failures.len(), 1);
        // The merged result is served from memory.
        let b = main.try_run(&configs::baseline(0), bench).expect("cached");
        assert_eq!(main.simulated, 1, "served from merged cache");
        assert_eq!(ok, b);
        // The merged failure is memoized too.
        let err = main.try_run(&configs::baseline(0), &EXPLODING).unwrap_err();
        assert!(matches!(err, SimError::Panicked(_)));
        assert_eq!(main.failures.len(), 1);
    }
}
