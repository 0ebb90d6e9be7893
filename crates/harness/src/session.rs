//! Experiment session: runs (configuration × benchmark) simulations with
//! an in-memory and on-disk cache so figures sharing configurations (and
//! repeated invocations) do not re-simulate.
//!
//! The session is the harness's fault boundary. Each cell runs under
//! [`Session::try_run`], which catches panics and structured
//! [`SimError`]s and records them in [`Session::failures`] so one broken
//! cell cannot abort a whole sweep. On-disk cache entries carry a format
//! version and an FNV-1a checksum. *Stale* entries (older format version
//! or another cell's key — expected across builds) are deleted and
//! re-simulated, counted in [`Session::cache_rejected`]; *corrupt*
//! entries (damaged bytes) are quarantined to `<name>.corrupt` for
//! inspection and counted separately in [`Session::cache_quarantined`].
//! Disk I/O failures are logged once and degrade the session to
//! in-memory-only caching.
//!
//! With a warm-state directory attached ([`Session::enable_warm_fork`]),
//! the warmup phase of each (config × benchmark × warmup) cell is
//! simulated once, captured as an [`ss_snapshot`] snapshot, and every
//! later measurement for that cell forks off the warm state instead of
//! re-simulating the warmup — bit-identical to the fresh run by the
//! snapshot identity guarantee.

use crate::configs::NamedConfig;
use crate::journal::SweepJournal;
use ss_core::{RunLength, RunRequest};
use ss_snapshot::Snapshot;
use ss_types::{CacheStats, SimConfig, SimError, SimStats};
use ss_workloads::{Benchmark, KernelSpec, BENCHMARKS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Seed used for all workload generation (fixed for reproducibility).
pub const WORKLOAD_SEED: u64 = 0xB5;

/// On-disk cache format version. Bump whenever the simulator's behaviour
/// or the serialized field set changes incompatibly, so stale entries
/// from older builds are re-simulated instead of silently reused.
/// v3 added the canonical cell key (name, [`crate::configs::ConfigSpec`]
/// string, benchmark, run length) to the header, so a renamed variant or
/// a different run length can never read a stale entry.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Magic tag leading every cache file's header line.
const CACHE_MAGIC: &str = "ss-stats-cache";

/// One failed (configuration × benchmark) cell of a sweep.
///
/// Carries enough identity to reproduce the cell from the report alone:
/// the canonical cell key ([`Session::cell_key`]: config spec, benchmark,
/// run length) and, for fuzz-campaign cells, the cell's derivation seed.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Configuration name.
    pub config: String,
    /// Benchmark name.
    pub bench: String,
    /// Canonical cell key (`{name}|{spec}|{bench}|w{W}m{M}`), exactly as
    /// stamped into the stats cache — paste it back into a session to
    /// re-run the identical cell.
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
    cache_dir: Option<PathBuf>,
    mem: HashMap<(String, String), SimStats>,
    /// Memoized failed cells: a cell that failed once is not re-simulated
    /// on later recalls (each figure sharing it gets the same error back).
    failed: HashMap<(String, String), SimError>,
    disk_warned: bool,
    /// Simulations actually executed (not served from cache).
    pub simulated: u64,
    /// On-disk cache entries rejected as *stale* (older format version or
    /// another cell's key; deleted and re-simulated).
    pub cache_rejected: u64,
    /// On-disk cache entries rejected as *corrupt* (damaged bytes;
    /// quarantined to `<name>.corrupt` and re-simulated).
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
    /// Creates a session with the given run length; `cache_dir` enables
    /// the on-disk cache. If the directory cannot be created the error
    /// is logged and the session falls back to in-memory-only caching.
    pub fn new(len: RunLength, cache_dir: Option<PathBuf>) -> Self {
        let mut sess = Session {
            len,
            cache_dir: None,
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
            match std::fs::create_dir_all(&d) {
                Ok(()) => sess.cache_dir = Some(d),
                Err(e) => sess.disk_cache_failed(&format!("create {}", d.display()), &e),
            }
        }
        sess
    }

    /// The run length in use.
    pub fn run_length(&self) -> RunLength {
        self.len
    }

    /// Whether this cell already has an in-memory result (or a memoized
    /// failure) and needs no work.
    pub fn is_cached(&self, cfg: &NamedConfig, bench: &Benchmark) -> bool {
        let key = (cfg.name.clone(), bench.name.to_string());
        self.mem.contains_key(&key) || self.failed.contains_key(&key)
    }

    /// An empty worker session sharing this session's run length, cache
    /// directory, and disk-degradation state. The parallel engine gives
    /// one to each worker and [`Session::merge`]s them back afterwards.
    pub fn fork_worker(&self) -> Session {
        Session {
            len: self.len,
            cache_dir: self.cache_dir.clone(),
            mem: HashMap::new(),
            failed: HashMap::new(),
            disk_warned: self.disk_warned,
            simulated: 0,
            cache_rejected: 0,
            cache_quarantined: 0,
            warm_forked: 0,
            failures: Vec::new(),
            warm_dir: self.warm_dir.clone(),
            journal: self.journal.as_ref().and_then(|j| j.reopen().ok()),
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
        self.cache_dir = None;
    }

    fn cache_path(&self, cfg: &str, bench: &str) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| {
            d.join(format!(
                "{cfg}__{bench}__w{}m{}.kv",
                self.len.warmup, self.len.measure
            ))
        })
    }

    /// The canonical cell key stamped into (and validated against) every
    /// on-disk cache entry: display name, [`ConfigSpec`] canonical
    /// string, benchmark, and run length. A renamed variant, a name that
    /// drifted from its spec, or a different run length all change the
    /// key, so none of them can read a stale entry.
    ///
    /// [`ConfigSpec`]: crate::configs::ConfigSpec
    pub fn cell_key(&self, cfg: &NamedConfig, bench: &str) -> String {
        format!(
            "{}|{}|{}|w{}m{}",
            cfg.name, cfg.spec, bench, self.len.warmup, self.len.measure
        )
    }

    /// Runs (or recalls) one configuration × benchmark, isolating
    /// failures: a panicking or erroring simulation is recorded in
    /// [`Session::failures`] and returned as `Err` instead of taking the
    /// whole sweep down. A cell that already failed in this session is
    /// not re-simulated; the recorded error is returned again.
    pub fn try_run(&mut self, cfg: &NamedConfig, bench: &Benchmark) -> Result<SimStats, SimError> {
        if let Some(recalled) = self.try_recall(cfg, bench) {
            return recalled;
        }
        let config = cfg.config.clone();
        let len = self.len;
        let warm_path = self.warm_path(&cfg.name, bench.name);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cell(
                config,
                (bench.build)(WORKLOAD_SEED),
                warm_path.as_deref(),
                len,
            )
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
        self.record_run(cfg, bench, outcome)
    }

    /// Recall half of [`Session::try_run`]: serves the cell from the
    /// in-memory result map, the memoized-failure map, or the on-disk
    /// cache. `None` means the cell is fresh and must be simulated
    /// (stale cache entries were deleted, corrupt ones quarantined).
    fn try_recall(
        &mut self,
        cfg: &NamedConfig,
        bench: &Benchmark,
    ) -> Option<Result<SimStats, SimError>> {
        let key = (cfg.name.clone(), bench.name.to_string());
        if let Some(s) = self.mem.get(&key) {
            return Some(Ok(s.clone()));
        }
        if let Some(e) = self.failed.get(&key) {
            return Some(Err(e.clone()));
        }
        if let Some(path) = self.cache_path(&cfg.name, bench.name) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                match stats_from_cache_file(&path, &text, &self.cell_key(cfg, bench.name)) {
                    Ok(s) => {
                        self.journal_done(&self.cell_key(cfg, bench.name));
                        self.mem.insert(key, s.clone());
                        return Some(Ok(s));
                    }
                    Err(e) if rejection_is_stale(&e) => {
                        // Written by another build or cell identity —
                        // expected across upgrades; delete and re-simulate.
                        self.cache_rejected += 1;
                        eprintln!("warning: {e}; re-simulating");
                        let _ = std::fs::remove_file(&path);
                    }
                    Err(e) => {
                        // Damaged bytes: keep the evidence (quarantined
                        // under `<name>.corrupt`) and re-simulate.
                        self.cache_quarantined += 1;
                        let q = ss_snapshot::quarantine_path(&path);
                        eprintln!(
                            "warning: {e}; quarantining to {} and re-simulating",
                            q.display()
                        );
                        if std::fs::rename(&path, &q).is_err() {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
            }
        }
        None
    }

    /// Record half of [`Session::try_run`]: files a freshly simulated
    /// cell's outcome — counters, on-disk cache entry, journal record,
    /// memoization.
    fn record_run(
        &mut self,
        cfg: &NamedConfig,
        bench: &Benchmark,
        outcome: Result<SimStats, SimError>,
    ) -> Result<SimStats, SimError> {
        let key = (cfg.name.clone(), bench.name.to_string());
        let cell_key = self.cell_key(cfg, bench.name);
        let stats = match outcome {
            Ok(s) => s,
            Err(e) => return Err(self.record_failure(key, cell_key, e)),
        };
        self.simulated += 1;
        if let Some(path) = self.cache_path(&cfg.name, bench.name) {
            let body = stats_to_cache_file(&stats, &cell_key);
            if let Err(e) = std::fs::write(&path, body) {
                self.disk_cache_failed(&format!("write {}", path.display()), &e);
            }
        }
        self.journal_done(&cell_key);
        self.mem.insert(key, stats.clone());
        Ok(stats)
    }

    /// Durably journals a completed cell (no-op without a journal; I/O
    /// failures are logged once and disable the journal for the session).
    fn journal_done(&mut self, cell_key: &str) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.record(cell_key) {
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

    fn record_failure(&mut self, key: (String, String), cell_key: String, e: SimError) -> SimError {
        self.failures.push(CellFailure {
            config: key.0.clone(),
            bench: key.1.clone(),
            cell_key,
            fuzz_seed: None,
            error: e.clone(),
        });
        self.failed.insert(key, e.clone());
        e
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
            let key = (f.config.clone(), f.bench.clone());
            if let std::collections::hash_map::Entry::Vacant(e) = self.failed.entry(key) {
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
    /// report notes). Each line carries the canonical cell key (and, for
    /// fuzz cells, the derivation seed) so any reported failure can be
    /// reproduced from the report alone.
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

/// Whether a cache rejection is *stale* (written by another build or
/// cell identity — routine) rather than *corrupt* (damaged bytes).
fn rejection_is_stale(e: &SimError) -> bool {
    match e {
        SimError::CacheCorrupt { reason, .. } => reason.contains("stale entry"),
        _ => false,
    }
}

/// Runs one cell, forking off a warm-state snapshot when a directory is
/// attached. Returns the warmup-corrected statistics and whether the
/// warmup simulation was skipped via an on-disk snapshot.
///
/// The fresh path warms up, captures + persists the warm state, then
/// measures *from the captured snapshot* — the same code path a later
/// fork takes, so both produce identical statistics by construction (and
/// identical to a plain uninterrupted run, by the snapshot identity
/// guarantee tested in `ss-core`). A snapshot that fails verification is
/// quarantined by [`ss_snapshot::read_verified`] and the cell falls back
/// to a fresh warmup.
fn run_cell(
    cfg: SimConfig,
    spec: KernelSpec,
    warm_path: Option<&Path>,
    len: RunLength,
) -> Result<(SimStats, bool), SimError> {
    let Some(path) = warm_path else {
        let outcome = RunRequest::kernel(spec)
            .custom_config(cfg)
            .length(len)
            .execute()?;
        return Ok((outcome.stats, false));
    };
    let note = path.display().to_string();
    let measure_from = |snap: Snapshot, cfg: SimConfig, spec: KernelSpec| {
        RunRequest::kernel(spec)
            .custom_config(cfg)
            .length(RunLength {
                warmup: 0,
                measure: len.measure,
            })
            .from_snapshot(snap)
            .checkpoint_note(&note)
            .execute()
            .map(|o| o.stats)
    };
    match ss_snapshot::read_verified(path) {
        Ok(snap) => {
            match measure_from(snap, cfg.clone(), spec.clone()) {
                Ok(s) => return Ok((s, true)),
                // A config that drifted under an unchanged name (or a
                // damaged section the container checksum cannot see,
                // which it can't — but be safe): re-warm from scratch.
                Err(
                    SimError::SnapshotCorrupt { .. } | SimError::SnapshotVersionMismatch { .. },
                ) => {}
                Err(e) => return Err(e),
            }
        }
        Err(ss_snapshot::SnapshotError::Io(_)) => {} // absent: first visit
        Err(e) => eprintln!("warning: warm snapshot {note}: {e}; re-warming"),
    }
    let warm = RunRequest::kernel(spec.clone())
        .custom_config(cfg.clone())
        .length(RunLength {
            warmup: len.warmup,
            measure: 0,
        })
        .capture_warm()
        .execute()?;
    let snap = warm
        .snapshot
        .ok_or_else(|| SimError::ConfigInvalid("capture run produced no snapshot".into()))?;
    if let Err(e) = ss_snapshot::write_atomic(path, &snap) {
        eprintln!("warning: could not persist warm snapshot {note}: {e}");
    }
    let s = measure_from(snap, cfg, spec)?;
    Ok((s, false))
}

/// FNV-1a 64-bit hash (cache-file integrity checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serializes statistics with the versioned, checksummed cache header.
/// `cell_key` is the canonical cell identity ([`Session::cell_key`])
/// the entry is bound to; reads expecting a different key reject it.
pub fn stats_to_cache_file(s: &SimStats, cell_key: &str) -> String {
    let body = stats_to_kv(s);
    format!(
        "{CACHE_MAGIC} v{CACHE_FORMAT_VERSION} {:016x} {cell_key}\n{body}",
        fnv1a64(body.as_bytes())
    )
}

/// Parses a cache file, enforcing the version stamp, checksum, and the
/// canonical cell key the caller expects. Rejected entries come back as
/// [`SimError::CacheCorrupt`] and should be re-simulated.
pub fn stats_from_cache_file(
    path: &Path,
    text: &str,
    expected_key: &str,
) -> Result<SimStats, SimError> {
    let corrupt = |reason: String| {
        Err(SimError::CacheCorrupt {
            path: path.display().to_string(),
            reason,
        })
    };
    let Some((header, body)) = text.split_once('\n') else {
        return corrupt("missing header line".into());
    };
    let mut parts = header.splitn(4, ' ');
    if parts.next() != Some(CACHE_MAGIC) {
        return corrupt("not a stats-cache file (bad magic)".into());
    }
    let version = parts.next().unwrap_or("");
    if version != format!("v{CACHE_FORMAT_VERSION}") {
        return corrupt(format!(
            "format version {version} != expected v{CACHE_FORMAT_VERSION} (stale entry)"
        ));
    }
    let Some(want) = parts.next().and_then(|h| u64::from_str_radix(h, 16).ok()) else {
        return corrupt("unparsable checksum".into());
    };
    let key = parts.next().unwrap_or("");
    if key != expected_key {
        return corrupt(format!(
            "cell key `{key}` != expected `{expected_key}` (renamed variant or different run length; stale entry)"
        ));
    }
    let got = fnv1a64(body.as_bytes());
    if got != want {
        return corrupt(format!(
            "checksum mismatch: computed {got:016x}, header {want:016x}"
        ));
    }
    match stats_from_kv(body) {
        Some(s) => Ok(s),
        None => corrupt("unparsable statistics body".into()),
    }
}

macro_rules! stat_fields {
    ($m:ident) => {
        $m!(
            cycles,
            committed_uops,
            committed_loads,
            unique_issued,
            issued_total,
            replayed_miss,
            replayed_bank,
            replayed_prf,
            replay_events_miss,
            replay_events_bank,
            replay_events_prf,
            wrong_path_issued,
            cond_branches,
            cond_mispredicts,
            target_mispredicts,
            bank_delayed_loads,
            bank_delay_cycles,
            loads_merged_into_mshr,
            dram_row_hits,
            dram_row_misses,
            loads_spec_woken,
            loads_conservative,
            filter_sure_hit,
            filter_sure_miss,
            filter_unstable,
            crit_predicted_critical,
            crit_predicted_noncritical,
            memdep_violations,
            dispatch_stall_cycles,
            recovery_buffer_replays,
            degrade_entries,
            degrade_cycles,
            faults_injected
        )
    };
}

macro_rules! cache_fields {
    ($m:ident) => {
        $m!(
            accesses,
            hits,
            misses,
            mshr_merges,
            prefetches,
            prefetch_hits
        )
    };
}

/// Serializes statistics to a `key value` line format.
pub fn stats_to_kv(s: &SimStats) -> String {
    let mut out = String::new();
    macro_rules! w {
        ($($f:ident),*) => { $( out.push_str(&format!("{} {}\n", stringify!($f), s.$f)); )* };
    }
    stat_fields!(w);
    macro_rules! wc {
        ($($f:ident),*) => { $(
            out.push_str(&format!("l1d.{} {}\n", stringify!($f), s.l1d.$f));
            out.push_str(&format!("l2.{} {}\n", stringify!($f), s.l2.$f));
        )* };
    }
    cache_fields!(wc);
    out
}

/// Parses statistics from the `key value` format; `None` if the file is
/// unusable. The core progress counters are required; counters added in
/// newer builds default to 0 so caches written by slightly older builds
/// (whose behaviour is identical) remain readable.
pub fn stats_from_kv(text: &str) -> Option<SimStats> {
    let map: HashMap<&str, u64> = text
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k, v.parse().ok()?))
        })
        .collect();
    // Required sentinels: a cache file without these is garbage.
    if !map.contains_key("cycles") || !map.contains_key("committed_uops") {
        return None;
    }
    let mut s = SimStats::default();
    macro_rules! r {
        ($($f:ident),*) => { $( s.$f = map.get(stringify!($f)).copied().unwrap_or(0); )* };
    }
    stat_fields!(r);
    let mut l1d = CacheStats::default();
    let mut l2 = CacheStats::default();
    macro_rules! rc {
        ($($f:ident),*) => { $(
            l1d.$f = map.get(concat!("l1d.", stringify!($f))).copied().unwrap_or(0);
            l2.$f = map.get(concat!("l2.", stringify!($f))).copied().unwrap_or(0);
        )* };
    }
    cache_fields!(rc);
    s.l1d = l1d;
    s.l2 = l2;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use ss_workloads::benchmark;

    #[test]
    fn kv_roundtrip_preserves_all_fields() {
        let mut s = SimStats {
            cycles: 123,
            committed_uops: 456,
            replayed_bank: 7,
            crit_predicted_critical: 13,
            ..Default::default()
        };
        s.l1d.misses = 9;
        s.l2.prefetches = 11;
        let text = stats_to_kv(&s);
        let back = stats_from_kv(&text).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn malformed_cache_is_rejected() {
        assert!(stats_from_kv("garbage").is_none());
        assert!(stats_from_kv("cycles notanumber").is_none());
        assert!(
            stats_from_kv("cycles 5").is_none(),
            "committed_uops required"
        );
    }

    #[test]
    fn older_cache_files_default_new_fields() {
        let s = stats_from_kv(
            "cycles 10
committed_uops 20
",
        )
        .expect("parses");
        assert_eq!(s.cycles, 10);
        assert_eq!(s.committed_uops, 20);
        assert_eq!(s.replayed_prf, 0);
    }

    #[test]
    fn memory_cache_avoids_resimulation() {
        let mut sess = Session::new(
            RunLength {
                warmup: 1000,
                measure: 5000,
            },
            None,
        );
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
        let dir = std::env::temp_dir().join(format!("ss-harness-test-{}", std::process::id()));
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(len, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        let mut sess2 = Session::new(len, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.simulated, 0, "served from disk");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_file_header_roundtrips_and_verifies() {
        let s = SimStats {
            cycles: 77,
            committed_uops: 88,
            degrade_entries: 2,
            faults_injected: 5,
            ..Default::default()
        };
        let text = stats_to_cache_file(&s, "SpecSched_4|SpecSched_4|fp_compute|w1m2");
        assert!(text.starts_with(CACHE_MAGIC));
        let back = stats_from_cache_file(
            Path::new("t.kv"),
            &text,
            "SpecSched_4|SpecSched_4|fp_compute|w1m2",
        )
        .expect("verifies");
        assert_eq!(back, s);
    }

    #[test]
    fn cache_file_rejects_tampering_and_stale_versions() {
        let s = SimStats {
            cycles: 1,
            committed_uops: 2,
            ..Default::default()
        };
        let key = "Baseline_0|Baseline_0|fp_compute|w1m2";
        let good = stats_to_cache_file(&s, key);
        let p = Path::new("t.kv");
        // Flipped byte in the body fails the checksum.
        let tampered = good.replace("cycles 1", "cycles 9");
        let err = stats_from_cache_file(p, &tampered, key).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Version stamp from an older build is stale.
        let stale = good.replacen(&format!("v{CACHE_FORMAT_VERSION}"), "v1", 1);
        let err = stats_from_cache_file(p, &stale, key).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        // An entry written under another cell identity (renamed variant,
        // different run length) must not be served.
        let err =
            stats_from_cache_file(p, &good, "Baseline_0|Baseline_0|fp_compute|w9m9").unwrap_err();
        assert!(err.to_string().contains("cell key"), "{err}");
        // Headerless legacy files are rejected outright.
        let err = stats_from_cache_file(p, "cycles 1\ncommitted_uops 2\n", key).unwrap_err();
        assert!(matches!(err, SimError::CacheCorrupt { .. }));
    }

    #[test]
    fn renamed_variant_cannot_read_a_stale_entry() {
        // Simulate a rename: an entry cached under one variant's file
        // name but carrying another cell key must be re-simulated, even
        // though path, version, and checksum all validate.
        let dir = std::env::temp_dir().join(format!("ss-harness-rename-{}", std::process::id()));
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(len, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        // Forge the on-disk entry: same stats, same path, but stamped
        // with a different config identity.
        let path = dir.join(format!("Baseline_0__fp_compute__w{}m{}.kv", 1000, 5000));
        let forged = stats_to_cache_file(&a, "Baseline_9|Baseline_9|fp_compute|w1000m5000");
        std::fs::write(&path, forged).unwrap();
        let mut sess2 = Session::new(len, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.cache_rejected, 1, "forged identity rejected");
        assert_eq!(sess2.simulated, 1, "forged entry re-simulated");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_disk_cache_entry_is_resimulated() {
        let dir = std::env::temp_dir().join(format!("ss-harness-corrupt-{}", std::process::id()));
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(len, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        // Corrupt the single cache file on disk.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let path = entries[0].as_ref().unwrap().path();
        std::fs::write(&path, "ss-stats-cache v2 0000000000000000\ncycles 1\n").unwrap();
        let mut sess2 = Session::new(len, Some(dir.clone()));
        let b = sess2.try_run(&cfg, bench).expect("runs");
        assert_eq!(sess2.cache_rejected, 1, "corrupt entry detected");
        assert_eq!(sess2.simulated, 1, "corrupt entry re-simulated");
        assert_eq!(a, b, "re-simulation reproduces the original result");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_not_deleted() {
        let dir = std::env::temp_dir().join(format!("ss-harness-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let a = {
            let mut sess = Session::new(len, Some(dir.clone()));
            sess.try_run(&cfg, bench).expect("runs")
        };
        // Flip bytes in the body: version and key still parse, but the
        // checksum fails — damaged data, not a routine stale entry.
        let path = dir.join(format!("Baseline_0__fp_compute__w{}m{}.kv", 1000, 5000));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("cycles ", "cycles 9")).unwrap();
        let mut sess2 = Session::new(len, Some(dir.clone()));
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
        let dir = std::env::temp_dir().join(format!("ss-harness-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::spec_sched(4, false);
        let bench = benchmark("mix_int").unwrap();
        // Cold reference: no warm dir, no disk cache.
        let cold = Session::new(len, None).try_run(&cfg, bench).expect("runs");
        // First warm session captures the warm state (no fork yet).
        let mut warm1 = Session::new(len, None);
        warm1.enable_warm_fork(dir.clone());
        let first = warm1.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm1.warm_forked, 0, "first visit warms up from cold");
        assert_eq!(first, cold, "warm-captured run is bit-identical");
        // Second session forks off the persisted snapshot.
        let mut warm2 = Session::new(len, None);
        warm2.enable_warm_fork(dir.clone());
        let second = warm2.try_run(&cfg, bench).expect("runs");
        assert_eq!(warm2.warm_forked, 1, "warmup simulation skipped");
        assert_eq!(second, cold, "forked run is bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_completed_cells_across_sessions() {
        let dir = std::env::temp_dir().join(format!("ss-harness-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let len = RunLength {
            warmup: 1000,
            measure: 5000,
        };
        let cfg = configs::baseline(0);
        let bench = benchmark("fp_compute").unwrap();
        let journal_path = dir.join("journal.log");
        let mut sess = Session::new(len, Some(dir.join("cache")));
        assert_eq!(sess.attach_journal(&journal_path).unwrap(), 0);
        sess.try_run(&cfg, bench).expect("runs");
        let key = sess.cell_key(&cfg, bench.name);
        assert!(sess.journal().unwrap().contains(&key));
        // A resumed session sees the completed cell on record and serves
        // it from the disk cache without re-simulating.
        let mut resumed = Session::new(len, Some(dir.join("cache")));
        assert_eq!(resumed.attach_journal(&journal_path).unwrap(), 1);
        resumed.try_run(&cfg, bench).expect("runs");
        assert_eq!(resumed.simulated, 0, "served from cache on resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_cell_is_recorded_and_does_not_abort() {
        // A watchdog small enough that the pointer-chase benchmark's
        // inter-commit gaps trip it.
        let mut starved = configs::baseline(0);
        starved.name = "TinyWatchdog".to_string();
        starved.config.watchdog_cycles = 2;
        let mut sess = Session::new(
            RunLength {
                warmup: 100,
                measure: 1000,
            },
            None,
        );
        let bench = benchmark("fp_compute").unwrap();
        let err = sess.try_run(&starved, bench).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock(_)),
            "expected deadlock, got {err}"
        );
        assert_eq!(sess.failures.len(), 1);
        assert_eq!(sess.failures[0].config, "TinyWatchdog");
        // The failure carries the full canonical cell key (and no fuzz
        // seed — this is a matrix cell), so it is reproducible from the
        // report alone.
        assert!(sess.failures[0].cell_key.starts_with("TinyWatchdog|"));
        assert!(sess.failures[0].cell_key.ends_with("|fp_compute|w100m1000"));
        assert!(sess.failures[0].fuzz_seed.is_none());
        assert!(sess.failure_notes()[0].contains("FAILED"));
        assert!(sess.failure_notes()[0].contains("[cell TinyWatchdog|"));
        // The session keeps working for healthy cells.
        let ok = sess.try_run(&configs::baseline(0), bench);
        assert!(ok.is_ok());
        // A recall of the failed cell is memoized: same error back, no
        // re-simulation, no duplicate failure record.
        let again = sess.try_run(&starved, bench).unwrap_err();
        assert!(matches!(again, SimError::Deadlock(_)));
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
        let mut starved = configs::baseline(0);
        starved.name = "TinyWatchdog".to_string();
        starved.config.watchdog_cycles = 2;
        let _ = w2.try_run(&starved, bench);
        main.merge(w1);
        main.merge(w2);
        assert_eq!(main.simulated, 1);
        assert_eq!(main.failures.len(), 1);
        // The merged result is served from memory.
        let b = main.try_run(&configs::baseline(0), bench).expect("cached");
        assert_eq!(main.simulated, 1, "served from merged cache");
        assert_eq!(ok, b);
        // The merged failure is memoized too.
        let err = main.try_run(&starved, bench).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
        assert_eq!(main.failures.len(), 1);
    }
}
