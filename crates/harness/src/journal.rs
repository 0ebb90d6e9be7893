//! Crash-safe sweep journal: an fsync'd, append-only record of completed
//! sweep cells.
//!
//! A sweep killed mid-flight (power loss, OOM kill, ctrl-C) leaves its
//! results store holding every *completed* cell. The journal adds the
//! durable record of **which** cells completed, so a resumed sweep can
//! report exactly how much work it skipped, and a torn final record (the
//! kill landed mid-write) is detected — never trusted.
//!
//! Format: a header line `ss-sweep-journal v2`, then one record per
//! completed cell: `{fnv1a64(key):016x} {key}`, where the key is the
//! cell's canonical request text. A journal of another version is moved
//! aside like any foreign file. Every record is
//! self-checksummed, so the only failure a kill can produce — a torn
//! final line — fails its checksum and is dropped (and counted) at open.
//! Records are appended with a single `write` + `fsync` per cell:
//! whole-line atomicity on the append makes one journal shareable by
//! every worker of a parallel sweep, each through its own handle.

use ss_types::persist::fnv1a64;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic tag on the journal's header line.
const JOURNAL_MAGIC: &str = "ss-sweep-journal";

/// Journal format version; bump on incompatible record changes.
/// v2 records each cell's canonical request text.
const JOURNAL_VERSION: u32 = 2;

/// An append-only, fsync'd journal of completed sweep-cell keys.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: File,
    done: HashSet<String>,
    /// Records dropped at open because their checksum failed — the torn
    /// tail a mid-write kill leaves behind (anything else is corruption).
    pub torn_dropped: u64,
}

impl SweepJournal {
    /// Opens (or creates) the journal at `path`, loading every valid
    /// record already present. Records failing their checksum — the torn
    /// tail of a killed sweep — are dropped and counted, never trusted.
    /// A file that is not a journal at all is moved aside to
    /// `<path>.corrupt` and a fresh journal started.
    pub fn open(path: &Path) -> std::io::Result<SweepJournal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut done = HashSet::new();
        let mut torn = 0u64;
        let header = format!("{JOURNAL_MAGIC} v{JOURNAL_VERSION}");
        let mut fresh = true;
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut lines = text.lines();
            match lines.next() {
                Some(first) if first == header => {
                    fresh = false;
                    for line in lines {
                        match parse_record(line) {
                            Some(key) => {
                                done.insert(key.to_string());
                            }
                            None => torn += 1,
                        }
                    }
                }
                // Not our file (or a torn header): move it aside rather
                // than appending records something else might read back.
                _ => {
                    let quarantine = ss_snapshot::quarantine_path(path);
                    std::fs::rename(path, &quarantine)?;
                    eprintln!(
                        "warning: {} is not a sweep journal; moved to {}",
                        path.display(),
                        quarantine.display()
                    );
                }
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if fresh {
            file.write_all(format!("{header}\n").as_bytes())?;
            file.sync_data()?;
        }
        Ok(SweepJournal {
            path: path.to_path_buf(),
            file,
            done,
            torn_dropped: torn,
        })
    }

    /// A second handle on the same journal (for a parallel-sweep worker).
    /// The completed set is carried over; appends from distinct handles
    /// interleave as whole lines.
    pub fn reopen(&self) -> std::io::Result<SweepJournal> {
        let file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(SweepJournal {
            path: self.path.clone(),
            file,
            done: self.done.clone(),
            torn_dropped: 0,
        })
    }

    /// The journal's filesystem path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `key` is already journaled as completed.
    pub fn contains(&self, key: &str) -> bool {
        self.done.contains(key)
    }

    /// Number of completed cells on record.
    pub fn completed(&self) -> usize {
        self.done.len()
    }

    /// Durably records `key` as completed: one checksummed line, one
    /// `fsync`. Recording an already-journaled key is a no-op.
    pub fn record(&mut self, key: &str) -> std::io::Result<()> {
        if !self.done.insert(key.to_string()) {
            return Ok(());
        }
        let line = format!("{:016x} {key}\n", fnv1a64(key.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Parses one `{checksum:016x} {key}` record; `None` if torn or forged.
fn parse_record(line: &str) -> Option<&str> {
    let (sum, key) = line.split_once(' ')?;
    if sum.len() != 16
        || !sum
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return None;
    }
    let want = u64::from_str_radix(sum, 16).ok()?;
    (fnv1a64(key.as_bytes()) == want).then_some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2";
    const B: &str = "src=bench:mix_int@0xb5 cfg=SpecSched_4 len=w1m2";

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ss-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn records_survive_reopen() {
        let dir = tmp("reopen");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = SweepJournal::open(&path).unwrap();
            assert_eq!(j.completed(), 0);
            j.record(A).unwrap();
            j.record(B).unwrap();
            j.record(A).unwrap(); // dedup
        }
        let j = SweepJournal::open(&path).unwrap();
        assert_eq!(j.completed(), 2);
        assert!(j.contains(A));
        assert!(j.contains(B));
        assert_eq!(j.torn_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_trusted() {
        let dir = tmp("torn");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = SweepJournal::open(&path).unwrap();
            j.record("good-cell").unwrap();
        }
        // Simulate a kill mid-append: a record missing its tail bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        let half = format!("{:016x} half-writ", fnv1a64("half-written-cell".as_bytes()));
        bytes.extend_from_slice(half.as_bytes());
        std::fs::write(&path, bytes).unwrap();
        let j = SweepJournal::open(&path).unwrap();
        assert_eq!(j.completed(), 1, "only the intact record survives");
        assert!(!j.contains("half-writ"));
        assert_eq!(j.torn_dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_quarantined() {
        let dir = tmp("foreign");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "definitely not a journal\n").unwrap();
        let j = SweepJournal::open(&path).unwrap();
        assert_eq!(j.completed(), 0);
        assert!(
            ss_snapshot::quarantine_path(&path).exists(),
            "original moved aside"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_version_is_moved_aside() {
        let dir = tmp("v1");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old_key = "Baseline_0|Baseline_0|fp_compute|w1m2";
        let line = format!("{:016x} {old_key}", fnv1a64(old_key.as_bytes()));
        std::fs::write(&path, format!("{JOURNAL_MAGIC} v1\n{line}\n")).unwrap();
        let j = SweepJournal::open(&path).unwrap();
        assert_eq!(j.completed(), 0, "v1 records are not read as v2 cells");
        assert!(ss_snapshot::quarantine_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_handles_interleave_whole_records() {
        let dir = tmp("workers");
        let path = dir.join("journal.log");
        let _ = std::fs::remove_dir_all(&dir);
        let mut main = SweepJournal::open(&path).unwrap();
        let mut w1 = main.reopen().unwrap();
        let mut w2 = main.reopen().unwrap();
        w1.record("cell-1").unwrap();
        w2.record("cell-2").unwrap();
        main.record("cell-0").unwrap();
        let back = SweepJournal::open(&path).unwrap();
        assert_eq!(back.completed(), 3);
        assert_eq!(back.torn_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
