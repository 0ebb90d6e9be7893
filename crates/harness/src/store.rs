//! The results store: one file per simulated cell, addressed by the
//! canonical text of the [`ss_core::RunRequest`] that produced it.
//!
//! An entry lives at `DIR/{fnv1a64(text):016x}.stats`. It is one header
//! line, `ss-results v{STORE_VERSION} {checksum:016x} {text}`, followed
//! by the [`Persist`] encoding of the cell's [`SimStats`] — the codec
//! golden digests and snapshots already use, whose field list cannot
//! drift from the struct. The checksum covers everything after it: the
//! text, the newline and the body.
//!
//! A present entry that cannot be served is either *stale* (another
//! format version, or another request's text under the same hash —
//! routine across builds) or *corrupt* (damaged bytes). [`Store::get`]
//! only reads, which is what the serve layer's read-only view needs.
//! [`Store::get_or_clear`] also deletes a stale entry and quarantines a
//! corrupt one to `<name>.corrupt`, which is what a sweep does before it
//! re-simulates the cell.
//!
//! [`Store::put`] writes a temp file and renames it into place, so a
//! concurrent reader sees the old entry, the new one or none, never a
//! torn one. It does not fsync: the sweep journal is the durability
//! record, and an entry lost to a crash is simply re-simulated.

use ss_types::persist::fnv1a64;
use ss_types::{Persist, Reader, SimError, SimStats, Writer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version. Bump whenever the simulator's behaviour or the
/// [`SimStats`] encoding changes incompatibly, so entries written by
/// older builds read as stale and are re-simulated.
pub const STORE_VERSION: u32 = 2;

/// Magic tag leading every entry's header line.
const MAGIC: &str = "ss-results";

/// File extension of an entry.
const EXT: &str = "stats";

/// Why a present entry was not served. Both carry a
/// [`SimError::CacheCorrupt`] naming the file and the reason.
#[derive(Debug, Clone)]
pub enum Rejected {
    /// Written by another build or for another request: delete and
    /// re-simulate.
    Stale(SimError),
    /// Damaged bytes: keep as evidence and re-simulate.
    Corrupt(SimError),
}

/// A results store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// A view of the store at `dir`, which need not exist (every read is
    /// then a miss).
    pub fn at(dir: impl Into<PathBuf>) -> Store {
        Store { dir: dir.into() }
    }

    /// The store at `dir`, creating the directory if needed.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store { dir })
    }

    /// Where the entry for `text` lives.
    pub fn path(&self, text: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{EXT}", fnv1a64(text.as_bytes())))
    }

    /// The statistics stored for `text`; `Ok(None)` when there is no
    /// entry. Never modifies the directory.
    pub fn get(&self, text: &str) -> Result<Option<SimStats>, Rejected> {
        let path = self.path(text);
        match std::fs::read(&path) {
            Ok(bytes) => decode(&bytes, text, &path).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// [`Store::get`], then clears an unusable entry away: a stale one is
    /// deleted, a corrupt one renamed to `<name>.corrupt`.
    pub fn get_or_clear(&self, text: &str) -> Result<Option<SimStats>, Rejected> {
        let got = self.get(text);
        if let Err(rejected) = &got {
            let path = self.path(text);
            if let Rejected::Corrupt(_) = rejected {
                if std::fs::rename(&path, ss_snapshot::quarantine_path(&path)).is_ok() {
                    return got;
                }
            }
            let _ = std::fs::remove_file(&path);
        }
        got
    }

    /// Stores `stats` as the result of `text` (canonical request text,
    /// which never spans lines), replacing any entry.
    pub fn put(&self, text: &str, stats: &SimStats) -> std::io::Result<()> {
        debug_assert!(!text.contains('\n'), "request text spans lines");
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut w = Writer::new();
        stats.save(&mut w);
        let mut tail = Vec::with_capacity(text.len() + 1 + w.bytes().len());
        tail.extend_from_slice(text.as_bytes());
        tail.push(b'\n');
        tail.extend_from_slice(w.bytes());
        let mut bytes = format!("{MAGIC} v{STORE_VERSION} {:016x} ", fnv1a64(&tail)).into_bytes();
        bytes.extend_from_slice(&tail);
        let path = self.path(text);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

/// Verifies and decodes one entry expected to hold `text`'s result.
fn decode(bytes: &[u8], text: &str, path: &Path) -> Result<SimStats, Rejected> {
    let error = |reason: String| SimError::CacheCorrupt {
        path: path.display().to_string(),
        reason,
    };
    let corrupt = |reason: String| Err(Rejected::Corrupt(error(reason)));
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return corrupt("missing header line".into());
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return corrupt("header is not UTF-8".into());
    };
    let mut parts = header.splitn(4, ' ');
    if parts.next() != Some(MAGIC) {
        return corrupt("not a results-store entry (bad magic)".into());
    }
    let version = parts.next().unwrap_or("");
    if version != format!("v{STORE_VERSION}") {
        return Err(Rejected::Stale(error(format!(
            "format version {version} != v{STORE_VERSION} (stale entry)"
        ))));
    }
    let Some(want) = parts.next().and_then(|h| u64::from_str_radix(h, 16).ok()) else {
        return corrupt("unparsable checksum".into());
    };
    let stored = parts.next().unwrap_or("");
    let got = fnv1a64(&bytes[nl - stored.len()..]);
    if got != want {
        return corrupt(format!(
            "checksum mismatch: computed {got:016x}, header {want:016x}"
        ));
    }
    if stored != text {
        return Err(Rejected::Stale(error(format!(
            "entry holds `{stored}`, not `{text}` (stale entry)"
        ))));
    }
    let mut r = Reader::new(&bytes[nl + 1..]);
    match SimStats::load(&mut r) {
        Ok(s) if r.is_finished() => Ok(s),
        Ok(_) => corrupt("trailing bytes after the statistics".into()),
        Err(e) => corrupt(format!("undecodable statistics: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "src=bench:fp_compute@0xb5 cfg=Baseline_0 len=w1m2";

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stats() -> SimStats {
        let mut s = SimStats {
            cycles: 77,
            committed_uops: 88,
            faults_injected: 5,
            ..Default::default()
        };
        s.l1d.misses = 9;
        s.l2.prefetch_hits = 11;
        s
    }

    #[test]
    fn put_then_get_roundtrips_every_field() {
        let dir = tmp("roundtrip");
        let store = Store::create(&dir).unwrap();
        assert!(store.get(TEXT).unwrap().is_none(), "empty store misses");
        store.put(TEXT, &stats()).unwrap();
        assert_eq!(store.get(TEXT).unwrap(), Some(stats()));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, [format!("{:016x}.stats", fnv1a64(TEXT.as_bytes()))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_directory_is_only_a_miss() {
        let store = Store::at(tmp("absent"));
        assert!(store.get(TEXT).unwrap().is_none());
        assert!(store.get_or_clear(TEXT).unwrap().is_none());
    }

    #[test]
    fn stale_and_corrupt_entries_are_told_apart() {
        let dir = tmp("reject");
        let store = Store::create(&dir).unwrap();
        store.put(TEXT, &stats()).unwrap();
        let path = store.path(TEXT);
        let good = std::fs::read(&path).unwrap();
        let check = |bytes: &[u8], stale: bool, what: &str| {
            std::fs::write(&path, bytes).unwrap();
            match store.get(TEXT) {
                Err(Rejected::Stale(e)) if stale => assert!(e.to_string().contains(what), "{e}"),
                Err(Rejected::Corrupt(e)) if !stale => {
                    assert!(e.to_string().contains(what), "{e}")
                }
                other => panic!("{what}: got {other:?}"),
            }
        };
        // Another format version is stale.
        let current = format!(" v{STORE_VERSION} ");
        let old = String::from_utf8_lossy(&good).replacen(&current, " v1 ", 1);
        check(old.as_bytes(), true, "format version");
        // Another request's text under this hash, intact, is stale.
        let other = "src=bench:fp_compute@0xb5 cfg=Baseline_0 len=w9m9";
        Store::create(dir.join("other"))
            .unwrap()
            .put(other, &stats())
            .unwrap();
        let foreign = std::fs::read(Store::at(dir.join("other")).path(other)).unwrap();
        check(&foreign, true, "not `");
        // A flipped body byte fails the checksum.
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        check(&flipped, false, "checksum");
        // A flipped text byte does too: the checksum covers the text.
        let damaged = String::from_utf8_lossy(&good).replacen("w1m2", "w1m3", 1);
        check(damaged.as_bytes(), false, "checksum");
        // A truncated body fails to decode even with a matching checksum.
        let nl = good.iter().position(|&b| b == b'\n').unwrap();
        let tail = &good[nl - TEXT.len()..good.len() - 8];
        let mut short = format!("ss-results v{STORE_VERSION} {:016x} ", fnv1a64(tail)).into_bytes();
        short.extend_from_slice(tail);
        check(&short, false, "undecodable");
        // Headerless and foreign files are corrupt.
        check(b"cycles 1\ncommitted_uops 2\n", false, "magic");
        check(b"no newline at all", false, "header");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_or_clear_deletes_stale_and_quarantines_corrupt() {
        let dir = tmp("clear");
        let store = Store::create(&dir).unwrap();
        store.put(TEXT, &stats()).unwrap();
        let path = store.path(TEXT);
        let good = std::fs::read(&path).unwrap();
        let current = format!(" v{STORE_VERSION} ");
        let stale = String::from_utf8_lossy(&good).replacen(&current, " v1 ", 1);
        std::fs::write(&path, stale.as_bytes()).unwrap();
        assert!(store.get(TEXT).is_err());
        assert!(path.exists(), "get never touches the file");
        assert!(matches!(store.get_or_clear(TEXT), Err(Rejected::Stale(_))));
        assert!(!path.exists(), "stale entry deleted");
        let mut flipped = good;
        *flipped.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.get_or_clear(TEXT),
            Err(Rejected::Corrupt(_))
        ));
        assert!(!path.exists());
        assert_eq!(
            std::fs::read(ss_snapshot::quarantine_path(&path)).unwrap(),
            flipped,
            "corrupt entry kept as evidence"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_replaces_an_entry_and_leaves_no_temp_files() {
        let dir = tmp("replace");
        let store = Store::create(&dir).unwrap();
        store.put(TEXT, &SimStats::default()).unwrap();
        store.put(TEXT, &stats()).unwrap();
        assert_eq!(store.get(TEXT).unwrap(), Some(stats()));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
