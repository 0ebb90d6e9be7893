//! Versioned, checksummed simulator state snapshots.
//!
//! A snapshot is a single file (or byte buffer) holding the *entire*
//! dynamic state of a simulator at one cycle, so a run can be forked or
//! resumed without replaying its prefix. The container follows the
//! `ss-stats-cache` header idiom from the harness:
//!
//! ```text
//! ss-snapshot v<version> <payload-fnv1a64:016x> <payload-len>\n
//! <binary payload: [config-fp u64 LE] then [u32 tag][u64 len][len bytes] per section ...>
//! ```
//!
//! * The **version** gates format compatibility: a snapshot written by a
//!   different format version fails with
//!   [`SnapshotError::VersionMismatch`] before any payload is touched.
//! * The **checksum** (FNV-1a 64 over the whole payload) makes every torn
//!   write, truncation, bit flip, or section swap a detectable,
//!   *typed* failure — never a wrong simulation.
//! * The **config fingerprint** binds the snapshot to the machine
//!   configuration (and workload) it was captured under; restoring into a
//!   differently-configured simulator is rejected.
//!
//! File writes are atomic: the bytes go to a temp file in the target
//! directory, are fsync'd, and are renamed into place, so a crash
//! mid-write can never leave a half-written snapshot under the final
//! name. Reads that fail the gate quarantine the file by renaming it to
//! `<name>.corrupt` so the evidence is preserved and the bad bytes are
//! never re-read as a snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ss_types::persist::fnv1a64;
use ss_types::rng::Xoshiro256;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic tag leading every snapshot header line.
pub const SNAPSHOT_MAGIC: &str = "ss-snapshot";

/// Snapshot format version written and read by this build. Bump whenever
/// the serialized field set of any component, or the codec, changes
/// (version 3 writes sequences as literal stretches and runs; version 4
/// drops the degrade-mode fields from the CORE section and `SimStats`;
/// version 5 writes each cache as flat tag-word and stamp arrays and the
/// BTB as `sets × ways` entries with a packed LRU byte per set; version 6
/// moves branch repair state out of the window: CORE queues each
/// in-flight branch's direction metadata alone, and BPRED holds the one
/// history/RAS repair point; version 7 drops the RAS copy from that
/// repair point; version 8 drops the counters nothing reports: the
/// violation copy and the stale component counters from CORE, the store
/// and L1I miss counts from MEM, the bank predictor's accuracy counts
/// from SCHED, the Store Sets violation count from MEMDEP and the
/// retired-instruction count of an `rv:` source from TRACE; version 9
/// writes `SimStats` as a presence mask and its non-zero counters, and
/// drops the stride prefetcher's proposal count from MEM).
pub const SNAPSHOT_FORMAT_VERSION: u32 = 9;

/// Why a snapshot could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Structural damage: bad magic, bad checksum, truncated payload,
    /// malformed section framing, or an undecodable section body.
    Corrupt(String),
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// The snapshot belongs to a different (config, workload) identity.
    ConfigMismatch {
        /// Fingerprint in the header.
        found: u64,
        /// Fingerprint of the restore target.
        expected: u64,
    },
    /// An I/O failure reading or writing the snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:016x} != expected {expected:016x}"
            ),
            SnapshotError::Io(why) => write!(f, "snapshot io: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Strict parse of the canonical checksum encoding: exactly 16 lowercase
/// hex digits. `u64::from_str_radix` would also accept uppercase, `+`,
/// and short strings — non-canonical spellings a bit flip can produce
/// without changing the decoded value, which would let damage go
/// unnoticed.
fn parse_hex_lower16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    let mut v: u64 = 0;
    for c in s.bytes() {
        let d = match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            _ => return None,
        };
        v = (v << 4) | u64::from(d);
    }
    Some(v)
}

/// One tagged section of a snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Component tag (see the `SEC_*` constants in `ss-core`).
    pub tag: u32,
    /// The component's serialized state.
    pub bytes: Vec<u8>,
}

/// A complete, verified snapshot: format version, config fingerprint, and
/// the decoded section list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the (config, workload) identity this state belongs
    /// to.
    pub config_fingerprint: u64,
    /// The component sections, in capture order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// Builds a snapshot from sections.
    pub fn new(config_fingerprint: u64, sections: Vec<Section>) -> Self {
        Snapshot {
            config_fingerprint,
            sections,
        }
    }

    /// The section with the given tag, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.bytes.as_slice())
    }

    /// Serializes the snapshot to its on-disk byte form (header +
    /// section-tagged payload). The config fingerprint travels inside the
    /// checksummed payload, so damage to it is detected like any other
    /// payload damage.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        for s in &self.sections {
            payload.extend_from_slice(&s.tag.to_le_bytes());
            payload.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
            payload.extend_from_slice(&s.bytes);
        }
        let header = format!(
            "{SNAPSHOT_MAGIC} v{SNAPSHOT_FORMAT_VERSION} {:016x} {}\n",
            fnv1a64(&payload),
            payload.len()
        );
        let mut out = header.into_bytes();
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and verifies a snapshot from its byte form. Every possible
    /// malformation yields a typed [`SnapshotError`]; this function never
    /// panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let corrupt = |why: &str| Err(SnapshotError::Corrupt(why.to_string()));
        let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
            return corrupt("missing header line");
        };
        let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
            return corrupt("header is not UTF-8");
        };
        let payload = &bytes[nl + 1..];
        let mut parts = header.split(' ');
        if parts.next() != Some(SNAPSHOT_MAGIC) {
            return corrupt("not a snapshot file (bad magic)");
        }
        let version = parts.next().unwrap_or("");
        let Some(version) = version
            .strip_prefix('v')
            .and_then(|v| v.parse::<u32>().ok())
        else {
            return corrupt("unparsable version stamp");
        };
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let Some(want_sum) = parts.next().and_then(parse_hex_lower16) else {
            return corrupt("unparsable checksum");
        };
        let Some(want_len) = parts.next().and_then(|l| l.parse::<usize>().ok()) else {
            return corrupt("unparsable payload length");
        };
        if parts.next().is_some() {
            return corrupt("trailing header fields");
        }
        if payload.len() != want_len {
            return Err(SnapshotError::Corrupt(format!(
                "payload length {} != header length {want_len} (torn write?)",
                payload.len()
            )));
        }
        let got_sum = fnv1a64(payload);
        if got_sum != want_sum {
            return Err(SnapshotError::Corrupt(format!(
                "payload checksum {got_sum:016x} != header {want_sum:016x}"
            )));
        }
        if payload.len() < 8 {
            return corrupt("payload too short for config fingerprint");
        }
        let config_fp = u64::from_le_bytes(payload[..8].try_into().expect("sized"));
        let mut sections = Vec::new();
        let mut pos = 8usize;
        while pos < payload.len() {
            if payload.len() - pos < 12 {
                return corrupt("truncated section framing");
            }
            let tag = u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("sized"));
            let len = u64::from_le_bytes(payload[pos + 4..pos + 12].try_into().expect("sized"));
            pos += 12;
            let Ok(len) = usize::try_from(len) else {
                return corrupt("section length out of range");
            };
            if len > payload.len() - pos {
                return corrupt("section length exceeds payload");
            }
            sections.push(Section {
                tag,
                bytes: payload[pos..pos + len].to_vec(),
            });
            pos += len;
        }
        Ok(Snapshot {
            config_fingerprint: config_fp,
            sections,
        })
    }

    /// Verifies the snapshot's fingerprint against the restore target's.
    pub fn check_config(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.config_fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: self.config_fingerprint,
                expected,
            });
        }
        Ok(())
    }
}

/// Writes a snapshot atomically: temp file in the same directory, fsync,
/// rename into place, directory fsync. A crash at any point leaves either
/// the old file or the new file under `path`, never a torn mix.
pub fn write_atomic(path: &Path, snap: &Snapshot) -> Result<(), SnapshotError> {
    let io = |what: &str, e: std::io::Error| SnapshotError::Io(format!("{what}: {e}"));
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = File::create(&tmp).map_err(|e| io("create temp", e))?;
    f.write_all(&snap.to_bytes())
        .map_err(|e| io("write temp", e))?;
    f.sync_all().map_err(|e| io("fsync temp", e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io("rename into place", e))?;
    // Persist the rename itself; without this a crash could lose the
    // directory entry even though the data blocks reached disk.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The quarantine name for a snapshot that failed verification.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    PathBuf::from(name)
}

/// Reads and verifies a snapshot file. A file that fails the structural
/// gate (corrupt or version-mismatched) is *quarantined*: renamed to
/// `<name>.corrupt` so it is preserved as evidence but can never be read
/// as a snapshot again. Missing files surface as [`SnapshotError::Io`].
pub fn read_verified(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes =
        fs::read(path).map_err(|e| SnapshotError::Io(format!("read {}: {e}", path.display())))?;
    match Snapshot::from_bytes(&bytes) {
        Ok(s) => Ok(s),
        Err(e) => {
            let _ = fs::rename(path, quarantine_path(path));
            Err(e)
        }
    }
}

/// A seeded mutation over valid snapshot bytes, for corruption fuzzing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip one bit at a byte offset.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// Bit index 0–7 within that byte.
        bit: u8,
    },
    /// Truncate the buffer to a prefix.
    Truncate {
        /// Bytes kept.
        keep: usize,
    },
    /// Swap two equal-length byte ranges (models reordered/cross-written
    /// sections without fixing up the checksum).
    Swap {
        /// First range start.
        a: usize,
        /// Second range start (disjoint from the first).
        b: usize,
        /// Range length.
        len: usize,
    },
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::BitFlip { offset, bit } => write!(f, "bit-flip byte {offset} bit {bit}"),
            Mutation::Truncate { keep } => write!(f, "truncate to {keep} bytes"),
            Mutation::Swap { a, b, len } => write!(f, "swap [{a}..+{len}] with [{b}..+{len}]"),
        }
    }
}

impl Mutation {
    /// Draws a random mutation valid for a buffer of `len` bytes.
    pub fn arbitrary(rng: &mut Xoshiro256, len: usize) -> Self {
        assert!(len >= 4, "snapshot too small to mutate");
        match rng.next_below(3) {
            0 => Mutation::BitFlip {
                offset: rng.next_below(len as u64) as usize,
                bit: rng.next_below(8) as u8,
            },
            1 => Mutation::Truncate {
                keep: rng.next_below(len as u64) as usize,
            },
            _ => {
                let max_len = (len / 4).max(1);
                let span = 1 + rng.next_below(max_len as u64) as usize;
                let a = rng.next_below((len - 2 * span + 1) as u64) as usize;
                let b = a + span + rng.next_below((len - a - 2 * span + 1) as u64) as usize;
                Mutation::Swap { a, b, len: span }
            }
        }
    }

    /// Applies the mutation, returning the damaged bytes. Returns `None`
    /// if the mutation is a no-op on this buffer (e.g. swapping identical
    /// ranges), so callers never mistake unchanged bytes for damage.
    pub fn apply(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let mut out = bytes.to_vec();
        match *self {
            Mutation::BitFlip { offset, bit } => {
                out[offset] ^= 1 << bit;
            }
            Mutation::Truncate { keep } => out.truncate(keep),
            Mutation::Swap { a, b, len } => {
                for i in 0..len {
                    out.swap(a + i, b + i);
                }
            }
        }
        if out == bytes {
            None
        } else {
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot::new(
            0xDEAD_BEEF_1234_5678,
            vec![
                Section {
                    tag: 1,
                    bytes: vec![1, 2, 3, 4],
                },
                Section {
                    tag: 2,
                    bytes: vec![9; 100],
                },
                Section {
                    tag: 7,
                    bytes: vec![],
                },
            ],
        )
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("verifies");
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.section(2).unwrap().len(), 100);
        assert!(back.section(99).is_none());
    }

    #[test]
    fn version_bump_is_a_typed_mismatch() {
        let bytes = sample().to_bytes();
        let current = format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_FORMAT_VERSION} ");
        assert!(bytes.starts_with(current.as_bytes()));
        let next = SNAPSHOT_FORMAT_VERSION + 1;
        let mut bumped = format!("{SNAPSHOT_MAGIC} v{next} ").into_bytes();
        bumped.extend_from_slice(&bytes[current.len()..]);
        match Snapshot::from_bytes(&bumped) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_fingerprint_gate() {
        let s = sample();
        assert!(s.check_config(0xDEAD_BEEF_1234_5678).is_ok());
        assert!(matches!(
            s.check_config(1),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let e = Snapshot::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    e,
                    SnapshotError::Corrupt(_) | SnapshotError::VersionMismatch { .. }
                ),
                "cut {cut}: {e:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for offset in 0..bytes.len() {
            for bit in 0..8 {
                let mut dmg = bytes.clone();
                dmg[offset] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&dmg).is_err(),
                    "flip at {offset}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn atomic_write_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("ss-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        let s = sample();
        write_atomic(&path, &s).expect("writes");
        assert_eq!(read_verified(&path).expect("reads"), s);
        // Tear the file; the read must fail typed and quarantine it.
        let mut bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        std::fs::write(&path, &bytes).unwrap();
        let e = read_verified(&path).expect_err("torn file rejected");
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
        assert!(!path.exists(), "torn file removed from its snapshot name");
        assert!(quarantine_path(&path).exists(), "torn file quarantined");
        // A missing file is Io, not Corrupt.
        assert!(matches!(read_verified(&path), Err(SnapshotError::Io(_))));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seeded_mutations_always_yield_typed_errors() {
        let bytes = sample().to_bytes();
        let mut rng = Xoshiro256::seed_from_u64(0x5EED);
        let mut applied = 0;
        for _ in 0..500 {
            let m = Mutation::arbitrary(&mut rng, bytes.len());
            let Some(dmg) = m.apply(&bytes) else {
                continue;
            };
            applied += 1;
            assert!(Snapshot::from_bytes(&dmg).is_err(), "{m} undetected");
        }
        assert!(applied > 400, "mutations mostly applicable, got {applied}");
    }
}
