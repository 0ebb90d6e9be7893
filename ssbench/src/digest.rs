//! The correctness gate for simulated results: FNV-1a digests of the
//! CSVs and tables each workload produces, written by `ssbench bless`
//! and checked by every run.

use ss_types::persist::fnv1a64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `label → digest` for the default seed. Labels are
/// `<workload>/<output>`, for example `sweep_quick/fig4_0.csv`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Digests(pub BTreeMap<String, String>);

impl Digests {
    pub fn path(pkg: &Path) -> PathBuf {
        pkg.join("expected").join("digests.txt")
    }

    /// Reads the blessed digests; a missing file reads as empty, so every
    /// check fails until `ssbench bless` has run.
    pub fn load(pkg: &Path) -> Digests {
        let text = std::fs::read_to_string(Self::path(pkg)).unwrap_or_default();
        Digests(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.trim().to_string()))
                .collect(),
        )
    }

    pub fn save(&self, pkg: &Path) -> std::io::Result<()> {
        let mut text = String::from(
            "# FNV-1a 64 digests of each workload's outputs at the default seed.\n\
             # Regenerate with `ssbench bless` after a deliberate change to simulated results.\n",
        );
        for (k, v) in &self.0 {
            text.push_str(&format!("{k} {v}\n"));
        }
        std::fs::create_dir_all(pkg.join("expected"))?;
        std::fs::write(Self::path(pkg), text)
    }

    /// The blessed entries of `workload`, as `(output, digest)`.
    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let prefix = format!("{workload}/");
        self.0
            .iter()
            .filter_map(move |(k, v)| Some((k.strip_prefix(&prefix)?, v.as_str())))
    }
}

pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Digests of the CSV files in `dir`, by file name.
pub fn csv_digests(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            if let Ok(bytes) = std::fs::read(entry.path()) {
                out.insert(name, digest(&bytes));
            }
        }
    }
    out
}

/// Compares produced `(output, digest)` pairs with the blessed entries
/// of `workload`; returns one message per mismatch or missing output.
pub fn mismatches(
    expected: &Digests,
    workload: &str,
    got: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut any = false;
    for (name, want) in expected.of(workload) {
        any = true;
        match got.get(name) {
            Some(have) if have == want => {}
            Some(have) => bad.push(format!("{name}: digest {have}, blessed {want}")),
            None => bad.push(format!("{name}: not produced")),
        }
    }
    if !any {
        bad.push(format!(
            "no blessed digests for {workload} (run `ssbench bless`)"
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip_and_flag_mismatches() {
        let dir = std::env::temp_dir().join(format!("ssbench-digest-{}", std::process::id()));
        let mut d = Digests::default();
        d.0.insert("sweep_quick/fig5_0.csv".into(), digest(b"a,b\n"));
        d.0.insert("rv_oracle/rv:sort@0xb5".into(), digest(b"table"));
        d.save(&dir).unwrap();
        let back = Digests::load(&dir);
        assert_eq!(back, d);
        let mut got = BTreeMap::new();
        got.insert("fig5_0.csv".to_string(), digest(b"a,b\n"));
        assert!(mismatches(&back, "sweep_quick", &got).is_empty());
        got.insert("fig5_0.csv".to_string(), digest(b"a,c\n"));
        assert_eq!(mismatches(&back, "sweep_quick", &got).len(), 1);
        assert_eq!(mismatches(&back, "sweep_quick", &BTreeMap::new()).len(), 1);
        assert_eq!(
            mismatches(&back, "serve_mix", &got).len(),
            1,
            "nothing blessed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
