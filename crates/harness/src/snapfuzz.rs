//! Snapshot-corruption fuzzer: seeded bit-flips, truncations, and
//! section swaps against the checkpoint container and its decoders.
//!
//! Two layers are attacked, matching the two layers that defend:
//!
//! 1. **Container** — a real captured snapshot is serialized to disk,
//!    mutated ([`ss_snapshot::Mutation`]), and read back through
//!    [`ss_snapshot::read_verified`]. Every applied mutation must yield a
//!    typed [`ss_snapshot::SnapshotError`] — the header grammar and the
//!    FNV-1a payload checksum make silent acceptance structurally
//!    impossible, and this campaign proves it empirically.
//! 2. **Decoders** — the same mutations are applied to one section's
//!    *decoded* bytes (below the checksum, as if memory were corrupted
//!    after verification) and fed to [`Simulator::restore`]. Here a
//!    mutation may legitimately decode clean (a flipped counter bit is
//!    just another counter), but it must **never panic**: every reject
//!    is a typed [`SimError::SnapshotCorrupt`].
//!
//! [`Simulator::restore`]: ss_core::Simulator::restore

use crate::cli::{self, Args};
use ss_core::{RunLength, Simulator};
use ss_snapshot::{Mutation, Snapshot};
use ss_types::rng::Xoshiro256;
use ss_types::{SimConfig, SimError};
use ss_workloads::{kernels, KernelTrace};

/// Outcome of one corruption campaign.
#[derive(Debug, Default)]
pub struct SnapFuzzStats {
    /// Mutations whose damage the container read path rejected (typed).
    pub container_rejected: u64,
    /// Mutations the container read path accepted — **bugs**.
    pub container_accepted: u64,
    /// Section-level mutations the decoders rejected (typed).
    pub decoder_rejected: u64,
    /// Section-level mutations that decoded clean (legitimate below the
    /// checksum; counted for the record).
    pub decoder_clean: u64,
    /// Panics anywhere — **bugs**.
    pub panics: u64,
    /// Mutations that were no-ops on the input (skipped).
    pub skipped: u64,
}

impl SnapFuzzStats {
    /// Whether the campaign found no escapes: zero silent container
    /// acceptances and zero panics.
    pub fn clean(&self) -> bool {
        self.container_accepted == 0 && self.panics == 0
    }
}

/// Captures a real warm snapshot to attack (small but fully populated:
/// every subsystem has live state after a few thousand commits).
fn subject_snapshot() -> Snapshot {
    let cfg = SimConfig::builder().build();
    let mut sim = Simulator::new(cfg, KernelTrace::new(kernels::mix_int(7)));
    sim.try_run_committed(RunLength::SMOKE.warmup)
        .expect("subject simulation runs");
    sim.capture()
}

/// Runs `count` seeded mutations against the container and decoder
/// layers. Deterministic in `seed`: a failing seed reproduces exactly.
pub fn run_campaign(seed: u64, count: u64) -> SnapFuzzStats {
    let snap = subject_snapshot();
    let bytes = snap.to_bytes();
    let cfg = SimConfig::builder().build();
    let mut stats = SnapFuzzStats::default();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for _ in 0..count {
        // Layer 1: the on-disk container.
        let m = Mutation::arbitrary(&mut rng, bytes.len());
        match m.apply(&bytes) {
            None => stats.skipped += 1,
            Some(mutated) => {
                let outcome = std::panic::catch_unwind(|| Snapshot::from_bytes(&mutated).err());
                match outcome {
                    Ok(Some(_typed)) => stats.container_rejected += 1,
                    Ok(None) => {
                        stats.container_accepted += 1;
                        eprintln!("ESCAPE: container accepted corrupt bytes after {m}");
                    }
                    Err(_) => {
                        stats.panics += 1;
                        eprintln!("PANIC: container decode panicked after {m}");
                    }
                }
            }
        }
        // Layer 2: one section's decoded bytes, below the checksum.
        let idx = (rng.next_u64() % snap.sections.len() as u64) as usize;
        let section = &snap.sections[idx];
        let m = Mutation::arbitrary(&mut rng, section.bytes.len());
        let Some(mutated) = m.apply(&section.bytes) else {
            stats.skipped += 1;
            continue;
        };
        let mut forged = snap.clone();
        forged.sections[idx].bytes = mutated;
        let tag = section.tag;
        let outcome = std::panic::catch_unwind(|| {
            let mut sim = Simulator::new(cfg.clone(), KernelTrace::new(kernels::mix_int(7)));
            sim.restore(&forged).err()
        });
        match outcome {
            Ok(Some(SimError::SnapshotCorrupt { .. })) => stats.decoder_rejected += 1,
            Ok(Some(e)) => {
                stats.panics += 1; // wrong error class is a contract break
                eprintln!("ESCAPE: section {tag} mutation {m} gave untyped error: {e}");
            }
            Ok(None) => stats.decoder_clean += 1,
            Err(_) => {
                stats.panics += 1;
                eprintln!("PANIC: restore panicked on section {tag} after {m}");
            }
        }
    }
    stats
}

/// CLI entry point for `experiments snapfuzz`.
pub fn run_cli(args: &[String]) -> i32 {
    cli::command(
        args,
        "usage: experiments snapfuzz [--seeds N] [--seed S]",
        parse_args,
        snapfuzz,
    )
}

fn snapfuzz((seed, count): (u64, u64)) -> i32 {
    let stats = run_campaign(seed, count);
    println!(
        "snapfuzz seed {seed:#x}: {} mutations — container {} rejected / {} accepted, \
         decoders {} rejected / {} clean, {} panics, {} no-ops",
        count,
        stats.container_rejected,
        stats.container_accepted,
        stats.decoder_rejected,
        stats.decoder_clean,
        stats.panics,
        stats.skipped
    );
    if stats.clean() {
        0
    } else {
        eprintln!("snapshot corruption escaped typed handling (see ESCAPE/PANIC lines above)");
        1
    }
}

/// `--seed` and `--seeds`, with their defaults.
fn parse_args(args: &[String]) -> Result<(u64, u64), String> {
    let (mut seed, mut count) = (0xC0FF_EE5E_ED00_0001, 500);
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--seed" => seed = args.seed("--seed needs a number")?,
            "--seeds" => count = args.parse("--seeds needs a count")?,
            other => return Err(format!("unknown snapfuzz flag `{other}`")),
        }
    }
    Ok((seed, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_campaign_is_clean_and_exercises_both_layers() {
        let stats = run_campaign(0xDEAD_BEEF, 60);
        assert!(stats.clean(), "{stats:?}");
        assert!(stats.container_rejected > 30, "{stats:?}");
        assert!(
            stats.decoder_rejected + stats.decoder_clean > 30,
            "{stats:?}"
        );
    }

    #[test]
    fn campaign_is_deterministic_in_its_seed() {
        let a = run_campaign(42, 30);
        let b = run_campaign(42, 30);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
