//! Checkpoint capture and restore.

use super::Simulator;
use ss_types::persist::{DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::trace::TraceSink;
use ss_types::{SimConfig, SimError};
use ss_workloads::TraceSource;

/// Section tags for the [`ss_snapshot`] container. Tags are part of the
/// on-disk format: renumbering is a format break and must bump
/// [`ss_snapshot::SNAPSHOT_FORMAT_VERSION`].
pub mod sections {
    /// Core pipeline state: ROB, frontend, in-flight/recovery groups,
    /// occupancy counters, cycle/seq clocks, fault plan, and the core's
    /// own statistics (each component's counters are in its section).
    pub const CORE: u32 = 1;
    /// Workload engine position plus the wrong-path generator.
    pub const TRACE: u32 = 2;
    /// Branch predictor (direction tables, BTB, RAS, history).
    pub const BPRED: u32 = 3;
    /// Memory hierarchy (caches, MSHRs, banks, DRAM, prefetcher).
    pub const MEM: u32 = 4;
    /// Memory-dependence predictor (Store Sets).
    pub const MEMDEP: u32 = 5;
    /// Scheduling-policy engine and bank predictor.
    pub const SCHED: u32 = 6;
    /// Rename/scoreboard state and the event-driven ready queue.
    pub const RENAME: u32 = 7;
}

/// Fingerprint of a machine configuration, used to gate restores: a
/// snapshot is only loadable into a simulator built from the identical
/// [`SimConfig`].
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    ss_types::persist::fnv1a64(format!("{cfg:?}").as_bytes())
}

fn section_of(tag: u32, fill: impl FnOnce(&mut Writer)) -> ss_snapshot::Section {
    let mut w = Writer::new();
    fill(&mut w);
    ss_snapshot::Section {
        tag,
        bytes: w.into_bytes(),
    }
}

/// Reads section `tag` of `snap` with `load`, which must consume all of
/// it; `name` labels the error.
fn read_section(
    snap: &ss_snapshot::Snapshot,
    tag: u32,
    name: &str,
    load: impl FnOnce(&mut Reader<'_>) -> Result<(), DecodeError>,
) -> Result<(), SimError> {
    let bytes = snap.section(tag);
    let mut r = Reader::new(bytes.ok_or_else(|| corrupt(format!("missing section {tag}")))?);
    load(&mut r)
        .and_then(|()| match r.remaining() {
            0 => Ok(()),
            n => Err(r.err(format_args!("{n} trailing bytes"))),
        })
        .map_err(|e| corrupt(format!("{name} section: {e}")))
}

fn corrupt(reason: impl Into<String>) -> SimError {
    SimError::SnapshotCorrupt {
        path: "<memory>".into(),
        reason: reason.into(),
    }
}

/// Generates `save_core` and `restore_core` from one list of the CORE
/// section's fields, in on-disk order.
macro_rules! core_fields {
    ($($field:ident),* $(,)?) => {
        fn save_core(&self, w: &mut Writer) {
            $(self.$field.save(w);)*
        }

        fn restore_core(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
            $(self.$field = Persist::load(r)?;)*
            Ok(())
        }
    };
}

impl<T: TraceSource + PersistState, S: TraceSink> Simulator<T, S> {
    /// Serializes the complete architectural and microarchitectural state
    /// of the machine into a versioned snapshot. A [`Simulator`] built
    /// from the same [`SimConfig`] and restored from this snapshot
    /// produces bit-identical statistics to one that never stopped.
    ///
    /// Not captured (by design): the trace sink, an attached differential
    /// checker, and per-cycle scratch buffers (all empty between ticks).
    /// Capture at a quiescent point — after a `try_run_committed` call —
    /// never mid-`tick`.
    pub fn capture(&self) -> ss_snapshot::Snapshot {
        let core = section_of(sections::CORE, |w| self.save_core(w));
        let trace = section_of(sections::TRACE, |w| {
            self.trace.save_state(w);
            self.wp_gen.save_state(w);
        });
        let bpred = section_of(sections::BPRED, |w| self.bpred.save_state(w));
        let mem = section_of(sections::MEM, |w| self.mem.save_state(w));
        let memdep = section_of(sections::MEMDEP, |w| self.store_sets.save_state(w));
        let sched = section_of(sections::SCHED, |w| {
            self.engine.save_state(w);
            self.bank_pred.save_state(w);
        });
        let rename = section_of(sections::RENAME, |w| {
            self.rename.save_state(w);
            self.sched.save_state(w);
        });
        ss_snapshot::Snapshot::new(
            config_fingerprint(&self.cfg),
            vec![core, trace, bpred, mem, memdep, sched, rename],
        )
    }

    /// Restores the machine to the exact state [`Simulator::capture`]
    /// serialized. The simulator must have been built from the identical
    /// [`SimConfig`] (gated by the config fingerprint).
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] on any config mismatch, missing
    /// section, or malformed section body. On error the simulator state
    /// is unspecified and it must not be used further.
    pub fn restore(&mut self, snap: &ss_snapshot::Snapshot) -> Result<(), SimError> {
        let expected = config_fingerprint(&self.cfg);
        if snap.config_fingerprint != expected {
            return Err(corrupt(format!(
                "config fingerprint {:016x} does not match this machine ({expected:016x})",
                snap.config_fingerprint
            )));
        }
        read_section(snap, sections::CORE, "core", |r| self.restore_core(r))?;
        read_section(snap, sections::TRACE, "trace", |r| {
            self.trace.restore_state(r)?;
            self.wp_gen.restore_state(r)
        })?;
        read_section(snap, sections::BPRED, "branch-predictor", |r| {
            self.bpred.restore_state(r)
        })?;
        read_section(snap, sections::MEM, "memory", |r| self.mem.restore_state(r))?;
        read_section(snap, sections::MEMDEP, "memdep", |r| {
            self.store_sets.restore_state(r)
        })?;
        read_section(snap, sections::SCHED, "scheduler", |r| {
            self.engine.restore_state(r)?;
            self.bank_pred.restore_state(r)
        })?;
        read_section(snap, sections::RENAME, "rename", |r| {
            self.rename.restore_state(r)?;
            self.sched.restore_state(r)
        })?;

        // Per-cycle scratch is empty between ticks by construction; clear
        // it so a restore into a used simulator matches a fresh one.
        self.scratch_candidates.clear();
        self.scratch_woken.clear();
        self.scratch_squash.clear();
        self.pending_error = None;
        Ok(())
    }

    // The CORE section, in on-disk order.
    core_fields! {
        now, next_seq, rob, frontend, pred_metas, inflight, recovery, iq_used, lq_used,
        sq_used, store_ring, muldiv_free, fpdiv_free, issue_blocked_at, wrong_path_mode,
        pending_correct, fetch_stall_until, last_commit_at, deferred_wakes,
        recent_load_addrs, recent_load_idx, wp_rng, fault_plan, commit_ring,
        wakeup_bug_armed, wakeup_bug_fired, stats,
    }
}

/// Reads and verifies a snapshot file, mapping every failure to the
/// simulator's typed error space: a version stamp from another build is
/// [`SimError::SnapshotVersionMismatch`], everything else (damage,
/// identity mismatch, I/O) is [`SimError::SnapshotCorrupt`]. Corrupt
/// files are quarantined to `<path>.corrupt` by the read layer.
pub fn load_snapshot(path: &std::path::Path) -> Result<ss_snapshot::Snapshot, SimError> {
    ss_snapshot::read_verified(path).map_err(|e| match e {
        ss_snapshot::SnapshotError::VersionMismatch { found, expected } => {
            SimError::SnapshotVersionMismatch {
                path: path.display().to_string(),
                found,
                expected,
            }
        }
        other => SimError::SnapshotCorrupt {
            path: path.display().to_string(),
            reason: other.to_string(),
        },
    })
}
