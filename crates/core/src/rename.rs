//! Register renaming: per-class rename maps, free lists, and the
//! physical-register scoreboard carrying wakeup and availability times.
//!
//! Two timestamps exist per physical register:
//!
//! * `wake_at` — the earliest cycle a dependent may be **selected** by the
//!   scheduler. Set speculatively when the producer issues; reset to
//!   "never" when the producer is squashed.
//! * `avail_at` — ground truth: a consumer whose execution starts at or
//!   after this cycle reads a valid operand over the bypass network.
//!   Execute-stage verification compares against this; a consumer that
//!   arrives early is a *schedule misspeculation* and triggers a replay.
//!
//! The scoreboard doubles as the event-driven scheduler's *reverse
//! dependency index*: a waiting consumer parks itself on the watch list
//! of every source register whose `wake_at` lies in the future, and any
//! mutation of a register's wake time broadcasts the parked `(seq,
//! epoch)` records into the [`RenameUnit`]'s woken buffer — the software
//! analogue of the tag-broadcast wakeup the paper's scheduler performs
//! in hardware (§3). The pipeline drains the buffer at the top of its
//! issue stage and re-evaluates each woken µ-op; records whose epoch is
//! stale (the µ-op re-registered or was flushed since parking) are
//! discarded there.

use ss_types::{ArchReg, Cycle, PhysReg, RegClass, ReplayCause, SeqNum};

/// A physical register qualified with its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysRef {
    /// Which register file.
    pub class: RegClass,
    /// Register index within the file.
    pub reg: PhysReg,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RegInfo {
    wake_at: Cycle,
    avail_at: Cycle,
    /// Why this register's value arrived later than speculated (drives
    /// replay-cause attribution for consumers).
    late_cause: Option<ReplayCause>,
}

/// Rename state for one register class.
#[derive(Debug, Clone)]
struct ClassState {
    map: [PhysReg; ArchReg::COUNT],
    free: Vec<PhysReg>,
    info: Vec<RegInfo>,
    /// Per-register consumer watch lists: waiting µ-ops parked until this
    /// register's wake time changes.
    watchers: Vec<Vec<(SeqNum, u32)>>,
}

/// The rename unit plus physical-register scoreboard for both files.
#[derive(Debug, Clone)]
pub struct RenameUnit {
    classes: [ClassState; 2],
    /// Consumers released by a wake-time change since the last drain.
    woken: Vec<(SeqNum, u32)>,
}

impl RenameUnit {
    /// Creates the unit with `int_prf`/`fp_prf` physical registers. The
    /// first 32 of each file back the initial architectural state and are
    /// born ready.
    pub fn new(int_prf: u32, fp_prf: u32) -> Self {
        let mk = |n: u32| {
            let ready = RegInfo {
                wake_at: Cycle::ZERO,
                avail_at: Cycle::ZERO,
                late_cause: None,
            };
            ClassState {
                map: std::array::from_fn(|i| PhysReg::new(i as u16)),
                free: (ArchReg::COUNT as u16..n as u16)
                    .rev()
                    .map(PhysReg::new)
                    .collect(),
                info: vec![ready; n as usize],
                watchers: vec![Vec::new(); n as usize],
            }
        };
        RenameUnit {
            classes: [mk(int_prf), mk(fp_prf)],
            woken: Vec::new(),
        }
    }

    fn class(&self, c: RegClass) -> &ClassState {
        &self.classes[c.index()]
    }

    fn class_mut(&mut self, c: RegClass) -> &mut ClassState {
        &mut self.classes[c.index()]
    }

    /// Current mapping of an architectural source.
    pub fn lookup(&self, class: RegClass, reg: ArchReg) -> PhysRef {
        PhysRef {
            class,
            reg: self.class(class).map[reg.index()],
        }
    }

    /// Renames a destination: allocates a fresh physical register (born
    /// not-ready) and returns `(new, previous)` — the previous mapping is
    /// freed when the µ-op commits, or restored if it squashes.
    pub fn rename_dst(&mut self, class: RegClass, reg: ArchReg) -> Option<(PhysRef, PhysRef)> {
        let st = self.class_mut(class);
        let new = st.free.pop()?;
        let prev = st.map[reg.index()];
        st.map[reg.index()] = new;
        st.info[new.index()] = RegInfo {
            wake_at: Cycle::NEVER,
            avail_at: Cycle::NEVER,
            late_cause: None,
        };
        // Any watch records left on the recycled register belong to
        // consumers that re-registered or were flushed long ago (their
        // epochs are stale); a fresh register starts with a clean list.
        st.watchers[new.index()].clear();
        Some((PhysRef { class, reg: new }, PhysRef { class, reg: prev }))
    }

    /// Free physical registers remaining in a class.
    pub fn free_count(&self, class: RegClass) -> usize {
        self.class(class).free.len()
    }

    /// Returns `prev` to the free list (commit of the overwriting µ-op).
    pub fn release(&mut self, prev: PhysRef) {
        self.class_mut(prev.class).free.push(prev.reg);
    }

    /// Undoes a rename during a squash walk (youngest-first): restores the
    /// previous mapping and frees the squashed µ-op's register.
    pub fn unwind(&mut self, arch: ArchReg, new: PhysRef, prev: PhysRef) {
        let st = self.class_mut(new.class);
        debug_assert_eq!(
            st.map[arch.index()],
            new.reg,
            "unwind must be youngest-first"
        );
        st.map[arch.index()] = prev.reg;
        st.free.push(new.reg);
    }

    /// Earliest cycle a consumer of `r` may be selected.
    pub fn wake_at(&self, r: PhysRef) -> Cycle {
        self.class(r.class).info[r.reg.index()].wake_at
    }

    /// Ground-truth operand availability of `r`.
    pub fn avail_at(&self, r: PhysRef) -> Cycle {
        self.class(r.class).info[r.reg.index()].avail_at
    }

    /// Why `r` arrived later than speculated, if it did.
    pub fn late_cause(&self, r: PhysRef) -> Option<ReplayCause> {
        self.class(r.class).info[r.reg.index()].late_cause
    }

    /// Sets the speculative wakeup time (producer issue), broadcasting
    /// the change to any consumers parked on `r`'s watch list.
    pub fn set_wake(&mut self, r: PhysRef, wake_at: Cycle) {
        let st = &mut self.classes[r.class.index()];
        st.info[r.reg.index()].wake_at = wake_at;
        let w = &mut st.watchers[r.reg.index()];
        if !w.is_empty() {
            self.woken.append(w);
        }
    }

    /// Sets the ground-truth availability (producer execute), optionally
    /// recording why it is later than the speculative schedule assumed.
    pub fn set_avail(&mut self, r: PhysRef, avail_at: Cycle, late_cause: Option<ReplayCause>) {
        let info = &mut self.class_mut(r.class).info[r.reg.index()];
        info.avail_at = avail_at;
        info.late_cause = late_cause;
    }

    /// Clears all timing state of `r` back to not-ready (producer
    /// squashed; it will re-issue later). Watchers are broadcast like any
    /// other wake-time change: a parked consumer must re-evaluate, since
    /// the squashed producer's re-issue may pick an *earlier* wake time
    /// than the one the consumer was parked under.
    pub fn reset_timing(&mut self, r: PhysRef) {
        let st = &mut self.classes[r.class.index()];
        st.info[r.reg.index()] = RegInfo {
            wake_at: Cycle::NEVER,
            avail_at: Cycle::NEVER,
            late_cause: None,
        };
        let w = &mut st.watchers[r.reg.index()];
        if !w.is_empty() {
            self.woken.append(w);
        }
    }

    /// Parks waiting µ-op `seq` (registration `epoch`) on `r`'s watch
    /// list; it is broadcast into the woken buffer on the next wake-time
    /// change of `r`.
    pub fn watch(&mut self, r: PhysRef, seq: SeqNum, epoch: u32) {
        self.classes[r.class.index()].watchers[r.reg.index()].push((seq, epoch));
    }

    /// Moves every `(seq, epoch)` record broadcast since the last drain
    /// into `out` (the internal buffer is left empty).
    pub fn drain_woken(&mut self, out: &mut Vec<(SeqNum, u32)>) {
        out.append(&mut self.woken);
    }

    /// Whether any watcher broadcast is pending.
    pub fn has_woken(&self) -> bool {
        !self.woken.is_empty()
    }

    /// Verifies physical-register conservation: for each file, the free
    /// list, the rename map, and the previous mappings held by in-flight
    /// µ-ops (`held_*`, the `prev` of every renamed ROB entry) must
    /// exactly partition the register file. A register appearing twice is
    /// a double-free; one appearing nowhere has leaked.
    pub fn audit(&self, held_int: &[PhysReg], held_fp: &[PhysReg]) -> Result<(), String> {
        for (name, st, held) in [
            ("int", &self.classes[RegClass::Int.index()], held_int),
            ("fp", &self.classes[RegClass::Float.index()], held_fp),
        ] {
            let mut count = vec![0u32; st.info.len()];
            for &r in st.free.iter().chain(st.map.iter()).chain(held.iter()) {
                count[r.index()] += 1;
            }
            if let Some(reg) = count.iter().position(|&c| c == 0) {
                return Err(format!(
                    "{name} p{reg} leaked: in neither free list, map, nor any ROB entry"
                ));
            }
            if let Some(reg) = count.iter().position(|&c| c > 1) {
                return Err(format!(
                    "{name} p{reg} appears {} times across free list, map, and ROB holds",
                    count[reg]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> RenameUnit {
        RenameUnit::new(256, 256)
    }

    #[test]
    fn initial_state_maps_identity_and_ready() {
        let u = unit();
        let r = u.lookup(RegClass::Int, ArchReg::new(5));
        assert_eq!(r.reg, PhysReg::new(5));
        assert_eq!(u.avail_at(r), Cycle::ZERO);
        assert_eq!(u.wake_at(r), Cycle::ZERO);
        assert_eq!(u.free_count(RegClass::Int), 256 - 32);
    }

    #[test]
    fn rename_allocates_fresh_not_ready() {
        let mut u = unit();
        let (new, prev) = u.rename_dst(RegClass::Int, ArchReg::new(3)).unwrap();
        assert_eq!(prev.reg, PhysReg::new(3));
        assert_ne!(new.reg, prev.reg);
        assert_eq!(u.avail_at(new), Cycle::NEVER);
        assert_eq!(u.lookup(RegClass::Int, ArchReg::new(3)), new);
    }

    #[test]
    fn chained_renames_and_release() {
        let mut u = unit();
        let (n1, _p1) = u.rename_dst(RegClass::Int, ArchReg::new(0)).unwrap();
        let (n2, p2) = u.rename_dst(RegClass::Int, ArchReg::new(0)).unwrap();
        assert_eq!(p2, n1, "second rename's previous is the first's new");
        let before = u.free_count(RegClass::Int);
        u.release(p2); // first µ-op's mapping freed at second's commit
        assert_eq!(u.free_count(RegClass::Int), before + 1);
        assert_eq!(u.lookup(RegClass::Int, ArchReg::new(0)), n2);
    }

    #[test]
    fn unwind_restores_previous_mapping() {
        let mut u = unit();
        let (n1, p1) = u.rename_dst(RegClass::Int, ArchReg::new(7)).unwrap();
        let (n2, p2) = u.rename_dst(RegClass::Int, ArchReg::new(7)).unwrap();
        // squash youngest-first
        u.unwind(ArchReg::new(7), n2, p2);
        assert_eq!(u.lookup(RegClass::Int, ArchReg::new(7)), n1);
        u.unwind(ArchReg::new(7), n1, p1);
        assert_eq!(
            u.lookup(RegClass::Int, ArchReg::new(7)).reg,
            PhysReg::new(7)
        );
    }

    #[test]
    fn free_list_exhaustion_returns_none() {
        let mut u = RenameUnit::new(34, 34);
        assert!(u.rename_dst(RegClass::Int, ArchReg::new(0)).is_some());
        assert!(u.rename_dst(RegClass::Int, ArchReg::new(1)).is_some());
        assert!(u.rename_dst(RegClass::Int, ArchReg::new(2)).is_none());
        // FP file independent
        assert!(u.rename_dst(RegClass::Float, ArchReg::new(0)).is_some());
    }

    #[test]
    fn audit_tracks_conservation() {
        let mut u = unit();
        assert!(u.audit(&[], &[]).is_ok(), "fresh unit conserves registers");
        let (_, p1) = u.rename_dst(RegClass::Int, ArchReg::new(0)).unwrap();
        let (_, p2) = u.rename_dst(RegClass::Int, ArchReg::new(1)).unwrap();
        // prevs held by in-flight µ-ops: conserved only when reported
        assert!(u.audit(&[p1.reg, p2.reg], &[]).is_ok());
        let err = u.audit(&[p1.reg], &[]).unwrap_err();
        assert!(
            err.contains("leaked"),
            "missing hold must read as a leak: {err}"
        );
        // double-free: release a register that is also still held
        u.release(p1);
        let err = u.audit(&[p1.reg, p2.reg], &[]).unwrap_err();
        assert!(
            err.contains("times"),
            "double count must be reported: {err}"
        );
        assert!(u.audit(&[p2.reg], &[]).is_ok());
    }

    #[test]
    fn watchers_broadcast_on_wake_changes() {
        let mut u = unit();
        let (r, _) = u.rename_dst(RegClass::Int, ArchReg::new(2)).unwrap();
        u.watch(r, SeqNum::new(11), 3);
        u.watch(r, SeqNum::new(12), 5);
        assert!(!u.has_woken());
        u.set_wake(r, Cycle::new(20));
        assert!(u.has_woken());
        let mut out = Vec::new();
        u.drain_woken(&mut out);
        assert_eq!(out, vec![(SeqNum::new(11), 3), (SeqNum::new(12), 5)]);
        assert!(!u.has_woken(), "drain empties the buffer");
        // The list was consumed: a second change broadcasts nothing.
        u.set_wake(r, Cycle::new(25));
        assert!(!u.has_woken());
        // reset_timing broadcasts too (squash-then-earlier-reissue path).
        u.watch(r, SeqNum::new(13), 1);
        u.reset_timing(r);
        out.clear();
        u.drain_woken(&mut out);
        assert_eq!(out, vec![(SeqNum::new(13), 1)]);
    }

    #[test]
    fn recycled_register_starts_with_clean_watch_list() {
        let mut u = unit();
        let (r, _) = u.rename_dst(RegClass::Int, ArchReg::new(4)).unwrap();
        u.watch(r, SeqNum::new(1), 1);
        // Free it (as the overwriting µ-op's commit would), then drive
        // allocations until the same register comes back around.
        u.release(r);
        let mut back = None;
        for _ in 0..256 {
            let (n, _) = u.rename_dst(RegClass::Int, ArchReg::new(5)).unwrap();
            u.release(n);
            if n == r {
                back = Some(n);
                break;
            }
        }
        let r2 = back.expect("register must recycle");
        u.set_wake(r2, Cycle::new(9));
        assert!(!u.has_woken(), "stale watcher must not survive recycling");
    }

    #[test]
    fn timing_set_and_reset() {
        let mut u = unit();
        let (r, _) = u.rename_dst(RegClass::Float, ArchReg::new(1)).unwrap();
        u.set_wake(r, Cycle::new(10));
        u.set_avail(r, Cycle::new(19), Some(ReplayCause::BankConflict));
        assert_eq!(u.wake_at(r), Cycle::new(10));
        assert_eq!(u.avail_at(r), Cycle::new(19));
        assert_eq!(u.late_cause(r), Some(ReplayCause::BankConflict));
        u.reset_timing(r);
        assert_eq!(u.avail_at(r), Cycle::NEVER);
        assert_eq!(u.late_cause(r), None);
    }
}

ss_types::impl_persist!(PhysRef { class, reg });
ss_types::impl_persist!(RegInfo {
    wake_at,
    avail_at,
    late_cause
});
ss_types::impl_persist!(ClassState {
    map,
    free,
    info,
    watchers
});
ss_types::impl_persist_state!(RenameUnit { classes, woken });
