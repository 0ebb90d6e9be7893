//! The per-instruction hit/miss filter (paper §5.2).
//!
//! A 2K-entry direct-mapped array of 2-bit saturating counters with one
//! *silencing* bit each — 768 bytes of storage, exactly the paper's
//! budget. A counter is incremented on a hit and decremented on a miss,
//! **at commit time** (off the critical path). When a counter leaves a
//! saturated state (3 → 2 after a miss, or 0 → 1 after a hit) its entry is
//! silenced: the load's behaviour is not stable, so the decision is
//! deferred to the global counter (and criticality, in `_Crit`). Silenced
//! counters are not updated. All silence bits reset every 10 000 committed
//! loads so behaviour changes can be re-learned.

use ss_types::Pc;

/// What the filter says about a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterPrediction {
    /// The load has always hit: wake dependents speculatively.
    SureHit,
    /// The load has always missed: schedule dependents conservatively.
    SureMiss,
    /// Behaviour is unstable (entry silenced): defer to the fallback.
    Unstable,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    ctr: u8,
    silenced: bool,
}

/// The per-PC hit/miss filter.
#[derive(Debug, Clone)]
pub struct HitMissFilter {
    entries: Vec<Entry>,
    /// Committed loads since the last silence reset.
    since_reset: u64,
    reset_interval: u64,
    /// Disable the silencing bit (AB1 ablation): plain 2-bit counters
    /// whose MSB predicts, always updated.
    use_silencing: bool,
}

impl HitMissFilter {
    /// Creates a filter with `entries` entries (power of two) and the
    /// given silence-reset interval in committed loads.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32, reset_interval: u64, use_silencing: bool) -> Self {
        assert!(entries.is_power_of_two());
        HitMissFilter {
            // Initialize to saturated-hit: unseen loads behave like the
            // Always-Hit default until proven otherwise.
            entries: vec![
                Entry {
                    ctr: 3,
                    silenced: false
                };
                entries as usize
            ],
            since_reset: 0,
            reset_interval,
            use_silencing,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.get() >> 2) as usize & (self.entries.len() - 1)
    }

    /// Predicts the load at `pc` (read at issue; never updates state).
    pub fn predict(&self, pc: Pc) -> FilterPrediction {
        let e = self.entries[self.index(pc)];
        if self.use_silencing {
            if e.silenced {
                FilterPrediction::Unstable
            } else if e.ctr >= 2 {
                FilterPrediction::SureHit
            } else {
                FilterPrediction::SureMiss
            }
        } else if e.ctr >= 2 {
            FilterPrediction::SureHit
        } else {
            FilterPrediction::SureMiss
        }
    }

    /// Trains on a committed load's actual L1D outcome.
    pub fn on_load_commit(&mut self, pc: Pc, hit: bool) {
        self.since_reset += 1;
        if self.reset_interval > 0 && self.since_reset >= self.reset_interval {
            self.since_reset = 0;
            for e in &mut self.entries {
                e.silenced = false;
            }
        }
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if self.use_silencing && e.silenced {
            return; // silenced counters are not updated
        }
        let was_saturated = e.ctr == 0 || e.ctr == 3;
        let new = if hit {
            (e.ctr + 1).min(3)
        } else {
            e.ctr.saturating_sub(1)
        };
        let now_transient = new == 1 || new == 2;
        e.ctr = new;
        if self.use_silencing && was_saturated && now_transient {
            // Leaving a saturated state: the load's behaviour deviated.
            // Silence the entry; after the next silence reset the counter
            // resumes walking, so a persistent behaviour change reaches
            // the opposite saturated state within a few resets.
            e.silenced = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> HitMissFilter {
        HitMissFilter::new(2048, 10_000, true)
    }

    #[test]
    fn storage_budget_matches_paper() {
        // 2K entries x (2-bit counter + 1 silence bit) = 6 Kbit = 768 B
        let bits = 2048 * 3;
        assert_eq!(bits / 8, 768);
    }

    #[test]
    fn unseen_loads_are_sure_hits() {
        assert_eq!(filter().predict(Pc::new(0x1234)), FilterPrediction::SureHit);
    }

    #[test]
    fn consistent_misser_becomes_sure_miss() {
        let mut f = filter();
        let pc = Pc::new(0x100);
        // first miss: 3 → silenced (was saturated-hit by init)
        f.on_load_commit(pc, false);
        assert_eq!(f.predict(pc), FilterPrediction::Unstable);
        // silence-bit reset re-enables learning
        let mut f2 = HitMissFilter::new(2048, 2, true);
        f2.on_load_commit(pc, false); // silenced, since_reset=1
        f2.on_load_commit(pc, false); // reset fires first → unsilenced → 3→2? saturated→transient → silenced again
                                      // after several reset cycles the counter walks down to sure-miss
        let mut f3 = HitMissFilter::new(2048, 1, true); // reset every load
        for _ in 0..8 {
            f3.on_load_commit(pc, false);
        }
        assert_eq!(f3.predict(pc), FilterPrediction::SureMiss);
    }

    #[test]
    fn stable_hitter_stays_sure_hit() {
        let mut f = filter();
        let pc = Pc::new(0x200);
        for _ in 0..100 {
            f.on_load_commit(pc, true);
        }
        assert_eq!(f.predict(pc), FilterPrediction::SureHit);
    }

    #[test]
    fn deviation_silences_the_entry() {
        let mut f = filter();
        let pc = Pc::new(0x300);
        for _ in 0..10 {
            f.on_load_commit(pc, true);
        }
        f.on_load_commit(pc, false); // 3 → transient: silence
        assert_eq!(f.predict(pc), FilterPrediction::Unstable);
        // updates are ignored while silenced
        for _ in 0..10 {
            f.on_load_commit(pc, true);
        }
        assert_eq!(f.predict(pc), FilterPrediction::Unstable);
    }

    #[test]
    fn silence_reset_restores_bias() {
        let mut f = HitMissFilter::new(2048, 5, true);
        let pc = Pc::new(0x400);
        f.on_load_commit(pc, true);
        f.on_load_commit(pc, false); // silenced; counter keeps 3
        assert_eq!(f.predict(pc), FilterPrediction::Unstable);
        // three more commits trigger the interval-5 reset
        for _ in 0..3 {
            f.on_load_commit(Pc::new(0x999), true);
        }
        assert_eq!(
            f.predict(pc),
            FilterPrediction::SureHit,
            "bias restored after reset"
        );
    }

    #[test]
    fn no_silence_ablation_tracks_msb() {
        let mut f = HitMissFilter::new(2048, 10_000, false);
        let pc = Pc::new(0x500);
        f.on_load_commit(pc, false);
        f.on_load_commit(pc, false);
        assert_eq!(f.predict(pc), FilterPrediction::SureMiss);
        f.on_load_commit(pc, true);
        f.on_load_commit(pc, true);
        assert_eq!(f.predict(pc), FilterPrediction::SureHit);
        // never Unstable without silencing
        f.on_load_commit(pc, false);
        assert_ne!(f.predict(pc), FilterPrediction::Unstable);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut f = filter();
        let miss_pc = Pc::new(0x600);
        let hit_pc = Pc::new(0x604);
        for _ in 0..4 {
            f.on_load_commit(hit_pc, true);
            f.on_load_commit(miss_pc, false);
        }
        assert_eq!(f.predict(hit_pc), FilterPrediction::SureHit);
        assert_ne!(f.predict(miss_pc), FilterPrediction::SureHit);
    }
}

ss_types::impl_persist!(Entry { ctr, silenced });
ss_types::impl_persist_state!(HitMissFilter {
    entries,
    since_reset
});
