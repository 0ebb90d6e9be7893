//! Memory-dependence prediction substrate: Store Sets (Chrysos & Emer,
//! ISCA 1998), sized per the paper's Table 1 (1K-entry SSIT / LFST).
//!
//! Independent memory µ-ops are allowed to issue out of order; loads
//! predicted to depend on an in-flight store wait for it. The predictor
//! learns from memory-order violations: when a load executes before an
//! older store to the same address, the two PCs are merged into one store
//! set, and future instances serialize.
//!
//! # Example
//!
//! ```
//! use ss_memdep::StoreSets;
//! use ss_types::{Pc, SeqNum};
//!
//! let mut ss = StoreSets::new(1024, 131_072);
//! // a violation between a load and a store teaches the predictor...
//! ss.on_violation(Pc::new(0x100), Pc::new(0x200));
//! // ...so the next instance of the store is tracked,
//! ss.on_store_dispatch(Pc::new(0x200), SeqNum::new(7));
//! // and the next instance of the load must wait for it.
//! assert_eq!(ss.load_dependence(Pc::new(0x100)), Some(SeqNum::new(7)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ss_types::{Pc, SeqNum};

/// A store-set identifier.
type Ssid = u16;

/// The Store Sets predictor: SSIT (PC → SSID) + LFST (SSID → last fetched
/// store).
#[derive(Debug, Clone)]
pub struct StoreSets {
    /// Store-set ID table, direct-mapped on PC.
    ssit: Vec<Option<Ssid>>,
    /// Last fetched store table, indexed by SSID.
    lfst: Vec<Option<SeqNum>>,
    /// Accesses since the last cyclic clear.
    accesses: u64,
    /// Cyclic-clearing interval (accesses); keeps stale sets from
    /// serializing forever.
    clear_interval: u64,
}

impl StoreSets {
    /// Creates a predictor with `entries` SSIT/LFST entries (power of two)
    /// and the given cyclic-clearing interval.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32, clear_interval: u64) -> Self {
        assert!(entries.is_power_of_two());
        StoreSets {
            ssit: vec![None; entries as usize],
            lfst: vec![None; entries as usize],
            accesses: 0,
            clear_interval,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.get() >> 2) as usize & (self.ssit.len() - 1)
    }

    fn tick(&mut self) {
        self.accesses += 1;
        if self.clear_interval > 0 && self.accesses.is_multiple_of(self.clear_interval) {
            self.ssit.fill(None);
            self.lfst.fill(None);
        }
    }

    /// Called when a store dispatches: returns the store it must wait for
    /// (the previous store in its set, enforcing in-order stores within a
    /// set) and records this store as the set's last fetched store.
    pub fn on_store_dispatch(&mut self, pc: Pc, seq: SeqNum) -> Option<SeqNum> {
        self.tick();
        let idx = self.index(pc);
        let ssid = self.ssit[idx]?;
        let prev = self.lfst[ssid as usize];
        self.lfst[ssid as usize] = Some(seq);
        prev
    }

    /// Called when a load dispatches: returns the store it is predicted to
    /// depend on, if any.
    pub fn load_dependence(&mut self, pc: Pc) -> Option<SeqNum> {
        self.tick();
        let idx = self.index(pc);
        let ssid = self.ssit[idx]?;
        self.lfst[ssid as usize]
    }

    /// Called when a store executes or is squashed: clears its LFST slot
    /// if it is still the set's last fetched store (so later loads do not
    /// wait on a completed store).
    pub fn on_store_complete(&mut self, pc: Pc, seq: SeqNum) {
        let idx = self.index(pc);
        if let Some(ssid) = self.ssit[idx] {
            if self.lfst[ssid as usize] == Some(seq) {
                self.lfst[ssid as usize] = None;
            }
        }
    }

    /// Trains on a memory-order violation between `load_pc` and the older
    /// `store_pc`, merging their store sets (Chrysos & Emer's assignment
    /// rules).
    pub fn on_violation(&mut self, load_pc: Pc, store_pc: Pc) {
        let li = self.index(load_pc);
        let si = self.index(store_pc);
        match (self.ssit[li], self.ssit[si]) {
            (None, None) => {
                // Create a new set named after the store's index.
                let ssid = (si & 0xFFFF) as Ssid;
                self.ssit[li] = Some(ssid);
                self.ssit[si] = Some(ssid);
            }
            (Some(l), None) => self.ssit[si] = Some(l),
            (None, Some(s)) => self.ssit[li] = Some(s),
            (Some(l), Some(s)) => {
                // Merge: both adopt the smaller SSID (declared winner).
                let w = l.min(s);
                self.ssit[li] = Some(w);
                self.ssit[si] = Some(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ss() -> StoreSets {
        StoreSets::new(1024, 0) // no clearing in unit tests
    }

    #[test]
    fn cold_predictor_predicts_independence() {
        let mut s = ss();
        assert_eq!(s.load_dependence(Pc::new(0x100)), None);
        assert_eq!(s.on_store_dispatch(Pc::new(0x200), SeqNum::new(1)), None);
    }

    #[test]
    fn violation_creates_dependence() {
        let mut s = ss();
        s.on_violation(Pc::new(0x100), Pc::new(0x200));
        assert_eq!(s.on_store_dispatch(Pc::new(0x200), SeqNum::new(5)), None);
        assert_eq!(s.load_dependence(Pc::new(0x100)), Some(SeqNum::new(5)));
    }

    #[test]
    fn store_completion_clears_lfst() {
        let mut s = ss();
        s.on_violation(Pc::new(0x100), Pc::new(0x200));
        s.on_store_dispatch(Pc::new(0x200), SeqNum::new(5));
        s.on_store_complete(Pc::new(0x200), SeqNum::new(5));
        assert_eq!(
            s.load_dependence(Pc::new(0x100)),
            None,
            "completed store released"
        );
    }

    #[test]
    fn stale_completion_does_not_clear_newer_store() {
        let mut s = ss();
        s.on_violation(Pc::new(0x100), Pc::new(0x200));
        s.on_store_dispatch(Pc::new(0x200), SeqNum::new(5));
        s.on_store_dispatch(Pc::new(0x200), SeqNum::new(9));
        s.on_store_complete(Pc::new(0x200), SeqNum::new(5)); // old instance
        assert_eq!(s.load_dependence(Pc::new(0x100)), Some(SeqNum::new(9)));
    }

    #[test]
    fn stores_in_one_set_serialize() {
        let mut s = ss();
        // two stores merged into one set via two violations with one load
        s.on_violation(Pc::new(0x100), Pc::new(0x200));
        s.on_violation(Pc::new(0x100), Pc::new(0x300));
        let first = s.on_store_dispatch(Pc::new(0x200), SeqNum::new(5));
        assert_eq!(first, None);
        let second = s.on_store_dispatch(Pc::new(0x300), SeqNum::new(7));
        assert_eq!(second, Some(SeqNum::new(5)), "same-set stores are ordered");
    }

    #[test]
    fn merge_keeps_sets_consistent() {
        let mut s = ss();
        s.on_violation(Pc::new(0x100), Pc::new(0x200)); // set A
        s.on_violation(Pc::new(0x104), Pc::new(0x204)); // set B
                                                        // now a violation linking the two loads' stores
        s.on_violation(Pc::new(0x100), Pc::new(0x204)); // merge
        s.on_store_dispatch(Pc::new(0x204), SeqNum::new(11));
        assert_eq!(
            s.load_dependence(Pc::new(0x100)),
            Some(SeqNum::new(11)),
            "merged set shares the LFST"
        );
    }

    #[test]
    fn cyclic_clearing_forgets() {
        let mut s = StoreSets::new(1024, 4);
        s.on_violation(Pc::new(0x100), Pc::new(0x200));
        s.on_store_dispatch(Pc::new(0x200), SeqNum::new(1)); // access 1
        let _ = s.load_dependence(Pc::new(0x100)); // access 2
        let _ = s.load_dependence(Pc::new(0x100)); // access 3
        let _ = s.load_dependence(Pc::new(0x100)); // access 4 → clear
        assert_eq!(
            s.load_dependence(Pc::new(0x100)),
            None,
            "cleared after interval"
        );
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        let _ = StoreSets::new(1000, 0);
    }
}

ss_types::impl_persist_state!(StoreSets {
    ssit,
    lfst,
    accesses
});
