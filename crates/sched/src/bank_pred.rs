//! A PC-indexed L1D bank predictor (Yoaz et al., ISCA 1999 — paper §2.2).
//!
//! Schedule Shifting taxes *every* second load of an issue group with one
//! wakeup cycle, whether or not the pair actually conflicts. Yoaz et al.
//! propose predicting the bank each load will access; with a prediction,
//! the shift can be applied only to pairs predicted to collide
//! ([`ShiftPolicy::Predicted`](ss_types::ShiftPolicy)). The predictor here
//! is a stride-aware variant of their bank-history scheme: a
//! direct-mapped table of the load's last bank, its per-instance bank
//! *stride*, and a 2-bit confidence counter — striding loads rotate
//! through banks, and a last-bank-only predictor would never become
//! confident on exactly the access patterns that conflict.

use ss_types::Pc;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    bank: u8,
    /// Bank delta between consecutive dynamic instances (mod the bank
    /// count; 8 banks assumed for the modulus).
    stride: u8,
    confidence: u8,
}

/// Bank count assumed by the stride arithmetic (the paper's L1D).
const BANKS: u8 = 8;

/// The bank predictor: last-bank-with-confidence, direct-mapped on PC.
#[derive(Debug, Clone)]
pub struct BankPredictor {
    entries: Vec<Entry>,
}

impl BankPredictor {
    /// Creates a predictor with `entries` entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32) -> Self {
        assert!(entries.is_power_of_two());
        BankPredictor {
            entries: vec![
                Entry {
                    bank: 0,
                    stride: 0,
                    confidence: 0
                };
                entries as usize
            ],
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.get() >> 2) as usize & (self.entries.len() - 1)
    }

    /// Predicts the bank of the *next* dynamic instance of the load at
    /// `pc`; `None` while not confident.
    pub fn predict(&self, pc: Pc) -> Option<u8> {
        let e = self.entries[self.index(pc)];
        (e.confidence >= 2).then_some((e.bank + e.stride) % BANKS)
    }

    /// Trains with the actual bank the load accessed.
    pub fn train(&mut self, pc: Pc, actual_bank: u8) {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let actual_bank = actual_bank % BANKS;
        let expected = (e.bank + e.stride) % BANKS;
        let new_stride = (actual_bank + BANKS - e.bank) % BANKS;
        if expected == actual_bank {
            e.confidence = (e.confidence + 1).min(3);
        } else if e.confidence == 0 {
            e.stride = new_stride;
            e.confidence = 1;
        } else {
            e.confidence -= 1;
        }
        e.bank = actual_bank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_is_unconfident() {
        let p = BankPredictor::new(2048);
        assert_eq!(p.predict(Pc::new(0x100)), None);
    }

    #[test]
    fn stable_bank_becomes_confident() {
        let mut p = BankPredictor::new(2048);
        let pc = Pc::new(0x100);
        // learning a constant bank takes a few trains (the cold entry
        // first guesses a bogus stride)
        for _ in 0..4 {
            p.train(pc, 3);
        }
        assert_eq!(p.predict(pc), Some(3));
        p.train(pc, 3);
        assert_eq!(p.predict(pc), Some(3), "still confident");
    }

    #[test]
    fn rotating_banks_are_predicted_via_stride() {
        // Stride-8 loads rotate +1 bank per instance; the predictor must
        // catch them (a last-bank-only scheme never would).
        let mut p = BankPredictor::new(2048);
        let pc = Pc::new(0x300);
        for i in 0..10u8 {
            p.train(pc, i % 8);
        }
        assert_eq!(p.predict(pc), Some(10 % 8));
        p.train(pc, 10 % 8);
        assert_eq!(p.predict(pc), Some(11 % 8));
    }

    #[test]
    fn stride_change_loses_confidence_then_relearns() {
        let mut p = BankPredictor::new(2048);
        let pc = Pc::new(0x200);
        for _ in 0..4 {
            p.train(pc, 5); // stride 0
        }
        assert_eq!(p.predict(pc), Some(5));
        // the load starts rotating banks
        p.train(pc, 6);
        p.train(pc, 7);
        assert_eq!(p.predict(pc), None, "confidence lost");
        p.train(pc, 0);
        p.train(pc, 1);
        p.train(pc, 2);
        assert_eq!(p.predict(pc), Some(3), "stride 1 relearned");
    }

    #[test]
    fn random_banks_never_confident() {
        let mut p = BankPredictor::new(2048);
        let pc = Pc::new(0x400);
        let banks = [3u8, 0, 5, 1, 7, 2, 0, 6, 4, 1, 3, 7, 2, 5];
        for &b in banks.iter().cycle().take(100) {
            p.train(pc, b);
        }
        assert_eq!(p.predict(pc), None);
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        let _ = BankPredictor::new(1000);
    }
}

ss_types::impl_persist!(Entry {
    bank,
    stride,
    confidence
});
ss_types::impl_persist_state!(BankPredictor { entries });
