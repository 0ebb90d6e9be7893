//! A plain bimodal (per-PC 2-bit counter) direction predictor, used as the
//! AB3 ablation reference against TAGE.

use ss_types::Pc;

/// Bimodal predictor: a direct-mapped table of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
}

/// Metadata for the (trivial) bimodal update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimodalMeta {
    index: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `1 << log_entries` counters.
    pub fn new(log_entries: u32) -> Self {
        Bimodal {
            counters: vec![2; 1 << log_entries],
        }
    }

    fn index(&self, pc: Pc) -> u32 {
        ((pc.get() >> 2) as u32) & ((self.counters.len() - 1) as u32)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: Pc) -> (bool, BimodalMeta) {
        let index = self.index(pc);
        (self.counters[index as usize] >= 2, BimodalMeta { index })
    }

    /// Trains with the resolved outcome.
    pub fn update(&mut self, taken: bool, meta: &BimodalMeta) {
        let c = &mut self.counters[meta.index as usize];
        *c = if taken {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_bias_quickly() {
        let mut b = Bimodal::new(12);
        let pc = Pc::new(0x1000);
        for _ in 0..4 {
            let (_, m) = b.predict(pc);
            b.update(false, &m);
        }
        assert!(!b.predict(pc).0);
        for _ in 0..4 {
            let (_, m) = b.predict(pc);
            b.update(true, &m);
        }
        assert!(b.predict(pc).0);
    }

    #[test]
    fn cannot_learn_alternation_better_than_chance() {
        let mut b = Bimodal::new(12);
        let pc = Pc::new(0x2000);
        let mut wrong = 0;
        for i in 0..1000 {
            let (p, m) = b.predict(pc);
            let out = i % 2 == 0;
            if p != out {
                wrong += 1;
            }
            b.update(out, &m);
        }
        assert!(
            wrong >= 400,
            "bimodal must not learn T/N alternation, wrong={wrong}"
        );
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut b = Bimodal::new(12);
        let (p1, m1) = b.predict(Pc::new(0x100));
        let _ = p1;
        for _ in 0..4 {
            b.update(false, &m1);
        }
        assert!(!b.predict(Pc::new(0x100)).0);
        assert!(b.predict(Pc::new(0x104)).0, "neighbouring PC unaffected");
    }
}

ss_types::impl_persist!(BimodalMeta { index });
ss_types::impl_persist_state!(Bimodal { counters });
