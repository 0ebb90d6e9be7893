//! The TAGE conditional-branch direction predictor (Seznec & Michaud,
//! JILP 2006) — the paper's Table 1 predictor: a bimodal base plus 12
//! partially-tagged components indexed with geometrically-increasing
//! history lengths (4 … 640), ~15K entries total.

use crate::history::{GlobalHistory, HistoryCheckpoint};
use ss_types::{Pc, PredictorConfig};

/// Maximum tagged components supported (matches `history::MAX_FOLDS / 3`).
const MAX_COMPONENTS: usize = 16;

/// One tagged-component entry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit prediction counter, −4..=3; ≥ 0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter.
    u: u8,
}

/// Prediction metadata carried by the pipeline from fetch to retire so the
/// update uses the indices/tags computed with fetch-time history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TageMeta {
    indices: [u32; MAX_COMPONENTS],
    tags: [u16; MAX_COMPONENTS],
    base_index: u32,
    /// Providing tagged component, if any.
    provider: Option<u8>,
    /// Next-longest matching component (alt provider), if any.
    alt: Option<u8>,
    provider_pred: bool,
    alt_pred: bool,
    /// The final prediction returned.
    pred: bool,
    /// Whether the provider entry looked newly allocated (weak and
    /// useless).
    provider_new: bool,
}

/// The TAGE predictor with its embedded global history.
#[derive(Debug, Clone)]
pub struct Tage {
    base: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    hist: GlobalHistory,
    lengths: Vec<usize>,
    index_bits: u32,
    tag_bits: u32,
    use_alt_on_na: i8,
    tick: u64,
    lfsr: u32,
}

/// Computes the geometric history-length series `L(i)`.
pub fn geometric_lengths(n: u32, min: u32, max: u32) -> Vec<usize> {
    assert!(n >= 2 && min >= 1 && max > min);
    let ratio = (max as f64 / min as f64).powf(1.0 / (n as f64 - 1.0));
    let mut out = Vec::with_capacity(n as usize);
    let mut prev = 0usize;
    for i in 0..n {
        let mut l = (min as f64 * ratio.powi(i as i32)).round() as usize;
        if l <= prev {
            l = prev + 1; // keep strictly increasing
        }
        out.push(l);
        prev = l;
    }
    out
}

impl Tage {
    /// Builds TAGE from the machine's [`PredictorConfig`].
    pub fn new(cfg: &PredictorConfig) -> Self {
        let lengths = geometric_lengths(
            cfg.tage_tagged_components,
            cfg.tage_min_history,
            cfg.tage_max_history,
        );
        assert!(lengths.len() <= MAX_COMPONENTS);
        let hist = GlobalHistory::new(
            &lengths,
            cfg.tage_log_tagged_entries as usize,
            cfg.tage_tag_bits as usize,
        );
        Tage {
            base: vec![2; 1 << cfg.tage_log_base_entries], // weakly taken
            tables: vec![
                vec![TageEntry::default(); 1 << cfg.tage_log_tagged_entries];
                lengths.len()
            ],
            hist,
            lengths,
            index_bits: cfg.tage_log_tagged_entries,
            tag_bits: cfg.tage_tag_bits,
            use_alt_on_na: 0,
            tick: 0,
            lfsr: 0xACE1,
        }
    }

    fn index(&self, pc: Pc, c: usize) -> u32 {
        let mask = (1u32 << self.index_bits) - 1;
        let pc_bits = (pc.get() >> 2) as u32;
        let path = if self.lengths[c] >= 16 {
            self.hist.path()
        } else {
            0
        };
        (pc_bits ^ (pc_bits >> self.index_bits) ^ self.hist.index_fold(c) ^ (path >> (c & 3)))
            & mask
    }

    fn tag(&self, pc: Pc, c: usize) -> u16 {
        let mask = (1u32 << self.tag_bits) - 1;
        let (t1, t2) = self.hist.tag_folds(c);
        let pc_bits = (pc.get() >> 2) as u32;
        ((pc_bits ^ t1 ^ (t2 << 1)) & mask) as u16
    }

    fn base_index(&self, pc: Pc) -> u32 {
        ((pc.get() >> 2) as u32) & ((self.base.len() - 1) as u32)
    }

    /// Predicts the direction of the conditional branch at `pc` and
    /// returns the metadata needed for [`Tage::update`].
    pub fn predict(&mut self, pc: Pc) -> (bool, TageMeta) {
        let n = self.lengths.len();
        let mut meta = TageMeta {
            indices: [0; MAX_COMPONENTS],
            tags: [0; MAX_COMPONENTS],
            base_index: self.base_index(pc),
            provider: None,
            alt: None,
            provider_pred: false,
            alt_pred: false,
            pred: false,
            provider_new: false,
        };
        for c in 0..n {
            meta.indices[c] = self.index(pc, c);
            meta.tags[c] = self.tag(pc, c);
        }
        // longest-history match provides; next match is the alternate
        for c in (0..n).rev() {
            if self.tables[c][meta.indices[c] as usize].tag == meta.tags[c] {
                if meta.provider.is_none() {
                    meta.provider = Some(c as u8);
                } else {
                    meta.alt = Some(c as u8);
                    break;
                }
            }
        }
        let base_pred = self.base[meta.base_index as usize] >= 2;
        meta.alt_pred = match meta.alt {
            Some(a) => self.tables[a as usize][meta.indices[a as usize] as usize].ctr >= 0,
            None => base_pred,
        };
        match meta.provider {
            Some(p) => {
                let e = &self.tables[p as usize][meta.indices[p as usize] as usize];
                meta.provider_pred = e.ctr >= 0;
                meta.provider_new = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
                meta.pred = if meta.provider_new && self.use_alt_on_na >= 0 {
                    meta.alt_pred
                } else {
                    meta.provider_pred
                };
            }
            None => {
                meta.provider_pred = base_pred;
                meta.alt_pred = base_pred;
                meta.pred = base_pred;
            }
        }
        (meta.pred, meta)
    }

    /// Pushes a (speculative) outcome into the global history. Call for
    /// every fetched branch with its predicted (or known) direction.
    pub fn push_history(&mut self, taken: bool, pc: Pc) {
        self.hist.push(taken, (pc.get() >> 2 & 1) as u8);
    }

    /// Checkpoints the speculative history (take before `push_history`).
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        self.hist.checkpoint()
    }

    /// Restores the history to a checkpoint (misprediction recovery).
    pub fn restore(&mut self, cp: &HistoryCheckpoint) {
        self.hist.restore(cp);
    }

    fn bump(ctr: &mut i8, taken: bool) {
        *ctr = if taken {
            (*ctr + 1).min(3)
        } else {
            (*ctr - 1).max(-4)
        };
    }

    /// Trains the predictor with the resolved outcome. `meta` must be the
    /// metadata from the corresponding [`Tage::predict`].
    pub fn update(&mut self, taken: bool, meta: &TageMeta) {
        self.tick += 1;
        // graceful usefulness aging
        if self.tick & ((1 << 18) - 1) == 0 {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.u >>= 1;
                }
            }
        }
        match meta.provider {
            Some(p) => {
                let p = p as usize;
                // use_alt_on_na bookkeeping for newly-allocated providers
                if meta.provider_new && meta.provider_pred != meta.alt_pred {
                    let delta = if meta.alt_pred == taken { 1 } else { -1 };
                    self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
                }
                let e = &mut self.tables[p][meta.indices[p] as usize];
                Self::bump(&mut e.ctr, taken);
                if meta.provider_pred != meta.alt_pred {
                    if meta.provider_pred == taken {
                        e.u = (e.u + 1).min(3);
                    } else {
                        e.u = e.u.saturating_sub(1);
                    }
                }
                // When the alt would have been used and the provider is
                // still cold, also train the alt/base.
                if meta.provider_new {
                    match meta.alt {
                        Some(a) => {
                            let a = a as usize;
                            let ae = &mut self.tables[a][meta.indices[a] as usize];
                            Self::bump(&mut ae.ctr, taken);
                        }
                        None => self.update_base(meta.base_index, taken),
                    }
                }
            }
            None => self.update_base(meta.base_index, taken),
        }
        // allocate on a final misprediction, in a component longer than
        // the provider
        if meta.pred != taken {
            let start = meta.provider.map(|p| p as usize + 1).unwrap_or(0);
            self.allocate(start, taken, meta);
        }
    }

    fn update_base(&mut self, idx: u32, taken: bool) {
        let c = &mut self.base[idx as usize];
        *c = if taken {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
    }

    fn allocate(&mut self, start: usize, taken: bool, meta: &TageMeta) {
        let n = self.lengths.len();
        if start >= n {
            return;
        }
        // Seznec-style: randomly skip up to 2 components so allocations
        // spread across history lengths.
        self.lfsr = self.lfsr.wrapping_mul(1664525).wrapping_add(1013904223);
        let skip = (self.lfsr >> 16) as usize % 3;
        let mut allocated = false;
        let mut c = start + skip.min(n - 1 - start.min(n - 1));
        while c < n {
            let e = &mut self.tables[c][meta.indices[c] as usize];
            if e.u == 0 {
                e.tag = meta.tags[c];
                e.ctr = if taken { 0 } else { -1 };
                e.u = 0;
                allocated = true;
                break;
            }
            c += 1;
        }
        if !allocated {
            // nothing free: decay usefulness on the candidate range
            for c in start..n {
                let e = &mut self.tables[c][meta.indices[c] as usize];
                e.u = e.u.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::PredictorConfig;

    fn tage() -> Tage {
        Tage::new(&PredictorConfig::default())
    }

    /// Drives the predictor as the pipeline would (predict → push →
    /// update) and returns the mispredict count over `outcomes`.
    fn run(t: &mut Tage, pcs: &[u64], outcomes: impl Fn(u64, u64) -> bool, n: u64) -> u64 {
        let mut wrong = 0;
        for i in 0..n {
            for &pc_raw in pcs {
                let pc = Pc::new(pc_raw);
                let actual = outcomes(pc_raw, i);
                let (pred, meta) = t.predict(pc);
                t.push_history(actual, pc); // pipeline pushes; mispredict repair omitted in this driver
                t.update(actual, &meta);
                if pred != actual {
                    wrong += 1;
                }
            }
        }
        wrong
    }

    #[test]
    fn geometric_series_shape() {
        let l = geometric_lengths(12, 4, 640);
        assert_eq!(l.len(), 12);
        assert_eq!(l[0], 4);
        assert_eq!(*l.last().unwrap(), 640);
        assert!(l.windows(2).all(|w| w[0] < w[1]), "{l:?}");
    }

    #[test]
    fn learns_always_taken() {
        let mut t = tage();
        let wrong = run(&mut t, &[0x1000], |_, _| true, 1000);
        assert!(
            wrong < 10,
            "always-taken should be near-perfect, got {wrong}"
        );
    }

    #[test]
    fn learns_short_period_pattern() {
        let mut t = tage();
        // period-4 pattern T T T N — classic loop branch
        let wrong = run(&mut t, &[0x2000], |_, i| i % 4 != 3, 4000);
        assert!(
            (wrong as f64) < 4000.0 * 0.03,
            "period-4 pattern should be learned, got {wrong}/4000"
        );
    }

    #[test]
    fn learns_long_period_pattern_via_long_history() {
        let mut t = tage();
        // period-48 loop needs >5-bit history: bimodal alone cannot learn it
        let wrong = run(&mut t, &[0x3000], |_, i| i % 48 != 47, 20_000);
        assert!(
            (wrong as f64) < 20_000.0 * 0.05,
            "period-48 should be learned by long-history components, got {wrong}/20000"
        );
    }

    #[test]
    fn random_branch_mispredicts_at_chance() {
        let mut t = tage();
        let mut rng = ss_types::rng::Xoshiro256::seed_from_u64(0xDEAD);
        let mut wrong = 0u64;
        for _ in 0..10_000 {
            let pc = Pc::new(0x4000);
            let actual: bool = rng.next_bool();
            let (pred, meta) = t.predict(pc);
            t.push_history(actual, pc);
            t.update(actual, &meta);
            if pred != actual {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / 10_000.0;
        assert!((0.35..=0.65).contains(&rate), "random branch rate {rate}");
    }

    #[test]
    fn distinguishes_many_static_branches() {
        let mut t = tage();
        let pcs: Vec<u64> = (0..64).map(|i| 0x8000 + i * 4).collect();
        // branch k is taken iff k is even — purely PC-dependent
        let wrong = run(&mut t, &pcs, |pc, _| (pc / 4) % 2 == 0, 300);
        let total = 64 * 300;
        assert!(
            (wrong as f64) < total as f64 * 0.02,
            "per-PC bias should be trivial: {wrong}/{total}"
        );
    }

    #[test]
    fn correlated_branches_learned_via_history() {
        let mut t = tage();
        // Branch B outcome equals branch A's previous outcome: needs history.
        let mut wrong_b = 0u64;
        let mut a_prev = false;
        for i in 0..8000u64 {
            let a_out = (i / 3) % 2 == 0;
            let (pa, ma) = t.predict(Pc::new(0x5000));
            let _ = pa;
            t.push_history(a_out, Pc::new(0x5000));
            t.update(a_out, &ma);

            let b_out = a_prev;
            let (pb, mb) = t.predict(Pc::new(0x5010));
            t.push_history(b_out, Pc::new(0x5010));
            t.update(b_out, &mb);
            if i > 2000 && pb != b_out {
                wrong_b += 1;
            }
            a_prev = a_out;
        }
        assert!(
            (wrong_b as f64) < 6000.0 * 0.05,
            "correlation should be captured: {wrong_b}/6000"
        );
    }

    #[test]
    fn checkpoint_restore_isolates_wrong_path() {
        let mut t = tage();
        // warm
        for i in 0..1000u64 {
            let (_, m) = t.predict(Pc::new(0x6000));
            let out = i % 4 != 3;
            t.push_history(out, Pc::new(0x6000));
            t.update(out, &m);
        }
        let cp = t.checkpoint();
        let (pred_before, _) = t.predict(Pc::new(0x6000));
        // pollute history with wrong-path junk
        for _ in 0..30 {
            t.push_history(true, Pc::new(0x9999));
        }
        t.restore(&cp);
        let (pred_after, _) = t.predict(Pc::new(0x6000));
        assert_eq!(
            pred_before, pred_after,
            "restore must reproduce the prediction"
        );
    }
}

ss_types::impl_persist!(TageEntry { tag, ctr, u });
ss_types::impl_persist!(TageMeta {
    indices,
    tags,
    base_index,
    provider,
    alt,
    provider_pred,
    alt_pred,
    pred,
    provider_new,
});
ss_types::impl_persist_state!(Tage { base, tables, use_alt_on_na, tick, lfsr ; hist });
