//! Global branch history with incrementally-folded views.
//!
//! TAGE indexes each tagged component with a hash of the PC and the most
//! recent `L(i)` history bits. Rather than re-hashing hundreds of bits per
//! prediction, the standard implementation keeps *folded* registers that
//! are updated in O(1) per inserted bit (Seznec's circular-shift-register
//! technique). Speculative fetch-time updates are repaired on a squash by
//! restoring a [`HistoryCheckpoint`]; checkpoints are plain `Copy` data so
//! taking one per fetched branch costs no allocation.

/// Capacity of the raw history ring in bits. Must comfortably exceed the
/// longest geometric history plus the deepest speculative window so that
/// checkpointed fold-out bits are never overwritten before restore.
const RING_BITS: usize = 4096;

/// Maximum folded registers supported (components × 3 folds each).
pub(crate) const MAX_FOLDS: usize = 48;

/// A folded view of the most recent `length` history bits compressed to
/// `width` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Folded {
    pub value: u32,
    width: u32,
    /// `length % width`, the rotation applied to the outgoing bit.
    out_rot: u32,
}

impl Folded {
    fn new(length: usize, width: usize) -> Self {
        assert!(width > 0 && width <= 32);
        Folded {
            value: 0,
            width: width as u32,
            out_rot: (length % width) as u32,
        }
    }

    /// Inserts `new_bit` and expires `old_bit` (the bit that is now
    /// `length + 1` positions old). Classic Seznec circular fold: shift
    /// left, XOR the expiring bit at its rotated position, fold the
    /// overflow bit back into bit 0.
    fn update(&mut self, new_bit: u8, old_bit: u8) {
        let mut v = (self.value << 1) | new_bit as u32;
        v ^= (old_bit as u32) << self.out_rot;
        v ^= v >> self.width;
        self.value = v & ((1u32 << self.width) - 1);
    }
}

/// Snapshot of the history state taken at prediction time; restoring it
/// rewinds all speculative updates made since. It keeps only the fold
/// values: widths and rotations are fixed by the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryCheckpoint {
    pos: u64,
    folded: [u32; MAX_FOLDS],
    path: u32,
}

/// Global direction history plus folded views for every TAGE component.
#[derive(Debug, Clone)]
pub struct GlobalHistory {
    ring: Vec<u8>,
    pos: u64,
    /// Folded registers, three per component: index fold, tag fold, and a
    /// second tag fold one bit narrower (classic TAGE tag hash).
    folded: [Folded; MAX_FOLDS],
    /// 16-bit path history (low bits of branch PCs).
    path: u32,
    lengths: Vec<usize>,
}

impl GlobalHistory {
    /// Creates history folds for components with the given history
    /// `lengths`, index width `index_bits` and tag width `tag_bits`.
    ///
    /// # Panics
    ///
    /// Panics if more than `MAX_FOLDS / 3` components are requested.
    pub fn new(lengths: &[usize], index_bits: usize, tag_bits: usize) -> Self {
        assert!(lengths.len() * 3 <= MAX_FOLDS, "too many TAGE components");
        let mut folded = [Folded::default(); MAX_FOLDS];
        for (i, &len) in lengths.iter().enumerate() {
            folded[i * 3] = Folded::new(len, index_bits);
            folded[i * 3 + 1] = Folded::new(len, tag_bits);
            folded[i * 3 + 2] = Folded::new(len, tag_bits - 1);
        }
        GlobalHistory {
            ring: vec![0; RING_BITS],
            pos: 0,
            folded,
            path: 0,
            lengths: lengths.to_vec(),
        }
    }

    /// Pushes one (possibly speculative) outcome bit, given a low PC bit
    /// for path history.
    pub fn push(&mut self, taken: bool, pc_low_bit: u8) {
        let new_bit = taken as u8;
        self.ring[(self.pos % RING_BITS as u64) as usize] = new_bit;
        for (c, &len) in self.lengths.iter().enumerate() {
            // The bit that ages out of an L-bit history when one bit
            // enters is the one inserted L positions ago.
            let old = if self.pos >= len as u64 {
                self.ring[((self.pos - len as u64) % RING_BITS as u64) as usize]
            } else {
                0
            };
            self.folded[c * 3].update(new_bit, old);
            self.folded[c * 3 + 1].update(new_bit, old);
            self.folded[c * 3 + 2].update(new_bit, old);
        }
        self.pos += 1;
        self.path = (self.path << 1) | pc_low_bit as u32;
    }

    /// Folded index hash input for component `c`.
    pub(crate) fn index_fold(&self, c: usize) -> u32 {
        self.folded[c * 3].value
    }

    /// Folded tag hash inputs for component `c`.
    pub(crate) fn tag_folds(&self, c: usize) -> (u32, u32) {
        (self.folded[c * 3 + 1].value, self.folded[c * 3 + 2].value)
    }

    /// Low bits of the path history.
    pub(crate) fn path(&self) -> u32 {
        self.path & 0xFFFF
    }

    /// Takes a checkpoint for later [`GlobalHistory::restore`].
    pub fn checkpoint(&self) -> HistoryCheckpoint {
        HistoryCheckpoint {
            pos: self.pos,
            folded: self.folded.map(|f| f.value),
            path: self.path,
        }
    }

    /// Rewinds to a checkpoint (the ring is not rewound: bits newer than
    /// the checkpoint are garbage, but they will be rewritten before any
    /// fold reads them — see `RING_BITS`).
    ///
    /// # Panics
    ///
    /// Panics if the speculative window since the checkpoint exceeded the
    /// ring capacity.
    pub fn restore(&mut self, cp: &HistoryCheckpoint) {
        assert!(
            (self.pos - cp.pos) < (RING_BITS - self.lengths.last().copied().unwrap_or(0)) as u64,
            "speculative window exceeded the history ring"
        );
        self.pos = cp.pos;
        for (f, &value) in self.folded.iter_mut().zip(&cp.folded) {
            f.value = value;
        }
        self.path = cp.path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lengths() -> Vec<usize> {
        vec![4, 8, 16, 64, 640]
    }

    /// The defining property of a folded history: its value depends only
    /// on the most recent `length` bits, not on anything older.
    #[test]
    fn fold_depends_only_on_history_suffix() {
        let lens = lengths();
        let max_len = *lens.iter().max().unwrap();
        // Two histories with completely different prefixes...
        let mut h1 = GlobalHistory::new(&lens, 10, 12);
        let mut h2 = GlobalHistory::new(&lens, 10, 12);
        let mut x: u64 = 0x1234_5678;
        for i in 0..1500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h1.push((x >> 60) & 1 == 1, 0);
            h2.push(i % 7 == 0, 0);
        }
        // ...then the same max_len-bit suffix.
        for _ in 0..max_len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 59) & 1 == 1;
            h1.push(b, 0);
            h2.push(b, 0);
        }
        for (c, &len) in lens.iter().enumerate() {
            assert_eq!(h1.index_fold(c), h2.index_fold(c), "index fold, L={len}");
            assert_eq!(h1.tag_folds(c), h2.tag_folds(c), "tag folds, L={len}");
        }
    }

    /// Flipping the newest bit must change the fold (no silent loss of the
    /// incoming bit).
    #[test]
    fn fold_sees_the_newest_bit() {
        let lens = lengths();
        let mut h1 = GlobalHistory::new(&lens, 10, 12);
        let mut h2 = GlobalHistory::new(&lens, 10, 12);
        for i in 0..100 {
            h1.push(i % 3 == 0, 0);
            h2.push(i % 3 == 0, 0);
        }
        h1.push(true, 0);
        h2.push(false, 0);
        for c in 0..lens.len() {
            assert_ne!(h1.index_fold(c), h2.index_fold(c), "component {c}");
        }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut h = GlobalHistory::new(&lengths(), 10, 12);
        for i in 0..100 {
            h.push(i % 3 == 0, (i & 1) as u8);
        }
        let cp = h.checkpoint();
        let snapshot: Vec<u32> = (0..lengths().len()).map(|c| h.index_fold(c)).collect();
        // speculative wrong-path pushes
        for i in 0..50 {
            h.push(i % 2 == 0, 1);
        }
        h.restore(&cp);
        for (c, &v) in snapshot.iter().enumerate() {
            assert_eq!(h.index_fold(c), v);
        }
        // continuing after restore matches a history that never speculated
        let mut h2 = GlobalHistory::new(&lengths(), 10, 12);
        for i in 0..100 {
            h2.push(i % 3 == 0, (i & 1) as u8);
        }
        h.push(true, 0);
        h2.push(true, 0);
        for c in 0..lengths().len() {
            assert_eq!(h.index_fold(c), h2.index_fold(c));
            assert_eq!(h.tag_folds(c), h2.tag_folds(c));
        }
    }

    #[test]
    fn folds_differ_across_lengths() {
        let mut h = GlobalHistory::new(&lengths(), 10, 12);
        for i in 0..1000u32 {
            h.push((i.wrapping_mul(2654435761)) & 4 != 0, (i & 1) as u8);
        }
        let folds: Vec<u32> = (0..lengths().len()).map(|c| h.index_fold(c)).collect();
        let distinct: std::collections::HashSet<_> = folds.iter().collect();
        assert!(distinct.len() >= 3, "folds should not collapse: {folds:?}");
    }

    #[test]
    fn path_history_tracks_pc_bits() {
        let mut h = GlobalHistory::new(&lengths(), 10, 12);
        h.push(true, 1);
        h.push(false, 0);
        h.push(true, 1);
        assert_eq!(h.path() & 0b111, 0b101);
    }

    #[test]
    #[should_panic(expected = "too many")]
    fn too_many_components_rejected() {
        let lens: Vec<usize> = (1..=20).map(|i| i * 4).collect();
        let _ = GlobalHistory::new(&lens, 10, 12);
    }
}

ss_types::impl_persist!(Folded {
    value,
    width,
    out_rot
});
ss_types::impl_persist!(HistoryCheckpoint { pos, folded, path });
ss_types::impl_persist_state!(GlobalHistory {
    ring,
    pos,
    folded,
    path
});
