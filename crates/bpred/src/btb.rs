//! The branch target buffer: 2-way set-associative, 8K entries (Table 1).

use ss_types::persist::{load_seq_into, DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::Pc;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BtbEntry {
    valid: bool,
    tag: u32,
    target: Pc,
}

/// Set-associative branch target buffer with per-set LRU.
///
/// Entries are one flat, set-major array of `sets × ways`. Each set's
/// recency order is one byte: 2 bits per position, position 0 (the low
/// bits) holding the most recently used way. Every set starts in way
/// order, so untouched sets share one byte value.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    lru: Vec<u8>,
    ways: usize,
    set_bits: u32,
}

/// The recency order `0, 1, …, ways − 1`, packed.
fn initial_order(ways: usize) -> u8 {
    (0..ways).fold(0, |order, pos| order | (pos as u8) << (2 * pos))
}

/// Whether `order` packs a permutation of `0..ways` with no stray bits.
fn is_order(order: u8, ways: usize) -> bool {
    let mut seen = 0u8;
    for pos in 0..ways {
        seen |= 1 << (order >> (2 * pos) & 3);
    }
    seen as usize == (1 << ways) - 1 && u16::from(order) >> (2 * ways) == 0
}

impl Btb {
    /// Creates a BTB with `entries` total entries across `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split or `ways > 4`.
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!((1..=4).contains(&ways), "1..=4 ways supported");
        assert!(entries.is_power_of_two() && entries >= ways);
        let sets = (entries / ways) as usize;
        assert!(sets.is_power_of_two());
        let ways = ways as usize;
        Btb {
            entries: vec![BtbEntry::default(); sets * ways],
            lru: vec![initial_order(ways); sets],
            ways,
            set_bits: sets.trailing_zeros(),
        }
    }

    fn set_and_tag(&self, pc: Pc) -> (usize, u32) {
        let idx = pc.get() >> 2;
        let set = (idx & ((1 << self.set_bits) - 1)) as usize;
        let tag = ((idx >> self.set_bits) & 0xFFFF_FFFF) as u32;
        (set, tag)
    }

    /// The way of `set` holding a valid entry for `tag`, if any.
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let base = set * self.ways;
        self.entries[base..base + self.ways]
            .iter()
            .position(|e| e.valid && e.tag == tag)
    }

    /// Makes `way` the most recently used of `set`, shifting the ways
    /// that were more recent one position older.
    fn touch(&mut self, set: usize, way: usize) {
        let order = self.lru[set];
        let pos = (0..self.ways)
            .find(|&p| usize::from(order >> (2 * p) & 3) == way)
            .expect("way in LRU order");
        let younger = order & ((1u16 << (2 * pos)) - 1) as u8;
        let older = (u16::from(order) >> (2 * pos + 2) << (2 * pos + 2)) as u8;
        self.lru[set] = older | younger << 2 | way as u8;
    }

    /// Looks up the predicted target for the branch at `pc`, updating LRU
    /// on a hit.
    pub fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        let (set, tag) = self.set_and_tag(pc);
        let way = self.find(set, tag)?;
        self.touch(set, way);
        Some(self.entries[set * self.ways + way].target)
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: Pc, target: Pc) {
        let (set, tag) = self.set_and_tag(pc);
        // hit: update in place; miss: fill the LRU way
        let way = self
            .find(set, tag)
            .unwrap_or_else(|| usize::from(self.lru[set] >> (2 * (self.ways - 1)) & 3));
        self.entries[set * self.ways + way] = BtbEntry {
            valid: true,
            tag,
            target,
        };
        self.touch(set, way);
    }
}

impl PersistState for Btb {
    fn save_state(&self, w: &mut Writer) {
        self.entries.save(w);
        self.lru.save(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        load_seq_into(r, &mut self.entries, "BTB entry")?;
        load_seq_into(r, &mut self.lru, "BTB LRU")?;
        match self.lru.iter().find(|&&order| !is_order(order, self.ways)) {
            Some(order) => Err(r.err(format_args!(
                "BTB LRU order {order:#04x} is not a permutation of {} ways",
                self.ways
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = Btb::new(1024, 2);
        let pc = Pc::new(0x1000);
        assert_eq!(b.lookup(pc), None);
        b.update(pc, Pc::new(0x2000));
        assert_eq!(b.lookup(pc), Some(Pc::new(0x2000)));
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut b = Btb::new(1024, 2);
        let pc = Pc::new(0x1000);
        b.update(pc, Pc::new(0x2000));
        b.update(pc, Pc::new(0x3000));
        assert_eq!(b.lookup(pc), Some(Pc::new(0x3000)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = Btb::new(8, 2); // 4 sets
                                    // three PCs mapping to set 0: idx multiples of 4 → pc = 16*k
        let p1 = Pc::new(16);
        let p2 = Pc::new(16 * 5);
        let p3 = Pc::new(16 * 9);
        b.update(p1, Pc::new(1 << 4));
        b.update(p2, Pc::new(2 << 4));
        // touch p1 so p2 becomes LRU
        assert!(b.lookup(p1).is_some());
        b.update(p3, Pc::new(3 << 4));
        assert!(b.lookup(p1).is_some(), "recently-used survives");
        assert_eq!(b.lookup(p2), None, "LRU way evicted");
        assert!(b.lookup(p3).is_some());
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut b = Btb::new(8, 2);
        for k in 0..8u64 {
            b.update(Pc::new(k * 4), Pc::new(0x9000 + k));
        }
        for k in 0..8u64 {
            assert_eq!(b.lookup(Pc::new(k * 4)), Some(Pc::new(0x9000 + k)));
        }
    }

    /// The naive model the BTB must match: per-set entries with a `u64`
    /// stamp from a clock that never wraps; the victim is the first
    /// invalid way, else the oldest. (The BTB itself fills the last way
    /// of its recency order; untouched ways stay at the end of that
    /// order, so both pick an invalid way while one exists and the true
    /// LRU way after, and the targets they return agree.)
    struct RefBtb {
        sets: Vec<Vec<(bool, u32, Pc, u64)>>,
        clock: u64,
    }

    impl RefBtb {
        fn new(entries: u32, ways: u32) -> Self {
            let sets = (entries / ways) as usize;
            RefBtb {
                sets: vec![vec![(false, 0, Pc::new(0), 0); ways as usize]; sets],
                clock: 0,
            }
        }
        fn set_and_tag(&self, pc: Pc) -> (usize, u32) {
            let idx = pc.get() >> 2;
            let sets = self.sets.len() as u64;
            ((idx % sets) as usize, (idx / sets) as u32)
        }
        fn way(&self, set: usize, tag: u32) -> Option<usize> {
            self.sets[set].iter().position(|e| e.0 && e.1 == tag)
        }
        fn lookup(&mut self, pc: Pc) -> Option<Pc> {
            let (set, tag) = self.set_and_tag(pc);
            self.clock += 1;
            let way = self.way(set, tag)?;
            self.sets[set][way].3 = self.clock;
            Some(self.sets[set][way].2)
        }
        fn update(&mut self, pc: Pc, target: Pc) {
            let (set, tag) = self.set_and_tag(pc);
            self.clock += 1;
            let lines = &self.sets[set];
            let way = self
                .way(set, tag)
                .or_else(|| lines.iter().position(|e| !e.0))
                .unwrap_or_else(|| (0..lines.len()).min_by_key(|&w| lines[w].3).unwrap());
            self.sets[set][way] = (true, tag, target, self.clock);
        }
    }

    /// Replays seeded random `lookup`/`update` sequences against
    /// [`RefBtb`], crowding a few sets with more branches than ways;
    /// some PCs differ only above the 32 tag bits, so they alias. The
    /// BTB is snapshotted and restored into a fresh one mid-run.
    fn check_against_reference(entries: u32, ways: u32, seed: u64) {
        let mut rng = ss_types::rng::Xoshiro256::seed_from_u64(seed);
        let sets = u64::from(entries / ways);
        let hot_sets: Vec<u64> = (0..4).map(|_| rng.next_below(sets)).collect();
        let mut btb = Btb::new(entries, ways);
        let mut reference = RefBtb::new(entries, ways);
        for step in 0..4_000 {
            let set = hot_sets[rng.next_below(4) as usize];
            let mut tag = rng.next_below(2 * u64::from(ways) + 1);
            if rng.next_below(8) == 0 {
                tag |= 1 << 32;
            }
            let pc = Pc::new((tag * sets + set) << 2);
            if rng.next_below(3) == 0 {
                let target = Pc::new(rng.next_below(1 << 20) << 2);
                btb.update(pc, target);
                reference.update(pc, target);
            } else {
                assert_eq!(
                    btb.lookup(pc),
                    reference.lookup(pc),
                    "{entries}x{ways} step {step}: lookup {pc:?}"
                );
            }
            if step == 2_000 {
                let mut w = Writer::new();
                btb.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut fresh = Btb::new(entries, ways);
                let mut r = Reader::new(&bytes);
                fresh.restore_state(&mut r).unwrap();
                assert!(r.is_finished());
                btb = fresh;
            }
        }
    }

    #[test]
    fn flat_btb_matches_a_naive_lru_reference() {
        for (i, (entries, ways)) in [(4, 1), (8, 2), (16, 4), (64, 4), (8192, 2)]
            .into_iter()
            .enumerate()
        {
            for seed in 0..4 {
                check_against_reference(entries, ways, 0xB7B + 16 * i as u64 + seed);
            }
        }
    }

    #[test]
    fn untouched_sets_share_one_lru_byte() {
        let mut b = Btb::new(8192, 2);
        b.update(Pc::new(0x40), Pc::new(0x80));
        let distinct: std::collections::BTreeSet<u8> = b.lru.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "one touched set, one shared value");
        let mut w = Writer::new();
        b.save_state(&mut w);
        assert!(w.bytes().len() < 200, "{} bytes", w.bytes().len());
    }

    #[test]
    fn bad_snapshot_arrays_are_typed_errors() {
        let mut w = Writer::new();
        Btb::new(16, 2).save_state(&mut w);
        let bytes = w.into_bytes();
        let err = Btb::new(32, 2)
            .restore_state(&mut Reader::new(&bytes))
            .unwrap_err();
        assert!(
            err.reason
                .contains("BTB entry geometry mismatch: 16 entries != 32"),
            "{err}"
        );
        // An order naming a way the set does not have (3 in a 2-way set).
        let mut b = Btb::new(16, 2);
        b.lru[5] = 0b1100;
        let mut w = Writer::new();
        b.save_state(&mut w);
        let bytes = w.into_bytes();
        let err = Btb::new(16, 2)
            .restore_state(&mut Reader::new(&bytes))
            .unwrap_err();
        assert!(err.reason.contains("BTB LRU order 0x0c"), "{err}");
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn too_many_ways_rejected() {
        let _ = Btb::new(1024, 8);
    }
}

ss_types::impl_persist!(BtbEntry { valid, tag, target });
