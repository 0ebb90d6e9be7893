//! The branch target buffer: 2-way set-associative, 8K entries (Table 1).

use ss_types::Pc;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BtbEntry {
    valid: bool,
    tag: u32,
    target: Pc,
}

/// Set-associative branch target buffer with per-set LRU.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: Vec<[BtbEntry; 4]>,
    ways: usize,
    /// LRU order per set: `lru[set][0]` is the most recently used way.
    lru: Vec<[u8; 4]>,
    set_bits: u32,
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
        Btb {
            sets: vec![[BtbEntry::default(); 4]; sets],
            ways: ways as usize,
            lru: vec![[0, 1, 2, 3]; sets],
            set_bits: sets.trailing_zeros(),
        }
    }

    fn set_and_tag(&self, pc: Pc) -> (usize, u32) {
        let idx = pc.get() >> 2;
        let set = (idx & ((1 << self.set_bits) - 1)) as usize;
        let tag = ((idx >> self.set_bits) & 0xFFFF_FFFF) as u32;
        (set, tag)
    }

    fn touch(&mut self, set: usize, way: u8) {
        let order = &mut self.lru[set];
        let pos = order
            .iter()
            .position(|&w| w == way)
            .expect("way in LRU order");
        order[..=pos].rotate_right(1);
    }

    /// Looks up the predicted target for the branch at `pc`, updating LRU
    /// on a hit.
    pub fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        let (set, tag) = self.set_and_tag(pc);
        for way in 0..self.ways {
            let e = self.sets[set][way];
            if e.valid && e.tag == tag {
                self.touch(set, way as u8);
                return Some(e.target);
            }
        }
        None
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: Pc, target: Pc) {
        let (set, tag) = self.set_and_tag(pc);
        // hit: update in place
        for way in 0..self.ways {
            let e = &mut self.sets[set][way];
            if e.valid && e.tag == tag {
                e.target = target;
                self.touch(set, way as u8);
                return;
            }
        }
        // miss: fill LRU way
        let victim = self.lru[set][self.ways - 1];
        self.sets[set][victim as usize] = BtbEntry {
            valid: true,
            tag,
            target,
        };
        self.touch(set, victim);
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

    #[test]
    #[should_panic(expected = "ways")]
    fn too_many_ways_rejected() {
        let _ = Btb::new(1024, 8);
    }
}

ss_types::impl_persist!(BtbEntry { valid, tag, target });
ss_types::impl_persist_state!(Btb { sets, lru });
