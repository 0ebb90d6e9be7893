//! A generic set-associative cache with true-LRU replacement and an MSHR
//! file for outstanding misses.
//!
//! The cache is *time-aware*: misses are registered in the MSHR file with
//! a completion cycle, and the line is only visible to lookups once its
//! fill completes. Accesses to a line with an outstanding fill *merge*
//! into the MSHR (secondary misses) instead of generating new traffic.

use ss_types::persist::{load_seq_into, DecodeError, Persist, PersistState, Reader, Writer};
use ss_types::{Addr, CacheGeometry, Cycle};

/// Tag-word flag: the line holds data.
const VALID: u64 = 1;
/// Tag-word flag: brought in by the prefetcher and not yet demand-hit.
const PREFETCHED: u64 = 2;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is present.
    Hit {
        /// The hit consumed a prefetched line (first demand touch).
        was_prefetch: bool,
    },
    /// The line is absent.
    Miss,
}

/// A set-associative, true-LRU, write-allocate cache (timing only — no
/// data).
///
/// Storage is two flat, set-major arrays with one slot per line: a tag
/// word (`tag << 2 | prefetched << 1 | valid`) and a recency stamp. A
/// hit or fill stamps its line with the next value of a per-cache
/// clock, so the oldest line of a set is the one with the smallest
/// stamp. Before the `u32` clock would wrap, every set's stamps are
/// renumbered `1..` in their current order, which keeps LRU exact.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    /// The stamp most recently handed out.
    clock: u32,
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    set_shift: u32,
    set_bits: u32,
}

impl SetAssocCache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if one way spans fewer than 4 bytes (sets × line size),
    /// which would leave no room for the tag word's two flag bits.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        let set_shift = geom.line_bytes.trailing_zeros();
        assert!(
            set_shift + sets.trailing_zeros() >= TAG_SHIFT,
            "a cache way must span at least 4 bytes"
        );
        let lines = (sets * geom.ways as u64) as usize;
        SetAssocCache {
            tags: vec![0; lines],
            stamps: vec![0; lines],
            clock: 0,
            ways: geom.ways as usize,
            line_bytes: geom.line_bytes,
            set_mask: sets - 1,
            set_shift,
            set_bits: sets.trailing_zeros(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// The first line slot of `addr`'s set, and the valid tag word the
    /// line would carry (prefetch bit clear).
    fn slot_and_key(&self, addr: Addr) -> (usize, u64) {
        let line = addr.get() >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        (set * self.ways, tag << TAG_SHIFT | VALID)
    }

    /// The way of `base`'s set holding `key`, if any.
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.tags[base..base + self.ways]
            .iter()
            .position(|&w| w & !PREFETCHED == key)
            .map(|way| base + way)
    }

    /// The next recency stamp, renumbering first if the clock would wrap.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.clock = renumber(&self.tags, &mut self.stamps, self.ways);
        }
        self.clock += 1;
        self.clock
    }

    /// Looks up `addr`, updating LRU on a hit.
    #[inline]
    pub fn lookup(&mut self, addr: Addr) -> Lookup {
        let (base, key) = self.slot_and_key(addr);
        match self.find(base, key) {
            Some(i) => {
                let was_prefetch = self.tags[i] & PREFETCHED != 0;
                self.tags[i] = key;
                self.stamps[i] = self.next_stamp();
                Lookup::Hit { was_prefetch }
            }
            None => Lookup::Miss,
        }
    }

    /// Probes without disturbing LRU or prefetch bits (wrong-path loads).
    pub fn probe(&self, addr: Addr) -> bool {
        let (base, key) = self.slot_and_key(addr);
        self.find(base, key).is_some()
    }

    /// Installs the line containing `addr`, evicting LRU if needed.
    #[inline]
    pub fn fill(&mut self, addr: Addr, prefetched: bool) {
        let (base, key) = self.slot_and_key(addr);
        let stamp = self.next_stamp();
        // already present (e.g. demand fill racing a prefetch): refresh
        if let Some(i) = self.find(base, key) {
            if !prefetched {
                self.tags[i] = key;
            }
            self.stamps[i] = stamp;
            return;
        }
        // the first invalid way, else the least recently used
        let set = base..base + self.ways;
        let victim = set
            .clone()
            .find(|&i| self.tags[i] & VALID == 0)
            .or_else(|| set.min_by_key(|&i| self.stamps[i]))
            .expect("non-zero associativity");
        self.tags[victim] = if prefetched { key | PREFETCHED } else { key };
        self.stamps[victim] = stamp;
    }

    /// Sets the recency clock, so a test can force the wrap.
    #[cfg(test)]
    fn set_clock(&mut self, clock: u32) {
        self.clock = clock;
    }
}

/// Rewrites each set's valid stamps as `1..=k` in their current order
/// and returns the largest `k`, the clock to continue from. It picks
/// the smallest stamp above the last one taken, `k` times per set: a
/// stamp already rewritten to rank `r` never exceeds the `r`-th
/// smallest distinct positive stamp, so it is not taken again. Runs once
/// per 2^32 stamps; it allocates nothing, so neither does the hot loop.
#[cold]
fn renumber(tags: &[u64], stamps: &mut [u32], ways: usize) -> u32 {
    let mut top = 0;
    for (tags, stamps) in tags.chunks(ways).zip(stamps.chunks_mut(ways)) {
        let (mut last, mut rank) = (0, 0);
        while let Some(way) = (0..ways)
            .filter(|&w| tags[w] & VALID != 0 && stamps[w] > last)
            .min_by_key(|&w| stamps[w])
        {
            last = stamps[way];
            rank += 1;
            stamps[way] = rank;
        }
        top = top.max(rank);
    }
    top
}

impl PersistState for SetAssocCache {
    fn save_state(&self, w: &mut Writer) {
        self.tags.save(w);
        self.stamps.save(w);
        self.clock.save(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        load_seq_into(r, &mut self.tags, "cache tag")?;
        load_seq_into(r, &mut self.stamps, "cache stamp")?;
        self.clock = u32::load(r)?;
        Ok(())
    }
}

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mshr {
    line: u64,
    complete: Cycle,
    prefetch: bool,
}

/// The MSHR file: outstanding line fills with completion times.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Mshr>,
    capacity: usize,
    line_bytes: u64,
}

/// Result of consulting the MSHR file on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A fill for this line is already in flight, completing at the given
    /// cycle (secondary miss / merge).
    Merged(Cycle),
    /// A new entry was allocated.
    Allocated,
    /// The file is full; the earliest entry completes at the given cycle.
    Full(Cycle),
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries for `line_bytes`
    /// lines.
    pub fn new(capacity: u32, line_bytes: u64) -> Self {
        MshrFile {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            line_bytes,
        }
    }

    fn line(&self, addr: Addr) -> u64 {
        addr.get() / self.line_bytes
    }

    /// Retires entries whose fills completed by `now`, invoking `on_fill`
    /// (typically [`SetAssocCache::fill`]) for each.
    pub fn drain(&mut self, now: Cycle, mut on_fill: impl FnMut(Addr, bool)) {
        let line_bytes = self.line_bytes;
        self.entries.retain(|e| {
            if e.complete <= now {
                on_fill(Addr::new(e.line * line_bytes), e.prefetch);
                false
            } else {
                true
            }
        });
    }

    /// Looks up or allocates an entry for the line containing `addr`,
    /// which will complete at `complete` if newly allocated.
    pub fn access(&mut self, addr: Addr, complete: Cycle, prefetch: bool) -> MshrOutcome {
        let line = self.line(addr);
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            // a demand access upgrades a prefetch entry
            e.prefetch &= prefetch;
            return MshrOutcome::Merged(e.complete);
        }
        if self.entries.len() >= self.capacity {
            let earliest = self
                .entries
                .iter()
                .map(|e| e.complete)
                .min()
                .expect("non-empty");
            return MshrOutcome::Full(earliest);
        }
        self.entries.push(Mshr {
            line,
            complete,
            prefetch,
        });
        MshrOutcome::Allocated
    }

    /// Rewrites the completion cycle of the outstanding entry covering
    /// `addr`. Used by the hierarchy, which allocates an entry first (to
    /// reserve the slot) and learns the real completion time after probing
    /// the next level.
    ///
    /// # Panics
    ///
    /// Panics if no entry covers `addr`.
    pub fn set_completion(&mut self, addr: Addr, complete: Cycle) {
        let line = self.line(addr);
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.line == line)
            .expect("set_completion on a missing MSHR entry");
        e.complete = complete;
    }

    /// Whether a fill for this line is outstanding.
    pub fn contains(&self, addr: Addr) -> bool {
        let line = self.line(addr);
        self.entries.iter().any(|e| e.line == line)
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B
        SetAssocCache::new(CacheGeometry {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small_cache();
        let a = Addr::new(0x1000);
        assert_eq!(c.lookup(a), Lookup::Miss);
        c.fill(a, false);
        assert_eq!(
            c.lookup(a),
            Lookup::Hit {
                was_prefetch: false
            }
        );
        // same line, different offset
        assert_eq!(
            c.lookup(Addr::new(0x103F)),
            Lookup::Hit {
                was_prefetch: false
            }
        );
        // next line misses
        assert_eq!(c.lookup(Addr::new(0x1040)), Lookup::Miss);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // set stride = 4 sets * 64B = 256B; three lines in set 0
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.fill(a, false);
        c.fill(b, false);
        assert_eq!(
            c.lookup(a),
            Lookup::Hit {
                was_prefetch: false
            }
        ); // a now MRU
        c.fill(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = small_cache();
        let a = Addr::new(0);
        let b = Addr::new(256);
        c.fill(a, false);
        c.fill(b, false); // b is MRU, a is LRU
        assert!(c.probe(a)); // must not promote a
        c.fill(Addr::new(512), false); // evicts a (still LRU)
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn prefetched_flag_reported_once() {
        let mut c = small_cache();
        let a = Addr::new(0x40);
        c.fill(a, true);
        assert_eq!(c.lookup(a), Lookup::Hit { was_prefetch: true });
        assert_eq!(
            c.lookup(a),
            Lookup::Hit {
                was_prefetch: false
            }
        );
    }

    #[test]
    fn refill_of_present_line_keeps_it() {
        let mut c = small_cache();
        let a = Addr::new(0x40);
        c.fill(a, false);
        c.fill(a, true); // prefetch fill of a present demand line
        assert_eq!(
            c.lookup(a),
            Lookup::Hit {
                was_prefetch: false
            }
        );
    }

    /// The naive model the flat cache must match: per-set lines with a
    /// `u64` stamp from a clock that never wraps; the victim is the
    /// first invalid way, else the oldest.
    struct RefCache {
        sets: Vec<Vec<RefLine>>,
        clock: u64,
        line_shift: u32,
    }

    #[derive(Clone, Copy, Default)]
    struct RefLine {
        valid: bool,
        tag: u64,
        stamp: u64,
        prefetched: bool,
    }

    impl RefCache {
        fn new(geom: CacheGeometry) -> Self {
            RefCache {
                sets: vec![vec![RefLine::default(); geom.ways as usize]; geom.sets() as usize],
                clock: 0,
                line_shift: geom.line_bytes.trailing_zeros(),
            }
        }
        fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
            let line = addr.get() >> self.line_shift;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }
        fn find(&mut self, addr: Addr) -> Option<&mut RefLine> {
            let (set, tag) = self.set_and_tag(addr);
            self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag)
        }
        fn lookup(&mut self, addr: Addr) -> Lookup {
            self.clock += 1;
            let clock = self.clock;
            match self.find(addr) {
                Some(l) => {
                    l.stamp = clock;
                    let was_prefetch = std::mem::take(&mut l.prefetched);
                    Lookup::Hit { was_prefetch }
                }
                None => Lookup::Miss,
            }
        }
        fn probe(&mut self, addr: Addr) -> bool {
            self.find(addr).is_some()
        }
        fn fill(&mut self, addr: Addr, prefetched: bool) {
            self.clock += 1;
            let clock = self.clock;
            if let Some(l) = self.find(addr) {
                l.stamp = clock;
                l.prefetched &= prefetched;
                return;
            }
            let (set, tag) = self.set_and_tag(addr);
            let lines = &mut self.sets[set];
            let victim = match lines.iter().position(|l| !l.valid) {
                Some(way) => way,
                None => (0..lines.len()).min_by_key(|&w| lines[w].stamp).unwrap(),
            };
            lines[victim] = RefLine {
                valid: true,
                tag,
                stamp: clock,
                prefetched,
            };
        }
    }

    /// Replays seeded random `lookup`/`probe`/`fill` sequences against
    /// [`RefCache`]. Addresses crowd a few sets with more tags than ways
    /// so evictions are frequent; the recency clock is pushed to the
    /// edge of its range now and then so every case wraps it, and the
    /// cache is snapshotted and restored into a fresh one mid-run.
    fn check_against_reference(geom: CacheGeometry, seed: u64) {
        let mut rng = ss_types::rng::Xoshiro256::seed_from_u64(seed);
        let sets = geom.sets();
        let ways = u64::from(geom.ways);
        let hot_sets: Vec<u64> = (0..4).map(|_| rng.next_below(sets)).collect();
        let mut cache = SetAssocCache::new(geom);
        let mut reference = RefCache::new(geom);
        let mut wraps = 0;
        for step in 0..4_000 {
            let clock = cache.clock;
            let set = hot_sets[rng.next_below(4) as usize];
            let tag = rng.next_below(2 * ways + 1);
            let line = tag * sets + set;
            let addr = Addr::new(line * geom.line_bytes + rng.next_below(geom.line_bytes));
            match rng.next_below(8) {
                0..=3 => assert_eq!(
                    cache.lookup(addr),
                    reference.lookup(addr),
                    "{geom:?} step {step}: lookup {addr:?}"
                ),
                4 => assert_eq!(
                    cache.probe(addr),
                    reference.probe(addr),
                    "{geom:?} step {step}: probe {addr:?}"
                ),
                _ => {
                    let prefetched = rng.next_bool();
                    cache.fill(addr, prefetched);
                    reference.fill(addr, prefetched);
                }
            }
            if cache.clock < clock {
                wraps += 1;
            }
            if rng.next_below(200) == 0 {
                cache.set_clock(cache.clock.max(u32::MAX - rng.next_below(4) as u32));
            }
            if step == 2_000 {
                let mut w = Writer::new();
                cache.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut fresh = SetAssocCache::new(geom);
                let mut r = Reader::new(&bytes);
                fresh.restore_state(&mut r).unwrap();
                assert!(r.is_finished());
                cache = fresh;
            }
        }
        assert!(wraps > 0, "{geom:?}: the clock never wrapped");
        // Every line either model holds, the other holds too.
        for &set in &hot_sets {
            for tag in 0..=2 * ways {
                let addr = Addr::new((tag * sets + set) * geom.line_bytes);
                assert_eq!(cache.probe(addr), reference.probe(addr), "{geom:?}");
            }
        }
    }

    #[test]
    fn flat_cache_matches_a_naive_lru_reference() {
        let geom = |capacity_bytes, ways, line_bytes| CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
        };
        let cases = [
            geom(64, 1, 64),
            geom(256, 1, 64),
            geom(512, 2, 64),
            geom(1024, 4, 32),
            geom(2048, 16, 32),
            geom(32 * 1024, 8, 64),    // Table 1 L1I / L1D
            geom(1024 * 1024, 16, 64), // Table 1 L2
        ];
        for (i, g) in cases.into_iter().enumerate() {
            for seed in 0..4 {
                check_against_reference(g, 0xF1A7 + 16 * i as u64 + seed);
            }
        }
    }

    #[test]
    fn wrap_renumbers_each_set_in_recency_order() {
        let mut c = small_cache();
        // set 0 gets a, b (b most recent); set 1 gets one line
        let (a, b) = (Addr::new(0), Addr::new(256));
        c.fill(a, false);
        c.fill(b, false);
        c.fill(Addr::new(64), false);
        c.set_clock(u32::MAX);
        assert!(matches!(c.lookup(a), Lookup::Hit { .. })); // a MRU, wraps
        assert_eq!(c.clock, 3, "stamps renumbered 1..=2, then a takes 3");
        assert_eq!(&c.stamps[..4], &[3, 2, 1, 0]);
        c.fill(Addr::new(512), false); // evicts b, the LRU line
        assert!(c.probe(a) && !c.probe(b));
    }

    #[test]
    fn mis_sized_snapshot_arrays_are_a_geometry_mismatch() {
        let mut w = Writer::new();
        small_cache().save_state(&mut w);
        let bytes = w.into_bytes();
        let mut bigger = SetAssocCache::new(CacheGeometry {
            capacity_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        });
        let err = bigger.restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            err.reason
                .contains("cache tag geometry mismatch: 8 entries != 16"),
            "{err}"
        );
    }

    #[test]
    fn mshr_merge_and_drain() {
        let mut m = MshrFile::new(4, 64);
        let a = Addr::new(0x1000);
        assert_eq!(m.access(a, Cycle::new(100), false), MshrOutcome::Allocated);
        assert_eq!(
            m.access(a, Cycle::new(200), false),
            MshrOutcome::Merged(Cycle::new(100))
        );
        assert_eq!(
            m.access(Addr::new(0x1010), Cycle::new(150), false),
            MshrOutcome::Merged(Cycle::new(100))
        );
        assert_eq!(m.len(), 1);
        let mut fills = Vec::new();
        m.drain(Cycle::new(99), |a, _| fills.push(a));
        assert!(fills.is_empty(), "not complete yet");
        m.drain(Cycle::new(100), |a, _| fills.push(a));
        assert_eq!(fills, vec![Addr::new(0x1000)]);
        assert!(m.is_empty());
    }

    #[test]
    fn mshr_full_reports_earliest_completion() {
        let mut m = MshrFile::new(2, 64);
        assert_eq!(
            m.access(Addr::new(0), Cycle::new(50), false),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.access(Addr::new(64), Cycle::new(30), false),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.access(Addr::new(128), Cycle::new(99), false),
            MshrOutcome::Full(Cycle::new(30))
        );
    }

    #[test]
    fn demand_upgrades_prefetch_mshr() {
        let mut m = MshrFile::new(2, 64);
        m.access(Addr::new(0), Cycle::new(10), true);
        m.access(Addr::new(0), Cycle::new(10), false); // demand merge
        let mut prefetch_flags = Vec::new();
        m.drain(Cycle::new(10), |_, p| prefetch_flags.push(p));
        assert_eq!(
            prefetch_flags,
            vec![false],
            "fill must count as demand-requested"
        );
    }
}

ss_types::impl_persist!(Mshr {
    line,
    complete,
    prefetch
});
ss_types::impl_persist_state!(MshrFile { entries });
