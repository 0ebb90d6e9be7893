//! A generic set-associative cache with true-LRU replacement and an MSHR
//! file for outstanding misses.
//!
//! The cache is *time-aware*: misses are registered in the MSHR file with
//! a completion cycle, and the line is only visible to lookups once its
//! fill completes. Accesses to a line with an outstanding fill *merge*
//! into the MSHR (secondary misses) instead of generating new traffic.

use ss_types::{Addr, CacheGeometry, Cycle};

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Line {
    valid: bool,
    tag: u64,
    /// Larger = more recently used.
    lru: u64,
    /// Brought in by the prefetcher and not yet demand-hit.
    prefetched: bool,
}

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
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<Line>>,
    line_bytes: u64,
    set_mask: u64,
    set_shift: u32,
    lru_clock: u64,
}

impl SetAssocCache {
    /// Builds a cache from its geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        SetAssocCache {
            sets: vec![vec![Line::default(); geom.ways as usize]; sets as usize],
            line_bytes: geom.line_bytes,
            set_mask: sets - 1,
            set_shift: geom.line_bytes.trailing_zeros(),
            lru_clock: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr.get() >> self.set_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Looks up `addr`, updating LRU on a hit.
    pub fn lookup(&mut self, addr: Addr) -> Lookup {
        let (set, tag) = self.set_and_tag(addr);
        self.lru_clock += 1;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = self.lru_clock;
                let was_prefetch = line.prefetched;
                line.prefetched = false;
                return Lookup::Hit { was_prefetch };
            }
        }
        Lookup::Miss
    }

    /// Probes without disturbing LRU or prefetch bits (wrong-path loads).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line containing `addr`, evicting LRU if needed.
    pub fn fill(&mut self, addr: Addr, prefetched: bool) {
        let (set, tag) = self.set_and_tag(addr);
        self.lru_clock += 1;
        // already present (e.g. demand fill racing a prefetch): refresh
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.lru_clock;
            line.prefetched &= prefetched;
            return;
        }
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("non-zero associativity");
        *victim = Line {
            valid: true,
            tag,
            lru: self.lru_clock,
            prefetched,
        };
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

ss_types::impl_persist!(Line {
    valid,
    tag,
    lru,
    prefetched
});
ss_types::impl_persist_state!(SetAssocCache { sets, lru_clock });
ss_types::impl_persist!(Mshr {
    line,
    complete,
    prefetch
});
ss_types::impl_persist_state!(MshrFile { entries });
