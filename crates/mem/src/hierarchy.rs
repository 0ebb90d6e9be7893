//! The assembled memory hierarchy: banked L1D + MSHRs, L2 with stride
//! prefetcher, and the DRAM channel, behind the single entry point the
//! pipeline calls when a load begins its access.

use crate::bank::BankArbiter;
use crate::cache::{Lookup, MshrFile, MshrOutcome, SetAssocCache};
use crate::dram::Dram;
use crate::prefetch::StridePrefetcher;
use ss_types::{Addr, CacheStats, Cycle, Pc, SimConfig, SimStats};

/// The level that serviced a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// L1D hit.
    L1,
    /// L1D miss, L2 hit (or merge into an L2-bound fill).
    L2,
    /// Missed to DRAM.
    Dram,
}

/// The timing outcome of one load access.
#[derive(Debug, Clone, Copy)]
pub struct LoadResponse {
    /// Deepest level the access had to reach.
    pub level: MemLevel,
    /// Cycles spent queued for an L1D bank (0 with a dual-ported L1D).
    pub bank_delay: u64,
    /// Total extra cycles beyond the base load-to-use latency, *including*
    /// `bank_delay`. A clean L1 hit has `extra_latency == 0`.
    pub extra_latency: u64,
    /// The miss merged into an already-outstanding fill.
    pub merged: bool,
}

impl LoadResponse {
    /// Whether the access hit the L1D (a bank-delayed hit is still a hit).
    pub fn l1_hit(&self) -> bool {
        self.level == MemLevel::L1
    }
}

/// The full data-side memory hierarchy plus the instruction cache.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l1d_mshr: MshrFile,
    bank: Option<BankArbiter>,
    l2: SetAssocCache,
    l2_mshr: MshrFile,
    prefetcher: StridePrefetcher,
    /// Scratch copy of the prefetcher's burst (the borrow must end
    /// before the prefetches are issued back into `self`); reused so
    /// the per-miss path stays allocation-free.
    pf_scratch: Vec<Addr>,
    dram: Dram,
    l2_latency: u64,
    /// Demand-load statistics for the L1D.
    pub l1d_stats: CacheStats,
    /// Demand statistics for the L2 (loads that missed the L1D).
    pub l2_stats: CacheStats,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from the machine configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let bank = cfg
            .l1d_banking
            .map(|b| BankArbiter::new(b, cfg.l1d.line_bytes, cfg.l1d.sets()));
        MemoryHierarchy {
            l1i: SetAssocCache::new(cfg.l1i),
            l1d: SetAssocCache::new(cfg.l1d),
            l1d_mshr: MshrFile::new(cfg.l1d_mshrs, cfg.l1d.line_bytes),
            bank,
            l2: SetAssocCache::new(cfg.l2),
            l2_mshr: MshrFile::new(cfg.l2_mshrs, cfg.l2.line_bytes),
            prefetcher: StridePrefetcher::new(cfg.prefetch_degree, cfg.l2.line_bytes),
            pf_scratch: Vec::with_capacity(cfg.prefetch_degree as usize),
            dram: Dram::new(cfg.dram),
            l2_latency: cfg.l2_latency,
            l1d_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
        }
    }

    fn drain_fills(&mut self, now: Cycle) {
        let l2 = &mut self.l2;
        self.l2_mshr.drain(now, |a, p| l2.fill(a, p));
        let l1d = &mut self.l1d;
        self.l1d_mshr.drain(now, |a, p| l1d.fill(a, p));
    }

    /// Performs the timing access for a load beginning its L1D access at
    /// `now`. Wrong-path loads (`wrong_path = true`) contend for banks but
    /// probe the caches without mutating any state — they must not train
    /// the prefetcher, allocate MSHRs, or touch LRU/DRAM.
    pub fn load(&mut self, pc: Pc, addr: Addr, now: Cycle, wrong_path: bool) -> LoadResponse {
        self.drain_fills(now);
        let bank_delay = match &mut self.bank {
            Some(b) => b.request(addr, now).delay,
            None => 0,
        };
        let start = now + bank_delay;

        if wrong_path {
            // Probe-only path: realistic latency, no state updates.
            let (level, residual) = if self.l1d.probe(addr) || self.l1d_mshr.contains(addr) {
                (MemLevel::L1, 0)
            } else if self.l2.probe(addr) || self.l2_mshr.contains(addr) {
                (MemLevel::L2, self.l2_latency)
            } else {
                (MemLevel::Dram, self.l2_latency + 75)
            };
            return LoadResponse {
                level,
                bank_delay,
                extra_latency: bank_delay + residual,
                merged: false,
            };
        }

        self.l1d_stats.accesses += 1;
        if let Lookup::Hit { was_prefetch } = self.l1d.lookup(addr) {
            self.l1d_stats.hits += 1;
            if was_prefetch {
                self.l1d_stats.prefetch_hits += 1;
            }
            return LoadResponse {
                level: MemLevel::L1,
                bank_delay,
                extra_latency: bank_delay,
                merged: false,
            };
        }
        self.l1d_stats.misses += 1;

        // Train the prefetcher on the demand-miss stream.
        let mut burst = std::mem::take(&mut self.pf_scratch);
        burst.clear();
        burst.extend_from_slice(self.prefetcher.observe_miss(pc, addr));
        for &pf in &burst {
            self.issue_prefetch(pf, start);
        }
        self.pf_scratch = burst;

        // L1 MSHR: merge, allocate, or stall on a full file.
        let (level, residual, merged) = match self.l1d_mshr.access(addr, Cycle::NEVER, false) {
            MshrOutcome::Merged(complete) => {
                self.l1d_stats.mshr_merges += 1;
                (MemLevel::L2, complete.since(start), true)
            }
            MshrOutcome::Full(earliest) => {
                // Wait for a free MSHR, then pay the full L2 path.
                let wait = earliest.since(start);
                let (lvl, res) = self.l2_path(addr, start + wait);
                (lvl, wait + res, false)
            }
            MshrOutcome::Allocated => {
                // Placeholder entry was pushed with NEVER; fix it up below.
                let (lvl, res) = self.l2_path(addr, start);
                self.fixup_l1_mshr(addr, start + res);
                (lvl, res, false)
            }
        };
        LoadResponse {
            level,
            bank_delay,
            extra_latency: bank_delay + residual,
            merged,
        }
    }

    /// Rewrites the completion time of the just-allocated L1 MSHR entry.
    fn fixup_l1_mshr(&mut self, addr: Addr, complete: Cycle) {
        // Re-access merges into the placeholder; replace by draining it
        // would be wrong, so the MSHR file exposes no mutation — instead we
        // exploit that `access` on a present line returns Merged and the
        // entry keeps its original completion. To keep the API small we
        // rebuild the entry here.
        self.l1d_mshr.set_completion(addr, complete);
    }

    /// The L2-and-beyond path for a demand miss whose L2 access starts at
    /// `start`. Returns the serviced level and the residual latency beyond
    /// the L1 load-to-use.
    fn l2_path(&mut self, addr: Addr, start: Cycle) -> (MemLevel, u64) {
        self.l2_stats.accesses += 1;
        if let Lookup::Hit { was_prefetch } = self.l2.lookup(addr) {
            self.l2_stats.hits += 1;
            if was_prefetch {
                self.l2_stats.prefetch_hits += 1;
            }
            return (MemLevel::L2, self.l2_latency);
        }
        self.l2_stats.misses += 1;
        match self.l2_mshr.access(addr, Cycle::NEVER, false) {
            MshrOutcome::Merged(complete) => {
                self.l2_stats.mshr_merges += 1;
                (MemLevel::Dram, self.l2_latency + complete.since(start))
            }
            MshrOutcome::Full(earliest) => {
                let wait = earliest.since(start);
                let dram_lat = self.dram.read(addr, start + wait + self.l2_latency);
                let residual = wait + self.l2_latency + dram_lat;
                (MemLevel::Dram, residual)
            }
            MshrOutcome::Allocated => {
                let dram_lat = self.dram.read(addr, start + self.l2_latency);
                let residual = self.l2_latency + dram_lat;
                self.l2_mshr.set_completion(addr, start + residual);
                (MemLevel::Dram, residual)
            }
        }
    }

    /// Issues a prefetch for `line` into the L2 at `now`.
    fn issue_prefetch(&mut self, line: Addr, now: Cycle) {
        if self.l2.probe(line) || self.l2_mshr.contains(line) {
            return;
        }
        self.l2_stats.prefetches += 1;
        if let MshrOutcome::Allocated = self.l2_mshr.access(line, Cycle::NEVER, true) {
            let dram_lat = self.dram.read(line, now + self.l2_latency);
            self.l2_mshr
                .set_completion(line, now + self.l2_latency + dram_lat);
        }
    }

    /// Applies a committed store: write-allocate into L1D and L2 with no
    /// latency modeling (the store queue and the dedicated write ports
    /// hide store latency; stores do not contend for the load banks —
    /// Table 1 provisions 2R/2W ports).
    pub fn store_commit(&mut self, addr: Addr, now: Cycle) {
        self.drain_fills(now);
        if !self.l1d.probe(addr) {
            if !self.l2.probe(addr) {
                self.l2.fill(addr, false);
            }
            self.l1d.fill(addr, false);
        } else {
            // refresh LRU
            let _ = self.l1d.lookup(addr);
        }
    }

    /// Fetches the instruction line containing `pc`; returns extra fetch
    /// cycles (0 on an L1I hit; kernels are tiny so misses are cold-only).
    pub fn icache_fetch(&mut self, pc: Pc, _now: Cycle) -> u64 {
        let addr = pc.as_addr();
        match self.l1i.lookup(addr) {
            Lookup::Hit { .. } => 0,
            Lookup::Miss => {
                self.l1i.fill(addr, false);
                self.l2_latency
            }
        }
    }

    /// Whether the line containing `addr` is currently in the L1D
    /// (test/diagnostic helper; does not touch LRU).
    pub fn l1d_contains(&self, addr: Addr) -> bool {
        self.l1d.probe(addr)
    }

    /// The L1D bank `addr` maps to, when the L1D is banked.
    pub fn l1d_bank(&self, addr: Addr) -> Option<u32> {
        self.bank.as_ref().map(|b| b.bank_of(addr))
    }

    /// Copies the hierarchy's counters into the simulation stats block.
    pub fn export_into(&self, stats: &mut SimStats) {
        stats.l1d = self.l1d_stats;
        stats.l2 = self.l2_stats;
        if let Some(b) = &self.bank {
            stats.bank_delayed_loads = b.delayed_accesses;
            stats.bank_delay_cycles = b.delay_cycles;
        }
        stats.dram_row_hits = self.dram.row_hits;
        stats.dram_row_misses = self.dram.row_misses;
    }
}

impl ss_types::persist::PersistState for MemoryHierarchy {
    fn save_state(&self, w: &mut ss_types::persist::Writer) {
        use ss_types::persist::Persist;
        self.l1i.save_state(w);
        self.l1d.save_state(w);
        self.l1d_mshr.save_state(w);
        self.bank.is_some().save(w);
        if let Some(bank) = &self.bank {
            bank.save_state(w);
        }
        self.l2.save_state(w);
        self.l2_mshr.save_state(w);
        self.prefetcher.save_state(w);
        self.dram.save_state(w);
        self.l1d_stats.save(w);
        self.l2_stats.save(w);
    }
    fn restore_state(
        &mut self,
        r: &mut ss_types::persist::Reader<'_>,
    ) -> Result<(), ss_types::persist::DecodeError> {
        use ss_types::persist::Persist;
        self.l1i.restore_state(r)?;
        self.l1d.restore_state(r)?;
        self.l1d_mshr.restore_state(r)?;
        let has_bank = bool::load(r)?;
        match (&mut self.bank, has_bank) {
            (Some(bank), true) => bank.restore_state(r)?,
            (None, false) => {}
            _ => {
                return Err(r.err("L1D banking presence mismatch between snapshot and config"));
            }
        }
        self.l2.restore_state(r)?;
        self.l2_mshr.restore_state(r)?;
        self.prefetcher.restore_state(r)?;
        self.dram.restore_state(r)?;
        self.l1d_stats = ss_types::CacheStats::load(r)?;
        self.l2_stats = ss_types::CacheStats::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::SimConfig;

    fn mem(banked: bool) -> MemoryHierarchy {
        let cfg = SimConfig::builder().banked_l1d(banked).build();
        MemoryHierarchy::new(&cfg)
    }

    fn pc() -> Pc {
        Pc::new(0x40_0000)
    }

    #[test]
    fn cold_load_goes_to_dram_then_hits() {
        let mut m = mem(false);
        let a = Addr::new(0x1_0000);
        let r = m.load(pc(), a, Cycle::new(10), false);
        assert_eq!(r.level, MemLevel::Dram);
        assert!(
            r.extra_latency >= 13 + 75,
            "L2 + DRAM minimum, got {}",
            r.extra_latency
        );
        // after the fill completes, the same line hits
        let done = Cycle::new(10) + r.extra_latency;
        let r2 = m.load(pc(), a, done + 1, false);
        assert_eq!(r2.level, MemLevel::L1);
        assert_eq!(r2.extra_latency, 0);
    }

    #[test]
    fn l2_hit_costs_l2_latency() {
        let mut m = mem(false);
        let a = Addr::new(0x2_0000);
        let r1 = m.load(pc(), a, Cycle::new(0), false);
        let warm = Cycle::new(0) + r1.extra_latency + 1;
        // fills land lazily on the next access: touch the line to drain
        let rh = m.load(pc(), a, warm, false);
        assert_eq!(rh.level, MemLevel::L1);
        assert!(m.l1d_contains(a));
        // Evict from L1 by filling 8 conflicting lines (8-way set).
        for w in 1..=8u64 {
            let conflict = Addr::new(0x2_0000 + w * 4096);
            let r = m.load(pc(), conflict, warm + w * 300, false);
            let _ = r;
        }
        let late = warm + 9 * 300;
        // the 9th fill drains inside this load and evicts `a` (LRU)
        let r2 = m.load(pc(), a, late, false);
        assert_eq!(r2.level, MemLevel::L2);
        assert_eq!(r2.extra_latency, 13);
    }

    #[test]
    fn secondary_miss_merges_into_mshr() {
        let mut m = mem(false);
        let a = Addr::new(0x3_0000);
        let r1 = m.load(pc(), a, Cycle::new(0), false);
        assert!(!r1.merged);
        // same line, 5 cycles later, fill still in flight
        let r2 = m.load(pc(), Addr::new(0x3_0008), Cycle::new(5), false);
        assert!(r2.merged);
        assert!(
            r2.extra_latency < r1.extra_latency,
            "merge waits only the residual: {} vs {}",
            r2.extra_latency,
            r1.extra_latency
        );
        assert_eq!(m.l1d_stats.mshr_merges, 1);
    }

    #[test]
    fn banked_l1d_delays_conflicting_pair() {
        let mut m = mem(true);
        // warm two lines, same bank (bit 3..6 equal), different sets
        let a = Addr::new(0x10_0000);
        let b = Addr::new(0x10_0000 + 512);
        let r = m.load(pc(), a, Cycle::new(0), false);
        let r2 = m.load(pc(), b, Cycle::new(1), false);
        let warm = Cycle::new(2) + r.extra_latency.max(r2.extra_latency);
        // now present both in the same cycle
        let ra = m.load(pc(), a, warm, false);
        let rb = m.load(pc(), b, warm, false);
        assert_eq!(ra.level, MemLevel::L1);
        assert_eq!(rb.level, MemLevel::L1);
        assert_eq!(ra.bank_delay, 0);
        assert_eq!(
            rb.bank_delay, 1,
            "same-bank different-set pair must conflict"
        );
        assert_eq!(rb.extra_latency, 1);
    }

    #[test]
    fn dual_ported_l1d_never_bank_delays() {
        let mut m = mem(false);
        let a = Addr::new(0x10_0000);
        let b = Addr::new(0x10_0000 + 512);
        let _ = m.load(pc(), a, Cycle::new(0), false);
        let _ = m.load(pc(), b, Cycle::new(0), false);
        let warm = Cycle::new(500);
        let ra = m.load(pc(), a, warm, false);
        let rb = m.load(pc(), b, warm, false);
        assert_eq!(ra.bank_delay, 0);
        assert_eq!(rb.bank_delay, 0);
    }

    #[test]
    fn streaming_loads_train_prefetcher_into_l2() {
        let mut m = mem(false);
        let mut now = Cycle::new(0);
        // stream lines; after training, later lines should be L2 hits
        let mut dram_count = 0;
        let mut l2_count = 0;
        for i in 0..64u64 {
            let a = Addr::new(0x100_0000 + i * 64);
            let r = m.load(pc(), a, now, false);
            now += 400; // far apart: fills complete
            match r.level {
                MemLevel::Dram => dram_count += 1,
                MemLevel::L2 => l2_count += 1,
                MemLevel::L1 => {}
            }
        }
        assert!(
            l2_count > 40,
            "prefetcher should convert DRAM misses to L2 hits: l2={l2_count} dram={dram_count}"
        );
        assert!(dram_count < 15);
        // Every L2 hit of the fresh stream is a line the prefetcher brought.
        assert_eq!(m.l2_stats.prefetch_hits, l2_count);
    }

    #[test]
    fn wrong_path_loads_do_not_mutate_state() {
        let mut m = mem(false);
        let a = Addr::new(0x5_0000);
        let r = m.load(pc(), a, Cycle::new(0), true);
        assert_eq!(r.level, MemLevel::Dram);
        assert_eq!(
            m.l1d_stats.accesses, 0,
            "wrong path must not count as demand"
        );
        assert!(!m.l1d_contains(a), "wrong path must not fill");
        // and it must not allocate MSHRs: a later correct-path load is a
        // fresh miss
        let r2 = m.load(pc(), a, Cycle::new(1), false);
        assert!(!r2.merged);
    }

    #[test]
    fn wrong_path_loads_consume_bank_slots() {
        let mut m = mem(true);
        let a = Addr::new(0x10_0000);
        let b = Addr::new(0x10_0000 + 512);
        let _ = m.load(pc(), a, Cycle::new(0), false);
        let _ = m.load(pc(), b, Cycle::new(1), false);
        let warm = Cycle::new(600);
        let _wrong = m.load(pc(), a, warm, true);
        let rb = m.load(pc(), b, warm, false);
        assert_eq!(rb.bank_delay, 1, "wrong-path access occupies the bank");
    }

    #[test]
    fn stores_write_allocate_without_latency() {
        let mut m = mem(false);
        let a = Addr::new(0x6_0000);
        m.store_commit(a, Cycle::new(0));
        assert!(m.l1d_contains(a));
        let r = m.load(pc(), a, Cycle::new(1), false);
        assert_eq!(r.level, MemLevel::L1);
    }

    #[test]
    fn icache_cold_miss_then_hits() {
        let mut m = mem(false);
        assert_eq!(m.icache_fetch(Pc::new(0x40_0000), Cycle::new(0)), 13);
        assert_eq!(
            m.icache_fetch(Pc::new(0x40_0010), Cycle::new(1)),
            0,
            "same line"
        );
    }

    #[test]
    fn export_copies_counters() {
        let mut m = mem(true);
        let _ = m.load(pc(), Addr::new(0x9_0000), Cycle::new(0), false);
        let mut s = SimStats::default();
        m.export_into(&mut s);
        assert_eq!(s.l1d.accesses, 1);
        assert_eq!(s.l1d.misses, 1);
    }
}
