//! A DDR3-1600-style main-memory timing model (Table 1): single channel,
//! 2 ranks × 8 banks, 8 KB row buffers, 8B data bus. Read latency spans
//! the paper's 75-cycle minimum (idle bank, open row) to ~185 cycles
//! (row conflict plus bus/bank queueing).

use ss_types::{Addr, Cycle, DramConfig};

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// The DRAM channel model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Data-bus free time (single shared bus).
    bus_free: Cycle,
    /// Row-buffer hit counter.
    pub row_hits: u64,
    /// Row-buffer miss/conflict counter.
    pub row_misses: u64,
}

impl Dram {
    /// Creates the channel from its timing config.
    pub fn new(cfg: DramConfig) -> Self {
        let n = (cfg.ranks * cfg.banks_per_rank) as usize;
        Dram {
            cfg,
            banks: vec![Bank::default(); n],
            bus_free: Cycle::ZERO,
            row_hits: 0,
            row_misses: 0,
        }
    }

    fn map(&self, addr: Addr) -> (usize, u64) {
        // Row-interleaved mapping: consecutive rows rotate across banks,
        // so streaming accesses spread over banks while each row captures
        // spatial locality.
        let row_global = addr.get() / self.cfg.row_bytes;
        let nbanks = self.banks.len() as u64;
        ((row_global % nbanks) as usize, row_global / nbanks)
    }

    /// Issues a read for the line containing `addr` at `now`; returns the
    /// total latency in cycles until the line is delivered.
    pub fn read(&mut self, addr: Addr, now: Cycle) -> u64 {
        let (bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];

        // Wait for the bank and the shared bus.
        let start = now
            .get()
            .max(bank.busy_until.get())
            .max(self.bus_free.get());
        let mut latency = start - now.get();

        let (base, occupancy) = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                // Row hit: the bank is only occupied for the burst, so
                // open-row streaming is bus-limited, not latency-limited.
                (self.cfg.row_hit_cycles, self.cfg.bus_cycles_per_line)
            }
            Some(_) => {
                self.row_misses += 1;
                (
                    self.cfg.row_hit_cycles + self.cfg.row_conflict_extra_cycles,
                    self.cfg.row_conflict_extra_cycles + self.cfg.bus_cycles_per_line,
                )
            }
            None => {
                self.row_misses += 1;
                (
                    self.cfg.row_hit_cycles + self.cfg.row_miss_extra_cycles,
                    self.cfg.row_miss_extra_cycles + self.cfg.bus_cycles_per_line,
                )
            }
        };
        latency += base;
        bank.open_row = Some(row);
        bank.busy_until = Cycle::new(start) + occupancy;
        self.bus_free = Cycle::new(start) + self.cfg.bus_cycles_per_line;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn first_access_pays_row_activation() {
        let mut d = dram();
        let lat = d.read(Addr::new(0x10000), Cycle::new(0));
        assert_eq!(lat, 75 + 55, "cold bank: activate + read");
        assert_eq!(d.row_misses, 1);
    }

    #[test]
    fn open_row_hit_is_minimum_latency() {
        let mut d = dram();
        let _ = d.read(Addr::new(0x10000), Cycle::new(0));
        // same row, later (bank and bus idle again)
        let lat = d.read(Addr::new(0x10040), Cycle::new(1000));
        assert_eq!(
            lat, 75,
            "row-buffer hit is the paper's minimum read latency"
        );
        assert_eq!(d.row_hits, 1);
    }

    #[test]
    fn row_conflict_costs_more() {
        let mut d = dram();
        let row_bytes = DramConfig::default().row_bytes;
        let nbanks = 16;
        let a = Addr::new(0);
        let b = Addr::new(row_bytes * nbanks); // same bank, different row
        let _ = d.read(a, Cycle::new(0));
        let lat = d.read(b, Cycle::new(1000));
        assert_eq!(
            lat, 185,
            "isolated row conflict = the paper's max read latency"
        );
    }

    #[test]
    fn back_to_back_same_bank_queues() {
        let mut d = dram();
        let _ = d.read(Addr::new(0), Cycle::new(0)); // occupies bank+bus
        let lat = d.read(Addr::new(64), Cycle::new(1)); // same row, bank busy
        assert!(lat > 75, "bank/bus queueing must add latency, got {lat}");
        assert!(
            lat <= 75 + 55 + 20,
            "bounded by occupancy + row hit, got {lat}"
        );
    }

    #[test]
    fn open_row_streaming_is_bus_limited() {
        // Consecutive row hits should stream at ~bus_cycles_per_line, not
        // serialize at the full read latency.
        let mut d = dram();
        let _ = d.read(Addr::new(0), Cycle::new(0)); // activate
        let mut worst = 0;
        for i in 1..20u64 {
            worst = worst.max(d.read(Addr::new(i * 64), Cycle::new(1000 + i * 20)));
        }
        assert!(
            worst <= 75 + 20,
            "streaming latency must stay near row-hit, got {worst}"
        );
    }

    #[test]
    fn isolated_latencies_span_paper_range() {
        // Unloaded latencies must span the paper's [75, 185] read range.
        let mut d = dram();
        let row_bytes = DramConfig::default().row_bytes;
        let cold = d.read(Addr::new(0), Cycle::new(0));
        let hit = d.read(Addr::new(64), Cycle::new(1000));
        let conflict = d.read(Addr::new(row_bytes * 16), Cycle::new(2000));
        assert_eq!(hit, 75);
        assert_eq!(conflict, 185);
        assert!(cold > hit && cold < conflict);
    }

    #[test]
    fn same_bank_burst_serializes() {
        // Back-to-back conflicting reads queue behind the busy bank; the
        // k-th access waits roughly k full conflict latencies.
        let mut d = dram();
        let row_bytes = DramConfig::default().row_bytes;
        let mut last = 0;
        for i in 0..4u64 {
            let addr = Addr::new(i * row_bytes * 16); // same bank, diff rows
            last = d.read(addr, Cycle::new(i));
        }
        assert!(last > 3 * 130, "burst must serialize, got {last}");
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dram();
        let _ = d.read(Addr::new(0), Cycle::new(0));
        // next row maps to the next bank; only the shared bus serializes
        let lat = d.read(Addr::new(8192), Cycle::new(0));
        assert!(
            lat < 75 + 55 + 55,
            "bank-parallel access must not serialize fully: {lat}"
        );
    }

    #[test]
    fn streaming_rows_rotate_banks() {
        let d = dram();
        let (b0, _) = d.map(Addr::new(0));
        let (b1, _) = d.map(Addr::new(8192));
        assert_ne!(b0, b1);
    }
}

ss_types::impl_persist!(Bank {
    open_row,
    busy_until
});
ss_types::impl_persist_state!(Dram {
    banks,
    bus_free,
    row_hits,
    row_misses
});
