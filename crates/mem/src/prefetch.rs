//! A PC-indexed stride prefetcher, degree 8, sitting at the L2 (Table 1).
//!
//! It observes the demand-miss stream (L1D misses), detects per-PC
//! constant strides with a small confidence counter, and, once confident,
//! emits prefetch requests for the next `degree` lines. Fills go into the
//! L2 only — the L1 still misses on first touch, which is exactly why the
//! paper's streaming benchmarks keep replaying under the Always-Hit policy
//! while their *performance* stays acceptable.

use ss_types::{Addr, Pc};

/// Entries in the stride table.
const TABLE_ENTRIES: usize = 256;
/// Confidence needed before prefetches are emitted.
const CONFIDENT: u8 = 2;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StrideEntry {
    tag: u32,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// The stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: u32,
    line_bytes: u64,
    /// Reusable burst buffer handed out by reference: `observe_miss` is
    /// on the per-L1-miss hot path and must not allocate in steady state.
    burst: Vec<Addr>,
}

impl StridePrefetcher {
    /// Creates a prefetcher of the given degree (0 disables it).
    pub fn new(degree: u32, line_bytes: u64) -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); TABLE_ENTRIES],
            degree,
            line_bytes,
            burst: Vec::with_capacity(degree as usize),
        }
    }

    /// Observes a demand L1 miss by the load at `pc` to `addr`; returns
    /// the line addresses to prefetch (empty while training or disabled).
    /// The slice borrows an internal buffer valid until the next call.
    pub fn observe_miss(&mut self, pc: Pc, addr: Addr) -> &[Addr] {
        self.burst.clear();
        if self.degree == 0 {
            return &self.burst;
        }
        let idx = (pc.get() >> 2) as usize % TABLE_ENTRIES;
        let tag = (pc.get() >> 2) as u32;
        let e = &mut self.table[idx];
        if e.tag != tag {
            *e = StrideEntry {
                tag,
                last_addr: addr.get(),
                stride: 0,
                confidence: 0,
            };
            return &self.burst;
        }
        let new_stride = addr.get() as i64 - e.last_addr as i64;
        if new_stride == e.stride && new_stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            e.stride = new_stride;
        }
        e.last_addr = addr.get();
        if e.confidence >= CONFIDENT {
            // Prefetch the next `degree` *lines* along the stride.
            let stride_lines = if e.stride.unsigned_abs() < self.line_bytes {
                self.line_bytes as i64 * e.stride.signum()
            } else {
                e.stride
            };
            for k in 1..=self.degree as i64 {
                let target = addr.get() as i64 + stride_lines * k;
                if target >= 0 {
                    self.burst
                        .push(Addr::new(target as u64).line(self.line_bytes));
                }
            }
        }
        &self.burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(8, 64)
    }

    #[test]
    fn trains_then_prefetches_degree_lines() {
        let mut p = pf();
        let pc = Pc::new(0x400);
        assert!(
            p.observe_miss(pc, Addr::new(0)).is_empty(),
            "first touch: allocate"
        );
        assert!(
            p.observe_miss(pc, Addr::new(64)).is_empty(),
            "stride learned, conf 1"
        );
        assert!(
            p.observe_miss(pc, Addr::new(128)).is_empty(),
            "conf 2? needs repeat"
        );
        let out = p.observe_miss(pc, Addr::new(192));
        assert_eq!(out.len(), 8, "confident: degree-8 burst");
        assert_eq!(out[0], Addr::new(256));
        assert_eq!(out[7], Addr::new(64 * 11));
    }

    #[test]
    fn sub_line_strides_prefetch_whole_lines() {
        let mut p = pf();
        let pc = Pc::new(0x404);
        for i in 0..4u64 {
            let _ = p.observe_miss(pc, Addr::new(i * 8));
        }
        let out = p.observe_miss(pc, Addr::new(32));
        assert!(!out.is_empty());
        assert_eq!(
            out[0],
            Addr::new(64),
            "sub-line stride promoted to line stride"
        );
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = pf();
        let pc = Pc::new(0x408);
        for i in (4..8u64).rev() {
            let _ = p.observe_miss(pc, Addr::new(i * 64 + 4096));
        }
        let out = p.observe_miss(pc, Addr::new(3 * 64 + 4096));
        assert!(!out.is_empty());
        assert_eq!(out[0], Addr::new(2 * 64 + 4096));
    }

    #[test]
    fn random_pattern_never_confident() {
        let mut p = pf();
        let pc = Pc::new(0x40C);
        let addrs = [0u64, 9000, 130, 77777, 42, 55555, 900, 123456];
        let mut total = 0;
        for &a in &addrs {
            total += p.observe_miss(pc, Addr::new(a)).len();
        }
        assert_eq!(total, 0, "no prefetches for a random stream");
    }

    #[test]
    fn degree_zero_is_disabled() {
        let mut p = StridePrefetcher::new(0, 64);
        let pc = Pc::new(0x410);
        for i in 0..10u64 {
            assert!(p.observe_miss(pc, Addr::new(i * 64)).is_empty());
        }
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut p = pf();
        for i in 0..4u64 {
            let _ = p.observe_miss(Pc::new(0x500), Addr::new(i * 64));
            let _ = p.observe_miss(Pc::new(0x504), Addr::new(1 << 20 | (i * 128)));
        }
        let o1 = p.observe_miss(Pc::new(0x500), Addr::new(4 * 64))[0];
        assert_eq!(o1, Addr::new(5 * 64));
        let o2 = p.observe_miss(Pc::new(0x504), Addr::new(1 << 20 | (4 * 128)))[0];
        assert_eq!(o2, Addr::new(1 << 20 | (4 * 128 + 128)));
    }
}

ss_types::impl_persist!(StrideEntry {
    tag,
    last_addr,
    stride,
    confidence
});
ss_types::impl_persist_state!(StridePrefetcher { table });
