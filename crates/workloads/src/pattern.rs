//! Address-pattern generators.
//!
//! Each static load/store in a kernel body references one [`AddrPattern`];
//! the engine keeps per-pattern state and asks for the next effective
//! address on each dynamic instance. Patterns are deterministic given the
//! kernel seed.

use ss_types::rng::Xoshiro256;
use ss_types::Addr;

/// Alignment applied to every generated address (8B keeps accesses inside
/// one quadword bank).
const ALIGN: u64 = 8;

/// A recipe for the address sequence of one static memory µ-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// Constant stride within a wrapping footprint: `addr += stride` mod
    /// footprint, starting at `phase`. `stride = 64` streams one cache
    /// line per access (pure streaming); `stride = 8` touches each line 8
    /// times. Two lock-step patterns whose phases differ by a multiple of
    /// 64 bytes (but not of the footprint) hit the *same L1D bank in
    /// different sets* every access — the bank-conflict generator used by
    /// the Figure 4/5 kernels.
    Stride {
        /// Byte stride between consecutive accesses.
        stride: i64,
        /// Region size in bytes (power of two); addresses wrap within it.
        footprint: u64,
        /// Initial offset within the footprint.
        phase: u64,
    },
    /// Pointer-chase: the next address is a pseudo-random function of the
    /// current one, uniform within the footprint. Models linked-data
    /// traversal; pair with a load whose address register is its own
    /// destination to serialize the chain.
    Chase {
        /// Region size in bytes (power of two).
        footprint: u64,
    },
    /// Independent uniform-random address per access.
    Uniform {
        /// Region size in bytes (power of two).
        footprint: u64,
    },
    /// Mostly-hot bimodal pattern: with probability `hot_pct`% the access
    /// falls in a small hot region (L1-resident), otherwise in a large
    /// cold region. Produces per-PC *unstable* hit/miss behaviour — the
    /// case the filter's silencing bit exists for.
    HotCold {
        /// Percentage (0–100) of accesses to the hot region.
        hot_pct: u8,
        /// Hot-region size in bytes (power of two).
        hot_footprint: u64,
        /// Cold-region size in bytes (power of two).
        cold_footprint: u64,
    },
}

impl AddrPattern {
    /// A line-granular streaming pattern over `footprint` bytes.
    pub const fn stream(footprint: u64) -> Self {
        AddrPattern::Stride {
            stride: 64,
            footprint,
            phase: 0,
        }
    }

    /// Validates the pattern parameters.
    ///
    /// # Panics
    ///
    /// Panics if a footprint is zero or not a power of two, or if
    /// `hot_pct > 100`.
    pub fn validate(&self) {
        let check = |fp: u64| {
            assert!(
                fp.is_power_of_two() && fp >= 64,
                "footprint {fp} must be a power of two >= 64"
            );
        };
        match *self {
            AddrPattern::Stride {
                footprint, phase, ..
            } => {
                check(footprint);
                assert!(phase < footprint, "phase must lie within the footprint");
            }
            AddrPattern::Chase { footprint } | AddrPattern::Uniform { footprint } => {
                check(footprint)
            }
            AddrPattern::HotCold {
                hot_pct,
                hot_footprint,
                cold_footprint,
            } => {
                assert!(hot_pct <= 100, "hot_pct must be a percentage");
                check(hot_footprint);
                check(cold_footprint);
            }
        }
    }
}

/// Runtime state for one pattern instance: its base region and cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternState {
    pattern: AddrPattern,
    base: Addr,
    cursor: u64,
    last: u64,
    rng: Xoshiro256,
}

impl PatternState {
    /// Creates pattern state rooted at `base`, seeded deterministically.
    pub fn new(pattern: AddrPattern, base: Addr, seed: u64) -> Self {
        pattern.validate();
        let cursor = match pattern {
            AddrPattern::Stride { phase, .. } => phase,
            _ => 0,
        };
        PatternState {
            pattern,
            base,
            cursor,
            last: cursor,
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// The pattern this state advances.
    pub fn pattern(&self) -> AddrPattern {
        self.pattern
    }

    /// Produces the next effective address.
    pub fn next_addr(&mut self) -> Addr {
        let a = match self.pattern {
            AddrPattern::Stride {
                stride, footprint, ..
            } => {
                let a = self.cursor;
                self.cursor = self.cursor.wrapping_add(stride as u64) & (footprint - 1);
                a
            }
            AddrPattern::Chase { footprint } => {
                // SplitMix-style scramble of the cursor keeps the walk
                // uniform and deterministic.
                let mut z = self.cursor.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                self.cursor = z;
                z & (footprint - 1)
            }
            AddrPattern::Uniform { footprint } => self.rng.next_u64() & (footprint - 1),
            AddrPattern::HotCold {
                hot_pct,
                hot_footprint,
                cold_footprint,
            } => {
                if self.rng.percent() < hot_pct {
                    self.rng.next_u64() & (hot_footprint - 1)
                } else {
                    self.rng.next_u64() & (cold_footprint - 1)
                }
            }
        };
        self.last = a & !(ALIGN - 1);
        self.base + self.last
    }

    /// The address most recently returned by [`PatternState::next_addr`]
    /// (the region base before any access). Lets kernels express
    /// read-after-write aliasing: a `StoreLast`/`LoadLast` touches the
    /// same location as the previous access of the pattern.
    pub fn last_addr(&self) -> Addr {
        self.base + self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(p: AddrPattern) -> PatternState {
        PatternState::new(p, Addr::new(0x1000_0000), 42)
    }

    #[test]
    fn stride_advances_and_wraps() {
        let mut s = state(AddrPattern::Stride {
            stride: 64,
            footprint: 256,
            phase: 0,
        });
        let addrs: Vec<u64> = (0..6).map(|_| s.next_addr().get()).collect();
        assert_eq!(
            addrs,
            vec![
                0x1000_0000,
                0x1000_0040,
                0x1000_0080,
                0x1000_00C0,
                0x1000_0000,
                0x1000_0040
            ]
        );
    }

    #[test]
    fn negative_stride_wraps_within_footprint() {
        let mut s = state(AddrPattern::Stride {
            stride: -64,
            footprint: 256,
            phase: 0,
        });
        let a0 = s.next_addr().get();
        let a1 = s.next_addr().get();
        assert_eq!(a0, 0x1000_0000);
        assert_eq!(a1, 0x1000_00C0); // wrapped backwards
    }

    #[test]
    fn addresses_stay_in_region_and_aligned() {
        for p in [
            AddrPattern::Chase { footprint: 1 << 20 },
            AddrPattern::Uniform { footprint: 1 << 16 },
            AddrPattern::HotCold {
                hot_pct: 90,
                hot_footprint: 1 << 12,
                cold_footprint: 1 << 24,
            },
        ] {
            let mut s = state(p);
            for _ in 0..1000 {
                let a = s.next_addr().get();
                assert!(a >= 0x1000_0000);
                assert!(a < 0x1000_0000 + (1 << 24) + (1 << 20));
                assert_eq!(a % ALIGN, 0, "addresses must be 8B-aligned");
            }
        }
    }

    #[test]
    fn chase_is_deterministic() {
        let mut a = state(AddrPattern::Chase { footprint: 1 << 20 });
        let mut b = state(AddrPattern::Chase { footprint: 1 << 20 });
        for _ in 0..100 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }

    #[test]
    fn chase_covers_many_lines() {
        let mut s = state(AddrPattern::Chase { footprint: 1 << 22 });
        let mut lines = std::collections::HashSet::new();
        for _ in 0..1000 {
            lines.insert(s.next_addr().line(64));
        }
        assert!(
            lines.len() > 900,
            "chase should rarely revisit lines, got {}",
            lines.len()
        );
    }

    #[test]
    fn hot_cold_ratio_roughly_holds() {
        let mut s = state(AddrPattern::HotCold {
            hot_pct: 80,
            hot_footprint: 1 << 12,
            cold_footprint: 1 << 26,
        });
        let mut hot = 0;
        for _ in 0..10_000 {
            if s.next_addr().get() < 0x1000_0000 + (1 << 12) {
                hot += 1;
            }
        }
        // hot region is a subset of cold, so hot fraction is >= 80%
        assert!((7800..=10_000).contains(&hot), "hot count {hot}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_footprint_rejected() {
        AddrPattern::Uniform { footprint: 48 }.validate();
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn bad_hot_pct_rejected() {
        AddrPattern::HotCold {
            hot_pct: 101,
            hot_footprint: 64,
            cold_footprint: 64,
        }
        .validate();
    }
}

impl ss_types::persist::Persist for AddrPattern {
    fn save(&self, w: &mut ss_types::persist::Writer) {
        match *self {
            AddrPattern::Stride {
                stride,
                footprint,
                phase,
            } => {
                0u8.save(w);
                stride.save(w);
                footprint.save(w);
                phase.save(w);
            }
            AddrPattern::Chase { footprint } => {
                1u8.save(w);
                footprint.save(w);
            }
            AddrPattern::Uniform { footprint } => {
                2u8.save(w);
                footprint.save(w);
            }
            AddrPattern::HotCold {
                hot_pct,
                hot_footprint,
                cold_footprint,
            } => {
                3u8.save(w);
                hot_pct.save(w);
                hot_footprint.save(w);
                cold_footprint.save(w);
            }
        }
    }
    fn load(r: &mut ss_types::persist::Reader<'_>) -> Result<Self, ss_types::persist::DecodeError> {
        let pattern = match u8::load(r)? {
            0 => AddrPattern::Stride {
                stride: i64::load(r)?,
                footprint: u64::load(r)?,
                phase: u64::load(r)?,
            },
            1 => AddrPattern::Chase {
                footprint: u64::load(r)?,
            },
            2 => AddrPattern::Uniform {
                footprint: u64::load(r)?,
            },
            3 => AddrPattern::HotCold {
                hot_pct: u8::load(r)?,
                hot_footprint: u64::load(r)?,
                cold_footprint: u64::load(r)?,
            },
            t => return Err(r.err(format_args!("invalid AddrPattern tag {t}"))),
        };
        // `validate` panics on bad parameters; decode must reject instead.
        let ok = match pattern {
            AddrPattern::Stride {
                footprint, phase, ..
            } => footprint.is_power_of_two() && footprint >= 64 && phase < footprint,
            AddrPattern::Chase { footprint } | AddrPattern::Uniform { footprint } => {
                footprint.is_power_of_two() && footprint >= 64
            }
            AddrPattern::HotCold {
                hot_pct,
                hot_footprint,
                cold_footprint,
            } => {
                hot_pct <= 100
                    && hot_footprint.is_power_of_two()
                    && hot_footprint >= 64
                    && cold_footprint.is_power_of_two()
                    && cold_footprint >= 64
            }
        };
        if !ok {
            return Err(r.err("invalid AddrPattern parameters"));
        }
        Ok(pattern)
    }
}

ss_types::impl_persist!(PatternState {
    pattern,
    base,
    cursor,
    last,
    rng
});
