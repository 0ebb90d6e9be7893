//! Simulation statistics.
//!
//! [`SimStats`] is the single statistics block filled in by the pipeline
//! and read by every experiment. It carries the paper's issue breakdown
//! (`Unique`, `RpldMiss`, `RpldBank` — Figure 4b) plus cache, branch,
//! scheduling-policy and replay-event counters.

use crate::replay::ReplayCause;
use std::fmt;
use std::fmt::Write as _;

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (excludes prefetches).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Misses merged into an already-outstanding MSHR.
    pub mshr_merges: u64,
    /// Prefetch requests issued from this level.
    pub prefetches: u64,
    /// Demand hits on lines brought in by the prefetcher.
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Full statistics for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    // ---- progress ----
    /// Cycles simulated (excluding warmup if the runner resets stats).
    pub cycles: u64,
    /// Correct-path µ-ops committed.
    pub committed_uops: u64,
    /// Correct-path loads committed.
    pub committed_loads: u64,

    // ---- issue breakdown (Figure 4b taxonomy) ----
    /// Distinct µ-ops that issued at least once (correct + wrong path);
    /// the paper's `Unique`.
    pub unique_issued: u64,
    /// Total issue events (unique + every re-issue).
    pub issued_total: u64,
    /// µ-ops squashed-and-replayed attributed to an L1 miss (`RpldMiss`).
    pub replayed_miss: u64,
    /// µ-ops squashed-and-replayed attributed to an L1 bank conflict
    /// (`RpldBank`).
    pub replayed_bank: u64,
    /// µ-ops squashed-and-replayed attributed to a PRF read-port conflict
    /// (only with the optional banked-PRF model).
    pub replayed_prf: u64,
    /// Replay events (squash-the-window occurrences) per cause.
    pub replay_events_miss: u64,
    /// Replay events attributed to bank conflicts.
    pub replay_events_bank: u64,
    /// Replay events attributed to PRF conflicts.
    pub replay_events_prf: u64,
    /// Wrong-path µ-ops that issued (subset of `unique_issued`).
    pub wrong_path_issued: u64,

    // ---- branches ----
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// Conditional branches whose direction was mispredicted.
    pub cond_mispredicts: u64,
    /// Branches (any kind) whose target was mispredicted.
    pub target_mispredicts: u64,

    // ---- memory ----
    /// L1D statistics (demand loads on the correct path).
    pub l1d: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Loads whose L1D access was delayed by at least one cycle due to a
    /// bank conflict.
    pub bank_delayed_loads: u64,
    /// Total cycles of bank-conflict queueing across all loads.
    pub bank_delay_cycles: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses/conflicts.
    pub dram_row_misses: u64,

    // ---- scheduling policy decisions ----
    /// Loads whose dependents were woken speculatively (predicted hit).
    pub loads_spec_woken: u64,
    /// Loads whose dependents were held until the hit/miss signal.
    pub loads_conservative: u64,
    /// Loads the per-PC filter called a sure hit.
    pub filter_sure_hit: u64,
    /// Loads the per-PC filter called a sure miss.
    pub filter_sure_miss: u64,
    /// Loads with silenced (unstable) filter entries, deferred to the
    /// global counter / criticality.
    pub filter_unstable: u64,
    /// Loads predicted critical by the criticality table.
    pub crit_predicted_critical: u64,
    /// Loads predicted non-critical.
    pub crit_predicted_noncritical: u64,

    // ---- memory dependence ----
    /// Memory-order violations (a load executed before an older aliasing
    /// store; Store Sets training events).
    pub memdep_violations: u64,

    // ---- window pressure ----
    /// Cycles in which dispatch stalled for lack of ROB/IQ/LSQ/PRF space.
    pub dispatch_stall_cycles: u64,
    /// µ-ops replayed out of the recovery buffer.
    pub recovery_buffer_replays: u64,

    // ---- robustness ----
    /// Faults injected by an active fault plan (latency spikes,
    /// bank-conflict bursts, replay storms).
    pub faults_injected: u64,
}

/// Names every counter of [`SimStats`] once, in wire order: the
/// top-level counters below, then each cache counter as
/// `l1d.{name}` and `l2.{name}`. Both accessors destructure with no
/// `..`, so a new field does not compile until it is listed here, and
/// with it the wire line, the golden file, the `Persist` encoding and
/// [`SimStats::delta`] carry it.
macro_rules! counters {
    (sim { $($f:ident),* $(,)? } cache { $($c:ident),* $(,)? }) => {
        impl SimStats {
            /// Number of counters, cache levels included.
            pub const COUNTERS: usize =
                [$(stringify!($f)),*].len() + 2 * [$(stringify!($c)),*].len();

            /// Every counter with its name, in wire order.
            pub fn counters(&self) -> [(&'static str, u64); Self::COUNTERS] {
                let SimStats { $($f,)* l1d, l2 } = self;
                let (CacheStats { $($c: _),* }, CacheStats { $($c: _),* }) = (l1d, l2);
                [
                    $((stringify!($f), *$f),)*
                    $(
                        (concat!("l1d.", stringify!($c)), l1d.$c),
                        (concat!("l2.", stringify!($c)), l2.$c),
                    )*
                ]
            }

            /// [`Self::counters`], writable.
            pub(crate) fn counters_mut(&mut self) -> [(&'static str, &mut u64); Self::COUNTERS] {
                let SimStats { $($f,)* l1d, l2 } = self;
                [
                    $((stringify!($f), $f),)*
                    $(
                        (concat!("l1d.", stringify!($c)), &mut l1d.$c),
                        (concat!("l2.", stringify!($c)), &mut l2.$c),
                    )*
                ]
            }
        }
    };
}

counters! {
    sim {
        cycles, committed_uops, committed_loads, unique_issued, issued_total, replayed_miss,
        replayed_bank, replayed_prf, replay_events_miss, replay_events_bank, replay_events_prf,
        wrong_path_issued, cond_branches, cond_mispredicts, target_mispredicts,
        bank_delayed_loads, bank_delay_cycles, dram_row_hits, dram_row_misses, loads_spec_woken,
        loads_conservative, filter_sure_hit, filter_sure_miss, filter_unstable,
        crit_predicted_critical, crit_predicted_noncritical, memdep_violations,
        dispatch_stall_cycles, recovery_buffer_replays, faults_injected,
    }
    cache { accesses, hits, misses, mshr_merges, prefetches, prefetch_hits }
}

impl SimStats {
    /// The statistics as `name=value` tokens in wire order, leaving out
    /// every zero counter (absent means 0): the form
    /// `tests/golden/stats.txt` pins. [`stats_to_wire`] is the same text
    /// with the zeros kept.
    pub fn sparse_text(&self) -> String {
        self.text(false)
    }

    fn text(&self, zeros: bool) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in self.counters() {
            if zeros || v != 0 {
                let _ = write!(out, " {name}={v}");
            }
        }
        if !out.is_empty() {
            out.remove(0);
        }
        out
    }

    /// Parses `name=value` tokens back into statistics, a counter absent
    /// from `text` being 0 (so it reads [`Self::sparse_text`] and the
    /// wire line alike).
    ///
    /// # Errors
    ///
    /// The first bad token, saying whether it names no counter, repeats
    /// one, or holds no number.
    pub fn parse_text(text: &str) -> Result<SimStats, String> {
        let mut s = SimStats::default();
        let mut seen = [false; Self::COUNTERS];
        let fields = s.counters_mut();
        for token in text.split_whitespace() {
            let (k, v) = token.split_once('=').unwrap_or((token, ""));
            let Some(i) = fields.iter().position(|(name, _)| *name == k) else {
                return Err(format!("unknown counter `{token}`"));
            };
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("repeated counter `{token}`"));
            }
            *fields[i].1 = v.parse().map_err(|_| format!("no number in `{token}`"))?;
        }
        Ok(s)
    }
}

/// Serializes statistics as one `k=v ...` wire line (the `done` payload
/// of `experiments serve`): every counter of [`SimStats::counters`], in
/// that order.
pub fn stats_to_wire(s: &SimStats) -> String {
    s.text(true)
}

/// Parses a wire line back into statistics. `None` unless the line holds
/// every counter exactly once and nothing else.
pub fn stats_from_wire(line: &str) -> Option<SimStats> {
    let s = SimStats::parse_text(line).ok()?;
    (line.split_whitespace().count() == SimStats::COUNTERS).then_some(s)
}

/// Counter-wise sum, for totals over several runs: the sibling of
/// [`SimStats::delta`].
impl std::ops::AddAssign<&SimStats> for SimStats {
    fn add_assign(&mut self, other: &SimStats) {
        for ((_, a), (_, b)) in self.counters_mut().into_iter().zip(other.counters()) {
            *a += b;
        }
    }
}

impl SimStats {
    /// Committed µ-ops per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Total replayed µ-ops across causes.
    pub fn replayed_total(&self) -> u64 {
        self.replayed_miss + self.replayed_bank + self.replayed_prf
    }

    /// Replayed µ-ops for one cause.
    pub fn replayed(&self, cause: ReplayCause) -> u64 {
        match cause {
            ReplayCause::L1Miss => self.replayed_miss,
            ReplayCause::BankConflict => self.replayed_bank,
            ReplayCause::PrfConflict => self.replayed_prf,
        }
    }

    /// Records replayed µ-ops against a cause.
    pub fn add_replayed(&mut self, cause: ReplayCause, n: u64) {
        match cause {
            ReplayCause::L1Miss => self.replayed_miss += n,
            ReplayCause::BankConflict => self.replayed_bank += n,
            ReplayCause::PrfConflict => self.replayed_prf += n,
        }
    }

    /// Records one replay event against a cause.
    pub fn add_replay_event(&mut self, cause: ReplayCause) {
        match cause {
            ReplayCause::L1Miss => self.replay_events_miss += 1,
            ReplayCause::BankConflict => self.replay_events_bank += 1,
            ReplayCause::PrfConflict => self.replay_events_prf += 1,
        }
    }

    /// Field-wise difference `self − earlier`: the statistics accumulated
    /// *after* the `earlier` snapshot was taken. Used to discard warmup.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any counter in `earlier` exceeds the
    /// corresponding counter in `self`.
    pub fn delta(&self, earlier: &SimStats) -> SimStats {
        let mut out = self.clone();
        for ((name, a), (_, b)) in out.counters_mut().into_iter().zip(earlier.counters()) {
            debug_assert!(*a >= b, "stats must be monotonic ({name}: {a} < {b})");
            *a -= b;
        }
        out
    }

    /// Issue events per committed µ-op — the pipeline-efficiency metric the
    /// paper's conclusion quotes ("13.4% decrease in the number of issued
    /// instructions").
    pub fn issued_per_committed(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            self.issued_total as f64 / self.committed_uops as f64
        }
    }

    /// Conditional-branch misprediction rate in `[0, 1]`.
    pub fn branch_mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Mispredictions per kilo-instruction (committed µ-ops).
    pub fn branch_mpki(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            1000.0 * self.cond_mispredicts as f64 / self.committed_uops as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles                {:>14}", self.cycles)?;
        writeln!(f, "committed µ-ops       {:>14}", self.committed_uops)?;
        writeln!(f, "IPC                   {:>14.3}", self.ipc())?;
        writeln!(f, "unique issued         {:>14}", self.unique_issued)?;
        writeln!(f, "issued total          {:>14}", self.issued_total)?;
        writeln!(f, "replayed (L1 miss)    {:>14}", self.replayed_miss)?;
        writeln!(f, "replayed (bank)       {:>14}", self.replayed_bank)?;
        writeln!(f, "wrong-path issued     {:>14}", self.wrong_path_issued)?;
        writeln!(
            f,
            "L1D miss ratio        {:>14.4}  ({} / {})",
            self.l1d.miss_ratio(),
            self.l1d.misses,
            self.l1d.accesses
        )?;
        writeln!(f, "L2 miss ratio         {:>14.4}", self.l2.miss_ratio())?;
        writeln!(f, "bank-delayed loads    {:>14}", self.bank_delayed_loads)?;
        writeln!(f, "branch MPKI           {:>14.2}", self.branch_mpki())?;
        write!(
            f,
            "issued / committed    {:>14.3}",
            self.issued_per_committed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.issued_per_committed(), 0.0);
        assert_eq!(s.branch_mispredict_rate(), 0.0);
    }

    #[test]
    fn ipc_computation() {
        let s = SimStats {
            cycles: 100,
            committed_uops: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn replay_accounting_by_cause() {
        let mut s = SimStats::default();
        s.add_replayed(ReplayCause::L1Miss, 10);
        s.add_replayed(ReplayCause::BankConflict, 4);
        s.add_replay_event(ReplayCause::L1Miss);
        assert_eq!(s.replayed(ReplayCause::L1Miss), 10);
        assert_eq!(s.replayed(ReplayCause::BankConflict), 4);
        assert_eq!(s.replayed_total(), 14);
        assert_eq!(s.replay_events_miss, 1);
        assert_eq!(s.replay_events_bank, 0);
    }

    #[test]
    fn cache_miss_ratio() {
        let c = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            ..Default::default()
        };
        assert!((c.miss_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn mpki() {
        let s = SimStats {
            committed_uops: 2000,
            cond_branches: 100,
            cond_mispredicts: 10,
            ..Default::default()
        };
        assert!((s.branch_mpki() - 5.0).abs() < 1e-12);
        assert!((s.branch_mispredict_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let early = SimStats {
            cycles: 100,
            committed_uops: 50,
            replayed_bank: 3,
            ..Default::default()
        };
        let late = SimStats {
            cycles: 300,
            committed_uops: 200,
            replayed_bank: 10,
            ..Default::default()
        };
        let d = late.delta(&early);
        assert_eq!(d.cycles, 200);
        assert_eq!(d.committed_uops, 150);
        assert_eq!(d.replayed_bank, 7);
        assert!((d.ipc() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_every_counter() {
        let mut a = SimStats::default();
        for (i, (_, c)) in a.counters_mut().into_iter().enumerate() {
            *c = i as u64;
        }
        let mut total = a.clone();
        total += &a;
        for (i, (name, c)) in total.counters().into_iter().enumerate() {
            assert_eq!(c, 2 * i as u64, "{name}");
        }
        assert_eq!(total.delta(&a), a);
    }

    #[test]
    fn display_mentions_key_fields() {
        let s = SimStats {
            cycles: 1,
            committed_uops: 2,
            ..Default::default()
        };
        let out = format!("{s}");
        assert!(out.contains("IPC"));
        assert!(out.contains("replayed (bank)"));
        assert!(out.contains("issued / committed"));
    }

    #[test]
    fn wire_stats_round_trip_preserves_all_fields() {
        let mut s = SimStats {
            cycles: 12_345,
            committed_uops: 678,
            ..Default::default()
        };
        s.l1d.misses = 9;
        s.l2.accesses = 11;
        let line = stats_to_wire(&s);
        assert!(line.contains("cycles=12345"), "{line}");
        let back = stats_from_wire(&line).expect("parses");
        assert_eq!(back, s);
    }

    /// Every field set to a distinct value, and its wire line as the
    /// codec writes it.
    fn distinct_stats() -> (SimStats, &'static str) {
        let s = SimStats {
            cycles: 1,
            committed_uops: 2,
            committed_loads: 3,
            unique_issued: 4,
            issued_total: 5,
            replayed_miss: 6,
            replayed_bank: 7,
            replayed_prf: 8,
            replay_events_miss: 9,
            replay_events_bank: 10,
            replay_events_prf: 11,
            wrong_path_issued: 12,
            cond_branches: 13,
            cond_mispredicts: 14,
            target_mispredicts: 15,
            bank_delayed_loads: 16,
            bank_delay_cycles: 17,
            dram_row_hits: 18,
            dram_row_misses: 19,
            loads_spec_woken: 20,
            loads_conservative: 21,
            filter_sure_hit: 22,
            filter_sure_miss: 23,
            filter_unstable: 24,
            crit_predicted_critical: 25,
            crit_predicted_noncritical: 26,
            memdep_violations: 27,
            dispatch_stall_cycles: 28,
            recovery_buffer_replays: 29,
            faults_injected: 30,
            l1d: CacheStats {
                accesses: 101,
                hits: 102,
                misses: 103,
                mshr_merges: 104,
                prefetches: 105,
                prefetch_hits: 106,
            },
            l2: CacheStats {
                accesses: 201,
                hits: 202,
                misses: 203,
                mshr_merges: 204,
                prefetches: 205,
                prefetch_hits: 206,
            },
        };
        let line = "cycles=1 committed_uops=2 committed_loads=3 unique_issued=4 \
            issued_total=5 replayed_miss=6 replayed_bank=7 replayed_prf=8 \
            replay_events_miss=9 replay_events_bank=10 replay_events_prf=11 \
            wrong_path_issued=12 cond_branches=13 cond_mispredicts=14 \
            target_mispredicts=15 bank_delayed_loads=16 bank_delay_cycles=17 \
            dram_row_hits=18 dram_row_misses=19 loads_spec_woken=20 \
            loads_conservative=21 filter_sure_hit=22 filter_sure_miss=23 \
            filter_unstable=24 crit_predicted_critical=25 \
            crit_predicted_noncritical=26 memdep_violations=27 \
            dispatch_stall_cycles=28 recovery_buffer_replays=29 \
            faults_injected=30 \
            l1d.accesses=101 l2.accesses=201 \
            l1d.hits=102 l2.hits=202 l1d.misses=103 l2.misses=203 \
            l1d.mshr_merges=104 l2.mshr_merges=204 l1d.prefetches=105 \
            l2.prefetches=205 l1d.prefetch_hits=106 l2.prefetch_hits=206";
        (s, line)
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let (s, line) = distinct_stats();
        assert_eq!(stats_to_wire(&s), line);
        assert_eq!(stats_from_wire(line), Some(s));
    }

    #[test]
    fn wire_reader_rejects_a_missing_repeated_or_unknown_field() {
        let (_, line) = distinct_stats();
        let tokens: Vec<&str> = line.split(' ').collect();
        for i in 0..tokens.len() {
            let mut short = tokens.clone();
            let dropped = short.remove(i);
            assert_eq!(
                stats_from_wire(&short.join(" ")),
                None,
                "a line without `{dropped}` must be rejected"
            );
            assert_eq!(
                stats_from_wire(&format!("{line} {dropped}")),
                None,
                "a line repeating `{dropped}` must be rejected"
            );
        }
        assert_eq!(stats_from_wire(&format!("{line} bogus=1")), None);
        assert_eq!(stats_from_wire("cycles=1 committed_uops=2"), None);
        assert_eq!(stats_from_wire(&line.replace("=30", "=x")), None);
    }

    #[test]
    fn sparse_text_leaves_out_zeros_and_reads_back() {
        let (s, line) = distinct_stats();
        assert_eq!(s.sparse_text(), line);
        let mut t = SimStats {
            cycles: 7,
            ..Default::default()
        };
        t.l2.hits = 3;
        assert_eq!(t.sparse_text(), "cycles=7 l2.hits=3");
        assert_eq!(SimStats::parse_text(&t.sparse_text()), Ok(t));
        assert_eq!(SimStats::parse_text(""), Ok(SimStats::default()));
        for (text, err) in [
            ("cycles=1 bogus=1", "unknown counter `bogus=1`"),
            ("cycles", "no number in `cycles`"),
            ("cycles=1 l2.hits=2 cycles=1", "repeated counter `cycles=1`"),
            ("cycles=1 l2.hits=x", "no number in `l2.hits=x`"),
            ("cycles=-1", "no number in `cycles=-1`"),
        ] {
            assert_eq!(SimStats::parse_text(text), Err(err.to_string()), "{text}");
        }
        assert_eq!(stats_from_wire("cycles=7 l2.hits=3"), None);
    }
}
