//! Machine configuration.
//!
//! [`SimConfig`] describes the whole simulated machine and defaults to the
//! paper's Table 1 configuration: a 4 GHz, 8-wide-frontend, 6-issue
//! superscalar with a 19-cycle fetch-to-commit pipeline and a 20-cycle
//! minimum branch misprediction penalty. Use [`SimConfig::builder`] to
//! derive variants (the paper's `Baseline_*` and `SpecSched_*` models).

use crate::error::SimError;
use crate::op::ExecPort;

/// Which wakeup policy drives speculative scheduling of load dependents.
///
/// These correspond to the paper's configurations (§3.1, §5):
/// `Baseline_*` uses [`Conservative`](SchedPolicyKind::Conservative);
/// `SpecSched_*` uses [`AlwaysHit`](SchedPolicyKind::AlwaysHit) unless a
/// filtering variant is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedPolicyKind {
    /// Never speculate on load latency: dependents are woken only once the
    /// hit/miss signal is known (one cycle before the data returns). This
    /// is the paper's `Baseline_*` scheduling.
    Conservative,
    /// Always assume loads hit in the L1 and wake dependents after
    /// load-to-use cycles (the paper's default `SpecSched_*` policy).
    #[default]
    AlwaysHit,
    /// Alpha-21264-style 4-bit global counter: speculate only while the
    /// counter's MSB says the recent window was miss-free
    /// (`SpecSched_*_Ctr`).
    GlobalCounter,
    /// Per-PC 2K-entry hit/miss filter with silencing bits, falling back to
    /// the global counter for loads with unstable behaviour
    /// (`SpecSched_*_Filter`).
    FilterAndCounter,
    /// Ablation: the per-PC filter with plain 2-bit counters and **no**
    /// silencing bit (predict from the counter MSB). Used by the AB1
    /// ablation bench to show why the silencing bit matters.
    FilterNoSilence,
    /// Criticality-gated policy (`SpecSched_*_Crit`): sure-hits (filter)
    /// always speculate; otherwise only loads predicted *critical* (by the
    /// 8K-entry ROB-head criticality table) speculate, arbitrated by the
    /// global counter; non-critical unstable loads are scheduled
    /// conservatively.
    Criticality,
}

impl SchedPolicyKind {
    /// Whether this policy can ever wake dependents speculatively.
    #[inline]
    pub const fn may_speculate(self) -> bool {
        !matches!(self, SchedPolicyKind::Conservative)
    }
}

/// How schedule misspeculations are repaired (paper §2.1). The paper's
/// own mechanisms (Shifting/filter/criticality) aim to be *agnostic* of
/// this choice; implementing all three lets the harness demonstrate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplayScheme {
    /// Alpha-21264-style: on a misspeculation, squash *everything*
    /// between Issue and Execute (independents included) and lose one
    /// issue cycle; squashed µ-ops replay from the recovery buffer.
    #[default]
    Squash,
    /// Pentium-4-style selective replay: only the µ-op that arrived at
    /// Execute without its operand recycles (a replay-loop turn);
    /// independent in-flight µ-ops continue unharmed and no issue cycle
    /// is lost.
    Selective,
    /// Treat the misspeculation like a branch misprediction: everything
    /// from the offending µ-op onward is squashed back to re-issue and
    /// the frontend stalls for a refetch-like penalty. The costly
    /// strawman the paper dismisses (§2.1).
    Refetch,
}

/// How the wakeup of the second load of an issue group is shifted to
/// tolerate L1D bank conflicts (§5.1 + the Yoaz-style alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShiftPolicy {
    /// No shifting: both loads wake dependents at load-to-use.
    #[default]
    Off,
    /// The paper's Schedule Shifting: the second load of every group
    /// wakes its dependents one cycle late, unconditionally.
    Always,
    /// Bank-predicted shifting (Yoaz et al., §2.2): a PC-indexed bank
    /// predictor delays the second load's wakeup only when the pair is
    /// predicted to hit the same bank — avoiding the one-cycle tax on
    /// non-conflicting pairs.
    Predicted,
}

/// The criterion used to train the criticality table (§5.3 uses ROB-head;
/// Tune et al. also propose issue-queue-oldest, QOLD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CritCriterion {
    /// Critical iff the µ-op was at the ROB head when it completed
    /// (Fields et al. / Tune et al.; the paper's §5.3 choice).
    #[default]
    RobHead,
    /// Critical iff the µ-op was the oldest ready µ-op in the issue
    /// queue when it issued (Tune's QOLD heuristic).
    IqOldest,
}

/// Bank-interleaving scheme of the banked L1D (§4.2 discusses both; the
/// paper measures them as performing similarly and uses word
/// interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankInterleaving {
    /// Quadword (8B) interleaving: `bank = addr[5:3]` — Sandy-Bridge
    /// style, the paper's default.
    #[default]
    Word,
    /// Set interleaving: `bank = addr[8:6]` (line-granular), tags
    /// interleave too.
    Set,
}

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two split.
    pub fn sets(&self) -> u64 {
        self.try_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of sets implied by the geometry, or a structured error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] if the geometry is not an
    /// exact power-of-two split.
    pub fn try_sets(&self) -> Result<u64, SimError> {
        let sets = self.capacity_bytes / (self.ways as u64 * self.line_bytes);
        if sets.is_power_of_two()
            && sets * self.ways as u64 * self.line_bytes == self.capacity_bytes
        {
            Ok(sets)
        } else {
            Err(SimError::ConfigInvalid(format!(
                "cache geometry {}B/{}-way/{}B-line must divide into a power-of-two number of sets",
                self.capacity_bytes, self.ways, self.line_bytes
            )))
        }
    }
}

/// Banked-L1D organization (paper §4.2): Sandy-Bridge-style 8 banks of one
/// quadword each, with a Rivers-style single line buffer allowing two
/// same-set accesses per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedL1dConfig {
    /// Number of data banks (8 in the paper).
    pub banks: u32,
    /// Interleaving granularity in bytes (8 = quadword).
    pub interleave_bytes: u64,
    /// Whether two same-cycle accesses to the *same set* of the same bank
    /// are allowed via the single line buffer with two read ports (paper
    /// default: true). Disabling this models a plain banked cache (AB2
    /// ablation).
    pub line_buffer: bool,
    /// Word vs set interleaving (EXT ablation; the paper found them
    /// equivalent at equal bank counts).
    pub interleaving: BankInterleaving,
}

impl Default for BankedL1dConfig {
    fn default() -> Self {
        BankedL1dConfig {
            banks: 8,
            interleave_bytes: 8,
            line_buffer: true,
            interleaving: BankInterleaving::Word,
        }
    }
}

/// Optional banked physical-register-file model (Tseng & Asanović,
/// ISCA 2003 — paper §4.2). The paper's evaluation assumes a monolithic
/// PRF with full ports (no PRF replays); enabling this adds read-port
/// conflicts as a third replay cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrfBankConfig {
    /// Number of PRF banks per register file (phys reg → bank by low
    /// index bits).
    pub banks: u32,
    /// Read ports per bank per cycle.
    pub read_ports_per_bank: u32,
}

impl Default for PrfBankConfig {
    fn default() -> Self {
        PrfBankConfig {
            banks: 4,
            read_ports_per_bank: 2,
        }
    }
}

/// DDR3-1600-style main-memory timing (single channel, 2 ranks, 8
/// banks/rank, 8K row buffer; min read 75 cycles, max 185 — Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Ranks on the channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// CPU cycles for a read that hits an open row and an idle bank
    /// (minimum latency end to end).
    pub row_hit_cycles: u64,
    /// Extra CPU cycles to close + open a row (precharge + activate).
    pub row_miss_extra_cycles: u64,
    /// Extra CPU cycles when the access conflicts with a row open for a
    /// different address (precharge + activate). An isolated row conflict
    /// therefore costs `row_hit_cycles + row_conflict_extra_cycles` = 185
    /// cycles, the paper's stated maximum read latency.
    pub row_conflict_extra_cycles: u64,
    /// CPU cycles of data-bus occupancy per 64B line (8B bus at DDR3-1600
    /// under a 4 GHz core ≈ 20 cycles).
    pub bus_cycles_per_line: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            ranks: 2,
            banks_per_rank: 8,
            row_bytes: 8192,
            row_hit_cycles: 75,
            row_miss_extra_cycles: 55,
            row_conflict_extra_cycles: 110,
            bus_cycles_per_line: 20,
        }
    }
}

/// Branch predictor sizing (Table 1: TAGE 1+12 components, ~15K entries;
/// 2-way 8K-entry BTB; 32-entry RAS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Number of tagged TAGE components (the paper uses 12).
    pub tage_tagged_components: u32,
    /// log2(entries) of each tagged component.
    pub tage_log_tagged_entries: u32,
    /// log2(entries) of the bimodal base predictor.
    pub tage_log_base_entries: u32,
    /// Shortest geometric history length.
    pub tage_min_history: u32,
    /// Longest geometric history length.
    pub tage_max_history: u32,
    /// Tag width in bits for tagged components.
    pub tage_tag_bits: u32,
    /// BTB entries (total, across ways).
    pub btb_entries: u32,
    /// BTB associativity.
    pub btb_ways: u32,
    /// Return-address-stack entries.
    pub ras_entries: u32,
    /// Use a plain bimodal predictor instead of TAGE (AB3 ablation).
    pub bimodal_only: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            tage_tagged_components: 12,
            tage_log_tagged_entries: 10,
            tage_log_base_entries: 12,
            tage_min_history: 4,
            tage_max_history: 640,
            tage_tag_bits: 12,
            btb_entries: 8192,
            btb_ways: 2,
            ras_entries: 32,
            bimodal_only: false,
        }
    }
}

/// The complete machine description. Construct with [`SimConfig::builder`];
/// the default is the paper's Table 1 machine with a 4-cycle
/// issue-to-execute delay, a banked L1D, and the `AlwaysHit` policy
/// (i.e. `SpecSched_4`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    // ---- pipeline shape ----
    /// Cycles between the Issue stage and the Execute stage (the paper's
    /// N−1; swept over 0, 2, 4, 6).
    pub issue_to_execute_delay: u64,
    /// Fetch/decode/rename width in µ-ops per cycle (8).
    pub frontend_width: u32,
    /// Fetch-block size in bytes (16); two blocks may be fetched per cycle,
    /// potentially over one taken branch.
    pub fetch_block_bytes: u64,
    /// Maximum fetch blocks per cycle (2).
    pub fetch_blocks_per_cycle: u32,
    /// Maximum µ-ops issued per cycle (6).
    pub issue_width: u32,
    /// Maximum µ-ops retired per cycle (8).
    pub retire_width: u32,
    /// Fetch-to-commit depth in cycles at delay 0 (19 = 15 frontend + 4
    /// backend). The frontend shrinks as the issue-to-execute delay grows
    /// so the 20-cycle branch penalty is preserved (§3.1).
    pub base_frontend_depth: u64,

    // ---- window ----
    /// Reorder-buffer entries (192).
    pub rob_entries: u32,
    /// Unified issue-queue entries (60).
    pub iq_entries: u32,
    /// Load-queue entries (72).
    pub lq_entries: u32,
    /// Store-queue entries (48).
    pub sq_entries: u32,
    /// Integer physical registers (256).
    pub int_prf: u32,
    /// Floating-point physical registers (256).
    pub fp_prf: u32,

    // ---- execution ports ----
    /// Integer ALU/branch ports (4).
    pub alu_ports: u32,
    /// Integer multiply/divide ports (1).
    pub muldiv_ports: u32,
    /// FP add ports (2).
    pub fp_ports: u32,
    /// FP multiply/divide ports (2).
    pub fpmuldiv_ports: u32,
    /// Load-or-store AGU ports (2). Governs max loads issued per cycle.
    pub ldst_ports: u32,
    /// Extra store-only port (1).
    pub store_only_ports: u32,
    /// If false, at most one load may issue per cycle regardless of AGU
    /// ports (the `Baseline_0, 1 load/cycle` point of Figure 3).
    pub dual_load_issue: bool,
    /// `Some(_)` models a banked PRF whose read-port conflicts delay
    /// producers and replay their dependents (§4.2); `None` (the paper's
    /// evaluation assumption) models a monolithic fully-ported PRF.
    pub prf_banking: Option<PrfBankConfig>,

    // ---- memory hierarchy ----
    /// L1 instruction cache geometry (32 KB, 8-way, 64 B lines; 1 cycle).
    pub l1i: CacheGeometry,
    /// L1 data cache geometry (32 KB, 8-way, 64 B lines).
    pub l1d: CacheGeometry,
    /// L1D load-to-use latency in cycles (4).
    pub l1d_load_to_use: u64,
    /// L1D MSHR entries (64).
    pub l1d_mshrs: u32,
    /// `Some(_)` models the banked L1D with bank conflicts; `None` models
    /// the ideal fully dual-ported L1D.
    pub l1d_banking: Option<BankedL1dConfig>,
    /// Unified L2 geometry (1 MB, 16-way, 64 B lines).
    pub l2: CacheGeometry,
    /// L2 hit latency added on an L1 miss (13).
    pub l2_latency: u64,
    /// L2 MSHR entries (64).
    pub l2_mshrs: u32,
    /// Stride-prefetcher degree at the L2 (8); 0 disables prefetching.
    pub prefetch_degree: u32,
    /// Main-memory timing model.
    pub dram: DramConfig,

    // ---- predictors ----
    /// Branch predictor sizing.
    pub predictor: PredictorConfig,

    // ---- scheduling (the paper's contribution) ----
    /// Wakeup policy for load dependents.
    pub sched_policy: SchedPolicyKind,
    /// Schedule Shifting (§5.1) / bank-predicted shifting (§2.2).
    pub shift_policy: ShiftPolicy,
    /// How schedule misspeculations are repaired (§2.1).
    pub replay_scheme: ReplayScheme,
    /// Criticality training criterion (§5.3).
    pub crit_criterion: CritCriterion,
    /// Bank-predictor entries for [`ShiftPolicy::Predicted`] (power of
    /// two).
    pub bank_predictor_entries: u32,
    /// Hit/miss filter entries (2048, direct-mapped 2-bit + silence).
    pub filter_entries: u32,
    /// Committed-load interval at which all silence bits reset (10_000).
    pub filter_reset_interval: u64,
    /// Width of the global hit/miss counter in bits (4).
    pub global_counter_bits: u32,
    /// Criticality-table entries (8192, direct-mapped 4-bit signed).
    pub crit_entries: u32,
    /// Criticality counter width in bits (4).
    pub crit_counter_bits: u32,

    // ---- robustness ----
    /// Cycles without a commit before the watchdog declares a deadlock
    /// (200 000 by default; tests shrink it to trigger the path cheaply).
    pub watchdog_cycles: u64,
    /// Run the internal invariant checker every this many cycles; 0
    /// disables it (the default — it costs a full window scan).
    pub invariant_check_interval: u64,
    /// Keep a streaming ring of the last `n` committed µ-ops (the
    /// canonical commit log) for divergence context dumps; 0 disables the
    /// ring (the default). Memory is O(`n`), independent of run length.
    pub commit_log_window: u32,
}

impl SimConfig {
    /// Starts a builder initialized with the Table 1 defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }

    /// Frontend depth in cycles for the configured issue-to-execute delay:
    /// `15 − delay`, so branches always resolve at cycle 16 and the
    /// minimum misprediction penalty stays at 20 cycles (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if the delay exceeds `base_frontend_depth − 2` (the frontend
    /// cannot shrink below two stages).
    pub fn frontend_depth(&self) -> u64 {
        assert!(
            self.issue_to_execute_delay + 2 <= self.base_frontend_depth,
            "issue-to-execute delay {} too large for a {}-cycle frontend",
            self.issue_to_execute_delay,
            self.base_frontend_depth
        );
        self.base_frontend_depth - self.issue_to_execute_delay
    }

    /// Number of ports available for a given execution-port class.
    pub fn ports_for(&self, port: ExecPort) -> u32 {
        match port {
            ExecPort::Alu => self.alu_ports,
            ExecPort::MulDiv => self.muldiv_ports,
            ExecPort::Fp => self.fp_ports,
            ExecPort::FpMulDiv => self.fpmuldiv_ports,
            ExecPort::LoadStore => self.ldst_ports + self.store_only_ports,
        }
    }

    /// Maximum loads issuable per cycle under this configuration.
    pub fn max_loads_per_cycle(&self) -> u32 {
        if self.dual_load_issue {
            self.ldst_ports.min(2)
        } else {
            1
        }
    }

    /// Validates internal consistency; called by the builder.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configurations (zero widths, bad cache
    /// geometry, delay too deep for the frontend).
    pub fn validate(&self) {
        self.try_validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Validates internal consistency without panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] describing the first
    /// inconsistency found (zero widths, bad cache geometry, delay too
    /// deep for the frontend, non-power-of-two table sizes).
    pub fn try_validate(&self) -> Result<(), SimError> {
        fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), SimError> {
            if cond {
                Ok(())
            } else {
                Err(SimError::ConfigInvalid(msg()))
            }
        }
        check(
            self.frontend_width > 0 && self.issue_width > 0 && self.retire_width > 0,
            || "pipeline widths must be non-zero".into(),
        )?;
        check(self.rob_entries > 0 && self.iq_entries > 0, || {
            "ROB and IQ must be non-empty".into()
        })?;
        check(self.lq_entries > 0 && self.sq_entries > 0, || {
            "LQ and SQ must be non-empty".into()
        })?;
        check(
            self.int_prf as usize > 2 * crate::ids::ArchReg::COUNT,
            || format!("int PRF of {} leaves no rename headroom", self.int_prf),
        )?;
        check(
            self.fp_prf as usize > 2 * crate::ids::ArchReg::COUNT,
            || format!("fp PRF of {} leaves no rename headroom", self.fp_prf),
        )?;
        let _ = self.l1i.try_sets()?;
        let _ = self.l1d.try_sets()?;
        let _ = self.l2.try_sets()?;
        check(
            self.issue_to_execute_delay + 2 <= self.base_frontend_depth,
            || {
                format!(
                    "issue-to-execute delay {} too large for a {}-cycle frontend",
                    self.issue_to_execute_delay, self.base_frontend_depth
                )
            },
        )?;
        if let Some(b) = &self.l1d_banking {
            check(b.banks.is_power_of_two(), || {
                "bank count must be a power of two".into()
            })?;
            check(b.interleave_bytes.is_power_of_two(), || {
                "bank interleave granularity must be a power of two".into()
            })?;
            check(
                b.banks as u64 * b.interleave_bytes <= self.l1d.line_bytes,
                || {
                    format!(
                        "{} banks x {}B must interleave within one {}B line",
                        b.banks, b.interleave_bytes, self.l1d.line_bytes
                    )
                },
            )?;
        }
        check(
            self.global_counter_bits >= 2 && self.global_counter_bits <= 8,
            || {
                format!(
                    "global counter bits {} outside 2..=8",
                    self.global_counter_bits
                )
            },
        )?;
        check(self.filter_entries.is_power_of_two(), || {
            "filter entries must be a power of two".into()
        })?;
        check(self.crit_entries.is_power_of_two(), || {
            "criticality entries must be a power of two".into()
        })?;
        check(self.bank_predictor_entries.is_power_of_two(), || {
            "bank predictor entries must be a power of two".into()
        })?;
        if let Some(pb) = &self.prf_banking {
            check(pb.banks.is_power_of_two() && pb.banks <= 16, || {
                "PRF banks must be a power of two <= 16".into()
            })?;
            check(pb.read_ports_per_bank >= 1, || {
                "PRF banks need at least one read port".into()
            })?;
        }
        check(self.watchdog_cycles > 0, || {
            "watchdog threshold must be non-zero".into()
        })?;
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            issue_to_execute_delay: 4,
            frontend_width: 8,
            fetch_block_bytes: 16,
            fetch_blocks_per_cycle: 2,
            issue_width: 6,
            retire_width: 8,
            base_frontend_depth: 15,
            rob_entries: 192,
            iq_entries: 60,
            lq_entries: 72,
            sq_entries: 48,
            int_prf: 256,
            fp_prf: 256,
            alu_ports: 4,
            muldiv_ports: 1,
            fp_ports: 2,
            fpmuldiv_ports: 2,
            ldst_ports: 2,
            store_only_ports: 1,
            dual_load_issue: true,
            prf_banking: None,
            l1i: CacheGeometry {
                capacity_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l1d: CacheGeometry {
                capacity_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l1d_load_to_use: 4,
            l1d_mshrs: 64,
            l1d_banking: Some(BankedL1dConfig::default()),
            l2: CacheGeometry {
                capacity_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            l2_latency: 13,
            l2_mshrs: 64,
            prefetch_degree: 8,
            dram: DramConfig::default(),
            predictor: PredictorConfig::default(),
            sched_policy: SchedPolicyKind::AlwaysHit,
            shift_policy: ShiftPolicy::Off,
            replay_scheme: ReplayScheme::Squash,
            crit_criterion: CritCriterion::RobHead,
            bank_predictor_entries: 2048,
            filter_entries: 2048,
            filter_reset_interval: 10_000,
            global_counter_bits: 4,
            crit_entries: 8192,
            crit_counter_bits: 4,
            watchdog_cycles: 200_000,
            invariant_check_interval: 0,
            commit_log_window: 0,
        }
    }
}

/// Builder for [`SimConfig`] ([C-BUILDER]). Starts from Table 1 defaults;
/// each method overrides one knob; [`build`](SimConfigBuilder::build)
/// validates the result.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the issue-to-execute delay (0, 2, 4 or 6 in the paper).
    pub fn issue_to_execute_delay(mut self, d: u64) -> Self {
        self.cfg.issue_to_execute_delay = d;
        self
    }

    /// Selects the wakeup policy.
    pub fn sched_policy(mut self, p: SchedPolicyKind) -> Self {
        self.cfg.sched_policy = p;
        self
    }

    /// Enables or disables Schedule Shifting (§5.1).
    pub fn schedule_shifting(mut self, on: bool) -> Self {
        self.cfg.shift_policy = if on {
            ShiftPolicy::Always
        } else {
            ShiftPolicy::Off
        };
        self
    }

    /// Selects the shift policy explicitly (including bank-predicted
    /// shifting).
    pub fn shift_policy(mut self, p: ShiftPolicy) -> Self {
        self.cfg.shift_policy = p;
        self
    }

    /// Selects the replay scheme (§2.1).
    pub fn replay_scheme(mut self, r: ReplayScheme) -> Self {
        self.cfg.replay_scheme = r;
        self
    }

    /// Selects the criticality training criterion (§5.3).
    pub fn crit_criterion(mut self, c: CritCriterion) -> Self {
        self.cfg.crit_criterion = c;
        self
    }

    /// Enables the banked-PRF model (§4.2 replay source).
    pub fn prf_banking(mut self, b: Option<PrfBankConfig>) -> Self {
        self.cfg.prf_banking = b;
        self
    }

    /// `true` → banked L1D with default banking; `false` → ideal
    /// dual-ported L1D (no bank conflicts).
    pub fn banked_l1d(mut self, banked: bool) -> Self {
        self.cfg.l1d_banking = banked.then(BankedL1dConfig::default);
        self
    }

    /// Overrides the banked-L1D organization.
    pub fn l1d_banking(mut self, banking: Option<BankedL1dConfig>) -> Self {
        self.cfg.l1d_banking = banking;
        self
    }

    /// Allows (`true`, default) or forbids (`false`) issuing two loads per
    /// cycle.
    pub fn dual_load_issue(mut self, dual: bool) -> Self {
        self.cfg.dual_load_issue = dual;
        self
    }

    /// Overrides the branch predictor sizing.
    pub fn predictor(mut self, p: PredictorConfig) -> Self {
        self.cfg.predictor = p;
        self
    }

    /// Overrides the L2 stride-prefetcher degree (0 disables).
    pub fn prefetch_degree(mut self, degree: u32) -> Self {
        self.cfg.prefetch_degree = degree;
        self
    }

    /// Overrides the deadlock watchdog threshold (cycles without a
    /// commit).
    pub fn watchdog_cycles(mut self, n: u64) -> Self {
        self.cfg.watchdog_cycles = n;
        self
    }

    /// Runs the invariant checker every `n` cycles (0 disables).
    pub fn invariant_check_interval(mut self, n: u64) -> Self {
        self.cfg.invariant_check_interval = n;
        self
    }

    /// Keeps a bounded ring of the last `n` committed µ-ops for
    /// divergence context dumps (0 disables).
    pub fn commit_log_window(mut self, n: u32) -> Self {
        self.cfg.commit_log_window = n;
        self
    }

    /// Applies an arbitrary closure to the underlying config, for knobs
    /// without a dedicated builder method.
    pub fn tweak(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn build(self) -> SimConfig {
        self.cfg.validate();
        self.cfg
    }

    /// Finishes the build without panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] if the configuration is
    /// inconsistent (see [`SimConfig::try_validate`]).
    pub fn try_build(self) -> Result<SimConfig, SimError> {
        self.cfg.try_validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_table1() {
        let c = SimConfig::default();
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.iq_entries, 60);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sq_entries, 48);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.l1d.capacity_bytes, 32 * 1024);
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.l1d_load_to_use, 4);
        assert_eq!(c.l2_latency, 13);
        assert!(c.l1d_banking.is_some());
        c.validate();
    }

    #[test]
    fn frontend_shrinks_with_delay() {
        for d in [0u64, 2, 4, 6] {
            let c = SimConfig::builder().issue_to_execute_delay(d).build();
            assert_eq!(c.frontend_depth(), 15 - d);
            // branch resolution = frontend + d + 1 (exec) stays constant
            assert_eq!(c.frontend_depth() + d, 15);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn delay_too_deep_panics() {
        let _ = SimConfig::builder().issue_to_execute_delay(14).build();
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::builder()
            .sched_policy(SchedPolicyKind::Criticality)
            .schedule_shifting(true)
            .banked_l1d(false)
            .dual_load_issue(false)
            .build();
        assert_eq!(c.sched_policy, SchedPolicyKind::Criticality);
        assert_eq!(c.shift_policy, ShiftPolicy::Always);
        assert!(c.l1d_banking.is_none());
        assert_eq!(c.max_loads_per_cycle(), 1);
    }

    #[test]
    fn ports_for_matches_fields() {
        let c = SimConfig::default();
        assert_eq!(c.ports_for(ExecPort::Alu), 4);
        assert_eq!(c.ports_for(ExecPort::MulDiv), 1);
        assert_eq!(c.ports_for(ExecPort::LoadStore), 3);
        assert_eq!(c.max_loads_per_cycle(), 2);
    }

    #[test]
    fn policy_speculation_predicate() {
        assert!(!SchedPolicyKind::Conservative.may_speculate());
        assert!(SchedPolicyKind::AlwaysHit.may_speculate());
        assert!(SchedPolicyKind::Criticality.may_speculate());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let g = CacheGeometry {
            capacity_bytes: 48 * 1024,
            ways: 7,
            line_bytes: 64,
        };
        let _ = g.sets();
    }

    #[test]
    fn banking_must_fit_line() {
        let c = SimConfig {
            l1d_banking: Some(BankedL1dConfig {
                banks: 32,
                interleave_bytes: 8,
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = std::panic::catch_unwind(move || c.validate());
        assert!(
            r.is_err(),
            "32 banks x 8B exceeds a 64B line and must be rejected"
        );
    }

    #[test]
    fn tweak_applies() {
        let c = SimConfig::builder().tweak(|c| c.retire_width = 4).build();
        assert_eq!(c.retire_width, 4);
    }

    #[test]
    fn try_validate_returns_structured_errors() {
        use crate::error::SimError;
        let ok = SimConfig::default();
        assert!(ok.try_validate().is_ok());

        let zero_width = SimConfig {
            issue_width: 0,
            ..Default::default()
        };
        let err = zero_width.try_validate().unwrap_err();
        assert!(matches!(err, SimError::ConfigInvalid(_)));
        assert!(err.to_string().contains("width"));

        let deep = SimConfig {
            issue_to_execute_delay: 14,
            ..Default::default()
        };
        let err = deep.try_validate().unwrap_err();
        assert!(err.to_string().contains("too large"));

        let geom = SimConfig {
            l1d: CacheGeometry {
                capacity_bytes: 48 * 1024,
                ways: 7,
                line_bytes: 64,
            },
            ..Default::default()
        };
        assert!(geom.try_validate().is_err());
    }

    #[test]
    fn try_build_matches_build() {
        let b = SimConfig::builder().issue_to_execute_delay(2);
        let via_try = b.clone().try_build().expect("valid");
        assert_eq!(via_try, b.build());
        assert!(SimConfig::builder()
            .issue_to_execute_delay(14)
            .try_build()
            .is_err());
    }

    #[test]
    fn robustness_knobs_default_off() {
        let c = SimConfig::default();
        assert_eq!(c.watchdog_cycles, 200_000);
        assert_eq!(c.invariant_check_interval, 0);
        assert_eq!(c.commit_log_window, 0);
        let c = SimConfig::builder()
            .watchdog_cycles(500)
            .invariant_check_interval(100)
            .commit_log_window(32)
            .build();
        assert_eq!(c.watchdog_cycles, 500);
        assert_eq!(c.invariant_check_interval, 100);
        assert_eq!(c.commit_log_window, 32);
        assert!(SimConfig::builder().watchdog_cycles(0).try_build().is_err());
    }
}
