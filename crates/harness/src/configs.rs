//! The named machine configurations of the paper's evaluation (§3–§5),
//! built around one typed name: [`ConfigSpec`].
//!
//! A `ConfigSpec` is `{ family, delay, variant }`; its
//! [`Display`](std::fmt::Display) form
//! is the paper's configuration name (`Baseline_4`, `SpecSched_4_Crit`,
//! …) and its [`FromStr`](std::str::FromStr) parses that name back — the two round-trip for
//! every configuration the harness can name. Display names, session
//! cache keys, and report row labels are all derived from this one type;
//! there is no stringly-typed naming anywhere else.
//!
//! * `Baseline_d` — conservative scheduling (no speculation on load
//!   latency), ideal dual-ported L1D, issue-to-execute delay `d`.
//! * `SpecSched_d` — speculative scheduling with the Always-Hit policy and
//!   the Alpha-style replay mechanism; `_ported` variants model the ideal
//!   dual-ported L1D instead of the 8-bank quadword-interleaved one.
//! * `SpecSched_d_Shift` — plus Schedule Shifting (§5.1).
//! * `SpecSched_d_Ctr` / `_Filter` — global-counter / filter+counter
//!   hit/miss gating (§5.2).
//! * `SpecSched_d_Combined` — Shifting + Filter (§5.3).
//! * `SpecSched_d_Crit` — Shifting + Filter + criticality gating (§5.3).
//! * ablation and extension variants (`_FilterNoSilence`, `_NoLineBuffer`,
//!   `_Bimodal`, `_Squash`/`_Selective`/`_Refetch`, `_ShiftPred`,
//!   `_CritQold`, `_SetInterleaved`, `_Prf4x2`, …).

pub use ss_types::config_spec::{
    ConfigFamily, ConfigSpec, ConfigVariant, NamedConfig, ParseConfigError,
};
use ss_types::ReplayScheme;

fn spec(family: ConfigFamily, delay: u64, variant: ConfigVariant) -> NamedConfig {
    ConfigSpec {
        family,
        delay,
        variant,
    }
    .named()
}

/// `Baseline_d`: conservative scheduling, dual-ported L1D.
pub fn baseline(delay: u64) -> NamedConfig {
    spec(ConfigFamily::Baseline, delay, ConfigVariant::Plain)
}

/// `Baseline_0_1ld`: restricted to one load per cycle (the first bar of
/// Figure 3).
pub fn baseline_single_load() -> NamedConfig {
    spec(ConfigFamily::Baseline, 0, ConfigVariant::SingleLoad)
}

/// `SpecSched_d`: Always-Hit speculative scheduling.
pub fn spec_sched(delay: u64, banked: bool) -> NamedConfig {
    let variant = if banked {
        ConfigVariant::Plain
    } else {
        ConfigVariant::Ported
    };
    spec(ConfigFamily::SpecSched, delay, variant)
}

/// `SpecSched_d_Shift`: plus Schedule Shifting.
pub fn spec_sched_shift(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Shift)
}

/// `SpecSched_d_Ctr`: global-counter hit/miss gating.
pub fn spec_sched_ctr(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Ctr)
}

/// `SpecSched_d_Filter`: per-PC filter + global counter.
pub fn spec_sched_filter(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Filter)
}

/// `SpecSched_d_Combined`: Schedule Shifting + filter + counter.
pub fn spec_sched_combined(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Combined)
}

/// `SpecSched_d_Crit`: Shifting + filter + criticality gating.
pub fn spec_sched_crit(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Crit)
}

/// AB1 ablation: the filter without its silencing bit.
pub fn ablation_no_silence(delay: u64) -> NamedConfig {
    spec(
        ConfigFamily::SpecSched,
        delay,
        ConfigVariant::FilterNoSilence,
    )
}

/// AB2 ablation: a plain banked cache without the Rivers line buffer.
pub fn ablation_no_line_buffer(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::NoLineBuffer)
}

/// AB3 ablation: bimodal direction prediction instead of TAGE.
pub fn ablation_bimodal(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::Bimodal)
}

/// EXT1: the paper's configurations under a different replay scheme
/// (§2.1 — demonstrates the mechanisms are replay-scheme-agnostic).
pub fn with_replay_scheme(delay: u64, scheme: ReplayScheme, crit: bool) -> NamedConfig {
    let variant = if crit {
        ConfigVariant::CritReplay(scheme)
    } else {
        ConfigVariant::Replay(scheme)
    };
    spec(ConfigFamily::SpecSched, delay, variant)
}

/// EXT2: bank-predicted shifting (Yoaz et al.) instead of unconditional
/// Schedule Shifting.
pub fn spec_sched_shift_predicted(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::ShiftPred)
}

/// EXT3: the criticality policy trained with the QOLD (oldest-in-IQ)
/// criterion instead of ROB-head.
pub fn spec_sched_crit_qold(delay: u64) -> NamedConfig {
    spec(ConfigFamily::SpecSched, delay, ConfigVariant::CritQold)
}

/// EXT4: set-interleaved L1D banks (the paper found word and set
/// interleaving equivalent at equal bank counts).
pub fn ablation_set_interleaved(delay: u64) -> NamedConfig {
    spec(
        ConfigFamily::SpecSched,
        delay,
        ConfigVariant::SetInterleaved,
    )
}

/// EXT6: the banked-PRF replay source the paper's evaluation assumes away
/// (§4.2/§4.3).
pub fn with_prf_banking(delay: u64, banks: u32, ports: u32) -> NamedConfig {
    spec(
        ConfigFamily::SpecSched,
        delay,
        ConfigVariant::Prf { banks, ports },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::{BankInterleaving, CritCriterion, SchedPolicyKind, ShiftPolicy};

    #[test]
    fn names_are_stable_and_distinct() {
        let configs = [
            baseline(0),
            baseline_single_load(),
            baseline(4),
            spec_sched(4, true),
            spec_sched(4, false),
            spec_sched_shift(4),
            spec_sched_ctr(4),
            spec_sched_filter(4),
            spec_sched_combined(4),
            spec_sched_crit(4),
            ablation_no_silence(4),
            ablation_no_line_buffer(4),
            ablation_bimodal(4),
        ];
        let names: std::collections::HashSet<_> = configs.iter().map(|c| &c.name).collect();
        let ext = [
            with_replay_scheme(4, ReplayScheme::Selective, false),
            with_replay_scheme(4, ReplayScheme::Refetch, false),
            with_replay_scheme(4, ReplayScheme::Selective, true),
            spec_sched_shift_predicted(4),
            spec_sched_crit_qold(4),
            ablation_set_interleaved(4),
        ];
        let ext_names: std::collections::HashSet<_> = ext.iter().map(|c| &c.name).collect();
        assert_eq!(ext_names.len(), ext.len());
        assert!(!ext.iter().any(|c| names.contains(&c.name)));
        assert_eq!(names.len(), configs.len());
        assert_eq!(baseline(4).name, "Baseline_4");
        assert_eq!(spec_sched(4, true).name, "SpecSched_4");
        assert_eq!(spec_sched(4, false).name, "SpecSched_4_ported");
        assert_eq!(baseline_single_load().name, "Baseline_0_1ld");
        assert_eq!(
            with_replay_scheme(4, ReplayScheme::Selective, true).name,
            "SpecSched_4_Crit_Selective"
        );
        assert_eq!(with_prf_banking(4, 4, 2).name, "SpecSched_4_Prf4x2");
    }

    #[test]
    fn configs_encode_their_mechanisms() {
        assert!(!baseline(4).config.sched_policy.may_speculate());
        assert!(baseline(4).config.l1d_banking.is_none());
        assert!(spec_sched(4, true).config.l1d_banking.is_some());
        assert_eq!(
            spec_sched_shift(4).config.shift_policy,
            ss_types::ShiftPolicy::Always
        );
        assert_eq!(
            spec_sched_filter(4).config.shift_policy,
            ss_types::ShiftPolicy::Off
        );
        assert_eq!(
            spec_sched_crit(4).config.shift_policy,
            ss_types::ShiftPolicy::Always
        );
        assert_eq!(
            spec_sched_crit(4).config.sched_policy,
            SchedPolicyKind::Criticality
        );
        assert!(!baseline_single_load().config.dual_load_issue);
        let nlb = ablation_no_line_buffer(4);
        assert!(!nlb.config.l1d_banking.unwrap().line_buffer);
        assert!(ablation_bimodal(4).config.predictor.bimodal_only);
        assert_eq!(
            with_replay_scheme(4, ReplayScheme::Selective, false)
                .config
                .replay_scheme,
            ReplayScheme::Selective
        );
        assert_eq!(
            spec_sched_shift_predicted(4).config.shift_policy,
            ShiftPolicy::Predicted
        );
        assert_eq!(
            spec_sched_crit_qold(4).config.crit_criterion,
            CritCriterion::IqOldest
        );
        assert_eq!(
            ablation_set_interleaved(4)
                .config
                .l1d_banking
                .unwrap()
                .interleaving,
            BankInterleaving::Set
        );
    }

    #[test]
    fn parsed_spec_builds_the_same_machine_as_the_constructor() {
        for (name, built) in [
            ("Baseline_4", baseline(4)),
            ("SpecSched_4_Crit", spec_sched_crit(4)),
            ("SpecSched_2_ported", spec_sched(2, false)),
            ("SpecSched_6_Prf2x1", with_prf_banking(6, 2, 1)),
        ] {
            let parsed = name.parse::<ConfigSpec>().expect(name).named();
            assert_eq!(parsed.name, built.name);
            assert_eq!(parsed.config, built.config);
        }
    }
}
