//! Typed machine-configuration names: the paper's `Baseline_4` /
//! `SpecSched_4_Crit` grammar as one parsed type, [`ConfigSpec`].
//!
//! A `ConfigSpec` is `{ family, delay, variant }`; its [`Display`] form
//! is the paper's configuration name and its [`FromStr`] parses that
//! name back — the two round-trip for every configuration the workspace
//! can name. Display names, session cache keys, report row labels, and
//! the `RunRequest` wire encoding are all derived from this one type;
//! there is no stringly-typed naming anywhere else.
//!
//! The type lives here (not in the harness) because it is part of the
//! canonical text protocol: a `RunRequest` names its machine by
//! `ConfigSpec`, and the serve wire format parses the same grammar. The
//! harness keeps its experiment-flavoured constructor functions
//! (`baseline(4)`, `spec_sched_crit(4)`, …) as a thin layer on top.
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
//!
//! [`Display`]: fmt::Display

use crate::config::{
    BankInterleaving, BankedL1dConfig, CritCriterion, PredictorConfig, PrfBankConfig, ReplayScheme,
    SchedPolicyKind, ShiftPolicy, SimConfig,
};
use std::fmt;
use std::str::FromStr;

/// The two top-level machine families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigFamily {
    /// Conservative scheduling: loads never speculatively wake dependents.
    Baseline,
    /// Speculative scheduling with replay on mis-speculation.
    SpecSched,
}

/// The mechanism/ablation variant riding on a family.
///
/// Most variants only make sense on [`ConfigFamily::SpecSched`];
/// [`ConfigSpec::from_str`] enforces the nameable grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigVariant {
    /// The family's plain configuration (banked L1D for SpecSched).
    Plain,
    /// Baseline restricted to one load issue per cycle (`_1ld`).
    SingleLoad,
    /// Ideal dual-ported L1D instead of the banked one (`_ported`).
    Ported,
    /// Schedule Shifting (§5.1).
    Shift,
    /// Global-counter hit/miss gating (§5.2).
    Ctr,
    /// Per-PC filter + global counter (§5.2).
    Filter,
    /// Shifting + filter + counter (§5.3).
    Combined,
    /// Shifting + filter + criticality gating (§5.3).
    Crit,
    /// AB1: the filter without its silencing bit.
    FilterNoSilence,
    /// AB2: banked L1D without the Rivers line buffer.
    NoLineBuffer,
    /// AB3: bimodal direction prediction instead of TAGE.
    Bimodal,
    /// EXT1: a different replay scheme, Always-Hit policy.
    Replay(ReplayScheme),
    /// EXT1: a different replay scheme with the Crit mechanisms on top.
    CritReplay(ReplayScheme),
    /// EXT2: bank-predicted shifting (Yoaz et al.).
    ShiftPred,
    /// EXT3: criticality trained with the QOLD criterion.
    CritQold,
    /// EXT4: set-interleaved L1D banks.
    SetInterleaved,
    /// EXT6: banked PRF with limited read ports.
    Prf {
        /// Number of PRF banks.
        banks: u32,
        /// Read ports per bank.
        ports: u32,
    },
}

/// A typed configuration name: family + issue-to-execute delay + variant.
///
/// `Display` renders the canonical name and `FromStr` parses it back;
/// `ConfigSpec::from_str(spec.to_string())` round-trips for every
/// nameable configuration. [`ConfigSpec::config`] builds the machine
/// description, and [`ConfigSpec::named`] bundles both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigSpec {
    /// Machine family.
    pub family: ConfigFamily,
    /// Issue-to-execute delay in cycles (the paper's `d`).
    pub delay: u64,
    /// Mechanism/ablation variant.
    pub variant: ConfigVariant,
}

fn replay_tag(s: ReplayScheme) -> &'static str {
    match s {
        ReplayScheme::Squash => "Squash",
        ReplayScheme::Selective => "Selective",
        ReplayScheme::Refetch => "Refetch",
    }
}

fn replay_from_tag(tag: &str) -> Option<ReplayScheme> {
    Some(match tag {
        "Squash" => ReplayScheme::Squash,
        "Selective" => ReplayScheme::Selective,
        "Refetch" => ReplayScheme::Refetch,
        _ => return None,
    })
}

impl fmt::Display for ConfigSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fam = match self.family {
            ConfigFamily::Baseline => "Baseline",
            ConfigFamily::SpecSched => "SpecSched",
        };
        write!(f, "{fam}_{}", self.delay)?;
        match self.variant {
            ConfigVariant::Plain => Ok(()),
            ConfigVariant::SingleLoad => write!(f, "_1ld"),
            ConfigVariant::Ported => write!(f, "_ported"),
            ConfigVariant::Shift => write!(f, "_Shift"),
            ConfigVariant::Ctr => write!(f, "_Ctr"),
            ConfigVariant::Filter => write!(f, "_Filter"),
            ConfigVariant::Combined => write!(f, "_Combined"),
            ConfigVariant::Crit => write!(f, "_Crit"),
            ConfigVariant::FilterNoSilence => write!(f, "_FilterNoSilence"),
            ConfigVariant::NoLineBuffer => write!(f, "_NoLineBuffer"),
            ConfigVariant::Bimodal => write!(f, "_Bimodal"),
            ConfigVariant::Replay(s) => write!(f, "_{}", replay_tag(s)),
            ConfigVariant::CritReplay(s) => write!(f, "_Crit_{}", replay_tag(s)),
            ConfigVariant::ShiftPred => write!(f, "_ShiftPred"),
            ConfigVariant::CritQold => write!(f, "_CritQold"),
            ConfigVariant::SetInterleaved => write!(f, "_SetInterleaved"),
            ConfigVariant::Prf { banks, ports } => write!(f, "_Prf{banks}x{ports}"),
        }
    }
}

/// Error from parsing a configuration name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// The offending name.
    pub name: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config name `{}`: {}", self.name, self.reason)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for ConfigSpec {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: &str| ParseConfigError {
            name: s.to_string(),
            reason: reason.to_string(),
        };
        let mut parts = s.split('_');
        let family = match parts.next() {
            Some("Baseline") => ConfigFamily::Baseline,
            Some("SpecSched") => ConfigFamily::SpecSched,
            _ => return Err(err("expected `Baseline_*` or `SpecSched_*`")),
        };
        let delay: u64 = parts
            .next()
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| err("expected a numeric delay after the family"))?;
        let rest: Vec<&str> = parts.collect();
        let variant = match (family, rest.as_slice()) {
            (_, []) => ConfigVariant::Plain,
            (ConfigFamily::Baseline, ["1ld"]) => ConfigVariant::SingleLoad,
            (ConfigFamily::Baseline, _) => {
                return Err(err("Baseline supports only the `_1ld` variant"))
            }
            (ConfigFamily::SpecSched, ["ported"]) => ConfigVariant::Ported,
            (ConfigFamily::SpecSched, ["Shift"]) => ConfigVariant::Shift,
            (ConfigFamily::SpecSched, ["Ctr"]) => ConfigVariant::Ctr,
            (ConfigFamily::SpecSched, ["Filter"]) => ConfigVariant::Filter,
            (ConfigFamily::SpecSched, ["Combined"]) => ConfigVariant::Combined,
            (ConfigFamily::SpecSched, ["Crit"]) => ConfigVariant::Crit,
            (ConfigFamily::SpecSched, ["FilterNoSilence"]) => ConfigVariant::FilterNoSilence,
            (ConfigFamily::SpecSched, ["NoLineBuffer"]) => ConfigVariant::NoLineBuffer,
            (ConfigFamily::SpecSched, ["Bimodal"]) => ConfigVariant::Bimodal,
            (ConfigFamily::SpecSched, ["ShiftPred"]) => ConfigVariant::ShiftPred,
            (ConfigFamily::SpecSched, ["CritQold"]) => ConfigVariant::CritQold,
            (ConfigFamily::SpecSched, ["SetInterleaved"]) => ConfigVariant::SetInterleaved,
            (ConfigFamily::SpecSched, [tag]) if replay_from_tag(tag).is_some() => {
                ConfigVariant::Replay(replay_from_tag(tag).expect("checked"))
            }
            (ConfigFamily::SpecSched, ["Crit", tag]) => match replay_from_tag(tag) {
                Some(scheme) => ConfigVariant::CritReplay(scheme),
                None => return Err(err("expected a replay scheme after `_Crit_`")),
            },
            (ConfigFamily::SpecSched, [prf]) if prf.starts_with("Prf") => {
                let (banks, ports) = prf["Prf".len()..]
                    .split_once('x')
                    .and_then(|(b, p)| Some((b.parse().ok()?, p.parse().ok()?)))
                    .ok_or_else(|| err("expected `_Prf<banks>x<ports>`"))?;
                ConfigVariant::Prf { banks, ports }
            }
            _ => return Err(err("unknown variant suffix")),
        };
        Ok(ConfigSpec {
            family,
            delay,
            variant,
        })
    }
}

impl ConfigSpec {
    /// Builds the machine description this spec names.
    pub fn config(&self) -> SimConfig {
        let b = SimConfig::builder().issue_to_execute_delay(self.delay);
        match self.family {
            ConfigFamily::Baseline => {
                let b = b
                    .sched_policy(SchedPolicyKind::Conservative)
                    .banked_l1d(false);
                match self.variant {
                    ConfigVariant::SingleLoad => b.dual_load_issue(false),
                    _ => b,
                }
            }
            ConfigFamily::SpecSched => {
                let b = b.sched_policy(SchedPolicyKind::AlwaysHit).banked_l1d(true);
                match self.variant {
                    ConfigVariant::Plain | ConfigVariant::SingleLoad => b,
                    ConfigVariant::Ported => b.banked_l1d(false),
                    ConfigVariant::Shift => b.schedule_shifting(true),
                    ConfigVariant::Ctr => b.sched_policy(SchedPolicyKind::GlobalCounter),
                    ConfigVariant::Filter => b.sched_policy(SchedPolicyKind::FilterAndCounter),
                    ConfigVariant::Combined => b
                        .sched_policy(SchedPolicyKind::FilterAndCounter)
                        .schedule_shifting(true),
                    ConfigVariant::Crit => b
                        .sched_policy(SchedPolicyKind::Criticality)
                        .schedule_shifting(true),
                    ConfigVariant::FilterNoSilence => {
                        b.sched_policy(SchedPolicyKind::FilterNoSilence)
                    }
                    ConfigVariant::NoLineBuffer => b.l1d_banking(Some(BankedL1dConfig {
                        line_buffer: false,
                        ..Default::default()
                    })),
                    ConfigVariant::Bimodal => b.predictor(PredictorConfig {
                        bimodal_only: true,
                        ..Default::default()
                    }),
                    ConfigVariant::Replay(scheme) => b.replay_scheme(scheme),
                    ConfigVariant::CritReplay(scheme) => b
                        .sched_policy(SchedPolicyKind::Criticality)
                        .schedule_shifting(true)
                        .replay_scheme(scheme),
                    ConfigVariant::ShiftPred => b.shift_policy(ShiftPolicy::Predicted),
                    ConfigVariant::CritQold => b
                        .sched_policy(SchedPolicyKind::Criticality)
                        .schedule_shifting(true)
                        .crit_criterion(CritCriterion::IqOldest),
                    ConfigVariant::SetInterleaved => b.l1d_banking(Some(BankedL1dConfig {
                        interleaving: BankInterleaving::Set,
                        ..Default::default()
                    })),
                    ConfigVariant::Prf { banks, ports } => b.prf_banking(Some(PrfBankConfig {
                        banks,
                        read_ports_per_bank: ports,
                    })),
                }
            }
        }
        .build()
    }

    /// Bundles the spec with its machine description and display name.
    pub fn named(&self) -> NamedConfig {
        NamedConfig {
            name: self.to_string(),
            spec: *self,
            config: self.config(),
        }
    }

    /// Every configuration the harness's experiments name at the given
    /// delay (the `Prf` variants at the two swept shapes). Used by the
    /// round-trip test and the name-collision test.
    pub fn variants_at(delay: u64) -> Vec<ConfigSpec> {
        let mut out = vec![
            ConfigSpec {
                family: ConfigFamily::Baseline,
                delay,
                variant: ConfigVariant::Plain,
            },
            ConfigSpec {
                family: ConfigFamily::Baseline,
                delay,
                variant: ConfigVariant::SingleLoad,
            },
        ];
        let sv = [
            ConfigVariant::Plain,
            ConfigVariant::Ported,
            ConfigVariant::Shift,
            ConfigVariant::Ctr,
            ConfigVariant::Filter,
            ConfigVariant::Combined,
            ConfigVariant::Crit,
            ConfigVariant::FilterNoSilence,
            ConfigVariant::NoLineBuffer,
            ConfigVariant::Bimodal,
            ConfigVariant::Replay(ReplayScheme::Squash),
            ConfigVariant::Replay(ReplayScheme::Selective),
            ConfigVariant::Replay(ReplayScheme::Refetch),
            ConfigVariant::CritReplay(ReplayScheme::Squash),
            ConfigVariant::CritReplay(ReplayScheme::Selective),
            ConfigVariant::CritReplay(ReplayScheme::Refetch),
            ConfigVariant::ShiftPred,
            ConfigVariant::CritQold,
            ConfigVariant::SetInterleaved,
            ConfigVariant::Prf { banks: 4, ports: 2 },
            ConfigVariant::Prf { banks: 2, ports: 1 },
        ];
        out.extend(sv.into_iter().map(|variant| ConfigSpec {
            family: ConfigFamily::SpecSched,
            delay,
            variant,
        }));
        out
    }
}

/// A named configuration: a [`ConfigSpec`] with its derived display name
/// and machine description. `name` is derived from `spec` by every
/// constructor in the harness. A harness cell's result identity is the
/// request text built from `spec`, so renaming a configuration does not
/// give it a new one.
#[derive(Debug, Clone)]
pub struct NamedConfig {
    /// Display name (derived from `spec`, stable across runs).
    pub name: String,
    /// The typed name this configuration was built from.
    pub spec: ConfigSpec,
    /// The machine description.
    pub config: SimConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn spec_roundtrips_for_every_nameable_config() {
        for delay in [0u64, 1, 2, 3, 4, 5, 6, 8] {
            for spec in ConfigSpec::variants_at(delay) {
                let name = spec.to_string();
                let back: ConfigSpec = name.parse().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(back, spec, "round-trip of `{name}`");
                assert_eq!(back.named().name, name);
            }
        }
    }

    #[test]
    fn spec_roundtrips_on_seeded_random_shapes() {
        // Seeded-loop property test (the workspace's proptest substitute):
        // arbitrary delays and PRF shapes must survive the round-trip.
        let mut rng = SplitMix64::new(0xC0FFEE);
        for _ in 0..500 {
            let delay = rng.next_u64() % 64;
            let banks = (rng.next_u64() % 16 + 1) as u32;
            let ports = (rng.next_u64() % 4 + 1) as u32;
            let variants = ConfigSpec::variants_at(delay);
            let pick = variants[(rng.next_u64() as usize) % variants.len()];
            let with_prf = ConfigSpec {
                variant: ConfigVariant::Prf { banks, ports },
                ..pick
            };
            for spec in [
                pick,
                if pick.family == ConfigFamily::SpecSched {
                    with_prf
                } else {
                    pick
                },
            ] {
                let name = spec.to_string();
                assert_eq!(name.parse::<ConfigSpec>().ok(), Some(spec), "`{name}`");
            }
        }
    }

    #[test]
    fn malformed_names_are_rejected() {
        for bad in [
            "",
            "Baseline",
            "Baseline_x",
            "Baseline_4_Shift",
            "SpecSched_4_Bogus",
            "SpecSched_4_Crit_Bogus",
            "SpecSched_4_Prf4",
            "SpecSched_4_Prfx2",
            "Foo_4",
            "SpecSched__Crit",
        ] {
            assert!(bad.parse::<ConfigSpec>().is_err(), "`{bad}` must not parse");
        }
    }
}
