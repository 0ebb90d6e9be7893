//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] perturbs the memory timing the pipeline observes
//! during chosen cycle windows — without touching the cache state itself
//! — so tests can drive the machine into the corner cases the
//! fault-tolerance layer exists for: latency spikes (a load's data
//! arrives much later than its hit/miss signal implied), bank-conflict
//! bursts, and replay storms (every load in the window looks late to its
//! speculatively-woken dependents). Injected faults are counted in
//! [`SimStats::faults_injected`](ss_types::SimStats); the machine rides
//! every storm out through its ordinary replay path.

use ss_types::{Cycle, ReplayCause, SimError};
use std::fmt;
use std::str::FromStr;

/// What an active fault window does to each correct-path load that
/// executes inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The load's data arrives `extra_cycles` later than the hierarchy
    /// reported (models a transient downstream stall).
    LatencySpike {
        /// Additional cycles before the loaded value is available.
        extra_cycles: u64,
    },
    /// Every load pays a bank-conflict penalty (models pathological
    /// address interleaving saturating one bank).
    BankConflictBurst {
        /// Conflict penalty per load in cycles.
        delay_cycles: u64,
    },
    /// Every load's value arrives just late enough that dependents woken
    /// on the L1-hit schedule replay: a sustained replay storm.
    ReplayStorm,
}

/// One contiguous window of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First cycle the fault is active.
    pub start: Cycle,
    /// Number of cycles the window lasts.
    pub duration: u64,
    /// The perturbation applied inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window is active at `now`.
    pub fn active_at(&self, now: Cycle) -> bool {
        now >= self.start && now.since(self.start) < self.duration
    }
}

/// A deterministic schedule of fault windows for one simulation.
///
/// Windows are validated as they are added: a zero-duration window would
/// silently inject nothing, and overlapping windows would silently
/// shadow each other (only the first active window applies), so both are
/// construction errors. The builder methods stay chainable by recording
/// the first error instead of returning it; [`FaultPlan::validate`]
/// (called by `Simulator::set_fault_plan`) surfaces it as
/// [`SimError::ConfigInvalid`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    error: Option<String>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a latency-spike window.
    pub fn latency_spike(self, start: u64, duration: u64, extra_cycles: u64) -> Self {
        self.add_window(FaultWindow {
            start: Cycle::new(start),
            duration,
            kind: FaultKind::LatencySpike { extra_cycles },
        })
    }

    /// Adds a bank-conflict-burst window.
    pub fn bank_conflict_burst(self, start: u64, duration: u64, delay_cycles: u64) -> Self {
        self.add_window(FaultWindow {
            start: Cycle::new(start),
            duration,
            kind: FaultKind::BankConflictBurst { delay_cycles },
        })
    }

    /// Adds a replay-storm window.
    pub fn replay_storm(self, start: u64, duration: u64) -> Self {
        self.add_window(FaultWindow {
            start: Cycle::new(start),
            duration,
            kind: FaultKind::ReplayStorm,
        })
    }

    /// Validates and records one window, remembering the first error so
    /// the chainable builder style keeps working.
    fn add_window(mut self, w: FaultWindow) -> Self {
        if self.error.is_some() {
            return self;
        }
        if w.duration == 0 {
            self.error = Some(format!(
                "fault window at cycle {} has zero duration (would silently inject nothing)",
                w.start.get()
            ));
            return self;
        }
        if let Some(prev) = self.windows.iter().find(|p| {
            p.start.get() < w.start.get() + w.duration && w.start.get() < p.start.get() + p.duration
        }) {
            self.error = Some(format!(
                "fault window [{}, {}) overlaps window [{}, {}) (only the first active window \
                 would apply)",
                w.start.get(),
                w.start.get() + w.duration,
                prev.start.get(),
                prev.start.get() + prev.duration
            ));
            return self;
        }
        self.windows.push(w);
        self
    }

    /// Checks the plan is well-formed, surfacing the first builder error
    /// (zero-duration or overlapping window) as
    /// [`SimError::ConfigInvalid`].
    pub fn validate(&self) -> Result<(), SimError> {
        match &self.error {
            Some(msg) => Err(SimError::ConfigInvalid(msg.clone())),
            None => Ok(()),
        }
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The perturbation (extra latency, attributed replay cause) a
    /// correct-path load executing at `now` suffers, if any window is
    /// active. Windows never overlap (validated at construction), so at
    /// most one window matches.
    pub(crate) fn load_fault(&self, now: Cycle) -> Option<(u64, ReplayCause)> {
        self.windows
            .iter()
            .find(|w| w.active_at(now))
            .map(|w| match w.kind {
                FaultKind::LatencySpike { extra_cycles } => (extra_cycles, ReplayCause::L1Miss),
                FaultKind::BankConflictBurst { delay_cycles } => {
                    (delay_cycles, ReplayCause::BankConflict)
                }
                // Late enough to defeat a hit-schedule wakeup at any of the
                // paper's issue-to-execute delays (0–6), short enough to stay
                // a storm of small replays rather than a stall.
                FaultKind::ReplayStorm => (12, ReplayCause::L1Miss),
            })
    }
}

/// Canonical single-token encoding, one window per comma-separated
/// entry: `spike@{start}x{dur}+{extra}`, `bank@{start}x{dur}+{delay}`,
/// `storm@{start}x{dur}`. An empty plan renders as the empty string; a
/// plan carrying a construction error renders as `<invalid>` (which
/// [`FromStr`] rejects). Whitespace-free by construction, so the token
/// embeds directly in the `RunRequest` wire encoding.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.error.is_some() {
            return write!(f, "<invalid>");
        }
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            let (start, dur) = (w.start.get(), w.duration);
            match w.kind {
                FaultKind::LatencySpike { extra_cycles } => {
                    write!(f, "spike@{start}x{dur}+{extra_cycles}")?
                }
                FaultKind::BankConflictBurst { delay_cycles } => {
                    write!(f, "bank@{start}x{dur}+{delay_cycles}")?
                }
                FaultKind::ReplayStorm => write!(f, "storm@{start}x{dur}")?,
            }
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::new();
        if s.is_empty() {
            return Ok(plan);
        }
        for entry in s.split(',') {
            let (tag, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault window `{entry}`: expected `kind@start...`"))?;
            let bad = |what: &str| format!("fault window `{entry}`: {what}");
            let (start_dur, param) = match rest.split_once('+') {
                Some((sd, p)) => (sd, Some(p)),
                None => (rest, None),
            };
            let (start, dur) = start_dur
                .split_once('x')
                .ok_or_else(|| bad("expected `{start}x{duration}`"))?;
            let start: u64 = start.parse().map_err(|_| bad("bad start cycle"))?;
            let dur: u64 = dur.parse().map_err(|_| bad("bad duration"))?;
            let param: Option<u64> = match param {
                Some(p) => Some(p.parse().map_err(|_| bad("bad parameter"))?),
                None => None,
            };
            plan = match (tag, param) {
                ("spike", Some(extra)) => plan.latency_spike(start, dur, extra),
                ("bank", Some(delay)) => plan.bank_conflict_burst(start, dur, delay),
                ("storm", None) => plan.replay_storm(start, dur),
                ("spike" | "bank", None) => return Err(bad("missing `+param`")),
                ("storm", Some(_)) => return Err(bad("storm takes no parameter")),
                _ => return Err(bad("unknown kind (expected spike|bank|storm)")),
            };
        }
        // Surface builder errors (zero duration, overlap) as parse errors
        // so a parsed plan is always valid.
        plan.validate().map_err(|e| e.to_string())?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new();
        assert_eq!(p.load_fault(Cycle::new(100)), None);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let p = FaultPlan::new().latency_spike(100, 50, 20);
        assert_eq!(p.load_fault(Cycle::new(99)), None);
        assert_eq!(
            p.load_fault(Cycle::new(100)),
            Some((20, ReplayCause::L1Miss))
        );
        assert_eq!(
            p.load_fault(Cycle::new(149)),
            Some((20, ReplayCause::L1Miss))
        );
        assert_eq!(p.load_fault(Cycle::new(150)), None);
    }

    #[test]
    fn kinds_map_to_expected_causes() {
        let p = FaultPlan::new()
            .bank_conflict_burst(0, 10, 3)
            .replay_storm(20, 10);
        assert_eq!(
            p.load_fault(Cycle::new(5)),
            Some((3, ReplayCause::BankConflict))
        );
        let (extra, cause) = p.load_fault(Cycle::new(25)).unwrap();
        assert_eq!(cause, ReplayCause::L1Miss);
        assert!(
            extra > 6,
            "storm residue must defeat the largest delay sweep point"
        );
    }

    #[test]
    fn zero_duration_window_is_rejected() {
        let p = FaultPlan::new().latency_spike(100, 0, 20);
        let err = p.validate().unwrap_err();
        assert!(matches!(err, SimError::ConfigInvalid(_)));
        assert!(err.to_string().contains("zero duration"), "{err}");
        assert!(p.windows().is_empty(), "bad window must not be recorded");
    }

    #[test]
    fn overlapping_windows_are_rejected() {
        let p = FaultPlan::new()
            .latency_spike(0, 100, 7)
            .replay_storm(50, 100);
        let err = p.validate().unwrap_err();
        assert!(matches!(err, SimError::ConfigInvalid(_)));
        assert!(err.to_string().contains("overlaps"), "{err}");
        // The first window survives; the overlapping one is dropped.
        assert_eq!(p.windows().len(), 1);
    }

    #[test]
    fn adjacent_windows_are_fine() {
        let p = FaultPlan::new()
            .latency_spike(0, 50, 7)
            .replay_storm(50, 50)
            .bank_conflict_burst(100, 50, 3);
        assert!(p.validate().is_ok());
        assert_eq!(p.windows().len(), 3);
    }

    #[test]
    fn first_error_sticks_across_later_valid_windows() {
        let p = FaultPlan::new()
            .latency_spike(0, 0, 7) // invalid: zero duration
            .replay_storm(50, 100); // valid, but the plan stays poisoned
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("zero duration"), "{err}");
    }

    #[test]
    fn plan_text_encoding_round_trips() {
        let p = FaultPlan::new()
            .latency_spike(200, 50, 8)
            .bank_conflict_burst(400, 30, 3)
            .replay_storm(1000, 120);
        let text = p.to_string();
        assert_eq!(text, "spike@200x50+8,bank@400x30+3,storm@1000x120");
        assert_eq!(text.parse::<FaultPlan>().as_ref(), Ok(&p));
        assert_eq!("".parse::<FaultPlan>(), Ok(FaultPlan::new()));
    }

    #[test]
    fn malformed_plan_text_is_rejected() {
        for bad in [
            "spike@200",
            "spike@200x50",          // missing +param
            "storm@0x10+3",          // storm takes none
            "laser@0x10",            // unknown kind
            "spike@0x0+1",           // zero duration
            "storm@0x10,storm@5x10", // overlap
            "<invalid>",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "`{bad}` must not parse");
        }
        let poisoned = FaultPlan::new().latency_spike(0, 0, 1);
        assert_eq!(poisoned.to_string(), "<invalid>");
    }
}

impl ss_types::Persist for FaultKind {
    fn save(&self, w: &mut ss_types::Writer) {
        match self {
            FaultKind::LatencySpike { extra_cycles } => {
                0u8.save(w);
                extra_cycles.save(w);
            }
            FaultKind::BankConflictBurst { delay_cycles } => {
                1u8.save(w);
                delay_cycles.save(w);
            }
            FaultKind::ReplayStorm => 2u8.save(w),
        }
    }
    fn load(r: &mut ss_types::Reader<'_>) -> Result<Self, ss_types::DecodeError> {
        match u8::load(r)? {
            0 => Ok(FaultKind::LatencySpike {
                extra_cycles: u64::load(r)?,
            }),
            1 => Ok(FaultKind::BankConflictBurst {
                delay_cycles: u64::load(r)?,
            }),
            2 => Ok(FaultKind::ReplayStorm),
            t => Err(r.err(format_args!("invalid FaultKind tag {t}"))),
        }
    }
}

ss_types::impl_persist!(FaultWindow {
    start,
    duration,
    kind
});
ss_types::impl_persist!(FaultPlan { windows, error });
