//! Chrome-trace-event (Perfetto) JSON exporter.
//!
//! Produces the legacy Chrome trace-event JSON format, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly:
//!
//! * one thread track per pipeline stage (fetch / rename / issue /
//!   execute / replay / recovery / commit / flush) under a single
//!   "pipeline" process, with each µ-op's visit to a stage as a `"X"`
//!   complete event (1 timestamp unit == 1 simulated cycle);
//! * speculative wakeups and replay squashes as `"i"` instants;
//! * each replay squash linked back to its triggering µ-op with a
//!   `"s"`/`"f"` flow pair, so clicking the late load in the Perfetto UI
//!   draws arrows to every dependent it took down;
//! * per-cycle structure occupancy as a multi-series `"C"` counter
//!   track.
//!
//! Output is deterministic: event order follows the input stream and
//! flow ids are assigned in first-use order.

use ss_types::trace::{class_code, TraceEvent};
use ss_types::{Cycle, SeqNum};
use std::collections::HashMap;
use std::fmt::Write;

/// The single synthetic process id all tracks live under.
const PID: u32 = 1;

/// Stage track ids (Chrome "thread" ids), in pipeline order.
mod tid {
    pub const FETCH: u32 = 1;
    pub const RENAME: u32 = 2;
    pub const ISSUE: u32 = 3;
    pub const EXECUTE: u32 = 4;
    pub const REPLAY: u32 = 5;
    pub const RECOVERY: u32 = 6;
    pub const COMMIT: u32 = 7;
    pub const FLUSH: u32 = 8;
}

const TRACKS: &[(u32, &str)] = &[
    (tid::FETCH, "fetch"),
    (tid::RENAME, "rename"),
    (tid::ISSUE, "issue"),
    (tid::EXECUTE, "execute"),
    (tid::REPLAY, "replay-squash"),
    (tid::RECOVERY, "recovery-buffer"),
    (tid::COMMIT, "commit"),
    (tid::FLUSH, "flush"),
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, body: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(body);
        self.out.push('}');
    }

    fn span(&mut self, name: &str, ts: Cycle, dur: u64, tid: u32) {
        self.push(&format!(
            "\"ph\":\"X\",\"name\":\"{}\",\"ts\":{},\"dur\":{},\"pid\":{PID},\"tid\":{}",
            esc(name),
            ts.get(),
            dur.max(1),
            tid
        ));
    }

    fn instant(&mut self, name: &str, ts: Cycle, tid: u32) {
        self.push(&format!(
            "\"ph\":\"i\",\"name\":\"{}\",\"ts\":{},\"pid\":{PID},\"tid\":{},\"s\":\"t\"",
            esc(name),
            ts.get(),
            tid
        ));
    }

    fn flow(&mut self, ph: char, name: &str, id: u64, ts: Cycle, tid: u32) {
        let tail = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
        self.push(&format!(
            "\"ph\":\"{ph}\",\"name\":\"{}\",\"cat\":\"replay\",\"id\":{id},\"ts\":{},\
             \"pid\":{PID},\"tid\":{}{tail}",
            esc(name),
            ts.get(),
            tid
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn uop_name(seq: SeqNum) -> String {
    format!("u{}", seq.get())
}

/// Renders `events` as a Chrome-trace-event JSON document.
///
/// Events may arrive in discovery order (the instrumentation back-dates
/// `Fetch`); the exporter stamps each with its own cycle, which is all
/// the trace viewers need.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut e = Emitter::new();
    e.push(&format!(
        "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{PID},\"args\":{{\"name\":\"pipeline\"}}"
    ));
    for &(t, name) in TRACKS {
        e.push(&format!(
            "\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID},\"tid\":{t},\
             \"args\":{{\"name\":\"{name}\"}}"
        ));
        // Order tracks by pipeline stage, not alphabetically.
        e.push(&format!(
            "\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{PID},\"tid\":{t},\
             \"args\":{{\"sort_index\":{t}}}"
        ));
    }

    // One flow id per (trigger, squash-cycle) replay group: a single
    // flow start on the trigger fans out to every squashed dependent.
    let mut flow_ids: HashMap<(u64, u64), u64> = HashMap::new();
    let mut next_flow = 0u64;

    for ev in events {
        match *ev {
            TraceEvent::Fetch {
                cycle,
                seq,
                pc,
                class,
                wrong_path,
            } => {
                let wp = if wrong_path { " wp" } else { "" };
                e.span(
                    &format!(
                        "u{} {} pc={:#x}{wp}",
                        seq.get(),
                        class_code(class),
                        pc.get()
                    ),
                    cycle,
                    1,
                    tid::FETCH,
                );
            }
            TraceEvent::Rename { cycle, seq } => {
                e.span(&uop_name(seq), cycle, 1, tid::RENAME);
            }
            TraceEvent::SpecWakeup { cycle, seq, wake } => {
                e.instant(
                    &format!("u{} spec-wakeup@{}", seq.get(), wake.get()),
                    cycle,
                    tid::ISSUE,
                );
            }
            TraceEvent::Issue {
                cycle,
                seq,
                from_recovery,
            } => {
                let tag = if from_recovery { " (replay)" } else { "" };
                e.span(&format!("u{}{tag}", seq.get()), cycle, 1, tid::ISSUE);
            }
            TraceEvent::Execute {
                cycle,
                seq,
                done_at,
            } => {
                e.span(
                    &uop_name(seq),
                    cycle,
                    done_at.get().saturating_sub(cycle.get()),
                    tid::EXECUTE,
                );
            }
            TraceEvent::ReplaySquash {
                cycle,
                seq,
                trigger,
                cause,
            } => {
                let key = (trigger.get(), cycle.get());
                let new = !flow_ids.contains_key(&key);
                let id = *flow_ids.entry(key).or_insert_with(|| {
                    next_flow += 1;
                    next_flow
                });
                let name = format!("replay {cause}");
                if new {
                    // Flow start rides on the triggering µ-op.
                    e.instant(
                        &format!("u{} triggers {cause} replay", trigger.get()),
                        cycle,
                        tid::EXECUTE,
                    );
                    e.flow('s', &name, id, cycle, tid::EXECUTE);
                }
                e.span(
                    &format!("u{} squashed ({cause} by u{})", seq.get(), trigger.get()),
                    cycle,
                    1,
                    tid::REPLAY,
                );
                e.flow('f', &name, id, cycle, tid::REPLAY);
            }
            TraceEvent::RecoveryEnter { cycle, seq } => {
                e.span(&uop_name(seq), cycle, 1, tid::RECOVERY);
            }
            TraceEvent::Commit { cycle, seq } => {
                e.span(&uop_name(seq), cycle, 1, tid::COMMIT);
            }
            TraceEvent::Flush { cycle, seq } => {
                e.span(&format!("u{} flushed", seq.get()), cycle, 1, tid::FLUSH);
            }
            TraceEvent::Occupancy {
                cycle,
                rob,
                iq,
                lq,
                sq,
                frontend,
                recovery,
                inflight,
                wrong_path,
            } => {
                e.push(&format!(
                    "\"ph\":\"C\",\"name\":\"occupancy\",\"ts\":{},\"pid\":{PID},\
                     \"args\":{{\"rob\":{rob},\"iq\":{iq},\"lq\":{lq},\"sq\":{sq},\
                     \"frontend\":{frontend},\"recovery\":{recovery},\"inflight\":{inflight},\
                     \"wrong_path\":{}}}",
                    cycle.get(),
                    u8::from(wrong_path)
                ));
            }
        }
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;
    use ss_types::{OpClass, Pc, ReplayCause};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fetch {
                cycle: Cycle::new(0),
                seq: SeqNum::new(0),
                pc: Pc::new(0x400),
                class: OpClass::Load,
                wrong_path: false,
            },
            TraceEvent::Rename {
                cycle: Cycle::new(4),
                seq: SeqNum::new(0),
            },
            TraceEvent::SpecWakeup {
                cycle: Cycle::new(6),
                seq: SeqNum::new(0),
                wake: Cycle::new(10),
            },
            TraceEvent::Issue {
                cycle: Cycle::new(6),
                seq: SeqNum::new(0),
                from_recovery: false,
            },
            TraceEvent::Execute {
                cycle: Cycle::new(10),
                seq: SeqNum::new(0),
                done_at: Cycle::new(14),
            },
            TraceEvent::ReplaySquash {
                cycle: Cycle::new(10),
                seq: SeqNum::new(1),
                trigger: SeqNum::new(0),
                cause: ReplayCause::L1Miss,
            },
            TraceEvent::ReplaySquash {
                cycle: Cycle::new(10),
                seq: SeqNum::new(2),
                trigger: SeqNum::new(0),
                cause: ReplayCause::L1Miss,
            },
            TraceEvent::RecoveryEnter {
                cycle: Cycle::new(10),
                seq: SeqNum::new(1),
            },
            TraceEvent::Commit {
                cycle: Cycle::new(20),
                seq: SeqNum::new(0),
            },
            TraceEvent::Flush {
                cycle: Cycle::new(22),
                seq: SeqNum::new(5),
            },
            TraceEvent::Occupancy {
                cycle: Cycle::new(23),
                rob: 7,
                iq: 3,
                lq: 1,
                sq: 0,
                frontend: 4,
                recovery: 1,
                inflight: 2,
                wrong_path: false,
            },
        ]
    }

    #[test]
    fn export_passes_schema_validation() {
        let doc = export_chrome_trace(&sample());
        let s = validate_chrome_trace(&doc).expect("schema-valid");
        assert!(s.spans >= 7, "{s:?}");
        assert_eq!(s.counters, 1, "{s:?}");
        // One flow start + two flow finishes for the shared trigger.
        assert_eq!(s.flows, 3, "{s:?}");
        assert_eq!(s.metadata, 1 + 2 * TRACKS.len(), "{s:?}");
    }

    #[test]
    fn squash_group_shares_one_flow_id() {
        let doc = export_chrome_trace(&sample());
        assert_eq!(doc.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(doc.matches("\"ph\":\"f\"").count(), 2);
        assert_eq!(doc.matches("\"id\":1,").count(), 3);
    }

    #[test]
    fn export_is_deterministic() {
        let a = export_chrome_trace(&sample());
        let b = export_chrome_trace(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_is_still_valid() {
        let doc = export_chrome_trace(&[]);
        let s = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(s.spans, 0);
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
