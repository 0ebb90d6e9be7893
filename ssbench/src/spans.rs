//! In-memory spans around the calls the traced pass makes into each
//! layer, written out once at the end as Chrome-trace JSON (it opens in
//! Perfetto, like `experiments trace` output).
//!
//! A span records its name, start, end, parent and thread; the file adds
//! the workload. A layer is the span name up to its first `.` (`core`,
//! `harness`, `serve`, …), and a layer's self time is its spans' time
//! minus the part of it their child spans cover.

use crate::results::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// Times every call it wraps, and records spans when enabled.
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    /// Parent, in the joining tracer, of this tracer's root spans.
    root_parent: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            tid: 0,
            root_parent: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the wall time it took. The time is measured whether or not spans
    /// are recorded, so the same pass serves the overhead comparison.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        let id = self.on.then(|| {
            let id = self.spans.len();
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                tid: self.tid,
            });
            self.open.push(id);
            id
        });
        let t0 = Instant::now();
        let r = f(self);
        let took = t0.elapsed();
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.open.pop();
        }
        (r, took)
    }

    /// [`time`](Tracer::time) when only the result is wanted.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.time(name, f).0
    }

    /// A tracer for worker thread `tid`, whose root spans nest under the
    /// span open here. Hand it back with [`join`](Tracer::join).
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            tid,
            root_parent: self.open.last().copied(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Takes over a forked tracer's spans.
    pub fn join(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => other.root_parent,
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals (children on parallel threads may overlap).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per layer: (spans, total ns, self ns), in layer-name order.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, (usize, u64, u64)> {
    let mut table: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(layer(&s.name).to_string()).or_default();
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += own;
    }
    table
}

/// Chrome-trace JSON for `spans`, tagged with the workload.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let _ = writeln!(
            out,
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \"args\": {{\"name\": \"ssbench-{tid}\"}}}},"
        );
    }
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"ph\": \"X\", \"name\": {}, \"cat\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \"workload\": {}}}}},",
            quote(&s.name),
            quote(layer(&s.name)),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            quote(workload),
        );
    }
    // Drop the trailing comma of the last event.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, tid: u32) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("harness.pass", 0, 100, None, 0),
            // Two overlapping children from parallel threads, one later.
            span("core.execute", 10, 30, Some(0), 1),
            span("core.execute", 20, 50, Some(0), 2),
            span("snapshot.capture", 60, 70, Some(0), 0),
            // A grandchild inside the first child.
            span("mem.probe", 12, 15, Some(1), 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 17, 30, 10, 3]);
        let table = layer_table(&spans);
        assert_eq!(table["harness"], (1, 100, 50));
        assert_eq!(table["core"], (2, 50, 47));
        assert_eq!(table["snapshot"], (1, 10, 10));
        assert_eq!(table["mem"], (1, 3, 3));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("a", 10, 20, None, 0),
            span("b", 5, 15, Some(0), 0),
            span("c", 18, 40, Some(0), 0),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn tracer_nests_spans_and_joins_forked_threads() {
        let mut t = Tracer::new(true);
        t.span("harness.pass", |t| {
            t.span("core.execute", |_| ());
            let mut worker = t.fork(1);
            worker.span("core.execute", |w| w.span("workloads.next_uop", |_| ()));
            t.join(worker);
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[2].tid), (Some(0), 1));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let doc = chrome_trace(s, "sweep_quick");
        let summary = ss_trace::json::validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!((summary.spans, summary.metadata), (4, 2));
    }

    #[test]
    fn a_disabled_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, took) = t.time("core.execute", |_| 7);
        assert_eq!(v, 7);
        assert!(took < Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
