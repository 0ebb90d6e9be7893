//! The `RunRequest` redesign contract:
//!
//! * **Round trip** — every request built from the wire-encodable
//!   builder surface survives `Display` → `FromStr` → `Display`
//!   unchanged, across a seeded sweep of the full option space.
//! * **Rejection** — library-only forms (`<custom>` configs, in-memory
//!   sources and snapshots), duplicate keys, and unknown keys are typed
//!   parse errors, never silent defaults. Library-only `<…>` markers in
//!   particular carry the marker itself in
//!   [`ParseRequestError::library_only`], and converting such an error
//!   into [`SimError`] names the marker.
//! * **Capture** — a request's window trace is exactly the event stream
//!   the library's capture sink records on a direct run.

use speculative_scheduling::core::{FaultPlan, RunLength, RunRequest, Simulator};
use speculative_scheduling::frontend::ProgramSpec;
use speculative_scheduling::harness::configs::ConfigSpec;
use speculative_scheduling::trace::CaptureSink;
use speculative_scheduling::types::{SimError, SplitMix64};
use speculative_scheduling::workloads::{kernels, KernelTrace};

/// Draws a uniform value in `0..n` (n ≤ 2^32 keeps the bias negligible).
fn pick(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A random request over the *encodable* builder surface: benchmark,
/// generated, or real-program sources, named config specs, and every
/// wire-visible option. In-memory sources/snapshots and `<custom>`
/// configs are library-only by design and excluded.
fn random_request(rng: &mut SplitMix64, case: u64) -> RunRequest {
    let names = kernels::benchmark_names();
    let progs = speculative_scheduling::frontend::programs::names();
    let mut req = match pick(rng, 3) {
        0 => {
            let name = names[pick(rng, names.len() as u64) as usize];
            RunRequest::bench(name, rng.next_u64())
        }
        1 => RunRequest::generated(rng.next_u64()),
        _ => {
            let name = progs[pick(rng, progs.len() as u64) as usize];
            RunRequest::program(ProgramSpec::suite(name, rng.next_u64() as u32))
        }
    };
    let variants = ConfigSpec::variants_at(1 + pick(rng, 6));
    req = req.config(variants[pick(rng, variants.len() as u64) as usize]);
    req = req.length(RunLength {
        warmup: pick(rng, 50_000),
        measure: 1 + pick(rng, 200_000),
    });
    match pick(rng, 4) {
        0 => req = req.capture_warm(),
        1 => req = req.from_snapshot_path(format!("warm/cell-{case}.snap")),
        _ => {}
    }
    if pick(rng, 4) == 0 {
        req = req.checked(true);
    }
    if pick(rng, 4) == 0 {
        // Round-trip only: these requests are never executed, so the
        // deadline just has to survive the wire, not fire.
        req = req.deadline_ms(1 + pick(rng, 600_000));
    }
    match pick(rng, 4) {
        0 => req = req.ring_trace(1 + pick(rng, 8_192) as usize),
        1 => {
            let lo = pick(rng, 100_000);
            let hi = lo + 1 + pick(rng, 100_000);
            req = req.window_trace(lo..hi);
        }
        _ => {}
    }
    if pick(rng, 3) == 0 {
        // Sequential, non-overlapping windows keep the plan valid.
        let mut plan = FaultPlan::new();
        let mut start = 1 + pick(rng, 1_000);
        for _ in 0..=pick(rng, 2) {
            let dur = 1 + pick(rng, 500);
            plan = match pick(rng, 3) {
                0 => plan.latency_spike(start, dur, 1 + pick(rng, 30)),
                1 => plan.bank_conflict_burst(start, dur, 1 + pick(rng, 10)),
                _ => plan.replay_storm(start, dur),
            };
            start += dur + 1 + pick(rng, 1_000);
        }
        req = req.faults(plan);
    }
    if pick(rng, 8) == 0 {
        req = req.seed_wakeup_bug();
    }
    if pick(rng, 5) == 0 {
        req = req.checkpoint_note(format!("cell-{case}"));
    }
    req
}

#[test]
fn display_from_str_round_trips_across_the_encodable_surface() {
    let mut rng = SplitMix64::new(0xB5B5_0007);
    for case in 0..600 {
        let req = random_request(&mut rng, case);
        let text = req.to_string();
        let parsed: RunRequest = text
            .parse()
            .unwrap_or_else(|e| panic!("case {case}: `{text}` failed to parse: {e}"));
        assert_eq!(
            parsed, req,
            "case {case}: `{text}` parsed to a different request"
        );
        assert_eq!(parsed.to_string(), text, "case {case}: re-encoding drifted");
    }
}

#[test]
fn library_only_and_malformed_forms_are_typed_parse_errors() {
    // (input, the `<…>` marker the typed error must carry; None for
    // ordinary syntax errors.)
    let bad: [(&str, Option<&str>); 18] = [
        // Library-only markers must never parse back — and the parse
        // error must say *which* marker, typed, not just a string.
        (
            "src=<spec:fp_compute> cfg=SpecSched_4 len=w1m2",
            Some("<spec:fp_compute>"),
        ),
        (
            "src=<trace:loop> cfg=SpecSched_4 len=w1m2",
            Some("<trace:loop>"),
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=<custom> len=w1m2",
            Some("<custom>"),
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=<unset>",
            Some("<unset>"),
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 fork=<snapshot>",
            Some("<snapshot>"),
        ),
        // Structural errors carry no marker.
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 len=w3m4",
            None,
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 shiny=1",
            None,
        ),
        ("src=gen:0x1 cfg=SpecSched_4", None),
        ("cfg=SpecSched_4 len=w1m2", None),
        ("src=gen:zzz cfg=SpecSched_4 len=w1m2", None),
        ("src=bench:fp_compute cfg=SpecSched_4 len=w1m2", None),
        ("src=rv: cfg=SpecSched_4 len=w1m2", None),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 trace=ring:0",
            None,
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 faults=spike@5x0+1",
            None,
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 deadline=0",
            None,
        ),
        (
            "src=bench:fp_compute@0xb5 cfg=SpecSched_4 len=w1m2 deadline=5 deadline=5",
            None,
        ),
        ("src=bench:fp_compute@0xb5 cfg=Nonsense_9 len=w1m2", None),
        ("not a request at all", None),
    ];
    for (text, marker) in bad {
        let err = text
            .parse::<RunRequest>()
            .expect_err(&format!("`{text}` must be rejected"));
        // The typed error carries the offending input for diagnostics.
        assert_eq!(err.input, text);
        assert!(!err.reason.is_empty());
        assert_eq!(
            err.library_only.as_deref(),
            marker,
            "`{text}`: wrong library_only classification"
        );
        // Crossing into `SimError` keeps the distinction: marker errors
        // become a `ConfigInvalid` that names the marker.
        let sim: SimError = err.into();
        let msg = sim.to_string();
        match marker {
            Some(m) => {
                assert!(msg.contains(m), "`{msg}` must name `{m}`");
                assert!(msg.contains("library-only"), "`{msg}`");
            }
            None => assert!(!msg.contains("library-only"), "`{msg}`"),
        }
    }
}

/// The runner's window mode and a direct simulator run with the library
/// sink capture the same events in the same order.
#[test]
fn window_trace_matches_a_direct_capture_sink_run() {
    let spec: ConfigSpec = "SpecSched_4".parse().unwrap();
    let window = 100..300;
    let outcome = RunRequest::bench("ptr_chase_big", 0xb5)
        .config(spec)
        .length(RunLength {
            warmup: 0,
            measure: window.end,
        })
        .window_trace(window.clone())
        .execute()
        .expect("traced request runs");

    let bench = kernels::benchmark("ptr_chase_big").unwrap();
    let mut sim = Simulator::with_sink(
        spec.config(),
        KernelTrace::new((bench.build)(0xb5)),
        CaptureSink::with_window(window.clone()),
    );
    sim.try_run_committed(window.end).expect("direct run");
    let direct = sim.into_sink().into_events();

    assert!(
        direct.iter().any(|e| e.seq().is_some()),
        "window captured no µ-op events"
    );
    assert_eq!(outcome.trace, direct);
}
