//! Proof that the simulator's per-cycle hot loop is allocation-free in
//! steady state: after a warmup long enough for every pool, queue, and
//! scratch buffer to reach its high-water mark, ticking the pipeline must
//! perform **zero** heap allocations. This is the enforcement half of the
//! "de-allocate the hot loop" work — the pools (`VecPool`), scratch
//! buffers, and clone elimination in `ss-core`/`ss-mem` only stay honest
//! if a counting allocator watches them.
//!
//! This file intentionally holds a single `#[test]`: the counting
//! `#[global_allocator]` is process-global, and a sibling test allocating
//! on another thread would corrupt the measurement. Integration tests are
//! separate crates, so the facade's `#![forbid(unsafe_code)]` does not
//! extend here; the `unsafe` below is the bare minimum a `GlobalAlloc`
//! shim requires.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use speculative_scheduling::core::Simulator;
use speculative_scheduling::prelude::*;
use speculative_scheduling::workloads::{kernels, KernelTrace};

/// Allocations (alloc + realloc calls) since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic and
// touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Ticks the pipeline under a replay-heavy configuration and asserts the
/// steady-state window allocates nothing. The kernel mixes loads that
/// miss, dependent ALU chains, and branches, so the window exercises
/// issue, replay, recovery, squash, bank arbitration, and prefetching —
/// every path the de-allocation work touched.
#[test]
fn steady_state_tick_does_not_allocate() {
    const WARMUP: u64 = 50_000;
    const MEASURE: u64 = 20_000;

    let cfg = SimConfig::builder()
        .issue_to_execute_delay(4)
        .sched_policy(SchedPolicyKind::AlwaysHit)
        .banked_l1d(true)
        .build();
    let mut sim = Simulator::new(cfg, KernelTrace::new(kernels::mix_int(7)));

    // Warm every structure to its high-water mark: ROB/IQ queues, the
    // wake heap, pools, cache/MSHR state, the bank-arbiter queue.
    for _ in 0..WARMUP {
        sim.tick();
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..MEASURE {
        sim.tick();
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    let stats = sim.stats();
    let replays = stats.replayed_miss + stats.replayed_bank + stats.replayed_prf;
    assert!(
        stats.committed_uops > 0 && replays > 0,
        "window did no interesting work (committed {}, replays {replays}) — \
         the zero-alloc claim would be vacuous",
        stats.committed_uops,
    );
    assert_eq!(
        after - before,
        0,
        "steady-state hot loop allocated {} times over {MEASURE} cycles",
        after - before
    );

    // The run loop on top of `tick`: the quiet-window probe runs on
    // every iteration. Each call returns a `SimStats`; whatever building
    // one costs is the only allocation allowed.
    const SLICES: u64 = 40;
    const SLICE: u64 = 500;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let _ = sim.stats();
    let per_stats = ALLOC_CALLS.load(Ordering::Relaxed) - before;

    let cycles_before = sim.stats().cycles;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..SLICES {
        sim.try_run_committed(SLICE).expect("healthy run");
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    let ran = sim.stats().cycles - cycles_before;
    assert!(
        ran > SLICES * SLICE / 8,
        "run loop barely advanced ({ran} cycles)"
    );
    assert!(
        after - before <= SLICES * per_stats,
        "run loop allocated {} times over {SLICES} slices (budget {} for the returned stats)",
        after - before,
        SLICES * per_stats
    );
}
