//! Bounds on the heap a simulator keeps resident: what `Simulator::new`
//! holds live for a Table 1 machine, in how many allocations, and what
//! is still live after a quick grid cell's worth of committed µ-ops.
//!
//! The large per-cell tables (the 1 MB L2's tags and recency stamps,
//! the 8K-entry BTB) are one flat, right-sized allocation each; these
//! bounds fail if a table goes back to one allocation per set or to
//! storage for ways the configuration does not have.
//!
//! This file intentionally holds a single `#[test]`: the counting
//! `#[global_allocator]` is process-global, and a sibling test
//! allocating on another thread would corrupt the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use speculative_scheduling::core::Simulator;
use speculative_scheduling::harness::configs;
use speculative_scheduling::harness::session::WORKLOAD_SEED;
use speculative_scheduling::workloads::{kernels, KernelTrace};

/// Bytes currently allocated and not yet freed.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Allocations (alloc + realloc calls) since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are relaxed atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const KIB: i64 = 1024;

/// `SpecSched_4` on `ptr_chase_big` (the grid's costliest cell): the
/// simulator's own live heap at construction and after a quick cell's
/// 20K warmup + 150K measured µ-ops. The trace source is built before
/// the first reading, so only the machine's state is counted.
#[test]
fn table1_machine_stays_within_its_footprint() {
    const NEW_LIVE_KIB: i64 = 544;
    const NEW_ALLOCS: u64 = 64;
    const RUN_LIVE_KIB: i64 = 704;
    const QUICK_UOPS: u64 = 170_000;

    let cfg = configs::spec_sched(4, true).config;
    let trace = KernelTrace::new(kernels::ptr_chase_big(WORKLOAD_SEED));

    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut sim = Simulator::new(cfg, trace);
    let new_live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let new_calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    eprintln!(
        "Simulator::new: {} KiB live in {new_calls} allocations",
        new_live / KIB
    );
    assert!(
        new_live <= NEW_LIVE_KIB * KIB,
        "Simulator::new holds {} KiB live (bound {NEW_LIVE_KIB} KiB)",
        new_live / KIB
    );
    assert!(
        new_calls <= NEW_ALLOCS,
        "Simulator::new made {new_calls} allocations (bound {NEW_ALLOCS})"
    );

    let stats = sim.try_run_committed(QUICK_UOPS).expect("healthy run");
    assert!(stats.committed_uops >= QUICK_UOPS);
    let run_live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    eprintln!(
        "after {QUICK_UOPS} committed µ-ops: {} KiB live",
        run_live / KIB
    );
    assert!(
        run_live <= RUN_LIVE_KIB * KIB,
        "after {QUICK_UOPS} committed µ-ops the simulator holds {} KiB live \
         (bound {RUN_LIVE_KIB} KiB)",
        run_live / KIB
    );
    drop(sim);
}
