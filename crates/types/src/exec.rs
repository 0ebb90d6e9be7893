//! A minimal scoped-thread worker pool for embarrassingly-parallel work.
//!
//! The experiment matrix is a set of independent (configuration ×
//! benchmark) cells; this module provides the std-only building blocks
//! the harness shards them with:
//!
//! * [`CancelFlag`] — a cooperative cancellation token shared between
//!   workers (and, e.g., a Ctrl-C handler).
//! * [`WorkQueue`] — a lock-free shared index queue: workers *steal* the
//!   next unclaimed job index, so a slow cell never stalls the others
//!   (dynamic load balancing over a static job list).
//! * [`scoped_workers`] — spawns `n` scoped worker threads and collects
//!   their results in worker order; panics propagate to the caller once
//!   all workers have stopped.
//! * [`Priority`] / [`PrioQueue`] — a bounded, blocking three-level
//!   priority queue (interactive / normal / bulk, FIFO within a level)
//!   with typed overload rejection, backing the `experiments serve`
//!   admission control.
//! * [`CostEma`] — per-key exponentially-weighted moving averages of
//!   simulation cost (the Exo-OS predictive-scheduler recipe: α = 1/4),
//!   used to classify incoming requests into priority levels, held in a
//!   [`BoundedMap`] (FIFO eviction at a fixed capacity) like the serve
//!   layer's results front.
//!
//! The pool deliberately has no knowledge of what a "job" is: callers
//! index into their own job list with the indices handed out by
//! [`WorkQueue::take`], which makes result ordering the caller's choice
//! (the harness writes results into pre-allocated slots, so output order
//! is deterministic regardless of completion order).
//!
//! # Example
//!
//! ```
//! use ss_types::exec::{scoped_workers, WorkQueue};
//! use std::sync::Mutex;
//!
//! let jobs: Vec<u64> = (0..100).collect();
//! let queue = WorkQueue::new(jobs.len());
//! let results = Mutex::new(vec![0u64; jobs.len()]);
//! scoped_workers(4, |_worker| {
//!     while let Some(i) = queue.take() {
//!         let r = jobs[i] * 2; // the expensive part, outside any lock
//!         results.lock().unwrap()[i] = r;
//!     }
//! });
//! assert_eq!(results.into_inner().unwrap()[21], 42);
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cooperative cancellation token.
///
/// Cloning is cheap (an [`Arc`] bump); every clone observes the same
/// flag. Workers poll [`CancelFlag::is_cancelled`] between jobs, so
/// cancellation takes effect at the next job boundary, never mid-cell.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-cancelled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A shared queue over the job indices `0..total`.
///
/// The queue is a single atomic cursor: [`WorkQueue::take`] hands each
/// caller the next unclaimed index exactly once. This is work *stealing*
/// in its simplest form — idle workers pull the next job the moment they
/// finish, so load imbalance between cells (simulation time varies by an
/// order of magnitude across configurations) never leaves a worker idle
/// while work remains.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    total: usize,
    cancel: CancelFlag,
}

impl WorkQueue {
    /// A queue over `0..total` with a fresh cancellation flag.
    pub fn new(total: usize) -> Self {
        Self::with_cancel(total, CancelFlag::new())
    }

    /// A queue over `0..total` observing an external cancellation flag.
    pub fn with_cancel(total: usize, cancel: CancelFlag) -> Self {
        WorkQueue {
            next: AtomicUsize::new(0),
            total,
            cancel,
        }
    }

    /// Claims the next job index, or `None` when the queue is drained or
    /// cancelled. Each index in `0..total` is handed out exactly once.
    pub fn take(&self) -> Option<usize> {
        if self.cancel.is_cancelled() {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }

    /// Total number of jobs the queue was created with.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Spawns `n` scoped worker threads running `worker(worker_index)` and
/// returns their results in worker order (index 0 first), regardless of
/// completion order.
///
/// `n == 0` is clamped to 1. With `n == 1` the worker runs on the
/// calling thread — no thread is spawned, so a single-job run is
/// byte-for-byte the sequential code path.
///
/// # Panics
///
/// If a worker panics, the panic is re-raised on the calling thread
/// after all other workers have finished (callers that need isolation
/// catch panics *inside* the worker, as the harness session does per
/// cell).
pub fn scoped_workers<R, F>(n: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = n.max(1);
    if n == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n)
            .map(|w| {
                scope.spawn({
                    let worker = &worker;
                    move || worker(w)
                })
            })
            .collect();
        let first = worker(0);
        let mut out = Vec::with_capacity(n);
        out.push(first);
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Default worker count: the host's available parallelism, 1 if unknown.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Scheduling class of a serve-layer request.
///
/// Orders from most to least urgent; [`PrioQueue::pop`] always drains
/// `Interactive` before `Normal` before `Bulk`, FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Short, latency-sensitive requests (a human is waiting).
    Interactive,
    /// The default class for requests of unknown or moderate cost.
    #[default]
    Normal,
    /// Long sweep traffic that tolerates queueing behind everything else.
    Bulk,
}

impl Priority {
    /// All classes, most urgent first (drain order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Bulk];

    /// Dense index for per-class arrays: 0 = interactive, 2 = bulk.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// The wire tag (`interactive` / `normal` / `bulk`).
    pub fn tag(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interactive" => Ok(Priority::Interactive),
            "normal" => Ok(Priority::Normal),
            "bulk" => Ok(Priority::Bulk),
            other => Err(format!(
                "unknown priority `{other}` (expected interactive|normal|bulk)"
            )),
        }
    }
}

/// Why a [`PrioQueue::try_push`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `depth` pending items, at its admission limit —
    /// the caller should surface a typed `Overloaded`, never block.
    Overloaded {
        /// Pending items across all classes at the time of rejection.
        depth: usize,
        /// The admission limit the queue was built with.
        limit: usize,
    },
    /// The queue was closed (server shutting down).
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Overloaded { depth, limit } => {
                write!(f, "queue overloaded: {depth} pending at limit {limit}")
            }
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

/// A bounded, blocking three-level priority queue.
///
/// `try_push` never blocks: when the total pending depth has reached the
/// admission limit it returns [`PushError::Overloaded`] — the serve
/// layer's bounded-queue admission control. `pop` blocks until an item
/// is available (highest class first, FIFO within a class) or the queue
/// is closed and drained.
///
/// The queue is not lock-free like [`WorkQueue`] — serve requests arrive
/// at human/network rate, so a mutex + condvar is the right tool; the
/// lock is held only for a push or pop, never across a simulation.
#[derive(Debug)]
pub struct PrioQueue<T> {
    inner: Mutex<PrioInner<T>>,
    ready: Condvar,
    limit: usize,
}

#[derive(Debug)]
struct PrioInner<T> {
    classes: [VecDeque<T>; 3],
    closed: bool,
    /// Next number [`PrioQueue::try_push_numbered`] hands out.
    next_number: u64,
}

impl<T> PrioQueue<T> {
    /// A queue admitting at most `limit` pending items in total (min 1).
    pub fn new(limit: usize) -> Self {
        PrioQueue {
            inner: Mutex::new(PrioInner {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                next_number: 0,
            }),
            ready: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// The admission limit this queue was built with.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Total pending items across all classes.
    pub fn depth(&self) -> usize {
        let inner = self.inner.lock().expect("prio queue poisoned");
        inner.classes.iter().map(VecDeque::len).sum()
    }

    /// Pending items per class, indexed by [`Priority::index`] (the
    /// serve layer's `metrics` report).
    pub fn depths(&self) -> [usize; 3] {
        let inner = self.inner.lock().expect("prio queue poisoned");
        [
            inner.classes[0].len(),
            inner.classes[1].len(),
            inner.classes[2].len(),
        ]
    }

    /// Enqueues `item` at `prio`, or refuses with a typed error —
    /// never blocks.
    pub fn try_push(&self, prio: Priority, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock().expect("prio queue poisoned");
        if let Err(e) = self.admit(&inner) {
            return Err((item, e));
        }
        inner.classes[prio.index()].push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// [`Self::try_push`] for items that carry an admission number:
    /// `make` receives the next number (0, 1, 2, … over admitted items)
    /// and builds the item under the queue lock, so within a class items
    /// pop in number order however many threads push at once. `make`
    /// runs only if the item is admitted, and must not use this queue.
    pub fn try_push_numbered(
        &self,
        prio: Priority,
        make: impl FnOnce(u64) -> T,
    ) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("prio queue poisoned");
        self.admit(&inner)?;
        let number = inner.next_number;
        inner.next_number += 1;
        let item = make(number);
        inner.classes[prio.index()].push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Admission control: refuses a push to a closed or full queue.
    fn admit(&self, inner: &PrioInner<T>) -> Result<(), PushError> {
        if inner.closed {
            return Err(PushError::Closed);
        }
        let depth: usize = inner.classes.iter().map(VecDeque::len).sum();
        if depth >= self.limit {
            return Err(PushError::Overloaded {
                depth,
                limit: self.limit,
            });
        }
        Ok(())
    }

    /// Blocks until an item is available and returns the most urgent
    /// pending one (FIFO within its class), or `None` once the queue is
    /// closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("prio queue poisoned");
        loop {
            for class in inner.classes.iter_mut() {
                if let Some(item) = class.pop_front() {
                    return Some(item);
                }
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("prio queue poisoned");
        }
    }

    /// Closes the queue: pending items still drain through [`pop`], new
    /// pushes are refused, and blocked poppers wake as the queue empties.
    ///
    /// [`pop`]: PrioQueue::pop
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("prio queue poisoned");
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Drains and discards everything still pending, returning the items
    /// (used at shutdown to fail queued requests with a typed error).
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.inner.lock().expect("prio queue poisoned");
        let mut out = Vec::new();
        for class in inner.classes.iter_mut() {
            out.extend(class.drain(..));
        }
        out
    }
}

/// A map of at most `capacity` entries keyed by text: when full, the
/// oldest key makes room (FIFO eviction). A resident key keeps its slot;
/// [`BoundedMap::insert`] leaves it alone and [`BoundedMap::get_mut`]
/// updates it in place. A long-lived server keeps its per-request state
/// in these, so its memory stays flat however many distinct keys it sees.
#[derive(Debug)]
pub struct BoundedMap<V> {
    capacity: usize,
    map: HashMap<String, V>,
    /// Keys in insertion order.
    order: VecDeque<String>,
}

impl<V> BoundedMap<V> {
    /// An empty map holding at most `capacity` (≥ 1) entries.
    pub fn new(capacity: usize) -> Self {
        BoundedMap {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The value under `key`, if resident.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.map.get(key)
    }

    /// The value under `key` for an in-place update, if resident.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// Keeps `value` under `key` unless `key` is already resident, in
    /// which case nothing changes. A full map first evicts its oldest key.
    pub fn insert(&mut self, key: String, value: V) {
        if self.map.contains_key(&key) {
            return;
        }
        if self.order.len() == self.capacity {
            let oldest = self.order.pop_front().expect("a full map is non-empty");
            self.map.remove(&oldest);
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The most entries the map ever holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Per-key exponentially-weighted moving average of observed cost.
///
/// The Exo-OS predictive-scheduler recipe: `ema = new/4 + 3·old/4`
/// (α = 1/4), integer arithmetic so the estimate is deterministic across
/// hosts. Keys are caller-defined (the serve layer uses
/// `"{config}|{source}"`), costs are caller-defined units (the serve
/// layer feeds wall-clock milliseconds). At most `capacity` keys keep an
/// estimate; the oldest is forgotten first, and a forgotten key
/// classifies as unknown again.
#[derive(Debug)]
pub struct CostEma {
    ema: BoundedMap<u64>,
}

impl CostEma {
    /// An empty tracker keeping at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        CostEma {
            ema: BoundedMap::new(capacity),
        }
    }

    /// Folds one observed cost into `key`'s average. The first
    /// observation seeds the average directly.
    pub fn observe(&mut self, key: &str, cost: u64) {
        match self.ema.get_mut(key) {
            Some(ema) => *ema = (cost + 3 * *ema) / 4,
            None => self.ema.insert(key.to_string(), cost),
        }
    }

    /// The current estimate for `key`, if any cost has been observed.
    pub fn predict(&self, key: &str) -> Option<u64> {
        self.ema.get(key).copied()
    }

    /// Number of keys with an estimate.
    pub fn len(&self) -> usize {
        self.ema.len()
    }

    /// Whether no cost has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.ema.is_empty()
    }

    /// The most keys that keep an estimate.
    pub fn capacity(&self) -> usize {
        self.ema.capacity()
    }

    /// Classifies `key` by its estimate against two thresholds:
    /// at most `interactive_max` → [`Priority::Interactive`], at least
    /// `bulk_min` → [`Priority::Bulk`], otherwise (including an unknown
    /// key) → [`Priority::Normal`].
    pub fn classify(&self, key: &str, interactive_max: u64, bulk_min: u64) -> Priority {
        match self.predict(key) {
            Some(cost) if cost <= interactive_max => Priority::Interactive,
            Some(cost) if cost >= bulk_min => Priority::Bulk,
            _ => Priority::Normal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn queue_hands_out_each_index_exactly_once() {
        let q = WorkQueue::new(1000);
        let seen = Mutex::new(vec![0u32; 1000]);
        scoped_workers(8, |_| {
            while let Some(i) = q.take() {
                seen.lock().unwrap()[i] += 1;
            }
        });
        assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn results_are_in_worker_order() {
        let r = scoped_workers(4, |w| w * 10);
        assert_eq!(r, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let q = WorkQueue::new(3);
        let r = scoped_workers(0, |w| {
            let mut n = 0;
            while q.take().is_some() {
                n += 1;
            }
            (w, n)
        });
        assert_eq!(r, vec![(0, 3)]);
    }

    #[test]
    fn cancellation_stops_handout_at_job_boundary() {
        let cancel = CancelFlag::new();
        let q = WorkQueue::with_cancel(1_000_000, cancel.clone());
        let done = scoped_workers(4, |_| {
            let mut n = 0u32;
            while let Some(_i) = q.take() {
                n += 1;
                if n == 10 {
                    cancel.cancel();
                }
            }
            n
        });
        let total: u32 = done.iter().sum();
        assert!(cancel.is_cancelled());
        assert!(
            total < 1_000_000,
            "cancellation must stop the sweep early, ran {total}"
        );
    }

    #[test]
    fn worker_panic_propagates_after_drain() {
        let caught = std::panic::catch_unwind(|| {
            scoped_workers(2, |w| {
                if w == 1 {
                    panic!("boom");
                }
                w
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn priority_tags_round_trip() {
        for p in Priority::ALL {
            assert_eq!(p.to_string().parse::<Priority>(), Ok(p));
        }
        assert!("urgent".parse::<Priority>().is_err());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn prio_queue_drains_urgent_first_fifo_within_class() {
        let q = PrioQueue::new(16);
        q.try_push(Priority::Bulk, "b1").unwrap();
        q.try_push(Priority::Normal, "n1").unwrap();
        q.try_push(Priority::Interactive, "i1").unwrap();
        q.try_push(Priority::Interactive, "i2").unwrap();
        q.try_push(Priority::Bulk, "b2").unwrap();
        q.close();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["i1", "i2", "n1", "b1", "b2"]);
    }

    #[test]
    fn prio_queue_rejects_typed_overload_never_blocks() {
        let q = PrioQueue::new(2);
        q.try_push(Priority::Normal, 1).unwrap();
        q.try_push(Priority::Bulk, 2).unwrap();
        let (item, err) = q.try_push(Priority::Interactive, 3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(err, PushError::Overloaded { depth: 2, limit: 2 });
        // Popping frees a slot; admission recovers.
        assert_eq!(q.pop(), Some(1));
        q.try_push(Priority::Interactive, 3).unwrap();
        assert_eq!(q.pop(), Some(3), "interactive overtakes the queued bulk");
    }

    #[test]
    fn prio_queue_close_wakes_blocked_poppers() {
        let q = std::sync::Arc::new(PrioQueue::<u32>::new(4));
        let popper = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        // Give the popper a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert_eq!(
            q.try_push(Priority::Normal, 9).unwrap_err().1,
            PushError::Closed
        );
    }

    /// Many admitting threads, one plugged worker: once it starts
    /// popping, every class comes out in admission-number order.
    #[test]
    fn prio_queue_numbers_pop_in_admission_order_under_contention() {
        const THREADS: u64 = 8;
        const EACH: u64 = 300;
        let q = PrioQueue::new((THREADS * EACH) as usize);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        let prio = [Priority::Normal, Priority::Bulk][((t + i) % 2) as usize];
                        q.try_push_numbered(prio, |n| (prio, n)).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut last = [None; 3];
        let mut seen = 0;
        while let Some((prio, n)) = q.pop() {
            let prev = last[prio.index()].replace(n);
            assert!(prev < Some(n), "{prio} popped #{n} after #{prev:?}");
            seen += 1;
        }
        assert_eq!(seen, THREADS * EACH);
    }

    #[test]
    fn cost_ema_converges_and_classifies() {
        let mut ema = CostEma::new(16);
        assert_eq!(ema.predict("cell"), None);
        assert_eq!(ema.classify("cell", 100, 10_000), Priority::Normal);
        ema.observe("cell", 1_000);
        assert_eq!(ema.predict("cell"), Some(1_000), "first observation seeds");
        // Repeated cheap observations pull the average down by 1/4 steps.
        ema.observe("cell", 0);
        assert_eq!(ema.predict("cell"), Some(750));
        for _ in 0..64 {
            ema.observe("cell", 40);
        }
        let settled = ema.predict("cell").unwrap();
        assert!(
            (38..=42).contains(&settled),
            "EMA settles near the new cost, got {settled}"
        );
        assert_eq!(ema.classify("cell", 100, 10_000), Priority::Interactive);
        ema.observe("big", 1_000_000);
        assert_eq!(ema.classify("big", 100, 10_000), Priority::Bulk);
        assert_eq!(ema.len(), 2);
        assert!(!ema.is_empty());
    }

    #[test]
    fn cost_ema_forgets_its_oldest_key_at_capacity() {
        const CAP: usize = 64;
        let mut ema = CostEma::new(CAP);
        for k in 0..CAP + 100 {
            ema.observe(&format!("cell{k}"), 10 + k as u64);
        }
        assert_eq!(ema.len(), CAP);
        assert_eq!(ema.capacity(), CAP);
        assert_eq!(ema.predict("cell0"), None, "the oldest key is gone");
        assert_eq!(ema.predict("cell99"), None);
        assert_eq!(ema.predict("cell100"), Some(110), "the oldest kept key");
        let last = CAP + 99;
        assert_eq!(ema.predict(&format!("cell{last}")), Some(10 + last as u64));
        // Updating a resident key moves nothing and evicts nothing.
        ema.observe("cell100", 30);
        assert_eq!(ema.predict("cell100"), Some((30 + 3 * 110) / 4));
        assert_eq!(ema.len(), CAP);
        assert_eq!(ema.classify("cell0", 100, 10_000), Priority::Normal);
    }
}
