//! # em-parallel — a small deterministic fork-join executor
//!
//! Every parallel hot path of the pipeline (overlap-index probing, feature
//! extraction, random-forest tree fitting, cross-validation folds, batch
//! prediction) fans out through [`Executor::map_indexed`]: the index space
//! `0..n` is split into contiguous chunks, the calling thread and parked
//! worker threads claim chunks from a shared counter, and the per-index
//! results are joined back **in index order**. Because every
//! work item is a pure function of its index, output is bit-identical to
//! the single-threaded run at any thread count — parallelism only changes
//! wall time, never results.
//!
//! The workers are one process-wide set, started on first use and grown
//! when an executor asks for more; between maps they sleep on a condvar,
//! so a map costs a wake-up, not a thread start and join. A map issued
//! from inside another map's chunk runs inline on the thread that issued
//! it: parallelism happens only at the outermost map. Maps from different
//! threads take turns on the workers, so a chunk must not wait for a map
//! that another thread issues. A panic in any chunk reaches the caller,
//! with its payload, once every chunk has finished.
//!
//! The thread count is a process-wide knob, deliberately *outside* every
//! config struct that is serialized into checkpoints: resuming a checkpoint
//! on a machine with a different core count must not invalidate it.
//! Resolution order: [`set_threads`] override → `EM_THREADS` env var →
//! `std::thread::available_parallelism()`.
//!
//! ```
//! use em_parallel::Executor;
//!
//! let squares = Executor::new(4).map_indexed(8, 1, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide thread-count override; 0 means "not set, use the default".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Default thread count resolved once from `EM_THREADS` or the hardware.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Parses an `EM_THREADS` value. `Err` carries the reason the value is
/// unusable; silent fallback to the hardware default is deliberately *not*
/// an option — a typo in the knob must be loud, not a mystery slowdown.
fn parse_em_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "EM_THREADS={raw:?} is zero; use a positive thread count, or unset the \
             variable for the hardware default"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "EM_THREADS={raw:?} is not a positive integer; unset the variable for \
             the hardware default"
        )),
    }
}

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| match std::env::var("EM_THREADS") {
        Ok(raw) => match parse_em_threads(&raw) {
            Ok(n) => n,
            // Loud failure: an explicitly-set but invalid knob is a config
            // error, never a silent fall-back to the hardware default.
            Err(msg) => panic!("{msg}"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// Sets the process-wide thread count. `0` clears the override, restoring
/// the `EM_THREADS`-or-hardware default. Changing the thread count never
/// changes results, only wall time.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The thread count parallel stages currently run with.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// A fork-join executor with a fixed worker count.
///
/// Cheap to construct per call site; [`Executor::current`] picks up the
/// process-wide setting so library code stays knob-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
    min_items: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Executor {
        Executor { threads: threads.max(1), min_items: 0 }
    }

    /// An executor with the process-wide thread count (see [`threads`]).
    pub fn current() -> Executor {
        Executor::new(threads())
    }

    /// Sets a floor on the input size worth going parallel for: any map
    /// over fewer than `min_items` items runs inline on the calling thread,
    /// regardless of grain. Call sites whose per-item cost varies with the
    /// workload (e.g. tree fitting, where each item scans the whole
    /// training set) use this to express "hand work to the workers only if
    /// the total covers the hand-off cost".
    pub fn with_min_items(self, min_items: usize) -> Executor {
        Executor { min_items, ..self }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// `grain` is the minimum number of indices worth one thread: the
    /// effective worker count is `min(threads, n / grain)`, so small inputs
    /// run inline without hand-off overhead (see also
    /// [`Executor::with_min_items`]). `f` must be a pure function of its
    /// index for the bit-identical-at-any-thread-count guarantee to hold
    /// (shared read-only state is fine).
    pub fn map_indexed<R, F>(&self, n: usize, grain: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_indexed_with(n, grain, || (), |(), i| f(i))
    }

    /// [`Executor::map_indexed`] with a per-chunk scratch state: each
    /// contiguous chunk calls `init` exactly once and threads the resulting
    /// state through every index it holds. This is the chunked join driver
    /// the batch set-similarity join runs on — probe scratch (dense seen
    /// arrays, token-order buffers) is allocated once per chunk instead of
    /// once per row, while the output stays a pure function of the index.
    ///
    /// `f` must produce a result that depends only on its index and
    /// read-only captures, never on the state's history — the state is for
    /// buffer *reuse*, not for carrying information between indices. Under
    /// that contract the output is bit-identical at any thread count, even
    /// though chunk boundaries move with the worker count.
    pub fn map_indexed_with<S, R, I, F>(&self, n: usize, grain: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let workers = if n < self.min_items || pool::nested() {
            1
        } else {
            self.threads.min(n / grain.max(1)).max(1)
        };
        if workers < 2 {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let chunk = n.div_ceil(workers);
        let chunks = n.div_ceil(chunk);
        let slots: Vec<Mutex<Vec<R>>> = (0..chunks).map(|_| Mutex::default()).collect();
        pool::run(chunks, chunks - 1, &|c| {
            let mut state = init();
            let out = (c * chunk..((c + 1) * chunk).min(n)).map(|i| f(&mut state, i)).collect();
            *slots[c].lock().expect("a chunk's slot is written once") = out;
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.extend(slot.into_inner().expect("every chunk ran"));
        }
        out
    }

    /// Maps `f` over `0..n` for a **handful of coarse tasks of unequal
    /// cost** (set-up legs, not rows): each index is its own chunk, which
    /// the caller and the workers pull from the shared counter, so one long
    /// task does not strand the tasks queued behind it. Results come back
    /// in index order, and — `f` being a pure function of its index — are
    /// the same at any thread count.
    pub fn map_tasks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = if pool::nested() { 1 } else { self.threads.min(n) };
        if workers < 2 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::default()).collect();
        pool::run(n, workers - 1, &|i| {
            *slots[i].lock().expect("a task's slot is written once") = Some(f(i));
        });
        slots.into_iter().map(|s| s.into_inner().ok().flatten().expect("every task ran")).collect()
    }

    /// Maps `f` over a slice, returning results in element order. Chunking
    /// semantics are those of [`Executor::map_indexed`].
    pub fn map_slice<'a, T, R, F>(&self, items: &'a [T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        self.map_indexed(items.len(), grain, |i| f(&items[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let out = Executor::new(threads).map_indexed(100, 1, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let baseline = Executor::new(1).map_indexed(1000, 1, |i| (i as f64).sqrt().to_bits());
        for threads in [2, 4, 7] {
            let out = Executor::new(threads).map_indexed(1000, 1, |i| (i as f64).sqrt().to_bits());
            assert_eq!(out, baseline, "threads={threads}");
        }
    }

    #[test]
    fn grain_keeps_small_inputs_inline() {
        // 10 items at grain 100 → one worker, inline; result still correct.
        let out = Executor::new(8).map_indexed(10, 100, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn map_tasks_returns_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out = Executor::new(threads).map_tasks(7, |i| i * 3);
            assert_eq!(out, (0..7).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
        }
        let none: Vec<usize> = Executor::new(4).map_tasks(0, |i| i);
        assert!(none.is_empty());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<usize> = Executor::new(4).map_indexed(0, 1, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = Executor::new(64).map_indexed(3, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn map_slice_borrows() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens = Executor::new(2).map_slice(&words, 1, |w| w.len());
        assert_eq!(lens, vec![1, 2, 3]);
        // Every call through the borrowed data has returned before the map
        // does, so the data can be dropped right after it.
        for round in 0..50 {
            let words: Vec<String> =
                (0..64).map(|i| format!("{round}:{}", "w".repeat(i))).collect();
            let finished = AtomicUsize::new(0);
            let lens = Executor::new(4).map_slice(&words, 1, |w| {
                let len = w.len();
                finished.fetch_add(1, Ordering::SeqCst);
                len
            });
            assert_eq!(finished.load(Ordering::SeqCst), words.len(), "round {round}");
            assert_eq!(lens, words.iter().map(String::len).collect::<Vec<_>>());
            drop(words);
        }
    }

    #[test]
    fn zero_threads_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn min_items_forces_inline() {
        // Below the floor the calling thread does all the work (observable
        // via thread-locality of a Cell), above it results stay correct.
        use std::cell::Cell;
        thread_local! { static LOCAL: Cell<usize> = const { Cell::new(0) }; }
        LOCAL.with(|c| c.set(0));
        let ex = Executor::new(4).with_min_items(100);
        let out = ex.map_indexed(50, 1, |i| {
            LOCAL.with(|c| c.set(c.get() + 1));
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert_eq!(LOCAL.with(Cell::get), 50, "all 50 items must run inline");
        let out = ex.map_indexed(200, 1, |i| i * 3);
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// A panic payload the test can tell apart from any other.
    #[derive(Debug, PartialEq)]
    struct Boom(&'static str);

    #[test]
    fn panics_reach_the_caller_with_their_payload_and_the_pool_survives() {
        use std::sync::Barrier;
        for (on_caller, what) in [(false, "worker"), (true, "caller")] {
            let caller = std::thread::current().id();
            // The barrier holds each chunk until the other has started, so
            // one runs on the caller and one on a worker.
            let barrier = Barrier::new(2);
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Executor::new(2).map_indexed(2, 1, |i| {
                    barrier.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        std::panic::panic_any(Boom(what));
                    }
                    i
                })
            }));
            let payload = got.expect_err("the chunk's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(what)), "{what} chunk");
            let out = Executor::new(2).map_indexed(100, 1, |i| i + 1);
            assert_eq!(out, (1..=100).collect::<Vec<_>>(), "the next map after a {what} panic");
        }
    }

    #[test]
    fn nested_maps_run_on_the_thread_that_issued_them() {
        use std::cell::Cell;
        use std::sync::Barrier;
        thread_local! { static LOCAL: Cell<usize> = const { Cell::new(0) }; }
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let outer = Executor::new(2).map_indexed(2, 1, |o| {
            barrier.wait();
            LOCAL.with(|c| c.set(0));
            let count = |i: usize| {
                LOCAL.with(|c| c.set(c.get() + 1));
                o * 1000 + i
            };
            let rows = Executor::new(4).map_indexed(50, 1, count);
            let tasks = Executor::new(4).map_tasks(7, count);
            assert_eq!(rows, (0..50).map(|i| o * 1000 + i).collect::<Vec<_>>());
            assert_eq!(tasks, (0..7).map(|i| o * 1000 + i).collect::<Vec<_>>());
            (LOCAL.with(Cell::get), std::thread::current().id() == caller)
        });
        assert_eq!(outer.iter().map(|&(n, _)| n).collect::<Vec<_>>(), [57, 57], "inline");
        let on_caller = outer.iter().filter(|&&(_, c)| c).count();
        assert_eq!(on_caller, 1, "one outer chunk on the caller, one on a worker");
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        use std::sync::Barrier;
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let f = |i: usize| i * (t + 1) + round;
                        let want: Vec<usize> = (0..97).map(f).collect();
                        let ex = Executor::new(2 + (t + round) % 3);
                        assert_eq!(ex.map_indexed(97, 1, f), want, "thread {t} round {round}");
                        assert_eq!(ex.map_tasks(5, f), want[..5], "thread {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn em_threads_values_parse_or_reject() {
        assert_eq!(parse_em_threads("4"), Ok(4));
        assert_eq!(parse_em_threads(" 16 "), Ok(16));
        assert!(parse_em_threads("0").is_err(), "zero must be rejected");
        assert!(parse_em_threads("two").is_err(), "non-numeric must be rejected");
        assert!(parse_em_threads("-1").is_err(), "negative must be rejected");
        assert!(parse_em_threads("").is_err(), "empty must be rejected");
    }

    #[test]
    fn override_round_trips() {
        let before = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(Executor::current().threads(), 3);
        set_threads(0);
        assert_eq!(threads(), before);
    }
}
