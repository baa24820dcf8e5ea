//! # em-parallel — a small deterministic fork-join executor
//!
//! Every parallel hot path of the pipeline (overlap-index probing, feature
//! extraction, random-forest tree fitting, cross-validation folds, batch
//! prediction) fans out through [`Executor::map_indexed`]: the index space
//! `0..n` is split into contiguous chunks — the calling thread takes the
//! first, one scoped thread each of the others — and the per-index results
//! are joined back **in index order**. Because every
//! work item is a pure function of its index, output is bit-identical to
//! the single-threaded run at any thread count — parallelism only changes
//! wall time, never results.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

    /// Sets a floor on the input size worth spawning for: any map over
    /// fewer than `min_items` items runs inline on the calling thread,
    /// regardless of grain. Call sites whose per-item cost varies with the
    /// workload (e.g. tree fitting, where each item scans the whole
    /// training set) use this to express "spawn only if the total work
    /// covers thread start-up cost".
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
    /// run inline without spawn overhead (see also
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

    /// [`Executor::map_indexed`] with a per-worker scratch state: each
    /// worker thread calls `init` exactly once and threads the resulting
    /// state through every index it owns. This is the chunked join driver
    /// the batch set-similarity join runs on — probe scratch (dense seen
    /// arrays, token-order buffers) is allocated once per worker instead of
    /// once per row, while the output stays a pure function of the index.
    ///
    /// `f` must produce a result that depends only on its index and
    /// read-only captures, never on the state's history — the state is for
    /// buffer *reuse*, not for carrying information between indices. Under
    /// that contract the output is bit-identical at any thread count, even
    /// though worker chunk boundaries move with the worker count.
    pub fn map_indexed_with<S, R, I, F>(&self, n: usize, grain: usize, init: I, f: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if n < self.min_items {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let workers = self.threads.min(n / grain.max(1)).max(1);
        if workers < 2 {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let chunk = n.div_ceil(workers);
        let ranges: Vec<std::ops::Range<usize>> = (0..workers)
            .map(|w| (w * chunk).min(n)..((w + 1) * chunk).min(n))
            .filter(|r| !r.is_empty())
            .collect();
        let f = &f;
        let init = &init;
        let mut results: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
        crossbeam::scope(|scope| {
            let handles: Vec<_> = ranges[1..]
                .iter()
                .map(|r| {
                    let r = r.clone();
                    scope.spawn(move |_| {
                        let mut state = init();
                        r.map(|i| f(&mut state, i)).collect::<Vec<R>>()
                    })
                })
                .collect();
            // The caller works its share instead of sleeping in `join`: one
            // thread fewer to start per fork, and one allocator arena fewer
            // for a stage's worker-built results to strand memory in (glibc
            // gives every new thread its own; what a worker leaves behind in
            // one is reusable only by the next thread that happens to get it).
            let mut state = init();
            results.push(ranges[0].clone().map(|i| f(&mut state, i)).collect());
            for h in handles {
                results.push(h.join().expect("parallel worker panicked"));
            }
        })
        .expect("crossbeam scope");
        results.into_iter().flatten().collect()
    }

    /// Maps `f` over `0..n` for a **handful of coarse tasks of unequal
    /// cost** (set-up legs, not rows): workers pull the next index from a
    /// shared counter instead of owning a contiguous range, so one long
    /// task does not strand the tasks queued behind it. Results come back
    /// in index order, and — `f` being a pure function of its index — are
    /// the same at any thread count.
    pub fn map_tasks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers < 2 {
            return (0..n).map(f).collect();
        }
        // Relaxed: the counter only hands out indices; results travel
        // through the joins.
        let next = AtomicUsize::new(0);
        let (f, next) = (&f, &next);
        let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
        crossbeam::scope(|scope| {
            let pull = move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return mine;
                    }
                    mine.push((i, f(i)));
                }
            };
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(move |_| pull())).collect();
            done.extend(pull());
            for h in handles {
                done.extend(h.join().expect("parallel worker panicked"));
            }
        })
        .expect("crossbeam scope");
        done.sort_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
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
        // 10 items at grain 100 → one worker, no spawn; result still correct.
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
