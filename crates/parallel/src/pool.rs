//! The process-wide set of parked worker threads every parallel map runs on.
//!
//! A map publishes one [`Job`]: its closure, the number of chunks, a claim
//! counter and a pending-count latch. The caller and every worker that wakes
//! for the job claim chunk indices from the same counter, so a worker that
//! wakes late never delays the caller — the caller can work every chunk
//! itself. The caller returns once the latch reads zero.
//!
//! Workers start on first use and are added when a map wants more helpers
//! than exist; they never exit, and park on a condvar between maps (a
//! process exits with them parked). A job names how many helpers it wants,
//! so workers beyond that stay asleep — a lower thread count needs no resize.
//!
//! A map issued while the thread already works a chunk (on a worker, or on
//! the caller) runs inline, never through [`run`]: maps from different
//! threads take turns on the workers, and the inline rule means no chunk
//! ever waits for that turn.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// Set on every worker, and on a caller while it works its job's chunks.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is inside a map, where a further map must run inline.
pub(crate) fn nested() -> bool {
    IN_MAP.with(Cell::get)
}

/// The pool's locks guard plain counters and an `Option`, which no panic can
/// leave half-updated, and no user code runs while one is held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Pool {
    /// Held by a caller for its whole map: one job at a time.
    submit: Mutex<()>,
    state: Mutex<State>,
    /// Where idle workers park.
    wake: Condvar,
}

struct State {
    /// The job being worked, while its caller waits on it.
    job: Option<Arc<Job>>,
    /// Workers the current job still wants.
    seats: usize,
    /// Workers started so far.
    workers: usize,
}

static POOL: Pool = Pool {
    submit: Mutex::new(()),
    state: Mutex::new(State { job: None, seats: 0, workers: 0 }),
    wake: Condvar::new(),
};

struct Job {
    /// The caller's closure, its lifetime erased by [`run`]. Called only
    /// with an index claimed from `next` below `n`.
    work: &'static (dyn Fn(usize) + Sync),
    n: usize,
    /// The next unclaimed chunk. Relaxed: it only hands out indices; what a
    /// chunk produced reaches the caller through the `pending` lock.
    next: AtomicUsize,
    /// Chunks not yet finished; the caller returns once it reads zero.
    pending: Mutex<usize>,
    done: Condvar,
    /// The first panic a chunk raised, resumed on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claims and works chunks until none is left. Never unwinds: a chunk's
    /// panic is caught and kept for the caller.
    fn work(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.n {
                return;
            }
            let work = self.work;
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| work(c))) {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut pending = lock(&self.pending);
            *pending -= 1;
            if *pending == 0 {
                self.done.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A worker's life: park until a job has a seat free, work it, park again.
fn worker() {
    IN_MAP.with(|c| c.set(true));
    loop {
        let job = {
            let mut state = lock(&POOL.state);
            loop {
                if state.seats > 0 {
                    if let Some(job) = state.job.clone() {
                        state.seats -= 1;
                        break job;
                    }
                }
                state = POOL.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work();
    }
}

/// Calls `work(c)` once for every `c` in `0..n`, on the calling thread and
/// on up to `helpers` parked workers, and returns when every call has
/// returned. If calls panic, the first payload is resumed here after all of
/// them finished. Must not be called from inside a map ([`nested`]).
#[allow(unsafe_code)]
pub(crate) fn run(n: usize, helpers: usize, work: &(dyn Fn(usize) + Sync)) {
    debug_assert!(!nested(), "a nested map runs inline, not on the pool");
    let submit = lock(&POOL.submit);
    // SAFETY: only the lifetime changes. The erased reference lives in a
    // `Job` that workers may hold past this call, but it is called only in
    // `Job::work`, after claiming an index `c < n`. Each such claim is
    // followed by exactly one decrement of `pending`, after `work(c)` has
    // returned or unwound (the unwind is caught). `pending` starts at `n`,
    // so it reads zero only once every call has returned, and a claim made
    // after that finds `c >= n` and never calls. This function does not
    // return before `job.wait()` sees zero, and cannot unwind before it:
    // the caller's own `job.work()` catches chunk panics, and the pool's
    // locks shrug off poisoning. So every call through the reference ends
    // before `work`'s borrow does.
    let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
    let job = Arc::new(Job {
        work: erased,
        n,
        next: AtomicUsize::new(0),
        pending: Mutex::new(n),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let mut state = lock(&POOL.state);
        while state.workers < helpers {
            // A worker that fails to start only costs parallelism: the
            // caller claims whatever no worker takes.
            if std::thread::Builder::new().name("em-parallel".into()).spawn(worker).is_err() {
                break;
            }
            state.workers += 1;
        }
        state.job = Some(Arc::clone(&job));
        state.seats = helpers;
    }
    for _ in 0..helpers {
        POOL.wake.notify_one();
    }
    IN_MAP.with(|c| c.set(true));
    job.work();
    IN_MAP.with(|c| c.set(false));
    job.wait();
    {
        let mut state = lock(&POOL.state);
        state.job = None;
        state.seats = 0;
    }
    drop(submit);
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}
