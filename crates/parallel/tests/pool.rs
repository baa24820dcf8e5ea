//! The executor's worker pool across thread-count changes, in a process of
//! its own: the pool and the thread-count override are process-wide, so the
//! sequence below starts from a pool that has never run a map.

use em_parallel::{set_threads, Executor};
use proptest::prelude::*;

fn work(i: usize) -> u64 {
    (i as f64).sqrt().to_bits() ^ i as u64
}

#[test]
fn thread_count_changes_mid_process_keep_every_result() {
    let want = Executor::new(1).map_indexed(1000, 1, work);
    // One worker, then three, then back down: every map equals the
    // one-thread map whatever the pool holds.
    assert_eq!(Executor::new(2).map_indexed(1000, 1, work), want, "2 threads, first map");
    assert_eq!(Executor::new(4).map_indexed(1000, 1, work), want, "4 threads");
    assert_eq!(Executor::new(4).map_tasks(9, work), want[..9], "4 threads, tasks");
    for threads in [2, 1] {
        set_threads(threads);
        assert_eq!(Executor::current().threads(), threads);
        assert_eq!(Executor::current().map_indexed(1000, 1, work), want, "set_threads({threads})");
        assert_eq!(Executor::current().map_tasks(9, work), want[..9], "set_threads({threads})");
    }
    set_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any size, grain and thread count gives the one-thread output, with
    /// and without per-chunk state.
    #[test]
    fn any_shape_equals_one_thread(n in 0usize..600, grain in 1usize..40, threads in 1usize..7) {
        let ex = Executor::new(threads);
        prop_assert_eq!(ex.map_indexed(n, grain, work), Executor::new(1).map_indexed(n, grain, work));
        let with = |ex: Executor| {
            ex.map_indexed_with(n, grain, Vec::new, |buf: &mut Vec<u64>, i| {
                buf.clear();
                buf.extend((0..i % 5).map(|k| work(i + k)));
                buf.iter().fold(work(i), |a, &b| a.rotate_left(7) ^ b)
            })
        };
        prop_assert_eq!(with(ex), with(Executor::new(1)));
        let tasks = n % 23;
        prop_assert_eq!(ex.map_tasks(tasks, work), Executor::new(1).map_tasks(tasks, work));
    }
}
