//! Scale-level pins for the corpus-scale blocking engine.
//!
//! The join rewrite must not move a single candidate pair: the x4
//! consolidated count is pinned to the value the pre-rewrite pairwise path
//! produced (the `|C1∪C2∪C3|` column of `reproduce --scaling 4`), the
//! result is bit-identical at 1 and 4 threads, the streaming `join_stats`
//! accounting `--scaling` prints agrees with the materialized plan, and a
//! sub-scale run cross-checks the whole plan against the naive pairwise
//! scan.

use em_blocking::{block_pairwise, OverlapBlocker, SetSimBlocker};
use em_core::blocking_plan::{c1_scheme, run_blocking, BlockingPlan};
use em_table::Table;
use em_text::{TokenCache, TokenCorpus};

/// Tests that flip the global `em_parallel` thread override must not run
/// concurrently with each other.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The scenario `reproduce --scaling` runs: x`factor` on the blocking
/// tables, auxiliary tables capped at paper size (they never feed the
/// blocking columns), seed 20190326.
fn scaled_tables(factor: f64) -> (Table, Table) {
    let fx = em_bench::scaled_fixtures(factor, 20190326);
    (fx.umetrics, fx.usda)
}

/// The x4 candidate set is pinned to the pre-rewrite pairwise path's count
/// and bit-identical at 1 and 4 threads.
#[test]
fn x4_candidates_pinned_and_thread_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (u, d) = scaled_tables(4.0);
    let plan = BlockingPlan::default();
    em_parallel::set_threads(1);
    let one = run_blocking(&u, &d, &plan).unwrap();
    em_parallel::set_threads(4);
    let four = run_blocking(&u, &d, &plan).unwrap();
    em_parallel::set_threads(0);
    assert_eq!(
        one.consolidated.len(),
        25676,
        "x4 consolidated count moved off the pre-rewrite baseline"
    );
    assert_eq!(one.consolidated.to_vec(), four.consolidated.to_vec());
    assert_eq!(one.c2.to_vec(), four.c2.to_vec());
    assert_eq!(one.c3.to_vec(), four.c3.to_vec());
}

/// The streaming scaling accounting (`join_stats` + inclusion–exclusion
/// over the C1 flags) equals the materialized plan, and is itself
/// thread-count invariant — checksum included.
#[test]
fn streamed_scaling_count_matches_materialized_plan() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (u, d) = scaled_tables(1.0);
    let plan = BlockingPlan::default();
    let out = run_blocking(&u, &d, &plan).unwrap();

    let streamed = |threads: usize| {
        em_parallel::set_threads(threads);
        let c1 = c1_scheme(&u, &d).unwrap();
        let c1_pairs: std::collections::HashSet<(usize, usize)> =
            c1.iter().map(|p| (p.left, p.right)).collect();
        let cache = TokenCache::for_blocking();
        let left = TokenCorpus::from_column(
            &cache,
            (0..u.n_rows()).map(|i| u.get(i, "AwardTitle").and_then(|v| v.as_str())),
        );
        let right = TokenCorpus::from_column(
            &cache,
            (0..d.n_rows()).map(|i| d.get(i, "AwardTitle").and_then(|v| v.as_str())),
        );
        let index = em_blocking::JoinIndex::build(right);
        let stats = em_blocking::join_stats(&left, &index, &plan.union_spec(), |i, j| {
            c1_pairs.contains(&(i, j))
        });
        (c1.len() as u64 + stats.pairs - stats.flagged, stats)
    };
    let (consolidated_1t, stats_1t) = streamed(1);
    let (consolidated_4t, stats_4t) = streamed(4);
    em_parallel::set_threads(0);
    assert_eq!(consolidated_1t, out.consolidated.len() as u64);
    assert_eq!(consolidated_1t, consolidated_4t);
    assert_eq!(stats_1t, stats_4t, "streamed stats (checksum included) must not depend on threads");
}

/// Sub-scale end-to-end cross-check: every scheme of the plan equals the
/// naive pairwise scan over the full Cartesian product.
#[test]
fn quarter_scale_plan_matches_pairwise_scan() {
    let (u, d) = scaled_tables(0.25);
    let out = run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
    let overlap = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
    let oc = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
    assert_eq!(out.c2.to_vec(), block_pairwise(&overlap, &u, &d).unwrap().to_vec());
    assert_eq!(out.c3.to_vec(), block_pairwise(&oc, &u, &d).unwrap().to_vec());
}
