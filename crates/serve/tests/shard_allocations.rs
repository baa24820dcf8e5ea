//! A sharded read runs on scratches its shards own: a shard's leg of the
//! scatter runs on whichever thread claims it — the caller or one of the
//! executor's parked workers — and a warmed tier must find its buffers warm
//! on either. A cold [`ProbeScratch`](em_serve::ProbeScratch)
//! zero-fills a 96 KiB reuse-table partition per live sequence measure
//! before it scores anything, so "under one partition a batch" separates a
//! pooled scratch from one built per read. A counting global allocator
//! measures it (this file holds one test, so nothing else allocates
//! meanwhile).

use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::preprocess::{project_umetrics, project_usda};
use em_datagen::{Scenario, ScenarioConfig};
use em_serve::{ShardedMatchService, WorkflowSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every byte the process asks its allocator for, on any thread.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One partition of the sequence-value reuse table.
const REUSE_PARTITION_BYTES: u64 = 96 * 1024;

/// Rows a batch, the size the micro-batcher closes at on average.
const BATCH_ROWS: usize = 6;

/// Release builds only, like `hot_allocations.rs`: the debug-only
/// `Feature::compute` oracle allocates inside the measured loop.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug-only Feature::compute oracle allocates inside the measured loop; run with --release"
)]
fn warmed_scatter_allocates_under_one_reuse_partition_a_batch() {
    let artifacts = CaseStudy::new(CaseStudyConfig::small())
        .train_serving_artifacts()
        .expect("training the serving artifacts");
    // The workflow frozen on the small scenario, serving paper-scale
    // tables, as in `hot_allocations.rs`.
    let paper = Scenario::generate(ScenarioConfig::paper().with_seed(5)).expect("scenario");
    let arrivals = &project_umetrics(&paper.award_agg, &paper.employees).expect("left table");
    let mut snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    snapshot.corpus = project_usda(&paper.usda, true).expect("right table");
    let tier = ShardedMatchService::from_snapshot(snapshot, 2).expect("tier");

    em_parallel::set_threads(2);
    let batches: Vec<Vec<usize>> = (0..arrivals.n_rows().min(40 * BATCH_ROWS))
        .collect::<Vec<usize>>()
        .chunks(BATCH_ROWS)
        .map(<[usize]>::to_vec)
        .collect();
    let replay = || {
        let before = BYTES.load(Ordering::Relaxed);
        let mut candidates = 0;
        for rows in &batches {
            let (batch, shard_ms) = tier.match_rows_timed(arrivals, rows).expect("batch");
            assert_eq!(shard_ms.len(), 2);
            candidates += batch.outcomes.iter().map(|o| o.n_candidates).sum::<usize>();
        }
        (BYTES.load(Ordering::Relaxed) - before, candidates)
    };
    // A full pass warms each shard's scratch; the measured pass finds it.
    replay();
    let (bytes, candidates) = replay();
    em_parallel::set_threads(0);

    let per_batch = bytes / batches.len() as u64;
    eprintln!(
        "{} batches of {BATCH_ROWS} rows, {candidates} candidates: {bytes} bytes, {per_batch} a batch",
        batches.len()
    );
    assert!(candidates > 200, "the fixture must score real work ({candidates} candidates)");
    assert!(
        per_batch < REUSE_PARTITION_BYTES,
        "{per_batch} bytes a batch: a shard read is building its scratch again"
    );
}
