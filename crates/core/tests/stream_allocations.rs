//! The fused stream's hot loop runs on reusable per-worker buffers: what
//! `StreamMatcher::run` allocates is set by the number of workers and
//! chunks, never by the number of candidates. A counting global allocator
//! measures it (this file holds one test, so nothing else allocates
//! meanwhile).

use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_core::labeling::run_labeling;
use em_core::matcher::{build_training_data, train_matcher, MatcherStage};
use em_core::pipeline::standard_rule_descs;
use em_core::preprocess::{project_umetrics, project_usda};
use em_core::stream::{StreamMatcher, STREAM_CHUNK};
use em_datagen::{Oracle, OracleConfig, Scenario, ScenarioConfig};
use em_features::auto_features;
use em_table::Table;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation the process makes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations made while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Allocations one worker's scratch and the fold may make, whatever the
/// input: join scratch, slab buffers, extractor scratch (a stamp array per
/// live set plan), result vector.
const PER_RUN: u64 = 96;

/// Allocations a chunk may add: its result, and amortized growth of the
/// worker's row-merge and kept-match buffers.
const PER_CHUNK: u64 = 8;

#[test]
fn run_allocates_per_chunk_not_per_candidate() {
    // A forest trained on the small scenario, streamed over paper-scale
    // tables (two chunks of left rows).
    let small = Scenario::generate(ScenarioConfig::small().with_seed(5)).unwrap();
    let u = project_umetrics(&small.award_agg, &small.employees).unwrap();
    let s = project_usda(&small.usda, true).unwrap();
    let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
    let oracle = Oracle::new(&small.truth, OracleConfig::default());
    let (labeled, _) = run_labeling(&u, &s, &candidates, &oracle, &[100, 100], 5).unwrap();
    let stage = MatcherStage::new(1).with_case_insensitive();
    let features = auto_features(&u, &s, &stage.feature_opts);
    let descs = standard_rule_descs();
    let (data, imputer) =
        build_training_data(&u, &s, &features, &labeled, &descs.build()).unwrap();
    let matcher = train_matcher(features, imputer, &data, "Random Forest", &stage).unwrap();

    let paper = Scenario::generate(ScenarioConfig::paper().with_seed(5)).unwrap();
    let left = project_umetrics(&paper.award_agg, &paper.employees).unwrap();
    let right = project_usda(&paper.usda, true).unwrap();
    // Every right row twice: each left row meets twice the candidates, on
    // the same chunk grid.
    let mut doubled = Table::new("usda x2", right.schema().clone());
    for row in right.rows() {
        doubled.push_row(row.clone()).unwrap();
        doubled.push_row(row.clone()).unwrap();
    }

    em_parallel::set_threads(1);
    let plan = BlockingPlan::default();
    let base = StreamMatcher::new(&left, &right, &matcher, &descs, &plan).unwrap();
    let twice = StreamMatcher::new(&left, &doubled, &matcher, &descs, &plan).unwrap();
    let (out_base, allocs_base) = allocations_in(|| base.run());
    let (out_twice, allocs_twice) = allocations_in(|| twice.run());
    em_parallel::set_threads(0);

    let chunks = left.n_rows().div_ceil(STREAM_CHUNK) as u64;
    assert!(chunks >= 2, "the fixture must span several chunks");
    assert!(out_base.candidates > 1000, "the fixture must stream real work");
    assert!(
        out_twice.candidates >= 2 * out_base.candidates,
        "doubling the right table must double the candidates ({} vs {})",
        out_twice.candidates,
        out_base.candidates
    );
    eprintln!(
        "{chunks} chunks: {} candidates -> {allocs_base} allocations, {} candidates -> {allocs_twice}",
        out_base.candidates, out_twice.candidates
    );
    assert!(
        allocs_base <= chunks * PER_CHUNK + PER_RUN,
        "{allocs_base} allocations for {chunks} chunks"
    );
    // Twice the candidates may deepen a few amortized buffers by one
    // doubling each — a handful of reallocations, not a multiple.
    assert!(
        allocs_twice <= allocs_base + PER_CHUNK,
        "allocations grew with the candidate count: {allocs_base} -> {allocs_twice}"
    );
}
