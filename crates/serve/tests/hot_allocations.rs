//! The serve hot loop runs on a reusable [`ProbeScratch`]: what a warmed
//! `match_on_arrival_with` allocates is set by the request (its keys, its
//! rendered match ids), never by how many candidates it scores. A counting
//! global allocator measures it (this file holds one test on one thread,
//! so nothing else allocates meanwhile).

use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::preprocess::{project_umetrics, project_usda};
use em_datagen::{Scenario, ScenarioConfig};
use em_serve::{MatchService, ProbeScratch, WorkflowSnapshot};
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

/// Allocations a request may make whatever it matches: the award-suffix and
/// positive-rule probe keys, the rendered award number, the id list, one
/// lowercased or rendered copy of the arriving cell per cache plan whose
/// cell is not already its own normal form, and — once, at its first
/// predicted match — its key and that key's pattern under each negative
/// rule. The title probe adds none: it tokenizes into the scratch and
/// neither locks, clones nor memoizes anything shared. Measured: the 1 336
/// paper-scale arrivals make 23 628 allocations; a doubled corpus's 962
/// extra matches add 3 524, 3.66 a match, which at [`PER_MATCH`] leaves
/// 14.8 a request.
const PER_REQUEST: u64 = 15;

/// Allocations a match may add, sure or predicted alike (a predicted match
/// is two integer compares against keys its request already bound): its
/// rendered accession number, its copy of the award number, its share of
/// the id set's nodes.
const PER_MATCH: u64 = 4;

/// What replaying every arrival once cost and produced.
struct Replay {
    allocations: u64,
    candidates: usize,
    sure: usize,
    predicted: usize,
}

impl Replay {
    /// The allocations the request and match counts account for.
    fn budget(&self, requests: u64) -> u64 {
        requests * PER_REQUEST + (self.sure + self.predicted) as u64 * PER_MATCH
    }
}

fn replay(service: &MatchService, arrivals: &Table, scratch: &mut ProbeScratch) -> Replay {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (mut candidates, mut sure, mut predicted) = (0, 0, 0);
    for i in 0..arrivals.n_rows() {
        let outcome = service.match_on_arrival_with(arrivals, i, scratch).expect("request");
        candidates += outcome.n_candidates;
        sure += outcome.n_sure;
        predicted += outcome.n_predicted;
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    Replay { allocations, candidates, sure, predicted }
}

/// Release builds only: with debug assertions on, `match_inner` runs the
/// sampled `Feature::compute` oracle (`debug_assert_pulls_match_compute`)
/// inside the measured loop, and the oracle allocates per sampled pair.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the debug-only Feature::compute oracle allocates inside the measured loop; run with --release"
)]
fn warmed_request_allocates_per_match_not_per_candidate() {
    let artifacts = CaseStudy::new(CaseStudyConfig::small())
        .train_serving_artifacts()
        .expect("training the serving artifacts");
    // The workflow frozen on the small scenario, serving paper-scale
    // tables: a thousand arrivals with real candidate lists.
    let paper = Scenario::generate(ScenarioConfig::paper().with_seed(5)).expect("scenario");
    let arrivals = &project_umetrics(&paper.award_agg, &paper.employees).expect("left table");
    let mut snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    snapshot.corpus = project_usda(&paper.usda, true).expect("right table");
    // Every corpus row twice: each arrival meets twice the candidates.
    let mut doubled = snapshot.clone();
    doubled.corpus = Table::new(snapshot.corpus.name(), snapshot.corpus.schema().clone());
    for row in snapshot.corpus.rows() {
        doubled.corpus.push_row(row.clone()).expect("same schema");
        doubled.corpus.push_row(row.clone()).expect("same schema");
    }
    let base = MatchService::from_snapshot(snapshot).expect("service");
    let twice = MatchService::from_snapshot(doubled).expect("doubled service");

    // One scratch a service, warmed by a full pass: the measured pass
    // finds every buffer at its steady-state size.
    let (mut scratch_base, mut scratch_twice) = (ProbeScratch::new(), ProbeScratch::new());
    replay(&base, arrivals, &mut scratch_base);
    replay(&twice, arrivals, &mut scratch_twice);
    let one = replay(&base, arrivals, &mut scratch_base);
    let two = replay(&twice, arrivals, &mut scratch_twice);

    let requests = arrivals.n_rows() as u64;
    for run in [&one, &two] {
        eprintln!(
            "{requests} requests, {} candidates, {} sure and {} predicted matches: {} allocations",
            run.candidates, run.sure, run.predicted, run.allocations
        );
    }
    assert!(one.candidates > 1000, "the fixture must score real work");
    assert!(
        two.candidates >= 2 * one.candidates,
        "doubling the corpus must double the candidates ({} vs {})",
        two.candidates,
        one.candidates
    );
    assert!(
        one.allocations <= one.budget(requests),
        "{} allocations, {} accounted for by requests and matches",
        one.allocations,
        one.budget(requests)
    );
    // Twice the candidates may only add what the extra matches account
    // for — the per-request share is spent, and a single allocation per
    // candidate would overrun what is left of it.
    assert!(
        two.allocations <= one.allocations + (two.budget(requests) - one.budget(requests)),
        "allocations grew with the candidate count: {} -> {} ({} -> {} candidates)",
        one.allocations,
        two.allocations,
        one.candidates,
        two.candidates
    );
}
