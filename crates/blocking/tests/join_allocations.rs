//! The join probe runs on caller-owned buffers: once a [`JoinScratch`] and
//! the output vectors have met an index, `probe_into` and
//! `probe_multi_into` allocate nothing, however many right rows a probe
//! meets — and neither does the online index's `probe_into`, which also
//! normalizes and tokenizes its text into the scratch and walks several
//! segments and a tail. A counting global allocator measures it (this file
//! holds one test, so nothing else allocates meanwhile).

use em_blocking::blockers::SetMeasure;
use em_blocking::{IncrementalIndex, JoinIndex, JoinScratch, JoinSpec};
use em_datagen::{Scenario, ScenarioConfig};
use em_text::{TokenCache, TokenCorpus};
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

/// One pass of every left row through both probe entry points; returns the
/// admitted pair count so the passes can be checked to do real work.
fn pass(
    left: &TokenCorpus,
    index: &JoinIndex,
    specs: &[JoinSpec],
    scratch: &mut JoinScratch,
    outs: &mut [Vec<u32>],
) -> usize {
    let mut pairs = 0;
    for (_, query) in left.iter() {
        index.probe_into(query, &specs[2], scratch, &mut outs[2]);
        pairs += outs[2].len();
        index.probe_multi_into(query, specs, scratch, outs);
        pairs += outs.iter().map(Vec::len).sum::<usize>();
    }
    pairs
}

#[test]
fn warmed_probes_allocate_nothing() {
    // The paper-scale (x1) title columns, seed 20190326.
    let s = Scenario::generate(ScenarioConfig::paper().with_seed(20190326)).unwrap();
    let cache = TokenCache::for_blocking();
    let left = TokenCorpus::from_column(&cache, s.award_agg.iter().map(|r| r.str("AwardTitle")));
    let titles = || s.usda.iter().map(|r| r.str("ProjectTitle"));
    let index = JoinIndex::build(TokenCorpus::from_column(&cache, titles()));
    // Every right row twice: each probe meets twice the rows and admits
    // twice the pairs.
    let doubled = JoinIndex::build(TokenCorpus::from_column(&cache, titles().chain(titles())));
    let specs = [
        JoinSpec::overlap(3),
        JoinSpec::set_sim(SetMeasure::OverlapCoefficient, 0.7),
        JoinSpec::union(3, SetMeasure::OverlapCoefficient, 0.7),
    ];

    let mut scratch = JoinScratch::for_index(&index);
    let mut outs = vec![Vec::new(); specs.len()];
    // Warm-up: the output vectors and the scratch's lists reach their
    // working size.
    let warm = pass(&left, &index, &specs, &mut scratch, &mut outs);
    let (pairs, allocs) = allocations_in(|| pass(&left, &index, &specs, &mut scratch, &mut outs));
    assert_eq!(pairs, warm);
    assert!(pairs > 1_000, "the fixture must probe real work ({pairs} pairs)");

    let mut scratch2 = JoinScratch::for_index(&doubled);
    let warm2 = pass(&left, &doubled, &specs, &mut scratch2, &mut outs);
    let (pairs2, allocs2) =
        allocations_in(|| pass(&left, &doubled, &specs, &mut scratch2, &mut outs));
    assert_eq!(pairs2, warm2);
    assert_eq!(pairs2, 2 * pairs, "doubling the right corpus must double the pairs");

    eprintln!("{pairs} pairs -> {allocs} allocations, {pairs2} pairs -> {allocs2} allocations");
    assert_eq!(allocs, 0, "a warmed probe pass allocated");
    assert_eq!(allocs2, 0, "a warmed probe pass over the doubled corpus allocated");

    // The same right column pushed row by row into the online index, and
    // the left titles probed as text.
    let mut online = IncrementalIndex::new();
    for (j, title) in titles().enumerate() {
        online.insert(j, title);
    }
    let layout = online.layout();
    assert!(layout.segments.len() >= 3 && layout.tail_rows > 0, "{layout:?}");
    let mut keys = Vec::new();
    let mut text_pass = |scratch: &mut JoinScratch| {
        let mut pairs = 0;
        for row in s.award_agg.iter() {
            online.probe_into(row.str("AwardTitle"), &specs[2], scratch, &mut keys);
            pairs += keys.len();
        }
        pairs
    };
    let mut scratch3 = JoinScratch::new();
    let warm3 = text_pass(&mut scratch3);
    let (pairs3, allocs3) = allocations_in(|| text_pass(&mut scratch3));
    eprintln!("{pairs3} pairs over {} segments and a tail -> {allocs3} allocations", layout.segments.len());
    assert_eq!(pairs3, warm3);
    assert!(pairs3 > 1_000, "the online index must probe real work ({pairs3} pairs)");
    assert_eq!(allocs3, 0, "a warmed probe of the segmented index allocated");
}
