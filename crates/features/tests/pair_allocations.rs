//! A warmed [`BatchScratch`] scores a pair without touching the allocator:
//! every buffer of the scoring kernel — stamp arrays, the reuse table, the
//! Monge-Elkan word matrices and their pattern masks, the sequence kernels'
//! rows and flag words — is sized by what the scratch has met and kept. A
//! counting global allocator measures a second pass over the same pairs
//! through [`PairView::fill`](em_features::PairView::fill), every measure
//! live, with the left row a table row and an arriving record (this file
//! holds one test on one thread, so nothing else allocates meanwhile).
//!
//! This replaces `scripts/check.sh`'s grep for per-pair decoding and
//! lowercasing in the kernel modules: a `chars().collect()` or a
//! `to_lowercase()` on the pair path is an allocation, and is counted here
//! wherever it sits.

use em_blocking::Pair;
use em_features::{
    BatchExtractor, BatchScratch, Feature, FeatureKind, FeatureMask, FeatureSet, ServeExtractor,
};
use em_table::csv::read_str;
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Every measure of the menu on both columns, string measures in both
/// cases, typed measures on whatever they meet.
fn every_measure() -> FeatureSet {
    use FeatureKind::*;
    let mut fs = FeatureSet::default();
    for col in ["Title", "Code"] {
        for kind in [
            ExactStr, LevSim, Jaro, JaroWinkler, NeedlemanWunsch, SmithWaterman, JaccardQgram3,
            JaccardWord, CosineWord, OverlapCoeffWord, DiceQgram3, MongeElkanJw, MongeElkanSoundex,
        ] {
            fs.push(Feature::new(col, col, kind, false));
            fs.push(Feature::new(col, col, kind, true));
        }
        for kind in [NumExact, NumAbsDiff, NumRelSim, DateYearGap, DateExact, BoolExact] {
            fs.push(Feature::new(col, col, kind, false));
        }
    }
    fs
}

/// Left rows: capitals the right table never holds (every case-sensitive
/// word of an arrival is request-local), words no right row has, a word
/// and a title over 64 chars (two mask words, two flag words), non-ASCII
/// words, a repeated word, a wordless and a null cell.
fn tables() -> (Table, Table) {
    let long = "electroencephalographically".repeat(3);
    let a = format!(
        "Title,Code\n\
         CORN FUNGICIDE GUIDELINES FOR THE UPPER MIDWEST,2008-34103-19449\n\
         ZEBRA QUIXOTIC JARGON,WIS01040\n\
         corn corn dodder corn,7\n\
         {long} ecology of the swamp dodder in restored prairie wetlands,wis04059\n\
         İpm Σίτος 玉米 café,\n\
         --,2009-35102\n\
         ,12\n"
    );
    let b = format!(
        "Title,Code\n\
         Corn Fungicide Guidelines for the Upper Midwest,2008-34103-19449\n\
         Swamp Dodder Ecology in Restored Prairie Wetlands,WIS04059\n\
         corn fungicide guidelines,wis01040\n\
         {long} corn,7\n\
         ΣΊΤΟΣ ipm 玉米 cafe,2009-35102-1\n\
         ??,\n\
         ,12.5\n\
         guidelines guidelines dodder,2008\n"
    );
    (read_str("A", &a).expect("left table"), read_str("B", &b).expect("right table"))
}

#[test]
fn warmed_scratch_scores_pairs_without_allocating() {
    let fs = every_measure();
    let (a, b) = tables();
    let mask = FeatureMask::full(fs.len());
    let pairs: Vec<Pair> = (0..a.n_rows())
        .flat_map(|i| (0..b.n_rows()).map(move |j| Pair::new(i, j)))
        .collect();
    let mut out = vec![0.0; fs.len()];

    // Left row a table row: the whole pass, preparing each left row included.
    let batch = BatchExtractor::new(&fs, &a, &b, &mask, None).expect("columns exist");
    let mut scratch = BatchScratch::new();
    let mut pass = |scratch: &mut BatchScratch| {
        let before = allocations();
        let mut finite = 0usize;
        for p in &pairs {
            batch.pair(*p, scratch).fill(&mut out);
            finite += out.iter().filter(|v| v.is_finite()).count();
        }
        (allocations() - before, finite)
    };
    let (warming, finite) = pass(&mut scratch);
    assert!(warming > 0, "the first pass sizes the scratch");
    assert!(finite > pairs.len() * 30, "most features of most pairs have a value: {finite}");
    // Wrapping the generation empties the reuse table: the second pass
    // runs every kernel again rather than finding the first pass's values.
    scratch.force_epoch_wrap();
    assert_eq!(pass(&mut scratch), (0, finite), "second pass over the same pairs, table rows");

    // Left row an arriving record, on the same scratch: preparing it copies
    // a cell per plan that has to lowercase it; the candidates cost nothing.
    let serve = ServeExtractor::new(&fs, &b).expect("columns exist");
    let mut pass = |scratch: &mut BatchScratch| {
        let (mut in_fill, mut finite) = (0, 0usize);
        for i in 0..a.n_rows() {
            serve.prepare(&a, i, scratch).expect("row in range");
            let before = allocations();
            for j in 0..b.n_rows() {
                serve.candidate(j, scratch).fill(&mut out);
                finite += out.iter().filter(|v| v.is_finite()).count();
            }
            in_fill += allocations() - before;
        }
        (in_fill, finite)
    };
    let warmed = pass(&mut scratch);
    assert_eq!(warmed.1, finite, "an arriving row scores as the table row it equals");
    assert_eq!(pass(&mut scratch), (0, finite), "second pass over the same pairs, arrivals");
    let counts = scratch.pull_counts();
    assert!(counts.me_columns > 0 && counts.me_cells > 0, "the word matrices were exercised");
}
