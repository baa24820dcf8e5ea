//! Fits over a shared [`TrainView`] write into a reusable [`TrainScratch`]:
//! what a warmed fit allocates is the model it returns — a tree's four
//! pre-order node arrays, copied out of the scratch at their exact size,
//! and a forest's list of trees — never a node of its own, a copy of its
//! rows, a sorted column, an index partition or a feature draw. A counting
//! global allocator measures it (this file holds one test on one thread,
//! so nothing else allocates meanwhile). Before the presorted engine every
//! node allocated five vectors and every fold or held-out fit copied the
//! matrix first.

use em_ml::forest::RandomForestLearner;
use em_ml::tree::DecisionTreeLearner;
use em_ml::{Dataset, FittedModel, TrainView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Allocations a fit may make beside its trees: the list its trees are
/// collected into.
const PER_FIT: u64 = 1;

/// Allocations a tree makes: its four node arrays (split feature,
/// threshold or probability, right child, gain).
const PER_TREE: u64 = 4;

/// Split nodes in an encoded model.
fn splits(model: &FittedModel) -> u64 {
    model.encode().lines().filter(|l| l.starts_with("S ")).count() as u64
}

#[test]
fn a_warmed_fit_allocates_its_nodes_and_nothing_else() {
    // The paper's label-debugging shape: ~250 rows of 25 similarity scores,
    // some columns nearly all ties, labels noisy enough for deep trees.
    let mut rng = StdRng::seed_from_u64(20190326);
    let x: Vec<Vec<f64>> = (0..250)
        .map(|_| {
            (0..25)
                .map(|c| match c % 3 {
                    0 => f64::from(rng.gen_range(0..2u8)),
                    1 => f64::from(rng.gen_range(0..12u8)) / 12.0,
                    _ => rng.gen::<f64>(),
                })
                .collect()
        })
        .collect();
    let y: Vec<bool> = x.iter().map(|r| (r[2] + r[1] > 1.0) ^ (rng.gen_range(0..6u8) == 0)).collect();
    let data = Dataset::new((0..25).map(|i| format!("f{i}")).collect(), x, y).unwrap();
    let view = TrainView::new(&data).unwrap();
    let mut scratch = view.scratch();
    let held_out: Vec<usize> = (0..250).filter(|&i| i != 17).collect();

    let forest = RandomForestLearner::default();
    let tree = DecisionTreeLearner::default();
    // Warm: nothing in the scratch grows after the view sized it, but the
    // first fit is where it would show.
    forest.fit_forest_rows(&view, &held_out, &mut scratch).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let fitted = forest.fit_forest_rows(&view, &held_out, &mut scratch).unwrap();
    let forest_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let single = tree.fit_tree_rows(&view, &held_out, &mut scratch).unwrap();
    let tree_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let n_trees = fitted.n_trees() as u64;
    let forest_splits = splits(&FittedModel::Forest(fitted));
    let tree_splits = splits(&FittedModel::Tree(single));
    assert!(forest_splits > 25 * 5 && tree_splits > 5, "trees too shallow to measure anything");
    assert!(
        forest_allocations <= (PER_TREE * n_trees + PER_FIT).min(2 * forest_splits + PER_FIT),
        "forest: {forest_allocations} allocations for {n_trees} trees, {forest_splits} splits"
    );
    assert!(
        tree_allocations <= PER_TREE.min(2 * tree_splits),
        "tree: {tree_allocations} allocations for {tree_splits} splits"
    );
}
