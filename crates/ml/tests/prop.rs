//! Property-based tests for ML invariants.

use em_ml::cv::kfold_indices;
use em_ml::dataset::{Dataset, Imputer};
use em_ml::metrics::Confusion;
use em_ml::model::Learner;
use em_ml::tree::DecisionTreeLearner;
use em_ml::{BlockScorer, FittedModel, Model};
use proptest::prelude::*;

fn labeled_rows() -> impl Strategy<Value = Vec<(Vec<f64>, bool)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(-10.0f64..10.0, 3),
            any::<bool>(),
        ),
        4..40,
    )
}

proptest! {
    /// Confusion counts always sum to the number of examples, and all
    /// derived metrics stay in [0, 1].
    #[test]
    fn confusion_invariants(pairs in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..50)) {
        let predicted: Vec<bool> = pairs.iter().map(|(p, _)| *p).collect();
        let actual: Vec<bool> = pairs.iter().map(|(_, a)| *a).collect();
        let c = Confusion::from_predictions(&predicted, &actual);
        prop_assert_eq!(c.total(), pairs.len());
        for v in [c.precision(), c.recall(), c.f1(), c.accuracy()] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // F1 is between min and max of P and R (harmonic mean property),
        // except the 0/0 convention.
        if c.tp > 0 {
            let (p, r) = (c.precision(), c.recall());
            prop_assert!(c.f1() <= p.max(r) + 1e-12);
            prop_assert!(c.f1() >= p.min(r) - 1e-12);
        }
    }

    /// Imputation is idempotent and leaves finite values untouched.
    #[test]
    fn imputer_idempotent(rows in proptest::collection::vec(
        proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 3), 1..20
    )) {
        let x: Vec<Vec<f64>> = rows.iter()
            .map(|r| r.iter().map(|o| o.unwrap_or(f64::NAN)).collect())
            .collect();
        let imp = Imputer::fit(&x, 3);
        let mut once = x.clone();
        imp.transform(&mut once);
        let mut twice = once.clone();
        imp.transform(&mut twice);
        prop_assert_eq!(&once, &twice);
        // finite originals preserved
        for (orig, filled) in x.iter().zip(&once) {
            for (o, f) in orig.iter().zip(filled) {
                if o.is_finite() {
                    prop_assert_eq!(o, f);
                }
                prop_assert!(f.is_finite());
            }
        }
    }

    /// A decision tree perfectly memorizes training data that has no
    /// contradictory rows (same x, different y), and always emits
    /// probabilities in [0, 1].
    #[test]
    fn tree_memorizes_consistent_data(rows in labeled_rows()) {
        // Deduplicate contradictions: keep first label per feature vector.
        let mut seen: std::collections::HashMap<String, bool> = std::collections::HashMap::new();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, l) in &rows {
            let key = format!("{r:?}");
            match seen.get(&key) {
                Some(_) => continue,
                None => {
                    seen.insert(key, *l);
                    x.push(r.clone());
                    y.push(*l);
                }
            }
        }
        let data = Dataset::new(
            vec!["a".into(), "b".into(), "c".into()],
            x.clone(),
            y.clone(),
        ).unwrap();
        let learner = DecisionTreeLearner { max_depth: 64, ..Default::default() };
        let model = learner.fit(&data).unwrap();
        for (row, label) in x.iter().zip(&y) {
            let p = model.predict_proba(row);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert_eq!(model.predict(row), *label);
        }
    }

    /// k-fold folds partition the index range exactly, for any valid (n, k).
    #[test]
    fn kfold_partition(n in 2usize..200, k in 2usize..10, seed in any::<u64>()) {
        prop_assume!(n >= k);
        let folds = kfold_indices(n, k, seed).unwrap();
        prop_assert_eq!(folds.len(), k);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        let (min, max) = folds.iter().map(Vec::len)
            .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
        prop_assert!(max - min <= 1, "folds unbalanced: {min}..{max}");
    }
}

// ---- pull-based scoring: one walk, whatever the feature source ----------


/// A tree the test owns, so it can say which splits a row's walk crosses
/// without asking the code under test.
#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split(usize, f64, Box<Node>, Box<Node>),
}

/// Values rows and thresholds both draw from, so `value == threshold`,
/// `NaN` comparisons and infinities on either side all occur.
const PALETTE: [f64; 10] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0];

/// Features splits may name; rows hold 0 to 6 values, so a split can read
/// past the end of its row (the `unwrap_or(0.0)` case).
const N_FEATURES: usize = 6;

/// Builds a tree pre-order from a list of draws `(kind, feature,
/// threshold, leaf)`; runs out of draws, or depth, into leaves. No draws at
/// all is the leaf-only tree.
fn grow(draws: &[(u8, usize, usize, usize)], at: &mut usize, depth: usize) -> Node {
    let Some(&(kind, feature, threshold, leaf)) = draws.get(*at) else {
        return Node::Leaf(0.5);
    };
    *at += 1;
    if kind % 3 == 0 || depth >= 6 {
        return Node::Leaf(leaf as f64 / 8.0);
    }
    let left = grow(draws, at, depth + 1);
    let right = grow(draws, at, depth + 1);
    Node::Split(feature % N_FEATURES, PALETTE[threshold % PALETTE.len()], left.into(), right.into())
}

/// The node lines `FittedModel::decode` reads.
fn encode(node: &Node, out: &mut String) {
    match node {
        Node::Leaf(p) => out.push_str(&format!("L {p:?}\n")),
        Node::Split(f, t, l, r) => {
            out.push_str(&format!("S {f} {t:?} 0.0\n"));
            encode(l, out);
            encode(r, out);
        }
    }
}

/// The split features on `row`'s root-to-leaf path, in walk order, and
/// the leaf reached.
fn walk(mut node: &Node, row: &[f64], path: &mut Vec<usize>) -> f64 {
    loop {
        match node {
            Node::Leaf(p) => return *p,
            Node::Split(f, t, l, r) => {
                path.push(*f);
                node = if row.get(*f).copied().unwrap_or(0.0) <= *t { l } else { r };
            }
        }
    }
}

fn draws() -> impl Strategy<Value = Vec<(u8, usize, usize, usize)>> {
    proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64, 0usize..9), 0..40)
}

fn row() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(proptest::sample::select(PALETTE.to_vec()), 0..7)
}

/// `score_with` over a recording closure: the score, and every feature it
/// asked for, in order.
fn pulled(scorer: &BlockScorer, row: &[f64]) -> (f64, Vec<usize>) {
    let mut asked = Vec::new();
    let p = scorer.score_with(&mut [], |k| {
        asked.push(k);
        row.get(k).copied().unwrap_or(0.0)
    });
    (p, asked)
}

proptest! {
    /// A flattened tree scores by one walk: through a closure, over a
    /// slice and in the boxed model the bits are the same, and the closure
    /// is asked once per split on the path — never for a feature off it.
    #[test]
    fn tree_walk_is_one_walk(draws in draws(), rows in proptest::collection::vec(row(), 1..8)) {
        let tree = grow(&draws, &mut 0, 0);
        let mut text = String::from("tree\n");
        encode(&tree, &mut text);
        let model = FittedModel::decode(&text).expect("well-formed tree");
        let scorer = model.block_scorer();
        let BlockScorer::Tree(flat) = &scorer else { panic!("a tree flattens to a tree") };
        for row in &rows {
            let mut path = Vec::new();
            let leaf = walk(&tree, row, &mut path);
            let want = model.predict_proba(row);
            prop_assert_eq!(want.to_bits(), leaf.to_bits());
            prop_assert_eq!(flat.score(row).to_bits(), want.to_bits());
            prop_assert_eq!(scorer.score_row(row).to_bits(), want.to_bits());
            let (got, asked) = pulled(&scorer, row);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(asked, path);
        }
    }

    /// Forests of 1 to 32 trees: same tree order, same left fold, one
    /// division — and the closure is asked for exactly the concatenation of
    /// the member trees' paths.
    #[test]
    fn forest_walk_is_one_walk(
        forest in proptest::collection::vec(draws(), 1..33),
        rows in proptest::collection::vec(row(), 1..6),
    ) {
        let trees: Vec<Node> = forest.iter().map(|d| grow(d, &mut 0, 0)).collect();
        let mut text = format!("forest\ntrees {}\n", trees.len());
        for t in &trees {
            encode(t, &mut text);
        }
        let model = FittedModel::decode(&text).expect("well-formed forest");
        let scorer = model.block_scorer();
        for row in &rows {
            let mut path = Vec::new();
            let sum: f64 = trees.iter().map(|t| walk(t, row, &mut path)).sum();
            let want = model.predict_proba(row);
            prop_assert_eq!(want.to_bits(), (sum / trees.len() as f64).to_bits());
            prop_assert_eq!(scorer.score_row(row).to_bits(), want.to_bits());
            let (got, asked) = pulled(&scorer, row);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(asked, path);
            if !row.is_empty() {
                let mut out = [0.0, 0.0];
                scorer.score_block(&[row.as_slice(), row.as_slice()].concat(), row.len(), &mut out);
                prop_assert_eq!(out.map(f64::to_bits), [want.to_bits(); 2]);
            }
        }
    }
}
