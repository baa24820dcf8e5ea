//! Property-based tests for ML invariants.

use em_ml::cv::kfold_indices;
use em_ml::dataset::{Dataset, Imputer};
use em_ml::metrics::Confusion;
use em_ml::model::Learner;
use em_ml::tree::DecisionTreeLearner;
use em_ml::{FittedModel, Model};
use proptest::prelude::*;

/// A committee's members as the forest text the naive ensemble writes.
fn committee_text(committee: &em_ml::CommitteeModel) -> String {
    let mut out = format!("forest\ntrees {}\n", committee.members.len());
    for tree in &committee.members {
        let text = FittedModel::Tree(tree.clone()).encode();
        out.push_str(text.strip_prefix("tree\n").unwrap());
    }
    out
}

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
        let model = learner.fit_model(&data).unwrap();
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
enum OracleNode {
    Leaf(f64),
    Split(usize, f64, Box<OracleNode>, Box<OracleNode>),
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
fn grow(draws: &[(u8, usize, usize, usize)], at: &mut usize, depth: usize) -> OracleNode {
    let Some(&(kind, feature, threshold, leaf)) = draws.get(*at) else {
        return OracleNode::Leaf(0.5);
    };
    *at += 1;
    if kind % 3 == 0 || depth >= 6 {
        return OracleNode::Leaf(leaf as f64 / 8.0);
    }
    let left = grow(draws, at, depth + 1);
    let right = grow(draws, at, depth + 1);
    OracleNode::Split(feature % N_FEATURES, PALETTE[threshold % PALETTE.len()], left.into(), right.into())
}

/// The node lines `FittedModel::decode` reads.
fn encode(node: &OracleNode, out: &mut String) {
    match node {
        OracleNode::Leaf(p) => out.push_str(&format!("L {p:?}\n")),
        OracleNode::Split(f, t, l, r) => {
            out.push_str(&format!("S {f} {t:?} 0.0\n"));
            encode(l, out);
            encode(r, out);
        }
    }
}

/// The split features on `row`'s root-to-leaf path, in walk order, and
/// the leaf reached.
fn walk(mut node: &OracleNode, row: &[f64], path: &mut Vec<usize>) -> f64 {
    loop {
        match node {
            OracleNode::Leaf(p) => return *p,
            OracleNode::Split(f, t, l, r) => {
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
fn pulled(model: &FittedModel, row: &[f64]) -> (f64, Vec<usize>) {
    let mut asked = Vec::new();
    let p = model.score_with(&mut [], |k| {
        asked.push(k);
        row.get(k).copied().unwrap_or(0.0)
    });
    (p, asked)
}

proptest! {
    /// A tree scores by one walk: through a closure, over a slice and over
    /// a block the bits are the oracle walk's, and the closure is asked
    /// once per split on the path — never for a feature off it.
    #[test]
    fn tree_walk_is_one_walk(draws in draws(), rows in proptest::collection::vec(row(), 1..8)) {
        let tree = grow(&draws, &mut 0, 0);
        let mut text = String::from("tree\n");
        encode(&tree, &mut text);
        let model = FittedModel::decode(&text).expect("well-formed tree");
        prop_assert_eq!(model.encode(), text);
        for row in &rows {
            let mut path = Vec::new();
            let leaf = walk(&tree, row, &mut path);
            let want = model.predict_proba(row);
            prop_assert_eq!(want.to_bits(), leaf.to_bits());
            let (got, asked) = pulled(&model, row);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(asked, path);
            if !row.is_empty() {
                let mut out = [0.0, 0.0];
                model.block_scorer().score_block(&[row.as_slice(), row.as_slice()].concat(), row.len(), &mut out);
                prop_assert_eq!(out.map(f64::to_bits), [want.to_bits(); 2]);
            }
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
        let trees: Vec<OracleNode> = forest.iter().map(|d| grow(d, &mut 0, 0)).collect();
        let mut text = format!("forest\ntrees {}\n", trees.len());
        for t in &trees {
            encode(t, &mut text);
        }
        let model = FittedModel::decode(&text).expect("well-formed forest");
        prop_assert_eq!(model.encode(), text);
        for row in &rows {
            let mut path = Vec::new();
            let sum: f64 = trees.iter().map(|t| walk(t, row, &mut path)).sum();
            let want = model.predict_proba(row);
            prop_assert_eq!(want.to_bits(), (sum / trees.len() as f64).to_bits());
            let (got, asked) = pulled(&model, row);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(asked, path);
            if !row.is_empty() {
                let mut out = [0.0, 0.0];
                model.block_scorer().score_block(&[row.as_slice(), row.as_slice()].concat(), row.len(), &mut out);
                prop_assert_eq!(out.map(f64::to_bits), [want.to_bits(); 2]);
            }
        }
    }
}

// ---- presorted fit == naive fit -----------------------------------------

/// The sort-per-node CART builder the presorted training engine replaced,
/// kept as its oracle: it trains on a *copy* of the listed rows, collects
/// and sorts `(value, label)` pairs for every candidate feature at every
/// node, and writes the node lines `FittedModel::encode` writes. It shares
/// no code with `em_ml::tree`; what it shares is the contract — candidate
/// order, the `gini`/gain float operations, the `1e-12` tie rule, the
/// midpoint threshold with its fall-back to the lower value when the
/// midpoint separates nothing, the per-member seed, and the order in which a
/// member consumes its RNG.
mod naive {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[derive(Clone, Copy)]
    pub struct Params {
        pub max_depth: usize,
        pub min_samples_split: usize,
        pub min_samples_leaf: usize,
    }

    fn gini(pos: usize, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let p = pos as f64 / total as f64;
        2.0 * p * (1.0 - p)
    }

    /// `(feature, midpoint, lower value, gain)` of the best split.
    fn best_split(
        x: &[Vec<f64>],
        y: &[bool],
        idx: &[usize],
        features: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64, f64, f64)> {
        let total = idx.len();
        let total_pos = idx.iter().filter(|&&i| y[i]).count();
        let parent = gini(total_pos, total);
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for &f in features {
            let mut pairs: Vec<(f64, bool)> = idx.iter().map(|&i| (x[i][f], y[i])).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let (mut left_n, mut left_pos) = (0usize, 0usize);
            for k in 0..total - 1 {
                left_n += 1;
                left_pos += usize::from(pairs[k].1);
                if pairs[k].0 == pairs[k + 1].0 {
                    continue;
                }
                let right_n = total - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let right_pos = total_pos - left_pos;
                let weighted = (left_n as f64 * gini(left_pos, left_n)
                    + right_n as f64 * gini(right_pos, right_n))
                    / total as f64;
                let gain = parent - weighted;
                let better = match &best {
                    None => gain >= -1e-12,
                    Some(b) => gain > b.3 + 1e-12,
                };
                if better {
                    best = Some((f, (pairs[k].0 + pairs[k + 1].0) / 2.0, pairs[k].0, gain));
                }
            }
        }
        best
    }

    fn build(
        x: &[Vec<f64>],
        y: &[bool],
        idx: &[usize],
        depth: usize,
        params: Params,
        sampler: &mut Option<(usize, &mut StdRng)>,
        out: &mut String,
    ) {
        let d = x[0].len();
        let pos = idx.iter().filter(|&&i| y[i]).count();
        let proba = pos as f64 / idx.len() as f64;
        if pos == 0
            || pos == idx.len()
            || depth >= params.max_depth
            || idx.len() < params.min_samples_split
        {
            out.push_str(&format!("L {proba:?}\n"));
            return;
        }
        let mut features: Vec<usize> = (0..d).collect();
        if let Some((mtry, rng)) = sampler {
            if *mtry < d {
                features.shuffle(&mut **rng);
                features.truncate(*mtry);
                features.sort_unstable();
            }
        }
        let Some((feature, mid, lo, gain)) =
            best_split(x, y, idx, &features, params.min_samples_leaf)
        else {
            out.push_str(&format!("L {proba:?}\n"));
            return;
        };
        let cut = |t: f64| -> (Vec<usize>, Vec<usize>) {
            idx.iter().partition(|&&i| x[i][feature] <= t)
        };
        let mut threshold = mid;
        let (mut left, mut right) = cut(threshold);
        if left.is_empty() || right.is_empty() {
            threshold = lo;
            (left, right) = cut(threshold);
        }
        let weighted_gain = idx.len() as f64 * gain;
        out.push_str(&format!("S {feature} {threshold:?} {weighted_gain:?}\n"));
        build(x, y, &left, depth + 1, params, sampler, out);
        build(x, y, &right, depth + 1, params, sampler, out);
    }

    /// `FittedModel::encode` of one tree fitted on a copy of `rows`.
    pub fn tree(x: &[Vec<f64>], y: &[bool], rows: &[usize], params: Params) -> String {
        let (x, y) = copy(x, y, rows);
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut out = String::from("tree\n");
        build(&x, &y, &idx, 0, params, &mut None, &mut out);
        out
    }

    /// The listed rows as their own little dataset.
    fn copy(x: &[Vec<f64>], y: &[bool], rows: &[usize]) -> (Vec<Vec<f64>>, Vec<bool>) {
        (rows.iter().map(|&r| x[r].clone()).collect(), rows.iter().map(|&r| y[r]).collect())
    }

    /// `FittedModel::encode` of a bagged ensemble fitted on a copy of `rows`.
    #[allow(clippy::too_many_arguments)]
    pub fn ensemble(
        x: &[Vec<f64>],
        y: &[bool],
        rows: &[usize],
        params: Params,
        n_members: usize,
        mtry: Option<usize>,
        seed: u64,
        stratified: bool,
    ) -> String {
        let (x, y) = copy(x, y, rows);
        let (n, d) = (x.len(), x[0].len());
        let mtry = mtry.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d.max(1));
        let (pos, neg): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| y[i]);
        let mut out = format!("forest\ntrees {n_members}\n");
        for t in 0..n_members {
            let mut rng =
                StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
            let idx: Vec<usize> = if stratified {
                let mut idx = Vec::new();
                for stratum in [&pos, &neg] {
                    for _ in 0..stratum.len() {
                        idx.push(stratum[rng.gen_range(0..stratum.len())]);
                    }
                }
                idx
            } else {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            };
            build(&x, &y, &idx, 0, params, &mut Some((mtry, &mut rng)), &mut out);
        }
        out
    }
}

/// A training set built to stress the rank engine: per column one of —
/// a constant, a two-value flag, a five-value palette with `-0.0` beside
/// `0.0`, values one ulp apart, a short grid (heavy ties), or a continuum
/// (every value distinct, so small nodes take the sorted-key sweep).
fn engine_dataset(rng: &mut rand::rngs::StdRng) -> Dataset {
    use rand::Rng;
    let n = rng.gen_range(2..90usize);
    let d = rng.gen_range(1..7usize);
    let kinds: Vec<u8> = (0..d).map(|_| rng.gen_range(0..6u8)).collect();
    let ulps = [1.0, 1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON, 1.0 + 3.0 * f64::EPSILON];
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            kinds
                .iter()
                .map(|kind| match kind {
                    0 => 4.25,
                    1 => f64::from(rng.gen_range(0..2u8)),
                    2 => [-0.0, 0.0, -1.5, 2.0, 1e300][rng.gen_range(0..5usize)],
                    3 => ulps[rng.gen_range(0..4usize)],
                    4 => f64::from(rng.gen_range(0..8u8)) / 8.0,
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect()
        })
        .collect();
    // Labels lean on column 0 and are otherwise noise, so trees go deep.
    let y: Vec<bool> = x.iter().map(|r| (r[0] > 0.4) ^ (rng.gen_range(0..4u8) == 0)).collect();
    Dataset::new((0..d).map(|i| format!("f{i}")).collect(), x, y).unwrap()
}

fn tree_params(rng: &mut rand::rngs::StdRng) -> (DecisionTreeLearner, naive::Params) {
    use rand::Rng;
    let learner = DecisionTreeLearner {
        max_depth: [0, 1, 2, 3, 12, 40][rng.gen_range(0..6usize)],
        min_samples_split: [0, 2, 5][rng.gen_range(0..3usize)],
        min_samples_leaf: [0, 1, 2, 4][rng.gen_range(0..4usize)],
    };
    let params = naive::Params {
        max_depth: learner.max_depth,
        min_samples_split: learner.min_samples_split,
        min_samples_leaf: learner.min_samples_leaf,
    };
    (learner, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A tree, a forest and a committee (plain and stratified) fitted over
    /// a row list of a shared view — repeats, holes, any order — encode to
    /// the bytes the sort-per-node oracle writes for a copy of those rows.
    #[test]
    fn presorted_fit_equals_naive_fit(case in any::<u64>()) {
        use em_ml::forest::RandomForestLearner;
        use em_ml::{CommitteeLearner, TrainView};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(case);
        let data = engine_dataset(&mut rng);
        let (n, d) = (data.len(), data.n_features());
        let (tree, params) = tree_params(&mut rng);
        let view = TrainView::new(&data).unwrap();
        let mut scratch = view.scratch();

        // Three lists: every row once, a strict subset, and draws with
        // repeats (possibly longer than the dataset).
        let all: Vec<usize> = (0..n).collect();
        let holes: Vec<usize> = (0..n).filter(|_| rng.gen_range(0..3u8) > 0).rev().collect();
        let repeats: Vec<usize> =
            (0..rng.gen_range(1..2 * n + 1)).map(|_| rng.gen_range(0..n)).collect();
        for rows in [&all, &holes, &repeats] {
            if rows.is_empty() {
                continue;
            }
            let got = FittedModel::Tree(tree.fit_tree_rows(&view, rows, &mut scratch).unwrap());
            prop_assert_eq!(got.encode(), naive::tree(&data.x, &data.y, rows, params));

            let mtry = [None, Some(1), Some(2), Some(d)][rng.gen_range(0..4usize)];
            let forest = RandomForestLearner {
                n_trees: rng.gen_range(1..6usize),
                tree,
                mtry,
                seed: rng.gen(),
            };
            let got = forest.fit_rows(&view, rows, &mut scratch).unwrap();
            let want = naive::ensemble(
                &data.x, &data.y, rows, params, forest.n_trees, mtry, forest.seed, false,
            );
            prop_assert_eq!(got.encode(), want);
        }

        // A committee fits whole datasets only; both resampling schemes.
        for stratified in [false, true] {
            let committee = CommitteeLearner {
                n_members: rng.gen_range(1..6usize),
                tree,
                mtry: None,
                seed: rng.gen(),
                stratified,
            };
            let got = committee_text(&committee.fit(&data).unwrap());
            let want = naive::ensemble(
                &data.x, &data.y, &all, params, committee.n_members, None, committee.seed,
                stratified,
            );
            prop_assert_eq!(got, want);
        }
    }
}

/// Large enough that trees, members, held-out rows and CV cells all fork:
/// the same bytes at 1, 2 and 4 threads, and the oracle's.
#[test]
fn forked_fits_equal_the_naive_fit_at_any_thread_count() {
    use em_ml::cv::{cross_validate, leave_one_out_predictions, stratified_kfold_indices};
    use em_ml::forest::RandomForestLearner;
    use em_ml::CommitteeLearner;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(20190326);
    let n = 420;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                f64::from(rng.gen_range(0..6u8)) / 4.0,
                rng.gen_range(0.0..1.0),
                [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                3.5,
            ]
        })
        .collect();
    let y: Vec<bool> = x.iter().map(|r| (r[0] + r[1] > 1.1) ^ (rng.gen_range(0..5u8) == 0)).collect();
    let data = Dataset::new((0..4).map(|i| format!("f{i}")).collect(), x, y).unwrap();
    let all: Vec<usize> = (0..n).collect();
    let tree = DecisionTreeLearner::default();
    let params = naive::Params { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1 };
    let forest = RandomForestLearner { n_trees: 30, tree, mtry: Some(2), seed: 11 };
    let small = RandomForestLearner { n_trees: 3, ..forest };
    let committee = CommitteeLearner { n_members: 30, tree, mtry: None, seed: 5, stratified: true };

    let want_forest = naive::ensemble(&data.x, &data.y, &all, params, 30, Some(2), 11, false);
    let want_committee = naive::ensemble(&data.x, &data.y, &all, params, 30, None, 5, true);
    // Leave-one-out and five-fold by the oracle: fit on a copy, decode, predict.
    let oracle_predict = |train: &[usize], row: usize| {
        let text = naive::ensemble(&data.x, &data.y, train, params, 3, Some(2), 11, false);
        FittedModel::decode(&text).unwrap().predict(&data.x[row])
    };
    let held_out: Vec<usize> = (0..n).step_by(7).collect();
    let want_loo: Vec<bool> = held_out
        .iter()
        .map(|&i| oracle_predict(&all.iter().copied().filter(|&j| j != i).collect::<Vec<_>>(), i))
        .collect();
    let folds = stratified_kfold_indices(&data.y, 5, 9).unwrap();
    let want_cv: Vec<Confusion> = (0..5)
        .map(|f| {
            let train: Vec<usize> =
                (0..5).filter(|&g| g != f).flat_map(|g| folds[g].iter().copied()).collect();
            let predicted: Vec<bool> = folds[f].iter().map(|&i| oracle_predict(&train, i)).collect();
            let actual: Vec<bool> = folds[f].iter().map(|&i| data.y[i]).collect();
            Confusion::from_predictions(&predicted, &actual)
        })
        .collect();

    for threads in [1, 2, 4] {
        em_parallel::set_threads(threads);
        let got_forest = forest.fit_model(&data).unwrap().encode();
        let got_committee = committee_text(&committee.fit(&data).unwrap());
        let loo = leave_one_out_predictions(&small, &data).unwrap();
        let cv = cross_validate(&small, &data, 5, 9).unwrap();
        em_parallel::set_threads(0);
        assert_eq!(got_forest, want_forest, "forest at {threads} threads");
        assert_eq!(got_committee, want_committee, "committee at {threads} threads");
        let got_loo: Vec<bool> = held_out.iter().map(|&i| loo[i]).collect();
        assert_eq!(got_loo, want_loo, "leave-one-out at {threads} threads");
        assert_eq!(cv.folds, want_cv, "five-fold at {threads} threads");
    }
}
