//! Random forests: bagged CART trees with per-split feature subsetting —
//! the matcher that won the case study's first selection round before the
//! case-insensitive feature fix (Section 9).

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::{validate_training, Learner, Model};
use crate::tree::{seeded_rng, DecisionTreeLearner, DecisionTreeModel, FlatTree};
use em_parallel::Executor;
use rand::Rng;

/// Derives an independent per-tree seed from the forest seed, so every tree
/// owns its RNG stream and trees can fit in parallel with results identical
/// to the sequential order at any thread count.
pub(crate) fn tree_seed(forest_seed: u64, tree: usize) -> u64 {
    // Golden-ratio (Weyl) increment: distinct, well-mixed streams per tree.
    forest_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tree as u64 + 1)
}

/// Hyper-parameters for a random forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomForestLearner {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: DecisionTreeLearner,
    /// Features considered per split; `None` → `ceil(sqrt(d))`.
    pub mtry: Option<usize>,
    /// RNG seed for bootstrap sampling and feature subsetting.
    pub seed: u64,
}

impl Default for RandomForestLearner {
    fn default() -> Self {
        RandomForestLearner {
            n_trees: 25,
            tree: DecisionTreeLearner::default(),
            mtry: None,
            seed: 7,
        }
    }
}

/// A fitted forest: mean of member-tree probabilities.
#[derive(Debug, Clone)]
pub struct RandomForestModel {
    trees: Vec<DecisionTreeModel>,
}

impl RandomForestModel {
    /// Rebuilds a forest from decoded member trees (snapshot loading).
    pub(crate) fn from_trees(trees: Vec<DecisionTreeModel>) -> RandomForestModel {
        RandomForestModel { trees }
    }

    /// The member trees (snapshot encoding).
    pub(crate) fn trees(&self) -> &[DecisionTreeModel] {
        &self.trees
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean Gini feature importance over the member trees, normalized to
    /// sum to 1 (zeros if no tree split at all).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_features];
        for t in &self.trees {
            for (slot, v) in acc.iter_mut().zip(t.feature_importance(n_features)) {
                *slot += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in &mut acc {
                *v /= total;
            }
        }
        acc
    }
}

impl Model for RandomForestModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f64
    }
}

/// A forest flattened into [`FlatTree`]s.
///
/// Bit-identity with [`RandomForestModel::predict_proba`]: per row the
/// accumulator starts at `0.0` and absorbs tree probabilities in tree
/// order — the same left fold as `iter().sum::<f64>()` — then divides by
/// the tree count once. An empty forest scores `0.0`, matching the
/// explicit empty branch above.
#[derive(Debug, Clone)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
}

impl FlatForest {
    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Scores one row whose feature `k` is `feature(k)`: every tree's
    /// [`FlatTree::score_with`] walk in tree order, so `feature` is asked
    /// again for a feature two trees test — a source that pays per
    /// computation keeps what it returned.
    #[inline]
    pub fn score_with(&self, mut feature: impl FnMut(usize) -> f64) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for tree in &self.trees {
            sum += tree.score_with(&mut feature);
        }
        sum / self.trees.len() as f64
    }

    /// Scores one row; bit-identical to the boxed forest's `predict_proba`.
    pub fn score_row(&self, row: &[f64]) -> f64 {
        self.score_with(|k| row.get(k).copied().unwrap_or(0.0))
    }
}

impl RandomForestModel {
    /// Flattens every member tree for [`FlatForest::score_with`].
    pub fn flatten(&self) -> FlatForest {
        FlatForest { trees: self.trees.iter().map(DecisionTreeModel::flatten).collect() }
    }
}

impl RandomForestLearner {
    /// Like [`Learner::fit`] but returns the concrete model, for callers
    /// that need [`RandomForestModel::feature_importance`].
    pub fn fit_forest(&self, data: &Dataset) -> Result<RandomForestModel, MlError> {
        validate_training(data)?;
        if self.n_trees == 0 {
            return Err(MlError::BadParameter("n_trees must be >= 1".to_string()));
        }
        let d = data.n_features();
        let mtry = self
            .mtry
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d.max(1));
        let n = data.len();
        // Each tree draws its bootstrap and splits from its own derived RNG
        // stream — a pure function of (forest seed, tree index) — so the
        // fan-out is bit-identical to a sequential fit at any thread count.
        // A tree costs O(n) per work item, so the spawn floor is expressed
        // in trees-per-training-set-size: spawn only when the forest scans
        // at least SPAWN_CELLS training rows in total.
        const SPAWN_CELLS: usize = 10_000;
        let min_trees = SPAWN_CELLS.div_ceil(n.max(1));
        let trees =
            Executor::current().with_min_items(min_trees).map_indexed(self.n_trees, 1, |t| {
                let mut rng = seeded_rng(tree_seed(self.seed, t));
                // Bootstrap sample: n draws with replacement.
                let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                self.tree.fit_on_indices(&data.x, &data.y, &idx, mtry, &mut rng)
            });
        Ok(RandomForestModel { trees })
    }
}

impl Learner for RandomForestLearner {
    fn name(&self) -> String {
        "Random Forest".to_string()
    }

    fn fit_model(&self, data: &Dataset) -> Result<crate::fitted::FittedModel, MlError> {
        Ok(crate::fitted::FittedModel::Forest(self.fit_forest(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn noisy_threshold_data(n: usize, seed: u64) -> Dataset {
        // y = (f0 + small noise) > 0.5, plus an irrelevant feature
        let mut rng = seeded_rng(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let v: f64 = rng.gen();
            let noise: f64 = rng.gen_range(-0.05..0.05);
            let junk: f64 = rng.gen();
            x.push(vec![v, junk]);
            y.push(v + noise > 0.5);
        }
        Dataset::new(vec!["signal".into(), "junk".into()], x, y).unwrap()
    }

    #[test]
    fn forest_learns_noisy_threshold() {
        let d = noisy_threshold_data(300, 1);
        let m = RandomForestLearner::default().fit(&d).unwrap();
        assert!(m.predict(&[0.95, 0.5]));
        assert!(!m.predict(&[0.05, 0.5]));
    }

    #[test]
    fn forest_probability_is_mean_of_trees() {
        let d = noisy_threshold_data(100, 2);
        let m = RandomForestLearner { n_trees: 5, ..Default::default() }.fit(&d).unwrap();
        let p = m.predict_proba(&[0.9, 0.0]);
        assert!((0.0..=1.0).contains(&p));
        assert!(p > 0.5);
    }

    #[test]
    fn deterministic_in_seed() {
        let d = noisy_threshold_data(120, 3);
        let l = RandomForestLearner { seed: 42, ..Default::default() };
        let m1 = l.fit(&d).unwrap();
        let m2 = l.fit(&d).unwrap();
        for v in [0.1, 0.4, 0.6, 0.9] {
            assert_eq!(m1.predict_proba(&[v, 0.3]), m2.predict_proba(&[v, 0.3]));
        }
    }

    #[test]
    fn forest_is_thread_count_invariant() {
        let d = noisy_threshold_data(120, 5);
        let l = RandomForestLearner { seed: 11, ..Default::default() };
        em_parallel::set_threads(1);
        let m1 = l.fit(&d).unwrap();
        em_parallel::set_threads(4);
        let m4 = l.fit(&d).unwrap();
        em_parallel::set_threads(0);
        for i in 0..=20 {
            let v = i as f64 / 20.0;
            assert_eq!(
                m1.predict_proba(&[v, 0.3]).to_bits(),
                m4.predict_proba(&[v, 0.3]).to_bits(),
                "v={v}"
            );
        }
    }

    #[test]
    fn flat_forest_matches_boxed_forest_bitwise() {
        let d = noisy_threshold_data(200, 7);
        let m = RandomForestLearner { n_trees: 7, ..Default::default() }.fit_forest(&d).unwrap();
        let flat = m.flatten();
        // Random rows, plus NaN, short, long, and empty rows: every input
        // predict_proba accepts must score bit-identically.
        let mut rng = seeded_rng(99);
        let mut rows: Vec<Vec<f64>> = (0..64)
            .map(|_| vec![rng.gen_range(-1.0..2.0), rng.gen_range(-1.0..2.0)])
            .collect();
        rows.push(vec![f64::NAN, 0.3]);
        rows.push(vec![0.5, f64::NAN]);
        rows.push(vec![0.5]);
        rows.push(vec![0.5, 0.5, 9.0]);
        rows.push(vec![]);
        for row in &rows {
            assert_eq!(m.predict_proba(row).to_bits(), flat.score_row(row).to_bits());
        }
        // Block scoring over a uniform-stride slab agrees too.
        let stride = 2;
        let block: Vec<f64> = rows
            .iter()
            .filter(|r| r.len() == stride)
            .flat_map(|r| r.iter().copied())
            .collect();
        let n = block.len() / stride;
        let mut out = vec![0.0; n];
        crate::BlockScorer::Forest(flat).score_block(&block, stride, &mut out);
        for (r, got) in block.chunks_exact(stride).zip(&out) {
            assert_eq!(m.predict_proba(r).to_bits(), got.to_bits());
        }
        // Empty forest convention: score 0.0, matching predict_proba.
        let empty = RandomForestModel::from_trees(Vec::new());
        assert_eq!(empty.predict_proba(&[0.5]).to_bits(), empty.flatten().score_row(&[0.5]).to_bits());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let d = noisy_threshold_data(120, 3);
        let m1 = RandomForestLearner { seed: 1, ..Default::default() }.fit(&d).unwrap();
        let m2 = RandomForestLearner { seed: 2, ..Default::default() }.fit(&d).unwrap();
        let differs = (0..100).any(|i| {
            let v = i as f64 / 100.0;
            (m1.predict_proba(&[v, 0.5]) - m2.predict_proba(&[v, 0.5])).abs() > 1e-12
        });
        assert!(differs);
    }

    #[test]
    fn forest_importance_finds_signal() {
        let d = noisy_threshold_data(200, 9);
        let learner = RandomForestLearner::default();
        let forest = learner.fit_forest(&d).unwrap();
        let imp = forest.feature_importance(2);
        assert!(imp[0] > 0.8, "signal feature under-credited: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_trees_is_an_error() {
        let d = noisy_threshold_data(10, 4);
        let l = RandomForestLearner { n_trees: 0, ..Default::default() };
        assert!(l.fit(&d).is_err());
    }

    #[test]
    fn single_class_training_predicts_that_class() {
        let d = Dataset::new(
            vec!["f".into()],
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![true, true, true],
        )
        .unwrap();
        let m = RandomForestLearner::default().fit(&d).unwrap();
        assert!(m.predict(&[7.0]));
    }
}
