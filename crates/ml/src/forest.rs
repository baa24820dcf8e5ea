//! Random forests: bagged CART trees with per-split feature subsetting —
//! the matcher that won the case study's first selection round before the
//! case-insensitive feature fix (Section 9). A fitted forest is its member
//! trees' arrays; [`RandomForestModel::score_with`] folds their walks.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::{Learner, Model};
use crate::tree::{load_sample, seeded_rng, DecisionTreeLearner, DecisionTreeModel};
use crate::view::{spawn_floor, TrainScratch, TrainView};
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

    /// Scores one row whose feature `k` is `feature(k)`: every tree's
    /// [`DecisionTreeModel::score_with`] walk in tree order, so `feature`
    /// is asked again for a feature two trees test — a source that pays
    /// per computation keeps what it returned. The accumulator starts at
    /// `0.0` and absorbs tree probabilities in tree order, then divides by
    /// the tree count once; an empty forest scores `0.0`.
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
}

impl Model for RandomForestModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        self.score_with(|k| row.get(k).copied().unwrap_or(0.0))
    }
}

/// A bagged ensemble of CART trees over a row list — what a forest and a
/// query-by-committee ensemble both are.
///
/// Member `t` owns the RNG stream [`tree_seed`]`(seed, t)` and consumes it
/// in a fixed order: one draw per resampled row, then one feature shuffle
/// per node that searches for a split, in pre-order. A member is therefore
/// a pure function of its index, and fitting members on several workers
/// gives the sequential result bit for bit.
pub(crate) struct Bagging<'a> {
    pub tree: &'a DecisionTreeLearner,
    pub mtry: Option<usize>,
    pub seed: u64,
    pub n_members: usize,
    /// Resample matches and non-matches separately, each onto itself.
    pub stratified: bool,
}

impl Bagging<'_> {
    /// Fits the members on `rows` of `view`: in member order on `scratch`
    /// when the caller — itself a worker of some outer loop — lends one,
    /// else fanned out over workers that each build their own.
    pub(crate) fn fit(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: Option<&mut TrainScratch>,
    ) -> Result<Vec<DecisionTreeModel>, MlError> {
        view.check_rows(rows)?;
        if self.n_members == 0 {
            return Err(MlError::BadParameter("an ensemble needs at least one member".to_string()));
        }
        let d = view.n_features();
        let mtry = self
            .mtry
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d.max(1));
        let labels = &view.data().y;
        let strata: Option<(Vec<usize>, Vec<usize>)> =
            self.stratified.then(|| rows.iter().partition(|&&r| labels[r]));
        let (first, second): (&[usize], &[usize]) = match &strata {
            Some((pos, neg)) => (pos, neg),
            None => (rows, &[]),
        };
        let member = |scratch: &mut TrainScratch, t: usize| {
            let mut rng = seeded_rng(tree_seed(self.seed, t));
            // One draw per listed row, each stratum resampled onto itself.
            let draws = (0..rows.len()).map(|k| {
                let stratum = if k < first.len() { first } else { second };
                stratum[rng.gen_range(0..stratum.len())]
            });
            let counts = load_sample(view, draws, scratch);
            self.tree.grow(view, counts, Some((mtry, &mut rng)), scratch)
        };
        Ok(match scratch {
            Some(scratch) => (0..self.n_members).map(|t| member(scratch, t)).collect(),
            None => Executor::current().with_min_items(spawn_floor(rows.len())).map_indexed_with(
                self.n_members,
                1,
                || view.scratch(),
                member,
            ),
        })
    }
}

impl RandomForestLearner {
    fn bagging(&self) -> Bagging<'_> {
        Bagging {
            tree: &self.tree,
            mtry: self.mtry,
            seed: self.seed,
            n_members: self.n_trees,
            stratified: false,
        }
    }

    /// Like [`Learner::fit_model`] but returns the concrete model, for
    /// callers that need [`RandomForestModel::feature_importance`]. Trees
    /// fit in parallel when the forest is large enough to pay for them.
    pub fn fit_forest(&self, data: &Dataset) -> Result<RandomForestModel, MlError> {
        let view = TrainView::new(data)?;
        Ok(RandomForestModel { trees: self.bagging().fit(&view, &view.all_rows(), None)? })
    }

    /// [`Learner::fit_rows`] returning the concrete model: every tree in
    /// turn on the caller's scratch.
    pub fn fit_forest_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<RandomForestModel, MlError> {
        Ok(RandomForestModel { trees: self.bagging().fit(view, rows, Some(scratch))? })
    }
}

impl Learner for RandomForestLearner {
    fn name(&self) -> String {
        "Random Forest".to_string()
    }

    fn fit_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<crate::fitted::FittedModel, MlError> {
        Ok(crate::fitted::FittedModel::Forest(self.fit_forest_rows(view, rows, scratch)?))
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
        let m = RandomForestLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[0.95, 0.5]));
        assert!(!m.predict(&[0.05, 0.5]));
    }

    #[test]
    fn forest_probability_is_mean_of_trees() {
        let d = noisy_threshold_data(100, 2);
        let m = RandomForestLearner { n_trees: 5, ..Default::default() }.fit_model(&d).unwrap();
        let p = m.predict_proba(&[0.9, 0.0]);
        assert!((0.0..=1.0).contains(&p));
        assert!(p > 0.5);
    }

    #[test]
    fn deterministic_in_seed() {
        let d = noisy_threshold_data(120, 3);
        let l = RandomForestLearner { seed: 42, ..Default::default() };
        let m1 = l.fit_model(&d).unwrap();
        let m2 = l.fit_model(&d).unwrap();
        for v in [0.1, 0.4, 0.6, 0.9] {
            assert_eq!(m1.predict_proba(&[v, 0.3]), m2.predict_proba(&[v, 0.3]));
        }
    }

    #[test]
    fn forest_is_thread_count_invariant() {
        let d = noisy_threshold_data(120, 5);
        let l = RandomForestLearner { seed: 11, ..Default::default() };
        em_parallel::set_threads(1);
        let m1 = l.fit_model(&d).unwrap();
        em_parallel::set_threads(4);
        let m4 = l.fit_model(&d).unwrap();
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
    fn score_with_matches_predict_proba_bitwise() {
        let d = noisy_threshold_data(200, 7);
        let m = RandomForestLearner { n_trees: 7, ..Default::default() }.fit_forest(&d).unwrap();
        // Random rows, plus NaN, short, long, and empty rows: every input
        // predict_proba accepts must score bit-identically through a
        // closure that reads a missing column as `0.0`.
        let mut rng = seeded_rng(99);
        let mut rows: Vec<Vec<f64>> = (0..64)
            .map(|_| vec![rng.gen_range(-1.0..2.0), rng.gen_range(-1.0..2.0)])
            .collect();
        rows.push(vec![f64::NAN, 0.3]);
        rows.push(vec![0.5, f64::NAN]);
        rows.push(vec![0.5]);
        rows.push(vec![0.5, 0.5, 9.0]);
        rows.push(vec![]);
        let fitted = crate::FittedModel::Forest(m.clone());
        for row in &rows {
            let want = m.predict_proba(row).to_bits();
            let read = |k: usize| row.get(k).copied().unwrap_or(0.0);
            assert_eq!(m.score_with(read).to_bits(), want);
            assert_eq!(fitted.score_with(&mut [], read).to_bits(), want);
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
        fitted.score_block(&block, stride, &mut out);
        for (r, got) in block.chunks_exact(stride).zip(&out) {
            assert_eq!(m.predict_proba(r).to_bits(), got.to_bits());
        }
        // Empty forest convention: score 0.0 either way.
        let empty = RandomForestModel::from_trees(Vec::new());
        assert_eq!(empty.predict_proba(&[0.5]).to_bits(), 0.0f64.to_bits());
        assert_eq!(empty.score_with(|_| 0.5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let d = noisy_threshold_data(120, 3);
        let m1 = RandomForestLearner { seed: 1, ..Default::default() }.fit_model(&d).unwrap();
        let m2 = RandomForestLearner { seed: 2, ..Default::default() }.fit_model(&d).unwrap();
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
        assert!(l.fit_model(&d).is_err());
    }

    #[test]
    fn single_class_training_predicts_that_class() {
        let d = Dataset::new(
            vec!["f".into()],
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![true, true, true],
        )
        .unwrap();
        let m = RandomForestLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[7.0]));
    }
}
