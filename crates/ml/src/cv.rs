//! Cross-validation and matcher selection.
//!
//! Section 9 selects "the best (i.e., the most accurate) matcher using
//! five-fold cross validation", ranking six learners by mean F1;
//! [`select_matcher`] reproduces that procedure. Leave-one-out prediction
//! ([`leave_one_out_predictions`]) backs the Section 8 *label debugging*
//! step, which flags labeled pairs whose held-out prediction disagrees with
//! the expert label.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::metrics::Confusion;
use crate::model::{Learner, Model};
use crate::view::{spawn_floor, TrainView};
use em_parallel::Executor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Splits `0..n` into `k` near-equal shuffled folds.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<Vec<usize>>, MlError> {
    if k < 2 {
        return Err(MlError::BadParameter(format!("k-fold needs k >= 2, got {k}")));
    }
    if n < k {
        return Err(MlError::BadParameter(format!("{n} examples cannot fill {k} folds")));
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds = vec![Vec::with_capacity(n / k + 1); k];
    for (pos, i) in order.into_iter().enumerate() {
        folds[pos % k].push(i);
    }
    Ok(folds)
}

/// Stratified k-fold: positives and negatives are distributed separately so
/// every fold sees roughly the training positive rate — important when
/// matches are rare, as they are after blocking.
pub fn stratified_kfold_indices(
    y: &[bool],
    k: usize,
    seed: u64,
) -> Result<Vec<Vec<usize>>, MlError> {
    if k < 2 {
        return Err(MlError::BadParameter(format!("k-fold needs k >= 2, got {k}")));
    }
    let mut pos: Vec<usize> = (0..y.len()).filter(|&i| y[i]).collect();
    let mut neg: Vec<usize> = (0..y.len()).filter(|&i| !y[i]).collect();
    if pos.len() < k || neg.len() < k {
        // Not enough of one class to stratify; fall back to plain folding.
        return kfold_indices(y.len(), k, seed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut folds = vec![Vec::new(); k];
    for (p, i) in pos.into_iter().enumerate() {
        folds[p % k].push(i);
    }
    for (p, i) in neg.into_iter().enumerate() {
        folds[p % k].push(i);
    }
    Ok(folds)
}

/// Per-fold and averaged scores from one cross-validation run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Learner display name.
    pub learner: String,
    /// One confusion matrix per fold.
    pub folds: Vec<Confusion>,
}

impl CvResult {
    /// Mean precision over folds.
    pub fn precision(&self) -> f64 {
        mean(self.folds.iter().map(Confusion::precision))
    }
    /// Mean recall over folds.
    pub fn recall(&self) -> f64 {
        mean(self.folds.iter().map(Confusion::recall))
    }
    /// Mean F1 over folds — the selection criterion.
    pub fn f1(&self) -> f64 {
        mean(self.folds.iter().map(Confusion::f1))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Cross-validates every learner on the same stratified folds of one
/// shared [`TrainView`], in learner order.
///
/// The learner × fold grid is one executor call. Tasks run fold-major —
/// task `t` is learner `t % L` on fold `t / L` — so a worker's contiguous
/// share of the grid holds every learner about equally often, whatever the
/// learners cost. Each task is a pure function of its index (a fit on the
/// other folds' rows, in fold order, through the worker's scratch), so the
/// grid is bit-identical to the sequential double loop at any thread count;
/// errors surface in learner order, then fold order.
fn cv_grid(
    learners: &[&dyn Learner],
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<Vec<CvResult>, MlError> {
    let folds = stratified_kfold_indices(&data.y, k, seed)?;
    let view = TrainView::new(data)?;
    let n_learners = learners.len();
    let cells: Vec<Result<Confusion, MlError>> = Executor::current()
        .with_min_items(spawn_floor(data.len()))
        .map_indexed_with(
            n_learners * folds.len(),
            1,
            || (view.scratch(), Vec::with_capacity(data.len())),
            |(scratch, train), t| {
                let (fold, learner) = (t / n_learners, learners[t % n_learners]);
                train.clear();
                for (f, rows) in folds.iter().enumerate() {
                    if f != fold {
                        train.extend_from_slice(rows);
                    }
                }
                let model = learner.fit_rows(&view, train, scratch)?;
                let held_out = &folds[fold];
                let predicted: Vec<bool> =
                    held_out.iter().map(|&i| model.predict(&data.x[i])).collect();
                let actual: Vec<bool> = held_out.iter().map(|&i| data.y[i]).collect();
                Ok(Confusion::from_predictions(&predicted, &actual))
            },
        );
    learners
        .iter()
        .enumerate()
        .map(|(l, learner)| {
            let folds = (0..folds.len())
                .map(|fold| cells[fold * n_learners + l].clone())
                .collect::<Result<_, _>>()?;
            Ok(CvResult { learner: learner.name(), folds })
        })
        .collect()
}

/// Runs stratified k-fold cross-validation for one learner.
pub fn cross_validate(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<CvResult, MlError> {
    let mut rows = cv_grid(&[learner], data, k, seed)?;
    rows.pop().ok_or(MlError::EmptyTrainingSet)
}

/// Cross-validates every learner and ranks by mean F1 (descending,
/// name-tie-broken for determinism). The first entry is "the best matcher".
pub fn select_matcher(
    learners: &[&dyn Learner],
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Result<Vec<CvResult>, MlError> {
    let mut rows = cv_grid(learners, data, k, seed)?;
    rows.sort_by(|a, b| {
        b.f1()
            .partial_cmp(&a.f1())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.learner.cmp(&b.learner))
    });
    Ok(rows)
}

/// For every example, trains on all the others and predicts it — the
/// leave-one-out pass used to debug labels in Section 8.
///
/// `O(n)` model fits over one shared [`TrainView`]: a held-out row is a
/// hole in the row list, not a copy of the matrix without it.
pub fn leave_one_out_predictions(
    learner: &dyn Learner,
    data: &Dataset,
) -> Result<Vec<bool>, MlError> {
    let n = data.len();
    if n < 2 {
        return Err(MlError::BadParameter("leave-one-out needs >= 2 examples".to_string()));
    }
    let view = TrainView::new(data)?;
    // One independent fit per held-out example — the heaviest trivially
    // parallel loop in the crate — each on its worker's scratch.
    let out: Vec<Result<bool, MlError>> = Executor::current()
        .with_min_items(spawn_floor(n))
        .map_indexed_with(
            n,
            1,
            || (view.scratch(), Vec::with_capacity(n)),
            |(scratch, train), i| {
                train.clear();
                train.extend((0..n).filter(|&j| j != i));
                let model = learner.fit_rows(&view, train, scratch)?;
                Ok(model.predict(&data.x[i]))
            },
        );
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeLearner;

    fn dataset(n: usize) -> Dataset {
        // Separable: y = f0 > 0.5, with 30% positives.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let v = (i % 10) as f64 / 10.0;
            x.push(vec![v]);
            y.push(v > 0.65);
        }
        Dataset::new(vec!["f0".into()], x, y).unwrap()
    }

    #[test]
    fn kfold_partitions_everything_once() {
        let folds = kfold_indices(23, 5, 1).unwrap();
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
        for f in &folds {
            assert!(f.len() == 4 || f.len() == 5);
        }
    }

    #[test]
    fn kfold_rejects_bad_k() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(3, 5, 0).is_err());
    }

    #[test]
    fn stratified_folds_balance_positives() {
        let y: Vec<bool> = (0..100).map(|i| i % 5 == 0).collect(); // 20 positives
        let folds = stratified_kfold_indices(&y, 5, 3).unwrap();
        for f in &folds {
            let pos = f.iter().filter(|&&i| y[i]).count();
            assert_eq!(pos, 4, "each fold should hold 4 of the 20 positives");
        }
    }

    #[test]
    fn stratified_falls_back_when_class_too_small() {
        let y = vec![true, false, false, false, false, false];
        let folds = stratified_kfold_indices(&y, 3, 3).unwrap();
        let total: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn cross_validate_scores_separable_data_high() {
        let d = dataset(100);
        let cv = cross_validate(&DecisionTreeLearner::default(), &d, 5, 1).unwrap();
        assert_eq!(cv.folds.len(), 5);
        assert!(cv.f1() > 0.95, "f1 = {}", cv.f1());
    }

    #[test]
    fn select_matcher_ranks_by_f1() {
        let d = dataset(100);
        let dt = DecisionTreeLearner::default();
        let stump = DecisionTreeLearner { max_depth: 0, ..Default::default() };
        let ranked = select_matcher(&[&stump, &dt], &d, 5, 1).unwrap();
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].f1() >= ranked[1].f1());
        assert!(ranked[0].f1() > 0.9);
    }

    #[test]
    fn loo_flags_mislabeled_point() {
        // One deliberately wrong label in otherwise clean data.
        let mut d = dataset(60);
        let flip = d.y.iter().position(|&b| b).unwrap();
        d.y[flip] = false;
        let preds = leave_one_out_predictions(&DecisionTreeLearner::default(), &d).unwrap();
        assert!(preds[flip], "held-out prediction should disagree with the bad label");
        let mismatches = preds.iter().zip(&d.y).filter(|(p, a)| p != a).count();
        assert!(mismatches <= 5, "only a few mismatches expected, got {mismatches}");
    }

    #[test]
    fn loo_needs_two_examples() {
        let d = Dataset::new(vec!["f".into()], vec![vec![0.0]], vec![true]).unwrap();
        assert!(leave_one_out_predictions(&DecisionTreeLearner::default(), &d).is_err());
    }

    #[test]
    fn non_finite_value_is_reported_at_its_own_row() {
        let mut d = dataset(60);
        d.x[17][0] = f64::NAN;
        let want = MlError::NonFiniteFeature { row: 17, col: 0 };
        for learner in crate::standard_learners(3) {
            let name = learner.name();
            assert_eq!(cross_validate(learner.as_ref(), &d, 5, 1).unwrap_err(), want, "{name}");
            assert_eq!(leave_one_out_predictions(learner.as_ref(), &d).unwrap_err(), want, "{name}");
            // A fit that does not list the row never reads it.
            let view = TrainView::new(&d).unwrap();
            let rest: Vec<usize> = (0..60).filter(|&i| i != 17).collect();
            learner.fit_rows(&view, &rest, &mut view.scratch()).unwrap();
            assert_eq!(
                learner.fit_rows(&view, &[3, 17], &mut view.scratch()).unwrap_err(),
                want,
                "{name}"
            );
        }
        assert_eq!(
            crate::debug::mine_mismatches(&DecisionTreeLearner::default(), &d, 1).unwrap_err(),
            want
        );
    }

    #[test]
    fn grid_equals_one_learner_at_a_time() {
        let d = dataset(100);
        let learners = crate::standard_learners(5);
        let refs: Vec<&dyn Learner> = learners.iter().map(|l| l.as_ref()).collect();
        let grid = cv_grid(&refs, &d, 5, 2).unwrap();
        for (row, learner) in grid.iter().zip(&refs) {
            let alone = cross_validate(*learner, &d, 5, 2).unwrap();
            assert_eq!((&row.learner, &row.folds), (&alone.learner, &alone.folds));
        }
    }

    #[test]
    fn cv_deterministic_in_seed() {
        let d = dataset(80);
        let a = cross_validate(&DecisionTreeLearner::default(), &d, 4, 9).unwrap();
        let b = cross_validate(&DecisionTreeLearner::default(), &d, 4, 9).unwrap();
        assert_eq!(a.folds, b.folds);
    }
}
