//! Query-by-committee scoring for active learning.
//!
//! A committee is a small ensemble of bagged CART trees — the same
//! per-member machinery as [`crate::forest`], with each member's RNG
//! stream derived independently from the committee seed — that exposes
//! *per-member* votes instead of collapsing them into one probability.
//! Active-learning loops (Meduri et al.'s query-by-committee / margin
//! strategies) rank the unlabeled pool by how much the members disagree:
//!
//! - **vote entropy**: binary entropy of the fraction of members voting
//!   match — maximal when the committee splits evenly;
//! - **margin**: distance of the mean member probability from the 0.5
//!   decision boundary — minimal where the ensemble is least committed.
//!
//! Members fit in parallel over [`em_parallel::Executor`] with results
//! bit-identical to the sequential order at any thread count, so the
//! selection order (and therefore every downstream label) is deterministic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::forest::Bagging;
use crate::model::Model;
use crate::tree::{DecisionTreeLearner, DecisionTreeModel};
use crate::view::TrainView;
use em_parallel::Executor;

/// Hyper-parameters of a query-by-committee ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitteeLearner {
    /// Number of committee members (odd counts avoid exact vote ties).
    pub n_members: usize,
    /// Per-member tree parameters.
    pub tree: DecisionTreeLearner,
    /// Features considered per split; `None` → `ceil(sqrt(d))`.
    pub mtry: Option<usize>,
    /// Seed; each member derives an independent stream from it.
    pub seed: u64,
    /// Stratified bootstrap: resample positives and negatives separately so
    /// every member sees the training class balance. With very few positive
    /// labels (the early rounds of an active-learning loop) a plain
    /// bootstrap regularly drops *every* positive from a member's sample,
    /// making the ensemble wildly unstable round to round.
    pub stratified: bool,
}

impl Default for CommitteeLearner {
    fn default() -> Self {
        CommitteeLearner {
            n_members: 7,
            tree: DecisionTreeLearner::default(),
            mtry: None,
            seed: 7,
            stratified: false,
        }
    }
}

/// How unsure the committee is about one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitteeScore {
    /// Members voting match.
    pub votes_yes: usize,
    /// Binary vote entropy in nats (0 = unanimous, `ln 2` = even split).
    pub vote_entropy: f64,
    /// `|mean member probability − 0.5|`: small = near the boundary.
    pub margin: f64,
    /// Mean member probability.
    pub mean_proba: f64,
}

/// A fitted committee.
#[derive(Debug, Clone)]
pub struct CommitteeModel {
    /// The members, in member order.
    pub members: Vec<DecisionTreeModel>,
}

/// `−(p ln p + (1−p) ln(1−p))` with the `0 ln 0 = 0` convention.
fn binary_entropy(p: f64) -> f64 {
    let mut h = 0.0;
    for q in [p, 1.0 - p] {
        if q > 0.0 {
            h -= q * q.ln();
        }
    }
    h
}

impl CommitteeModel {
    /// Mean member probability — the committee's point prediction.
    pub fn mean_proba(&self, row: &[f64]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.members.iter().map(|m| m.predict_proba(row)).sum();
        sum / self.members.len() as f64
    }

    /// The disagreement scores of one row.
    pub fn score(&self, row: &[f64]) -> CommitteeScore {
        let mut votes_yes = 0usize;
        let mut sum = 0.0f64;
        for m in &self.members {
            let p = m.predict_proba(row);
            sum += p;
            if p > 0.5 {
                votes_yes += 1;
            }
        }
        let k = self.members.len().max(1) as f64;
        let mean = sum / k;
        CommitteeScore {
            votes_yes,
            vote_entropy: binary_entropy(votes_yes as f64 / k),
            margin: (mean - 0.5).abs(),
            mean_proba: mean,
        }
    }

    /// Scores every row of a pool in parallel, in pool order, bit-identical
    /// at any thread count.
    pub fn score_pool(&self, pool: &[Vec<f64>]) -> Vec<CommitteeScore> {
        Executor::current().map_slice(pool, 64, |row| self.score(row))
    }
}

impl CommitteeLearner {
    /// Fits the committee: each member trains a CART tree on its own
    /// bootstrap sample with its own derived RNG stream — a pure function
    /// of `(seed, member index)`, so the parallel fan-out reproduces the
    /// sequential fit bit for bit.
    pub fn fit(&self, data: &Dataset) -> Result<CommitteeModel, MlError> {
        let view = TrainView::new(data)?;
        let bagging = Bagging {
            tree: &self.tree,
            mtry: self.mtry,
            seed: self.seed,
            n_members: self.n_members,
            stratified: self.stratified,
        };
        Ok(CommitteeModel { members: bagging.fit(&view, &view.all_rows(), None)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::seeded_rng;
    use rand::Rng;

    fn threshold_data(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded_rng(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let v: f64 = rng.gen();
            let noise: f64 = rng.gen_range(-0.05..0.05);
            x.push(vec![v, rng.gen()]);
            y.push(v + noise > 0.5);
        }
        Dataset::new(vec!["signal".into(), "junk".into()], x, y).unwrap()
    }

    #[test]
    fn committee_agrees_on_easy_rows_and_splits_near_boundary() {
        let d = threshold_data(300, 1);
        let m = CommitteeLearner::default().fit(&d).unwrap();
        let easy_yes = m.score(&[0.95, 0.5]);
        let easy_no = m.score(&[0.05, 0.5]);
        assert_eq!(easy_yes.votes_yes, m.members.len());
        assert_eq!(easy_no.votes_yes, 0);
        assert_eq!(easy_yes.vote_entropy, 0.0);
        let hard = m.score(&[0.5, 0.5]);
        assert!(
            hard.vote_entropy >= easy_yes.vote_entropy && hard.margin <= easy_yes.margin,
            "boundary rows must score at least as uncertain: {hard:?} vs {easy_yes:?}"
        );
    }

    #[test]
    fn committee_is_deterministic_and_thread_invariant() {
        let d = threshold_data(150, 3);
        let learner = CommitteeLearner { seed: 42, ..Default::default() };
        em_parallel::set_threads(1);
        let m1 = learner.fit(&d).unwrap();
        em_parallel::set_threads(4);
        let m4 = learner.fit(&d).unwrap();
        em_parallel::set_threads(0);
        let pool: Vec<Vec<f64>> =
            (0..=20).map(|i| vec![i as f64 / 20.0, 0.3]).collect();
        let s1 = m1.score_pool(&pool);
        let s4 = m4.score_pool(&pool);
        for (a, b) in s1.iter().zip(&s4) {
            assert_eq!(a.votes_yes, b.votes_yes);
            assert_eq!(a.vote_entropy.to_bits(), b.vote_entropy.to_bits());
            assert_eq!(a.margin.to_bits(), b.margin.to_bits());
            assert_eq!(a.mean_proba.to_bits(), b.mean_proba.to_bits());
        }
    }

    #[test]
    fn members_differ_somewhere() {
        let d = threshold_data(150, 5);
        let m = CommitteeLearner::default().fit(&d).unwrap();
        let differs = (0..100).any(|i| {
            let row = [i as f64 / 100.0, 0.5];
            let probas: Vec<f64> = m.members.iter().map(|t| t.predict_proba(&row)).collect();
            probas.iter().any(|p| (p - probas[0]).abs() > 1e-12)
        });
        assert!(differs, "bootstrap members should not all be identical");
    }

    #[test]
    fn entropy_convention() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 2f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn stratified_members_always_see_both_classes() {
        // 3 positives in 60 rows: a plain bootstrap drops all three from
        // some member's sample; the stratified one never does, so every
        // member must produce a nontrivial probability for a clear positive.
        let mut x: Vec<Vec<f64>> = (0..57).map(|i| vec![0.1 + (i % 10) as f64 * 0.02]).collect();
        let mut y = vec![false; 57];
        x.extend((0..3).map(|i| vec![0.9 + i as f64 * 0.01]));
        y.extend([true; 3]);
        let d = Dataset::new(vec!["f".into()], x, y).unwrap();
        let learner = CommitteeLearner { stratified: true, seed: 11, ..Default::default() };
        let m = learner.fit(&d).unwrap();
        for (t, p) in m.members.iter().map(|t| t.predict_proba(&[0.95])).enumerate() {
            assert!(p > 0.5, "stratified member {t} lost the positive class: proba {p}");
        }
        // Deterministic in the seed, like the plain bootstrap.
        let m2 = learner.fit(&d).unwrap();
        for i in 0..20 {
            let row = [i as f64 / 20.0];
            assert_eq!(m.mean_proba(&row).to_bits(), m2.mean_proba(&row).to_bits());
        }
    }

    #[test]
    fn zero_members_is_an_error() {
        let d = threshold_data(20, 4);
        let l = CommitteeLearner { n_members: 0, ..Default::default() };
        assert!(l.fit(&d).is_err());
    }
}
