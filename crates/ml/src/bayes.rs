//! Gaussian naive Bayes — one of the six matchers in the Section 9 bake-off.
//!
//! Features are modeled as independent Gaussians per class, with the usual
//! variance smoothing (`var + ε·max_var`) so constant features do not
//! produce degenerate densities.

use crate::error::MlError;
use crate::model::{ConstantModel, Learner, Model};
use crate::view::{positive_rate, TrainScratch, TrainView};

/// Gaussian naive Bayes learner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveBayesLearner {
    /// Portion of the largest feature variance added to all variances
    /// (scikit-learn's `var_smoothing`).
    pub var_smoothing: f64,
}

impl Default for NaiveBayesLearner {
    fn default() -> Self {
        NaiveBayesLearner { var_smoothing: 1e-9 }
    }
}

/// Per-class Gaussian statistics of a fitted naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    pub(crate) log_prior: f64,
    pub(crate) means: Vec<f64>,
    pub(crate) vars: Vec<f64>,
}

/// A fitted Gaussian naive Bayes model. Exposed so
/// [`crate::fitted::FittedModel`] can carry and serialize it.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesModel {
    pub(crate) pos: ClassStats,
    pub(crate) neg: ClassStats,
}

impl ClassStats {
    fn log_likelihood(&self, row: &[f64]) -> f64 {
        let mut ll = self.log_prior;
        for ((v, m), var) in row.iter().zip(&self.means).zip(&self.vars) {
            ll += -0.5 * ((v - m).powi(2) / var + (2.0 * std::f64::consts::PI * var).ln());
        }
        ll
    }
}

impl Model for NaiveBayesModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let lp = self.pos.log_likelihood(row);
        let ln = self.neg.log_likelihood(row);
        // Normalize in log space: p = 1 / (1 + exp(ln - lp)).
        let diff = ln - lp;
        if diff > 500.0 {
            0.0
        } else if diff < -500.0 {
            1.0
        } else {
            1.0 / (1.0 + diff.exp())
        }
    }
}

fn class_stats(x: &[&[f64]], idx: &[usize], d: usize, prior: f64, smoothing: f64) -> ClassStats {
    let n = idx.len() as f64;
    let mut means = vec![0.0; d];
    for &i in idx {
        for (c, v) in x[i].iter().enumerate() {
            means[c] += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut vars = vec![0.0; d];
    for &i in idx {
        for (c, v) in x[i].iter().enumerate() {
            vars[c] += (v - means[c]).powi(2);
        }
    }
    for v in &mut vars {
        *v = *v / n + smoothing;
    }
    ClassStats { log_prior: prior.ln(), means, vars }
}

impl Learner for NaiveBayesLearner {
    fn name(&self) -> String {
        "Naive Bayes".to_string()
    }

    fn fit_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        _scratch: &mut TrainScratch,
    ) -> Result<crate::fitted::FittedModel, MlError> {
        use crate::fitted::FittedModel;
        let (x, y) = view.gather(rows)?;
        let pos_rate = positive_rate(&y);
        if pos_rate == 0.0 || pos_rate == 1.0 {
            return Ok(FittedModel::Constant(ConstantModel { proba: pos_rate }));
        }
        let d = view.n_features();
        let (pos_idx, neg_idx): (Vec<usize>, Vec<usize>) = (0..x.len()).partition(|&i| y[i]);
        // Global smoothing scale: var_smoothing * max feature variance.
        let all: Vec<usize> = (0..x.len()).collect();
        let global = class_stats(&x, &all, d, 1.0, 0.0);
        let max_var = global.vars.iter().cloned().fold(0.0f64, f64::max);
        let smoothing = (self.var_smoothing * max_var).max(1e-12);
        Ok(FittedModel::Bayes(NaiveBayesModel {
            pos: class_stats(&x, &pos_idx, d, pos_rate, smoothing),
            neg: class_stats(&x, &neg_idx, d, 1.0 - pos_rate, smoothing),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn gaussian_blobs() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        // Positives around 1.0, negatives around 0.0; deterministic lattice.
        for i in 0..20 {
            let jitter = (i as f64 - 10.0) / 100.0;
            x.push(vec![1.0 + jitter, 1.0 - jitter]);
            y.push(true);
            x.push(vec![jitter, -jitter]);
            y.push(false);
        }
        Dataset::new(vec!["a".into(), "b".into()], x, y).unwrap()
    }

    #[test]
    fn separates_blobs() {
        let m = NaiveBayesLearner::default().fit_model(&gaussian_blobs()).unwrap();
        assert!(m.predict(&[1.0, 1.0]));
        assert!(!m.predict(&[0.0, 0.0]));
    }

    #[test]
    fn probabilities_in_unit_interval_even_far_away() {
        let m = NaiveBayesLearner::default().fit_model(&gaussian_blobs()).unwrap();
        for p in [
            m.predict_proba(&[1e6, 1e6]),
            m.predict_proba(&[-1e6, -1e6]),
            m.predict_proba(&[0.5, 0.5]),
        ] {
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn constant_feature_tolerated() {
        let d = Dataset::new(
            vec!["const".into(), "sig".into()],
            vec![vec![2.0, 0.0], vec![2.0, 1.0], vec![2.0, 0.1], vec![2.0, 0.9]],
            vec![false, true, false, true],
        )
        .unwrap();
        let m = NaiveBayesLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[2.0, 0.95]));
        assert!(!m.predict(&[2.0, 0.05]));
    }

    #[test]
    fn respects_priors_when_likelihoods_tie() {
        // 3:1 positives; a point equidistant from both class means should
        // lean positive.
        let d = Dataset::new(
            vec!["f".into()],
            vec![vec![1.0], vec![1.2], vec![0.8], vec![0.0]],
            vec![true, true, true, false],
        )
        .unwrap();
        let m = NaiveBayesLearner::default().fit_model(&d).unwrap();
        assert!(m.predict_proba(&[0.5]) > 0.5);
    }

    #[test]
    fn single_class_degenerates() {
        let d = Dataset::new(vec!["f".into()], vec![vec![1.0], vec![2.0]], vec![false, false])
            .unwrap();
        let m = NaiveBayesLearner::default().fit_model(&d).unwrap();
        assert!(!m.predict(&[1.5]));
    }
}
