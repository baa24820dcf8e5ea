//! Linear models: logistic regression, linear regression, and a linear SVM
//! (Pegasos). Three of the six matchers PyMatcher offers in the Section 9
//! bake-off.
//!
//! All three standardize features internally (z-score on training
//! statistics) so learning rates and regularization behave uniformly across
//! feature scales; the fitted standardizer travels with the model.

use crate::error::MlError;
use crate::model::{ConstantModel, Learner, Model};
use crate::view::{positive_rate, TrainScratch, TrainView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-column z-score standardizer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Standardizer {
    pub(crate) means: Vec<f64>,
    pub(crate) stds: Vec<f64>,
}

impl Standardizer {
    pub(crate) fn fit(x: &[&[f64]], n_features: usize) -> Standardizer {
        let n = x.len().max(1) as f64;
        let mut means = vec![0.0; n_features];
        for row in x {
            for (c, v) in row.iter().enumerate() {
                means[c] += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; n_features];
        for row in x {
            for (c, v) in row.iter().enumerate() {
                vars[c] += (v - means[c]).powi(2);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0 // constant column: leave centred values at 0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    pub(crate) fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(c, v)| (v - self.means.get(c).copied().unwrap_or(0.0)) / self.stds.get(c).copied().unwrap_or(1.0))
            .collect()
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A fitted linear scorer: `proba = link(w · z(x) + b)`. Fitted by all
/// three linear learners (logistic / linear regression / SVM); exposed so
/// [`crate::fitted::FittedModel`] can carry and serialize it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    pub(crate) standardizer: Standardizer,
    pub(crate) weights: Vec<f64>,
    pub(crate) bias: f64,
    /// `true` → sigmoid link; `false` → clamp to `[0, 1]` (linear regression).
    pub(crate) sigmoid_link: bool,
}

impl Model for LinearModel {
    fn predict_proba(&self, row: &[f64]) -> f64 {
        let z = self.standardizer.transform_row(row);
        let score: f64 =
            self.weights.iter().zip(&z).map(|(w, v)| w * v).sum::<f64>() + self.bias;
        if self.sigmoid_link {
            sigmoid(score)
        } else {
            score.clamp(0.0, 1.0)
        }
    }
}

/// Logistic regression trained by full-batch gradient descent with L2
/// regularization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegressionLearner {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty strength (applied to weights, not the bias).
    pub l2: f64,
}

impl Default for LogisticRegressionLearner {
    fn default() -> Self {
        LogisticRegressionLearner { iterations: 400, learning_rate: 0.5, l2: 1e-3 }
    }
}

impl Learner for LogisticRegressionLearner {
    fn name(&self) -> String {
        "Logistic Regression".to_string()
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
        let standardizer = Standardizer::fit(&x, d);
        let z: Vec<Vec<f64>> = x.iter().map(|r| standardizer.transform_row(r)).collect();
        let n = z.len() as f64;
        let mut weights = vec![0.0f64; d];
        let mut bias = 0.0f64;
        for _ in 0..self.iterations {
            let mut gw = vec![0.0f64; d];
            let mut gb = 0.0f64;
            for (row, &label) in z.iter().zip(&y) {
                let p = sigmoid(
                    weights.iter().zip(row).map(|(w, v)| w * v).sum::<f64>() + bias,
                );
                let err = p - f64::from(label);
                for (g, v) in gw.iter_mut().zip(row) {
                    *g += err * v;
                }
                gb += err;
            }
            for (w, g) in weights.iter_mut().zip(&gw) {
                *w -= self.learning_rate * (g / n + self.l2 * *w);
            }
            bias -= self.learning_rate * gb / n;
        }
        Ok(FittedModel::Linear(LinearModel { standardizer, weights, bias, sigmoid_link: true }))
    }
}

/// Ordinary least squares on 0/1 targets (ridge-stabilized), thresholded at
/// 0.5 — scikit-learn's `LinearRegression` used as a matcher, as the paper's
/// bake-off does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegressionLearner {
    /// Small ridge term for numerical stability of the normal equations.
    pub ridge: f64,
}

impl Default for LinearRegressionLearner {
    fn default() -> Self {
        LinearRegressionLearner { ridge: 1e-6 }
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// `A` is consumed. Returns `None` for (numerically) singular systems.
#[allow(clippy::needless_range_loop)] // pivoting logic is index-based by nature
pub(crate) fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot: largest |a[row][col]| among remaining rows.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for col in row + 1..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

impl Learner for LinearRegressionLearner {
    fn name(&self) -> String {
        "Linear Regression".to_string()
    }

    #[allow(clippy::needless_range_loop)] // symmetric-matrix assembly is index-based
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
        let standardizer = Standardizer::fit(&x, d);
        let z: Vec<Vec<f64>> = x.iter().map(|r| standardizer.transform_row(r)).collect();
        // Augmented design: [z | 1] → solve (XᵀX + λI) w = Xᵀ y.
        let dim = d + 1;
        let mut xtx = vec![vec![0.0f64; dim]; dim];
        let mut xty = vec![0.0f64; dim];
        for (row, &label) in z.iter().zip(&y) {
            let y = f64::from(label);
            for i in 0..dim {
                let xi = if i < d { row[i] } else { 1.0 };
                xty[i] += xi * y;
                for j in i..dim {
                    let xj = if j < d { row[j] } else { 1.0 };
                    xtx[i][j] += xi * xj;
                }
            }
        }
        for i in 0..dim {
            for j in 0..i {
                xtx[i][j] = xtx[j][i];
            }
            xtx[i][i] += self.ridge.max(1e-12);
        }
        let w = solve_linear_system(xtx, xty)
            .ok_or_else(|| MlError::BadParameter("singular normal equations".to_string()))?;
        let (weights, bias) = (w[..d].to_vec(), w[d]);
        Ok(FittedModel::Linear(LinearModel { standardizer, weights, bias, sigmoid_link: false }))
    }
}

/// Linear SVM trained with the Pegasos stochastic sub-gradient method.
/// Probabilities are a sigmoid of the (unnormalized) margin, which is enough
/// for 0.5-threshold decisions and ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSvmLearner {
    /// Passes over the data.
    pub epochs: usize,
    /// Regularization parameter λ of the Pegasos objective.
    pub lambda: f64,
    /// RNG seed for example shuffling.
    pub seed: u64,
}

impl Default for LinearSvmLearner {
    fn default() -> Self {
        LinearSvmLearner { epochs: 40, lambda: 1e-3, seed: 11 }
    }
}

impl Learner for LinearSvmLearner {
    fn name(&self) -> String {
        "SVM".to_string()
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
        let standardizer = Standardizer::fit(&x, d);
        let z: Vec<Vec<f64>> = x.iter().map(|r| standardizer.transform_row(r)).collect();
        let labels: Vec<f64> = y.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..z.len()).collect();
        let mut weights = vec![0.0f64; d];
        let mut bias = 0.0f64;
        let mut t = 0usize;
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (self.lambda * t as f64);
                let margin = labels[i]
                    * (weights.iter().zip(&z[i]).map(|(w, v)| w * v).sum::<f64>() + bias);
                // Regularization shrink.
                let shrink = 1.0 - eta * self.lambda;
                for w in &mut weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    for (w, v) in weights.iter_mut().zip(&z[i]) {
                        *w += eta * labels[i] * v;
                    }
                    bias += eta * labels[i];
                }
            }
        }
        Ok(FittedModel::Linear(LinearModel { standardizer, weights, bias, sigmoid_link: true }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn linearly_separable(n: usize) -> Dataset {
        // matches cluster near (1, 1); non-matches near (0, 0)
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64;
            x.push(vec![1.0 - 0.2 * t, 0.9 + 0.1 * t]);
            y.push(true);
            x.push(vec![0.1 * t, 0.2 * t]);
            y.push(false);
        }
        Dataset::new(vec!["a".into(), "b".into()], x, y).unwrap()
    }

    #[test]
    fn logistic_separates() {
        let d = linearly_separable(30);
        let m = LogisticRegressionLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[1.0, 1.0]));
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(m.predict_proba(&[1.0, 1.0]) > 0.9);
    }

    #[test]
    fn linear_regression_separates() {
        let d = linearly_separable(30);
        let m = LinearRegressionLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[1.0, 1.0]));
        assert!(!m.predict(&[0.0, 0.0]));
        let p = m.predict_proba(&[100.0, 100.0]);
        assert!((0.0..=1.0).contains(&p)); // clamped link
    }

    #[test]
    fn svm_separates() {
        let d = linearly_separable(30);
        let m = LinearSvmLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[1.0, 1.0]));
        assert!(!m.predict(&[0.0, 0.0]));
    }

    #[test]
    fn single_class_degenerates_to_constant() {
        let d = Dataset::new(
            vec!["f".into()],
            vec![vec![0.0], vec![1.0]],
            vec![true, true],
        )
        .unwrap();
        for learner in [
            Box::new(LogisticRegressionLearner::default()) as Box<dyn Learner>,
            Box::new(LinearRegressionLearner::default()),
            Box::new(LinearSvmLearner::default()),
        ] {
            let m = learner.fit_model(&d).unwrap();
            assert!(m.predict(&[9.9]), "{} failed", learner.name());
        }
    }

    #[test]
    fn constant_feature_does_not_blow_up() {
        let d = Dataset::new(
            vec!["const".into(), "signal".into()],
            vec![vec![3.0, 0.0], vec![3.0, 1.0], vec![3.0, 0.1], vec![3.0, 0.9]],
            vec![false, true, false, true],
        )
        .unwrap();
        let m = LogisticRegressionLearner::default().fit_model(&d).unwrap();
        assert!(m.predict(&[3.0, 1.0]));
        assert!(!m.predict(&[3.0, 0.0]));
    }

    #[test]
    fn solve_linear_system_known() {
        // 2x + y = 5 ; x - y = 1  →  x = 2, y = 1
        let sol =
            solve_linear_system(vec![vec![2.0, 1.0], vec![1.0, -1.0]], vec![5.0, 1.0]).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-9);
        assert!((sol[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_detects_singularity() {
        let r = solve_linear_system(vec![vec![1.0, 2.0], vec![2.0, 4.0]], vec![1.0, 2.0]);
        assert!(r.is_none());
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn svm_deterministic_in_seed() {
        let d = linearly_separable(20);
        let m1 = LinearSvmLearner { seed: 5, ..Default::default() }.fit_model(&d).unwrap();
        let m2 = LinearSvmLearner { seed: 5, ..Default::default() }.fit_model(&d).unwrap();
        assert_eq!(m1.predict_proba(&[0.5, 0.5]), m2.predict_proba(&[0.5, 0.5]));
    }
}
