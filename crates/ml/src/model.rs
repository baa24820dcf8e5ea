//! The learner/model abstraction shared by all matchers.
//!
//! PyMatcher wraps six scikit-learn classifiers behind one interface; this
//! module is the Rust equivalent. A [`Learner`] is a (hyper-)parameterized
//! algorithm; [`Learner::fit_rows`] produces an immutable [`Model`] that
//! scores feature rows. Keeping learners stateless makes cross-validation
//! trivial: the same learner is fitted independently per fold, each fold a
//! row list over one shared [`TrainView`].

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::fitted::FittedModel;
use crate::view::{TrainScratch, TrainView};

/// A trained binary classifier.
pub trait Model: Send + Sync {
    /// Probability (or score calibrated into `[0, 1]`) that `row` is a
    /// match. Rows must be finite (impute first).
    fn predict_proba(&self, row: &[f64]) -> f64;

    /// Hard decision at the 0.5 threshold.
    fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }
}

/// A fittable learning algorithm.
pub trait Learner: Send + Sync {
    /// Short display name ("Decision Tree", "RF", …).
    fn name(&self) -> String;

    /// Fits a model on the rows of `view` that `rows` lists — each as many
    /// times as it is listed, in list order where order matters — writing
    /// only into `scratch`. This is the one way anything in the crate
    /// trains: a fit on a whole dataset lists every row once, a CV fold
    /// lists the other folds, a leave-one-out fit lists all rows but one.
    /// Returns the concrete, serializable [`FittedModel`]; fails with
    /// [`MlError::NonFiniteFeature`] naming the dataset's own row if a
    /// listed row holds a non-finite value (rows not listed may).
    fn fit_rows(
        &self,
        view: &TrainView<'_>,
        rows: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<FittedModel, MlError>;

    /// [`Learner::fit_rows`] on every row of `data`, for callers that fit
    /// once: builds the view and the scratch it needs.
    fn fit_model(&self, data: &Dataset) -> Result<FittedModel, MlError> {
        let view = TrainView::new(data)?;
        self.fit_rows(&view, &view.all_rows(), &mut view.scratch())
    }
}

/// A constant-probability model; useful as a baseline and for degenerate
/// single-class training sets.
#[derive(Debug, Clone, Copy)]
pub struct ConstantModel {
    /// The probability returned for every row.
    pub proba: f64,
}

impl Model for ConstantModel {
    fn predict_proba(&self, _row: &[f64]) -> f64 {
        self.proba
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_predicts() {
        let m = ConstantModel { proba: 0.7 };
        assert!(m.predict(&[1.0, 2.0]));
        assert_eq!(m.predict_proba(&[]), 0.7);
        assert!(!ConstantModel { proba: 0.3 }.predict(&[]));
    }
}
