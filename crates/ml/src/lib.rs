//! # em-ml — learning-based matchers, cross-validation, and debugging
//!
//! Hand-rolled equivalents of the scikit-learn classifiers PyMatcher wraps,
//! behind a single [`Learner`]/[`Model`] interface:
//!
//! | Paper matcher | Here |
//! |---|---|
//! | decision tree | [`tree::DecisionTreeLearner`] (CART, Gini) |
//! | random forest | [`forest::RandomForestLearner`] (bagging + √d features) |
//! | logistic regression | [`linear::LogisticRegressionLearner`] |
//! | linear regression | [`linear::LinearRegressionLearner`] |
//! | SVM | [`linear::LinearSvmLearner`] (Pegasos) |
//! | naive Bayes | [`bayes::NaiveBayesLearner`] (Gaussian) |
//!
//! Plus the surrounding machinery the case study leans on: mean imputation
//! ([`dataset::Imputer`]), five-fold matcher selection
//! ([`cv::select_matcher`]), leave-one-out label debugging
//! ([`cv::leave_one_out_predictions`]), and split-half mismatch mining
//! ([`debug::mine_mismatches`]).
//!
//! Everything that trains — a tree, a forest's or a committee's members, a
//! CV fold, a held-out fit — reads one [`view::TrainView`] of its dataset
//! (column-major values and per-column dense ranks, built once) through
//! [`Learner::fit_rows`]: a training set is a list of rows of the view,
//! never a copy of them.
//!
//! ```
//! use em_ml::dataset::Dataset;
//! use em_ml::model::{Learner, Model};
//! use em_ml::tree::DecisionTreeLearner;
//!
//! let data = Dataset::new(
//!     vec!["title_jaccard".into()],
//!     vec![vec![0.9], vec![0.1], vec![0.8], vec![0.2]],
//!     vec![true, false, true, false],
//! ).unwrap();
//! let model = DecisionTreeLearner::default().fit_model(&data).unwrap();
//! assert!(model.predict(&[0.95]));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bayes;
pub mod committee;
pub mod cv;
pub mod dataset;
pub mod debug;
pub mod error;
pub mod fitted;
pub mod forest;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod tree;
pub mod view;

pub use committee::{CommitteeLearner, CommitteeModel, CommitteeScore};
pub use dataset::{dataset_from_probabilistic, impute_mean, Dataset, Imputer};
pub use error::MlError;
pub use fitted::FittedModel;
pub use metrics::Confusion;
pub use model::{Learner, Model};
pub use view::{TrainScratch, TrainView};

/// The six matchers of the Section 9 bake-off, with default
/// hyper-parameters, in the order the paper lists them.
pub fn standard_learners(seed: u64) -> Vec<Box<dyn Learner>> {
    vec![
        Box::new(tree::DecisionTreeLearner::default()),
        Box::new(linear::LinearSvmLearner { seed, ..Default::default() }),
        Box::new(forest::RandomForestLearner { seed, ..Default::default() }),
        Box::new(linear::LogisticRegressionLearner::default()),
        Box::new(bayes::NaiveBayesLearner::default()),
        Box::new(linear::LinearRegressionLearner::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_learners_has_all_six() {
        let ls = standard_learners(1);
        let names: Vec<String> = ls.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            vec![
                "Decision Tree",
                "SVM",
                "Random Forest",
                "Logistic Regression",
                "Naive Bayes",
                "Linear Regression"
            ]
        );
    }

    #[test]
    fn all_six_fit_and_predict() {
        let data = Dataset::new(
            vec!["a".into(), "b".into()],
            (0..40)
                .map(|i| vec![(i % 10) as f64 / 10.0, ((i * 3) % 7) as f64])
                .collect(),
            (0..40).map(|i| (i % 10) as f64 / 10.0 > 0.5).collect(),
        )
        .unwrap();
        for l in standard_learners(3) {
            let m = l.fit_model(&data).unwrap();
            assert!(m.predict(&[0.9, 1.0]), "{} failed high", l.name());
            assert!(!m.predict(&[0.0, 1.0]), "{} failed low", l.name());
        }
    }
}
