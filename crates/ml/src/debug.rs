//! Matcher debugging: mismatch mining via the two-way split of Section 9.
//!
//! "We randomly split H into two sets I and J, trained the RF matcher on I,
//! then applied it to J and identified mismatches in J … then trained on J
//! and applied it to I." Each mismatch (held-out prediction ≠ given label)
//! is a lead: either the label is wrong, or the feature set cannot express
//! the distinction (the case study found the latter — missing
//! case-insensitive features).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::model::{Learner, Model};
use crate::view::TrainView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One disagreement between a held-out prediction and the given label.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Row index into the dataset.
    pub index: usize,
    /// What the model predicted.
    pub predicted: bool,
    /// What the label says.
    pub labeled: bool,
    /// The model's match probability for the row.
    pub proba: f64,
}

/// Splits the data in half, trains on each half, predicts the other, and
/// returns every mismatch, sorted by how confident the model was in its
/// disagreement (most confident first).
pub fn mine_mismatches(
    learner: &dyn Learner,
    data: &Dataset,
    seed: u64,
) -> Result<Vec<Mismatch>, MlError> {
    if data.len() < 4 {
        return Err(MlError::BadParameter(
            "mismatch mining needs at least 4 examples".to_string(),
        ));
    }
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let (first, second) = order.split_at(order.len() / 2);

    let view = TrainView::new(data)?;
    let mut scratch = view.scratch();
    let mut mismatches = Vec::new();
    for (train_idx, test_idx) in [(first, second), (second, first)] {
        let model = learner.fit_rows(&view, train_idx, &mut scratch)?;
        for &i in test_idx {
            let proba = model.predict_proba(&data.x[i]);
            let predicted = proba >= 0.5;
            if predicted != data.y[i] {
                mismatches.push(Mismatch { index: i, predicted, labeled: data.y[i], proba });
            }
        }
    }
    // Confidence of disagreement: distance of proba from 0.5.
    mismatches.sort_by(|a, b| {
        let ca = (a.proba - 0.5).abs();
        let cb = (b.proba - 0.5).abs();
        cb.partial_cmp(&ca)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.index.cmp(&b.index))
    });
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeLearner;

    fn clean_data(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let v = (i % 10) as f64 / 10.0;
            x.push(vec![v]);
            y.push(v > 0.55);
        }
        Dataset::new(vec!["f0".into()], x, y).unwrap()
    }

    #[test]
    fn clean_data_has_few_mismatches() {
        let d = clean_data(80);
        let m = mine_mismatches(&DecisionTreeLearner::default(), &d, 1).unwrap();
        assert!(m.len() <= 4, "{} mismatches on clean data", m.len());
    }

    #[test]
    fn flipped_label_is_mined() {
        let mut d = clean_data(80);
        let victim = d.y.iter().position(|&b| b).unwrap();
        d.y[victim] = false;
        let m = mine_mismatches(&DecisionTreeLearner::default(), &d, 1).unwrap();
        assert!(
            m.iter().any(|mm| mm.index == victim && mm.predicted && !mm.labeled),
            "flipped label not found in {m:?}"
        );
    }

    #[test]
    fn sorted_by_confidence() {
        let mut d = clean_data(80);
        for i in 0..4 {
            d.y[i * 13] = !d.y[i * 13];
        }
        let m = mine_mismatches(&DecisionTreeLearner::default(), &d, 2).unwrap();
        for w in m.windows(2) {
            assert!((w[0].proba - 0.5).abs() >= (w[1].proba - 0.5).abs() - 1e-12);
        }
    }

    #[test]
    fn needs_four_examples() {
        let d = Dataset::new(
            vec!["f".into()],
            vec![vec![0.0], vec![1.0]],
            vec![false, true],
        )
        .unwrap();
        assert!(mine_mismatches(&DecisionTreeLearner::default(), &d, 0).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let mut d = clean_data(60);
        d.y[7] = !d.y[7];
        let a = mine_mismatches(&DecisionTreeLearner::default(), &d, 5).unwrap();
        let b = mine_mismatches(&DecisionTreeLearner::default(), &d, 5).unwrap();
        assert_eq!(a, b);
    }
}
