//! Feature datasets: the matrix a matcher is trained on.
//!
//! A [`Dataset`] is a dense `f64` matrix plus boolean labels. Missing feature
//! values are `NaN` at construction time and must be imputed (PyMatcher
//! "filled in the missing values … with the mean values of the respective
//! columns" — [`Imputer`] reproduces exactly that, and is fitted on training
//! data so the same means are reused at prediction time).

use crate::error::MlError;

/// A labeled feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature names, one per column.
    pub feature_names: Vec<String>,
    /// Row-major feature matrix; `NaN` marks a missing value.
    pub x: Vec<Vec<f64>>,
    /// Binary labels (`true` = match).
    pub y: Vec<bool>,
}

impl Dataset {
    /// Builds a dataset, validating shapes.
    pub fn new(
        feature_names: Vec<String>,
        x: Vec<Vec<f64>>,
        y: Vec<bool>,
    ) -> Result<Dataset, MlError> {
        if x.len() != y.len() {
            return Err(MlError::ShapeMismatch(format!(
                "{} rows but {} labels",
                x.len(),
                y.len()
            )));
        }
        for (i, row) in x.iter().enumerate() {
            if row.len() != feature_names.len() {
                return Err(MlError::ShapeMismatch(format!(
                    "row {i} has {} features, expected {}",
                    row.len(),
                    feature_names.len()
                )));
            }
        }
        Ok(Dataset { feature_names, x, y })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of positive labels.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&b| b).count()
    }

    /// Verifies every value is finite (call after imputation, before fit).
    pub fn check_finite(&self) -> Result<(), MlError> {
        for (r, row) in self.x.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(MlError::NonFiniteFeature { row: r, col: c });
                }
            }
        }
        Ok(())
    }
}

/// Column-mean imputer fitted on training data.
///
/// Columns that are entirely missing in the fit data impute to `0.0` (an
/// arbitrary but deterministic constant — the model sees the same value at
/// train and predict time, so it carries no signal).
#[derive(Debug, Clone, PartialEq)]
pub struct Imputer {
    /// Per-column fill values.
    pub means: Vec<f64>,
}

impl Imputer {
    /// Learns per-column means over the finite values of `x`.
    pub fn fit(x: &[Vec<f64>], n_features: usize) -> Imputer {
        let mut sums = vec![0.0f64; n_features];
        let mut counts = vec![0usize; n_features];
        for row in x {
            for (c, v) in row.iter().enumerate() {
                if v.is_finite() {
                    sums[c] += v;
                    counts[c] += 1;
                }
            }
        }
        let means = sums
            .into_iter()
            .zip(counts)
            .map(|(s, n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect();
        Imputer { means }
    }

    /// What a model reads for value `v` of column `c`: `v` itself when it
    /// is finite, else the fitted mean.
    #[inline]
    pub fn impute(&self, c: usize, v: f64) -> f64 {
        if v.is_finite() {
            v
        } else {
            self.means[c]
        }
    }

    /// Replaces non-finite values in a single row with the fitted means.
    pub fn transform_row(&self, row: &mut [f64]) {
        for (c, v) in row.iter_mut().enumerate() {
            *v = self.impute(c, *v);
        }
    }

    /// Replaces non-finite values in a whole matrix.
    pub fn transform(&self, x: &mut [Vec<f64>]) {
        for row in x {
            self.transform_row(row);
        }
    }
}

/// Convenience: fit an imputer on the dataset and apply it in place,
/// returning the imputer for later use on unseen rows.
pub fn impute_mean(data: &mut Dataset) -> Imputer {
    let imputer = Imputer::fit(&data.x, data.n_features());
    imputer.transform(&mut data.x);
    imputer
}

/// Builds a training set from *probabilistic* labels (a weak-supervision
/// label model's posteriors): rows whose probability is at least `yes_min`
/// train as matches, rows at or below `no_max` as non-matches, and rows in
/// the uncertain band between are dropped — the probabilistic analogue of
/// excluding `Unsure` expert labels. Returns the dataset plus the indices
/// (into `x`/`probs`) of the rows kept, in order.
pub fn dataset_from_probabilistic(
    feature_names: Vec<String>,
    x: &[Vec<f64>],
    probs: &[f64],
    no_max: f64,
    yes_min: f64,
) -> Result<(Dataset, Vec<usize>), MlError> {
    if x.len() != probs.len() {
        return Err(MlError::ShapeMismatch(format!(
            "{} rows but {} probabilistic labels",
            x.len(),
            probs.len()
        )));
    }
    if !(0.0..=1.0).contains(&no_max) || !(0.0..=1.0).contains(&yes_min) || no_max >= yes_min {
        return Err(MlError::BadParameter(format!(
            "probabilistic thresholds need 0 <= no_max < yes_min <= 1, got ({no_max}, {yes_min})"
        )));
    }
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut kept = Vec::new();
    for (i, (row, &p)) in x.iter().zip(probs).enumerate() {
        let label = if p >= yes_min {
            true
        } else if p <= no_max {
            false
        } else {
            continue;
        };
        rows.push(row.clone());
        labels.push(label);
        kept.push(i);
    }
    Ok((Dataset::new(feature_names, rows, labels)?, kept))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i}")).collect()
    }

    #[test]
    fn new_validates_shapes() {
        assert!(Dataset::new(names(2), vec![vec![1.0]], vec![true]).is_err());
        assert!(Dataset::new(names(1), vec![vec![1.0]], vec![true, false]).is_err());
        assert!(Dataset::new(names(1), vec![vec![1.0]], vec![true]).is_ok());
    }

    #[test]
    fn imputer_fills_with_column_means() {
        let mut d = Dataset::new(
            names(2),
            vec![vec![1.0, f64::NAN], vec![3.0, 10.0], vec![f64::NAN, 20.0]],
            vec![true, false, true],
        )
        .unwrap();
        let imp = impute_mean(&mut d);
        assert_eq!(imp.means, vec![2.0, 15.0]);
        assert_eq!(d.x[0][1], 15.0);
        assert_eq!(d.x[2][0], 2.0);
        d.check_finite().unwrap();
    }

    #[test]
    fn imputer_applies_to_unseen_rows() {
        let imp = Imputer { means: vec![5.0, 6.0] };
        let mut row = vec![f64::NAN, 1.0];
        imp.transform_row(&mut row);
        assert_eq!(row, vec![5.0, 1.0]);
    }

    #[test]
    fn all_missing_column_imputes_zero() {
        let imp = Imputer::fit(&[vec![f64::NAN], vec![f64::NAN]], 1);
        assert_eq!(imp.means, vec![0.0]);
    }

    #[test]
    fn check_finite_reports_position() {
        let d = Dataset::new(names(2), vec![vec![1.0, f64::INFINITY]], vec![true]).unwrap();
        assert_eq!(
            d.check_finite(),
            Err(MlError::NonFiniteFeature { row: 0, col: 1 })
        );
    }

    #[test]
    fn probabilistic_labels_threshold_and_drop_the_uncertain_band() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let probs = [0.95, 0.5, 0.02, 0.9];
        let (d, kept) =
            dataset_from_probabilistic(names(1), &x, &probs, 0.1, 0.9).unwrap();
        assert_eq!(kept, vec![0, 2, 3]);
        assert_eq!(d.y, vec![true, false, true]);
        assert_eq!(d.x, vec![vec![1.0], vec![3.0], vec![4.0]]);
    }

    #[test]
    fn probabilistic_labels_validate_inputs() {
        let x = vec![vec![1.0]];
        assert!(dataset_from_probabilistic(names(1), &x, &[0.5, 0.5], 0.1, 0.9).is_err());
        assert!(dataset_from_probabilistic(names(1), &x, &[0.5], 0.9, 0.1).is_err());
        assert!(dataset_from_probabilistic(names(1), &x, &[0.5], 0.5, 0.5).is_err());
    }

    #[test]
    fn n_positive_counts() {
        let d =
            Dataset::new(names(1), vec![vec![0.0]; 3], vec![true, false, true]).unwrap();
        assert_eq!(d.n_positive(), 2);
    }
}
