//! # em-estimate — labels and Corleone-style accuracy estimation
//!
//! Section 11 of the case study estimates matcher precision and recall
//! without exhaustive ground truth, following the Corleone approach \[13\]:
//! take a random sample of the consolidated candidate set, have the domain
//! experts label it (`Yes` / `No` / `Unsure`), and estimate
//!
//! - **precision** from the labeled sample pairs the matcher *predicted*
//!   (what fraction are labeled `Yes`), and
//! - **recall** from the labeled sample pairs that *are* matches (what
//!   fraction the matcher predicted),
//!
//! each with a normal-approximation binomial confidence interval. `Unsure`
//! labels are ignored (paper, footnote 10: "The estimation procedure ignores
//! the 'Unsure' pairs"). Growing the sample (200 → 400 labels in the paper)
//! shrinks the intervals — [`AccuracyEstimate`] preserves that behaviour.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::fmt;

/// A domain-expert label for a record pair.
///
/// `Unsure` exists because "even domain experts had troubles labeling
/// certain pairs, due to dirty, incomplete, or cryptic data" (Section 8);
/// unsure pairs are excluded from training and evaluation alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The pair is a match.
    Yes,
    /// The pair is a non-match.
    No,
    /// The expert cannot tell.
    Unsure,
}

impl Label {
    /// `Some(true/false)` for Yes/No, `None` for Unsure.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Label::Yes => Some(true),
            Label::No => Some(false),
            Label::Unsure => None,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Label::Yes => "Yes",
            Label::No => "No",
            Label::Unsure => "Unsure",
        };
        write!(f, "{s}")
    }
}

/// A closed interval, clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Builds an interval, clamping to `[0, 1]` and ordering the endpoints.
    pub fn new(lo: f64, hi: f64) -> Interval {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        Interval { lo: lo.min(hi), hi: lo.max(hi) }
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint (the point estimate).
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// True when `v` lies inside (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}%, {:.1}%)", 100.0 * self.lo, 100.0 * self.hi)
    }
}

/// One labeled sample pair, as the estimator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleItem {
    /// Whether the matcher under evaluation predicted the pair a match.
    pub predicted: bool,
    /// The expert label.
    pub label: Label,
}

/// Estimated precision and recall with confidence intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyEstimate {
    /// Precision interval.
    pub precision: Interval,
    /// Recall interval.
    pub recall: Interval,
    /// Labeled (non-unsure) sample pairs used.
    pub n_used: usize,
    /// Sample pairs the matcher predicted positive.
    pub n_predicted: usize,
    /// Sample pairs labeled `Yes`.
    pub n_actual: usize,
    /// Sample pairs ignored as `Unsure`.
    pub n_unsure: usize,
}

/// Normal-approximation binomial interval for `successes / trials` at
/// critical value `z`. Zero trials yields the vacuous full interval —
/// nothing was observed, so nothing is constrained.
fn binomial_interval(successes: usize, trials: usize, z: f64) -> Interval {
    if trials == 0 {
        return Interval::new(0.0, 1.0);
    }
    let p = successes as f64 / trials as f64;
    let half = z * (p * (1.0 - p) / trials as f64).sqrt();
    Interval::new(p - half, p + half)
}

/// Estimates accuracy from a labeled random sample of the candidate set,
/// at the given critical value (`z = 1.96` → 95% confidence).
pub fn estimate_accuracy(sample: &[SampleItem], z: f64) -> AccuracyEstimate {
    let mut n_unsure = 0usize;
    let mut n_predicted = 0usize;
    let mut tp_of_predicted = 0usize;
    let mut n_actual = 0usize;
    let mut tp_of_actual = 0usize;
    for item in sample {
        let Some(actual) = item.label.as_bool() else {
            n_unsure += 1;
            continue;
        };
        if item.predicted {
            n_predicted += 1;
            if actual {
                tp_of_predicted += 1;
            }
        }
        if actual {
            n_actual += 1;
            if item.predicted {
                tp_of_actual += 1;
            }
        }
    }
    AccuracyEstimate {
        precision: binomial_interval(tp_of_predicted, n_predicted, z),
        recall: binomial_interval(tp_of_actual, n_actual, z),
        n_used: sample.len() - n_unsure,
        n_predicted,
        n_actual,
        n_unsure,
    }
}

/// The conventional 95% critical value.
pub const Z95: f64 = 1.96;

#[cfg(test)]
mod tests {
    use super::*;

    fn item(predicted: bool, label: Label) -> SampleItem {
        SampleItem { predicted, label }
    }

    #[test]
    fn perfect_matcher_gets_degenerate_intervals() {
        // Every prediction right, every match predicted → both intervals
        // collapse to (1, 1), like the IRIS precision of (100%, 100%).
        let sample: Vec<SampleItem> = (0..50)
            .map(|i| item(i % 5 == 0, if i % 5 == 0 { Label::Yes } else { Label::No }))
            .collect();
        let est = estimate_accuracy(&sample, Z95);
        assert_eq!(est.precision, Interval::new(1.0, 1.0));
        assert_eq!(est.recall, Interval::new(1.0, 1.0));
    }

    #[test]
    fn known_fractions() {
        // 10 predicted, 8 true → p̂ = 0.8; 16 actual, 8 caught → r̂ = 0.5.
        let mut sample = Vec::new();
        for i in 0..10 {
            sample.push(item(true, if i < 8 { Label::Yes } else { Label::No }));
        }
        for _ in 0..8 {
            sample.push(item(false, Label::Yes));
        }
        for _ in 0..20 {
            sample.push(item(false, Label::No));
        }
        let est = estimate_accuracy(&sample, Z95);
        // The upper precision bound clamps at 1.0 (only 10 trials), so test
        // the unclamped lower bound and containment instead of the midpoint.
        assert!((est.precision.lo - (0.8 - 1.96 * (0.8f64 * 0.2 / 10.0).sqrt())).abs() < 1e-9);
        assert!((est.recall.mid() - 0.5).abs() < 1e-9);
        assert!(est.precision.contains(0.8));
        assert!(est.recall.contains(0.5));
        assert_eq!(est.n_predicted, 10);
        assert_eq!(est.n_actual, 16);
    }

    #[test]
    fn unsure_labels_ignored() {
        let sample = vec![
            item(true, Label::Yes),
            item(true, Label::Unsure),
            item(false, Label::Unsure),
            item(false, Label::No),
        ];
        let est = estimate_accuracy(&sample, Z95);
        assert_eq!(est.n_unsure, 2);
        assert_eq!(est.n_used, 2);
        assert_eq!(est.precision, Interval::new(1.0, 1.0));
    }

    #[test]
    fn more_labels_shrink_intervals() {
        // Same underlying rates at n and 2n: interval must shrink — the
        // paper's 200 → 400 label step.
        let make = |n: usize| -> Vec<SampleItem> {
            (0..n)
                .map(|i| {
                    let is_match = i % 4 == 0;
                    let predicted = (is_match && i % 8 != 4) || i % 16 == 1;
                    item(predicted, if is_match { Label::Yes } else { Label::No })
                })
                .collect()
        };
        let small = estimate_accuracy(&make(200), Z95);
        let large = estimate_accuracy(&make(400), Z95);
        assert!(large.precision.width() < small.precision.width());
        assert!(large.recall.width() < small.recall.width());
    }

    #[test]
    fn empty_sample_is_vacuous() {
        let est = estimate_accuracy(&[], Z95);
        assert_eq!(est.precision, Interval::new(0.0, 1.0));
        assert_eq!(est.recall, Interval::new(0.0, 1.0));
    }

    /// Label-efficiency curves chart an interval at every point, including
    /// the degenerate early rounds; no degenerate input may ever produce a
    /// NaN endpoint (a NaN would serialize as `null` and silently poison
    /// the JSON artifact downstream).
    fn assert_finite(est: &AccuracyEstimate) {
        for i in [est.precision, est.recall] {
            assert!(i.lo.is_finite() && i.hi.is_finite(), "non-finite interval {i:?}");
            assert!((0.0..=1.0).contains(&i.lo) && (0.0..=1.0).contains(&i.hi));
            assert!(i.lo <= i.hi);
        }
    }

    #[test]
    fn degenerate_empty_sample_stays_finite() {
        let est = estimate_accuracy(&[], Z95);
        assert_finite(&est);
        assert_eq!((est.n_used, est.n_predicted, est.n_actual, est.n_unsure), (0, 0, 0, 0));
    }

    #[test]
    fn degenerate_all_positive_stays_finite() {
        // Every pair predicted and labeled Yes: p̂ = r̂ = 1 with zero
        // variance — the interval collapses to (1, 1), never NaN.
        let sample: Vec<SampleItem> = (0..10).map(|_| item(true, Label::Yes)).collect();
        let est = estimate_accuracy(&sample, Z95);
        assert_finite(&est);
        assert_eq!(est.precision, Interval::new(1.0, 1.0));
        assert_eq!(est.recall, Interval::new(1.0, 1.0));
    }

    #[test]
    fn degenerate_single_item_stays_finite() {
        for (predicted, label) in [
            (true, Label::Yes),
            (true, Label::No),
            (false, Label::Yes),
            (false, Label::No),
            (false, Label::Unsure),
        ] {
            let est = estimate_accuracy(&[item(predicted, label)], Z95);
            assert_finite(&est);
        }
        // n=1 with the only item predicted-and-wrong: precision (0, 0),
        // recall vacuous (no actual matches observed).
        let est = estimate_accuracy(&[item(true, Label::No)], Z95);
        assert_eq!(est.precision, Interval::new(0.0, 0.0));
        assert_eq!(est.recall, Interval::new(0.0, 1.0));
    }

    #[test]
    fn degenerate_all_unsure_stays_finite() {
        let sample: Vec<SampleItem> = (0..5).map(|_| item(true, Label::Unsure)).collect();
        let est = estimate_accuracy(&sample, Z95);
        assert_finite(&est);
        assert_eq!(est.n_unsure, 5);
        assert_eq!(est.n_used, 0);
        assert_eq!(est.precision, Interval::new(0.0, 1.0));
    }

    #[test]
    fn interval_clamps_and_orders() {
        let i = Interval::new(1.2, -0.5);
        assert_eq!(i, Interval { lo: 0.0, hi: 1.0 });
        assert!((Interval::new(0.9, 0.95).width() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn label_as_bool() {
        assert_eq!(Label::Yes.as_bool(), Some(true));
        assert_eq!(Label::No.as_bool(), Some(false));
        assert_eq!(Label::Unsure.as_bool(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Label::Unsure.to_string(), "Unsure");
        assert_eq!(Interval::new(0.752, 0.803).to_string(), "(75.2%, 80.3%)");
    }

    #[test]
    fn wider_confidence_wider_interval() {
        let sample: Vec<SampleItem> = (0..100)
            .map(|i| item(i % 3 == 0, if i % 4 == 0 { Label::Yes } else { Label::No }))
            .collect();
        let narrow = estimate_accuracy(&sample, 1.0);
        let wide = estimate_accuracy(&sample, 2.58);
        assert!(wide.precision.width() >= narrow.precision.width());
        assert!(wide.recall.width() >= narrow.recall.width());
    }
}
