//! Weak supervision: labeling functions, a label model, and zero-oracle
//! training.
//!
//! A **labeling function** (LF) votes MATCH / NO-MATCH / ABSTAIN on a
//! candidate pair. The DSL layers directly on the predicates the repo
//! already trusts:
//!
//! - **pattern** LFs wrap [`em_rules::spec`] rule
//!   descriptions (any [`LabelingFunction::Rule`] does) — the same declarative records the workflow snapshots
//!   persist — materialized through [`RuleSetDesc::build`]: a positive rule
//!   firing votes MATCH, a negative rule firing votes NO-MATCH, anything
//!   else abstains;
//! - **threshold** LFs read one generated feature column (e.g. the
//!   case-insensitive title Jaccard): values at or above `yes_min` vote
//!   MATCH, at or below `no_max` vote NO-MATCH, the band between (and
//!   `NaN`) abstains.
//!
//! Votes are resolved two ways: [`majority_vote`] (the obvious baseline)
//! and a seeded **generative label model** ([`GenerativeModel`]) that
//! learns a per-LF accuracy by expectation–maximization — LFs that agree
//! with the consensus get upweighted, contrarian ones downweighted — and
//! emits a posterior match probability per pair. [`run_weak`] turns those
//! posteriors into a training set via
//! [`em_ml::dataset_from_probabilistic`], fits a committee, and scores it
//! against ground truth: an entire matcher trained with **zero** oracle
//! labels.

use crate::active::{committee_predictions, score_predictions};
use em_blocking::{CandidateSet, Pair};
use em_core::CoreError;
use em_datagen::GroundTruth;
use em_estimate::Interval;
use em_features::{auto_features, extract_vectors, FeatureOptions, FeatureSet};
use em_ml::dataset::impute_mean;
use em_ml::{dataset_from_probabilistic, CommitteeLearner};
use em_rules::spec::{RuleDesc, RuleKeyKind, RulePolarity, RuleSetDesc};
use em_table::Table;

/// One labeling-function vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The LF believes the pair matches.
    Match,
    /// The LF believes the pair does not match.
    NoMatch,
    /// The LF has no opinion on this pair.
    Abstain,
}

/// One labeling function.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelingFunction {
    /// Votes by thresholding one generated feature column: `>= yes_min` →
    /// MATCH, `<= no_max` → NO-MATCH, the band between (and `NaN`) abstains.
    Threshold {
        /// Display name.
        name: String,
        /// Feature column name (see [`em_features::FeatureSet::names`]).
        feature: String,
        /// Largest value that still votes NO-MATCH.
        no_max: f64,
        /// Smallest value that votes MATCH.
        yes_min: f64,
    },
    /// Wraps an [`em_rules::spec`] predicate: a positive rule firing votes
    /// MATCH, a negative rule firing votes NO-MATCH, otherwise ABSTAIN.
    Rule(RuleDesc),
}

impl LabelingFunction {
    /// A threshold LF over a feature column.
    pub fn threshold(
        name: impl Into<String>,
        feature: impl Into<String>,
        no_max: f64,
        yes_min: f64,
    ) -> LabelingFunction {
        LabelingFunction::Threshold {
            name: name.into(),
            feature: feature.into(),
            no_max,
            yes_min,
        }
    }

    /// A pattern LF: the award-suffix pattern extracted on the left equals
    /// the right attribute — votes MATCH.
    pub fn pattern(
        name: impl Into<String>,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> LabelingFunction {
        LabelingFunction::Rule(RuleDesc {
            polarity: RulePolarity::Positive,
            kind: RuleKeyKind::Suffix,
            name: name.into(),
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
        })
    }

    /// A negative pattern LF: both sides carry comparable suffix keys that
    /// differ — votes NO-MATCH.
    pub fn negative_pattern(
        name: impl Into<String>,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> LabelingFunction {
        LabelingFunction::Rule(RuleDesc {
            polarity: RulePolarity::Negative,
            kind: RuleKeyKind::Suffix,
            name: name.into(),
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
        })
    }

    /// The LF's display name.
    pub fn name(&self) -> &str {
        match self {
            LabelingFunction::Threshold { name, .. } => name,
            LabelingFunction::Rule(desc) => &desc.name,
        }
    }
}

/// The standard LF set for the UMETRICS–USDA scenario: the workflow's own
/// rule predicates as pattern LFs, plus title-similarity thresholds on the
/// case-insensitive Jaccard features.
pub fn standard_lfs() -> Vec<LabelingFunction> {
    vec![
        LabelingFunction::pattern("lf:M1", "AwardNumber", "AwardNumber"),
        LabelingFunction::pattern("lf:award=project", "AwardNumber", "ProjectNumber"),
        LabelingFunction::negative_pattern("lf:neg:award", "AwardNumber", "AwardNumber"),
        LabelingFunction::negative_pattern("lf:neg:project", "AwardNumber", "ProjectNumber"),
        LabelingFunction::threshold("lf:title_jac_q3", "AwardTitle_jac_q3_lc", 0.25, 0.6),
        LabelingFunction::threshold("lf:title_cos_ws", "AwardTitle_cos_ws_lc", 0.3, 0.65),
    ]
}

/// The vote matrix of an LF set over a candidate list: one `i8` per
/// (pair, LF) — `+1` MATCH, `-1` NO-MATCH, `0` ABSTAIN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LfMatrix {
    /// LF display names, in application order.
    pub names: Vec<String>,
    /// One row per pair, one vote per LF.
    pub votes: Vec<Vec<i8>>,
}

impl LfMatrix {
    /// Number of pairs voted on.
    pub fn n_pairs(&self) -> usize {
        self.votes.len()
    }

    /// Number of labeling functions.
    pub fn n_lfs(&self) -> usize {
        self.names.len()
    }

    /// Fraction of pairs with at least one non-abstain vote.
    pub fn coverage(&self) -> f64 {
        if self.votes.is_empty() {
            return 0.0;
        }
        let covered = self.votes.iter().filter(|row| row.iter().any(|&v| v != 0)).count();
        covered as f64 / self.votes.len() as f64
    }

    /// Pairs where at least one LF votes MATCH and another NO-MATCH — the
    /// disagreements only a label model can adjudicate.
    pub fn conflicts(&self) -> usize {
        self.votes
            .iter()
            .filter(|row| row.iter().any(|&v| v > 0) && row.iter().any(|&v| v < 0))
            .count()
    }
}

/// Evaluates every LF on every pair. Threshold LFs read the pre-extracted
/// feature matrix `x` (aligned with `pairs`); rule LFs materialize their
/// [`RuleDesc`] through [`RuleSetDesc::build`] once and probe row pairs.
pub fn apply_lfs(
    lfs: &[LabelingFunction],
    umetrics: &Table,
    usda: &Table,
    pairs: &[Pair],
    features: &FeatureSet,
    x: &[Vec<f64>],
) -> Result<LfMatrix, CoreError> {
    // Resolve each LF to a closure-free evaluator up front so unknown
    // feature names fail loudly, before any pair is voted on.
    enum Eval {
        Threshold { col: usize, no_max: f64, yes_min: f64 },
        Rule { set: em_rules::RuleSet, positive: bool },
    }
    let names: Vec<String> = features.names();
    let mut evals = Vec::with_capacity(lfs.len());
    for lf in lfs {
        evals.push(match lf {
            LabelingFunction::Threshold { name, feature, no_max, yes_min } => {
                let col = names.iter().position(|n| n == feature).ok_or_else(|| {
                    CoreError::Pipeline(format!(
                        "threshold LF {name:?} names unknown feature {feature:?}"
                    ))
                })?;
                Eval::Threshold { col, no_max: *no_max, yes_min: *yes_min }
            }
            LabelingFunction::Rule(desc) => {
                let set = RuleSetDesc { rules: vec![desc.clone()] }.build();
                Eval::Rule { set, positive: desc.polarity == RulePolarity::Positive }
            }
        });
    }
    let mut votes = Vec::with_capacity(pairs.len());
    for (i, pair) in pairs.iter().enumerate() {
        let (Some(u), Some(s)) = (umetrics.row(pair.left), usda.row(pair.right)) else {
            return Err(CoreError::Pipeline(format!(
                "candidate pair ({}, {}) out of range",
                pair.left, pair.right
            )));
        };
        let row: Vec<i8> = evals
            .iter()
            .map(|e| match e {
                Eval::Threshold { col, no_max, yes_min } => {
                    let v = x[i][*col];
                    if v.is_nan() {
                        0
                    } else if v >= *yes_min {
                        1
                    } else if v <= *no_max {
                        -1
                    } else {
                        0
                    }
                }
                Eval::Rule { set, positive: true } => {
                    i8::from(set.any_positive_fires(u, s))
                }
                Eval::Rule { set, positive: false } => {
                    if set.any_negative_fires(u, s) {
                        -1
                    } else {
                        0
                    }
                }
            })
            .collect();
        votes.push(row);
    }
    Ok(LfMatrix { names: lfs.iter().map(|lf| lf.name().to_string()).collect(), votes })
}

/// The majority-vote label model: per pair, the fraction of non-abstain
/// votes that say MATCH (`0.5` when every LF abstains or the vote ties).
pub fn majority_vote(matrix: &LfMatrix) -> Vec<f64> {
    matrix
        .votes
        .iter()
        .map(|row| {
            let pos = row.iter().filter(|&&v| v > 0).count();
            let neg = row.iter().filter(|&&v| v < 0).count();
            if pos + neg == 0 {
                0.5
            } else {
                pos as f64 / (pos + neg) as f64
            }
        })
        .collect()
}

/// Golden-ratio (Weyl) per-LF jitter stream — the same derivation the
/// forest uses for per-tree seeds — scaled down to a symmetry-breaking
/// perturbation of the initial accuracies.
fn init_jitter(seed: u64, lf: usize) -> f64 {
    let h = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lf as u64 + 1);
    (h % 1000) as f64 / 1e5 // [0, 0.01)
}

/// The seeded generative label model: one accuracy per LF, a class prior,
/// fit by EM. Deterministic in `(matrix, seed)` — the seed only perturbs
/// the initial accuracies so identical LFs don't start exactly symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerativeModel {
    /// Learned per-LF accuracy (probability the LF's non-abstain vote
    /// agrees with the latent label), clamped to `[0.05, 0.95]`.
    pub accuracies: Vec<f64>,
    /// Learned match prior.
    pub prior: f64,
    /// EM iterations actually run before convergence (or the cap).
    pub iterations: usize,
}

impl GenerativeModel {
    /// Posterior match probability per pair under the fitted model:
    /// `P(y=1 | votes) ∝ prior · Π_j P(vote_j | y=1)`, abstains excluded.
    pub fn posteriors(&self, matrix: &LfMatrix) -> Vec<f64> {
        matrix
            .votes
            .iter()
            .map(|row| {
                let mut log_odds = (self.prior / (1.0 - self.prior)).ln();
                for (j, &v) in row.iter().enumerate() {
                    if v == 0 {
                        continue;
                    }
                    let a = self.accuracies[j];
                    let w = (a / (1.0 - a)).ln();
                    log_odds += if v > 0 { w } else { -w };
                }
                1.0 / (1.0 + (-log_odds).exp())
            })
            .collect()
    }
}

/// Fits the generative model by EM: the E-step computes per-pair match
/// posteriors under the current accuracies, the M-step re-estimates each
/// LF's accuracy as its posterior-weighted agreement rate (with add-one
/// smoothing) and the prior as the mean posterior. Stops at `max_iters` or
/// when no accuracy moves by more than `1e-12`.
pub fn fit_generative(matrix: &LfMatrix, seed: u64, max_iters: usize) -> GenerativeModel {
    let n_lfs = matrix.n_lfs();
    let mut model = GenerativeModel {
        accuracies: (0..n_lfs).map(|j| 0.7 + init_jitter(seed, j)).collect(),
        prior: 0.3,
        iterations: 0,
    };
    if matrix.votes.is_empty() || n_lfs == 0 {
        return model;
    }
    for it in 0..max_iters {
        let w = model.posteriors(matrix); // E-step
        // M-step: accuracy_j = smoothed posterior-weighted agreement.
        let mut next = Vec::with_capacity(n_lfs);
        for j in 0..n_lfs {
            let mut agree = 0.0f64;
            let mut covered = 0.0f64;
            for (row, &wi) in matrix.votes.iter().zip(&w) {
                let v = row[j];
                if v == 0 {
                    continue;
                }
                covered += 1.0;
                agree += if v > 0 { wi } else { 1.0 - wi };
            }
            next.push(((agree + 1.0) / (covered + 2.0)).clamp(0.05, 0.95));
        }
        let prior =
            (w.iter().sum::<f64>() / w.len() as f64).clamp(0.05, 0.95);
        let delta = next
            .iter()
            .zip(&model.accuracies)
            .map(|(a, b)| (a - b).abs())
            .fold((prior - model.prior).abs(), f64::max);
        model.accuracies = next;
        model.prior = prior;
        model.iterations = it + 1;
        if delta < 1e-12 {
            break;
        }
    }
    model
}

/// Configuration of a zero-oracle weak-supervision run.
#[derive(Debug, Clone)]
pub struct WeakConfig {
    /// The labeling functions.
    pub lfs: Vec<LabelingFunction>,
    /// Posterior at or below this trains as a non-match.
    pub no_max: f64,
    /// Posterior at or above this trains as a match.
    pub yes_min: f64,
    /// EM iteration cap for the generative model.
    pub em_iters: usize,
    /// Committee members for the end matcher.
    pub members: usize,
    /// Seed for the label model's init jitter and the committee fit.
    pub seed: u64,
}

impl WeakConfig {
    /// The standard LF set with the usual band and a 7-member committee.
    pub fn standard(seed: u64) -> WeakConfig {
        WeakConfig {
            lfs: standard_lfs(),
            no_max: 0.3,
            yes_min: 0.7,
            em_iters: 25,
            members: 7,
            seed,
        }
    }
}

/// What a weak-supervision run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakOutcome {
    /// Labeling functions applied.
    pub n_lfs: usize,
    /// Fraction of candidates with at least one non-abstain vote.
    pub coverage: f64,
    /// Candidates with conflicting MATCH / NO-MATCH votes.
    pub conflicts: usize,
    /// Training rows kept after dropping the uncertain posterior band.
    pub kept: usize,
    /// Oracle labels consumed — always 0; the field exists so reports and
    /// JSON artifacts state the claim explicitly.
    pub oracle_labels: usize,
    /// Learned per-LF accuracies, in LF order.
    pub lf_accuracies: Vec<(String, f64)>,
    /// EM iterations the generative fit ran.
    pub em_iterations: usize,
    /// F1 of raw majority vote over the candidates vs truth.
    pub f1_majority: f64,
    /// F1 of the generative label model's posteriors (thresholded at 0.5).
    pub f1_label_model: f64,
    /// F1 of the committee trained on the probabilistic labels.
    pub f1: f64,
    /// Precision interval of the trained committee.
    pub precision: Interval,
    /// Recall interval of the trained committee.
    pub recall: Interval,
}

/// Runs weak supervision end to end — LF votes, label models, committee
/// training on probabilistic labels — with **zero** oracle queries; ground
/// truth is touched only to *score* the result.
pub fn run_weak(
    umetrics: &Table,
    usda: &Table,
    candidates: &CandidateSet,
    truth: &GroundTruth,
    cfg: &WeakConfig,
) -> Result<WeakOutcome, CoreError> {
    let all_pairs: Vec<Pair> = candidates.to_vec();
    let features = auto_features(
        umetrics,
        usda,
        &FeatureOptions::excluding(&["RecordId", "AccessionNumber"]).with_case_insensitive(),
    );
    let x_all = extract_vectors(&features, umetrics, usda, &all_pairs)?;
    let truth_flags: Vec<bool> = all_pairs
        .iter()
        .map(|p| {
            truth.is_match(
                &em_core::labeling::award_of(umetrics, p.left),
                &em_core::labeling::accession_of(usda, p.right),
            )
        })
        .collect();

    let matrix = apply_lfs(&cfg.lfs, umetrics, usda, &all_pairs, &features, &x_all)?;
    let majority = majority_vote(&matrix);
    let model = fit_generative(&matrix, cfg.seed, cfg.em_iters);
    let posteriors = model.posteriors(&matrix);

    let maj_pred: Vec<bool> = majority.iter().map(|&p| p > 0.5).collect();
    let (f1_majority, _, _) = score_predictions(&maj_pred, &truth_flags);
    let lm_pred: Vec<bool> = posteriors.iter().map(|&p| p > 0.5).collect();
    let (f1_label_model, _, _) = score_predictions(&lm_pred, &truth_flags);

    // Probabilistic labels → training set (the uncertain band drops out)
    // → committee, exactly as a hand-labeled training set would flow.
    let (mut data, kept_idx) = dataset_from_probabilistic(
        features.names(),
        &x_all,
        &posteriors,
        cfg.no_max,
        cfg.yes_min,
    )?;
    if data.n_positive() == 0 || data.n_positive() == data.len() {
        return Err(CoreError::Pipeline(format!(
            "labeling functions produced a single-class training set \
             ({} of {} rows positive); add or loosen LFs",
            data.n_positive(),
            data.len()
        )));
    }
    let imputer = impute_mean(&mut data);
    let learner = CommitteeLearner {
        n_members: cfg.members,
        seed: cfg.seed,
        stratified: true,
        ..CommitteeLearner::default()
    };
    let committee = learner.fit(&data)?;
    let predicted = committee_predictions(&(committee, imputer), &x_all);
    let (f1, precision, recall) = score_predictions(&predicted, &truth_flags);

    Ok(WeakOutcome {
        n_lfs: matrix.n_lfs(),
        coverage: matrix.coverage(),
        conflicts: matrix.conflicts(),
        kept: kept_idx.len(),
        oracle_labels: 0,
        lf_accuracies: matrix
            .names
            .iter()
            .cloned()
            .zip(model.accuracies.iter().copied())
            .collect(),
        em_iterations: model.iterations,
        f1_majority,
        f1_label_model,
        f1,
        precision,
        recall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(votes: Vec<Vec<i8>>) -> LfMatrix {
        let n = votes.first().map(|r| r.len()).unwrap_or(0);
        LfMatrix { names: (0..n).map(|j| format!("lf{j}")).collect(), votes }
    }

    #[test]
    fn majority_vote_handles_ties_and_abstains() {
        let m = matrix(vec![
            vec![1, 1, 0],   // 2-0 → 1.0
            vec![1, -1, 0],  // tie → 0.5
            vec![0, 0, 0],   // all abstain → 0.5
            vec![-1, -1, 1], // 1-2 → 1/3
        ]);
        let p = majority_vote(&m);
        assert_eq!(p, vec![1.0, 0.5, 0.5, 1.0 / 3.0]);
        assert_eq!(m.conflicts(), 2);
        assert!((m.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn generative_model_upweights_the_accurate_lfs() {
        // LFs 0 and 1 vote the (latent) truth on every pair; LF 2 is a
        // coin that disagrees with them half the time. The consensus of
        // the two consistent LFs identifies the coin, and the learned
        // weights let the posterior recover the truth even where the coin
        // dissents.
        let truth: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let votes: Vec<Vec<i8>> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let v = if t { 1 } else { -1 };
                let coin = if i % 2 == 0 { v } else { -v };
                vec![v, v, coin]
            })
            .collect();
        let m = matrix(votes);
        let g = fit_generative(&m, 7, 50);
        assert!(
            g.accuracies[0] > g.accuracies[2] + 0.1,
            "consistent LFs must out-score the coin: {:?}",
            g.accuracies
        );
        // The posteriors recover the latent truth.
        let post = g.posteriors(&m);
        for (p, &t) in post.iter().zip(&truth) {
            assert_eq!(*p > 0.5, t, "posterior {p} disagrees with latent label {t}");
        }
    }

    #[test]
    fn generative_fit_is_deterministic_in_seed() {
        let votes: Vec<Vec<i8>> =
            (0..30).map(|i| vec![if i % 2 == 0 { 1 } else { -1 }, 1, -1]).collect();
        let m = matrix(votes);
        let a = fit_generative(&m, 42, 25);
        let b = fit_generative(&m, 42, 25);
        assert_eq!(a, b, "same seed must reproduce the fit bit for bit");
        for (x, y) in a.accuracies.iter().zip(&b.accuracies) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let c = fit_generative(&m, 43, 25);
        assert_eq!(a.accuracies.len(), c.accuracies.len());
    }

    #[test]
    fn lf_names_and_constructors() {
        let lfs = standard_lfs();
        assert_eq!(lfs.len(), 6);
        assert_eq!(lfs[0].name(), "lf:M1");
        assert!(matches!(
            &lfs[0],
            LabelingFunction::Rule(d)
                if d.polarity == RulePolarity::Positive && d.kind == RuleKeyKind::Suffix
        ));
        assert!(matches!(
            &lfs[2],
            LabelingFunction::Rule(d) if d.polarity == RulePolarity::Negative
        ));
        assert!(matches!(&lfs[4], LabelingFunction::Threshold { .. }));
    }
}
