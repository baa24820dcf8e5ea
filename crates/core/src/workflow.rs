//! The EM workflows of Figures 8, 9, and 10, and workflow patching.
//!
//! A workflow run over a `(UMETRICS, USDA)` table pair computes:
//!
//! 1. the positive sure-match rules over the whole tables → `C1`;
//! 2. the blocking plan → `C2`; the learning matcher's input is
//!    `C = C2 − C1`;
//! 3. the trained matcher's score for each pair of `C` → `R` at 0.5;
//! 4. optionally the negative rules over `R` → `S` (Figure 10);
//! 5. matches = `C1 ∪ S`.
//!
//! There is one executor for that: [`EmWorkflow::run`] is a collecting run
//! of the fused [`StreamMatcher`] — masked, pull-scored, thread-invariant —
//! with the sets it kept assembled into a [`WorkflowResult`]. The stage
//! functions (`run_blocking`, `RuleSet::sure_matches`, `extract_vectors`,
//! `Imputer::transform`, `FittedModel::predict_proba`,
//! `RuleSet::any_negative_fires`) stay public as the reference the
//! equivalence tests compose their oracle from.
//!
//! Section 10's patching strategy — "leave the current EM workflow alone
//! and create a new EM workflow … a 'patch' of the current EM workflow" —
//! is [`EmWorkflow::run_patched`]: the same workflow runs over the extra
//! table against the whole USDA table, and the caller unions the two
//! results by business identifier ([`MatchIds::union`]).

use crate::blocking_plan::BlockingPlan;
use crate::error::CoreError;
use crate::matcher::TrainedMatcher;
use crate::stream::{Collected, StreamMatcher, MATCH_THRESHOLD};
use em_blocking::{CandidateSet, Pair};
use em_rules::RuleSet;
use em_table::Table;

/// A complete EM workflow: rules + blocking plan + trained matcher.
pub struct EmWorkflow<'m> {
    /// Positive (sure-match) and negative rules.
    pub rules: RuleSet,
    /// The blocking plan.
    pub plan: BlockingPlan,
    /// The trained learning-based matcher.
    pub matcher: &'m TrainedMatcher,
    /// Whether to apply the negative rules to model predictions
    /// (Figure 10; `false` reproduces Figures 8/9).
    pub apply_negative: bool,
}

/// Everything one workflow run produced, with the intermediate sets the
/// paper's accounting quotes.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// Sure matches from the positive rules (`C1` / `D1`).
    pub sure: CandidateSet,
    /// The blocked candidate set before removing sure matches (`C2`/`D2`).
    pub blocked: CandidateSet,
    /// The matcher's input: `blocked − sure` (`C` / `D`).
    pub candidates: CandidateSet,
    /// Every pair of `candidates` with the matcher's probability, in
    /// `(left, right)` order.
    pub scored: Vec<(Pair, f64)>,
    /// Model-predicted matches over `candidates` (`R1` / `R2`): the
    /// `scored` pairs at or above 0.5.
    pub predicted: CandidateSet,
    /// Predictions flipped to non-match by the negative rules.
    pub flipped: CandidateSet,
    /// Final matches: `sure ∪ (predicted − flipped)`.
    pub matches: CandidateSet,
}

impl WorkflowResult {
    /// The full evaluation candidate universe of this run:
    /// `sure ∪ blocked` (the paper's consolidated set `E`).
    pub fn universe(&self) -> CandidateSet {
        let mut u = self.sure.union(&self.blocked);
        u.set_name("E");
        u
    }
}

impl<'m> EmWorkflow<'m> {
    /// Runs the workflow over one table pair: one collecting run of the
    /// fused stream, assembled into sets once the matcher is dropped. A
    /// pair's provenance tag is the stage that produced it (`rule`,
    /// `blocked`, `model:<learner>`, `match`), not the individual rule or
    /// blocker: the stream does not track which scheme admitted a pair.
    pub fn run(&self, umetrics: &Table, usda: &Table) -> Result<WorkflowResult, CoreError> {
        let unapplied = RuleSet::default();
        let negative = if self.apply_negative { &self.rules } else { &unapplied };
        let Collected { sure, blocked, scored, matches } =
            StreamMatcher::with_rules(umetrics, usda, self.matcher, &self.rules, negative, &self.plan)?
                .run_collecting()
                .1;
        let model = format!("model:{}", self.matcher.learner_name);
        let matches = CandidateSet::from_pairs("matches", matches, "match");
        let predicted = CandidateSet::from_pairs(
            "predicted",
            scored.iter().filter(|(_, p)| *p >= MATCH_THRESHOLD).map(|(pair, _)| *pair),
            &model,
        );
        let mut flipped = predicted.minus(&matches);
        flipped.set_name("flipped");
        Ok(WorkflowResult {
            sure: CandidateSet::from_pairs("sure", sure, "rule"),
            blocked: CandidateSet::from_pairs("blocked", blocked, "blocked"),
            candidates: CandidateSet::from_pairs("C", scored.iter().map(|(pair, _)| *pair), "blocked"),
            scored,
            predicted,
            flipped,
            matches,
        })
    }

    /// Runs the workflow over the original table and again, as its own
    /// patch, over the extra records, returning `(original, patch)` —
    /// Figure 9's composition. The two runs work in distinct row spaces, so
    /// their matches combine downstream by identifier
    /// ([`MatchIds::union`]), where identical pairs cannot conflict.
    pub fn run_patched(
        &self,
        umetrics: &Table,
        extra_umetrics: &Table,
        usda: &Table,
    ) -> Result<(WorkflowResult, WorkflowResult), CoreError> {
        let original = self.run(umetrics, usda)?;
        let patch = self.run(extra_umetrics, usda)?;
        Ok((original, patch))
    }
}

/// A matcher-agnostic match list keyed by business identifiers —
/// `(UniqueAwardNumber, AccessionNumber)`, the deliverable format of
/// Section 6 — so that results from different workflows (different row
/// spaces) can be unioned, compared, and scored against ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchIds {
    pairs: std::collections::BTreeSet<(String, String)>,
}

impl MatchIds {
    /// Converts a candidate set over `(umetrics, usda)` row indices into
    /// identifier pairs.
    pub fn from_candidates(
        umetrics: &Table,
        usda: &Table,
        set: &CandidateSet,
    ) -> Result<MatchIds, CoreError> {
        let mut pairs = std::collections::BTreeSet::new();
        for p in set.iter() {
            let award = umetrics
                .get(p.left, "AwardNumber")
                .ok_or_else(|| CoreError::Pipeline(format!("row {} missing", p.left)))?
                .render();
            let acc = usda
                .get(p.right, "AccessionNumber")
                .ok_or_else(|| CoreError::Pipeline(format!("row {} missing", p.right)))?
                .render();
            pairs.insert((award, acc));
        }
        Ok(MatchIds { pairs })
    }

    /// Builds a match list directly from identifier pairs (checkpoint
    /// restore; [`MatchIds::from_candidates`] is the normal constructor).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, String)>) -> MatchIds {
        MatchIds { pairs: pairs.into_iter().collect() }
    }

    /// Number of identifier pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, award: &str, accession: &str) -> bool {
        self.pairs.contains(&(award.to_string(), accession.to_string()))
    }

    /// Union of two match lists (the Figure 9 combination step; identifier
    /// keying makes "new workflow wins" trivial — identical pairs agree).
    pub fn union(&self, other: &MatchIds) -> MatchIds {
        MatchIds { pairs: self.pairs.union(&other.pairs).cloned().collect() }
    }

    /// [`union`](MatchIds::union) in place, moving `other`'s pairs in — how
    /// a gather folds per-shard or per-row results without copying the
    /// set it has built so far.
    pub fn absorb(&mut self, mut other: MatchIds) {
        self.pairs.append(&mut other.pairs);
    }

    /// Iterates `(award, accession)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking_plan::BlockingPlan;
    use crate::labeling::run_labeling;
    use crate::matcher::{build_training_data, select_matcher, train_matcher, MatcherStage};
    use crate::preprocess::{project_umetrics, project_usda};
    use em_datagen::{Oracle, OracleConfig, Scenario, ScenarioConfig};
    use em_features::auto_features;
    use em_rules::{EqualityRule, NegativeRule};

    #[test]
    fn absorb_is_union_in_place() {
        let ids = |pairs: &[(&str, &str)]| {
            MatchIds::from_pairs(pairs.iter().map(|(a, b)| (a.to_string(), b.to_string())))
        };
        let (a, b) = (ids(&[("A", "1"), ("B", "2")]), ids(&[("B", "2"), ("C", "3")]));
        let mut acc = a.clone();
        acc.absorb(b.clone());
        assert_eq!(acc, a.union(&b));
        assert_eq!(acc.len(), 3);
    }

    struct Fixture {
        u: Table,
        extra_u: Table,
        s: Table,
        scenario: Scenario,
        matcher: TrainedMatcher,
    }

    fn rules() -> RuleSet {
        RuleSet {
            positive: vec![
                EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber"),
                EqualityRule::suffix_equals("R2", "AwardNumber", "ProjectNumber"),
            ],
            negative: vec![
                NegativeRule::comparable_suffix("neg-award", "AwardNumber", "AwardNumber"),
                NegativeRule::comparable_suffix("neg-project", "AwardNumber", "ProjectNumber"),
            ],
        }
    }

    fn fixture() -> Fixture {
        // Seed chosen so the small scenario is statistically representative
        // (negative rules do not hit more true than false positives).
        let scenario = Scenario::generate(ScenarioConfig::small().with_seed(5)).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let extra_u = {
            // The extra batch has no employee rows; project it with an
            // empty employees table of the right schema.
            let empty = Table::new("emp", scenario.employees.schema().clone());
            project_umetrics(&scenario.extra_award_agg, &empty).unwrap()
        };
        let s = project_usda(&scenario.usda, true).unwrap();
        let candidates =
            crate::blocking_plan::run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
        let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
        let (labeled, _) = run_labeling(&u, &s, &candidates, &oracle, &[100, 100], 5).unwrap();
        let stage = MatcherStage::new(1).with_case_insensitive();
        let features = auto_features(&u, &s, &stage.feature_opts);
        let (data, imputer) =
            build_training_data(&u, &s, &features, &labeled, &rules()).unwrap();
        let ranking = select_matcher(&data, &stage).unwrap();
        let matcher =
            train_matcher(features, imputer, &data, &ranking[0].learner, &stage).unwrap();
        Fixture { u, extra_u, s, scenario, matcher }
    }

    #[test]
    fn workflow_accounting_is_consistent() {
        let f = fixture();
        let wf = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: false,
        };
        let r = wf.run(&f.u, &f.s).unwrap();
        // candidates = blocked − sure
        assert_eq!(r.candidates.len(), r.blocked.minus(&r.sure).len());
        // predictions come from the candidate set only
        for p in r.predicted.iter() {
            assert!(r.candidates.contains(&p));
            assert!(!r.sure.contains(&p));
        }
        // final = sure + predicted (no negative rules here)
        assert_eq!(r.matches.len(), r.sure.len() + r.predicted.len());
        assert!(r.flipped.is_empty());
    }

    #[test]
    fn negative_rules_only_remove_predictions() {
        let f = fixture();
        let base = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: false,
        };
        let with_neg = EmWorkflow { apply_negative: true, ..base };
        let r0 = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: false,
        }
        .run(&f.u, &f.s)
        .unwrap();
        let r1 = with_neg.run(&f.u, &f.s).unwrap();
        assert!(r1.matches.len() <= r0.matches.len());
        assert_eq!(r1.matches.len() + r1.flipped.len(), r0.matches.len());
        // sure matches are never flipped
        for p in r1.sure.iter() {
            assert!(r1.matches.contains(&p));
        }
    }

    #[test]
    fn negative_rules_improve_precision(){
        let f = fixture();
        let score = |matches: &CandidateSet| -> (usize, usize) {
            let ids = MatchIds::from_candidates(&f.u, &f.s, matches).unwrap();
            let tp = ids
                .iter()
                .filter(|(a, c)| f.scenario.truth.is_match(a, c))
                .count();
            (tp, ids.len())
        };
        let wf = |neg: bool| EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: neg,
        };
        let (tp0, n0) = score(&wf(false).run(&f.u, &f.s).unwrap().matches);
        let (tp1, n1) = score(&wf(true).run(&f.u, &f.s).unwrap().matches);
        let p0 = tp0 as f64 / n0.max(1) as f64;
        let p1 = tp1 as f64 / n1.max(1) as f64;
        assert!(p1 >= p0, "negative rules reduced precision: {p0} -> {p1}");
    }

    #[test]
    fn degenerate_inputs_are_empty_results_or_typed_errors() {
        let f = fixture();
        let wf = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: true,
        };
        let no_rows = Table::new("U", f.u.schema().clone());
        let r = wf.run(&no_rows, &f.s).unwrap();
        assert!(r.universe().is_empty() && r.scored.is_empty() && r.matches.is_empty());

        let untitled = f.u.drop_column("AwardTitle").unwrap();
        assert!(wf.run(&untitled, &f.s).is_err());
        assert!(wf.run(&f.u, &f.s.drop_column("AwardTitle").unwrap()).is_err());

        let featureless = TrainedMatcher {
            features: em_features::FeatureSet::default(),
            imputer: f.matcher.imputer.clone(),
            model: f.matcher.model.clone(),
            learner_name: f.matcher.learner_name.clone(),
        };
        let wf = EmWorkflow { matcher: &featureless, ..wf };
        assert!(matches!(wf.run(&f.u, &f.s), Err(CoreError::Pipeline(_))));
    }

    #[test]
    fn patched_run_covers_extra_awards() {
        let f = fixture();
        let wf = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: true,
        };
        let (orig, patch) = wf.run_patched(&f.u, &f.extra_u, &f.s).unwrap();
        let ids_orig = MatchIds::from_candidates(&f.u, &f.s, &orig.matches).unwrap();
        let ids_patch = MatchIds::from_candidates(&f.extra_u, &f.s, &patch.matches).unwrap();
        let combined = ids_orig.union(&ids_patch);
        assert_eq!(combined.len(), ids_orig.len() + ids_patch.len(),
            "original and patch operate on disjoint award sets");
        // The patch must recover matches for extra awards.
        let extra_matches = combined
            .iter()
            .filter(|(a, _)| f.scenario.truth.is_extra_award(a))
            .count();
        assert!(extra_matches > 0, "patch found no extra-award matches");
        assert_eq!(extra_matches, ids_patch.len());
    }

    #[test]
    fn match_ids_round_trip() {
        let f = fixture();
        let wf = EmWorkflow {
            rules: rules(),
            plan: BlockingPlan::default(),
            matcher: &f.matcher,
            apply_negative: false,
        };
        let r = wf.run(&f.u, &f.s).unwrap();
        let ids = MatchIds::from_candidates(&f.u, &f.s, &r.matches).unwrap();
        assert_eq!(ids.len(), r.matches.len(), "distinct keys per pair");
        for p in r.matches.iter().take(20) {
            let award = f.u.get(p.left, "AwardNumber").unwrap().render();
            let acc = f.s.get(p.right, "AccessionNumber").unwrap().render();
            assert!(ids.contains(&award, &acc));
        }
    }
}
