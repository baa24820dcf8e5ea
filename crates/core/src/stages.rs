//! The case study's eight stages (Sections 4–12), one function each: from
//! the run [`Context`] and earlier stages' outputs to a typed output.
//!
//! An output *is* its stage's checkpoint. Each type has one
//! [`Codec`](crate::checkpoint::Codec), listing each field once for both
//! directions, so a stage loaded from disk hands later stages exactly what
//! running it would have. In particular `selection` carries the fitted
//! round-2 winner (features, imputer means, `FittedModel::encode` text), and
//! `matching` scores with it instead of fitting again. Decoding refuses a
//! model or imputer off the feature plan's width: it would otherwise panic
//! at the first scored pair.
//!
//! [`CaseStudy::run`](crate::pipeline::CaseStudy::run) calls the eight in
//! order through one load-or-run, save and crash point;
//! [`CaseStudy::train_serving_artifacts`](crate::pipeline::CaseStudy::train_serving_artifacts)
//! calls [`labeling`] and [`fit_round2`] over a fault-free context.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::analysis::{analyze_multiplicity, cluster_matches, MultiplicityReport};
use crate::blocking_plan::{overlap_threshold_sweep, run_blocking};
use crate::checkpoint::{codec_struct, record_struct, subkey, Checkpoint, Codec, Fields, Record};
use crate::error::CoreError;
use crate::labeling::{
    accession_of, award_of, run_labeling_resilient, LabeledPair, LabeledSet, LabelingRound,
};
use crate::matcher::{
    build_training_data, debug_labels, select_matcher, train_matcher, MatcherStage,
    TrainedMatcher,
};
use crate::pipeline::{
    score_ids, standard_rules, CaseStudyConfig, EstimateRow, MatcherScore, PatchedCounts,
    TruthScore,
};
use crate::preprocess::{project_umetrics, project_usda};
use crate::resilience::{corrupt_csv, ResilienceReport, RetryPolicy};
use crate::workflow::{EmWorkflow, MatchIds};
use em_blocking::{debug_blocking, BlockingDebugger, CandidateSet, Pair};
use em_datagen::{FlakyOracle, LabelSource, Oracle, PairView, Scenario};
use em_estimate::{estimate_accuracy, AccuracyEstimate, Interval, Label, SampleItem, Z95};
use em_features::{auto_features, Feature, FeatureKind, FeatureSet};
use em_ml::cv::CvResult;
use em_ml::dataset::Imputer;
use em_ml::FittedModel;
use em_rules::{EqualityRule, IrisMatcher, RuleSet};
use em_table::{csv, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashSet;

/// A stage's output type: its name in [`STAGES`](crate::pipeline::STAGES)
/// (and its checkpoint file's) and, through [`Codec`], its checkpoint.
pub(crate) trait Stage: Codec {
    /// The stage name.
    const NAME: &'static str;
}

/// Declares a stage's output struct, its [`Stage`] name and its codec from
/// one list of fields.
macro_rules! stage_output {
    ($(#[$doc:meta])* $ty:ident = $name:literal { $($field:ident: $fty:ty),* $(,)? }) => {
        $(#[$doc])*
        pub(crate) struct $ty { $(pub $field: $fty),* }
        codec_struct!($ty { $($field),* });
        impl Stage for $ty {
            const NAME: &'static str = $name;
        }
    };
}

/// What every stage reads and none writes: the generated scenario (its USDA
/// table re-ingested through quarantine when the fault plan corrupts rows),
/// the projected tables, the M1 rule set and the candidate set. Cheap and
/// deterministic, so it is rebuilt on every run and never checkpointed.
pub(crate) struct Context<'c> {
    /// The run's configuration.
    pub cfg: &'c CaseStudyConfig,
    /// The generated data (USDA after any quarantine).
    pub scenario: Scenario,
    /// USDA rows the quarantine ingest diverted.
    pub quarantined_rows: usize,
    /// Projected initial UMETRICS table.
    pub u: Table,
    /// Projected extra-award UMETRICS table (Section 10's late arrivals).
    pub u_extra: Table,
    /// Projected USDA table.
    pub s: Table,
    /// The sure-match rule set: M1 alone.
    m1_rules: RuleSet,
    /// The consolidated candidate set: set by `blocking`, built on first
    /// use when `blocking` was loaded (too large to checkpoint).
    candidates: OnceCell<CandidateSet>,
}

impl<'c> Context<'c> {
    /// Generates the scenario, quarantines a corrupted USDA export when the
    /// fault plan asks for one, and projects the tables (Section 6).
    /// `ProjectNumber` joins only in Section 10, but carrying it from the
    /// start simplifies the run; the initial rules do not look at it.
    pub fn new(cfg: &'c CaseStudyConfig) -> Result<Context<'c>, CoreError> {
        let mut scenario =
            Scenario::generate(cfg.scenario.clone()).map_err(CoreError::Datagen)?;
        let mut quarantined_rows = 0;
        if cfg.faults.p_corrupt_row > 0.0 {
            // Round-trip USDA through its CSV form, corrupt it with the
            // seeded corruptor, and re-ingest through quarantine: malformed
            // rows are diverted and recorded, not fatal — unless they
            // exceed the abort threshold.
            let clean = csv::write_str(&scenario.usda);
            let dirty = corrupt_csv(&clean, cfg.faults.seed, cfg.faults.p_corrupt_row);
            let out = csv::read_quarantine(
                scenario.usda.name().to_string(),
                &dirty,
                cfg.faults.max_quarantine_fraction,
            )?;
            quarantined_rows = out.quarantined.len();
            scenario.usda = out.table;
        }
        let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let empty_emp = Table::new("emp", scenario.employees.schema().clone());
        let u_extra = project_umetrics(&scenario.extra_award_agg, &empty_emp)?;
        let s = project_usda(&scenario.usda, true)?;
        let m1_rules = RuleSet {
            positive: vec![EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
            negative: vec![],
        };
        Ok(Context {
            cfg,
            scenario,
            quarantined_rows,
            u,
            u_extra,
            s,
            m1_rules,
            candidates: OnceCell::new(),
        })
    }

    /// The simulated expert team.
    fn oracle(&self) -> Oracle<'_> {
        Oracle::new(&self.scenario.truth, self.cfg.oracle)
    }

    /// The consolidated candidate set (blocking is deterministic).
    fn candidates(&self) -> Result<&CandidateSet, CoreError> {
        if let Some(c) = self.candidates.get() {
            return Ok(c);
        }
        let c = run_blocking(&self.u, &self.s, &self.cfg.plan)?.consolidated;
        Ok(self.candidates.get_or_init(|| c))
    }
}

stage_output! {
    /// `setup` — Section 4, understanding the data: Figure 2's table sizes.
    Setup = "setup" { table_summaries: Vec<(String, usize, usize)> }
}

pub(crate) fn setup(ctx: &Context) -> Setup {
    Setup {
        table_summaries: ctx
            .scenario
            .raw_tables()
            .iter()
            .map(|t| (t.name().to_string(), t.n_rows(), t.n_cols()))
            .collect(),
    }
}

stage_output! {
    /// `blocking` — Section 7: the candidate-set algebra, the threshold
    /// sweep, recall against the truth and the blocking-debugger audit.
    Blocking = "blocking" {
        c1: usize, c2: usize, c3: usize, c2_and_c3: usize, c2_only: usize, c3_only: usize,
        consolidated: usize, sweep: Vec<(usize, usize)>, blocking_recall: f64,
        debugger_inspected: usize, debugger_true_matches: usize,
    }
}

pub(crate) fn blocking(ctx: &Context) -> Result<Blocking, CoreError> {
    let (u, s, truth) = (&ctx.u, &ctx.s, &ctx.scenario.truth);
    let blocking = run_blocking(u, s, &ctx.cfg.plan)?;
    let sweep = overlap_threshold_sweep(u, s, &[1, 2, 3, 4, 5, 6, 7])?;
    let blocking_recall = {
        let ids = MatchIds::from_candidates(u, s, &blocking.consolidated)?;
        let initial_truth = truth.n_matches_initial();
        if initial_truth == 0 {
            1.0
        } else {
            let kept = truth
                .iter()
                .filter(|(a, c)| !truth.is_extra_award(a) && ids.contains(a, c))
                .count();
            kept as f64 / initial_truth as f64
        }
    };

    // Blocking-debugger audit (MatchCatcher).
    let debugger = BlockingDebugger::new("AwardTitle", "AwardTitle");
    let debug = debug_blocking(&debugger.with_top_k(ctx.cfg.debugger_top_k), u, s, &blocking.consolidated)?;
    let debugger_true_matches = debug
        .iter()
        .filter(|d| truth.is_match(&award_of(u, d.pair.left), &accession_of(s, d.pair.right)))
        .count();
    let out = Blocking {
        c1: blocking.c1.len(), c2: blocking.c2.len(), c3: blocking.c3.len(),
        c2_and_c3: blocking.c2_and_c3(), c2_only: blocking.c2_only(), c3_only: blocking.c3_only(),
        consolidated: blocking.consolidated.len(),
        sweep, blocking_recall, debugger_inspected: debug.len(), debugger_true_matches,
    };
    let _ = ctx.candidates.set(blocking.consolidated);
    Ok(out)
}

stage_output! {
    /// `labeling` — Section 8: iterative sampling and labeling, and the
    /// ledger of oracle faults it absorbed.
    Labeling = "labeling" {
        labeled: LabeledSet, label_rounds: Vec<LabelingRound>, ledger: ResilienceReport,
    }
}

/// When the fault plan gives the oracle non-zero fault rates, labeling goes
/// through the flaky wrapper with retry/backoff, degrading gracefully to
/// Unsure when retries run out.
pub(crate) fn labeling(ctx: &Context) -> Result<Labeling, CoreError> {
    let cfg = ctx.cfg;
    let (u, s, cands) = (&ctx.u, &ctx.s, ctx.candidates()?);
    let run = |oracle: &dyn LabelSource, retry| {
        run_labeling_resilient(u, s, cands, oracle, &cfg.label_rounds, cfg.seed, retry)
    };
    let (labeled, label_rounds, ledger) =
        if cfg.faults.p_oracle_unavailable > 0.0 || cfg.faults.p_oracle_timeout > 0.0 {
            run(&FlakyOracle::new(ctx.oracle(), cfg.faults.flaky_config()), &cfg.retry)?
        } else {
            run(&ctx.oracle(), &RetryPolicy::none())?
        };
    Ok(Labeling { labeled, label_rounds, ledger })
}

stage_output! {
    /// `label_debug` — Section 8's leave-one-out label debugging (random
    /// forest, as the paper).
    LabelDebug = "label_debug" { label_debug_hits: usize }
}

pub(crate) fn label_debug(ctx: &Context, labeled: &LabeledSet) -> Result<LabelDebug, CoreError> {
    let seed = ctx.cfg.seed;
    let features1 = auto_features(&ctx.u, &ctx.s, &MatcherStage::new(seed).feature_opts);
    let forest = em_ml::forest::RandomForestLearner { seed, ..Default::default() };
    let hits = debug_labels(&ctx.u, &ctx.s, &features1, labeled, &ctx.m1_rules, &forest)?;
    Ok(LabelDebug { label_debug_hits: hits.len() })
}

stage_output! {
    /// `selection` — Section 9's two rounds of matcher selection, and the
    /// round-2 winner fitted on the whole training set.
    Selection = "selection" {
        selection_round1: Vec<MatcherScore>, mismatches_round1: usize,
        selection_round2: Vec<MatcherScore>, matcher: TrainedMatcher,
    }
}

fn scores(ranking: &[CvResult]) -> Vec<MatcherScore> {
    let score = |r: &CvResult| MatcherScore {
        name: r.learner.clone(), precision: r.precision(), recall: r.recall(), f1: r.f1(),
    };
    ranking.iter().map(score).collect()
}

pub(crate) fn selection(ctx: &Context, labeled: &LabeledSet) -> Result<Selection, CoreError> {
    let seed = ctx.cfg.seed;
    let stage1 = MatcherStage::new(seed);
    let features1 = auto_features(&ctx.u, &ctx.s, &stage1.feature_opts);
    let (data1, _) = build_training_data(&ctx.u, &ctx.s, &features1, labeled, &ctx.m1_rules)?;
    let ranking1 = select_matcher(&data1, &stage1)?;
    // Debug the round-1 winner: split-half mismatch mining.
    let top1 = ranking1
        .first()
        .ok_or_else(|| CoreError::Pipeline("matcher selection produced no ranking".into()))?;
    let learners = em_ml::standard_learners(seed);
    let winner1 = learners.iter().find(|l| l.name() == top1.learner).ok_or_else(|| {
        CoreError::Pipeline(format!("round-1 winner {:?} is not a standard learner", top1.learner))
    })?;
    let mismatches_round1 = em_ml::debug::mine_mismatches(winner1.as_ref(), &data1, seed)?.len();
    let (selection_round2, matcher) = fit_round2(ctx, labeled)?;
    Ok(Selection { selection_round1: scores(&ranking1), mismatches_round1, selection_round2, matcher })
}

/// Section 9's round 2: case-insensitive features, the six-learner
/// bake-off, and the winner fitted on the whole training set — the
/// matcher every later stage and the serving tier score with.
pub(crate) fn fit_round2(
    ctx: &Context,
    labeled: &LabeledSet,
) -> Result<(Vec<MatcherScore>, TrainedMatcher), CoreError> {
    let stage2 = MatcherStage::new(ctx.cfg.seed).with_case_insensitive();
    let features2 = auto_features(&ctx.u, &ctx.s, &stage2.feature_opts);
    let (data2, imp2) = build_training_data(&ctx.u, &ctx.s, &features2, labeled, &ctx.m1_rules)?;
    let ranking2 = select_matcher(&data2, &stage2)?;
    let winner = ranking2
        .first()
        .ok_or_else(|| CoreError::Pipeline("matcher selection produced no winner".into()))?;
    let matcher = train_matcher(features2, imp2, &data2, &winner.learner, &stage2)?;
    Ok((scores(&ranking2), matcher))
}

stage_output! {
    /// `matching` — the Figure 8 initial workflow, Section 10's revised
    /// definition and Figure 9 patch, multiplicity, the IRIS baseline and
    /// the Figure 10 negative rules; plus the id sets and pair universes the
    /// estimate and truth stages read.
    Matching = "matching" {
        initial_sure: usize, initial_predicted: usize, initial_total: usize,
        rule2_in_cartesian: usize, rule2_in_candidates: usize, rule2_predicted: usize,
        patched: PatchedCounts, multiplicity: MultiplicityReport, clusters: (usize, usize),
        flipped: usize, final_total: usize, combined: MatchIds, fids: MatchIds,
        iris_ids: MatchIds, universe_orig: Vec<Pair>, universe_patch: Vec<Pair>,
    }
}

pub(crate) fn matching(ctx: &Context, matcher: &TrainedMatcher) -> Result<Matching, CoreError> {
    let (u, u_extra, s, plan) = (&ctx.u, &ctx.u_extra, &ctx.s, ctx.cfg.plan);

    // Figure 8: the initial workflow (M1 + model).
    let initial_wf =
        EmWorkflow { rules: ctx.m1_rules.clone(), plan, matcher, apply_negative: false };
    let initial = initial_wf.run(u, s)?;

    // Section 10: the revised match definition.
    let rule2 = EqualityRule::suffix_equals("award=project", "AwardNumber", "ProjectNumber");
    let rule2_all = rule2.find_all(u, s)?;

    // Figures 9 and 10 from one pair of runs: the patched workflow (full
    // rules + extra data) with its negative rules applied. Figure 9's
    // matches are what it had before the flips, `sure ∪ predicted`; Figure
    // 10's are its `matches`.
    let patched_wf = EmWorkflow { rules: standard_rules(), plan, matcher, apply_negative: true };
    let (orig, patch) = patched_wf.run_patched(u, u_extra, s)?;
    let ids = |of_orig: &CandidateSet, of_patch: &CandidateSet| {
        Ok::<_, CoreError>(
            MatchIds::from_candidates(u, s, of_orig)?
                .union(&MatchIds::from_candidates(u_extra, s, of_patch)?),
        )
    };
    let combined = ids(&orig.sure.union(&orig.predicted), &patch.sure.union(&patch.predicted))?;

    // Section 10: the cluster-level question.
    let cluster_list = cluster_matches(&combined);

    // Section 11 prerequisite: the IRIS baseline.
    let iris = IrisMatcher::standard("AwardNumber", "AwardNumber", "ProjectNumber");
    let u_all = {
        let mut t = u.drop_column("RecordId")?.union(&u_extra.drop_column("RecordId")?)?;
        t.set_name("UMETRICSProjectedAll");
        t.add_id_column("RecordId")?
    };
    let iris_ids = MatchIds::from_candidates(&u_all, s, &iris.predict(&u_all, s)?)?;

    // Section 12: negative rules (Figure 10).
    let fids = ids(&orig.matches, &patch.matches)?;
    Ok(Matching {
        initial_sure: initial.sure.len(),
        initial_predicted: initial.predicted.len(),
        initial_total: initial.matches.len(),
        rule2_in_cartesian: rule2_all.len(),
        rule2_in_candidates: rule2_all.iter().filter(|p| initial.candidates.contains(p)).count(),
        rule2_predicted: rule2_all.iter().filter(|p| initial.predicted.contains(p)).count(),
        patched: PatchedCounts {
            sure_original: orig.sure.len(), sure_extra: patch.sure.len(),
            candidates_original: orig.candidates.len(), candidates_extra: patch.candidates.len(),
            predicted_original: orig.predicted.len(), predicted_extra: patch.predicted.len(),
            total: combined.len(),
        },
        multiplicity: analyze_multiplicity(&combined),
        clusters: (cluster_list.len(), cluster_list.iter().filter(|c| c.is_one_to_one()).count()),
        flipped: orig.flipped.len() + patch.flipped.len(),
        final_total: fids.len(),
        combined, fids, iris_ids,
        universe_orig: orig.universe().to_vec(),
        universe_patch: patch.universe().to_vec(),
    })
}

stage_output! {
    /// `estimate` — Sections 11 and 12: Corleone estimates for ours, IRIS
    /// and the final matcher at each cumulative evaluation-label count.
    Estimate = "estimate" { estimates: Vec<EstimateRow>, final_estimates: Vec<EstimateRow> }
}

/// The identifier-level pair catalog estimation samples from: each
/// `(award, accession)` pair of the evaluation universes over USDA table
/// `s` once, with the UMETRICS table and row pair to build the oracle's
/// view from.
fn pair_catalog<'t>(
    s: &Table,
    universes: [(&'t Table, &[Pair]); 2],
) -> Vec<(String, String, &'t Table, Pair)> {
    let mut seen = HashSet::new();
    let mut entries = Vec::new();
    for (u, pairs) in universes {
        for p in pairs {
            let (award, acc) = (award_of(u, p.left), accession_of(s, p.right));
            if seen.insert((award.clone(), acc.clone())) {
                entries.push((award, acc, u, *p));
            }
        }
    }
    entries
}

pub(crate) fn estimate(ctx: &Context, m: &Matching) -> Result<Estimate, CoreError> {
    let (s, oracle) = (&ctx.s, ctx.oracle());
    let catalog = pair_catalog(s, [(&ctx.u, &m.universe_orig), (&ctx.u_extra, &m.universe_patch)]);
    let mut eval_order: Vec<usize> = (0..catalog.len()).collect();
    eval_order.shuffle(&mut StdRng::seed_from_u64(ctx.cfg.seed ^ 0x5eed));

    let label_item = |idx: usize, predicted: &MatchIds| -> Result<SampleItem, CoreError> {
        let (award, acc, table, pair) = &catalog[idx];
        let row = table.row(pair.left).ok_or_else(|| {
            CoreError::Pipeline(format!("catalog row {} outside {}", pair.left, table.name()))
        })?;
        let srow = s.row(pair.right).ok_or_else(|| {
            CoreError::Pipeline(format!("catalog row {} outside USDA", pair.right))
        })?;
        let view = PairView {
            award_number: award,
            accession: acc,
            left_title: row.str("AwardTitle").unwrap_or(""),
            right_title: srow.str("AwardTitle").unwrap_or(""),
            right_award_number: srow.str("AwardNumber"),
            right_project_number: srow.str("ProjectNumber"),
        };
        Ok(SampleItem { predicted: predicted.contains(award, acc), label: oracle.label(&view) })
    };
    let row = |matcher: &str, n_labels: usize, sample: &[usize], predicted: &MatchIds| {
        let items = sample.iter().map(|&i| label_item(i, predicted)).collect::<Result<Vec<_>, _>>()?;
        let estimate = estimate_accuracy(&items, Z95);
        Ok::<_, CoreError>(EstimateRow { matcher: matcher.to_string(), n_labels, estimate })
    };

    let (mut estimates, mut final_estimates) = (Vec::new(), Vec::new());
    let mut cumulative = 0usize;
    for &round in &ctx.cfg.eval_rounds {
        cumulative = (cumulative + round).min(eval_order.len());
        let sample = &eval_order[..cumulative];
        estimates.push(row("learning", cumulative, sample, &m.combined)?);
        estimates.push(row("IRIS", cumulative, sample, &m.iris_ids)?);
        final_estimates.push(row("learning+rules", cumulative, sample, &m.fids)?);
    }
    Ok(Estimate { estimates, final_estimates })
}

stage_output! {
    /// `truth` — ground-truth scores (generator privilege).
    Truth = "truth" { truth_scores: Vec<(String, TruthScore)> }
}

pub(crate) fn truth(ctx: &Context, m: &Matching) -> Truth {
    let score = |name: &str, ids: &MatchIds| (name.to_string(), score_ids(ids, &ctx.scenario));
    let (iris, learning) = (score("IRIS", &m.iris_ids), score("learning", &m.combined));
    Truth { truth_scores: vec![iris, learning, score("learning+rules", &m.fids)] }
}

// ---- Codecs of the types the outputs hold. em-label's round checkpoints
// (`LabeledSet`) and em-serve's workflow snapshots (`Feature`,
// `BlockingPlan`) use them too. ----

codec_struct!(PatchedCounts {
    sure_original, sure_extra, candidates_original, candidates_extra, predicted_original,
    predicted_extra, total,
});
codec_struct!(MultiplicityReport {
    one_to_one, one_to_many, many_to_one, many_to_many, example_fanout_awards,
});
codec_struct!(ResilienceReport {
    oracle_faults, oracle_retries, degraded_labels, degraded_pairs, total_backoff_ms,
    quarantined_rows, resumed_stages,
});
record_struct!(LabelingRound { sampled, yes, no, unsure, crosscheck_mismatches, corrections });
record_struct!(MatcherScore { name, precision, recall, f1 });
record_struct!(EstimateRow { matcher, n_labels, estimate });
record_struct!(AccuracyEstimate { precision, recall, n_used, n_predicted, n_actual, n_unsure });
record_struct!(Interval { lo, hi });
record_struct!(TruthScore { tp, fp, fn_, precision, recall, f1 });
record_struct!(Pair { left, right });
record_struct!(LabeledPair { pair, label });

impl Record for Label {
    fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>) {
        let text = match self {
            Label::Yes => "yes",
            Label::No => "no",
            Label::Unsure => "unsure",
        };
        out.push(Cow::Borrowed(text));
    }
    fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String> {
        match fields.next() {
            Some("yes") => Ok(Label::Yes),
            Some("no") => Ok(Label::No),
            Some("unsure") => Ok(Label::Unsure),
            other => Err(format!("unknown label {other:?}")),
        }
    }
}

/// A feature is its `(left, right, measure tag, lowercase 1/0)`; the name
/// is regenerated by [`Feature::new`], so it cannot drift from them.
impl Record for Feature {
    fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>) {
        let Feature { name: _, left_attr, right_attr, kind, lowercase } = self;
        let lc = if *lowercase { "1" } else { "0" };
        out.extend([left_attr.as_str(), right_attr, kind.tag(), lc].map(Cow::Borrowed));
    }
    fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String> {
        let (left, right, tag) = <(String, String, String)>::take_fields(fields)?;
        let lowercase = match fields.next() {
            Some("1") => true,
            Some("0") => false,
            other => return Err(format!("bad lowercase flag {other:?}")),
        };
        let kind = FeatureKind::from_tag(&tag).ok_or_else(|| format!("unknown feature tag {tag:?}"))?;
        Ok(Feature::new(left, right, kind, lowercase))
    }
}

impl Codec for LabeledSet {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        self.iter().collect::<Vec<_>>().put(cp, key);
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        let mut set = LabeledSet::new();
        for lp in Vec::<LabeledPair>::get(cp, key)? {
            set.insert(lp.pair, lp.label);
        }
        Ok(set)
    }
}

impl Codec for MatchIds {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        let pairs: Vec<(String, String)> =
            self.iter().map(|(a, c)| (a.to_string(), c.to_string())).collect();
        pairs.put(cp, key);
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        Ok(MatchIds::from_pairs(Vec::<(String, String)>::get(cp, key)?))
    }
}

/// The fitted matcher: its feature plan, the imputer means, the model as
/// `FittedModel::encode` text and the learner's name.
impl Codec for TrainedMatcher {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        let TrainedMatcher { features, imputer, model, learner_name } = self;
        features.features.put(cp, &subkey(key, "features"));
        imputer.means.put(cp, &subkey(key, "imputer_means"));
        cp.put(&subkey(key, "model"), model.encode());
        learner_name.put(cp, &subkey(key, "learner_name"));
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        let features = FeatureSet { features: Codec::get(cp, &subkey(key, "features"))? };
        let means: Vec<f64> = Codec::get(cp, &subkey(key, "imputer_means"))?;
        let corrupt = |e: String| CoreError::Checkpoint(format!("matcher under {key:?}: {e}"));
        let model = FittedModel::decode(cp.get(&subkey(key, "model"))?);
        let model = model.map_err(|e| corrupt(e.to_string()))?;
        // The model and the imputer index rows of the feature plan: a width
        // that disagrees would panic at the first scored pair.
        model.check_width(features.len()).map_err(|e| corrupt(e.to_string()))?;
        if means.len() != features.len() {
            return Err(corrupt(format!("{} imputer means for {} features", means.len(), features.len())));
        }
        let learner_name = Codec::get(cp, &subkey(key, "learner_name"))?;
        Ok(TrainedMatcher { features, imputer: Imputer { means }, model, learner_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CaseStudy, STAGES};
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("em-stages-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn load<T: Stage>(dir: &Path) -> T {
        Checkpoint::load(dir, T::NAME).unwrap().unwrap().decode().unwrap()
    }

    #[test]
    fn serving_artifacts_carry_the_selection_stages_matcher() {
        let dir = tmpdir("serving");
        CaseStudy::new(CaseStudyConfig::small()).run_checkpointed(&dir).unwrap();
        let selection: Selection = load(&dir);
        let ours = &selection.matcher;
        let served =
            CaseStudy::new(CaseStudyConfig::small()).train_serving_artifacts().unwrap().matcher;
        assert_eq!(served.model.encode(), ours.model.encode());
        let bits = |m: &TrainedMatcher| m.imputer.means.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(ours));
        assert_eq!(served.features.names(), ours.features.names());
        assert_eq!(served.learner_name, ours.learner_name);
        assert_eq!(ours.learner_name, selection.selection_round2[0].name);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_selection_checkpoint_off_the_feature_width_is_a_typed_error() {
        let dir = tmpdir("width");
        let mut cfg = CaseStudyConfig::small();
        cfg.faults.crash_after = Some(Selection::NAME.into());
        let crashed = CaseStudy::new(cfg).run_checkpointed(&dir);
        assert!(matches!(crashed, Err(CoreError::InjectedCrash(_))));
        let good = Checkpoint::load(&dir, Selection::NAME).unwrap().unwrap();
        let width = good.decode::<Selection>().unwrap().matcher.features.len();
        // A tree that splits on feature `width`, one past the plan's last.
        let mut wide = good.clone();
        wide.put("matcher.model", format!("tree\nS {width} 0.5 0.0\nL 0.0\nL 1.0\n"));
        // One imputer mean short.
        let mut short = good.clone();
        let means = Vec::<f64>::get(&good, "matcher.imputer_means").unwrap();
        means[1..].to_vec().put(&mut short, "matcher.imputer_means");
        for (what, cp) in [("wide model", wide), ("short imputer", short)] {
            cp.save(&dir, Selection::NAME).unwrap();
            let resumed = CaseStudy::resume(&dir);
            assert!(matches!(resumed, Err(CoreError::Checkpoint(_))), "{what}: {resumed:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Decodes `text` as a `T` and checks that the output's encoding is a
    /// fixed point; `Err` when the bytes do not decode.
    fn fixed_point<T: Codec>(text: &str) -> Result<(), CoreError> {
        let once = Checkpoint::of(&Checkpoint::from_text(text)?.decode::<T>()?);
        let twice = Checkpoint::of(&once.decode::<T>().expect("an encoding decodes"));
        assert_eq!(twice, once, "encode -> decode is not a fixed point");
        Ok(())
    }

    type Check = fn(&str) -> Result<(), CoreError>;

    /// Every stage file and `config.ckpt`, with its decoder.
    const FILES: [(&str, Check); 9] = [
        (Setup::NAME, fixed_point::<Setup>),
        (Blocking::NAME, fixed_point::<Blocking>),
        (Labeling::NAME, fixed_point::<Labeling>),
        (LabelDebug::NAME, fixed_point::<LabelDebug>),
        (Selection::NAME, fixed_point::<Selection>),
        (Matching::NAME, fixed_point::<Matching>),
        (Estimate::NAME, fixed_point::<Estimate>),
        (Truth::NAME, fixed_point::<Truth>),
        ("config", fixed_point::<CaseStudyConfig>),
    ];

    /// Seeded single-byte ASCII mutations (splitmix64), tab and newline
    /// included: `(position, byte)` pairs over a text of `len` bytes.
    fn mutations(len: usize, seed: u64) -> impl Iterator<Item = (usize, u8)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\t', b'\n']).collect();
        std::iter::from_fn(move || Some((next() % len, alphabet[next() % alphabet.len()])))
    }

    fn mutate(text: &str, at: usize, byte: u8) -> String {
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = byte;
        String::from_utf8(bytes).expect("the checkpoints are ASCII")
    }

    /// Every truncation and 4 000 seeded single-byte mutations of each
    /// stage file and `config.ckpt` of one small checkpointed run: each is
    /// a typed error or decodes to an output whose encoding is a fixed
    /// point — never a panic.
    #[test]
    fn hostile_stage_bytes_are_typed_errors_or_fixed_points() {
        let dir = tmpdir("hostile");
        CaseStudy::new(CaseStudyConfig::small()).run_checkpointed(&dir).unwrap();
        let (mut accepted, mut rejected) = (0, 0);
        for (name, check) in FILES {
            let good = std::fs::read_to_string(Checkpoint::path_for(&dir, name)).unwrap();
            assert!(good.is_ascii(), "{name}");
            check(&good).unwrap();
            let mut run = |text: &str, what: &dyn Fn() -> String| {
                match std::panic::catch_unwind(|| check(text)) {
                    Err(_) => panic!("{name}: {} panicked", what()),
                    Ok(Ok(())) => accepted += 1,
                    Ok(Err(_)) => rejected += 1,
                }
            };
            for cut in 0..good.len() {
                run(&good[..cut], &|| format!("truncation at {cut}"));
            }
            for (at, byte) in mutations(good.len(), 20190326).take(4_000) {
                run(&mutate(&good, at, byte), &|| format!("byte {at} set to {:?}", byte as char));
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every truncation and 4 000 seeded single-byte mutations of a small
    /// USDA CSV (the header and six rows of the small scenario's table, the
    /// text `Context::new` ingests when the fault plan corrupts rows) are a
    /// typed `TableError` or a `QuarantineOutcome` — never a panic.
    #[test]
    fn hostile_usda_csv_is_quarantined_or_a_typed_error() {
        let usda = Scenario::generate(em_datagen::ScenarioConfig::small()).unwrap().usda;
        let full = csv::write_str(&usda);
        let good: String = full.split_inclusive('\n').take(7).collect();
        assert!(good.is_ascii());
        let ingest = |text: &str| csv::read_quarantine("USDA", text, 1.0);
        assert_eq!(ingest(&good).unwrap().table.n_rows(), 6);
        let (mut accepted, mut rejected) = (0, 0);
        let mut run = |text: &str, what: &dyn Fn() -> String| {
            match std::panic::catch_unwind(|| ingest(text).map(|out| out.total_rows())) {
                Err(_) => panic!("{} panicked", what()),
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(_)) => rejected += 1,
            }
        };
        for cut in 0..good.len() {
            run(&good[..cut], &|| format!("truncation at {cut}"));
        }
        for (at, byte) in mutations(good.len(), 20190326).take(4_000) {
            run(&mutate(&good, at, byte), &|| format!("byte {at} set to {:?}", byte as char));
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    }

    /// Full resumes over mutated stage files: the directory holds the
    /// stages up to the mutated one, so the later stages run on what it
    /// decoded to. Each resume is a report or a typed error.
    #[test]
    fn resumes_over_mutated_stage_files_are_reports_or_typed_errors() {
        let source = tmpdir("mutated-source");
        CaseStudy::new(CaseStudyConfig::small()).run_checkpointed(&source).unwrap();
        let dir = tmpdir("mutated");
        for (i, (name, check)) in FILES[..STAGES.len()].iter().enumerate() {
            let good = std::fs::read_to_string(Checkpoint::path_for(&source, name)).unwrap();
            // The first two mutations the decoder accepts.
            let accepted = mutations(good.len(), 7 + i as u64)
                .map(|(at, byte)| mutate(&good, at, byte))
                .filter(|text| *text != good && check(text).is_ok())
                .take(2);
            for text in accepted {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                for kept in STAGES[..i].iter().chain(["config"].iter()) {
                    let from = Checkpoint::path_for(&source, kept);
                    std::fs::copy(from, Checkpoint::path_for(&dir, kept)).unwrap();
                }
                std::fs::write(Checkpoint::path_for(&dir, name), &text).unwrap();
                let resumed = std::panic::catch_unwind(|| CaseStudy::resume(&dir));
                assert!(resumed.is_ok(), "{name}: resume panicked over\n{text}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&source);
    }
}
