//! The end-to-end case study (Sections 4–12), orchestrated.
//!
//! [`CaseStudy::run`] replays the whole paper on a generated scenario:
//! understanding the data → blocking (with the footnote-3 accounting and
//! the threshold sweep) → blocking-debugger audit → iterative labeling with
//! the first-round cross-check → leave-one-out label debugging → two-round
//! matcher selection (case-sensitive, then + case-insensitive features) →
//! the Figure 8 initial workflow → the Section 10 complications (revised
//! match definition, extra data) via the Figure 9 patch → Corleone accuracy
//! estimation at 200 and 400 labels, ours vs IRIS → the Figure 10 negative
//! rules. The resulting [`CaseStudyReport`] carries every number the
//! paper's narrative quotes, plus ground-truth scores the paper could not
//! compute (we own the generator).

use crate::analysis::{analyze_multiplicity, cluster_matches, MultiplicityReport};
use crate::blocking_plan::{overlap_threshold_sweep, run_blocking, BlockingPlan};
use crate::checkpoint::Checkpoint;
use crate::error::CoreError;
use crate::labeling::{accession_of, award_of, run_labeling_resilient, LabeledSet, LabelingRound};
use crate::matcher::{build_training_data, debug_labels, select_matcher, train_matcher, MatcherStage};
use crate::preprocess::{project_umetrics, project_usda};
use crate::resilience::{corrupt_csv, FaultPlan, ResilienceReport, RetryPolicy, ServeFaultPlan};
use crate::workflow::{EmWorkflow, MatchIds};
use em_blocking::{debug_blocking, BlockingDebugger, CandidateSet, Pair};
use em_datagen::{FlakyOracle, Oracle, OracleConfig, PairView, Scenario, ScenarioConfig};
use em_estimate::{estimate_accuracy, AccuracyEstimate, Interval, Label, SampleItem, Z95};
use em_rules::{EqualityRule, IrisMatcher, RuleKeyKind, RuleSet, RuleSetDesc};
use em_table::{csv, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;

/// Configuration of a full case-study run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyConfig {
    /// Scenario (data) configuration.
    pub scenario: ScenarioConfig,
    /// Labeling-oracle behaviour.
    pub oracle: OracleConfig,
    /// Pipeline seed (sampling, CV, stochastic learners).
    pub seed: u64,
    /// Blocking-plan parameters.
    pub plan: BlockingPlan,
    /// Training-label rounds (paper: 100 + 100 + 100).
    pub label_rounds: Vec<usize>,
    /// Evaluation-label rounds for estimation (paper: 200 + 200).
    pub eval_rounds: Vec<usize>,
    /// Blocking-debugger audit size (paper: top 100).
    pub debugger_top_k: usize,
    /// Retry/backoff policy for fallible labeling calls.
    pub retry: RetryPolicy,
    /// Fault-injection plan (the no-op [`FaultPlan::none`] by default).
    pub faults: FaultPlan,
}

impl CaseStudyConfig {
    /// Paper-scale configuration.
    pub fn paper() -> CaseStudyConfig {
        CaseStudyConfig {
            scenario: ScenarioConfig::paper(),
            oracle: OracleConfig::default(),
            seed: 42,
            plan: BlockingPlan::default(),
            label_rounds: vec![100, 100, 100],
            eval_rounds: vec![200, 200],
            debugger_top_k: 100,
            retry: RetryPolicy::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Small configuration for tests. The scenario seed is chosen so the
    /// downsized data still reproduces the paper's qualitative results
    /// (high blocking recall, IRIS precision ≈ 1, negative rules helping).
    pub fn small() -> CaseStudyConfig {
        CaseStudyConfig {
            scenario: ScenarioConfig::small().with_seed(7),
            label_rounds: vec![60, 40],
            eval_rounds: vec![60, 60],
            debugger_top_k: 30,
            ..CaseStudyConfig::paper()
        }
    }
}

/// One matcher's cross-validation scores.
#[derive(Debug, Clone, PartialEq)]
pub struct MatcherScore {
    /// Learner name.
    pub name: String,
    /// Mean CV precision.
    pub precision: f64,
    /// Mean CV recall.
    pub recall: f64,
    /// Mean CV F1 (the selection criterion).
    pub f1: f64,
}

/// Ground-truth evaluation of one match list.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthScore {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// Missed true matches.
    pub fn_: usize,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1.
    pub f1: f64,
}

/// One Corleone estimate row.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRow {
    /// Which matcher.
    pub matcher: String,
    /// Labels used.
    pub n_labels: usize,
    /// The estimate.
    pub estimate: AccuracyEstimate,
}

/// Counts from the patched (Figure 9) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchedCounts {
    /// Sure matches from the original tables (paper: 683).
    pub sure_original: usize,
    /// Sure matches from the extra records (paper: 55).
    pub sure_extra: usize,
    /// Candidate pairs from the original tables after removing sure
    /// matches (paper: 2,556).
    pub candidates_original: usize,
    /// Candidate pairs from the extra records (paper: 1,220).
    pub candidates_extra: usize,
    /// Model matches from the original tables (paper: 399).
    pub predicted_original: usize,
    /// Model matches from the extra records (paper: 0).
    pub predicted_extra: usize,
    /// Total matches (paper: 1,137).
    pub total: usize,
}

/// Everything a full run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyReport {
    /// Figure 2: `(table name, rows, cols)` for the seven raw tables.
    pub table_summaries: Vec<(String, usize, usize)>,
    /// Section 7: `|C1|`.
    pub c1: usize,
    /// `|C2|` (paper: 2,937).
    pub c2: usize,
    /// `|C3|` (paper: 1,375).
    pub c3: usize,
    /// `|C2 ∩ C3|` (paper: 1,140).
    pub c2_and_c3: usize,
    /// `|C2 − C3|` (paper: 1,797).
    pub c2_only: usize,
    /// `|C3 − C2|` (paper: 235).
    pub c3_only: usize,
    /// `|C1 ∪ C2 ∪ C3|` (paper: 3,177).
    pub consolidated: usize,
    /// Overlap-threshold sweep `(K, |C2(K)|)` (paper: K=1 → 200K, K=7 →
    /// hundreds).
    pub sweep: Vec<(usize, usize)>,
    /// Blocking recall against ground truth (not observable in the paper).
    pub blocking_recall: f64,
    /// Debugger audit: pairs inspected.
    pub debugger_inspected: usize,
    /// Debugger audit: how many of those were true matches (paper: top
    /// pairs "were not matches").
    pub debugger_true_matches: usize,
    /// Section 8 labeling rounds.
    pub label_rounds: Vec<LabelingRound>,
    /// Final training-label counts `(yes, no, unsure)` (paper: 68/200/32).
    pub label_counts: (usize, usize, usize),
    /// Leave-one-out label-debug hits (the D1–D3 lead list).
    pub label_debug_hits: usize,
    /// Section 9 selection, round 1 (case-sensitive features only).
    pub selection_round1: Vec<MatcherScore>,
    /// Split-half mismatches mined with the round-1 winner (what motivated
    /// the case-insensitive features).
    pub mismatches_round1: usize,
    /// Section 9 selection, round 2 (+ case-insensitive features; paper:
    /// decision tree wins at P=97%, R=95%, F1≈95%).
    pub selection_round2: Vec<MatcherScore>,
    /// Figure 8: sure (M1) matches (paper: 210).
    pub initial_sure: usize,
    /// Figure 8: model-predicted matches (paper: 807).
    pub initial_predicted: usize,
    /// Figure 8: total (paper: 1,017).
    pub initial_total: usize,
    /// Section 10: pairs satisfying the new positive rule in `A × B`
    /// (paper: 473).
    pub rule2_in_cartesian: usize,
    /// … of which inside the candidate set `C` (paper: 411).
    pub rule2_in_candidates: usize,
    /// … of which the model already predicted as matches (paper: 397).
    pub rule2_predicted: usize,
    /// Figure 9 patched-run counts.
    pub patched: PatchedCounts,
    /// Section 10's multiplicity analysis of the combined matches (the
    /// "should we match at the cluster level?" numbers).
    pub multiplicity: MultiplicityReport,
    /// Cluster-level view: total clusters and how many are plain 1:1.
    pub clusters: (usize, usize),
    /// Section 11 estimates: ours and IRIS at each cumulative label count.
    pub estimates: Vec<EstimateRow>,
    /// Section 12 estimates for the final (learning + negative rules)
    /// matcher.
    pub final_estimates: Vec<EstimateRow>,
    /// Predictions flipped by the negative rules.
    pub flipped: usize,
    /// Final match count (paper: 845).
    pub final_total: usize,
    /// Ground-truth scores: `(matcher name, score)` for IRIS,
    /// learning-only, and learning + negative rules.
    pub truth_scores: Vec<(String, TruthScore)>,
    /// Ledger of faults absorbed, rows quarantined, and stages resumed
    /// (empty/default on a clean, uninterrupted run).
    pub resilience: ResilienceReport,
}

/// The declarative description of the final workflow's rule set — the
/// single source of truth for both [`standard_rules`] and the serialized
/// form workflow snapshots persist.
pub fn standard_rule_descs() -> RuleSetDesc {
    RuleSetDesc::new()
        .positive(RuleKeyKind::Suffix, "M1", "AwardNumber", "AwardNumber")
        .positive(RuleKeyKind::Suffix, "award=project", "AwardNumber", "ProjectNumber")
        .negative(RuleKeyKind::Suffix, "neg:award", "AwardNumber", "AwardNumber")
        .negative(RuleKeyKind::Suffix, "neg:project", "AwardNumber", "ProjectNumber")
}

/// The standard rule set of the final workflow.
pub fn standard_rules() -> RuleSet {
    standard_rule_descs().build()
}

/// Scores a match list against ground truth. Recall counts every true
/// match whose award exists in the delivered data (initial + extra).
pub fn score_ids(ids: &MatchIds, scenario: &Scenario) -> TruthScore {
    let mut tp = 0usize;
    let mut fp = 0usize;
    for (award, acc) in ids.iter() {
        if scenario.truth.is_match(award, acc) {
            tp += 1;
        } else {
            fp += 1;
        }
    }
    let fn_ = scenario.truth.len() - tp;
    let precision = if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 1.0 } else { tp as f64 / (tp + fn_) as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    TruthScore { tp, fp, fn_, precision, recall, f1 }
}

impl std::fmt::Display for CaseStudyReport {
    /// Renders the run as the narrative summary a teammate would read:
    /// one line per pipeline stage, outcomes first.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "end-to-end entity-matching run")?;
        writeln!(
            f,
            "  data: {} tables; blocking C1={} C2={} C3={} -> |C|={} (recall {:.1}%)",
            self.table_summaries.len(),
            self.c1,
            self.c2,
            self.c3,
            self.consolidated,
            100.0 * self.blocking_recall
        )?;
        let (y, n, u) = self.label_counts;
        writeln!(
            f,
            "  labels: {y} yes / {n} no / {u} unsure over {} rounds; {} LOO debug leads",
            self.label_rounds.len(),
            self.label_debug_hits
        )?;
        if let Some(best) = self.selection_round2.first() {
            writeln!(
                f,
                "  matcher: {} (F1 {:.1}% in 5-fold CV; round-1 winner {})",
                best.name,
                100.0 * best.f1,
                self.selection_round1.first().map(|m| m.name.as_str()).unwrap_or("-")
            )?;
        }
        writeln!(
            f,
            "  matches: {} initial -> {} after patch (+rules) -> {} final ({} flipped by negative rules)",
            self.initial_total, self.patched.total, self.final_total, self.flipped
        )?;
        writeln!(
            f,
            "  multiplicity: {:.1}% of matches not one-to-one across {} clusters",
            100.0 * self.multiplicity.non_one_to_one_rate(),
            self.clusters.0
        )?;
        if !self.resilience.is_clean() {
            let r = &self.resilience;
            writeln!(
                f,
                "  resilience: {} oracle faults ({} retries, {} ms backoff), {} labels degraded, {} rows quarantined, {} stages resumed",
                r.oracle_faults,
                r.oracle_retries,
                r.total_backoff_ms,
                r.degraded_labels,
                r.quarantined_rows,
                r.resumed_stages.len()
            )?;
        }
        for (name, score) in &self.truth_scores {
            writeln!(
                f,
                "  truth[{name}]: P={:.1}% R={:.1}% F1={:.1}%",
                100.0 * score.precision,
                100.0 * score.recall,
                100.0 * score.f1
            )?;
        }
        Ok(())
    }
}

/// The pipeline stages, in execution order. [`FaultPlan::crash_after`]
/// accepts any of these names, and each gets a `<stage>.ckpt` file in a
/// checkpointed run.
pub const STAGES: [&str; 8] = [
    "setup", "blocking", "labeling", "label_debug", "selection", "matching", "estimate", "truth",
];

/// Stage-name prefix of the label-efficient training loops layered on this
/// pipeline (the `em-label` crate): each active-learning round checkpoints
/// under its own stage name so a crash mid-loop resumes from the last
/// completed round.
pub const AL_ROUND_PREFIX: &str = "al_round_";

/// The checkpoint stage name of active-learning round `round` (zero-based,
/// fixed-width so stage files list in round order).
pub fn al_stage_name(round: usize) -> String {
    format!("{AL_ROUND_PREFIX}{round:04}")
}

// ---- Checkpoint (de)serialization helpers. Every decoder returns a
// Checkpoint error naming the offending key/field, never panics. ----

fn field<'a>(rec: &'a [String], i: usize, key: &str) -> Result<&'a str, CoreError> {
    rec.get(i).map(String::as_str).ok_or_else(|| {
        CoreError::Checkpoint(format!("record under {key:?} is missing field {i}"))
    })
}

fn parse_field<T: std::str::FromStr>(rec: &[String], i: usize, key: &str) -> Result<T, CoreError> {
    let raw = field(rec, i, key)?;
    raw.parse::<T>().map_err(|_| {
        CoreError::Checkpoint(format!("field {i} of a {key:?} record holds unparseable {raw:?}"))
    })
}

fn label_text(label: Label) -> &'static str {
    match label {
        Label::Yes => "yes",
        Label::No => "no",
        Label::Unsure => "unsure",
    }
}

fn label_from_text(s: &str) -> Result<Label, CoreError> {
    match s {
        "yes" => Ok(Label::Yes),
        "no" => Ok(Label::No),
        "unsure" => Ok(Label::Unsure),
        other => Err(CoreError::Checkpoint(format!("unknown label {other:?}"))),
    }
}

fn put_pairs(cp: &mut Checkpoint, key: &str, pairs: &[Pair]) {
    let recs: Vec<Vec<String>> =
        pairs.iter().map(|p| vec![p.left.to_string(), p.right.to_string()]).collect();
    cp.put_records(key, &recs);
}

fn get_pairs(cp: &Checkpoint, key: &str) -> Result<Vec<Pair>, CoreError> {
    cp.get_records(key)?
        .iter()
        .map(|r| Ok(Pair::new(parse_field(r, 0, key)?, parse_field(r, 1, key)?)))
        .collect()
}

fn put_ids(cp: &mut Checkpoint, key: &str, ids: &MatchIds) {
    let recs: Vec<Vec<String>> =
        ids.iter().map(|(a, c)| vec![a.to_string(), c.to_string()]).collect();
    cp.put_records(key, &recs);
}

fn get_ids(cp: &Checkpoint, key: &str) -> Result<MatchIds, CoreError> {
    let mut pairs = Vec::new();
    for r in cp.get_records(key)? {
        pairs.push((field(&r, 0, key)?.to_string(), field(&r, 1, key)?.to_string()));
    }
    Ok(MatchIds::from_pairs(pairs))
}

fn put_scores(cp: &mut Checkpoint, key: &str, scores: &[MatcherScore]) {
    let recs: Vec<Vec<String>> = scores
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:?}", s.precision),
                format!("{:?}", s.recall),
                format!("{:?}", s.f1),
            ]
        })
        .collect();
    cp.put_records(key, &recs);
}

fn get_scores(cp: &Checkpoint, key: &str) -> Result<Vec<MatcherScore>, CoreError> {
    cp.get_records(key)?
        .iter()
        .map(|r| {
            Ok(MatcherScore {
                name: field(r, 0, key)?.to_string(),
                precision: parse_field(r, 1, key)?,
                recall: parse_field(r, 2, key)?,
                f1: parse_field(r, 3, key)?,
            })
        })
        .collect()
}

fn put_estimates(cp: &mut Checkpoint, key: &str, rows: &[EstimateRow]) {
    let recs: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.matcher.clone(),
                r.n_labels.to_string(),
                format!("{:?}", r.estimate.precision.lo),
                format!("{:?}", r.estimate.precision.hi),
                format!("{:?}", r.estimate.recall.lo),
                format!("{:?}", r.estimate.recall.hi),
                r.estimate.n_used.to_string(),
                r.estimate.n_predicted.to_string(),
                r.estimate.n_actual.to_string(),
                r.estimate.n_unsure.to_string(),
            ]
        })
        .collect();
    cp.put_records(key, &recs);
}

fn get_estimates(cp: &Checkpoint, key: &str) -> Result<Vec<EstimateRow>, CoreError> {
    cp.get_records(key)?
        .iter()
        .map(|r| {
            Ok(EstimateRow {
                matcher: field(r, 0, key)?.to_string(),
                n_labels: parse_field(r, 1, key)?,
                estimate: AccuracyEstimate {
                    precision: Interval {
                        lo: parse_field(r, 2, key)?,
                        hi: parse_field(r, 3, key)?,
                    },
                    recall: Interval { lo: parse_field(r, 4, key)?, hi: parse_field(r, 5, key)? },
                    n_used: parse_field(r, 6, key)?,
                    n_predicted: parse_field(r, 7, key)?,
                    n_actual: parse_field(r, 8, key)?,
                    n_unsure: parse_field(r, 9, key)?,
                },
            })
        })
        .collect()
}

fn put_rounds(cp: &mut Checkpoint, key: &str, rounds: &[LabelingRound]) {
    let recs: Vec<Vec<String>> = rounds
        .iter()
        .map(|r| {
            vec![
                r.sampled.to_string(),
                r.yes.to_string(),
                r.no.to_string(),
                r.unsure.to_string(),
                r.crosscheck_mismatches.to_string(),
                r.corrections.to_string(),
            ]
        })
        .collect();
    cp.put_records(key, &recs);
}

fn get_rounds(cp: &Checkpoint, key: &str) -> Result<Vec<LabelingRound>, CoreError> {
    cp.get_records(key)?
        .iter()
        .map(|r| {
            Ok(LabelingRound {
                sampled: parse_field(r, 0, key)?,
                yes: parse_field(r, 1, key)?,
                no: parse_field(r, 2, key)?,
                unsure: parse_field(r, 3, key)?,
                crosscheck_mismatches: parse_field(r, 4, key)?,
                corrections: parse_field(r, 5, key)?,
            })
        })
        .collect()
}

fn usize_list(values: &[usize]) -> String {
    values.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
}

fn parse_usize_list(raw: &str) -> Result<Vec<usize>, CoreError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| CoreError::Checkpoint(format!("bad round size {s:?}")))
        })
        .collect()
}

/// Serializes the full configuration: the `config.ckpt` guard that ties a
/// checkpoint directory to exactly one configuration and lets
/// [`CaseStudy::resume`] reconstruct the runner from the directory alone.
fn config_checkpoint(cfg: &CaseStudyConfig) -> Checkpoint {
    let mut cp = Checkpoint::new();
    let sc = &cfg.scenario;
    cp.put_display("scenario.seed", sc.seed);
    cp.put_display("scenario.n_awards", sc.n_awards);
    cp.put_display("scenario.n_extra_awards", sc.n_extra_awards);
    cp.put_display("scenario.n_usda", sc.n_usda);
    cp.put_display("scenario.n_employees", sc.n_employees);
    cp.put_display("scenario.n_vendors", sc.n_vendors);
    cp.put_display("scenario.n_subawards", sc.n_subawards);
    cp.put_display("scenario.n_object_codes", sc.n_object_codes);
    cp.put_display("scenario.n_org_units", sc.n_org_units);
    cp.put_f64("scenario.frac_federal", sc.frac_federal);
    cp.put_f64("scenario.p_in_usda", sc.p_in_usda);
    cp.put_f64("scenario.p_two_records", sc.p_two_records);
    cp.put_f64("scenario.p_three_records", sc.p_three_records);
    cp.put_f64("scenario.p_federal_award_present", sc.p_federal_award_present);
    cp.put_f64("scenario.p_project_number_present", sc.p_project_number_present);
    cp.put_f64("scenario.p_generic_title", sc.p_generic_title);
    cp.put_f64("scenario.p_title_typo", sc.p_title_typo);
    cp.put_f64("scenario.p_filler_multistate_clone", sc.p_filler_multistate_clone);
    cp.put_f64("scenario.p_sibling_title", sc.p_sibling_title);
    cp.put_f64("scenario.p_wrong_project_number", sc.p_wrong_project_number);
    cp.put_f64("scenario.p_usda_title_garbled", sc.p_usda_title_garbled);
    cp.put_f64("scenario.p_director_missing", sc.p_director_missing);
    cp.put_f64("scenario.p_director_unlisted", sc.p_director_unlisted);
    let oc = &cfg.oracle;
    cp.put_display("oracle.seed", oc.seed);
    cp.put_f64("oracle.p_unsure_generic", oc.p_unsure_generic);
    cp.put_f64("oracle.p_unsure_similar", oc.p_unsure_similar);
    cp.put_f64("oracle.p_initial_miss", oc.p_initial_miss);
    cp.put_f64("oracle.p_initial_waffle", oc.p_initial_waffle);
    cp.put_display("seed", cfg.seed);
    cp.put_display("plan.overlap_k", cfg.plan.overlap_k);
    cp.put_f64("plan.oc_threshold", cfg.plan.oc_threshold);
    cp.put("label_rounds", usize_list(&cfg.label_rounds));
    cp.put("eval_rounds", usize_list(&cfg.eval_rounds));
    cp.put_display("debugger_top_k", cfg.debugger_top_k);
    cp.put_display("retry.max_retries", cfg.retry.max_retries);
    cp.put_display("retry.base_delay_ms", cfg.retry.base_delay_ms);
    cp.put_display("retry.max_delay_ms", cfg.retry.max_delay_ms);
    cp.put_display("retry.jitter_seed", cfg.retry.jitter_seed);
    cp.put_display("faults.seed", cfg.faults.seed);
    cp.put_f64("faults.p_oracle_unavailable", cfg.faults.p_oracle_unavailable);
    cp.put_f64("faults.p_oracle_timeout", cfg.faults.p_oracle_timeout);
    cp.put_display("faults.max_fault_attempts", cfg.faults.max_fault_attempts);
    cp.put_f64("faults.p_corrupt_row", cfg.faults.p_corrupt_row);
    cp.put_f64("faults.max_quarantine_fraction", cfg.faults.max_quarantine_fraction);
    cp.put("faults.crash_after", cfg.faults.crash_after.clone().unwrap_or_default());
    cp.put_f64("faults.serve.p_crash", cfg.faults.serve.p_crash);
    cp.put_f64("faults.serve.p_torn_tail", cfg.faults.serve.p_torn_tail);
    cp.put_f64("faults.serve.p_snapshot_corrupt", cfg.faults.serve.p_snapshot_corrupt);
    cp.put_f64("faults.serve.p_latency_spike", cfg.faults.serve.p_latency_spike);
    cp.put_display("faults.serve.latency_spike_ms", cfg.faults.serve.latency_spike_ms);
    cp.put_f64("faults.serve.p_burst", cfg.faults.serve.p_burst);
    cp.put_display("faults.serve.burst_len", cfg.faults.serve.burst_len);
    cp.put_display("faults.serve.swap_every", cfg.faults.serve.swap_every);
    cp
}

fn config_from_checkpoint(cp: &Checkpoint) -> Result<CaseStudyConfig, CoreError> {
    let scenario = ScenarioConfig {
        seed: cp.get_parsed("scenario.seed")?,
        n_awards: cp.get_parsed("scenario.n_awards")?,
        n_extra_awards: cp.get_parsed("scenario.n_extra_awards")?,
        n_usda: cp.get_parsed("scenario.n_usda")?,
        n_employees: cp.get_parsed("scenario.n_employees")?,
        n_vendors: cp.get_parsed("scenario.n_vendors")?,
        n_subawards: cp.get_parsed("scenario.n_subawards")?,
        n_object_codes: cp.get_parsed("scenario.n_object_codes")?,
        n_org_units: cp.get_parsed("scenario.n_org_units")?,
        frac_federal: cp.get_parsed("scenario.frac_federal")?,
        p_in_usda: cp.get_parsed("scenario.p_in_usda")?,
        p_two_records: cp.get_parsed("scenario.p_two_records")?,
        p_three_records: cp.get_parsed("scenario.p_three_records")?,
        p_federal_award_present: cp.get_parsed("scenario.p_federal_award_present")?,
        p_project_number_present: cp.get_parsed("scenario.p_project_number_present")?,
        p_generic_title: cp.get_parsed("scenario.p_generic_title")?,
        p_title_typo: cp.get_parsed("scenario.p_title_typo")?,
        p_filler_multistate_clone: cp.get_parsed("scenario.p_filler_multistate_clone")?,
        p_sibling_title: cp.get_parsed("scenario.p_sibling_title")?,
        p_wrong_project_number: cp.get_parsed("scenario.p_wrong_project_number")?,
        p_usda_title_garbled: cp.get_parsed("scenario.p_usda_title_garbled")?,
        p_director_missing: cp.get_parsed("scenario.p_director_missing")?,
        p_director_unlisted: cp.get_parsed("scenario.p_director_unlisted")?,
    };
    let oracle = OracleConfig {
        seed: cp.get_parsed("oracle.seed")?,
        p_unsure_generic: cp.get_parsed("oracle.p_unsure_generic")?,
        p_unsure_similar: cp.get_parsed("oracle.p_unsure_similar")?,
        p_initial_miss: cp.get_parsed("oracle.p_initial_miss")?,
        p_initial_waffle: cp.get_parsed("oracle.p_initial_waffle")?,
    };
    let crash_after = cp.get("faults.crash_after")?.to_string();
    Ok(CaseStudyConfig {
        scenario,
        oracle,
        seed: cp.get_parsed("seed")?,
        plan: BlockingPlan {
            overlap_k: cp.get_parsed("plan.overlap_k")?,
            oc_threshold: cp.get_parsed("plan.oc_threshold")?,
        },
        label_rounds: parse_usize_list(cp.get("label_rounds")?)?,
        eval_rounds: parse_usize_list(cp.get("eval_rounds")?)?,
        debugger_top_k: cp.get_parsed("debugger_top_k")?,
        retry: RetryPolicy {
            max_retries: cp.get_parsed("retry.max_retries")?,
            base_delay_ms: cp.get_parsed("retry.base_delay_ms")?,
            max_delay_ms: cp.get_parsed("retry.max_delay_ms")?,
            jitter_seed: cp.get_parsed("retry.jitter_seed")?,
        },
        faults: FaultPlan {
            seed: cp.get_parsed("faults.seed")?,
            p_oracle_unavailable: cp.get_parsed("faults.p_oracle_unavailable")?,
            p_oracle_timeout: cp.get_parsed("faults.p_oracle_timeout")?,
            max_fault_attempts: cp.get_parsed("faults.max_fault_attempts")?,
            p_corrupt_row: cp.get_parsed("faults.p_corrupt_row")?,
            max_quarantine_fraction: cp.get_parsed("faults.max_quarantine_fraction")?,
            crash_after: if crash_after.is_empty() { None } else { Some(crash_after) },
            serve: ServeFaultPlan {
                p_crash: cp.get_parsed("faults.serve.p_crash")?,
                p_torn_tail: cp.get_parsed("faults.serve.p_torn_tail")?,
                p_snapshot_corrupt: cp.get_parsed("faults.serve.p_snapshot_corrupt")?,
                p_latency_spike: cp.get_parsed("faults.serve.p_latency_spike")?,
                latency_spike_ms: cp.get_parsed("faults.serve.latency_spike_ms")?,
                p_burst: cp.get_parsed("faults.serve.p_burst")?,
                burst_len: cp.get_parsed("faults.serve.burst_len")?,
                swap_every: cp.get_parsed("faults.serve.swap_every")?,
            },
        },
    })
}

/// Saves (when checkpointing) and then, if the fault plan says so, crashes —
/// *after* the save, so the injected crash always leaves a resumable
/// directory behind.
fn finish_stage(
    dir: Option<&Path>,
    faults: &FaultPlan,
    stage: &str,
    cp: &Checkpoint,
) -> Result<(), CoreError> {
    if let Some(d) = dir {
        cp.save(d, stage)?;
    }
    if faults.crash_after.as_deref() == Some(stage) {
        return Err(CoreError::InjectedCrash(stage.to_string()));
    }
    Ok(())
}

fn load_stage(dir: Option<&Path>, stage: &str) -> Result<Option<Checkpoint>, CoreError> {
    match dir {
        Some(d) => Checkpoint::load(d, stage),
        None => Ok(None),
    }
}

/// The case study runner.
pub struct CaseStudy {
    cfg: CaseStudyConfig,
}

/// Identifier-level pair catalog used for estimation sampling: which
/// `(award, accession)` pairs exist in the evaluation universe, and the
/// row coordinates to build the oracle's view from.
struct PairCatalog<'t> {
    entries: Vec<(String, String, &'t Table, Pair)>,
}

impl<'t> PairCatalog<'t> {
    fn build(
        universes: &[(&'t Table, &'t Table, Vec<Pair>)],
    ) -> PairCatalog<'t> {
        let mut seen: HashMap<(String, String), usize> = HashMap::new();
        let mut entries = Vec::new();
        for (u, s, pairs) in universes {
            for p in pairs {
                let award = award_of(u, p.left);
                let acc = accession_of(s, p.right);
                let key = (award.clone(), acc.clone());
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
                    e.insert(entries.len());
                    // The USDA table is shared; store the UMETRICS side.
                    entries.push((award, acc, *u, *p));
                }
            }
        }
        PairCatalog { entries }
    }
}

impl CaseStudy {
    /// Creates a runner.
    pub fn new(cfg: CaseStudyConfig) -> CaseStudy {
        CaseStudy { cfg }
    }

    /// Replays the whole case study uninterrupted (no checkpoints).
    /// Deterministic in the configured seeds — including any injected
    /// faults, which are themselves seeded.
    pub fn run(&self) -> Result<CaseStudyReport, CoreError> {
        self.run_stages(None)
    }

    /// Like [`CaseStudy::run`], checkpointing every stage into `dir`.
    ///
    /// A fresh directory gets a `config.ckpt` guard first; re-running over
    /// a directory written by a *different* configuration is an error.
    /// Stages already checkpointed are loaded instead of recomputed, so a
    /// run killed after any stage picks up where it left off and produces a
    /// report bit-identical (modulo `resilience.resumed_stages`) to an
    /// uninterrupted run.
    pub fn run_checkpointed(&self, dir: &Path) -> Result<CaseStudyReport, CoreError> {
        let mine = config_checkpoint(&self.cfg);
        match Checkpoint::load(dir, "config")? {
            Some(stored) if stored != mine => {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint directory {dir:?} belongs to a different configuration"
                )))
            }
            Some(_) => {}
            None => mine.save(dir, "config")?,
        }
        self.run_stages(Some(dir))
    }

    /// Resumes a checkpointed run from `dir` alone: the configuration is
    /// reconstructed from the `config.ckpt` guard, completed stages load
    /// from their checkpoints, and the rest recompute.
    pub fn resume(dir: &Path) -> Result<CaseStudyReport, CoreError> {
        let stored = Checkpoint::load(dir, "config")?.ok_or_else(|| {
            CoreError::Checkpoint(format!("no config checkpoint in {dir:?} to resume from"))
        })?;
        let cfg = config_from_checkpoint(&stored)?;
        CaseStudy::new(cfg).run_stages(Some(dir))
    }

    /// The staged runner behind [`CaseStudy::run`] and friends. Each stage
    /// either loads its checkpoint (when `dir` has one) or executes and
    /// saves. The scenario, projections, and oracle are *context*, not a
    /// stage: they are cheap, deterministic, and regenerated every run.
    fn run_stages(&self, dir: Option<&Path>) -> Result<CaseStudyReport, CoreError> {
        let cfg = &self.cfg;
        let mut resilience = ResilienceReport::default();

        // ---- Eager context. ----
        let mut scenario =
            Scenario::generate(cfg.scenario.clone()).map_err(CoreError::Datagen)?;
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
            resilience.quarantined_rows = out.quarantined.len();
            scenario.usda = out.table;
        }
        let oracle = Oracle::new(&scenario.truth, cfg.oracle);

        // ---- Section 6: pre-processing. ProjectNumber joins later
        // (Section 10), but carrying it from the start simplifies the run;
        // the initial rules simply do not look at it. ----
        let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let empty_emp = Table::new("emp", scenario.employees.schema().clone());
        let u_extra = project_umetrics(&scenario.extra_award_agg, &empty_emp)?;
        let s = project_usda(&scenario.usda, true)?;

        let m1_rules = RuleSet {
            positive: vec![EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
            negative: vec![],
        };

        // Cross-stage carriers: produced by one stage, consumed by later
        // ones — decoded from the producing stage's checkpoint on resume.
        // The candidate set is the exception: too large to checkpoint, it
        // is recomputed lazily (blocking is deterministic) when a later
        // stage needs it and blocking itself was loaded.
        let mut candidates: Option<CandidateSet> = None;
        let labeled_slot: Option<LabeledSet>;
        let combined_slot: Option<MatchIds>;
        let fids_slot: Option<MatchIds>;
        let iris_slot: Option<MatchIds>;
        let universe_orig: Vec<Pair>;
        let universe_patch: Vec<Pair>;
        let mut resumed: Vec<String> = Vec::new();

        // Report fields, deferred-initialized: every stage assigns its
        // fields on both the load and the execute path.
        let table_summaries: Vec<(String, usize, usize)>;
        let c1: usize;
        let c2: usize;
        let c3: usize;
        let c2_and_c3: usize;
        let c2_only: usize;
        let c3_only: usize;
        let consolidated: usize;
        let sweep: Vec<(usize, usize)>;
        let blocking_recall: f64;
        let debugger_inspected: usize;
        let debugger_true_matches: usize;
        let label_rounds: Vec<LabelingRound>;
        let label_debug_hits: usize;
        let selection_round1: Vec<MatcherScore>;
        let mismatches_round1: usize;
        let selection_round2: Vec<MatcherScore>;
        let initial_sure: usize;
        let initial_predicted: usize;
        let initial_total: usize;
        let rule2_in_cartesian: usize;
        let rule2_in_candidates: usize;
        let rule2_predicted: usize;
        let patched: PatchedCounts;
        let multiplicity: MultiplicityReport;
        let clusters: (usize, usize);
        let mut estimates: Vec<EstimateRow> = Vec::new();
        let mut final_estimates: Vec<EstimateRow> = Vec::new();
        let flipped: usize;
        let final_total: usize;
        let truth_scores: Vec<(String, TruthScore)>;

        // ---- Stage: setup — Section 4, understanding the data. ----
        let stage = "setup";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            table_summaries = cp
                .get_records("table_summaries")?
                .iter()
                .map(|r| {
                    Ok((
                        field(r, 0, "table_summaries")?.to_string(),
                        parse_field(r, 1, "table_summaries")?,
                        parse_field(r, 2, "table_summaries")?,
                    ))
                })
                .collect::<Result<_, CoreError>>()?;
        } else {
            table_summaries = scenario
                .raw_tables()
                .iter()
                .map(|t| (t.name().to_string(), t.n_rows(), t.n_cols()))
                .collect();
            let mut cp = Checkpoint::new();
            let recs: Vec<Vec<String>> = table_summaries
                .iter()
                .map(|(n, r, c)| vec![n.clone(), r.to_string(), c.to_string()])
                .collect();
            cp.put_records("table_summaries", &recs);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }

        // ---- Stage: blocking — Section 7, with the debugger audit. ----
        let stage = "blocking";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            c1 = cp.get_parsed("c1")?;
            c2 = cp.get_parsed("c2")?;
            c3 = cp.get_parsed("c3")?;
            c2_and_c3 = cp.get_parsed("c2_and_c3")?;
            c2_only = cp.get_parsed("c2_only")?;
            c3_only = cp.get_parsed("c3_only")?;
            consolidated = cp.get_parsed("consolidated")?;
            sweep = cp
                .get_records("sweep")?
                .iter()
                .map(|r| Ok((parse_field(r, 0, "sweep")?, parse_field(r, 1, "sweep")?)))
                .collect::<Result<_, CoreError>>()?;
            blocking_recall = cp.get_parsed("blocking_recall")?;
            debugger_inspected = cp.get_parsed("debugger_inspected")?;
            debugger_true_matches = cp.get_parsed("debugger_true_matches")?;
        } else {
            let blocking = run_blocking(&u, &s, &cfg.plan)?;
            sweep = overlap_threshold_sweep(&u, &s, &[1, 2, 3, 4, 5, 6, 7])?;
            blocking_recall = {
                let ids = MatchIds::from_candidates(&u, &s, &blocking.consolidated)?;
                let initial_truth = scenario.truth.n_matches_initial();
                if initial_truth == 0 {
                    1.0
                } else {
                    let kept = scenario
                        .truth
                        .iter()
                        .filter(|(a, c)| {
                            !scenario.truth.is_extra_award(a) && ids.contains(a, c)
                        })
                        .count();
                    kept as f64 / initial_truth as f64
                }
            };

            // Blocking-debugger audit (MatchCatcher).
            let debug = debug_blocking(
                &BlockingDebugger::new("AwardTitle", "AwardTitle")
                    .with_top_k(cfg.debugger_top_k),
                &u,
                &s,
                &blocking.consolidated,
            )?;
            debugger_inspected = debug.len();
            debugger_true_matches = debug
                .iter()
                .filter(|d| {
                    scenario
                        .truth
                        .is_match(&award_of(&u, d.pair.left), &accession_of(&s, d.pair.right))
                })
                .count();
            c1 = blocking.c1.len();
            c2 = blocking.c2.len();
            c3 = blocking.c3.len();
            c2_and_c3 = blocking.c2_and_c3();
            c2_only = blocking.c2_only();
            c3_only = blocking.c3_only();
            consolidated = blocking.consolidated.len();
            candidates = Some(blocking.consolidated);

            let mut cp = Checkpoint::new();
            cp.put_display("c1", c1);
            cp.put_display("c2", c2);
            cp.put_display("c3", c3);
            cp.put_display("c2_and_c3", c2_and_c3);
            cp.put_display("c2_only", c2_only);
            cp.put_display("c3_only", c3_only);
            cp.put_display("consolidated", consolidated);
            let recs: Vec<Vec<String>> =
                sweep.iter().map(|(k, n)| vec![k.to_string(), n.to_string()]).collect();
            cp.put_records("sweep", &recs);
            cp.put_f64("blocking_recall", blocking_recall);
            cp.put_display("debugger_inspected", debugger_inspected);
            cp.put_display("debugger_true_matches", debugger_true_matches);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }

        // ---- Stage: labeling — Section 8, sampling and labeling. When
        // the fault plan gives the oracle non-zero fault rates, labeling
        // goes through the flaky wrapper with retry/backoff, degrading
        // gracefully to Unsure when retries run out. ----
        let stage = "labeling";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            let mut lab = LabeledSet::new();
            for r in cp.get_records("labeled")? {
                lab.insert(
                    Pair::new(parse_field(&r, 0, "labeled")?, parse_field(&r, 1, "labeled")?),
                    label_from_text(field(&r, 2, "labeled")?)?,
                );
            }
            labeled_slot = Some(lab);
            label_rounds = get_rounds(&cp, "rounds")?;
            let ledger = ResilienceReport {
                oracle_faults: cp.get_parsed("oracle_faults")?,
                oracle_retries: cp.get_parsed("oracle_retries")?,
                degraded_labels: cp.get_parsed("degraded_labels")?,
                degraded_pairs: cp
                    .get_records("degraded_pairs")?
                    .iter()
                    .map(|r| {
                        Ok((
                            field(r, 0, "degraded_pairs")?.to_string(),
                            field(r, 1, "degraded_pairs")?.to_string(),
                        ))
                    })
                    .collect::<Result<_, CoreError>>()?,
                total_backoff_ms: cp.get_parsed("total_backoff_ms")?,
                ..ResilienceReport::default()
            };
            resilience.absorb(&ledger);
        } else {
            if candidates.is_none() {
                candidates = Some(run_blocking(&u, &s, &cfg.plan)?.consolidated);
            }
            let cands = candidates
                .as_ref()
                .ok_or_else(|| CoreError::Pipeline("candidate set unavailable".into()))?;
            let oracle_flaky =
                cfg.faults.p_oracle_unavailable > 0.0 || cfg.faults.p_oracle_timeout > 0.0;
            let (lab, rounds, ledger) = if oracle_flaky {
                let flaky = FlakyOracle::new(
                    Oracle::new(&scenario.truth, cfg.oracle),
                    cfg.faults.flaky_config(),
                );
                run_labeling_resilient(
                    &u, &s, cands, &flaky, &cfg.label_rounds, cfg.seed, &cfg.retry,
                )?
            } else {
                run_labeling_resilient(
                    &u,
                    &s,
                    cands,
                    &oracle,
                    &cfg.label_rounds,
                    cfg.seed,
                    &RetryPolicy::none(),
                )?
            };
            let mut cp = Checkpoint::new();
            let recs: Vec<Vec<String>> = lab
                .iter()
                .map(|lp| {
                    vec![
                        lp.pair.left.to_string(),
                        lp.pair.right.to_string(),
                        label_text(lp.label).to_string(),
                    ]
                })
                .collect();
            cp.put_records("labeled", &recs);
            put_rounds(&mut cp, "rounds", &rounds);
            cp.put_display("oracle_faults", ledger.oracle_faults);
            cp.put_display("oracle_retries", ledger.oracle_retries);
            cp.put_display("degraded_labels", ledger.degraded_labels);
            cp.put_display("total_backoff_ms", ledger.total_backoff_ms);
            let recs: Vec<Vec<String>> = ledger
                .degraded_pairs
                .iter()
                .map(|(a, c)| vec![a.clone(), c.clone()])
                .collect();
            cp.put_records("degraded_pairs", &recs);
            label_rounds = rounds;
            resilience.absorb(&ledger);
            labeled_slot = Some(lab);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }
        let labeled = labeled_slot
            .as_ref()
            .ok_or_else(|| CoreError::Pipeline("labeled set unavailable".into()))?;
        let label_counts = labeled.counts();

        // ---- Stage: label_debug — leave-one-out label debugging (random
        // forest, as the paper). ----
        let stage = "label_debug";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            label_debug_hits = cp.get_parsed("label_debug_hits")?;
        } else {
            let stage1 = MatcherStage::new(cfg.seed);
            let features1 = em_features::auto_features(&u, &s, &stage1.feature_opts);
            label_debug_hits = debug_labels(
                &u,
                &s,
                &features1,
                labeled,
                &m1_rules,
                &em_ml::forest::RandomForestLearner { seed: cfg.seed, ..Default::default() },
            )?
            .len();
            let mut cp = Checkpoint::new();
            cp.put_display("label_debug_hits", label_debug_hits);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }

        // ---- Stage: selection — Section 9, matcher selection, two
        // rounds. The features are recomputed per stage (deterministic), so
        // only the rankings need checkpointing. ----
        let stage = "selection";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            selection_round1 = get_scores(&cp, "selection_round1")?;
            mismatches_round1 = cp.get_parsed("mismatches_round1")?;
            selection_round2 = get_scores(&cp, "selection_round2")?;
        } else {
            let stage1 = MatcherStage::new(cfg.seed);
            let features1 = em_features::auto_features(&u, &s, &stage1.feature_opts);
            let (data1, _imp1) = build_training_data(&u, &s, &features1, labeled, &m1_rules)?;
            let ranking1 = select_matcher(&data1, &stage1)?;
            selection_round1 = ranking1
                .iter()
                .map(|r| MatcherScore {
                    name: r.learner.clone(),
                    precision: r.precision(),
                    recall: r.recall(),
                    f1: r.f1(),
                })
                .collect();
            // Debug the round-1 winner: split-half mismatch mining.
            let top1 = ranking1.first().ok_or_else(|| {
                CoreError::Pipeline("matcher selection produced no ranking".into())
            })?;
            mismatches_round1 = {
                let learners = em_ml::standard_learners(cfg.seed);
                let winner1 =
                    learners.iter().find(|l| l.name() == top1.learner).ok_or_else(|| {
                        CoreError::Pipeline(format!(
                            "round-1 winner {:?} is not a standard learner",
                            top1.learner
                        ))
                    })?;
                em_ml::debug::mine_mismatches(winner1.as_ref(), &data1, cfg.seed)?.len()
            };

            let stage2 = MatcherStage::new(cfg.seed).with_case_insensitive();
            let features2 = em_features::auto_features(&u, &s, &stage2.feature_opts);
            let (data2, _imp2) = build_training_data(&u, &s, &features2, labeled, &m1_rules)?;
            let ranking2 = select_matcher(&data2, &stage2)?;
            selection_round2 = ranking2
                .iter()
                .map(|r| MatcherScore {
                    name: r.learner.clone(),
                    precision: r.precision(),
                    recall: r.recall(),
                    f1: r.f1(),
                })
                .collect();
            let mut cp = Checkpoint::new();
            put_scores(&mut cp, "selection_round1", &selection_round1);
            cp.put_display("mismatches_round1", mismatches_round1);
            put_scores(&mut cp, "selection_round2", &selection_round2);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }
        let winner = selection_round2.first().map(|m| m.name.clone());

        // ---- Stage: matching — Figure 8 initial workflow, Section 10
        // revised definition + Figure 9 patch, multiplicity, IRIS, and the
        // Figure 10 negative rules. The matcher is retrained here from the
        // checkpointed labels and winner name (deterministic), so batch
        // resume never needs the model serialized; online serving, which
        // cannot retrain per process, snapshots the same artifacts via
        // [`CaseStudy::train_serving_artifacts`]. ----
        let stage = "matching";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            initial_sure = cp.get_parsed("initial_sure")?;
            initial_predicted = cp.get_parsed("initial_predicted")?;
            initial_total = cp.get_parsed("initial_total")?;
            rule2_in_cartesian = cp.get_parsed("rule2_in_cartesian")?;
            rule2_in_candidates = cp.get_parsed("rule2_in_candidates")?;
            rule2_predicted = cp.get_parsed("rule2_predicted")?;
            patched = PatchedCounts {
                sure_original: cp.get_parsed("patched.sure_original")?,
                sure_extra: cp.get_parsed("patched.sure_extra")?,
                candidates_original: cp.get_parsed("patched.candidates_original")?,
                candidates_extra: cp.get_parsed("patched.candidates_extra")?,
                predicted_original: cp.get_parsed("patched.predicted_original")?,
                predicted_extra: cp.get_parsed("patched.predicted_extra")?,
                total: cp.get_parsed("patched.total")?,
            };
            multiplicity = MultiplicityReport {
                one_to_one: cp.get_parsed("multiplicity.one_to_one")?,
                one_to_many: cp.get_parsed("multiplicity.one_to_many")?,
                many_to_one: cp.get_parsed("multiplicity.many_to_one")?,
                many_to_many: cp.get_parsed("multiplicity.many_to_many")?,
                example_fanout_awards: cp
                    .get_records("multiplicity.fanout")?
                    .iter()
                    .map(|r| {
                        Ok((
                            field(r, 0, "multiplicity.fanout")?.to_string(),
                            parse_field(r, 1, "multiplicity.fanout")?,
                        ))
                    })
                    .collect::<Result<_, CoreError>>()?,
            };
            clusters =
                (cp.get_parsed("clusters.total")?, cp.get_parsed("clusters.one_to_one")?);
            flipped = cp.get_parsed("flipped")?;
            final_total = cp.get_parsed("final_total")?;
            combined_slot = Some(get_ids(&cp, "combined")?);
            fids_slot = Some(get_ids(&cp, "fids")?);
            iris_slot = Some(get_ids(&cp, "iris_ids")?);
            universe_orig = get_pairs(&cp, "universe_orig")?;
            universe_patch = get_pairs(&cp, "universe_patch")?;
        } else {
            let win = winner.as_ref().ok_or_else(|| {
                CoreError::Pipeline("matcher selection produced no winner".into())
            })?;
            let stage2 = MatcherStage::new(cfg.seed).with_case_insensitive();
            let features2 = em_features::auto_features(&u, &s, &stage2.feature_opts);
            let (data2, imp2) = build_training_data(&u, &s, &features2, labeled, &m1_rules)?;
            let matcher = train_matcher(features2, imp2, &data2, win, &stage2)?;

            // ---- Figure 8: the initial workflow (M1 + model). ----
            let initial_wf = EmWorkflow {
                rules: m1_rules.clone(),
                plan: cfg.plan,
                matcher: &matcher,
                apply_negative: false,
            };
            let initial = initial_wf.run(&u, &s)?;
            initial_sure = initial.sure.len();
            initial_predicted = initial.predicted.len();
            initial_total = initial.matches.len();

            // ---- Section 10: the revised match definition. ----
            let rule2 =
                EqualityRule::suffix_equals("award=project", "AwardNumber", "ProjectNumber");
            let rule2_all = rule2.find_all(&u, &s)?;
            rule2_in_cartesian = rule2_all.len();
            rule2_in_candidates =
                rule2_all.iter().filter(|p| initial.candidates.contains(p)).count();
            rule2_predicted =
                rule2_all.iter().filter(|p| initial.predicted.contains(p)).count();

            // ---- Figures 9 and 10 from one pair of runs: the patched
            // workflow (full rules + extra data) with its negative rules
            // applied. Figure 9's matches are what it had before the flips,
            // `sure ∪ predicted`; Figure 10's are its `matches`. ----
            let patched_wf = EmWorkflow {
                rules: standard_rules(),
                plan: cfg.plan,
                matcher: &matcher,
                apply_negative: true,
            };
            let (orig, patch) = patched_wf.run_patched(&u, &u_extra, &s)?;
            let ids = |of_orig: &CandidateSet, of_patch: &CandidateSet| {
                Ok::<_, CoreError>(
                    MatchIds::from_candidates(&u, &s, of_orig)?
                        .union(&MatchIds::from_candidates(&u_extra, &s, of_patch)?),
                )
            };
            let combined =
                ids(&orig.sure.union(&orig.predicted), &patch.sure.union(&patch.predicted))?;
            patched = PatchedCounts {
                sure_original: orig.sure.len(),
                sure_extra: patch.sure.len(),
                candidates_original: orig.candidates.len(),
                candidates_extra: patch.candidates.len(),
                predicted_original: orig.predicted.len(),
                predicted_extra: patch.predicted.len(),
                total: combined.len(),
            };

            // ---- Section 10: the cluster-level question. ----
            multiplicity = analyze_multiplicity(&combined);
            let cluster_list = cluster_matches(&combined);
            clusters = (
                cluster_list.len(),
                cluster_list.iter().filter(|c| c.is_one_to_one()).count(),
            );

            // ---- Section 11 prerequisite: the IRIS baseline. ----
            let iris = IrisMatcher::standard("AwardNumber", "AwardNumber", "ProjectNumber");
            let u_all = {
                let mut t =
                    u.drop_column("RecordId")?.union(&u_extra.drop_column("RecordId")?)?;
                t.set_name("UMETRICSProjectedAll");
                t.add_id_column("RecordId")?
            };
            let iris_ids = MatchIds::from_candidates(&u_all, &s, &iris.predict(&u_all, &s)?)?;

            // ---- Section 12: negative rules (Figure 10). ----
            let fids = ids(&orig.matches, &patch.matches)?;
            flipped = orig.flipped.len() + patch.flipped.len();
            final_total = fids.len();
            universe_orig = orig.universe().to_vec();
            universe_patch = patch.universe().to_vec();

            let mut cp = Checkpoint::new();
            cp.put_display("initial_sure", initial_sure);
            cp.put_display("initial_predicted", initial_predicted);
            cp.put_display("initial_total", initial_total);
            cp.put_display("rule2_in_cartesian", rule2_in_cartesian);
            cp.put_display("rule2_in_candidates", rule2_in_candidates);
            cp.put_display("rule2_predicted", rule2_predicted);
            cp.put_display("patched.sure_original", patched.sure_original);
            cp.put_display("patched.sure_extra", patched.sure_extra);
            cp.put_display("patched.candidates_original", patched.candidates_original);
            cp.put_display("patched.candidates_extra", patched.candidates_extra);
            cp.put_display("patched.predicted_original", patched.predicted_original);
            cp.put_display("patched.predicted_extra", patched.predicted_extra);
            cp.put_display("patched.total", patched.total);
            cp.put_display("multiplicity.one_to_one", multiplicity.one_to_one);
            cp.put_display("multiplicity.one_to_many", multiplicity.one_to_many);
            cp.put_display("multiplicity.many_to_one", multiplicity.many_to_one);
            cp.put_display("multiplicity.many_to_many", multiplicity.many_to_many);
            let recs: Vec<Vec<String>> = multiplicity
                .example_fanout_awards
                .iter()
                .map(|(a, n)| vec![a.clone(), n.to_string()])
                .collect();
            cp.put_records("multiplicity.fanout", &recs);
            cp.put_display("clusters.total", clusters.0);
            cp.put_display("clusters.one_to_one", clusters.1);
            cp.put_display("flipped", flipped);
            cp.put_display("final_total", final_total);
            put_ids(&mut cp, "combined", &combined);
            put_ids(&mut cp, "fids", &fids);
            put_ids(&mut cp, "iris_ids", &iris_ids);
            put_pairs(&mut cp, "universe_orig", &universe_orig);
            put_pairs(&mut cp, "universe_patch", &universe_patch);
            combined_slot = Some(combined);
            fids_slot = Some(fids);
            iris_slot = Some(iris_ids);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }
        let combined = combined_slot
            .as_ref()
            .ok_or_else(|| CoreError::Pipeline("combined match ids unavailable".into()))?;
        let fids = fids_slot
            .as_ref()
            .ok_or_else(|| CoreError::Pipeline("final match ids unavailable".into()))?;
        let iris_ids = iris_slot
            .as_ref()
            .ok_or_else(|| CoreError::Pipeline("IRIS match ids unavailable".into()))?;

        // ---- Stage: estimate — Section 11/12 Corleone estimation. ----
        let stage = "estimate";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            estimates = get_estimates(&cp, "estimates")?;
            final_estimates = get_estimates(&cp, "final_estimates")?;
        } else {
            let catalog = PairCatalog::build(&[
                (&u, &s, universe_orig.clone()),
                (&u_extra, &s, universe_patch.clone()),
            ]);
            let mut eval_order: Vec<usize> = (0..catalog.entries.len()).collect();
            eval_order.shuffle(&mut StdRng::seed_from_u64(cfg.seed ^ 0x5eed));

            let label_item = |idx: usize, predicted: &MatchIds| -> Result<SampleItem, CoreError> {
                let (award, acc, table, pair) = &catalog.entries[idx];
                let row = table.row(pair.left).ok_or_else(|| {
                    CoreError::Pipeline(format!(
                        "catalog row {} outside {}",
                        pair.left,
                        table.name()
                    ))
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
                Ok(SampleItem {
                    predicted: predicted.contains(award, acc),
                    label: oracle.label(&view),
                })
            };

            let mut cumulative = 0usize;
            for &round in &cfg.eval_rounds {
                cumulative = (cumulative + round).min(eval_order.len());
                let sample_idx = &eval_order[..cumulative];
                let ours = sample_idx
                    .iter()
                    .map(|&i| label_item(i, combined))
                    .collect::<Result<Vec<_>, _>>()?;
                let iris_sample = sample_idx
                    .iter()
                    .map(|&i| label_item(i, iris_ids))
                    .collect::<Result<Vec<_>, _>>()?;
                let final_sample = sample_idx
                    .iter()
                    .map(|&i| label_item(i, fids))
                    .collect::<Result<Vec<_>, _>>()?;
                estimates.push(EstimateRow {
                    matcher: "learning".to_string(),
                    n_labels: cumulative,
                    estimate: estimate_accuracy(&ours, Z95),
                });
                estimates.push(EstimateRow {
                    matcher: "IRIS".to_string(),
                    n_labels: cumulative,
                    estimate: estimate_accuracy(&iris_sample, Z95),
                });
                final_estimates.push(EstimateRow {
                    matcher: "learning+rules".to_string(),
                    n_labels: cumulative,
                    estimate: estimate_accuracy(&final_sample, Z95),
                });
            }
            let mut cp = Checkpoint::new();
            put_estimates(&mut cp, "estimates", &estimates);
            put_estimates(&mut cp, "final_estimates", &final_estimates);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }

        // ---- Stage: truth — ground-truth scores (generator privilege). ----
        let stage = "truth";
        if let Some(cp) = load_stage(dir, stage)? {
            resumed.push(stage.to_string());
            truth_scores = cp
                .get_records("truth_scores")?
                .iter()
                .map(|r| {
                    Ok((
                        field(r, 0, "truth_scores")?.to_string(),
                        TruthScore {
                            tp: parse_field(r, 1, "truth_scores")?,
                            fp: parse_field(r, 2, "truth_scores")?,
                            fn_: parse_field(r, 3, "truth_scores")?,
                            precision: parse_field(r, 4, "truth_scores")?,
                            recall: parse_field(r, 5, "truth_scores")?,
                            f1: parse_field(r, 6, "truth_scores")?,
                        },
                    ))
                })
                .collect::<Result<_, CoreError>>()?;
        } else {
            truth_scores = vec![
                ("IRIS".to_string(), score_ids(iris_ids, &scenario)),
                ("learning".to_string(), score_ids(combined, &scenario)),
                ("learning+rules".to_string(), score_ids(fids, &scenario)),
            ];
            let mut cp = Checkpoint::new();
            let recs: Vec<Vec<String>> = truth_scores
                .iter()
                .map(|(n, t)| {
                    vec![
                        n.clone(),
                        t.tp.to_string(),
                        t.fp.to_string(),
                        t.fn_.to_string(),
                        format!("{:?}", t.precision),
                        format!("{:?}", t.recall),
                        format!("{:?}", t.f1),
                    ]
                })
                .collect();
            cp.put_records("truth_scores", &recs);
            finish_stage(dir, &cfg.faults, stage, &cp)?;
        }

        resilience.resumed_stages = resumed;

        Ok(CaseStudyReport {
            table_summaries,
            c1,
            c2,
            c3,
            c2_and_c3,
            c2_only,
            c3_only,
            consolidated,
            sweep,
            blocking_recall,
            debugger_inspected,
            debugger_true_matches,
            label_rounds,
            label_counts,
            label_debug_hits,
            selection_round1,
            mismatches_round1,
            selection_round2,
            initial_sure,
            initial_predicted,
            initial_total,
            rule2_in_cartesian,
            rule2_in_candidates,
            rule2_predicted,
            patched,
            multiplicity,
            clusters,
            estimates,
            final_estimates,
            flipped,
            final_total,
            truth_scores,
            resilience,
        })
    }

    /// Runs just the scenario + projection + blocking prefix (used by
    /// benches that do not need the ML stages).
    pub fn prepare_tables(&self) -> Result<(Table, Table, Scenario), CoreError> {
        let scenario =
            Scenario::generate(self.cfg.scenario.clone()).map_err(CoreError::Datagen)?;
        let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let s = project_usda(&scenario.usda, true)?;
        Ok((u, s, scenario))
    }

    /// Trains the serving artifacts an online matching service needs,
    /// replaying exactly the batch pipeline's no-fault training path:
    /// blocking → iterative labeling → round-2 (case-insensitive) matcher
    /// selection → training of the winner. Fault injection is ignored —
    /// a workflow snapshot is always frozen from a clean run.
    pub fn train_serving_artifacts(&self) -> Result<ServingArtifacts, CoreError> {
        let cfg = &self.cfg;
        let scenario =
            Scenario::generate(cfg.scenario.clone()).map_err(CoreError::Datagen)?;
        let oracle = Oracle::new(&scenario.truth, cfg.oracle);
        let u = project_umetrics(&scenario.award_agg, &scenario.employees)?;
        let empty_emp = Table::new("emp", scenario.employees.schema().clone());
        let u_extra = project_umetrics(&scenario.extra_award_agg, &empty_emp)?;
        let s = project_usda(&scenario.usda, true)?;
        let m1_rules = RuleSet {
            positive: vec![EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
            negative: vec![],
        };

        let cands = run_blocking(&u, &s, &cfg.plan)?.consolidated;
        let (labeled, _rounds, _ledger) = run_labeling_resilient(
            &u,
            &s,
            &cands,
            &oracle,
            &cfg.label_rounds,
            cfg.seed,
            &RetryPolicy::none(),
        )?;

        let stage2 = MatcherStage::new(cfg.seed).with_case_insensitive();
        let features2 = em_features::auto_features(&u, &s, &stage2.feature_opts);
        let (data2, imp2) = build_training_data(&u, &s, &features2, &labeled, &m1_rules)?;
        let ranking2 = select_matcher(&data2, &stage2)?;
        let win = ranking2
            .first()
            .map(|r| r.learner.clone())
            .ok_or_else(|| CoreError::Pipeline("matcher selection produced no winner".into()))?;
        let matcher = train_matcher(features2, imp2, &data2, &win, &stage2)?;

        Ok(ServingArtifacts {
            umetrics: u,
            extra_umetrics: u_extra,
            usda: s,
            matcher,
            plan: cfg.plan,
            rule_descs: standard_rule_descs(),
        })
    }
}

/// Everything an online matching service needs, frozen from one training
/// run: the projected tables, the trained matcher, the blocking plan, and
/// the declarative rule set of the final (Figure 10) workflow.
pub struct ServingArtifacts {
    /// Projected initial UMETRICS table (the batch left side).
    pub umetrics: Table,
    /// Projected extra-award UMETRICS table (the Section 10 arrivals the
    /// paper patches in — an online service receives these one at a time).
    pub extra_umetrics: Table,
    /// Projected USDA table (the corpus the service matches against).
    pub usda: Table,
    /// The trained matcher (features, imputer, fitted model).
    pub matcher: crate::matcher::TrainedMatcher,
    /// Blocking-plan parameters.
    pub plan: BlockingPlan,
    /// Declarative final rule set ([`standard_rule_descs`]).
    pub rule_descs: RuleSetDesc,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CaseStudyReport {
        CaseStudy::new(CaseStudyConfig::small()).run().unwrap()
    }

    #[test]
    fn end_to_end_shape_holds() {
        let r = report();

        // Figure 2: seven tables with the configured sizes.
        assert_eq!(r.table_summaries.len(), 7);

        // Blocking algebra consistent.
        assert_eq!(r.c2_and_c3 + r.c2_only, r.c2);
        assert_eq!(r.c2_and_c3 + r.c3_only, r.c3);
        assert!(r.consolidated >= r.c1.max(r.c2).max(r.c3));
        assert!(r.blocking_recall > 0.85, "blocking recall {}", r.blocking_recall);

        // Sweep monotone.
        for w in r.sweep.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }

        // Labeling totals consistent.
        let (yes, no, unsure) = r.label_counts;
        assert_eq!(
            yes + no + unsure,
            r.label_rounds.iter().map(|x| x.sampled).sum::<usize>()
        );
        assert!(yes > 0);

        // Selection: six matchers in both rounds; round-2 winner strong.
        assert_eq!(r.selection_round1.len(), 6);
        assert_eq!(r.selection_round2.len(), 6);
        assert!(r.selection_round2[0].f1 >= 0.7);

        // Figure 8 accounting.
        assert_eq!(r.initial_total, r.initial_sure + r.initial_predicted);

        // Section 10 containment chain: predicted ⊆ in-candidates ⊆ all.
        assert!(r.rule2_predicted <= r.rule2_in_candidates);
        assert!(r.rule2_in_candidates <= r.rule2_in_cartesian);
        assert!(r.rule2_in_cartesian > 0);

        // Patch accounting: total = all four parts (id-level, disjoint).
        assert_eq!(
            r.patched.total,
            r.patched.sure_original
                + r.patched.sure_extra
                + r.patched.predicted_original
                + r.patched.predicted_extra
        );

        // Multiplicity analysis covers every combined match, and clusters
        // can never outnumber matches.
        assert_eq!(r.multiplicity.total(), r.patched.total);
        assert!(r.clusters.0 <= r.patched.total);
        assert!(r.clusters.1 <= r.clusters.0);
        assert!(
            r.multiplicity.one_to_many + r.multiplicity.many_to_many > 0,
            "the generator's annual-report structure must produce 1:N matches"
        );

        // Estimation rows present for both cumulative label counts.
        assert_eq!(r.estimates.len(), 4);
        assert_eq!(r.final_estimates.len(), 2);

        // Final matches exist and negative rules flipped something.
        assert!(r.final_total > 0);
        assert!(r.final_total <= r.patched.total);
    }

    #[test]
    fn headline_result_shape() {
        // The paper's headline: IRIS has (near-)perfect precision but low
        // recall; learning has much higher recall; learning + negative
        // rules recovers precision while keeping recall high.
        let r = report();
        let get = |name: &str| {
            r.truth_scores
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
                .unwrap()
        };
        let iris = get("IRIS");
        let learning = get("learning");
        let final_ = get("learning+rules");

        assert!(iris.precision > 0.99, "IRIS precision {}", iris.precision);
        assert!(
            learning.recall > iris.recall + 0.1,
            "learning recall {} should beat IRIS {} clearly",
            learning.recall,
            iris.recall
        );
        assert!(
            final_.precision > learning.precision,
            "negative rules must improve precision ({} vs {})",
            final_.precision,
            learning.precision
        );
        assert!(final_.recall > iris.recall, "final recall still beats IRIS");
        assert!(final_.f1 >= learning.f1, "final F1 should not regress");
    }

    #[test]
    fn display_narrative_covers_the_stages() {
        let r = report();
        let text = r.to_string();
        for needle in ["blocking", "labels:", "matcher:", "matches:", "multiplicity", "truth[IRIS]"] {
            assert!(text.contains(needle), "narrative missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn deterministic_report() {
        let a = CaseStudy::new(CaseStudyConfig::small()).run().unwrap();
        let b = CaseStudy::new(CaseStudyConfig::small()).run().unwrap();
        assert_eq!(a, b, "two clean runs must agree bit-for-bit");
        assert!(a.resilience.is_clean(), "no faults configured, none reported");
    }

    #[test]
    fn config_round_trips_through_checkpoint() {
        let mut cfg = CaseStudyConfig::small();
        cfg.faults = FaultPlan {
            p_corrupt_row: 0.05,
            crash_after: Some("blocking".into()),
            ..FaultPlan::none()
        };
        let cp = config_checkpoint(&cfg);
        let back = config_from_checkpoint(&cp).unwrap();
        assert_eq!(back, cfg);
        // And through the on-disk text form.
        let again =
            config_from_checkpoint(&Checkpoint::from_text(&cp.to_text()).unwrap()).unwrap();
        assert_eq!(again, cfg);
        // No crash_after round-trips to None, not Some("").
        cfg.faults.crash_after = None;
        let back = config_from_checkpoint(&config_checkpoint(&cfg)).unwrap();
        assert_eq!(back.faults.crash_after, None);
    }

    #[test]
    fn checkpointed_rerun_loads_every_stage_and_matches() {
        let dir = std::env::temp_dir().join(format!("em-pipe-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let study = CaseStudy::new(CaseStudyConfig::small());
        let first = study.run_checkpointed(&dir).unwrap();
        assert!(first.resilience.resumed_stages.is_empty());
        for stage in STAGES {
            assert!(
                Checkpoint::path_for(&dir, stage).exists(),
                "stage {stage:?} should have checkpointed"
            );
        }

        // A second run over the same directory restores every stage.
        let mut second = study.run_checkpointed(&dir).unwrap();
        assert_eq!(
            second.resilience.resumed_stages,
            STAGES.iter().map(|s| s.to_string()).collect::<Vec<_>>()
        );
        second.resilience.resumed_stages.clear();
        assert_eq!(second, first, "a fully-resumed run reproduces the report bit-for-bit");

        // Resume from the directory alone (config reconstructed from disk).
        let mut resumed = CaseStudy::resume(&dir).unwrap();
        resumed.resilience.resumed_stages.clear();
        assert_eq!(resumed, first);

        // A different config must refuse the directory.
        let other =
            CaseStudy::new(CaseStudyConfig { seed: 43, ..CaseStudyConfig::small() });
        assert!(matches!(other.run_checkpointed(&dir), Err(CoreError::Checkpoint(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_seeds_survive_crash_resume() {
        // Regression: the labeling stage's sampled pairs (a pure function
        // of the pipeline seed) must be identical whether the run completed
        // uninterrupted or crashed right after labeling and resumed — the
        // resumed run restores the labeled set from the checkpoint instead
        // of re-drawing it, so every label-derived number is bit-identical.
        let uninterrupted = CaseStudy::new(CaseStudyConfig::small()).run().unwrap();

        let dir = std::env::temp_dir()
            .join(format!("em-pipe-crash-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CaseStudyConfig::small();
        cfg.faults =
            FaultPlan { crash_after: Some("labeling".into()), ..FaultPlan::none() };
        let crashed = CaseStudy::new(cfg).run_checkpointed(&dir);
        assert!(matches!(crashed, Err(CoreError::InjectedCrash(_))));

        // Resume from the directory alone: the labeling stage *loads* (its
        // sampled pairs come back from the checkpoint, not a re-draw), so
        // the crash trigger never re-fires and the numbers cannot move.
        let mut resumed = CaseStudy::resume(&dir).unwrap();
        assert_eq!(
            resumed.resilience.resumed_stages,
            vec!["setup".to_string(), "blocking".into(), "labeling".into()]
        );
        resumed.resilience.resumed_stages.clear();
        assert_eq!(resumed.label_rounds, uninterrupted.label_rounds);
        assert_eq!(resumed.label_counts, uninterrupted.label_counts);
        assert_eq!(resumed, uninterrupted, "crash-resume must not move any number");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
