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
//!
//! The run is the eight [`STAGES`]: functions (in `stages`) from one
//! shared context and earlier outputs to a typed output that is also the
//! stage's checkpoint, all through one load-or-run, save and crash point.
//! [`CaseStudy::train_serving_artifacts`] calls the same labeling and
//! round-2-fit functions, so serving scores with the case study's matcher.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::analysis::MultiplicityReport;
use crate::blocking_plan::BlockingPlan;
use crate::checkpoint::{codec_struct, Checkpoint};
use crate::error::CoreError;
use crate::labeling::LabelingRound;
use crate::resilience::{FaultPlan, ResilienceReport, RetryPolicy, ServeFaultPlan};
use crate::stages::{
    self, Blocking, Context, Estimate, LabelDebug, Labeling, Matching, Selection, Setup, Stage,
    Truth,
};
use crate::workflow::MatchIds;
use em_datagen::{OracleConfig, Scenario, ScenarioConfig};
use em_estimate::AccuracyEstimate;
use em_rules::{RuleKeyKind, RuleSet, RuleSetDesc};
use em_table::Table;
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
    Setup::NAME, Blocking::NAME, Labeling::NAME, LabelDebug::NAME, Selection::NAME,
    Matching::NAME, Estimate::NAME, Truth::NAME,
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

// The configuration's codec: `config.ckpt`, the guard that ties a
// checkpoint directory to exactly one configuration and lets
// [`CaseStudy::resume`] rebuild the runner from the directory alone.
codec_struct!(CaseStudyConfig {
    scenario, oracle, seed, plan, label_rounds, eval_rounds, debugger_top_k, retry, faults,
});
codec_struct!(ScenarioConfig {
    seed, n_awards, n_extra_awards, n_usda, n_employees, n_vendors, n_subawards,
    n_object_codes, n_org_units, frac_federal, p_in_usda, p_two_records, p_three_records,
    p_federal_award_present, p_project_number_present, p_generic_title, p_title_typo,
    p_filler_multistate_clone, p_sibling_title, p_wrong_project_number, p_usda_title_garbled,
    p_director_missing, p_director_unlisted,
});
codec_struct!(OracleConfig {
    seed, p_unsure_generic, p_unsure_similar, p_initial_miss, p_initial_waffle,
});
codec_struct!(BlockingPlan { overlap_k, oc_threshold });
codec_struct!(RetryPolicy { max_retries, base_delay_ms, max_delay_ms, jitter_seed });
codec_struct!(FaultPlan {
    seed, p_oracle_unavailable, p_oracle_timeout, max_fault_attempts, p_corrupt_row,
    max_quarantine_fraction, crash_after, serve,
});
codec_struct!(ServeFaultPlan {
    p_crash, p_torn_tail, p_snapshot_corrupt, p_latency_spike, latency_spike_ms, p_burst,
    burst_len, swap_every,
});

/// The one load-or-run, save and crash point every stage passes through.
struct StageRunner<'d> {
    /// The checkpoint directory, when checkpointing.
    dir: Option<&'d Path>,
    /// The fault plan's `crash_after`.
    crash_after: Option<&'d str>,
    /// Stages loaded instead of run, in order.
    resumed: Vec<String>,
}

impl StageRunner<'_> {
    /// Loads stage `T` when the directory holds its checkpoint. Otherwise
    /// runs it, saves it (when checkpointing) and then, if the fault plan
    /// says so, crashes — *after* the save, so the injected crash always
    /// leaves a resumable directory behind.
    fn stage<T: Stage>(
        &mut self,
        run: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        if let Some(dir) = self.dir {
            if let Some(cp) = Checkpoint::load(dir, T::NAME)? {
                self.resumed.push(T::NAME.to_string());
                return cp.decode();
            }
        }
        let out = run()?;
        if let Some(dir) = self.dir {
            Checkpoint::of(&out).save(dir, T::NAME)?;
        }
        if self.crash_after == Some(T::NAME) {
            return Err(CoreError::InjectedCrash(T::NAME.to_string()));
        }
        Ok(out)
    }
}

/// The case study runner.
pub struct CaseStudy {
    cfg: CaseStudyConfig,
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
        let mine = Checkpoint::of(&self.cfg);
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
        let cfg = stored.decode()?;
        CaseStudy::new(cfg).run_stages(Some(dir))
    }

    /// The staged runner behind [`CaseStudy::run`] and friends: the eight
    /// [`STAGES`] in order, each through [`StageRunner::stage`], over one
    /// [`Context`].
    fn run_stages(&self, dir: Option<&Path>) -> Result<CaseStudyReport, CoreError> {
        let ctx = Context::new(&self.cfg)?;
        let crash_after = self.cfg.faults.crash_after.as_deref();
        let mut runner = StageRunner { dir, crash_after, resumed: Vec::new() };
        let setup = runner.stage(|| Ok(stages::setup(&ctx)))?;
        let blocking = runner.stage(|| stages::blocking(&ctx))?;
        let labeling = runner.stage(|| stages::labeling(&ctx))?;
        let label_debug = runner.stage(|| stages::label_debug(&ctx, &labeling.labeled))?;
        let selection = runner.stage(|| stages::selection(&ctx, &labeling.labeled))?;
        let matching = runner.stage(|| stages::matching(&ctx, &selection.matcher))?;
        let estimate = runner.stage(|| stages::estimate(&ctx, &matching))?;
        let truth = runner.stage(|| Ok(stages::truth(&ctx, &matching)))?;

        let (b, m) = (blocking, matching);
        Ok(CaseStudyReport {
            table_summaries: setup.table_summaries,
            c1: b.c1, c2: b.c2, c3: b.c3, c2_and_c3: b.c2_and_c3, c2_only: b.c2_only,
            c3_only: b.c3_only, consolidated: b.consolidated, sweep: b.sweep,
            blocking_recall: b.blocking_recall,
            debugger_inspected: b.debugger_inspected,
            debugger_true_matches: b.debugger_true_matches,
            label_counts: labeling.labeled.counts(),
            label_rounds: labeling.label_rounds,
            label_debug_hits: label_debug.label_debug_hits,
            selection_round1: selection.selection_round1,
            mismatches_round1: selection.mismatches_round1,
            selection_round2: selection.selection_round2,
            initial_sure: m.initial_sure, initial_predicted: m.initial_predicted,
            initial_total: m.initial_total, rule2_in_cartesian: m.rule2_in_cartesian,
            rule2_in_candidates: m.rule2_in_candidates, rule2_predicted: m.rule2_predicted,
            patched: m.patched, multiplicity: m.multiplicity, clusters: m.clusters,
            estimates: estimate.estimates, final_estimates: estimate.final_estimates,
            flipped: m.flipped, final_total: m.final_total,
            truth_scores: truth.truth_scores,
            resilience: ResilienceReport {
                quarantined_rows: ctx.quarantined_rows,
                resumed_stages: runner.resumed,
                ..labeling.ledger
            },
        })
    }

    /// The projected UMETRICS and USDA tables and the scenario they came
    /// from — the tables every stage reads (USDA through quarantine ingest
    /// when the fault plan corrupts rows), for callers that block or audit
    /// outside the stages.
    pub fn prepare_tables(&self) -> Result<(Table, Table, Scenario), CoreError> {
        let ctx = Context::new(&self.cfg)?;
        Ok((ctx.u, ctx.s, ctx.scenario))
    }

    /// Trains the serving artifacts an online matching service needs: the
    /// case study's own `labeling` stage and the round-2 fit its
    /// `selection` stage makes (`stages::fit_round2`), over a context
    /// built with [`FaultPlan::none`] — a workflow snapshot is always
    /// frozen from a clean run. The matcher is the one a clean run's
    /// `selection.ckpt` carries, byte for byte. No other stage runs: the
    /// K-sweep, the blocking-debugger audit, label debugging and the
    /// round-1 bake-off feed only the report.
    pub fn train_serving_artifacts(&self) -> Result<ServingArtifacts, CoreError> {
        let cfg = CaseStudyConfig { faults: FaultPlan::none(), ..self.cfg.clone() };
        let ctx = Context::new(&cfg)?;
        let labeled = stages::labeling(&ctx)?.labeled;
        let (_, matcher) = stages::fit_round2(&ctx, &labeled)?;
        Ok(ServingArtifacts {
            umetrics: ctx.u,
            extra_umetrics: ctx.u_extra,
            usda: ctx.s,
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
        let cp = Checkpoint::of(&cfg);
        let back: CaseStudyConfig = cp.decode().unwrap();
        assert_eq!(back, cfg);
        // And through the on-disk text form.
        let again: CaseStudyConfig = Checkpoint::from_text(&cp.to_text()).unwrap().decode().unwrap();
        assert_eq!(again, cfg);
        // No crash_after round-trips to None, not Some("").
        cfg.faults.crash_after = None;
        let back: CaseStudyConfig = Checkpoint::of(&cfg).decode().unwrap();
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
