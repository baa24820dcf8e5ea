//! The serve-path hot loop: filtered probes, model-aware feature pruning,
//! and zero-alloc scoring.
//!
//! `MatchService::match_inner` is the one read path: every entry point —
//! [`match_on_arrival_with`](MatchService::match_on_arrival_with) on a
//! caller-owned [`ProbeScratch`], the pooled
//! [`match_on_arrival`](MatchService::match_on_arrival) /
//! [`match_batch`](MatchService::match_batch) / `drain`, the sharded tier's
//! scatter, the swap probes — is a thin caller of it. Everything a request
//! needs beyond the immutable service state lives in the scratch, so the
//! probe → block → featurize → score → rules loop runs without heap
//! allocation once the scratch has warmed up:
//!
//! - **Blocking** is one
//!   [`IncrementalIndex::probe_into`](em_blocking::IncrementalIndex::probe_into)
//!   under the plan's C2 ∪ C3 union spec: the arriving title is tokenized
//!   into the scratch and looked up read-only, each sealed segment of the
//!   title index is counted bit-sliced, 64 corpus rows a word, and the
//!   short unsealed tail is scanned. Nothing shared is locked or written.
//!   The hash-join lists (C1, the positive rules) and the probe's hits are
//!   each ascending, so `blocked` and `candidates = blocked − sure` are the
//!   stream's own [`merge_union`] / [`merge_difference`].
//! - **Features and scoring** are one fused step per candidate. The
//!   arriving record is prepared once as the kernel's left row
//!   ([`prepare`](em_features::ServeExtractor::prepare)) against the
//!   service's persistent [`ServeExtractor`](em_features::ServeExtractor);
//!   each surviving candidate is then one [`score_pair`], the routine the
//!   fused stream ends in: the fitted model walks its trees and pulls the
//!   features its path tests from the corpus caches, imputing on read.
//!   A [`FeatureMask`](em_features::FeatureMask) derived from the fitted
//!   model ([`derive_feature_mask`]), bound when the extractor is built,
//!   leaves features the model cannot read without a cache; a feature the
//!   walk does not reach for a candidate is not computed for it.
//! - **Negative rules** are the stream's
//!   [`BoundNegativeRules`](em_rules::BoundNegativeRules), grown with the
//!   corpus: the arriving row's keys are bound once, read-only, at the
//!   request's first predicted match, and each predicted match is then two
//!   integer compares. Id rendering runs for final matches only.
//!
//! Bit-identity with the batch pipeline is preserved stage by stage: the
//! probe admits exactly the candidate set of the nested-loop scan, whatever
//! the index's push/seal/merge history (proptested in `em-blocking`),
//! pulled features are bit-equal to
//! `Feature::compute` (pinned in `em-features`), a value no traversed
//! node tests cannot reach the score (see `em_core::stream`), and the bound
//! rules equal the pair-level `NegativeRule::fires` whatever order the
//! corpus grew in (proptested in `em-rules`). Debug builds
//! additionally sample candidates, pull every model-live feature and
//! assert it equals the per-feature recomputation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::overload::ServeMode;
use crate::service::{MatchOutcome, MatchService, RequestTimings, ACCESSION_COL, AWARD_COL, TITLE_COL};
use em_blocking::{JoinScratch, ProbeCounters};
use em_core::stream::{merge_difference, merge_union, score_pair};
use em_core::MatchIds;
use em_features::{BatchScratch, PullCounts};
use em_rules::award::award_suffix;
use em_table::{Table, Value};
use std::time::Instant;

/// Derives the serve-time [`FeatureMask`](em_features::FeatureMask) from a
/// frozen workflow. The definition is shared with the streaming match
/// executor; this re-export keeps the serve tier's established entry point.
pub use em_core::stream::derive_feature_mask;

impl MatchService {
    /// Matches one arriving record through the allocation-free hot loop,
    /// reusing `scratch` across calls. Equivalent to
    /// [`MatchService::match_on_arrival`] (which runs this on a scratch
    /// from the service's pool) — callers that own a request loop should
    /// hold one [`ProbeScratch`] and pass it here directly: no lock is
    /// taken. Counts as one admitted + completed request.
    pub fn match_on_arrival_with(
        &self,
        arrivals: &Table,
        i: usize,
        scratch: &mut ProbeScratch,
    ) -> Result<MatchOutcome, ServeError> {
        let outcome = self.match_inner(arrivals, i, scratch, ServeMode::Full)?;
        self.counters.admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.counters.completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(outcome)
    }

    /// The uncounted hot loop in a caller-chosen [`ServeMode`].
    /// [`ServeMode::RulesOnly`] is the degraded tier: blocking and
    /// positive-rule probes run as usual (hash joins over prebuilt
    /// indexes), but the featurize → impute → score → negative-rule chain
    /// is skipped entirely, so the outcome's ids are the sure matches
    /// alone and the outcome is flagged `degraded`.
    pub(crate) fn match_inner(
        &self,
        arrivals: &Table,
        i: usize,
        scratch: &mut ProbeScratch,
        mode: ServeMode,
    ) -> Result<MatchOutcome, ServeError> {
        let t_start = Instant::now();
        let row = arrivals
            .row(i)
            .ok_or_else(|| ServeError::Pipeline(format!("arrival row {i} is out of range")))?;

        // Blocking: C1 (award-suffix attribute equivalence) ∪ C2 (token
        // overlap) ∪ C3 (overlap coefficient). C2 ∪ C3 come from a single
        // probe of the title index; the AE probe replicates the batch
        // pipeline's `TempAwardNumber` derived column. Both lists ascend.
        let c1 = row
            .str(AWARD_COL)
            .and_then(award_suffix)
            .and_then(|suffix| self.ae_index.get(&Value::from(suffix).dedup_key()));
        self.title_index.probe_into(
            row.str(TITLE_COL),
            &self.plan.union_spec(),
            &mut scratch.probe,
            &mut scratch.hits,
        );
        merge_union(c1.map_or(&[][..], Vec::as_slice), &scratch.hits, &mut scratch.blocked);
        let t_blocked = Instant::now();

        // Sure matches: union of per-rule hash-join probes, then
        // `candidates = blocked − sure` (the workflow's `C = C2 − C1`).
        scratch.sure.clear();
        for (rule, index) in self.rules.positive.iter().zip(&self.rule_indexes) {
            if let Some(js) = rule.left_key(row).and_then(|key| index.get(&key)) {
                merge_union(&scratch.sure, js, &mut scratch.hits);
                std::mem::swap(&mut scratch.sure, &mut scratch.hits);
            }
        }
        merge_difference(&scratch.blocked, &scratch.sure, &mut scratch.candidates);
        let t_rules = Instant::now();

        // Pull-and-score each candidate against the persistent corpus
        // caches. The arriving record is normalized once; per candidate the
        // scorer pulls the features its walk tests. Negative rules run on
        // predicted matches only, on keys bound at the first of them. The
        // rules-only degraded mode skips all of it: sure matches are
        // already decided, and this is the expensive part.
        let mut n_predicted = 0usize;
        let mut n_flipped = 0usize;
        scratch.kept.clear();
        if mode == ServeMode::Full {
            self.extractor.prepare(arrivals, i, &mut scratch.extract)?;
            scratch.dense_row.resize(self.extractor.features().len(), f64::NAN);
            for (c, &j) in scratch.candidates.iter().enumerate() {
                if cfg!(debug_assertions) && c % 64 == 0 {
                    self.debug_assert_pulls_match_compute(arrivals, i, j, &mut scratch.extract);
                }
                let p = score_pair(
                    &self.model,
                    &self.imputer,
                    self.extractor.candidate(j, &mut scratch.extract),
                    &mut scratch.dense_row,
                );
                if p < self.threshold {
                    continue;
                }
                if n_predicted == 0 {
                    scratch.left_keys.clear();
                    self.negatives.bind_left(row, &mut scratch.left_keys);
                }
                n_predicted += 1;
                if self.negatives.any_fires(&scratch.left_keys, j) {
                    n_flipped += 1;
                } else {
                    scratch.kept.push(j);
                }
            }
        }
        let t_scored = Instant::now();

        // Deliverable ids: `sure ∪ kept`, keyed exactly as
        // `MatchIds::from_candidates`. Id rendering allocates — it runs
        // once per *match*, not per candidate.
        let award = row
            .get(AWARD_COL)
            .ok_or_else(|| ServeError::Pipeline(format!("row {i} missing {AWARD_COL}")))?
            .render();
        let mut id_pairs = Vec::with_capacity(scratch.sure.len() + scratch.kept.len());
        for &j in scratch.sure.iter().chain(&scratch.kept) {
            let acc = self
                .corpus
                .get(j, ACCESSION_COL)
                .ok_or_else(|| ServeError::Pipeline(format!("corpus row {j} missing")))?
                .render();
            id_pairs.push((award.clone(), acc));
        }
        let t_end = Instant::now();

        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        Ok(MatchOutcome {
            ids: MatchIds::from_pairs(id_pairs),
            n_blocked: scratch.blocked.len(),
            n_sure: scratch.sure.len(),
            n_candidates: scratch.candidates.len(),
            n_predicted,
            n_flipped,
            degraded: mode == ServeMode::RulesOnly,
            epoch: self.epoch,
            timings: RequestTimings {
                blocking_ms: ms(t_start, t_blocked),
                rules_ms: ms(t_blocked, t_rules),
                features_ms: ms(t_rules, t_scored),
                predict_ms: ms(t_scored, t_end),
                total_ms: ms(t_start, t_end),
            },
        })
    }

    /// Debug-only oracle: pull every feature of the pair — all the model
    /// could read — and assert each live one is bit-equal to the batch
    /// path's per-pair function and each dead one `NaN`.
    fn debug_assert_pulls_match_compute(
        &self,
        arrivals: &Table,
        i: usize,
        j: usize,
        extract: &mut BatchScratch,
    ) {
        let (Some(ra), Some(rb)) = (arrivals.row(i), self.corpus.row(j)) else {
            return;
        };
        let mut pair = self.extractor.candidate(j, extract);
        for (k, f) in self.extractor.features().features.iter().enumerate() {
            let pulled = pair.pull(k);
            if !self.mask.is_live(k) {
                debug_assert!(pulled.is_nan(), "dead feature {k} ({}) not NaN", f.name);
                continue;
            }
            let (Some(a), Some(b)) = (ra.get(&f.left_attr), rb.get(&f.right_attr)) else {
                continue;
            };
            let full = f.compute(a, b);
            debug_assert!(
                full.to_bits() == pulled.to_bits(),
                "pulled feature {k} ({}) diverged: serve {} vs batch {}",
                f.name,
                pulled,
                full,
            );
        }
    }
}

// ---- scratch construction ----

/// Reusable per-request buffers for the serve hot loop — the service-level
/// mirror of `em_text`'s `KernelScratch`. One instance serves any number
/// of sequential requests; a [`MatchService`] pools its own for the reads
/// that do not bring one.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// The title-index probe's tokenized query and bit-sliced counts.
    probe: JoinScratch,
    /// The extractor's prepared arrival, value reuse table and kernel memory.
    extract: BatchScratch,
    /// Output of the C2 ∪ C3 union probe; once `blocked` is merged, the
    /// spare side of the sure-match unions.
    hits: Vec<usize>,
    /// Blocked corpus rows (ascending).
    blocked: Vec<usize>,
    /// Sure-match corpus rows (ascending).
    sure: Vec<usize>,
    /// `blocked − sure`, the matcher's input.
    candidates: Vec<usize>,
    /// Where a dense model's row is assembled (tree-shaped models pull
    /// what they read and leave it alone).
    dense_row: Vec<f64>,
    /// The arriving row's keys under the negative rules, bound at the
    /// request's first predicted match.
    left_keys: Vec<Option<(u32, u32)>>,
    /// Predicted matches that survived the negative rules.
    kept: Vec<usize>,
}

impl ProbeScratch {
    /// Creates an empty scratch; buffers grow to steady-state size over
    /// the first few requests and are then reused.
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// Work the title-index probes of this scratch's requests have done.
    pub fn probe_counters(&self) -> &ProbeCounters {
        self.probe.counters()
    }

    /// Which features this scratch's candidates pulled, and what the
    /// Monge-Elkan word matrices built for them.
    #[doc(hidden)]
    pub fn pull_counts(&self) -> &PullCounts {
        self.extract.pull_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::WorkflowSnapshot;
    use crate::MatchService;
    use em_core::pipeline::{CaseStudy, CaseStudyConfig};
    use em_ml::FittedModel;
    use em_rules::RuleSetDesc;

    fn artifacts() -> em_core::pipeline::ServingArtifacts {
        CaseStudy::new(CaseStudyConfig::small()).train_serving_artifacts().unwrap()
    }

    #[test]
    fn mask_over_standard_rules_and_trained_forest_is_strict_nonempty_subset() {
        use em_ml::forest::RandomForestLearner;
        use em_ml::{Dataset, Learner};
        let a = artifacts();
        let d = a.matcher.features.len();
        // A forest over the case-study feature plan, trained on data where
        // only the first two feature columns carry signal: its split walk
        // can reference at most those columns (plus none of the constant
        // rest), so the mask must prune.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60usize {
            let mut v = vec![0.0; d];
            v[0] = (i % 10) as f64 / 10.0;
            v[1] = ((i * 7) % 10) as f64 / 10.0;
            y.push(v[0] + v[1] > 0.9);
            x.push(v);
        }
        let names = a.matcher.features.features.iter().map(|f| f.name.clone()).collect();
        let data = Dataset { feature_names: names, x, y };
        let learner = RandomForestLearner { n_trees: 4, seed: 7, ..Default::default() };
        let forest = learner.fit_model(&data).unwrap();
        let mask = derive_feature_mask(&a.matcher.features, &forest, &a.rule_descs);
        assert!(mask.n_live() > 0, "mask must keep at least one feature");
        assert!(
            mask.is_strict_subset(),
            "mask must prune: {} live of {}",
            mask.n_live(),
            mask.len()
        );
        assert_eq!(mask.len(), d);
        // Every split feature of the forest is live.
        for k in forest.referenced_features().into_iter().flatten() {
            assert!(mask.is_live(k), "split feature {k} must stay live");
        }
    }

    #[test]
    fn dense_models_get_the_full_mask_and_constant_ones_an_empty_one() {
        use em_ml::model::{ConstantModel, Learner};
        let a = artifacts();
        let features = &a.matcher.features;
        // Constant models read nothing, so nothing is live — whatever the
        // rules: they work on row keys, not on features.
        let constant = FittedModel::Constant(ConstantModel { proba: 1.0 });
        assert!(!a.rule_descs.rules.is_empty());
        for rules in [&RuleSetDesc::new(), &a.rule_descs] {
            let m = derive_feature_mask(features, &constant, rules);
            assert_eq!(m.n_live(), 0);
            assert_eq!(m.len(), features.len());
        }
        // Linear and Bayes models read every feature.
        let data = em_ml::Dataset::new(
            features.names(),
            (0..8).map(|r| vec![f64::from(r); features.len()]).collect(),
            (0..8).map(|r| r >= 4).collect(),
        )
        .unwrap();
        let dense = em_ml::bayes::NaiveBayesLearner::default().fit_model(&data).unwrap();
        assert_eq!(dense.kind(), "bayes");
        assert_eq!(derive_feature_mask(features, &dense, &a.rule_descs).n_live(), features.len());
    }

    #[test]
    fn explicit_scratch_reuse_matches_per_call_path() {
        let a = artifacts();
        let service =
            MatchService::from_snapshot(WorkflowSnapshot::from_artifacts(&a)).unwrap();
        let mut scratch = ProbeScratch::new();
        for i in 0..a.extra_umetrics.n_rows().min(40) {
            let hot = service
                .match_on_arrival_with(&a.extra_umetrics, i, &mut scratch)
                .unwrap();
            let wrapped = service.match_on_arrival(&a.extra_umetrics, i).unwrap();
            assert_eq!(hot.ids, wrapped.ids, "row {i}");
            assert_eq!(hot.n_blocked, wrapped.n_blocked, "row {i}");
            assert_eq!(hot.n_sure, wrapped.n_sure, "row {i}");
            assert_eq!(hot.n_candidates, wrapped.n_candidates, "row {i}");
            assert_eq!(hot.n_predicted, wrapped.n_predicted, "row {i}");
            assert_eq!(hot.n_flipped, wrapped.n_flipped, "row {i}");
        }
    }
}
