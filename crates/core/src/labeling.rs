//! Sampling and labeling (Section 8): iterative sampling from the candidate
//! set, simulated expert labeling with a first-round cross-check, and the
//! bookkeeping of label counts per round.
//!
//! [`label_round`] is the one oracle call: the case study's rounds
//! ([`run_labeling_resilient`]), `em_label`'s active-learning rounds and
//! the monitor's samples all label through it, with one retry path and one
//! [`ResilienceReport`] ledger.

use crate::error::CoreError;
use crate::resilience::{ResilienceReport, RetryPolicy};
use em_blocking::{CandidateSet, Pair};
use em_datagen::{LabelSource, Oracle, PairView};
use em_estimate::Label;
use em_table::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// One labeled candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledPair {
    /// The candidate pair (row indices into the projected tables).
    pub pair: Pair,
    /// The expert label.
    pub label: Label,
}

/// An accumulating set of labeled pairs (pair-keyed; relabeling replaces).
#[derive(Debug, Clone, Default)]
pub struct LabeledSet {
    by_pair: HashMap<Pair, Label>,
    order: Vec<Pair>,
}

impl LabeledSet {
    /// Empty set.
    pub fn new() -> LabeledSet {
        LabeledSet::default()
    }

    /// Adds or replaces a label.
    pub fn insert(&mut self, pair: Pair, label: Label) {
        if self.by_pair.insert(pair, label).is_none() {
            self.order.push(pair);
        }
    }

    /// The label of a pair, if labeled.
    pub fn get(&self, pair: &Pair) -> Option<Label> {
        self.by_pair.get(pair).copied()
    }

    /// True when the pair has been labeled.
    pub fn contains(&self, pair: &Pair) -> bool {
        self.by_pair.contains_key(pair)
    }

    /// Number of labeled pairs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates labeled pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = LabeledPair> + '_ {
        self.order.iter().map(move |p| LabeledPair { pair: *p, label: self.by_pair[p] })
    }

    /// `(yes, no, unsure)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for p in self.order.iter() {
            match self.by_pair[p] {
                Label::Yes => c.0 += 1,
                Label::No => c.1 += 1,
                Label::Unsure => c.2 += 1,
            }
        }
        c
    }
}

/// What one labeling round produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelingRound {
    /// Pairs sampled and labeled this round.
    pub sampled: usize,
    /// Yes labels this round (after any cross-check correction).
    pub yes: usize,
    /// No labels this round.
    pub no: usize,
    /// Unsure labels this round.
    pub unsure: usize,
    /// First round only: labels that disagreed with the EM team's own pass
    /// (the paper found 22).
    pub crosscheck_mismatches: usize,
    /// First round only: labels the experts corrected after discussion
    /// (the paper: 4 updated to Yes).
    pub corrections: usize,
}

/// Renders the accession number of a USDA row (int-typed in the raw data).
pub fn accession_of(usda: &Table, row: usize) -> String {
    usda.get(row, "AccessionNumber").map(|v| v.render()).unwrap_or_default()
}

/// Renders the award number of a UMETRICS row.
pub fn award_of(umetrics: &Table, row: usize) -> String {
    umetrics.get(row, "AwardNumber").map(|v| v.render()).unwrap_or_default()
}

/// Samples `n` not-yet-labeled pairs from the candidate set,
/// deterministically in `seed`.
///
/// Pairs already present in `already` are never re-offered, and the pool is
/// deduplicated in first-occurrence order, so a candidate stream that
/// repeats a pair (or a caller that samples round after round against an
/// accumulating [`LabeledSet`]) can never charge the same pair twice. On a
/// duplicate-free pool the selection is unchanged.
pub fn sample_unlabeled(
    candidates: &CandidateSet,
    already: &LabeledSet,
    n: usize,
    seed: u64,
) -> Vec<Pair> {
    let mut seen = std::collections::HashSet::new();
    let mut pool: Vec<Pair> = candidates
        .iter()
        .filter(|p| !already.contains(p) && seen.insert(*p))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pool.shuffle(&mut rng);
    pool.truncate(n);
    pool.sort(); // deterministic presentation order
    pool
}

/// Labels one round of `pairs` through a [`LabelSource`] into `labeled`:
/// the one oracle call of every labeling loop (the case study's rounds,
/// active learning's rounds, the monitor's samples).
///
/// Each pair's call is retried per the [`RetryPolicy`] (backoff is
/// *recorded* in virtual milliseconds, not slept). When retries run out
/// the pair degrades to `Unsure` — the safe "don't know" of this domain.
/// Faults, retries, backoff and degraded pairs go into `ledger`. In the
/// first round the experts' mistake-prone first pass is cross-checked
/// against the settled labels, which stand; the returned counts say how
/// often they disagreed.
#[allow(clippy::too_many_arguments)]
pub fn label_round(
    umetrics: &Table,
    usda: &Table,
    source: &dyn LabelSource,
    retry: &RetryPolicy,
    pairs: &[Pair],
    first_round: bool,
    labeled: &mut LabeledSet,
    ledger: &mut ResilienceReport,
) -> Result<LabelingRound, CoreError> {
    let mut round = LabelingRound { sampled: pairs.len(), ..LabelingRound::default() };
    for &pair in pairs {
        let u = umetrics.row(pair.left).ok_or_else(|| {
            CoreError::Pipeline(format!("pair row {} outside UMETRICS", pair.left))
        })?;
        let s = usda
            .row(pair.right)
            .ok_or_else(|| CoreError::Pipeline(format!("pair row {} outside USDA", pair.right)))?;
        let accession = accession_of(usda, pair.right);
        let view = PairView {
            award_number: u.str("AwardNumber").unwrap_or(""),
            accession: &accession,
            left_title: u.str("AwardTitle").unwrap_or(""),
            right_title: s.str("AwardTitle").unwrap_or(""),
            right_award_number: s.str("AwardNumber"),
            right_project_number: s.str("ProjectNumber"),
        };
        let backoff_key = format!("{}/{}", view.award_number, accession);
        let mut attempt = 0u32;
        let (first, settled) = loop {
            match source.try_label(&view, first_round, attempt) {
                Ok(labels) => break labels,
                Err(_fault) => {
                    ledger.oracle_faults += 1;
                    if attempt >= retry.max_retries {
                        ledger.degraded_labels += 1;
                        ledger.degraded_pairs.push((view.award_number.to_string(), accession));
                        break (Label::Unsure, Label::Unsure);
                    }
                    ledger.oracle_retries += 1;
                    ledger.total_backoff_ms += retry.backoff_ms(&backoff_key, attempt);
                    attempt += 1;
                }
            }
        };
        if first_round && first != settled {
            round.crosscheck_mismatches += 1;
            if settled == Label::Yes {
                round.corrections += 1;
            }
        }
        // After the cross-check discussion the settled label stands.
        labeled.insert(pair, settled);
        match settled {
            Label::Yes => round.yes += 1,
            Label::No => round.no += 1,
            Label::Unsure => round.unsure += 1,
        }
    }
    Ok(round)
}

/// Runs the Section 8 labeling loop: one round per entry of `round_sizes`.
///
/// The first round reproduces the cross-check: the experts label with their
/// mistake-prone first pass, the EM team's own pass (the settled labels)
/// is compared, mismatches are discussed, and the settled labels win.
/// Later rounds use settled labels directly (the experts have converged on
/// the match definition).
pub fn run_labeling(
    umetrics: &Table,
    usda: &Table,
    candidates: &CandidateSet,
    oracle: &Oracle<'_>,
    round_sizes: &[usize],
    seed: u64,
) -> Result<(LabeledSet, Vec<LabelingRound>), CoreError> {
    let (labeled, rounds, _res) = run_labeling_resilient(
        umetrics,
        usda,
        candidates,
        oracle,
        round_sizes,
        seed,
        &RetryPolicy::none(),
    )?;
    Ok((labeled, rounds))
}

/// [`run_labeling`] against a fallible [`LabelSource`]: each round is
/// [`sample_unlabeled`] at seed `seed + round` (wrapping), then
/// [`label_round`], so every labeling call is retried per `retry` and
/// degrades to `Unsure` when retries run out.
/// The third return value is the ledger of faults, retries, virtual backoff,
/// and degraded pairs. With an infallible source (the plain [`Oracle`]) the
/// ledger stays empty and the labels are identical to [`run_labeling`]'s.
pub fn run_labeling_resilient(
    umetrics: &Table,
    usda: &Table,
    candidates: &CandidateSet,
    source: &dyn LabelSource,
    round_sizes: &[usize],
    seed: u64,
    retry: &RetryPolicy,
) -> Result<(LabeledSet, Vec<LabelingRound>, ResilienceReport), CoreError> {
    let mut labeled = LabeledSet::new();
    let mut ledger = ResilienceReport::default();
    let mut rounds = Vec::with_capacity(round_sizes.len());
    for (r, &n) in round_sizes.iter().enumerate() {
        let pairs = sample_unlabeled(candidates, &labeled, n, seed.wrapping_add(r as u64));
        let round =
            label_round(umetrics, usda, source, retry, &pairs, r == 0, &mut labeled, &mut ledger)?;
        rounds.push(round);
    }
    Ok((labeled, rounds, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking_plan::{run_blocking, BlockingPlan};
    use crate::preprocess::{project_umetrics, project_usda};
    use em_datagen::{OracleConfig, Scenario, ScenarioConfig};

    struct Fixture {
        u: Table,
        s: Table,
        scenario: Scenario,
        candidates: CandidateSet,
    }

    fn fixture() -> Fixture {
        let scenario = Scenario::generate(ScenarioConfig::small()).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let s = project_usda(&scenario.usda, false).unwrap();
        let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
        Fixture { u, s, scenario, candidates }
    }

    #[test]
    fn labeled_set_counts_and_replace() {
        let mut ls = LabeledSet::new();
        ls.insert(Pair::new(0, 0), Label::Yes);
        ls.insert(Pair::new(0, 1), Label::No);
        ls.insert(Pair::new(0, 2), Label::Unsure);
        assert_eq!(ls.counts(), (1, 1, 1));
        ls.insert(Pair::new(0, 0), Label::No); // relabel
        assert_eq!(ls.counts(), (0, 2, 1));
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn sampling_avoids_already_labeled() {
        let f = fixture();
        let mut labeled = LabeledSet::new();
        let first = sample_unlabeled(&f.candidates, &labeled, 20, 1);
        for p in &first {
            labeled.insert(*p, Label::No);
        }
        let second = sample_unlabeled(&f.candidates, &labeled, 20, 2);
        for p in &second {
            assert!(!first.contains(p), "resampled an already-labeled pair");
        }
    }

    #[test]
    fn sampling_never_reoffers_prior_rounds() {
        // Drain the candidate set round by round against one accumulating
        // LabeledSet: no pair may ever be offered twice, and the rounds
        // must partition exactly the candidate pairs.
        let f = fixture();
        let mut labeled = LabeledSet::new();
        let mut offered = std::collections::HashSet::new();
        let mut round = 0u64;
        loop {
            let batch = sample_unlabeled(&f.candidates, &labeled, 25, 1000 + round);
            if batch.is_empty() {
                break;
            }
            for p in &batch {
                assert!(offered.insert(*p), "pair {p:?} re-offered in round {round}");
                labeled.insert(*p, Label::No);
            }
            round += 1;
        }
        assert_eq!(offered.len(), f.candidates.len(), "rounds must cover every candidate once");
    }

    #[test]
    fn sampling_deterministic() {
        let f = fixture();
        let e = LabeledSet::new();
        assert_eq!(
            sample_unlabeled(&f.candidates, &e, 30, 9),
            sample_unlabeled(&f.candidates, &e, 30, 9)
        );
    }

    #[test]
    fn rounds_accumulate_and_report() {
        let f = fixture();
        let oracle = Oracle::new(&f.scenario.truth, OracleConfig::default());
        let (labeled, rounds) =
            run_labeling(&f.u, &f.s, &f.candidates, &oracle, &[40, 30, 30], 7).unwrap();
        assert_eq!(rounds.len(), 3);
        assert_eq!(labeled.len(), rounds.iter().map(|r| r.sampled).sum::<usize>());
        let (yes, no, unsure) = labeled.counts();
        assert_eq!(yes, rounds.iter().map(|r| r.yes).sum::<usize>());
        assert_eq!(no, rounds.iter().map(|r| r.no).sum::<usize>());
        assert_eq!(unsure, rounds.iter().map(|r| r.unsure).sum::<usize>());
        assert!(yes > 0, "sampling the candidate set should find positives");
        // cross-check only happens in round one
        assert!(rounds[1].crosscheck_mismatches == 0 && rounds[2].crosscheck_mismatches == 0);
    }

    #[test]
    fn flaky_source_with_retries_matches_the_clean_run() {
        use em_datagen::{FlakyConfig, FlakyOracle};
        let f = fixture();
        let oracle = Oracle::new(&f.scenario.truth, OracleConfig::default());
        let (clean, clean_rounds) =
            run_labeling(&f.u, &f.s, &f.candidates, &oracle, &[40, 30], 7).unwrap();
        // Fault rates low enough that the default retry budget always wins.
        let flaky = FlakyOracle::new(
            oracle.clone(),
            FlakyConfig { p_unavailable: 0.2, p_timeout: 0.1, ..Default::default() },
        );
        let (labeled, rounds, res) = run_labeling_resilient(
            &f.u,
            &f.s,
            &f.candidates,
            &flaky,
            &[40, 30],
            7,
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(res.oracle_faults > 0, "these rates must exercise the retry path");
        assert_eq!(res.oracle_faults, res.oracle_retries, "no degradation expected");
        assert_eq!(res.degraded_labels, 0);
        assert!(res.total_backoff_ms > 0);
        assert_eq!(rounds, clean_rounds, "retries must not change any label");
        assert_eq!(labeled.len(), clean.len());
        for lp in clean.iter() {
            assert_eq!(labeled.get(&lp.pair), Some(lp.label));
        }
    }

    #[test]
    fn exhausted_retries_degrade_to_unsure() {
        use em_datagen::{FlakyConfig, FlakyOracle};
        let f = fixture();
        let oracle = Oracle::new(&f.scenario.truth, OracleConfig::default());
        // Always faulting, never retrying: every pair degrades.
        let flaky = FlakyOracle::new(
            oracle,
            FlakyConfig {
                p_unavailable: 1.0,
                p_timeout: 1.0,
                max_fault_attempts: u32::MAX,
                ..Default::default()
            },
        );
        let (labeled, rounds, res) = run_labeling_resilient(
            &f.u,
            &f.s,
            &f.candidates,
            &flaky,
            &[25],
            7,
            &RetryPolicy::none(),
        )
        .unwrap();
        assert_eq!(res.degraded_labels, 25);
        assert_eq!(res.degraded_pairs.len(), 25);
        assert_eq!(rounds[0].unsure, 25, "degraded pairs are labeled Unsure");
        let (yes, no, unsure) = labeled.counts();
        assert_eq!((yes, no, unsure), (0, 0, 25));
    }

    #[test]
    fn resilient_runs_are_deterministic_under_faults() {
        use em_datagen::{FlakyConfig, FlakyOracle};
        let f = fixture();
        let oracle = Oracle::new(&f.scenario.truth, OracleConfig::default());
        let flaky = FlakyOracle::new(
            oracle,
            FlakyConfig { p_unavailable: 0.4, p_timeout: 0.2, ..Default::default() },
        );
        let run = || {
            run_labeling_resilient(
                &f.u,
                &f.s,
                &f.candidates,
                &flaky,
                &[30, 20],
                7,
                &RetryPolicy::default(),
            )
            .unwrap()
        };
        let (l1, r1, res1) = run();
        let (l2, r2, res2) = run();
        assert_eq!(r1, r2);
        assert_eq!(res1, res2, "fault ledger must be reproducible");
        assert_eq!(l1.len(), l2.len());
        for lp in l1.iter() {
            assert_eq!(l2.get(&lp.pair), Some(lp.label));
        }
    }

    #[test]
    fn labels_agree_with_truth_for_clear_pairs() {
        let f = fixture();
        let oracle = Oracle::new(&f.scenario.truth, OracleConfig::default());
        let (labeled, _) = run_labeling(&f.u, &f.s, &f.candidates, &oracle, &[80], 3).unwrap();
        for lp in labeled.iter() {
            let award = award_of(&f.u, lp.pair.left);
            let acc = accession_of(&f.s, lp.pair.right);
            let truth = f.scenario.truth.is_match(&award, &acc);
            match lp.label {
                Label::Yes => assert!(truth, "Yes label on a non-match ({award}, {acc})"),
                Label::No => assert!(!truth, "No label on a true match ({award}, {acc})"),
                Label::Unsure => {}
            }
        }
    }
}
