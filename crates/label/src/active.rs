//! The active-learning loop: seed batch → committee fit → query-by-committee
//! selection → one labeling round → refit, with per-round checkpoints.
//!
//! Selection ranks the unlabeled pool by **vote entropy** (descending — the
//! committee splits hardest) breaking ties by **margin** (ascending — the
//! mean probability sits closest to the 0.5 boundary) and finally by pair
//! order, so the queried batch is a pure function of the committee state.
//! The strategy only picks pairs: every round is labeled by
//! [`em_core::labeling::label_round`], the call the case study's labeling
//! stage makes, under the same retry policy and into the same
//! [`ResilienceReport`] ledger. [`Strategy::Random`] draws each round with
//! [`sample_unlabeled`] at the case study's seeds, so the uniform baseline
//! every label-efficiency curve is plotted against *is* the case study's
//! labeling loop.
//!
//! Every round checkpoints its cumulative labeled set, ledger, and curve
//! point through [`Checkpoint`]'s bit-exact float round-trip; a run that
//! crashes mid-loop resumes from the last completed round and produces the
//! same remaining rounds bit for bit (pinned by the crate's integration
//! tests at 1, 2, and 4 threads).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use em_blocking::{CandidateSet, Pair};
use em_core::checkpoint::{Checkpoint, Codec};
use em_core::labeling::{accession_of, award_of, label_round, sample_unlabeled, LabeledSet};
use em_core::pipeline::al_stage_name;
use em_core::{CoreError, ResilienceReport, RetryPolicy};
use em_datagen::{GroundTruth, LabelSource};
use em_estimate::{estimate_accuracy, Interval, Label, SampleItem, Z95};
use em_features::{auto_features, extract_vectors, FeatureOptions, FeatureSet};
use em_ml::dataset::{impute_mean, Dataset, Imputer};
use em_ml::{CommitteeLearner, CommitteeModel};
use em_parallel::Executor;
use em_table::Table;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Feature rows per parallel work item for pool scoring and evaluation.
const EVAL_GRAIN: usize = 64;

/// The acceptance bound the label-efficiency experiment is judged against:
/// active learning must reach the random baseline's final F1 spending at
/// most this fraction of the random arm's label budget.
pub const AL_TARGET_FRACTION: f64 = 0.5;

/// The checkpoint stage holding the config fingerprint guard.
const CONFIG_STAGE: &str = "al_config";

/// How the next batch is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Query-by-committee: vote entropy, then margin, then pair order.
    Committee,
    /// Uniform random sampling — the baseline arm of the curve.
    Random,
}

impl Strategy {
    /// Stable tag used in checkpoints and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Strategy::Committee => "committee",
            Strategy::Random => "random",
        }
    }
}

/// Configuration of one active-learning run.
#[derive(Debug, Clone)]
pub struct ActiveConfig {
    /// Batch-selection strategy.
    pub strategy: Strategy,
    /// Pairs in the round-0 seed batch (always sampled uniformly — the
    /// committee does not exist yet).
    pub seed_batch: usize,
    /// Pairs queried per subsequent round.
    pub batch_size: usize,
    /// Total rounds, including the seed round.
    pub rounds: usize,
    /// Committee members (odd counts avoid exact vote ties).
    pub members: usize,
    /// Seed for sampling and committee fits.
    pub seed: u64,
    /// Retry policy for flaky-oracle queries; exhausted retries degrade the
    /// pair to `Unsure`, exactly as the batch pipeline does.
    pub retry: RetryPolicy,
    /// Test hook: return [`CoreError::InjectedCrash`] after checkpointing
    /// this round. Excluded from the config fingerprint (it does not change
    /// any computed value), so the crashed run can be resumed by a config
    /// with the hook cleared.
    pub crash_after_round: Option<usize>,
}

impl ActiveConfig {
    /// The label-efficiency experiment defaults: a 16-pair seed batch, ten
    /// 16-pair rounds (160 labels total — roughly half the case study's
    /// budget), a 15-member stratified committee, and the standard retry
    /// policy.
    pub fn new(strategy: Strategy, seed: u64) -> ActiveConfig {
        ActiveConfig {
            strategy,
            seed_batch: 16,
            batch_size: 16,
            rounds: 10,
            members: 15,
            seed,
            retry: RetryPolicy::default(),
            crash_after_round: None,
        }
    }

    /// The config guard written next to the round checkpoints: resuming
    /// with any different value — the whole retry policy included, since
    /// the ledger carries its backoff — is refused rather than silently
    /// mixing two experiments. The crash hook is deliberately excluded.
    fn guard(&self) -> Checkpoint {
        let mut cp = Checkpoint::new();
        self.strategy.tag().to_string().put(&mut cp, "strategy");
        self.seed_batch.put(&mut cp, "seed_batch");
        self.batch_size.put(&mut cp, "batch_size");
        self.rounds.put(&mut cp, "rounds");
        self.members.put(&mut cp, "members");
        self.seed.put(&mut cp, "seed");
        self.retry.put(&mut cp, "retry");
        cp
    }
}

/// One point of the label-efficiency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveRound {
    /// Round index (0 = seed batch).
    pub round: usize,
    /// Pairs queried this round.
    pub queried: usize,
    /// Cumulative labeled pairs after this round.
    pub labels_total: usize,
    /// F1 of the current committee over the full candidate set vs truth.
    pub f1: f64,
    /// Precision interval ([`Z95`]) of the committee over the candidates.
    pub precision: Interval,
    /// Recall interval of the committee over the candidates.
    pub recall: Interval,
    /// Cumulative oracle queries: one a labeled pair, since no round
    /// re-offers a labeled pair.
    pub queries: u64,
    /// Cumulative faulted attempts retried (the ledger's `oracle_retries`).
    pub retries: u64,
    /// Cumulative pairs degraded to `Unsure` after exhausted retries (the
    /// ledger's `degraded_labels`).
    pub degraded: u64,
    /// Cumulative distinct `(award, accession)` keys over the labeled set.
    pub distinct: usize,
}

/// Wall time of one computed round's training and selection — the AL
/// benchmark framework's per-round latency, reported beside label
/// efficiency. Kept apart from [`ActiveRound`], which is compared and
/// checkpointed bit for bit: a timing never enters either.
#[derive(Debug, Clone, Copy)]
pub struct RoundLatency {
    /// Round index.
    pub round: usize,
    /// Seconds fitting the committee on the labels so far.
    pub fit_s: f64,
    /// Seconds choosing the round's batch (pool scoring and ranking for
    /// [`Strategy::Committee`], sampling otherwise).
    pub select_s: f64,
}

/// What a full active-learning run produced.
#[derive(Debug, Clone)]
pub struct ActiveOutcome {
    /// The curve, one row per round.
    pub rounds: Vec<ActiveRound>,
    /// One row per round computed in this run (none for a round restored
    /// from a checkpoint).
    pub latency: Vec<RoundLatency>,
    /// Every label acquired.
    pub labeled: LabeledSet,
    /// The ledger of oracle faults, retries, backoff and degraded pairs.
    pub ledger: ResilienceReport,
    /// Rounds restored from checkpoint rather than recomputed.
    pub resumed_rounds: usize,
}

impl ActiveOutcome {
    /// Cumulative distinct labels at the first round whose F1 reaches
    /// `target`, or `None` when the curve never gets there.
    pub fn labels_to_reach(&self, target: f64) -> Option<usize> {
        self.rounds.iter().find(|r| r.f1 >= target).map(|r| r.distinct)
    }

    /// The final round's F1 (0.0 for an empty curve).
    pub fn final_f1(&self) -> f64 {
        self.rounds.last().map(|r| r.f1).unwrap_or(0.0)
    }
}

/// The committee fit on the current labeled set: training rows are the
/// Yes/No labels (Unsure drops out, as in the batch pipeline), imputed
/// in place; `None` until both classes are present.
fn fit_committee(
    features: &FeatureSet,
    x_all: &[Vec<f64>],
    index: &HashMap<Pair, usize>,
    labeled: &LabeledSet,
    cfg: &ActiveConfig,
) -> Result<Option<(CommitteeModel, Imputer)>, CoreError> {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for lp in labeled.iter() {
        let Some(as_bool) = lp.label.as_bool() else { continue };
        let Some(&i) = index.get(&lp.pair) else {
            return Err(CoreError::Pipeline(format!("labeled pair {:?} not a candidate", lp.pair)));
        };
        x.push(x_all[i].clone());
        y.push(as_bool);
    }
    let n_pos = y.iter().filter(|&&b| b).count();
    if n_pos == 0 || n_pos == y.len() {
        return Ok(None); // single-class: nothing to fit yet
    }
    let mut data = Dataset::new(features.names(), x, y).map_err(CoreError::Ml)?;
    let imputer = impute_mean(&mut data);
    let learner = CommitteeLearner {
        n_members: cfg.members,
        seed: cfg.seed,
        stratified: true,
        ..CommitteeLearner::default()
    };
    let model = learner.fit(&data).map_err(CoreError::Ml)?;
    Ok(Some((model, imputer)))
}

/// The committee's match/non-match verdict for every row of `x_all`
/// (imputed with the training-time imputer), bit-identical at any thread
/// count.
pub(crate) fn committee_predictions(
    model: &(CommitteeModel, Imputer),
    x_all: &[Vec<f64>],
) -> Vec<bool> {
    let (m, imputer) = model;
    let mut x = x_all.to_vec();
    imputer.transform(&mut x);
    Executor::current().map_slice(&x, EVAL_GRAIN, |row| m.mean_proba(row) > 0.5)
}

/// Scores a prediction vector against ground truth over the full candidate
/// set: the F1 point estimate plus [`Z95`] precision/recall intervals.
pub(crate) fn score_predictions(
    predicted: &[bool],
    truth_flags: &[bool],
) -> (f64, Interval, Interval) {
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    let mut sample = Vec::with_capacity(predicted.len());
    for (&p, &t) in predicted.iter().zip(truth_flags) {
        match (p, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
        sample.push(SampleItem { predicted: p, label: if t { Label::Yes } else { Label::No } });
    }
    let precision = if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 1.0 } else { tp as f64 / (tp + fn_) as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    let est = estimate_accuracy(&sample, Z95);
    (f1, est.precision, est.recall)
}

/// Scores the committee over the full candidate set against ground truth.
fn evaluate(
    model: Option<&(CommitteeModel, Imputer)>,
    x_all: &[Vec<f64>],
    truth_flags: &[bool],
) -> (f64, Interval, Interval) {
    let predicted = match model {
        Some(m) => committee_predictions(m, x_all),
        None => vec![false; x_all.len()],
    };
    score_predictions(&predicted, truth_flags)
}

/// Round `r`'s curve row: the committee's scores, and the label columns
/// read off the labeled set and the ledger after the round.
fn curve_row(
    r: usize,
    queried: usize,
    (f1, precision, recall): (f64, Interval, Interval),
    labeled: &LabeledSet,
    ledger: &ResilienceReport,
    umetrics: &Table,
    usda: &Table,
) -> ActiveRound {
    let distinct: HashSet<(String, String)> = labeled
        .iter()
        .map(|lp| (award_of(umetrics, lp.pair.left), accession_of(usda, lp.pair.right)))
        .collect();
    ActiveRound {
        round: r,
        queried,
        labels_total: labeled.len(),
        f1,
        precision,
        recall,
        queries: labeled.len() as u64,
        retries: ledger.oracle_retries as u64,
        degraded: ledger.degraded_labels as u64,
        distinct: distinct.len(),
    }
}

/// Round `r`'s checkpoint: the round's own figures, the labeled set so far
/// and the ledger, all in bit-exact text form.
fn encode_round(row: &ActiveRound, labeled: &LabeledSet, ledger: &ResilienceReport) -> Checkpoint {
    let mut cp = Checkpoint::new();
    row.round.put(&mut cp, "round");
    row.queried.put(&mut cp, "queried");
    row.f1.put(&mut cp, "f1");
    row.precision.lo.put(&mut cp, "precision_lo");
    row.precision.hi.put(&mut cp, "precision_hi");
    row.recall.lo.put(&mut cp, "recall_lo");
    row.recall.hi.put(&mut cp, "recall_hi");
    labeled.put(&mut cp, "labeled");
    ledger.put(&mut cp, "ledger");
    cp
}

/// Restores round `r` from its checkpoint: the curve point, the cumulative
/// labeled set, and the ledger.
fn decode_round(
    cp: &Checkpoint,
    r: usize,
    umetrics: &Table,
    usda: &Table,
) -> Result<(ActiveRound, LabeledSet, ResilienceReport), CoreError> {
    let stored = usize::get(cp, "round")?;
    if stored != r {
        return Err(CoreError::Checkpoint(format!(
            "checkpoint stage {} holds round {stored}",
            al_stage_name(r)
        )));
    }
    let labeled: LabeledSet = Codec::get(cp, "labeled")?;
    let ledger: ResilienceReport = Codec::get(cp, "ledger")?;
    let scores = (
        Codec::get(cp, "f1")?,
        Interval::new(Codec::get(cp, "precision_lo")?, Codec::get(cp, "precision_hi")?),
        Interval::new(Codec::get(cp, "recall_lo")?, Codec::get(cp, "recall_hi")?),
    );
    let row = curve_row(r, Codec::get(cp, "queried")?, scores, &labeled, &ledger, umetrics, usda);
    Ok((row, labeled, ledger))
}

/// Runs the active-learning loop end to end.
///
/// With `ckpt_dir` set, each completed round writes a checkpoint and a rerun
/// resumes from the last completed round — the resumed curve, labeled set,
/// and ledger are bit-identical to the uninterrupted run's. A directory
/// holding a different configuration is refused.
pub fn run_active(
    umetrics: &Table,
    usda: &Table,
    candidates: &CandidateSet,
    source: &dyn LabelSource,
    truth: &GroundTruth,
    cfg: &ActiveConfig,
    ckpt_dir: Option<&Path>,
) -> Result<ActiveOutcome, CoreError> {
    // Config guard: a checkpoint directory is bound to one experiment.
    if let Some(dir) = ckpt_dir {
        let guard = cfg.guard();
        match Checkpoint::load(dir, CONFIG_STAGE)? {
            Some(stored) if stored != guard => {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint dir {dir:?} holds a different active-learning configuration"
                )));
            }
            Some(_) => {}
            None => guard.save(dir, CONFIG_STAGE)?,
        }
    }

    // One extraction for the whole experiment: every round's training
    // matrix, pool scores, and evaluation all read from this matrix.
    let all_pairs: Vec<Pair> = candidates.to_vec();
    let features = auto_features(
        umetrics,
        usda,
        &FeatureOptions::excluding(&["RecordId", "AccessionNumber"]).with_case_insensitive(),
    );
    let x_all = extract_vectors(&features, umetrics, usda, &all_pairs)?;
    let index: HashMap<Pair, usize> =
        all_pairs.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let truth_flags: Vec<bool> = all_pairs
        .iter()
        .map(|p| truth.is_match(&award_of(umetrics, p.left), &accession_of(usda, p.right)))
        .collect();

    let mut labeled = LabeledSet::new();
    let mut ledger = ResilienceReport::default();
    let mut rounds: Vec<ActiveRound> = Vec::with_capacity(cfg.rounds);
    let mut latency: Vec<RoundLatency> = Vec::with_capacity(cfg.rounds);
    let mut resumed_rounds = 0usize;
    // The committee carried across rounds: fit at the end of round r, used
    // to select round r+1's batch. Dropped on resume and lazily refit — the
    // fit is a pure function of (labeled set, seed), so the refit equals
    // the model the uninterrupted run carried.
    let mut model: Option<(CommitteeModel, Imputer)> = None;

    for r in 0..cfg.rounds {
        if let Some(dir) = ckpt_dir {
            if let Some(cp) = Checkpoint::load(dir, &al_stage_name(r))? {
                let row;
                (row, labeled, ledger) = decode_round(&cp, r, umetrics, usda)?;
                rounds.push(row);
                model = None;
                resumed_rounds += 1;
                continue;
            }
        }

        // Select this round's batch.
        let mut fit_s = 0.0;
        let select_started = Instant::now();
        if r > 0 && model.is_none() {
            let t = Instant::now();
            model = fit_committee(&features, &x_all, &index, &labeled, cfg)?;
            fit_s += t.elapsed().as_secs_f64();
        }
        let batch: Vec<Pair> = match (cfg.strategy, model.as_ref()) {
            (Strategy::Committee, Some((m, imputer))) => {
                let pool: Vec<usize> = (0..all_pairs.len())
                    .filter(|&i| !labeled.contains(&all_pairs[i]))
                    .collect();
                let mut x_pool: Vec<Vec<f64>> =
                    pool.iter().map(|&i| x_all[i].clone()).collect();
                imputer.transform(&mut x_pool);
                let scores = m.score_pool(&x_pool);
                let mut ranked: Vec<usize> = (0..pool.len()).collect();
                ranked.sort_by(|&a, &b| {
                    scores[b]
                        .vote_entropy
                        .partial_cmp(&scores[a].vote_entropy)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            scores[a]
                                .margin
                                .partial_cmp(&scores[b].margin)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .then_with(|| all_pairs[pool[a]].cmp(&all_pairs[pool[b]]))
                });
                let mut batch: Vec<Pair> = ranked
                    .iter()
                    .take(cfg.batch_size)
                    .map(|&k| all_pairs[pool[k]])
                    .collect();
                batch.sort(); // deterministic presentation order
                batch
            }
            // Random arm, seed round, or no committee yet (single-class
            // labels so far): the case study's uniform round.
            _ => {
                let n = if r == 0 { cfg.seed_batch } else { cfg.batch_size };
                sample_unlabeled(candidates, &labeled, n, cfg.seed.wrapping_add(r as u64))
            }
        };

        let select_s = select_started.elapsed().as_secs_f64() - fit_s;

        label_round(umetrics, usda, source, &cfg.retry, &batch, r == 0, &mut labeled, &mut ledger)?;

        // Refit on everything labeled so far and score the curve point.
        let t = Instant::now();
        model = fit_committee(&features, &x_all, &index, &labeled, cfg)?;
        fit_s += t.elapsed().as_secs_f64();
        latency.push(RoundLatency { round: r, fit_s, select_s });
        let scores = evaluate(model.as_ref(), &x_all, &truth_flags);
        let row = curve_row(r, batch.len(), scores, &labeled, &ledger, umetrics, usda);
        rounds.push(row.clone());

        if let Some(dir) = ckpt_dir {
            encode_round(&row, &labeled, &ledger).save(dir, &al_stage_name(r))?;
            if cfg.crash_after_round == Some(r) {
                return Err(CoreError::InjectedCrash(al_stage_name(r)));
            }
        }
    }

    Ok(ActiveOutcome { rounds, latency, labeled, ledger, resumed_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::blocking_plan::{run_blocking, BlockingPlan};
    use em_core::labeling::run_labeling_resilient;
    use em_core::preprocess::{project_umetrics, project_usda};
    use em_datagen::{FlakyConfig, FlakyOracle, Oracle, OracleConfig, Scenario, ScenarioConfig};
    use std::path::PathBuf;

    struct Fixture {
        u: Table,
        s: Table,
        truth: GroundTruth,
        candidates: CandidateSet,
    }

    fn fixture() -> Fixture {
        let scenario = Scenario::generate(ScenarioConfig::small()).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let s = project_usda(&scenario.usda, false).unwrap();
        let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
        Fixture { u, s, truth: scenario.truth, candidates }
    }

    fn flaky(truth: &GroundTruth) -> FlakyOracle<'_> {
        FlakyOracle::new(
            Oracle::new(truth, OracleConfig::default()),
            FlakyConfig { p_unavailable: 0.4, p_timeout: 0.2, ..Default::default() },
        )
    }

    /// Three rounds of eight pairs, a five-member committee.
    fn small_cfg(strategy: Strategy, seed: u64) -> ActiveConfig {
        ActiveConfig {
            seed_batch: 8,
            batch_size: 8,
            rounds: 3,
            members: 5,
            ..ActiveConfig::new(strategy, seed)
        }
    }

    fn run(f: &Fixture, cfg: &ActiveConfig, dir: Option<&Path>) -> Result<ActiveOutcome, CoreError> {
        run_active(&f.u, &f.s, &f.candidates, &flaky(&f.truth), &f.truth, cfg, dir)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("em-active-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The uniform arm with equal batches is the case study's labeling
    /// loop: the same pairs, labels and ledger, at a seed whose round seeds
    /// wrap past `u64::MAX`.
    #[test]
    fn uniform_arm_is_the_case_study_loop() {
        let f = fixture();
        let (n, rounds, seed) = (10, 3, u64::MAX - 1);
        let retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let cfg = ActiveConfig {
            seed_batch: n,
            batch_size: n,
            rounds,
            members: 5,
            retry,
            ..ActiveConfig::new(Strategy::Random, seed)
        };
        let active = run(&f, &cfg, None).unwrap();
        let oracle = flaky(&f.truth);
        let (labeled, _, ledger) =
            run_labeling_resilient(&f.u, &f.s, &f.candidates, &oracle, &[n; 3], seed, &retry)
                .unwrap();
        let pairs = |l: &LabeledSet| l.iter().collect::<Vec<_>>();
        assert_eq!(pairs(&active.labeled), pairs(&labeled));
        let a = &active.ledger;
        assert!(a.oracle_retries > 0 && a.degraded_labels > 0, "{a:?}");
        assert_eq!(a.oracle_faults, ledger.oracle_faults);
        assert_eq!(a.oracle_retries, ledger.oracle_retries);
        assert_eq!(a.degraded_labels, ledger.degraded_labels);
        assert_eq!(a.degraded_pairs, ledger.degraded_pairs);
        assert_eq!(a.total_backoff_ms, ledger.total_backoff_ms);
        assert_eq!(a.quarantined_rows, ledger.quarantined_rows);
        assert_eq!(a.resumed_stages, ledger.resumed_stages);
        let last = active.rounds.last().unwrap();
        assert_eq!(last.queries, (n * rounds) as u64);
        assert_eq!(last.retries, ledger.oracle_retries as u64);
        assert_eq!(last.degraded, ledger.degraded_labels as u64);
    }

    /// The ledger carries the backoff, so a resume under another backoff
    /// base is a different experiment.
    #[test]
    fn resume_under_another_retry_policy_is_refused() {
        let f = fixture();
        let dir = tmpdir("guard");
        let mut crashing = small_cfg(Strategy::Random, 7);
        crashing.crash_after_round = Some(0);
        assert!(matches!(run(&f, &crashing, Some(&dir)), Err(CoreError::InjectedCrash(_))));
        let mut other = small_cfg(Strategy::Random, 7);
        other.retry.base_delay_ms += 1;
        let err = run(&f, &other, Some(&dir)).unwrap_err();
        assert!(
            matches!(err, CoreError::Checkpoint(ref m) if m.contains("different active-learning configuration")),
            "{err:?}"
        );
        let resumed = run(&f, &small_cfg(Strategy::Random, 7), Some(&dir)).unwrap();
        assert_eq!(resumed.resumed_rounds, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

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

    /// Decodes `text` as round 1 and checks that re-encoding what it
    /// decoded to is a fixed point; `Err` when the bytes do not decode.
    fn round_fixed_point(f: &Fixture, text: &str) -> Result<(), CoreError> {
        let decode = |cp: &Checkpoint| decode_round(cp, 1, &f.u, &f.s);
        let (row, labeled, ledger) = decode(&Checkpoint::from_text(text)?)?;
        let once = encode_round(&row, &labeled, &ledger);
        let (row, labeled, ledger) = decode(&once).expect("an encoding decodes");
        assert_eq!(encode_round(&row, &labeled, &ledger), once, "not a fixed point");
        Ok(())
    }

    /// Every truncation, 3 000 seeded single-byte mutations and every byte
    /// set to each of a digit, a sign and the separators of one round file
    /// are typed errors or fixed points, never a panic; then two full
    /// resumes over mutated files the decoder accepts are outcomes or typed
    /// errors.
    #[test]
    fn hostile_round_bytes_are_typed_errors_or_fixed_points() {
        let f = fixture();
        let source = tmpdir("hostile-source");
        let cfg = small_cfg(Strategy::Committee, 7);
        run(&f, &cfg, Some(&source)).unwrap();
        let name = al_stage_name(1);
        let good = std::fs::read_to_string(Checkpoint::path_for(&source, &name)).unwrap();
        assert!(good.is_ascii());
        round_fixed_point(&f, &good).unwrap();
        let (mut accepted, mut rejected) = (0, 0);
        let mut check = |text: &str, what: &dyn Fn() -> String| {
            match std::panic::catch_unwind(|| round_fixed_point(&f, text)) {
                Err(_) => panic!("{} panicked", what()),
                Ok(Ok(())) => accepted += 1,
                Ok(Err(_)) => rejected += 1,
            }
        };
        for cut in 0..good.len() {
            check(&good[..cut], &|| format!("truncation at {cut}"));
        }
        let every_byte = (0..good.len()).flat_map(|at| b"9-\t\n\\=".map(|byte| (at, byte)));
        for (at, byte) in mutations(good.len(), 20190326).take(3_000).chain(every_byte) {
            check(&mutate(&good, at, byte), &|| format!("byte {at} set to {:?}", byte as char));
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");

        let dir = tmpdir("hostile-resume");
        let resumable = mutations(good.len(), 7)
            .map(|(at, byte)| mutate(&good, at, byte))
            .filter(|text| *text != good && round_fixed_point(&f, text).is_ok())
            .take(2);
        for text in resumable {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for kept in [CONFIG_STAGE.to_string(), al_stage_name(0)] {
                let from = Checkpoint::path_for(&source, &kept);
                std::fs::copy(from, Checkpoint::path_for(&dir, &kept)).unwrap();
            }
            std::fs::write(Checkpoint::path_for(&dir, &name), &text).unwrap();
            let resumed = std::panic::catch_unwind(|| run(&f, &cfg, Some(&dir)));
            assert!(resumed.is_ok(), "resume panicked over\n{text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&source);
    }
}
