//! The active-learning loop: seed batch → committee fit → query-by-committee
//! selection → oracle query under retry/backoff → refit, with per-round
//! checkpoints.
//!
//! Selection ranks the unlabeled pool by **vote entropy** (descending — the
//! committee splits hardest) breaking ties by **margin** (ascending — the
//! mean probability sits closest to the 0.5 boundary) and finally by pair
//! order, so the queried batch is a pure function of the committee state.
//! The same harness with [`Strategy::Random`] is the uniform-sampling
//! baseline every label-efficiency curve is plotted against.
//!
//! Every round checkpoints its cumulative labeled set, budget ledger, and
//! curve point through [`Checkpoint`]'s bit-exact float round-trip; a run
//! that crashes mid-loop resumes from the last completed round and produces
//! the same remaining rounds bit for bit (pinned by the crate's integration
//! tests at 1, 2, and 4 threads).

use em_blocking::{CandidateSet, Pair};
use em_core::checkpoint::{Checkpoint, Codec};
use em_core::labeling::{accession_of, award_of, sample_unlabeled, LabeledSet};
use em_core::pipeline::al_stage_name;
use em_core::{CoreError, RetryPolicy};
use em_datagen::{FlakyOracle, GroundTruth, LabelBudget, PairView};
use em_estimate::{estimate_accuracy, Interval, Label, SampleItem, Z95};
use em_features::{auto_features, extract_vectors, FeatureOptions, FeatureSet};
use em_ml::dataset::{impute_mean, Dataset, Imputer};
use em_ml::{CommitteeLearner, CommitteeModel};
use em_parallel::Executor;
use em_table::Table;
use std::collections::HashMap;
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
    /// with any different value is refused rather than silently mixing two
    /// experiments. The crash hook is deliberately excluded.
    fn fingerprint(&self) -> String {
        format!(
            "strategy={};seed_batch={};batch_size={};rounds={};members={};seed={};max_retries={}",
            self.strategy.tag(),
            self.seed_batch,
            self.batch_size,
            self.rounds,
            self.members,
            self.seed,
            self.retry.max_retries,
        )
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
    /// Cumulative oracle queries (ledger snapshot).
    pub queries: u64,
    /// Cumulative faulted attempts retried.
    pub retries: u64,
    /// Cumulative pairs degraded to `Unsure` after exhausted retries.
    pub degraded: u64,
    /// Cumulative distinct pairs charged to the label budget.
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
    /// The label-budget ledger.
    pub budget: LabelBudget,
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

/// Saves round `r`'s cumulative state: the curve point, the labeled set so
/// far, and the budget ledger, all in bit-exact text form.
fn save_round(
    dir: &Path,
    r: usize,
    row: &ActiveRound,
    labeled: &LabeledSet,
    budget: &LabelBudget,
) -> Result<(), CoreError> {
    let mut cp = Checkpoint::new();
    r.put(&mut cp, "round");
    row.queried.put(&mut cp, "queried");
    row.labels_total.put(&mut cp, "labels_total");
    row.f1.put(&mut cp, "f1");
    row.precision.lo.put(&mut cp, "precision_lo");
    row.precision.hi.put(&mut cp, "precision_hi");
    row.recall.lo.put(&mut cp, "recall_lo");
    row.recall.hi.put(&mut cp, "recall_hi");
    budget.queries().put(&mut cp, "queries");
    budget.retries().put(&mut cp, "retries");
    budget.degraded().put(&mut cp, "degraded");
    labeled.put(&mut cp, "labeled");
    budget.distinct_iter().cloned().collect::<Vec<_>>().put(&mut cp, "charged");
    cp.save(dir, &al_stage_name(r))
}

/// Restores round `r` from its checkpoint: the curve point, the cumulative
/// labeled set, and the budget ledger.
fn load_round(cp: &Checkpoint, r: usize) -> Result<(ActiveRound, LabeledSet, LabelBudget), CoreError> {
    let stored = usize::get(cp, "round")?;
    if stored != r {
        return Err(CoreError::Checkpoint(format!(
            "checkpoint stage {} holds round {stored}",
            al_stage_name(r)
        )));
    }
    let labeled: LabeledSet = Codec::get(cp, "labeled")?;
    let budget = LabelBudget::restore(
        Codec::get(cp, "queries")?,
        Codec::get(cp, "retries")?,
        Codec::get(cp, "degraded")?,
        Vec::<(String, String)>::get(cp, "charged")?,
    );
    let row = ActiveRound {
        round: r,
        queried: Codec::get(cp, "queried")?,
        labels_total: Codec::get(cp, "labels_total")?,
        f1: Codec::get(cp, "f1")?,
        precision: Interval::new(Codec::get(cp, "precision_lo")?, Codec::get(cp, "precision_hi")?),
        recall: Interval::new(Codec::get(cp, "recall_lo")?, Codec::get(cp, "recall_hi")?),
        queries: budget.queries(),
        retries: budget.retries(),
        degraded: budget.degraded(),
        distinct: budget.distinct_pairs(),
    };
    Ok((row, labeled, budget))
}

/// Runs the active-learning loop end to end.
///
/// With `ckpt_dir` set, each completed round writes a checkpoint and a rerun
/// resumes from the last completed round — the resumed curve, labeled set,
/// and budget are bit-identical to the uninterrupted run's. A directory
/// holding a different config fingerprint is refused.
pub fn run_active(
    umetrics: &Table,
    usda: &Table,
    candidates: &CandidateSet,
    oracle: &FlakyOracle<'_>,
    truth: &GroundTruth,
    cfg: &ActiveConfig,
    ckpt_dir: Option<&Path>,
) -> Result<ActiveOutcome, CoreError> {
    // Config guard: a checkpoint directory is bound to one experiment.
    if let Some(dir) = ckpt_dir {
        match Checkpoint::load(dir, CONFIG_STAGE)? {
            Some(stored) if stored.get("fingerprint")? != cfg.fingerprint() => {
                return Err(CoreError::Checkpoint(format!(
                    "checkpoint dir {dir:?} holds a different active-learning configuration"
                )));
            }
            Some(_) => {}
            None => {
                let mut cp = Checkpoint::new();
                cp.put("fingerprint", cfg.fingerprint());
                cp.save(dir, CONFIG_STAGE)?;
            }
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
    let keys: Vec<(String, String)> = all_pairs
        .iter()
        .map(|p| (award_of(umetrics, p.left), accession_of(usda, p.right)))
        .collect();
    let truth_flags: Vec<bool> = keys.iter().map(|(a, c)| truth.is_match(a, c)).collect();

    let mut labeled = LabeledSet::new();
    let mut budget = LabelBudget::new();
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
                let (row, l, b) = load_round(&cp, r)?;
                rounds.push(row);
                labeled = l;
                budget = b;
                model = None;
                resumed_rounds += 1;
                continue;
            }
        }

        // Select this round's batch.
        let mut fit_s = 0.0;
        let select_started = Instant::now();
        let batch: Vec<Pair> = if r == 0 {
            sample_unlabeled(candidates, &labeled, cfg.seed_batch, cfg.seed)
        } else {
            if model.is_none() {
                let t = Instant::now();
                model = fit_committee(&features, &x_all, &index, &labeled, cfg)?;
                fit_s += t.elapsed().as_secs_f64();
            }
            match (cfg.strategy, model.as_ref()) {
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
                // Random arm, or no committee yet (single-class labels so
                // far): uniform sampling keeps the loop moving.
                _ => sample_unlabeled(candidates, &labeled, cfg.batch_size, cfg.seed + r as u64),
            }
        };

        let select_s = select_started.elapsed().as_secs_f64() - fit_s;

        // Query the oracle for the batch under the retry policy; the ledger
        // charges each distinct pair once no matter how flaky the oracle.
        let views: Vec<PairView<'_>> = batch
            .iter()
            .map(|p| {
                let i = index[p];
                let u = umetrics.row(p.left);
                let s = usda.row(p.right);
                PairView {
                    award_number: &keys[i].0,
                    accession: &keys[i].1,
                    left_title: u.and_then(|r| r.str("AwardTitle")).unwrap_or(""),
                    right_title: s.and_then(|r| r.str("AwardTitle")).unwrap_or(""),
                    right_award_number: s.and_then(|r| r.str("AwardNumber")),
                    right_project_number: s.and_then(|r| r.str("ProjectNumber")),
                }
            })
            .collect();
        let labels = oracle.label_batch(&views, r == 0, cfg.retry.max_retries, &mut budget);
        for (pair, (_first, settled)) in batch.iter().zip(&labels) {
            labeled.insert(*pair, *settled);
        }

        // Refit on everything labeled so far and score the curve point.
        let t = Instant::now();
        model = fit_committee(&features, &x_all, &index, &labeled, cfg)?;
        fit_s += t.elapsed().as_secs_f64();
        latency.push(RoundLatency { round: r, fit_s, select_s });
        let (f1, precision, recall) = evaluate(model.as_ref(), &x_all, &truth_flags);
        let row = ActiveRound {
            round: r,
            queried: batch.len(),
            labels_total: labeled.len(),
            f1,
            precision,
            recall,
            queries: budget.queries(),
            retries: budget.retries(),
            degraded: budget.degraded(),
            distinct: budget.distinct_pairs(),
        };
        rounds.push(row.clone());

        if let Some(dir) = ckpt_dir {
            save_round(dir, r, &row, &labeled, &budget)?;
            if cfg.crash_after_round == Some(r) {
                return Err(CoreError::InjectedCrash(al_stage_name(r)));
            }
        }
    }

    Ok(ActiveOutcome { rounds, latency, labeled, budget, resumed_rounds })
}
