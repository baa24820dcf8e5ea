//! The online match service: single-record and micro-batched matching
//! against a frozen workflow snapshot.
//!
//! [`MatchService`] replays the batch pipeline's decision function for one
//! arriving left-table record at a time. Equality with the batch pipeline
//! is structural, not approximate — each stage mirrors the batch
//! implementation's arithmetic over pre-built indexes:
//!
//! - **Blocking** probes the same three schemes `run_blocking` composes:
//!   an attribute-equivalence index over the corpus `AwardNumber` keyed by
//!   [`Value::dedup_key`] (the hash join the batch AE blocker builds, with
//!   the award-suffix temp column applied on the probe side), plus an
//!   [`IncrementalIndex`] over the corpus `AwardTitle` — the batch join's
//!   bit-sliced index as sealed segments plus a scanned tail — whose
//!   `probe_into` under the plan's union spec is property-tested equal to
//!   the nested-loop scan and to the batch join over the same rows.
//! - **Sure matches** probe one hash index per positive rule (the same
//!   right-key join `EqualityRule::find_all` performs).
//! - **Prediction** ends in the routine the batch stream ends in,
//!   `em_core::stream::score_pair`: the fitted model walks its trees and
//!   pulls each feature it tests from the masked serve extractor, imputed
//!   as it is read. Feature values are pure functions of the two cell
//!   values, so a one-row probe yields the floats `extract_vectors` would,
//!   and a feature the walk never asks for would have reached no
//!   comparison of `predict_proba ≥ threshold` either.
//! - **Negative rules** run on predicted matches only, through the batch
//!   stream's evaluator, `em_rules::BoundNegativeRules`: its right side grows
//!   with the corpus, the arriving row's keys are bound once per request.
//!
//! There is one read path, `MatchService::match_inner` (`hot.rs`), under
//! thin counted callers: [`MatchService::match_on_arrival_with`] on a
//! scratch the caller owns (no lock), and
//! [`MatchService::match_on_arrival`], [`MatchService::match_batch`] and
//! [`MatchService::drain_at`] on scratches the service owns — a pool a read
//! borrows from and returns to, so a scratch stays warm whichever thread
//! runs the read: the caller or one of the executor's parked workers.
//!
//! Because every arriving row is scored independently and
//! [`MatchService::match_batch`] merges per-row results in row order
//! through [`Executor::map_indexed`], results are bit-identical across
//! thread counts and across one-at-a-time vs. batched replay.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::hot::{derive_feature_mask, ProbeScratch};
use crate::overload::{DrainOutcome, OverloadPolicy, PendingMeta, ServeMode};
use crate::snapshot::WorkflowSnapshot;
use crate::wal::{read_wal, WalWriter};
use em_blocking::{IncrementalIndex, IncrementalLayout};
use em_core::pipeline::ServingArtifacts;
use em_core::{BlockingPlan, MatchIds};
use em_features::{FeatureMask, ServeExtractor};
use em_ml::{FittedModel, Imputer};
use em_parallel::Executor;
use em_rules::{BoundNegativeRules, RuleSet, RuleSetDesc};
use em_table::{Table, Value};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Rows per parallel work unit in [`MatchService::match_batch`] — small,
/// because each row's probe already fans out over candidate pairs.
const SERVE_GRAIN: usize = 8;

/// Default bound of the admission queue.
const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Wall-clock stage timings of one request, in milliseconds.
///
/// Timings are observability only: they are measured with [`Instant`] and
/// excluded from every determinism guarantee.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTimings {
    /// Blocking-index probes (AE + overlap + set-similarity).
    pub blocking_ms: f64,
    /// Positive-rule probes and candidate-set subtraction.
    pub rules_ms: f64,
    /// Preparing the arriving record and the fused pull-and-score loop over
    /// its candidates: the model's walk, the feature extraction and
    /// imputation it pulls, the negative rules on predicted matches.
    pub features_ms: f64,
    /// Rendering the final matches' ids.
    pub predict_ms: f64,
    /// End-to-end request time.
    pub total_ms: f64,
}

/// What happened after a crash: how much the WAL gave back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// WAL records replayed on top of the snapshot corpus.
    pub replayed: usize,
    /// Whether a torn final record was dropped and truncated away.
    pub torn_tail_repaired: bool,
    /// Wall-clock recovery time — observability only, excluded from every
    /// determinism guarantee.
    pub recovery_ms: f64,
}

/// The result of matching one arriving record.
#[derive(Debug, Clone)]
pub struct MatchOutcome {
    /// Final matches as `(UniqueAwardNumber, AccessionNumber)` pairs —
    /// the same deliverable keying as the batch pipeline.
    pub ids: MatchIds,
    /// Corpus rows admitted by blocking.
    pub n_blocked: usize,
    /// Corpus rows decided by positive rules (sure matches).
    pub n_sure: usize,
    /// Matcher input size (`blocked − sure`).
    pub n_candidates: usize,
    /// Candidates the model predicted as matches.
    pub n_predicted: usize,
    /// Predictions flipped to non-match by negative rules.
    pub n_flipped: usize,
    /// Whether the request was scored in the rules-only degraded mode
    /// (see [`crate::overload::ServeMode`]).
    pub degraded: bool,
    /// Snapshot epoch the request was served on (bumped by each published
    /// hot swap).
    pub epoch: u64,
    /// Per-stage wall-clock timings.
    pub timings: RequestTimings,
}

/// The result of matching a micro-batch of arrivals.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Union of all per-row match ids.
    pub ids: MatchIds,
    /// Per-row outcomes, in arrival (row) order.
    pub outcomes: Vec<MatchOutcome>,
}

impl BatchOutcome {
    /// The batch of `outcomes` (row order) under the union of their ids.
    pub(crate) fn of(outcomes: Vec<MatchOutcome>) -> BatchOutcome {
        let mut ids = MatchIds::default();
        for outcome in &outcomes {
            ids.absorb(outcome.ids.clone());
        }
        BatchOutcome { ids, outcomes }
    }
}

/// Service health/size counters.
///
/// The request counters are monotonic over the life of a service lineage
/// (they survive snapshot hot-swaps — a published swap migrates them to
/// the new epoch) and satisfy the admission identity
///
/// ```text
/// admitted == completed + shed + queue_len
/// ```
///
/// at every quiescent point: an admitted request is queued until it is
/// either served (`completed`) or deadline/watermark-shed (`shed`).
/// [`ServeError::QueueFull`] rejections never enter the identity — they
/// are counted separately in `queue_full` because the request was
/// rejected at the transport bound, not decided by service policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Rows currently in the corpus.
    pub corpus_rows: usize,
    /// Distinct tokens in the title index's vocabulary. Corpus pushes grow
    /// it; requests never do.
    pub cache_tokens: usize,
    /// Arrivals waiting in the admission queue.
    pub queue_len: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Snapshot epoch (count of published hot swaps in this lineage).
    pub epoch: u64,
    /// Requests admitted into service accounting.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed: at the overload watermark or for a blown deadline.
    pub shed: u64,
    /// Arrivals rejected at the hard queue bound (not admitted).
    pub queue_full: u64,
    /// Requests served in the rules-only degraded mode.
    pub degraded: u64,
    /// Retry attempts observed at admission (`submit_at` with
    /// `attempt > 0`).
    pub retried: u64,
    /// Corpus rows appended to the WAL by this service.
    pub wal_appended: u64,
    /// Corpus rows replayed from the WAL at recovery.
    pub wal_replayed: u64,
    /// Torn WAL tails dropped and truncated at recovery.
    pub torn_tail_repairs: u64,
}

/// Monotonic request counters, atomically bumped so the read-only match
/// paths (which fan out over `&self` across executor workers) can count
/// without locks. `Relaxed` suffices: each counter is an independent
/// total, read only at quiescent points.
#[derive(Debug, Default)]
pub(crate) struct ServiceCounters {
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) queue_full: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) retried: AtomicU64,
    pub(crate) wal_appended: AtomicU64,
    pub(crate) wal_replayed: AtomicU64,
    pub(crate) torn_tail_repairs: AtomicU64,
}

impl ServiceCounters {
    /// Copies another service's totals into `self` — how a published hot
    /// swap carries the lineage's counters across the epoch boundary.
    pub(crate) fn adopt(&self, other: &ServiceCounters) {
        let pairs = [
            (&self.admitted, &other.admitted),
            (&self.completed, &other.completed),
            (&self.shed, &other.shed),
            (&self.queue_full, &other.queue_full),
            (&self.degraded, &other.degraded),
            (&self.retried, &other.retried),
            (&self.wal_appended, &other.wal_appended),
            (&self.wal_replayed, &other.wal_replayed),
            (&self.torn_tail_repairs, &other.torn_tail_repairs),
        ];
        for (dst, src) in pairs {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// An online matching service over a frozen workflow.
pub struct MatchService {
    pub(crate) corpus: Table,
    pub(crate) imputer: Imputer,
    pub(crate) model: FittedModel,
    learner_name: String,
    pub(crate) threshold: f64,
    pub(crate) plan: BlockingPlan,
    pub(crate) rules: RuleSet,
    /// `rules.negative` bound to the corpus, one right row a corpus row.
    pub(crate) negatives: BoundNegativeRules,
    /// Segmented bit-sliced index over the corpus blocking title column.
    pub(crate) title_index: IncrementalIndex,
    /// `dedup_key(AwardNumber)` → corpus rows (the AE blocker's hash join).
    pub(crate) ae_index: HashMap<String, Vec<usize>>,
    /// Per positive rule: `right_key` → corpus rows (`find_all`'s join).
    pub(crate) rule_indexes: Vec<HashMap<String, Vec<usize>>>,
    /// Persistent corpus-side feature caches for the serve hot path.
    pub(crate) extractor: ServeExtractor,
    /// Which features the fitted model can actually read.
    pub(crate) mask: FeatureMask,
    /// The declarative rule set the service was built from — kept so
    /// [`MatchService::to_snapshot`] can freeze live state back into an
    /// artifact (the built [`RuleSet`] closures are not serializable).
    pub(crate) rule_descs: RuleSetDesc,
    /// Bounded admission queue of arrivals awaiting [`MatchService::drain`].
    pending: Option<Table>,
    /// Admission metadata (seq, deadline) aligned with `pending` rows.
    pending_meta: Vec<PendingMeta>,
    pub(crate) queue_capacity: usize,
    /// Corpus write-ahead log; `None` until [`MatchService::attach_wal`]
    /// (pushes are then volatile, as before PR 6).
    wal: Option<WalWriter>,
    /// Snapshot epoch: 0 at construction, +1 per published hot swap.
    pub(crate) epoch: u64,
    /// Overload watermarks and budgets (default: unbounded).
    pub(crate) policy: OverloadPolicy,
    /// Monotonic request counters.
    pub(crate) counters: ServiceCounters,
    /// Next submission sequence number.
    pub(crate) next_seq: u64,
    /// Warm scratches for the reads that do not bring their own (see
    /// [`MatchService::with_scratch`]).
    scratches: Mutex<Vec<ProbeScratch>>,
}

/// Left/right blocking and id columns — fixed by the case-study workflow
/// (the snapshot's rule and feature attrs are free; these three anchor the
/// blocking plan and the deliverable keying).
pub(crate) const AWARD_COL: &str = "AwardNumber";
pub(crate) const TITLE_COL: &str = "AwardTitle";
pub(crate) const ACCESSION_COL: &str = "AccessionNumber";

impl MatchService {
    /// Builds a service from a (loaded or freshly frozen) snapshot.
    pub fn from_snapshot(snapshot: WorkflowSnapshot) -> Result<MatchService, ServeError> {
        let WorkflowSnapshot {
            corpus,
            features,
            imputer,
            model,
            learner_name,
            rules: rule_descs,
            plan,
            threshold,
        } = snapshot;
        for col in [AWARD_COL, TITLE_COL, ACCESSION_COL] {
            if corpus.schema().index_of(col).is_none() {
                return Err(ServeError::Corrupt(format!(
                    "snapshot corpus is missing required column {col:?}"
                )));
            }
        }
        let mask = derive_feature_mask(&features, &model, &rule_descs);
        let rules = rule_descs.build();
        let empty_corpus = Table::new(corpus.name(), corpus.schema().clone());
        let negatives = rules.bind_negative(&empty_corpus)?;
        let extractor = ServeExtractor::with_mask(&features, &empty_corpus, &mask)?;
        let mut service = MatchService {
            // The whole title column as one segment; rows pushed later
            // gather in the index's tail.
            title_index: IncrementalIndex::from_texts(corpus.iter().map(|r| r.str(TITLE_COL))),
            ae_index: HashMap::new(),
            rule_indexes: vec![HashMap::new(); rules.positive.len()],
            corpus: empty_corpus,
            imputer,
            model,
            learner_name,
            threshold,
            plan,
            rules,
            negatives,
            extractor,
            mask,
            rule_descs,
            pending: None,
            pending_meta: Vec::new(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            wal: None,
            epoch: 0,
            policy: OverloadPolicy::unbounded(),
            counters: ServiceCounters::default(),
            next_seq: 0,
            scratches: Mutex::default(),
        };
        for row in corpus.iter() {
            service.append_row(row.values().to_vec())?;
        }
        Ok(service)
    }

    /// Builds a service straight from batch-pipeline artifacts (equivalent
    /// to freezing a snapshot and loading it back).
    pub fn from_artifacts(artifacts: &ServingArtifacts) -> Result<MatchService, ServeError> {
        MatchService::from_snapshot(WorkflowSnapshot::from_artifacts(artifacts))
    }

    /// Replaces the admission-queue bound (default 1024).
    pub fn with_queue_capacity(mut self, capacity: usize) -> MatchService {
        self.queue_capacity = capacity;
        self
    }

    /// The corpus currently matched against.
    pub fn corpus(&self) -> &Table {
        &self.corpus
    }

    /// Which learner the frozen workflow was trained with.
    pub fn learner_name(&self) -> &str {
        &self.learner_name
    }

    /// The decision threshold on `predict_proba`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The serve-time feature mask: which features of the frozen plan the
    /// hot path actually extracts (see [`crate::derive_feature_mask`]).
    pub fn feature_mask(&self) -> &FeatureMask {
        &self.mask
    }

    /// What the title index holds: its sealed segments (rows and
    /// dense/sparse split of each) and the rows still in its tail.
    pub fn title_index_layout(&self) -> IncrementalLayout {
        self.title_index.layout()
    }

    /// Service counters. See [`ServiceStats`] for the admission identity
    /// the request counters satisfy.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceStats {
            corpus_rows: self.corpus.n_rows(),
            cache_tokens: self.title_index.n_tokens(),
            queue_len: self.queue_len(),
            queue_capacity: self.queue_capacity,
            epoch: self.epoch,
            admitted: load(&c.admitted),
            completed: load(&c.completed),
            shed: load(&c.shed),
            queue_full: load(&c.queue_full),
            degraded: load(&c.degraded),
            retried: load(&c.retried),
            wal_appended: load(&c.wal_appended),
            wal_replayed: load(&c.wal_replayed),
            torn_tail_repairs: load(&c.torn_tail_repairs),
        }
    }

    /// Appends a row to the corpus, updating every blocking and rule index
    /// incrementally — the online equivalent of re-running batch blocking
    /// over the grown corpus.
    ///
    /// When a WAL is attached ([`MatchService::attach_wal`] /
    /// [`MatchService::recover`]), the row is validated against the corpus
    /// schema and **logged before any in-memory state changes** — so at
    /// every instant, snapshot + WAL replay reproduces the service, and a
    /// crash between the append and the index updates merely replays a
    /// row the indexes never saw.
    pub fn push_corpus_row(&mut self, row: Vec<Value>) -> Result<usize, ServeError> {
        // Validate *before* the WAL append: a row that cannot be applied
        // must not become a log record that recovery would also fail on.
        if row.len() != self.corpus.schema().len() {
            return Err(ServeError::Pipeline(format!(
                "pushed row has {} cells, corpus schema has {}",
                row.len(),
                self.corpus.schema().len()
            )));
        }
        for (col, v) in self.corpus.schema().columns().iter().zip(&row) {
            if let Some(t) = v.data_type() {
                if !col.dtype.accepts(t) {
                    return Err(ServeError::Pipeline(format!(
                        "pushed row cell for column {:?} has type {t:?}, column wants {:?}",
                        col.name, col.dtype
                    )));
                }
            }
        }
        if let Some(wal) = &mut self.wal {
            wal.append(&row)?;
            ServiceCounters::bump(&self.counters.wal_appended);
        }
        let j = self.append_row(row)?;
        let title = self.corpus.get(j, TITLE_COL).and_then(Value::as_str);
        self.title_index.insert(j, title);
        Ok(j)
    }

    /// Appends `row` to the corpus, the feature caches, the hash-join
    /// indexes and the bound negative rules — everything
    /// [`MatchService::push_corpus_row`] updates but
    /// the title index, which construction builds in bulk instead.
    fn append_row(&mut self, row: Vec<Value>) -> Result<usize, ServeError> {
        self.corpus.push_row(row)?;
        let j = self.corpus.n_rows() - 1;
        let added = self
            .corpus
            .row(j)
            .ok_or_else(|| ServeError::Pipeline("pushed row vanished".into()))?;
        self.extractor.push_right_row(added.values());
        self.negatives.push_right_row(added)?;
        if let Some(v) = added.get(AWARD_COL) {
            if !v.is_null() {
                self.ae_index.entry(v.dedup_key()).or_default().push(j);
            }
        }
        for (rule, index) in self.rules.positive.iter().zip(&mut self.rule_indexes) {
            if let Some(key) = rule.right_key(added) {
                index.entry(key).or_default().push(j);
            }
        }
        Ok(j)
    }

    /// Freezes the *live* service state — including every row pushed since
    /// construction — back into a snapshot. `from_snapshot(to_snapshot())`
    /// rebuilds a service that matches bit-identically.
    pub fn to_snapshot(&self) -> WorkflowSnapshot {
        WorkflowSnapshot {
            corpus: self.corpus.clone(),
            features: self.extractor.features().clone(),
            imputer: self.imputer.clone(),
            model: self.model.clone(),
            learner_name: self.learner_name.clone(),
            rules: self.rule_descs.clone(),
            plan: self.plan,
            threshold: self.threshold,
        }
    }

    /// Attaches a **fresh** WAL at `path` (created or truncated): every
    /// subsequent [`MatchService::push_corpus_row`] is logged before it is
    /// applied. The log is relative to the service's *current* corpus —
    /// pair this with a snapshot of the same state (see
    /// [`MatchService::checkpoint`]) or recovery will miss the rows pushed
    /// before attachment.
    pub fn attach_wal(&mut self, path: &Path) -> Result<(), ServeError> {
        self.wal = Some(WalWriter::create(path)?);
        Ok(())
    }

    /// Durable checkpoint: atomically saves the live state to
    /// `snapshot_path` and rotates a fresh WAL at `wal_path` (all logged
    /// rows are now inside the snapshot, so the old records are
    /// redundant). After a crash, [`MatchService::recover`] on the same
    /// two paths rebuilds this exact service.
    pub fn checkpoint(&mut self, snapshot_path: &Path, wal_path: &Path) -> Result<(), ServeError> {
        self.to_snapshot().save(snapshot_path)?;
        self.attach_wal(wal_path)
    }

    /// Crash recovery: loads the checkpoint snapshot, replays every valid
    /// WAL record through [`MatchService::push_corpus_row`], repairs a
    /// torn tail by truncation, and resumes the WAL for further appends.
    ///
    /// The rebuilt service is **bit-identical** to the crashed one at its
    /// last completed push: same corpus, same incremental indexes, same
    /// match outcomes (pinned by the crash-after-every-record tests). A
    /// missing WAL file is not an error — it means the service crashed
    /// after checkpointing but before its first logged push, so recovery
    /// starts a fresh log.
    pub fn recover(
        snapshot_path: &Path,
        wal_path: &Path,
    ) -> Result<(MatchService, RecoveryReport), ServeError> {
        let t0 = Instant::now();
        let snapshot = WorkflowSnapshot::load(snapshot_path)?;
        let mut service = MatchService::from_snapshot(snapshot)?;
        if !wal_path.exists() {
            service.attach_wal(wal_path)?;
            return Ok((
                service,
                RecoveryReport {
                    replayed: 0,
                    torn_tail_repaired: false,
                    recovery_ms: t0.elapsed().as_secs_f64() * 1e3,
                },
            ));
        }
        let replay = read_wal(wal_path)?;
        for row in &replay.records {
            // `wal` is still `None` here, so replay never re-appends.
            service.push_corpus_row(row.clone())?;
        }
        service
            .counters
            .wal_replayed
            .fetch_add(replay.records.len() as u64, Ordering::Relaxed);
        if replay.torn_tail {
            ServiceCounters::bump(&service.counters.torn_tail_repairs);
        }
        service.wal = Some(WalWriter::resume(
            wal_path,
            replay.bytes_valid,
            replay.records.len() as u64,
        )?);
        Ok((
            service,
            RecoveryReport {
                replayed: replay.records.len(),
                torn_tail_repaired: replay.torn_tail,
                recovery_ms: t0.elapsed().as_secs_f64() * 1e3,
            },
        ))
    }

    /// Replaces the overload policy (default:
    /// [`OverloadPolicy::unbounded`]).
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> MatchService {
        self.policy = policy;
        self
    }

    /// The active overload policy.
    pub fn overload_policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Snapshot epoch: 0 at construction, +1 per published hot swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runs `read` on a scratch from the service's pool and returns the
    /// scratch to it: one uncontended lock either side of the read, none
    /// during it, and the buffers stay warm across reads whichever thread
    /// runs them. The pool grows to the most reads ever in flight at once.
    /// A poisoned lock is recovered: a list of scratches has no invariant
    /// a panicking reader could have broken.
    pub(crate) fn with_scratch<R>(&self, read: impl FnOnce(&mut ProbeScratch) -> R) -> R {
        let pool = || self.scratches.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = pool().pop().unwrap_or_default();
        let out = read(&mut scratch);
        pool().push(scratch);
        out
    }

    /// Matches one arriving record (row `i` of `arrivals`) against the
    /// corpus, reproducing the batch workflow's verdict for that row
    /// bit-identically. Counts as one admitted + completed request.
    ///
    /// [`MatchService::match_on_arrival_with`] over a pooled
    /// [`ProbeScratch`], so repeated calls run allocation-free in the
    /// steady state.
    pub fn match_on_arrival(
        &self,
        arrivals: &Table,
        i: usize,
    ) -> Result<MatchOutcome, ServeError> {
        self.with_scratch(|scratch| self.match_on_arrival_with(arrivals, i, scratch))
    }

    /// Matches a whole table of arrivals as one deterministic micro-batch:
    /// rows are scored independently on the executor and merged in row
    /// order, so the result is bit-identical at any thread count — and
    /// equal to replaying [`MatchService::match_on_arrival`] row by row.
    /// Each row counts as one admitted + completed request.
    pub fn match_batch(&self, arrivals: &Table) -> Result<BatchOutcome, ServeError> {
        let batch = self.match_rows(arrivals, ServeMode::Full)?;
        let n = batch.outcomes.len() as u64;
        self.counters.admitted.fetch_add(n, Ordering::Relaxed);
        self.counters.completed.fetch_add(n, Ordering::Relaxed);
        Ok(batch)
    }

    /// The executor fan-out [`MatchService::match_batch`] and
    /// [`MatchService::drain_at`] count around: every row of `arrivals`
    /// through [`MatchService::match_inner`] in `mode`, each on a pooled
    /// scratch.
    fn match_rows(&self, arrivals: &Table, mode: ServeMode) -> Result<BatchOutcome, ServeError> {
        let results = Executor::current().map_indexed(arrivals.n_rows(), SERVE_GRAIN, |i| {
            self.with_scratch(|scratch| self.match_inner(arrivals, i, scratch, mode))
        });
        results.into_iter().collect::<Result<Vec<_>, _>>().map(BatchOutcome::of)
    }

    /// Arrivals waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.pending.as_ref().map_or(0, Table::n_rows)
    }

    /// Enqueues row `i` of `arrivals` for the next [`MatchService::drain`].
    /// Fails with [`ServeError::QueueFull`] at capacity — bounded
    /// admission, so a traffic spike degrades by rejecting arrivals
    /// instead of growing without limit. Returns the new queue length.
    ///
    /// Equivalent to [`MatchService::submit_at`] at virtual time 0,
    /// attempt 0 — under the default unbounded policy the two behave
    /// identically.
    pub fn submit(&mut self, arrivals: &Table, i: usize) -> Result<usize, ServeError> {
        self.submit_at(arrivals, i, 0, 0)?;
        Ok(self.queue_len())
    }

    /// Admission with overload control, at virtual time `now_ms`;
    /// `attempt` is 0 for a first submission and `n` for its `n`-th retry
    /// (counted in [`ServiceStats::retried`]). Returns the request's
    /// submission sequence number. The ladder, hardest bound first:
    ///
    /// - queue at capacity → [`ServeError::QueueFull`]: rejected at the
    ///   transport, **not** admitted (counted in
    ///   [`ServiceStats::queue_full`]);
    /// - queue at the shed watermark → [`ServeError::Overloaded`]: the
    ///   service *decides* to shed, so the request counts as admitted and
    ///   shed, and the error quotes a deterministic retry backoff;
    /// - otherwise the request is queued with deadline
    ///   `now_ms + deadline_budget_ms`; a drain after that deadline sheds
    ///   it instead of serving it late.
    pub fn submit_at(
        &mut self,
        arrivals: &Table,
        i: usize,
        now_ms: u64,
        attempt: u32,
    ) -> Result<u64, ServeError> {
        if attempt > 0 {
            ServiceCounters::bump(&self.counters.retried);
        }
        let queue_len = self.queue_len();
        if queue_len >= self.queue_capacity {
            ServiceCounters::bump(&self.counters.queue_full);
            return Err(ServeError::QueueFull { capacity: self.queue_capacity });
        }
        if queue_len >= self.policy.shed_watermark {
            ServiceCounters::bump(&self.counters.admitted);
            ServiceCounters::bump(&self.counters.shed);
            return Err(ServeError::Overloaded {
                queue_len,
                shed_watermark: self.policy.shed_watermark,
                retry_after_ms: self.policy.retry.backoff_ms(&format!("arrival-{i}"), attempt),
            });
        }
        let row = arrivals.row(i).ok_or_else(|| {
            ServeError::Pipeline(format!("arrival row {i} is out of range"))
        })?;
        let values = row.values().to_vec();
        let pending = self
            .pending
            .get_or_insert_with(|| Table::new("pending", arrivals.schema().clone()));
        if pending.schema() != arrivals.schema() {
            return Err(ServeError::Pipeline(
                "queued arrivals have a different schema than earlier submissions".into(),
            ));
        }
        pending.push_row(values)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending_meta.push(PendingMeta {
            seq,
            deadline_ms: now_ms.saturating_add(self.policy.deadline_budget_ms),
        });
        ServiceCounters::bump(&self.counters.admitted);
        Ok(seq)
    }

    /// Matches every queued arrival as one micro-batch and empties the
    /// queue. Queue order is submission order, so a drain is bit-identical
    /// to batch-matching the same rows directly.
    ///
    /// Equivalent to [`MatchService::drain_at`] at virtual time 0 — under
    /// the default unbounded policy nothing is ever shed or degraded.
    pub fn drain(&mut self) -> Result<BatchOutcome, ServeError> {
        self.drain_at(0).map(|d| d.batch)
    }

    /// Drains the queue at virtual time `now_ms`, applying the overload
    /// policy:
    ///
    /// - queued requests whose deadline has passed are **shed** (their
    ///   sequence numbers are returned, counted in
    ///   [`ServiceStats::shed`]), the rest are served in admission order —
    ///   shedding never reorders survivors;
    /// - if the kept batch reaches the policy's `degrade_watermark`, it is
    ///   scored in [`ServeMode::RulesOnly`] and every outcome is flagged
    ///   and counted degraded.
    pub fn drain_at(&mut self, now_ms: u64) -> Result<DrainOutcome, ServeError> {
        let meta = std::mem::take(&mut self.pending_meta);
        let Some(pending) = self.pending.take() else {
            return Ok(DrainOutcome {
                batch: BatchOutcome::of(Vec::new()),
                served: Vec::new(),
                shed: Vec::new(),
                degraded: false,
                epoch: self.epoch,
            });
        };
        debug_assert_eq!(pending.n_rows(), meta.len(), "queue/meta desync");
        let mut kept = Table::new(pending.name(), pending.schema().clone());
        let mut served = Vec::new();
        let mut shed = Vec::new();
        for (i, m) in meta.iter().enumerate() {
            if now_ms > m.deadline_ms {
                shed.push(m.seq);
                continue;
            }
            let row = pending.row(i).ok_or_else(|| {
                ServeError::Pipeline(format!("queued row {i} vanished before drain"))
            })?;
            kept.push_row(row.values().to_vec())?;
            served.push(m.seq);
        }
        self.counters.shed.fetch_add(shed.len() as u64, Ordering::Relaxed);
        let degraded = served.len() >= self.policy.degrade_watermark;
        let mode = if degraded { ServeMode::RulesOnly } else { ServeMode::Full };
        let batch = self.match_rows(&kept, mode)?;
        self.counters.completed.fetch_add(served.len() as u64, Ordering::Relaxed);
        if degraded {
            self.counters.degraded.fetch_add(served.len() as u64, Ordering::Relaxed);
        }
        Ok(DrainOutcome { batch, served, shed, degraded, epoch: self.epoch })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snapshot::WorkflowSnapshot;
    use em_core::matcher::TrainedMatcher;
    use em_core::{EmWorkflow, MatchIds};
    use em_table::{DataType, Schema};

    pub(crate) use crate::testkit::{arrivals, corpus, snapshot};

    /// The batch pipeline's verdict over the same inputs, as match ids.
    fn batch_ids(proba: f64) -> MatchIds {
        let snap = snapshot(proba);
        let matcher = TrainedMatcher {
            features: snap.features.clone(),
            imputer: snap.imputer.clone(),
            model: snap.model.clone(),
            learner_name: snap.learner_name.clone(),
        };
        let wf = EmWorkflow {
            rules: snap.rules.build(),
            plan: snap.plan,
            matcher: &matcher,
            apply_negative: true,
        };
        let result = wf.run(&arrivals(), &corpus()).unwrap();
        MatchIds::from_candidates(&arrivals(), &corpus(), &result.matches).unwrap()
    }

    #[test]
    fn one_at_a_time_equals_batch_pipeline() {
        for proba in [1.0, 0.0] {
            let service = MatchService::from_snapshot(snapshot(proba)).unwrap();
            let arrivals = arrivals();
            let mut ids = MatchIds::default();
            for i in 0..arrivals.n_rows() {
                let outcome = service.match_on_arrival(&arrivals, i).unwrap();
                ids = ids.union(&outcome.ids);
            }
            assert_eq!(ids, batch_ids(proba), "proba {proba}");
            // Micro-batched replay agrees with one-at-a-time replay.
            let batch = service.match_batch(&arrivals).unwrap();
            assert_eq!(batch.ids, ids, "proba {proba}");
            assert_eq!(batch.outcomes.len(), arrivals.n_rows());
        }
    }

    #[test]
    fn accounting_is_consistent() {
        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let arrivals = arrivals();
        for i in 0..arrivals.n_rows() {
            let o = service.match_on_arrival(&arrivals, i).unwrap();
            // candidates = blocked − sure, so the removed count is bounded
            // by the sure count.
            assert!(o.n_candidates <= o.n_blocked, "row {i}");
            assert!(o.n_blocked - o.n_candidates <= o.n_sure, "row {i}");
            assert!(o.n_predicted <= o.n_candidates, "row {i}");
            assert!(o.n_flipped <= o.n_predicted, "row {i}");
            // Fixture accessions are unique, so ids = sure + kept exactly.
            assert_eq!(o.ids.len(), o.n_sure + o.n_predicted - o.n_flipped, "row {i}");
            assert!(o.timings.total_ms >= 0.0);
        }
    }

    #[test]
    fn snapshot_round_trip_serves_identically() {
        let snap = snapshot(1.0);
        let reloaded = WorkflowSnapshot::decode(&snap.encode()).unwrap();
        let a = MatchService::from_snapshot(snap).unwrap();
        let b = MatchService::from_snapshot(reloaded).unwrap();
        let arrivals = arrivals();
        for i in 0..arrivals.n_rows() {
            assert_eq!(
                a.match_on_arrival(&arrivals, i).unwrap().ids,
                b.match_on_arrival(&arrivals, i).unwrap().ids,
                "row {i}"
            );
        }
    }

    #[test]
    fn bounded_queue_admits_then_rejects_then_drains() {
        let mut service =
            MatchService::from_snapshot(snapshot(1.0)).unwrap().with_queue_capacity(3);
        let arrivals = arrivals();
        assert_eq!(service.queue_len(), 0);
        for i in 0..3 {
            assert_eq!(service.submit(&arrivals, i).unwrap(), i + 1);
        }
        assert_eq!(
            service.submit(&arrivals, 3),
            Err(ServeError::QueueFull { capacity: 3 })
        );
        let drained = service.drain().unwrap();
        assert_eq!(service.queue_len(), 0);
        assert_eq!(drained.outcomes.len(), 3);
        // Drain equals direct matching of the same rows.
        let mut expected = MatchIds::default();
        for i in 0..3 {
            expected = expected.union(&service.match_on_arrival(&arrivals, i).unwrap().ids);
        }
        assert_eq!(drained.ids, expected);
        // Queue is reusable after draining.
        assert_eq!(service.submit(&arrivals, 3).unwrap(), 1);
        assert!(service.drain().unwrap().outcomes.len() == 1);
        assert!(service.drain().unwrap().outcomes.is_empty());
    }

    #[test]
    fn incremental_corpus_growth_equals_rebuild() {
        // Service A starts with a truncated corpus and learns the last row
        // online; service B is built over the full corpus from scratch.
        let full = corpus();
        let mut head = Table::new(full.name(), full.schema().clone());
        for r in full.iter().take(full.n_rows() - 1) {
            head.push_row(r.values().to_vec()).unwrap();
        }
        let mut snap_head = snapshot(1.0);
        snap_head.corpus = head;
        let mut a = MatchService::from_snapshot(snap_head).unwrap();
        let arrivals = arrivals();
        // Probe before the insert so the token cache has prior state — the
        // equivalence must not depend on interning order.
        let _ = a.match_on_arrival(&arrivals, 0).unwrap();
        let last = full.row(full.n_rows() - 1).unwrap().values().to_vec();
        a.push_corpus_row(last).unwrap();
        let b = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        for i in 0..arrivals.n_rows() {
            let oa = a.match_on_arrival(&arrivals, i).unwrap();
            let ob = b.match_on_arrival(&arrivals, i).unwrap();
            assert_eq!(oa.ids, ob.ids, "row {i}");
            assert_eq!(oa.n_blocked, ob.n_blocked, "row {i}");
            assert_eq!(oa.n_sure, ob.n_sure, "row {i}");
        }
        assert_eq!(a.stats().corpus_rows, full.n_rows());
    }

    #[test]
    fn missing_required_corpus_column_is_typed() {
        let mut snap = snapshot(1.0);
        snap.corpus = Table::new("usda", Schema::of(&[("Other", DataType::Str)]));
        assert!(matches!(
            MatchService::from_snapshot(snap),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn stats_reflect_cache_and_corpus() {
        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let s = service.stats();
        assert_eq!(s.corpus_rows, 4);
        assert!(s.cache_tokens > 0);
        assert_eq!(s.queue_len, 0);
    }

    fn overloadable(shed_watermark: usize, degrade_watermark: usize) -> MatchService {
        use em_core::resilience::RetryPolicy;
        MatchService::from_snapshot(snapshot(1.0)).unwrap().with_queue_capacity(8).with_overload_policy(
            OverloadPolicy {
                shed_watermark,
                deadline_budget_ms: 10,
                degrade_watermark,
                retry: RetryPolicy {
                    max_retries: 3,
                    base_delay_ms: 8,
                    max_delay_ms: 64,
                    jitter_seed: 0x5eed,
                },
            },
        )
    }

    #[test]
    fn overload_sheds_at_watermark_with_a_quoted_backoff() {
        let mut service = overloadable(2, usize::MAX);
        let arrivals = arrivals();
        service.submit_at(&arrivals, 0, 0, 0).unwrap();
        service.submit_at(&arrivals, 1, 0, 0).unwrap();
        match service.submit_at(&arrivals, 2, 0, 0) {
            Err(ServeError::Overloaded { queue_len, shed_watermark, retry_after_ms }) => {
                assert_eq!((queue_len, shed_watermark), (2, 2));
                assert!(retry_after_ms >= 8, "backoff below base delay: {retry_after_ms}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Shed-at-admission is admitted-then-shed, never QueueFull; the
        // two queued requests are untouched and still serve.
        let s = service.stats();
        assert_eq!((s.admitted, s.shed, s.queue_full, s.queue_len), (3, 1, 0, 2));
        let drained = service.drain_at(0).unwrap();
        assert_eq!(drained.served, vec![0, 1]);
        assert!(drained.shed.is_empty());
        let s = service.stats();
        assert_eq!(s.admitted, s.completed + s.shed + s.queue_len as u64);
    }

    #[test]
    fn expired_deadlines_shed_at_drain_not_before() {
        let mut service = overloadable(usize::MAX, usize::MAX);
        let arrivals = arrivals();
        let early = service.submit_at(&arrivals, 0, 0, 0).unwrap(); // deadline 10
        let late = service.submit_at(&arrivals, 1, 5, 0).unwrap(); // deadline 15
        // At the exact deadline the request still serves (budget is
        // inclusive); one tick past it is shed.
        let drained = service.drain_at(11).unwrap();
        assert_eq!(drained.shed, vec![early]);
        assert_eq!(drained.served, vec![late]);
        assert_eq!(drained.batch.outcomes.len(), 1);
        let s = service.stats();
        assert_eq!((s.admitted, s.completed, s.shed), (2, 1, 1));
        assert_eq!(s.admitted, s.completed + s.shed + s.queue_len as u64);
    }

    #[test]
    fn degraded_mode_serves_rules_only_verdicts() {
        let mut service = overloadable(usize::MAX, 2);
        let arrivals = arrivals();
        for i in 0..3 {
            service.submit_at(&arrivals, i, 0, 0).unwrap();
        }
        let drained = service.drain_at(0).unwrap();
        assert!(drained.degraded, "3 kept >= degrade watermark 2");
        let reference = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        for (k, o) in drained.batch.outcomes.iter().enumerate() {
            assert!(o.degraded, "row {k}");
            // Rules-only: sure matches survive, the trained model never
            // runs — so the always-1.0 constant model predicts nothing.
            assert_eq!(o.n_predicted, 0, "row {k}");
            let full = reference.match_on_arrival(&arrivals, k).unwrap();
            assert!(o.ids.len() <= full.ids.len(), "row {k}");
            assert_eq!(o.n_sure, full.n_sure, "row {k}");
        }
        // Arrival 0 is a sure rule match: degraded mode must still find it.
        assert_eq!(drained.batch.outcomes[0].ids.len(), 1);
        assert_eq!(service.stats().degraded, 3, "counts degraded requests, not drains");
        // Below the watermark the next drain is a full-fidelity one.
        service.submit_at(&arrivals, 0, 20, 0).unwrap();
        let calm = service.drain_at(20).unwrap();
        assert!(!calm.degraded);
        assert!(!calm.batch.outcomes[0].degraded);
    }

    #[test]
    fn retried_submissions_are_counted() {
        let mut service = overloadable(usize::MAX, usize::MAX);
        let arrivals = arrivals();
        service.submit_at(&arrivals, 0, 0, 0).unwrap();
        service.submit_at(&arrivals, 0, 1, 1).unwrap();
        service.submit_at(&arrivals, 0, 2, 3).unwrap();
        assert_eq!(service.stats().retried, 2);
    }

    #[test]
    fn stats_identity_holds_through_a_mixed_workload() {
        let mut service = overloadable(3, usize::MAX);
        let arrivals = arrivals();
        // Direct serving, queued serving, admission sheds, deadline
        // sheds, and hard rejections all feed the same ledger.
        let _ = service.match_on_arrival(&arrivals, 0).unwrap();
        let _ = service.match_batch(&arrivals).unwrap();
        for round in 0..4u64 {
            let now = round * 100;
            for i in 0..arrivals.n_rows() {
                let _ = service.submit_at(&arrivals, i, now, 0);
            }
            // Every other round the drain happens after the deadline.
            let _ = service.drain_at(now + if round % 2 == 0 { 0 } else { 50 }).unwrap();
        }
        service.submit_at(&arrivals, 1, 1000, 0).unwrap();
        let s = service.stats();
        assert_eq!(s.queue_len, 1, "one request left queued on purpose");
        assert_eq!(
            s.admitted,
            s.completed + s.shed + s.queue_len as u64,
            "admitted/completed/shed/queued identity broke: {s:?}"
        );
        assert!(s.shed > 0, "workload was meant to shed");
        assert!(s.completed > 0);
    }

    #[test]
    fn queue_full_is_counted_without_perturbing_admission_order() {
        for threads in [1usize, 4] {
            em_parallel::set_threads(threads);
            let mut service =
                MatchService::from_snapshot(snapshot(1.0)).unwrap().with_queue_capacity(3);
            let reference = MatchService::from_snapshot(snapshot(1.0)).unwrap();
            let arrivals = arrivals();
            let mut seqs = Vec::new();
            for i in 0..3 {
                seqs.push(service.submit_at(&arrivals, i, 0, 0).unwrap());
            }
            // Two hard rejections at the bound: counted, not admitted.
            for i in 3..5 {
                assert!(
                    matches!(service.submit(&arrivals, i), Err(ServeError::QueueFull { .. })),
                    "threads {threads}"
                );
            }
            let s = service.stats();
            assert_eq!((s.queue_full, s.admitted, s.queue_len), (2, 3, 3), "threads {threads}");
            // The rejections left the queue contents and order untouched.
            let drained = service.drain_at(0).unwrap();
            assert_eq!(drained.served, seqs, "threads {threads}");
            for (k, o) in drained.batch.outcomes.iter().enumerate() {
                let direct = reference.match_on_arrival(&arrivals, k).unwrap();
                assert_eq!(o.ids, direct.ids, "threads {threads} row {k}");
            }
            let s = service.stats();
            assert_eq!(s.admitted, s.completed + s.shed + s.queue_len as u64);
        }
        em_parallel::set_threads(0);
    }
}
