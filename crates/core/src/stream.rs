//! Fused streaming match executor — the one batch driver: blocking →
//! features → scoring → rules without materializing the candidate set.
//!
//! A materialized chain of the stage functions holds three full
//! intermediates — the consolidated candidate set, the feature matrix, and
//! the prediction vector — before a single match emerges, and at corpus
//! scale (x64–x256) the candidate set alone dominates memory.
//! [`StreamMatcher`] fuses the stages instead: each left row's candidates
//! come straight off the [`join`] index probe and are scored one by one
//! through [`score_pair`] — the fitted model walks its trees and *pulls*
//! the features its path tests from the masked extraction kernel, imputed
//! as they are read — and only the above-threshold survivors (minus
//! negative-rule flips, plus the rule-driven sure matches) are counted into
//! the streamed accounting. Nothing proportional to the candidate count is
//! ever resident, and no feature the model does not read for a pair is ever
//! computed for it. [`EmWorkflow::run`](crate::workflow::EmWorkflow::run) is
//! the same stream run [collecting](StreamMatcher::run_collecting): it keeps
//! the sets behind the counts, a separate monomorphization of the row loop.
//!
//! **Bit identity.** The stream is not an approximation: counts, per-pair
//! probabilities, and the final match set equal the materialized chain of
//! stage functions bit for bit (`tests/stream_equivalence.rs` composes that
//! chain as its oracle). Candidate equality holds because the join-spec
//! union is proptested equal to `C2 ∪ C3` in `em-blocking` and `C1`/sure
//! sets come from the same code paths ([`c1_scheme`],
//! [`RuleSet::sure_matches`]). Score equality rests on one argument: *a
//! value no traversed node tests cannot reach the score*. A pulled feature
//! is the bits [`BatchExtractor`] is pinned to (`extract_vectors`,
//! `Feature::compute`), imputed by the [`Imputer`]'s own test; the walk
//! ([`FittedModel::score_with`]) is the walk of `predict_proba` over the
//! same pre-order arrays, with the same left fold and single division for
//! a forest; what it never asks for — a feature off its paths, or one the
//! [mask](derive_feature_mask) left without a cache — would have been read
//! by no comparison of the materialized chain either. Rules never read a
//! feature vector: they work on row keys. A dense model (linear, Bayes)
//! reads everything, so it pulls everything and scores the same imputed row
//! the chain builds.
//!
//! **Thread invariance.** Left rows are processed in fixed
//! [`STREAM_CHUNK`]-row chunks — the chunk grid is the parallel index
//! space, so each chunk's result is a pure function of its index — and
//! chunk results merge in chunk order. Output is bit-identical at any
//! thread count, including the chunk-chained FNV checksum, which absorbs
//! per-chunk digests exactly like [`em_blocking::join_stats`] does.
//!
//! [`join`]: em_blocking::JoinIndex

use crate::blocking_plan::{c1_scheme, BlockingPlan};
use crate::error::CoreError;
use crate::matcher::TrainedMatcher;
use em_blocking::{fnv_u64, CandidateSet, JoinIndex, JoinScratch, JoinSpec, Pair, FNV_OFFSET};
use em_features::{
    BatchExtractor, BatchScratch, CacheLeg, FeatureMask, FeatureSet, PairView, PullCounts,
    SharedWordColumns,
};
use em_ml::dataset::Imputer;
use em_ml::FittedModel;
use em_parallel::Executor;
use em_rules::{BoundNegativeRules, RuleSet, RuleSetDesc};
use em_table::Table;
use em_text::{TokenCache, TokenCorpus};

/// Left rows per parallel chunk. Fixed (not derived from the thread
/// count) so the chunk grid — and therefore every per-chunk digest — is
/// identical at any parallelism.
pub const STREAM_CHUNK: usize = 1024;

/// Score histogram resolution: bin `b` covers `[b/20, (b+1)/20)`.
pub const HIST_BINS: usize = 20;

/// The model decision threshold (`predict` = `predict_proba >= 0.5`).
pub(crate) const MATCH_THRESHOLD: f64 = 0.5;

/// The blocking column both join schemes read (fixed by the case study's
/// plan, as in [`run_blocking`](crate::blocking_plan::run_blocking)).
const BLOCK_COL: &str = "AwardTitle";

/// Streamed accounting for one fused match run — everything the batch
/// workflow reports, without the sets themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Left (UMETRICS) rows driven through the stream.
    pub left_rows: usize,
    /// Right (USDA) rows probed against.
    pub right_rows: usize,
    /// Rule-driven sure matches (`C1`-rule union), counted once up front.
    pub sure: usize,
    /// Candidates scored: `|blocked − sure|` summed over left rows.
    pub candidates: usize,
    /// Candidates the model scored at or above the threshold.
    pub predicted: usize,
    /// Predictions the negative rules flipped to non-match.
    pub flipped: usize,
    /// Final matches: `sure ∪ (predicted − flipped)`.
    pub matched: usize,
    /// Chunk-chained FNV-1a digest of the final match stream in
    /// `(left, right)` order — [`em_blocking::JoinStats`]-style: each
    /// chunk hashes its own matches from [`FNV_OFFSET`], and the chain
    /// absorbs chunk digests in chunk order.
    pub checksum: u64,
    /// Score histogram over all scored candidates ([`HIST_BINS`] bins of
    /// width `1/HIST_BINS`; the last bin also catches `p = 1.0`).
    pub histogram: [u64; HIST_BINS],
}

/// The sets behind a [`StreamOutcome`]'s counts, each in `(left, right)`
/// order — what [`StreamMatcher::run_collecting`] keeps and
/// [`EmWorkflow::run`](crate::workflow::EmWorkflow::run) assembles a
/// `WorkflowResult` from. `flipped` is not carried: it is the scored pairs
/// at or above the threshold that are not in `matches`.
#[derive(Debug, Default)]
pub struct Collected {
    /// The rule-driven sure matches.
    pub sure: Vec<Pair>,
    /// Every blocked pair, sure matches included (`C1 ∪ C2 ∪ C3`).
    pub blocked: Vec<Pair>,
    /// Every scored candidate (`blocked − sure`) with its probability.
    pub scored: Vec<(Pair, f64)>,
    /// The final matches: `sure ∪ (predicted − flipped)`.
    pub matches: Vec<Pair>,
}

/// A frozen workflow fused into a streaming executor over one table pair.
///
/// Construction does all sizable work that is *not* proportional to the
/// candidate count: tokenize the blocking column once into shared corpora
/// (reused by both the join probes and the word-level set features),
/// build the join index, derive the model's feature mask, build the
/// masked [`BatchExtractor`], bind the negative rules' keys to the rows, and
/// materialize the two *small* per-left-row adjacencies (C1 scheme, rule
/// sure matches) as CSR — the independent pieces forked over
/// `em_parallel`. [`run`] then streams the unbounded part.
///
/// [`run`]: StreamMatcher::run
pub struct StreamMatcher<'a> {
    u: &'a Table,
    s: &'a Table,
    imputer: &'a Imputer,
    model: &'a FittedModel,
    negatives: BoundNegativeRules,
    /// Each left row's keys under the negative rules, `n_negative` a row.
    left_keys: Vec<Option<(u32, u32)>>,
    n_negative: usize,
    extractor: BatchExtractor,
    join: JoinIndex,
    left_corpus: TokenCorpus,
    spec: JoinSpec,
    c1: Csr,
    sure: Csr,
    mask: FeatureMask,
}

/// Per-left-row sorted adjacency (compressed sparse rows over right-row
/// ids) for the two small materialized sets.
struct Csr {
    starts: Vec<usize>,
    rows: Vec<u32>,
}

/// Per-worker reusable state: join probe scratch, the row-merge buffers,
/// the row a dense model reads, and the extraction scratch.
struct StreamScratch {
    probe: JoinScratch,
    hits: Vec<u32>,
    blocked: Vec<u32>,
    candidates: Vec<u32>,
    dense_row: Vec<f64>,
    kept: Vec<u32>,
    batch: BatchScratch,
}

/// One chunk's accounting; merged in chunk order by the fold.
#[derive(Default)]
struct ChunkResult {
    candidates: usize,
    predicted: usize,
    flipped: usize,
    matched: usize,
    digest: u64,
    histogram: [u64; HIST_BINS],
    collected: Collected,
}

/// The one pull-and-score step the fused stream and the serve hot loop
/// both end in: `model` walks over `pair`, pulling each feature it tests
/// from the extraction kernel and imputing it as it is read. `dense_row`
/// (one slot per feature) is where a dense model's row is assembled;
/// tree-shaped models leave it alone.
#[inline]
pub fn score_pair(
    model: &FittedModel,
    imputer: &Imputer,
    mut pair: PairView<'_>,
    dense_row: &mut [f64],
) -> f64 {
    model.score_with(dense_row, |k| imputer.impute(k, pair.pull(k)))
}

impl Csr {
    /// The sorted right-row ids adjacent to left row `i`.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.rows[self.starts[i]..self.starts[i + 1]]
    }
}

/// Sorted-set union of two ascending id slices into `out`.
pub fn merge_union<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => {
                out.push(a[x]);
                x += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[y]);
                y += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
}

/// Sorted-set difference `a − b` of two ascending id slices into `out`.
pub fn merge_difference<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let mut y = 0usize;
    for &v in a {
        while y < b.len() && b[y] < v {
            y += 1;
        }
        if b.get(y) != Some(&v) {
            out.push(v);
        }
    }
}

impl StreamMatcher<'_> {
    /// Streams one [`STREAM_CHUNK`] of left rows: probe, merge, pull and
    /// score, apply negative rules, digest. Pure function of the chunk
    /// index (given the frozen matcher), which is what makes the
    /// chunk-ordered fold thread-invariant. `COLLECT` is a compile-time
    /// switch, so the accounting-only stream carries no trace of the
    /// collecting one.
    fn run_chunk<const COLLECT: bool>(&self, c: usize, ws: &mut StreamScratch) -> ChunkResult {
        let lo = c * STREAM_CHUNK;
        let hi = ((c + 1) * STREAM_CHUNK).min(self.u.n_rows());
        let mut res = ChunkResult { digest: FNV_OFFSET, ..ChunkResult::default() };
        for i in lo..hi {
            // blocked(i) = C1(i) ∪ join-probe(i); candidates = blocked − sure.
            self.join.probe_into(self.left_corpus.row(i), &self.spec, &mut ws.probe, &mut ws.hits);
            merge_union(self.c1.row(i), &ws.hits, &mut ws.blocked);
            merge_difference(&ws.blocked, self.sure.row(i), &mut ws.candidates);
            res.candidates += ws.candidates.len();
            if COLLECT {
                res.collected.blocked.extend(ws.blocked.iter().map(|&j| Pair::new(i, j as usize)));
            }
            self.score_candidates::<COLLECT>(i, ws, &mut res);
            // Digest the row's final matches, sure ∪ kept, in (left, right)
            // order (the two are disjoint: kept ⊆ blocked − sure).
            merge_union(self.sure.row(i), &ws.kept, &mut ws.hits);
            for &j in &ws.hits {
                res.digest = fnv_u64(fnv_u64(res.digest, i as u64), u64::from(j));
                if COLLECT {
                    res.collected.matches.push(Pair::new(i, j as usize));
                }
            }
            res.matched += ws.hits.len();
        }
        res
    }

    /// Scores left row `i`'s candidates against it — the extractor prepares
    /// the row once, each candidate is one [`score_pair`] — folding
    /// verdicts into `res` and the row's surviving matches into the worker's
    /// `kept` list.
    fn score_candidates<const COLLECT: bool>(&self, i: usize, ws: &mut StreamScratch, res: &mut ChunkResult) {
        let StreamScratch { candidates, dense_row, batch, kept, .. } = ws;
        let keys = &self.left_keys[i * self.n_negative..(i + 1) * self.n_negative];
        kept.clear();
        for &j in candidates.iter() {
            let pair = Pair::new(i, j as usize);
            let p = score_pair(self.model, self.imputer, self.extractor.pair(pair, batch), dense_row);
            let bin = ((p * HIST_BINS as f64) as usize).min(HIST_BINS - 1);
            res.histogram[bin] += 1;
            if COLLECT {
                res.collected.scored.push((pair, p));
            }
            if p >= MATCH_THRESHOLD {
                res.predicted += 1;
                if self.negatives.any_fires(keys, pair.right) {
                    res.flipped += 1;
                } else {
                    kept.push(j);
                }
            }
        }
    }
}

// ---- set-up and scratch construction: everything below may allocate ----

impl<'a> StreamMatcher<'a> {
    /// Fuses a frozen workflow (tables + trained matcher + rules + plan)
    /// into a streaming executor. See the type docs for what construction
    /// materializes; errors surface schema problems (missing blocking /
    /// rule columns) and degenerate models (empty feature set).
    pub fn new(
        umetrics: &'a Table,
        usda: &'a Table,
        matcher: &'a TrainedMatcher,
        rule_descs: &RuleSetDesc,
        plan: &BlockingPlan,
    ) -> Result<StreamMatcher<'a>, CoreError> {
        let rules = rule_descs.build();
        StreamMatcher::with_rules(umetrics, usda, matcher, &rules, &rules, plan)
    }

    /// [`new`](StreamMatcher::new) over built rules: `positive`'s sure-match
    /// rules and `negative`'s negative rules. A workflow that does not apply
    /// its negative rules binds an empty set here, so the stream itself has
    /// one behaviour.
    pub(crate) fn with_rules(
        umetrics: &'a Table,
        usda: &'a Table,
        matcher: &'a TrainedMatcher,
        positive: &RuleSet,
        negative: &RuleSet,
        plan: &BlockingPlan,
    ) -> Result<StreamMatcher<'a>, CoreError> {
        if matcher.features.is_empty() {
            return Err(CoreError::Pipeline("streaming matcher needs a non-empty feature set".to_string()));
        }
        check_row_ids(umetrics.n_rows(), usda.n_rows())?;
        umetrics.schema().require(BLOCK_COL)?;
        usda.schema().require(BLOCK_COL)?;
        let mask = derive_feature_mask(&matcher.features, &matcher.model, &RuleSetDesc::new());
        // The set-up legs share nothing but the tables and the bound right
        // side of the negative rules, so they fork: the extractor's cache
        // legs (heaviest first), the two small CSR adjacencies, the left
        // rows' negative-rule keys, and the blocking column's tokenization +
        // join index. Each leg is a pure function of those — ids are
        // assigned inside one leg, never across legs — so what comes back
        // does not depend on the thread count.
        let cache_plan = BatchExtractor::plan(
            &matcher.features,
            umetrics,
            usda,
            &mask,
            Some((BLOCK_COL, BLOCK_COL)),
        )?;
        let n_cache = cache_plan.n_legs();
        // Bound here, not in a leg: the binder keeps a small allocation per
        // distinct right key for as long as the matcher lives, and those
        // belong in this thread's heap, not scattered through a worker's.
        let negatives = negative.bind_negative(usda)?;
        let legs = Executor::current().map_tasks(n_cache + 4, |t| -> Result<SetUp, CoreError> {
            Ok(match t.checked_sub(n_cache) {
                None => SetUp::Cache(cache_plan.build_leg(t)),
                Some(0) => {
                    SetUp::Sure(Csr::from_set(&positive.sure_matches(umetrics, usda)?, umetrics.n_rows()))
                }
                Some(1) => SetUp::C1(Csr::from_set(&c1_scheme(umetrics, usda)?, umetrics.n_rows())),
                Some(2) => {
                    let mut left_keys = Vec::with_capacity(umetrics.n_rows() * negative.negative.len());
                    for row in umetrics.iter() {
                        negatives.bind_left(row, &mut left_keys);
                    }
                    SetUp::Negatives(left_keys)
                }
                Some(_) => {
                    // One tokenization pass per column feeds both the join
                    // probes and the word-level set features, which copy
                    // the id arenas at assembly.
                    let cache = TokenCache::for_blocking();
                    let left =
                        TokenCorpus::from_column(&cache, umetrics.iter().map(|r| r.str(BLOCK_COL)));
                    let right =
                        TokenCorpus::from_column(&cache, usda.iter().map(|r| r.str(BLOCK_COL)));
                    SetUp::Join(left, JoinIndex::build(right))
                }
            })
        });
        let mut cache_legs = Vec::with_capacity(n_cache);
        let (mut sure, mut c1, mut left_keys, mut joined) = (None, None, None, None);
        for leg in legs {
            match leg? {
                SetUp::Cache(leg) => cache_legs.push(leg),
                SetUp::Sure(csr) => sure = Some(csr),
                SetUp::C1(csr) => c1 = Some(csr),
                SetUp::Negatives(keys) => left_keys = Some(keys),
                SetUp::Join(left, index) => joined = Some((left, index)),
            }
        }
        let (Some(sure), Some(c1), Some(left_keys), Some((left_corpus, join))) =
            (sure, c1, left_keys, joined)
        else {
            return Err(CoreError::Pipeline("a streaming set-up leg went missing".to_string()));
        };
        let extractor = cache_plan.assemble(
            cache_legs,
            Some(SharedWordColumns {
                left_attr: BLOCK_COL,
                right_attr: BLOCK_COL,
                left: &left_corpus,
                right: join.right(),
            }),
        )?;
        Ok(StreamMatcher {
            u: umetrics,
            s: usda,
            imputer: &matcher.imputer,
            model: &matcher.model,
            negatives,
            left_keys,
            n_negative: negative.negative.len(),
            extractor,
            join,
            left_corpus,
            spec: plan.union_spec(),
            c1,
            sure,
            mask,
        })
    }

    /// The derived feature mask (what the model's splits can read).
    pub fn mask(&self) -> &FeatureMask {
        &self.mask
    }

    /// Runs the fused stream, returning only the accounting — memory
    /// stays bounded by `workers × scratch` regardless of how many
    /// candidates the blocking admits.
    pub fn run(&self) -> StreamOutcome {
        self.run_chunks::<false>().0
    }

    /// [`run`](StreamMatcher::run), additionally keeping the sets behind
    /// the counts. Memory is proportional to the candidate count again:
    /// this is the batch workflow's driver, not the scaling path.
    pub fn run_collecting(&self) -> (StreamOutcome, Collected) {
        let (out, mut collected) = self.run_chunks::<true>();
        collected.sure = (0..self.u.n_rows())
            .flat_map(|i| self.sure.row(i).iter().map(move |&j| Pair::new(i, j as usize)))
            .collect();
        (out, collected)
    }

    /// [`run`](StreamMatcher::run) on the calling thread, additionally
    /// reporting which features the scorer pulled — profiling only, outside
    /// the outcome and its checksum.
    #[doc(hidden)]
    pub fn run_profiled(&self) -> (StreamOutcome, PullCounts) {
        let mut ws = StreamScratch::for_matcher(self);
        let chunks = self.u.n_rows().div_ceil(STREAM_CHUNK);
        let results = (0..chunks).map(|c| self.run_chunk::<false>(c, &mut ws)).collect();
        (self.merge(results).0, ws.batch.pull_counts().clone())
    }

    /// Chunked parallel drive.
    fn run_chunks<const COLLECT: bool>(&self) -> (StreamOutcome, Collected) {
        let chunks = self.u.n_rows().div_ceil(STREAM_CHUNK);
        self.merge(Executor::current().map_indexed_with(
            chunks,
            1,
            || StreamScratch::for_matcher(self),
            |ws, c| self.run_chunk::<COLLECT>(c, ws),
        ))
    }

    /// Chunk-ordered merge.
    fn merge(&self, results: Vec<ChunkResult>) -> (StreamOutcome, Collected) {
        let mut out = StreamOutcome {
            left_rows: self.u.n_rows(),
            right_rows: self.s.n_rows(),
            sure: self.sure.rows.len(),
            candidates: 0,
            predicted: 0,
            flipped: 0,
            matched: 0,
            checksum: FNV_OFFSET,
            histogram: [0; HIST_BINS],
        };
        let mut collected = Collected::default();
        for r in results {
            out.candidates += r.candidates;
            out.predicted += r.predicted;
            out.flipped += r.flipped;
            out.matched += r.matched;
            out.checksum = fnv_u64(out.checksum, r.digest);
            for (h, c) in out.histogram.iter_mut().zip(r.histogram.iter()) {
                *h += c;
            }
            collected.blocked.extend(r.collected.blocked);
            collected.scored.extend(r.collected.scored);
            collected.matches.extend(r.collected.matches);
        }
        (out, collected)
    }
}

/// What one forked set-up leg of [`StreamMatcher::new`] produces.
enum SetUp {
    Cache(CacheLeg),
    Sure(Csr),
    C1(Csr),
    Negatives(Vec<Option<(u32, u32)>>),
    Join(TokenCorpus, JoinIndex),
}

/// Row indices travel as `u32` through the CSR adjacencies, the kept-match
/// list and the join index: a table of `u32::MAX` rows or more is refused
/// up front instead of having its indices truncated.
fn check_row_ids(n_left: usize, n_right: usize) -> Result<(), CoreError> {
    for (side, n) in [("left", n_left), ("right", n_right)] {
        if u32::try_from(n).map_or(true, |n| n == u32::MAX) {
            return Err(CoreError::Pipeline(format!(
                "streaming matcher indexes rows as u32: the {side} table has {n} rows, \
                 the limit is {}",
                u32::MAX - 1
            )));
        }
    }
    Ok(())
}

impl Csr {
    /// Builds the adjacency from a materialized candidate set;
    /// [`CandidateSet::iter`] yields `(left, right)` order, so each row's
    /// ids land sorted.
    fn from_set(set: &CandidateSet, n_left: usize) -> Csr {
        let mut starts = vec![0usize; n_left + 1];
        for p in set.iter() {
            starts[p.left + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut rows = vec![0u32; set.len()];
        let mut next = starts.clone();
        for p in set.iter() {
            rows[next[p.left]] = p.right as u32;
            next[p.left] += 1;
        }
        Csr { starts, rows }
    }
}

impl StreamScratch {
    /// Scratch sized for one worker of `m`'s stream.
    fn for_matcher(m: &StreamMatcher<'_>) -> StreamScratch {
        StreamScratch {
            probe: JoinScratch::for_index(&m.join),
            hits: Vec::new(),
            blocked: Vec::new(),
            candidates: Vec::new(),
            dense_row: vec![0.0; m.extractor.n_features()],
            kept: Vec::new(),
            batch: m.extractor.scratch(),
        }
    }
}

/// Derives the streaming/serving [`FeatureMask`] from a frozen workflow:
/// a feature is live exactly when the fitted model can read it — a split in
/// some tree of the forest. A constant model reads nothing; models that
/// read every feature densely (linear, bayes —
/// [`FittedModel::referenced_features`] returns `None`) keep the full plan,
/// preserving batch semantics exactly. `rules` is unused — no rule
/// evaluator reads a feature vector; positive and negative rules alike work
/// on row keys — and stays in the signature for its callers. (`em-serve`
/// re-exports this, so the batch and serve tiers share one definition.)
pub fn derive_feature_mask(
    features: &FeatureSet,
    model: &FittedModel,
    _rules: &RuleSetDesc,
) -> FeatureMask {
    match model.referenced_features() {
        None => FeatureMask::full(features.len()),
        Some(live) => FeatureMask::from_live_indices(features.len(), live),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set_from(pairs: &[(usize, usize)]) -> CandidateSet {
        let mut s = CandidateSet::new("t");
        for &(l, r) in pairs {
            s.add(Pair::new(l, r), "t");
        }
        s
    }

    fn sorted_set<T: Copy + Ord>(v: Vec<T>) -> (BTreeSet<T>, Vec<T>) {
        let set: BTreeSet<T> = v.into_iter().collect();
        let flat = set.iter().copied().collect();
        (set, flat)
    }

    /// One of the two merges against `BTreeSet`'s own, at the caller's id
    /// type.
    fn merge_matches<T: Copy + Ord + std::fmt::Debug>(
        merge: fn(&[T], &[T], &mut Vec<T>),
        want: fn(&BTreeSet<T>, &BTreeSet<T>) -> Vec<T>,
        a: Vec<T>,
        b: Vec<T>,
    ) {
        let (aset, av) = sorted_set(a);
        let (bset, bv) = sorted_set(b);
        let mut out = Vec::new();
        merge(&av, &bv, &mut out);
        assert_eq!(out, want(&aset, &bset));
    }

    /// The stream's ids as the serve loop's.
    fn widen(v: &[u32]) -> Vec<usize> {
        v.iter().map(|&id| id as usize).collect()
    }

    #[test]
    fn tables_past_u32_row_ids_are_a_typed_error() {
        assert!(check_row_ids(0, 0).is_ok());
        assert!(check_row_ids(u32::MAX as usize - 1, 7).is_ok());
        for (l, r) in [(u32::MAX as usize, 7), (7, u32::MAX as usize), (usize::MAX, 7)] {
            assert!(matches!(check_row_ids(l, r), Err(CoreError::Pipeline(_))), "({l}, {r})");
        }
    }

    proptest! {
        #[test]
        fn merge_union_matches_btreeset(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
        ) {
            merge_matches(merge_union, |a, b| a.union(b).copied().collect(), widen(&a), widen(&b));
            merge_matches(merge_union, |a, b| a.union(b).copied().collect(), a, b);
        }

        #[test]
        fn merge_difference_matches_btreeset(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
        ) {
            merge_matches(merge_difference, |a, b| a.difference(b).copied().collect(), widen(&a), widen(&b));
            merge_matches(merge_difference, |a, b| a.difference(b).copied().collect(), a, b);
        }

        #[test]
        fn csr_groups_candidate_sets_by_left_row(
            raw in proptest::collection::vec((0usize..20, 0usize..40), 0..60),
        ) {
            let pairs: BTreeSet<(usize, usize)> = raw.into_iter().collect();
            let list: Vec<(usize, usize)> = pairs.iter().copied().collect();
            let set = set_from(&list);
            let csr = Csr::from_set(&set, 20);
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            for i in 0..20 {
                let row = csr.row(i);
                // sorted, deduplicated within each left row
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
                for &j in row {
                    seen.insert((i, j as usize));
                }
            }
            prop_assert_eq!(seen, pairs);
        }
    }
}
