//! The blockers of Section 7: attribute equivalence, token overlap,
//! overlap coefficient — plus a Jaccard blocker (used in the paper's
//! footnote 2 to audit short titles) and a black-box predicate blocker.
//!
//! Every blocker exposes both table-level [`Blocker::block`] (efficient,
//! index-based where possible) and pair-level [`Blocker::accepts`] (used to
//! re-check single pairs and to filter an existing candidate set with
//! [`Blocker::block_candidates`], PyMatcher's `block_candset`).
//!
//! The token blockers run on the shared performance layer: each attribute
//! is tokenized **once** into interned `u32` id lists through a
//! [`TokenCache`] (shareable across blockers, so a whole blocking plan
//! works in one id space), and table-level blocking runs the
//! batch set-similarity join of [`crate::join`] — frequent tokens as
//! bitsets over the size-ordered right rows, counted 64 rows per word,
//! length-filtered, exact intersection sizes — fanned out over left-row
//! chunks on
//! [`em_parallel::Executor`]. Candidate sets are ordered maps and every
//! probe is a pure function of its row index, so output is bit-identical at
//! any thread count.
//!
//! # Which blockers take which path
//!
//! [`OverlapBlocker`] and [`SetSimBlocker`] block tables through the join
//! engine; [`AttrEquivalenceBlocker`] is a hash join. Only
//! [`BlackboxBlocker`] — an opaque user predicate, with nothing to index —
//! scans the Cartesian product, via the shared [`block_pairwise`] helper
//! that also backs the [`Blocker::block`] trait default. Keeping the
//! pairwise path in exactly one named function means an indexed blocker
//! can't silently regress to it: the fast paths never call
//! `block_pairwise`, and the debugger/tests that *want* exhaustive
//! semantics call it by name.

use crate::candidate::{CandidateSet, Pair};
use crate::error::BlockError;
use crate::join::{join_pairs_multi, JoinIndex, JoinSpec};
use em_parallel::Executor;
use em_table::{RowRef, Table};
use em_text::intern::{overlap_size_sorted, TokenCache, TokenCorpus, TokenIds};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Minimum candidate pairs per thread in `block_candidates`.
const PAIR_GRAIN: usize = 256;

/// A blocking scheme over two tables.
pub trait Blocker {
    /// Short, stable name used as the provenance tag of admitted pairs.
    fn name(&self) -> String;

    /// Pair-level semantics: would this blocker admit `(a, b)`?
    fn accepts(&self, a: RowRef<'_>, b: RowRef<'_>) -> Result<bool, BlockError>;

    /// Blocks two whole tables. The default scans the Cartesian product
    /// through [`block_pairwise`]; index-based blockers override it.
    fn block(&self, a: &Table, b: &Table) -> Result<CandidateSet, BlockError> {
        block_pairwise(self, a, b)
    }

    /// Filters an existing candidate set down to the pairs this blocker
    /// also admits (sequential blocker composition).
    fn block_candidates(
        &self,
        a: &Table,
        b: &Table,
        candidates: &CandidateSet,
    ) -> Result<CandidateSet, BlockError> {
        let mut out = CandidateSet::new(self.name());
        let tag = self.name();
        for pair in candidates.iter() {
            let (ra, rb) = rows(a, b, pair)?;
            if self.accepts(ra, rb)? {
                out.add(pair, &tag);
            }
        }
        Ok(out)
    }
}

/// Exhaustive O(|A|·|B|) blocking: every pair through
/// [`Blocker::accepts`]. This is the *only* Cartesian-product scan in the
/// crate — the fallback for blockers with nothing to index
/// ([`BlackboxBlocker`], and any [`Blocker`] that doesn't override
/// [`Blocker::block`]) and the reference the join-backed paths are
/// differential-tested against (`tests/join_prop.rs`).
pub fn block_pairwise<B: Blocker + ?Sized>(
    blocker: &B,
    a: &Table,
    b: &Table,
) -> Result<CandidateSet, BlockError> {
    let tag = blocker.name();
    let mut out = CandidateSet::new(tag.clone());
    for (i, ra) in a.iter().enumerate() {
        for (j, rb) in b.iter().enumerate() {
            if blocker.accepts(ra, rb)? {
                out.add(Pair::new(i, j), &tag);
            }
        }
    }
    Ok(out)
}

fn rows<'t>(a: &'t Table, b: &'t Table, pair: Pair) -> Result<(RowRef<'t>, RowRef<'t>), BlockError> {
    let ra = a.row(pair.left).ok_or_else(|| {
        BlockError::BadParameter(format!("pair references row {} past table A", pair.left))
    })?;
    let rb = b.row(pair.right).ok_or_else(|| {
        BlockError::BadParameter(format!("pair references row {} past table B", pair.right))
    })?;
    Ok((ra, rb))
}

/// Attribute-equivalence blocker: admit `(a, b)` iff the (non-null) blocking
/// attributes agree exactly. Table-level blocking is a hash join.
#[derive(Debug, Clone)]
pub struct AttrEquivalenceBlocker {
    /// Blocking attribute in the left table.
    pub left_attr: String,
    /// Blocking attribute in the right table.
    pub right_attr: String,
}

impl AttrEquivalenceBlocker {
    /// Creates the blocker.
    pub fn new(left_attr: impl Into<String>, right_attr: impl Into<String>) -> Self {
        AttrEquivalenceBlocker { left_attr: left_attr.into(), right_attr: right_attr.into() }
    }
}

impl Blocker for AttrEquivalenceBlocker {
    fn name(&self) -> String {
        format!("ae({}={})", self.left_attr, self.right_attr)
    }

    fn accepts(&self, a: RowRef<'_>, b: RowRef<'_>) -> Result<bool, BlockError> {
        let va = a
            .get(&self.left_attr)
            .ok_or_else(|| BlockError::Table(em_table::TableError::NoSuchColumn(self.left_attr.clone())))?;
        let vb = b
            .get(&self.right_attr)
            .ok_or_else(|| BlockError::Table(em_table::TableError::NoSuchColumn(self.right_attr.clone())))?;
        Ok(!va.is_null() && !vb.is_null() && va.dedup_key() == vb.dedup_key())
    }

    fn block(&self, a: &Table, b: &Table) -> Result<CandidateSet, BlockError> {
        a.schema().require(&self.left_attr)?;
        b.schema().require(&self.right_attr)?;
        let tag = self.name();
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (j, rb) in b.iter().enumerate() {
            let Some(v) = rb.get(&self.right_attr) else { continue };
            if !v.is_null() {
                index.entry(v.dedup_key()).or_default().push(j);
            }
        }
        let mut out = CandidateSet::new(tag.clone());
        for (i, ra) in a.iter().enumerate() {
            let Some(v) = ra.get(&self.left_attr) else { continue };
            if v.is_null() {
                continue;
            }
            if let Some(js) = index.get(&v.dedup_key()) {
                for &j in js {
                    out.add(Pair::new(i, j), &tag);
                }
            }
        }
        Ok(out)
    }
}

/// Tokenizes the blocking column of each table through the shared cache.
/// The pass is sequential so id assignment stays deterministic.
pub(crate) fn tokenize_columns(
    cache: &TokenCache,
    a: &Table,
    left_attr: &str,
    b: &Table,
    right_attr: &str,
) -> (TokenCorpus, TokenCorpus) {
    let left = TokenCorpus::from_column(cache, a.iter().map(|r| r.str(left_attr)));
    let right = TokenCorpus::from_column(cache, b.iter().map(|r| r.str(right_attr)));
    (left, right)
}

/// Blocks several join predicates over one column pair, sharing a single
/// tokenization pass and postings index across all of them. This is the
/// plan-level entry point: `run_blocking`'s C2 (overlap) and C3 (overlap
/// coefficient) both block `AwardTitle`, so running them through one call
/// halves the corpus work. Each `(spec, tag)` yields one candidate set
/// (in input order) whose pairs carry `tag` as provenance.
///
/// Callers are responsible for spec validation (the blockers validate
/// before delegating here; see [`OverlapBlocker::join_spec`] and
/// [`SetSimBlocker::join_spec`]).
pub fn block_specs(
    cache: &TokenCache,
    a: &Table,
    left_attr: &str,
    b: &Table,
    right_attr: &str,
    specs: &[(JoinSpec, String)],
) -> Result<Vec<CandidateSet>, BlockError> {
    a.schema().require(left_attr)?;
    b.schema().require(right_attr)?;
    let (left, right) = tokenize_columns(cache, a, left_attr, b, right_attr);
    let index = JoinIndex::build(right);
    let only_specs: Vec<JoinSpec> = specs.iter().map(|(spec, _)| *spec).collect();
    let by_spec = join_pairs_multi(&left, &index, &only_specs);
    let mut sets = Vec::with_capacity(specs.len());
    for ((_, tag), accepted) in specs.iter().zip(by_spec) {
        let mut out = CandidateSet::new(tag.clone());
        for (i, js) in accepted.iter().enumerate() {
            for &j in js {
                out.add(Pair::new(i, j as usize), tag);
            }
        }
        sets.push(out);
    }
    Ok(sets)
}

/// Runs the batch join and folds the per-left-row admissions into a
/// candidate set — the table-level path of a single token blocker.
fn block_via_join(
    cache: &TokenCache,
    a: &Table,
    left_attr: &str,
    b: &Table,
    right_attr: &str,
    spec: &JoinSpec,
    tag: &str,
) -> Result<CandidateSet, BlockError> {
    let mut sets =
        block_specs(cache, a, left_attr, b, right_attr, &[(*spec, tag.to_string())])?;
    sets.pop().ok_or_else(|| BlockError::BadParameter("empty spec list".to_string()))
}

/// Side-specific memo of token ids for the rows a candidate set touches.
type SideTokens = HashMap<usize, TokenIds>;

/// Memoized token-id lookups for the rows a candidate set touches, so the
/// parallel verification pass reads without locking the cache.
fn pair_tokens(
    cache: &TokenCache,
    a: &Table,
    left_attr: &str,
    b: &Table,
    right_attr: &str,
    list: &[Pair],
) -> Result<(SideTokens, SideTokens), BlockError> {
    let mut left = SideTokens::new();
    let mut right = SideTokens::new();
    for p in list {
        let (ra, rb) = rows(a, b, *p)?;
        left.entry(p.left).or_insert_with(|| cache.token_ids(ra.str(left_attr)));
        right.entry(p.right).or_insert_with(|| cache.token_ids(rb.str(right_attr)));
    }
    Ok((left, right))
}

/// Token-overlap blocker: admit `(a, b)` iff the blocking attributes share
/// at least `threshold` distinct word tokens (Section 7, step 2; the paper
/// used threshold 3 after sweeping 1 and 7).
///
/// Table-level blocking runs the [`crate::join`] engine — in place of the
/// "string filtering techniques" of footnote 4, a length filter over a
/// bit-sliced exact count — so the result equals the unfiltered scan bit
/// for bit.
#[derive(Debug, Clone)]
pub struct OverlapBlocker {
    /// Blocking attribute in the left table.
    pub left_attr: String,
    /// Blocking attribute in the right table.
    pub right_attr: String,
    /// Minimum number of shared distinct tokens (≥ 1).
    pub threshold: usize,
    cache: Arc<TokenCache>,
    validated: OnceLock<Result<(), String>>,
}

impl OverlapBlocker {
    /// Overlap blocker with the paper's normalization.
    pub fn new(
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
        threshold: usize,
    ) -> Self {
        OverlapBlocker {
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
            threshold,
            cache: Arc::new(TokenCache::for_blocking()),
            validated: OnceLock::new(),
        }
    }

    /// This blocker's join predicate, validated — for plan-level batching
    /// through [`block_specs`].
    pub fn join_spec(&self) -> Result<JoinSpec, BlockError> {
        self.ensure_valid()?;
        Ok(JoinSpec::overlap(self.threshold))
    }

    /// Shares a token cache with other blockers (builder style), so one
    /// blocking plan tokenizes each column once. The cache's normalizer
    /// replaces this blocker's default.
    pub fn with_cache(mut self, cache: Arc<TokenCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Parameter validation, memoized on first use.
    fn ensure_valid(&self) -> Result<(), BlockError> {
        self.validated
            .get_or_init(|| {
                if self.threshold == 0 {
                    Err("overlap threshold must be >= 1".to_string())
                } else {
                    Ok(())
                }
            })
            .clone()
            .map_err(BlockError::BadParameter)
    }
}

impl Blocker for OverlapBlocker {
    fn name(&self) -> String {
        format!("overlap({},{},K={})", self.left_attr, self.right_attr, self.threshold)
    }

    fn accepts(&self, a: RowRef<'_>, b: RowRef<'_>) -> Result<bool, BlockError> {
        self.ensure_valid()?;
        require_attr(a, &self.left_attr)?;
        require_attr(b, &self.right_attr)?;
        let ta = self.cache.token_ids(a.str(&self.left_attr));
        let tb = self.cache.token_ids(b.str(&self.right_attr));
        Ok(overlap_size_sorted(&ta, &tb) >= self.threshold)
    }

    fn block(&self, a: &Table, b: &Table) -> Result<CandidateSet, BlockError> {
        let spec = self.join_spec()?;
        block_via_join(&self.cache, a, &self.left_attr, b, &self.right_attr, &spec, &self.name())
    }

    fn block_candidates(
        &self,
        a: &Table,
        b: &Table,
        candidates: &CandidateSet,
    ) -> Result<CandidateSet, BlockError> {
        self.ensure_valid()?;
        a.schema().require(&self.left_attr)?;
        b.schema().require(&self.right_attr)?;
        let list: Vec<Pair> = candidates.to_vec();
        let (lt, rt) =
            pair_tokens(&self.cache, a, &self.left_attr, b, &self.right_attr, &list)?;
        let k = self.threshold;
        let flags = Executor::current().map_slice(&list, PAIR_GRAIN, |p| {
            overlap_size_sorted(&lt[&p.left], &rt[&p.right]) >= k
        });
        let tag = self.name();
        let mut out = CandidateSet::new(tag.clone());
        for (pair, ok) in list.iter().zip(flags) {
            if ok {
                out.add(*pair, &tag);
            }
        }
        Ok(out)
    }
}

fn require_attr(r: RowRef<'_>, attr: &str) -> Result<(), BlockError> {
    if r.schema().contains(attr) {
        Ok(())
    } else {
        Err(BlockError::Table(em_table::TableError::NoSuchColumn(attr.to_string())))
    }
}

/// Set-similarity blocker over word tokens: admit `(a, b)` iff
/// `measure(tokens_a, tokens_b) >= threshold`. Backs both the
/// overlap-coefficient blocker (Section 7, step 3; threshold 0.7) and the
/// Jaccard blocker of footnote 2.
#[derive(Debug, Clone)]
pub struct SetSimBlocker {
    /// Blocking attribute in the left table.
    pub left_attr: String,
    /// Blocking attribute in the right table.
    pub right_attr: String,
    /// Which set measure to threshold.
    pub measure: SetMeasure,
    /// Admission threshold in `(0, 1]`.
    pub threshold: f64,
    cache: Arc<TokenCache>,
    validated: OnceLock<Result<(), String>>,
}

/// The set measure a [`SetSimBlocker`] thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetMeasure {
    /// `|A∩B| / min(|A|,|B|)`.
    OverlapCoefficient,
    /// `|A∩B| / |A∪B|`.
    Jaccard,
}

impl SetMeasure {
    /// The measure's value from intersection and set sizes — shared with
    /// [`crate::incremental::IncrementalIndex`] so index probes reproduce
    /// blocker arithmetic bit for bit.
    pub(crate) fn score(self, inter: usize, na: usize, nb: usize) -> f64 {
        match self {
            SetMeasure::OverlapCoefficient => inter as f64 / na.min(nb) as f64,
            SetMeasure::Jaccard => inter as f64 / (na + nb - inter) as f64,
        }
    }
}

impl SetSimBlocker {
    /// The paper's overlap-coefficient blocker (threshold 0.7 over
    /// normalized word tokens).
    pub fn overlap_coefficient(
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
        threshold: f64,
    ) -> Self {
        SetSimBlocker {
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
            measure: SetMeasure::OverlapCoefficient,
            threshold,
            cache: Arc::new(TokenCache::for_blocking()),
            validated: OnceLock::new(),
        }
    }

    /// Jaccard blocker over word tokens.
    pub fn jaccard(
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
        threshold: f64,
    ) -> Self {
        SetSimBlocker {
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
            measure: SetMeasure::Jaccard,
            threshold,
            cache: Arc::new(TokenCache::for_blocking()),
            validated: OnceLock::new(),
        }
    }

    /// Shares a token cache with other blockers (builder style).
    pub fn with_cache(mut self, cache: Arc<TokenCache>) -> Self {
        self.cache = cache;
        self
    }

    /// This blocker's join predicate, validated — for plan-level batching
    /// through [`block_specs`].
    pub fn join_spec(&self) -> Result<JoinSpec, BlockError> {
        self.ensure_valid()?;
        Ok(JoinSpec::set_sim(self.measure, self.threshold))
    }

    /// Parameter validation, memoized on first use.
    fn ensure_valid(&self) -> Result<(), BlockError> {
        self.validated
            .get_or_init(|| {
                if self.threshold > 0.0 && self.threshold <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "set-similarity threshold must be in (0, 1], got {}",
                        self.threshold
                    ))
                }
            })
            .clone()
            .map_err(BlockError::BadParameter)
    }
}

impl Blocker for SetSimBlocker {
    fn name(&self) -> String {
        let m = match self.measure {
            SetMeasure::OverlapCoefficient => "oc",
            SetMeasure::Jaccard => "jac",
        };
        format!("{m}({},{},t={})", self.left_attr, self.right_attr, self.threshold)
    }

    fn accepts(&self, a: RowRef<'_>, b: RowRef<'_>) -> Result<bool, BlockError> {
        self.ensure_valid()?;
        require_attr(a, &self.left_attr)?;
        require_attr(b, &self.right_attr)?;
        let ta = self.cache.token_ids(a.str(&self.left_attr));
        let tb = self.cache.token_ids(b.str(&self.right_attr));
        if ta.is_empty() || tb.is_empty() {
            return Ok(false); // missing titles cannot be admitted by similarity
        }
        let inter = overlap_size_sorted(&ta, &tb);
        Ok(self.measure.score(inter, ta.len(), tb.len()) >= self.threshold)
    }

    fn block(&self, a: &Table, b: &Table) -> Result<CandidateSet, BlockError> {
        let spec = self.join_spec()?;
        block_via_join(&self.cache, a, &self.left_attr, b, &self.right_attr, &spec, &self.name())
    }

    fn block_candidates(
        &self,
        a: &Table,
        b: &Table,
        candidates: &CandidateSet,
    ) -> Result<CandidateSet, BlockError> {
        self.ensure_valid()?;
        a.schema().require(&self.left_attr)?;
        b.schema().require(&self.right_attr)?;
        let list: Vec<Pair> = candidates.to_vec();
        let (lt, rt) =
            pair_tokens(&self.cache, a, &self.left_attr, b, &self.right_attr, &list)?;
        let threshold = self.threshold;
        let measure = self.measure;
        let flags = Executor::current().map_slice(&list, PAIR_GRAIN, |p| {
            let (ta, tb) = (&lt[&p.left], &rt[&p.right]);
            if ta.is_empty() || tb.is_empty() {
                return false;
            }
            measure.score(overlap_size_sorted(ta, tb), ta.len(), tb.len()) >= threshold
        });
        let tag = self.name();
        let mut out = CandidateSet::new(tag.clone());
        for (pair, ok) in list.iter().zip(flags) {
            if ok {
                out.add(*pair, &tag);
            }
        }
        Ok(out)
    }
}

/// Black-box blocker: admit `(a, b)` iff a user predicate says so. This is
/// how ad-hoc rules (like M1's suffix-equality pre-check) enter the blocking
/// pipeline.
pub struct BlackboxBlocker<F> {
    label: String,
    predicate: F,
}

impl<F> BlackboxBlocker<F>
where
    F: Fn(RowRef<'_>, RowRef<'_>) -> bool,
{
    /// Wraps a predicate with a provenance label.
    pub fn new(label: impl Into<String>, predicate: F) -> Self {
        BlackboxBlocker { label: label.into(), predicate }
    }
}

impl<F> Blocker for BlackboxBlocker<F>
where
    F: Fn(RowRef<'_>, RowRef<'_>) -> bool,
{
    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, a: RowRef<'_>, b: RowRef<'_>) -> Result<bool, BlockError> {
        Ok((self.predicate)(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_table::csv::read_str;

    fn left() -> Table {
        read_str(
            "A",
            "AwardNumber,AwardTitle\n\
             2008-34103-19449,DEVELOPMENT OF IPM-BASED CORN FUNGICIDE GUIDELINES\n\
             WIS01040,SWAMP DODDER APPLIED ECOLOGY AND MANAGEMENT\n\
             WIS04059,Lab Supplies\n\
             ,Genetic Organization of Maize R Genes\n",
        )
        .unwrap()
    }

    fn right() -> Table {
        read_str(
            "B",
            "AwardNumber,AwardTitle\n\
             2008-34103-19449,Development of IPM-Based Corn Fungicide Guidelines\n\
             ,Swamp Dodder Applied Ecology and Management in Carrot Production\n\
             WIS99999,Lab Supplies\n\
             ,Unrelated Title Entirely Different Words\n",
        )
        .unwrap()
    }

    #[test]
    fn ae_blocker_joins_on_equality() {
        let b = AttrEquivalenceBlocker::new("AwardNumber", "AwardNumber");
        let c = b.block(&left(), &right()).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&Pair::new(0, 0)));
    }

    #[test]
    fn ae_blocker_skips_nulls() {
        let a = read_str("A", "K\n\n\n").unwrap();
        let b2 = read_str("B", "K\n\n\n").unwrap();
        let c = AttrEquivalenceBlocker::new("K", "K").block(&a, &b2).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn ae_accepts_matches_block() {
        let (a, b) = (left(), right());
        let blocker = AttrEquivalenceBlocker::new("AwardNumber", "AwardNumber");
        let c = blocker.block(&a, &b).unwrap();
        for i in 0..a.n_rows() {
            for j in 0..b.n_rows() {
                let acc =
                    blocker.accepts(a.row(i).unwrap(), b.row(j).unwrap()).unwrap();
                assert_eq!(acc, c.contains(&Pair::new(i, j)), "({i},{j})");
            }
        }
    }

    #[test]
    fn overlap_blocker_thresholds_shared_tokens() {
        let b = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
        let c = b.block(&left(), &right()).unwrap();
        assert!(c.contains(&Pair::new(0, 0)), "fungicide titles share >= 3 tokens");
        assert!(c.contains(&Pair::new(1, 1)), "dodder titles share >= 3 tokens");
        assert!(!c.contains(&Pair::new(2, 2)), "'lab supplies' shares only 2 tokens");
        assert!(!c.contains(&Pair::new(0, 3)));
    }

    #[test]
    fn overlap_blocker_case_insensitive_via_normalizer() {
        // Same title, different case: must be admitted (normalizer lowercases).
        let b = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
        let c = b.block(&left(), &right()).unwrap();
        assert!(c.contains(&Pair::new(0, 0)));
    }

    #[test]
    fn overlap_rejects_zero_threshold() {
        let b = OverlapBlocker::new("AwardTitle", "AwardTitle", 0);
        assert!(b.block(&left(), &right()).is_err());
        // accepts must reject too (validated once, still surfaced per call).
        let (a, t) = (left(), right());
        assert!(b.accepts(a.row(0).unwrap(), t.row(0).unwrap()).is_err());
    }

    #[test]
    fn oc_blocker_admits_short_titles() {
        // "Lab Supplies" vs "Lab Supplies": 2 shared / min 2 = 1.0 ≥ 0.7,
        // exactly the case the overlap blocker with K=3 misses.
        let b = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
        let c = b.block(&left(), &right()).unwrap();
        assert!(c.contains(&Pair::new(2, 2)));
        assert!(!c.contains(&Pair::new(3, 3)));
    }

    #[test]
    fn oc_blocker_accepts_agrees_with_block() {
        let (a, b) = (left(), right());
        let blocker = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
        let c = blocker.block(&a, &b).unwrap();
        for i in 0..a.n_rows() {
            for j in 0..b.n_rows() {
                let acc =
                    blocker.accepts(a.row(i).unwrap(), b.row(j).unwrap()).unwrap();
                assert_eq!(acc, c.contains(&Pair::new(i, j)), "({i},{j})");
            }
        }
    }

    #[test]
    fn jaccard_blocker_thresholds() {
        let b = SetSimBlocker::jaccard("AwardTitle", "AwardTitle", 0.5);
        let c = b.block(&left(), &right()).unwrap();
        assert!(c.contains(&Pair::new(2, 2)));
        assert!(!c.contains(&Pair::new(1, 3)));
    }

    #[test]
    fn setsim_threshold_validation() {
        for t in [0.0, -0.5, 1.5] {
            let b = SetSimBlocker::jaccard("AwardTitle", "AwardTitle", t);
            assert!(b.block(&left(), &right()).is_err(), "t={t}");
        }
    }

    #[test]
    fn blackbox_blocker_runs_predicate() {
        let blocker = BlackboxBlocker::new("same-prefix", |a: RowRef<'_>, b: RowRef<'_>| {
            match (a.str("AwardNumber"), b.str("AwardNumber")) {
                (Some(x), Some(y)) => x.get(..3) == y.get(..3),
                _ => false,
            }
        });
        let c = blocker.block(&left(), &right()).unwrap();
        assert!(c.contains(&Pair::new(0, 0)));
        assert!(c.contains(&Pair::new(1, 2))); // WIS vs WIS
        assert!(c.contains(&Pair::new(2, 2)));
    }

    #[test]
    fn block_candidates_composes() {
        let (a, b) = (left(), right());
        let wide = OverlapBlocker::new("AwardTitle", "AwardTitle", 1).block(&a, &b).unwrap();
        let narrow = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
        let refined = narrow.block_candidates(&a, &b, &wide).unwrap();
        let direct = narrow.block(&a, &b).unwrap();
        assert_eq!(refined.to_vec(), direct.to_vec());
    }

    #[test]
    fn setsim_block_candidates_composes() {
        let (a, b) = (left(), right());
        let wide = OverlapBlocker::new("AwardTitle", "AwardTitle", 1).block(&a, &b).unwrap();
        let oc = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
        let refined = oc.block_candidates(&a, &b, &wide).unwrap();
        for p in refined.iter() {
            assert!(oc.accepts(a.row(p.left).unwrap(), b.row(p.right).unwrap()).unwrap());
        }
        // Every directly-blocked pair that survives the wide set appears.
        let direct = oc.block(&a, &b).unwrap();
        for p in direct.iter() {
            if wide.contains(&p) {
                assert!(refined.contains(&p));
            }
        }
    }

    #[test]
    fn shared_cache_reproduces_unshared_results() {
        let (a, b) = (left(), right());
        let cache = Arc::new(TokenCache::for_blocking());
        let shared2 = OverlapBlocker::new("AwardTitle", "AwardTitle", 3)
            .with_cache(Arc::clone(&cache));
        let shared3 = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7)
            .with_cache(Arc::clone(&cache));
        let own2 = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
        let own3 = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);
        assert_eq!(shared2.block(&a, &b).unwrap().to_vec(), own2.block(&a, &b).unwrap().to_vec());
        assert_eq!(shared3.block(&a, &b).unwrap().to_vec(), own3.block(&a, &b).unwrap().to_vec());
    }

    #[test]
    fn block_is_thread_count_invariant() {
        let (a, b) = (left(), right());
        let blocker = OverlapBlocker::new("AwardTitle", "AwardTitle", 2);
        let baseline = Executor::new(1); // document the executor is in play
        assert_eq!(baseline.threads(), 1);
        let c1 = blocker.block(&a, &b).unwrap();
        em_parallel::set_threads(4);
        let c4 = blocker.block(&a, &b).unwrap();
        em_parallel::set_threads(0);
        assert_eq!(c1.to_vec(), c4.to_vec());
    }

    #[test]
    fn missing_column_is_reported() {
        let b = OverlapBlocker::new("Nope", "AwardTitle", 2);
        assert!(matches!(b.block(&left(), &right()), Err(BlockError::Table(_))));
    }
}
