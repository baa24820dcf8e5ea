//! Blocking debugger — the MatchCatcher \[23\] step of Section 7.
//!
//! Given the two input tables and the consolidated candidate set `C`, the
//! debugger surfaces record pairs that are **not** in `C` but look like
//! matches, ranked by decreasing likelihood. The user eyeballs the top of
//! the list: if it contains no true matches, blocking probably "has not
//! killed off many true matches" and can be frozen.
//!
//! The audit is an **exact top-k similarity join** on the [`join`](crate::join)
//! engine. Each compared column is tokenized, interned, decoded to `char`s
//! and histogrammed once; a [`JoinIndex`] probe under `overlap(1)` streams,
//! per left row, the right rows sharing a word token; a bounded heap keeps
//! the best `top_k` pairs seen so far. A pair's score is the mean over
//! attributes of `max(token Jaccard, Jaro-Winkler)`. Jaccard is a cheap
//! merge over interned ids; Jaro-Winkler is the expensive part, and is only
//! computed when `jw_upper_bound` says it could exceed the Jaccard already
//! in hand *and* lift the pair past the heap's current k-th entry. Every
//! skipped pair provably scores below that entry (or has its exact score
//! without Jaro-Winkler), so the ranked list is bit-identical to scoring
//! every surviving pair and sorting.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::blockers::tokenize_columns;
use crate::candidate::{CandidateSet, Pair};
use crate::error::BlockError;
use crate::join::{JoinIndex, JoinScratch, JoinSpec};
use em_parallel::Executor;
use em_table::Table;
use em_text::intern::{jaccard_counts, overlap_size_sorted, TokenCache, TokenCorpus};
use em_text::seq::jaro_winkler_chars;
use em_text::{KernelScratch, Normalizer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A potentially missed match surfaced by the debugger.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugPair {
    /// The pair of row indices.
    pub pair: Pair,
    /// Likelihood score in `[0, 1]` (higher = more match-like).
    pub score: f64,
}

/// Configuration for [`debug_blocking`].
#[derive(Debug, Clone)]
pub struct BlockingDebugger {
    /// `(left attribute, right attribute)` pairs to compare.
    pub attrs: Vec<(String, String)>,
    /// How many top pairs to return.
    pub top_k: usize,
    /// Normalization before comparison.
    pub normalizer: Normalizer,
}

impl BlockingDebugger {
    /// Debugger over one attribute pair with the paper's top-100 audit size.
    pub fn new(left_attr: impl Into<String>, right_attr: impl Into<String>) -> Self {
        BlockingDebugger {
            attrs: vec![(left_attr.into(), right_attr.into())],
            top_k: 100,
            normalizer: Normalizer::for_blocking(),
        }
    }

    /// Adds another attribute pair to compare.
    pub fn with_attrs(
        mut self,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> Self {
        self.attrs.push((left_attr.into(), right_attr.into()));
        self
    }

    /// Sets the number of returned pairs.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }
}

/// Runs the debugger: returns the `top_k` most match-like pairs that are in
/// `A × B` but **not** in `candidates`, ranked by decreasing score (ties
/// broken by pair order for determinism).
///
/// Pairs sharing no word token in any compared attribute are skipped — they
/// cannot outrank pairs that do, and skipping them is what makes the
/// debugger "fast" in the paper's sense (inverted-index candidate
/// generation rather than a Cartesian scan). Two values without any word
/// token carry no evidence of a match and score 0 on that attribute.
pub fn debug_blocking(
    config: &BlockingDebugger,
    a: &Table,
    b: &Table,
    candidates: &CandidateSet,
) -> Result<Vec<DebugPair>, BlockError> {
    audit(config, a, b, candidates, Executor::current()).map(|(ranked, _)| ranked)
}

/// How much work one audit did and avoided.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DebugWork {
    /// Pairs outside the candidate set that share a word token in some
    /// compared attribute — each one is scored or provably out of the top k.
    pub survivors: u64,
    /// Jaro-Winkler kernel calls. Scoring every survivor on every attribute
    /// costs `survivors × attrs` of them.
    pub jw_verified: u64,
}

/// [`debug_blocking`] plus its work counters, for `reproduce` and the
/// pruning tests. The counters depend on how rows were chunked over
/// threads; the ranked list never does.
#[doc(hidden)]
pub fn debug_blocking_counted(
    config: &BlockingDebugger,
    a: &Table,
    b: &Table,
    candidates: &CandidateSet,
) -> Result<(Vec<DebugPair>, DebugWork), BlockError> {
    audit(config, a, b, candidates, Executor::current())
}

/// Minimum left rows per audit chunk (one private heap and scratch each).
const AUDIT_GRAIN: usize = 32;

fn audit(
    config: &BlockingDebugger,
    a: &Table,
    b: &Table,
    candidates: &CandidateSet,
    executor: Executor,
) -> Result<(Vec<DebugPair>, DebugWork), BlockError> {
    if config.attrs.is_empty() {
        return Err(BlockError::BadParameter("debugger needs >= 1 attribute pair".to_string()));
    }
    for (la, ra) in &config.attrs {
        a.schema().require(la)?;
        b.schema().require(ra)?;
    }
    if config.top_k == 0 {
        return Ok((Vec::new(), DebugWork::default()));
    }

    let cache = TokenCache::new(config.normalizer);
    let attrs: Vec<AttrColumns> = config
        .attrs
        .iter()
        .map(|(la, ra)| AttrColumns::build(&cache, config.normalizer, a, la, b, ra))
        .collect();
    let excluded = CandidateRows::build(candidates, a.n_rows(), b.n_rows());

    // One private heap per contiguous chunk of left rows. Each chunk's list
    // is its exact top k, so the k best of their union under the same total
    // order is the global top k wherever the chunk boundaries fall.
    let n = a.n_rows();
    let chunks = executor.threads().min(n / AUDIT_GRAIN).max(1);
    let per_chunk = n.div_ceil(chunks);
    let parts = executor.map_indexed(chunks, 1, |c| {
        let rows = (c * per_chunk).min(n)..((c + 1) * per_chunk).min(n);
        audit_rows(&attrs, &excluded, config.top_k, rows)
    });
    let mut work = DebugWork::default();
    let mut ranked = Vec::new();
    for (top, part_work) in parts {
        ranked.extend(top);
        work.survivors += part_work.survivors;
        work.jw_verified += part_work.jw_verified;
    }
    ranked.sort_by(rank_order);
    ranked.truncate(config.top_k);
    Ok((ranked, work))
}

/// Best-first total order of the audit: score descending, then pair
/// ascending. Scores are never NaN.
fn rank_order(x: &DebugPair, y: &DebugPair) -> Ordering {
    y.score.partial_cmp(&x.score).unwrap_or(Ordering::Equal).then_with(|| x.pair.cmp(&y.pair))
}

/// Heap entry ordered by [`rank_order`], so a max-heap's top is the
/// *worst*-ranked entry — the one a better pair evicts.
struct Ranked(DebugPair);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0, &other.0)
    }
}

/// The best `k >= 1` pairs offered so far.
struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK { k, heap: BinaryHeap::new() }
    }

    /// True when `entry` would make the list: there is room, or it ranks
    /// strictly ahead of the current k-th entry. [`rank_order`] is monotone
    /// in the score for a fixed pair, so an entry whose *upper-bounded*
    /// score is not admitted cannot be admitted at its true score either.
    fn admits(&self, entry: &DebugPair) -> bool {
        match self.heap.peek() {
            Some(worst) if self.heap.len() >= self.k => {
                rank_order(entry, &worst.0) == Ordering::Less
            }
            _ => true,
        }
    }

    fn offer(&mut self, entry: DebugPair) {
        if self.admits(&entry) {
            if self.heap.len() >= self.k {
                self.heap.pop();
            }
            self.heap.push(Ranked(entry));
        }
    }

    /// The kept pairs, in no particular order.
    fn into_pairs(self) -> Vec<DebugPair> {
        self.heap.into_iter().map(|r| r.0).collect()
    }
}

/// Candidate pairs as sorted right-row lists per left row, so exclusion is
/// a merge walk against the (ascending) probe output instead of a tree
/// lookup per pair. Pairs pointing outside either table are dropped.
struct CandidateRows {
    starts: Vec<usize>,
    rights: Vec<u32>,
}

impl CandidateRows {
    fn build(candidates: &CandidateSet, n_left: usize, n_right: usize) -> CandidateRows {
        let mut starts = vec![0usize; n_left + 1];
        let mut rights = Vec::with_capacity(candidates.len());
        // `iter` is in (left, right) order: rows fill left to right, each
        // already ascending.
        for p in candidates.iter().filter(|p| p.left < n_left && p.right < n_right) {
            rights.push(p.right as u32);
            starts[p.left + 1] = rights.len();
        }
        for i in 1..=n_left {
            starts[i] = starts[i].max(starts[i - 1]);
        }
        CandidateRows { starts, rights }
    }

    fn row(&self, left: usize) -> &[u32] {
        &self.rights[self.starts[left]..self.starts[left + 1]]
    }
}

/// Character-histogram width of the Jaro match-count bound.
const HIST_BUCKETS: usize = 64;

/// Per-bucket character counts of one string.
type Histogram = [u32; HIST_BUCKETS];

/// Histogram bucket of a character. Lowercase ASCII letters, digits and the
/// space — everything blocking-normalized English text contains — get a
/// bucket each; every other `char` folds into the remaining ones. Any total
/// function is sound here (see [`jw_upper_bound`]); this one is merely
/// exact on the common alphabet.
fn hist_bucket(c: char) -> usize {
    match c {
        'a'..='z' => c as usize - 'a' as usize,
        '0'..='9' => 26 + (c as usize - '0' as usize),
        ' ' => 36,
        _ => 37 + c as usize % (HIST_BUCKETS - 37),
    }
}

fn histogram(chars: &[char]) -> Histogram {
    let mut h = [0u32; HIST_BUCKETS];
    for &c in chars {
        h[hist_bucket(c)] += 1;
    }
    h
}

/// One side of one compared attribute: the normalized cell texts decoded
/// once, with their character histograms.
struct Decoded {
    chars: Vec<Vec<char>>,
    hist: Vec<Histogram>,
}

impl Decoded {
    fn build(normalizer: Normalizer, table: &Table, attr: &str) -> Decoded {
        let chars: Vec<Vec<char>> = table
            .iter()
            .map(|r| r.str(attr).map(|s| normalizer.apply(s).chars().collect()).unwrap_or_default())
            .collect();
        let hist = chars.iter().map(|row| histogram(row)).collect();
        Decoded { chars, hist }
    }
}

/// One compared attribute pair, prepared once per audit.
struct AttrColumns {
    left_tokens: TokenCorpus,
    /// Postings over the right column; owns the right token corpus.
    index: JoinIndex,
    left: Decoded,
    right: Decoded,
}

impl AttrColumns {
    fn build(
        cache: &TokenCache,
        normalizer: Normalizer,
        a: &Table,
        left_attr: &str,
        b: &Table,
        right_attr: &str,
    ) -> AttrColumns {
        let (left_tokens, right_tokens) = tokenize_columns(cache, a, left_attr, b, right_attr);
        AttrColumns {
            left_tokens,
            index: JoinIndex::build(right_tokens),
            left: Decoded::build(normalizer, a, left_attr),
            right: Decoded::build(normalizer, b, right_attr),
        }
    }
}

/// Floating-point slack of [`jw_upper_bound`]. Jaro-Winkler's
/// `j + p·0.1·(1 − j)` is nondecreasing in `j` over the reals, but its three
/// roundings (each at most 2⁻⁵³ for operands in `[0, 1]`) can reorder two
/// nearly-equal inputs; 10⁻¹² covers those few ulps with orders of magnitude
/// to spare and is far below any gap between distinct scores that matters
/// for pruning.
const JW_BOUND_SLACK: f64 = 1e-12;

/// An upper bound on `jaro_winkler_chars(a, b)` from the strings' lengths,
/// histograms and first four characters — no match scan.
///
/// Jaro's matched characters pair up equal characters one to one, so their
/// number `m` is at most the multiset intersection of the two strings,
/// which is at most `Σ min(ha[bucket], hb[bucket])` however characters are
/// bucketed (merging buckets only raises a sum of minima). Transpositions
/// only lower the third Jaro term, so
/// `jaro = (m/|a| + m/|b| + (m − t)/m)/3 ≤ (m̂/|a| + m̂/|b| + 1)/3`; evaluated
/// with the kernel's own operation order this holds in `f64` too, because
/// correctly-rounded division and addition are monotone. The prefix length
/// is exact, and Jaro-Winkler is nondecreasing in Jaro up to
/// [`JW_BOUND_SLACK`].
fn jw_upper_bound(a: &[char], ha: &Histogram, b: &[char], hb: &Histogram) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 1.0; // the kernel's degenerate cases; trivially cheap to verify
    }
    let m: u32 = ha.iter().zip(hb).map(|(x, y)| *x.min(y)).sum();
    let m = f64::from(m);
    let jaro = (m / a.len() as f64 + m / b.len() as f64 + 1.0) / 3.0;
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    jaro + prefix as f64 * 0.1 * (1.0 - jaro) + JW_BOUND_SLACK
}

/// Mean of per-attribute scores, in the attribute order and operation order
/// the ranked list is defined by.
fn mean(parts: &[f64]) -> f64 {
    parts.iter().sum::<f64>() / parts.len() as f64
}

/// Audits a contiguous range of left rows: its exact top `top_k` (unordered)
/// and the work done.
fn audit_rows(
    attrs: &[AttrColumns],
    excluded: &CandidateRows,
    top_k: usize,
    rows: std::ops::Range<usize>,
) -> (Vec<DebugPair>, DebugWork) {
    let spec = JoinSpec::overlap(1);
    // Per-chunk buffers, reused across rows and pairs.
    let mut join: Vec<JoinScratch> =
        attrs.iter().map(|attr| JoinScratch::for_index(&attr.index)).collect();
    let mut kernel = KernelScratch::new();
    let (mut survivors, mut hits) = (Vec::new(), Vec::new());
    // Per attribute of the current pair: `parts` is its score — exact where
    // `open` is false, the Jaccard lower bound where Jaro-Winkler could
    // still beat it — and `bounds` an upper bound of that score.
    let mut parts = vec![0.0; attrs.len()];
    let mut bounds = vec![0.0; attrs.len()];
    let mut open = vec![false; attrs.len()];

    let mut top = TopK::new(top_k);
    let mut work = DebugWork::default();
    for i in rows {
        // Survivors: the union over attributes of the right rows sharing a
        // token, minus this row's candidates.
        survivors.clear();
        for (attr, scratch) in attrs.iter().zip(&mut join) {
            attr.index.probe_into(attr.left_tokens.row(i), &spec, scratch, &mut hits);
            survivors.extend_from_slice(&hits);
        }
        // One probe's output is already ascending and duplicate-free.
        if attrs.len() > 1 {
            survivors.sort_unstable();
            survivors.dedup();
        }
        let mut skip = excluded.row(i).iter().copied().peekable();
        for &j in &survivors {
            while skip.next_if(|&c| c < j).is_some() {}
            if skip.peek() == Some(&j) {
                continue;
            }
            work.survivors += 1;
            let j = j as usize;
            let pair = Pair::new(i, j);
            for (k, attr) in attrs.iter().enumerate() {
                let (ta, tb) = (attr.left_tokens.row(i), attr.index.right().row(j));
                if ta.is_empty() && tb.is_empty() {
                    // Two values without a word token: no evidence.
                    (parts[k], bounds[k], open[k]) = (0.0, 0.0, false);
                    continue;
                }
                let jac = jaccard_counts(overlap_size_sorted(ta, tb), ta.len(), tb.len());
                let jw_max = jw_upper_bound(
                    &attr.left.chars[i],
                    &attr.left.hist[i],
                    &attr.right.chars[j],
                    &attr.right.hist[j],
                );
                // jw <= jw_max <= jac: the max is the Jaccard, unverified.
                (parts[k], bounds[k], open[k]) = (jac, jac.max(jw_max), jw_max > jac);
            }
            if open.contains(&true) {
                if !top.admits(&DebugPair { pair, score: mean(&bounds) }) {
                    continue;
                }
                for (k, attr) in attrs.iter().enumerate() {
                    if open[k] {
                        let jw = jaro_winkler_chars(
                            &mut kernel,
                            &attr.left.chars[i],
                            &attr.right.chars[j],
                        );
                        parts[k] = parts[k].max(jw);
                        work.jw_verified += 1;
                    }
                }
            }
            top.offer(DebugPair { pair, score: mean(&parts) });
        }
    }
    (top.into_pairs(), work)
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::debug_blocking_naive;
    use super::*;
    use crate::blockers::{Blocker, OverlapBlocker};
    use em_table::csv::read_str;
    use em_table::{Schema, Value};
    use proptest::prelude::*;

    fn tables() -> (Table, Table) {
        let a = read_str(
            "A",
            "Title\n\
             Corn Fungicide Guidelines for the North Central States\n\
             Lab Supplies\n\
             Maize Gene Silencing\n",
        )
        .unwrap();
        let b = read_str(
            "B",
            "Title\n\
             Corn Fungicide Guidelines North Central\n\
             LAB SUPPLIES\n\
             Completely Different Research Topic\n",
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn surfaces_missed_match() {
        let (a, b) = tables();
        // Overlap K=3 blocks (0,0) in but misses the short (1,1) pair.
        let c = OverlapBlocker::new("Title", "Title", 3).block(&a, &b).unwrap();
        assert!(!c.contains(&Pair::new(1, 1)));
        let dbg = debug_blocking(&BlockingDebugger::new("Title", "Title"), &a, &b, &c).unwrap();
        assert_eq!(dbg[0].pair, Pair::new(1, 1), "missed 'lab supplies' pair should rank first");
        assert!(dbg[0].score > 0.9);
    }

    #[test]
    fn excludes_candidate_pairs() {
        let (a, b) = tables();
        let c = OverlapBlocker::new("Title", "Title", 1).block(&a, &b).unwrap();
        let dbg = debug_blocking(&BlockingDebugger::new("Title", "Title"), &a, &b, &c).unwrap();
        for d in &dbg {
            assert!(!c.contains(&d.pair));
        }
    }

    #[test]
    fn scores_descend() {
        let (a, b) = tables();
        let c = CandidateSet::new("empty");
        let dbg = debug_blocking(&BlockingDebugger::new("Title", "Title"), &a, &b, &c).unwrap();
        for w in dbg.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn top_k_truncates() {
        let (a, b) = tables();
        let c = CandidateSet::new("empty");
        let dbg =
            debug_blocking(&BlockingDebugger::new("Title", "Title").with_top_k(1), &a, &b, &c)
                .unwrap();
        assert_eq!(dbg.len(), 1);
    }

    #[test]
    fn no_attrs_is_error() {
        let (a, b) = tables();
        let cfg =
            BlockingDebugger { attrs: vec![], top_k: 10, normalizer: Normalizer::for_blocking() };
        assert!(debug_blocking(&cfg, &a, &b, &CandidateSet::new("c")).is_err());
    }

    #[test]
    fn multiple_attr_pairs_average() {
        let a = read_str("A", "T,N\nLab Supplies,W1\n").unwrap();
        let b = read_str("B", "T,N\nLab Supplies,W1\nLab Supplies,XX\n").unwrap();
        let cfg = BlockingDebugger::new("T", "T").with_attrs("N", "N");
        let dbg = debug_blocking(&cfg, &a, &b, &CandidateSet::new("c")).unwrap();
        // The pair agreeing on both attributes must outrank the other.
        assert_eq!(dbg[0].pair, Pair::new(0, 0));
        assert!(dbg[0].score > dbg[1].score);
    }

    /// A table of string columns; `None` cells are nulls.
    fn table_of(names: &[&str], rows: Vec<Vec<Option<String>>>) -> Table {
        let rows = rows
            .into_iter()
            .map(|r| r.into_iter().map(|c| c.map_or(Value::Null, Value::Str)).collect())
            .collect();
        Table::from_rows("t", Schema::of_strings(names), rows).unwrap()
    }

    fn titles(rows: &[Option<&str>]) -> Table {
        table_of(&["T"], rows.iter().map(|c| vec![c.map(str::to_string)]).collect())
    }

    /// Pairs and score *bits*: the rewrite promises the reference's exact
    /// floats, not merely close ones.
    fn bits(list: &[DebugPair]) -> Vec<(Pair, u64)> {
        list.iter().map(|d| (d.pair, d.score.to_bits())).collect()
    }

    fn assert_matches_reference(cfg: &BlockingDebugger, a: &Table, b: &Table, c: &CandidateSet) {
        let expect = bits(&debug_blocking_naive(cfg, a, b, c).unwrap());
        for threads in [1, 2, 4] {
            let (got, _) = audit(cfg, a, b, c, Executor::new(threads)).unwrap();
            assert_eq!(bits(&got), expect, "threads={threads}");
        }
    }

    #[test]
    fn top_k_zero_scores_nothing() {
        let (a, b) = tables();
        let cfg = BlockingDebugger::new("Title", "Title").with_top_k(0);
        let (list, work) = debug_blocking_counted(&cfg, &a, &b, &CandidateSet::new("c")).unwrap();
        assert!(list.is_empty());
        assert_eq!(work, DebugWork::default());
        // Validation still comes first.
        assert!(debug_blocking(&cfg.with_attrs("Nope", "Title"), &a, &b, &CandidateSet::new("c"))
            .is_err());
    }

    #[test]
    fn out_of_range_candidates_are_ignored() {
        let (a, b) = tables();
        let c = CandidateSet::from_pairs(
            "c",
            [
                Pair::new(0, 0),
                Pair::new(0, 99),
                Pair::new(99, 1),
                Pair::new(usize::MAX, usize::MAX),
            ],
            "test",
        );
        let cfg = BlockingDebugger::new("Title", "Title");
        let dbg = debug_blocking(&cfg, &a, &b, &c).unwrap();
        assert!(dbg.iter().all(|d| d.pair != Pair::new(0, 0)));
        assert_eq!(dbg[0].pair, Pair::new(1, 1));
        assert_matches_reference(&cfg, &a, &b, &c);
    }

    #[test]
    fn missing_values_never_surface() {
        // Rows 1-3 of each side have no word token: null, empty, punctuation.
        let a = titles(&[Some("Lab Supplies"), None, Some(""), Some("!!! ---")]);
        let b = titles(&[Some("lab supplies"), None, Some(""), Some("!!! ---")]);
        let cfg = BlockingDebugger::new("T", "T");
        let dbg = debug_blocking(&cfg, &a, &b, &CandidateSet::new("c")).unwrap();
        assert_eq!(bits(&dbg), vec![(Pair::new(0, 0), 1.0f64.to_bits())]);
        assert_matches_reference(&cfg, &a, &b, &CandidateSet::new("c"));
    }

    #[test]
    fn missing_attribute_counts_zero_in_the_mean() {
        // Identical titles; the second attribute has no word token on either
        // side of (0, 0) — identical punctuation is still no evidence — and
        // on one side only of (0, 1).
        let row = |t: &str, n: Option<&str>| vec![Some(t.to_string()), n.map(str::to_string)];
        let a = table_of(&["T", "N"], vec![row("Lab Supplies", Some("--"))]);
        let b = table_of(
            &["T", "N"],
            vec![
                row("Lab Supplies", Some("--")),
                row("Lab Supplies", Some("w1")),
                row("Lab Supplies", None),
            ],
        );
        // Keep punctuation so the two "--" cells are equal non-empty strings.
        let mut cfg = BlockingDebugger::new("T", "T").with_attrs("N", "N");
        cfg.normalizer = Normalizer::lowercase_only();
        let dbg = debug_blocking(&cfg, &a, &b, &CandidateSet::new("c")).unwrap();
        assert_eq!(dbg.len(), 3);
        for d in &dbg {
            assert_eq!(d.score, 0.5, "{d:?}");
        }
        assert_matches_reference(&cfg, &a, &b, &CandidateSet::new("c"));
    }

    #[test]
    fn non_ascii_titles_match_reference() {
        let a = titles(&[
            Some("café #9"),
            Some("玉米 研究 玉米"),
            Some("σίτος research"),
            Some("CAFÉ"),
            Some("ǅungla ǅ"),
        ]);
        let b = titles(&[
            Some("cafe #9"),
            Some("玉米 研究"),
            Some("research σίτος"),
            Some("café"),
            Some("研究 9 café"),
            Some("ǆungla"),
        ]);
        for cfg in [
            BlockingDebugger::new("T", "T"),
            BlockingDebugger { normalizer: Normalizer::none(), ..BlockingDebugger::new("T", "T") },
        ] {
            for k in [1, 3, 100] {
                let cfg = cfg.clone().with_top_k(k);
                assert_matches_reference(&cfg, &a, &b, &CandidateSet::new("c"));
            }
        }
    }

    #[test]
    fn bound_pruning_skips_most_verifications() {
        // Forty pairwise-dissimilar long titles sharing one stop word, one
        // true near-duplicate: once the duplicate holds the single heap
        // slot, almost nothing can reach it.
        let words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"];
        let row = |i: usize| {
            format!("the {} {} {}", words[i % 8], words[(i / 8 + 3) % 8].repeat(2), i * 7919)
        };
        let left: Vec<String> = (0..40).map(row).collect();
        let right: Vec<String> = (0..40).map(|i| row(39 - i)).collect();
        let a = titles(&left.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        let b = titles(&right.iter().map(|s| Some(s.as_str())).collect::<Vec<_>>());
        let cfg = BlockingDebugger::new("T", "T").with_top_k(1);
        let c = CandidateSet::new("c");
        let (list, work) = audit(&cfg, &a, &b, &c, Executor::new(1)).unwrap();
        assert_eq!(bits(&list), bits(&debug_blocking_naive(&cfg, &a, &b, &c).unwrap()));
        assert_eq!(work.survivors, 1600, "every pair shares 'the'");
        assert!(
            work.jw_verified * 4 < work.survivors,
            "pruning should avoid most Jaro-Winkler calls: {work:?}"
        );
    }

    /// Strings over a tiny alphabet (shared prefixes and equal scores are
    /// common), with multi-byte characters and the empty string mixed in.
    fn short_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            proptest::sample::select(vec!['a', 'b', 'c', ' ', '9', 'é', '玉', 'ǅ', '#']),
            0..12,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    /// Cells over a tiny vocabulary, so equal scores and ties at the k-th
    /// entry are the norm; `None` is a null cell.
    fn cell() -> impl Strategy<Value = Option<String>> {
        proptest::option::of(
            proptest::collection::vec(
                proptest::sample::select(vec![
                    "corn", "maize", "lab", "café", "玉米", "9", "--", "",
                ]),
                0..4,
            )
            .prop_map(|ws| ws.join(" ")),
        )
    }

    fn rows(max: usize) -> impl Strategy<Value = Vec<Vec<Option<String>>>> {
        proptest::collection::vec(proptest::collection::vec(cell(), 2..3), 0..max)
    }

    proptest! {
        /// The bound is never below the kernel it stands in for.
        #[test]
        fn jw_bound_dominates_kernel(x in short_string(), y in short_string(), shared in short_string()) {
            let mut scratch = KernelScratch::new();
            for (x, y) in [(x.clone(), y.clone()), (format!("{shared}{x}"), format!("{shared}{y}"))] {
                let (a, b): (Vec<char>, Vec<char>) = (x.chars().collect(), y.chars().collect());
                let bound = jw_upper_bound(&a, &histogram(&a), &b, &histogram(&b));
                let jw = jaro_winkler_chars(&mut scratch, &a, &b);
                prop_assert!(bound >= jw, "bound {} < jw {} for {:?} / {:?}", bound, jw, x, y);
            }
        }

        /// The pruned join returns the reference scan's list bit for bit:
        /// one and two attribute pairs, random candidate sets, every
        /// interesting `top_k`, 1/2/4 threads (the left table is long enough
        /// to split into that many chunks).
        #[test]
        fn audit_equals_reference(
            left in rows(4 * AUDIT_GRAIN + 9),
            right in rows(14),
            two_attrs in any::<bool>(),
            strip in any::<bool>(),
            cand_stride in 1usize..7,
        ) {
            let (a, b) = (table_of(&["T", "N"], left), table_of(&["T", "N"], right));
            let mut cfg = BlockingDebugger::new("T", "T");
            if two_attrs {
                cfg = cfg.with_attrs("N", "N");
            }
            if !strip {
                cfg.normalizer = Normalizer::lowercase_only();
            }
            let all = (0..a.n_rows()).flat_map(|i| (0..b.n_rows()).map(move |j| Pair::new(i, j)));
            let c = CandidateSet::from_pairs("c", all.step_by(cand_stride + 1), "test");
            for k in [0, 1, 3, 100] {
                let cfg = cfg.clone().with_top_k(k);
                let expect = bits(&debug_blocking_naive(&cfg, &a, &b, &c).unwrap());
                for threads in [1, 2, 4] {
                    let (got, _) = audit(&cfg, &a, &b, &c, Executor::new(threads)).unwrap();
                    prop_assert_eq!(bits(&got), expect.clone(), "k={} threads={}", k, threads);
                }
            }
        }
    }
}
