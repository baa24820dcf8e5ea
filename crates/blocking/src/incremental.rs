//! An append-only, segmented bit-sliced index for online blocking.
//!
//! The batch join ([`crate::join`]) builds its [`JoinIndex`](crate::JoinIndex)
//! once over a finished right table. An online matching service cannot: its
//! corpus grows one record at a time while requests probe it. An
//! [`IncrementalIndex`] is that same layout kept current under appends, the
//! way a log-structured store keeps sorted runs:
//!
//! - one **vocabulary** (token text → id), grown by
//!   [`insert`](IncrementalIndex::insert) only, and every row's sorted
//!   distinct token ids in one growable [`TokenCorpus`];
//! - **sealed segments**: contiguous row ranges, each the bit-sliced layout
//!   `JoinIndex::build` produces, tiling the rows from 0 in order;
//! - a **tail**: the rows after the last segment, not yet sealed.
//!
//! # Growth
//!
//! `insert` tokenizes the row and appends it to the tail. When the tail
//! holds [`TAIL_ROWS`] rows it is sealed into a segment, and while the two
//! youngest segments are of one size class (`⌊log₂(rows / TAIL_ROWS)⌋`)
//! they are merged by rebuilding over their joint range — Bentley and
//! Saxe's logarithmic method. Size classes strictly decrease from the
//! oldest segment to the youngest, so an index of `n` rows has at most
//! `log₂(n / TAIL_ROWS) + 1` segments and rebuilds each row that many times
//! over its life. A rebuild costs about 0.03 µs a row, so the largest merge
//! an x4 corpus (7 660 rows) can trigger is under a third of a millisecond:
//! it runs inside the `insert` that caused it, with no background thread.
//! [`from_texts`](IncrementalIndex::from_texts) builds a whole corpus as
//! one segment with an empty tail — what the batch join is.
//!
//! # Probe
//!
//! [`probe_into`](IncrementalIndex::probe_into) takes `&self` and plain
//! data only: it normalizes and tokenizes the text into the caller's
//! [`JoinScratch`] and looks the tokens up without interning (a token the
//! vocabulary lacks gets a throwaway id past it: it matches no row and
//! still counts toward `|A|`), runs the bit-sliced count of
//! [`crate::join`] over each segment, scans the tail with
//! [`overlap_size_sorted`] and [`JoinSpec::admits`], and maps the admitted
//! rows to their keys in ascending order. A warmed probe of ASCII text
//! allocates nothing (`tests/join_allocations.rs`).
//!
//! # Why the output is exact
//!
//! Every segment's probe is the nested-loop predicate verbatim over that
//! segment's rows (the argument in [`crate::join`]), the tail scan *is*
//! the nested loop, the ranges partition the rows, and the union is
//! sorted. So the output is a function of the rows alone — not of how
//! they were pushed, sealed and merged — which is what keeps a sharded
//! tier equal to a single service, a recovered service equal to one that
//! never crashed, and a pushed corpus equal to a bulk-built one, bit for
//! bit (`tests/incremental_prop.rs`).

use crate::join::{JoinLayout, JoinScratch, JoinSpec, Segment};
use em_text::intern::{overlap_size_sorted, Interner, TokenCorpus, TokenQuery};
use em_text::Normalizer;

/// Rows the tail holds when it is sealed: one machine word of bit
/// positions, the smallest segment the bit-sliced count is any use on.
/// Measured at x4 (2 000 arrival titles against the pushed title index at
/// each of the 256 corpus sizes 7 404..7 660, so every tail length counts
/// alike; two runs each): 32 rows 6.9 / 6.1 µs a probe, 64 rows 6.4 / 6.5,
/// 128 rows 8.9 / 8.4. A tail row costs a probe about 55 ns (a merge of two
/// seven-token lists) and a segment about 0.65 µs, so halving the tail buys
/// half a segment more for 16 fewer rows scanned — a wash — while doubling
/// it scans 32 more rows to save half a segment.
pub const TAIL_ROWS: usize = 64;

/// Segments merge when they are of one class: sizes within a factor of two.
fn size_class(rows: usize) -> u32 {
    (rows / TAIL_ROWS).max(1).ilog2()
}

/// What an [`IncrementalIndex`] holds, for profiling output and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalLayout {
    /// Each sealed segment, oldest first: the rows it spans and what its
    /// bit-sliced layout holds.
    pub segments: Vec<(usize, JoinLayout)>,
    /// Rows after the last segment, which a probe scans one by one.
    pub tail_rows: usize,
}

/// Segmented bit-sliced index over one text column of a growing record
/// corpus (see the module docs). Rows are addressed by caller-chosen
/// `usize` keys that ascend with insertion — row indices of the
/// append-only table behind it.
#[derive(Debug)]
pub struct IncrementalIndex {
    normalizer: Normalizer,
    vocab: Interner,
    /// Every row's sorted distinct token ids, in insertion order.
    rows: TokenCorpus,
    /// Row → caller key, strictly ascending.
    keys: Vec<usize>,
    /// Sealed row ranges, tiling `0..sealed()` in order.
    segments: Vec<Segment>,
    /// Tokenization buffers of `insert`.
    pending: TokenQuery,
}

impl IncrementalIndex {
    /// An empty index with the paper's blocking normalization
    /// ([`Normalizer::for_blocking`]).
    pub fn new() -> IncrementalIndex {
        IncrementalIndex {
            normalizer: Normalizer::for_blocking(),
            vocab: Interner::new(),
            rows: TokenCorpus::new(),
            keys: Vec::new(),
            segments: Vec::new(),
            pending: TokenQuery::default(),
        }
    }

    /// Indexes a whole column in one go under keys `0, 1, 2, …`: one
    /// segment, empty tail. Probes answer exactly as if the rows had been
    /// [`insert`](IncrementalIndex::insert)ed one by one.
    pub fn from_texts<'a>(texts: impl IntoIterator<Item = Option<&'a str>>) -> IncrementalIndex {
        let mut index = IncrementalIndex::new();
        for text in texts {
            index.push(index.keys.len(), text);
        }
        if !index.is_empty() {
            index.segments.push(Segment::build(&index.rows, 0..index.len()));
        }
        index
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Distinct tokens in the vocabulary. Only `insert` grows it.
    pub fn n_tokens(&self) -> usize {
        self.vocab.len()
    }

    /// Rows covered by sealed segments; the tail is `sealed()..len()`.
    fn sealed(&self) -> usize {
        self.segments.last().map_or(0, |s| s.rows.end)
    }

    fn push(&mut self, key: usize, text: Option<&str>) {
        self.pending.intern(&self.normalizer, &mut self.vocab, text);
        self.rows.push_row(self.pending.ids());
        self.keys.push(key);
    }

    /// Indexes `text` under `key`. Keys must ascend: returns `false` (and
    /// leaves the index unchanged) unless `key` is greater than every key
    /// already present — a duplicate is refused.
    pub fn insert(&mut self, key: usize, text: Option<&str>) -> bool {
        if self.keys.last().is_some_and(|&last| key <= last) {
            return false;
        }
        self.push(key, text);
        if self.len() - self.sealed() == TAIL_ROWS {
            // Seal the tail, taking in every younger segment the logarithmic
            // method would merge it with: one rebuild over the joint range
            // instead of one per merge.
            let mut start = self.sealed();
            while let Some(last) = self.segments.last() {
                if size_class(last.rows.len()) != size_class(self.len() - start) {
                    break;
                }
                start = last.rows.start;
                self.segments.pop();
            }
            self.segments.push(Segment::build(&self.rows, start..self.len()));
        }
        true
    }

    /// Collects into `out` (ascending) the keys of exactly the rows the
    /// nested-loop scan admits for `text` under `spec`: rows sharing at
    /// least one token with it whose intersection size satisfies
    /// [`JoinSpec::admits`]. `None` and token-less text admit nothing.
    /// Reads `self` only; `out` and `scratch` are caller-owned so a warmed
    /// probe loop allocates nothing.
    pub fn probe_into(
        &self,
        text: Option<&str>,
        spec: &JoinSpec,
        scratch: &mut JoinScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        // The segment probes borrow the whole scratch: lend them the query
        // and the row list by taking both out for the duration.
        let mut query = std::mem::take(&mut scratch.query);
        let mut rows = std::mem::take(&mut scratch.rows);
        query.look_up(&self.normalizer, &self.vocab, text);
        let ids = query.ids();
        rows.clear();
        if !ids.is_empty() {
            for segment in &self.segments {
                segment.probe_append(
                    ids,
                    std::slice::from_ref(spec),
                    scratch,
                    std::slice::from_mut(&mut rows),
                );
            }
            let tail = self.sealed()..self.len();
            scratch.counters.tail_scanned += tail.len() as u64;
            for j in tail {
                let row = self.rows.row(j);
                let inter = overlap_size_sorted(ids, row);
                if inter > 0 && spec.admits(inter, ids.len(), row.len()) {
                    rows.push(j as u32);
                }
            }
            // Segments ascend and so does the tail; inside a segment rows
            // come out in position order. Keys ascend with rows.
            rows.sort_unstable();
            out.extend(rows.iter().map(|&j| self.keys[j as usize]));
        }
        scratch.query = query;
        scratch.rows = rows;
    }

    /// Segments, rows per segment, tail rows and each segment's
    /// dense/sparse split.
    pub fn layout(&self) -> IncrementalLayout {
        IncrementalLayout {
            segments: self.segments.iter().map(|s| (s.rows.len(), s.layout())).collect(),
            tail_rows: self.len() - self.sealed(),
        }
    }
}

impl Default for IncrementalIndex {
    fn default() -> Self {
        IncrementalIndex::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockers::SetMeasure;

    fn sample() -> IncrementalIndex {
        let mut idx = IncrementalIndex::new();
        idx.insert(0, Some("Development of Corn Fungicide Guidelines"));
        idx.insert(1, Some("Swamp Dodder Applied Ecology and Management"));
        idx.insert(2, Some("Lab Supplies"));
        idx.insert(3, None);
        idx
    }

    fn probe(idx: &IncrementalIndex, text: Option<&str>, spec: JoinSpec) -> Vec<usize> {
        let mut out = Vec::new();
        idx.probe_into(text, &spec, &mut JoinScratch::new(), &mut out);
        out
    }

    #[test]
    fn overlap_counts_distinct_shared_tokens() {
        let idx = sample();
        let text = Some("corn fungicide guidelines corn");
        assert_eq!(probe(&idx, text, JoinSpec::overlap(3)), vec![0]);
        assert!(probe(&idx, text, JoinSpec::overlap(4)).is_empty());
        // Normalization lowercases: case differences do not matter.
        assert_eq!(probe(&idx, Some("LAB SUPPLIES"), JoinSpec::overlap(2)), vec![2]);
    }

    #[test]
    fn keys_must_ascend_and_duplicates_are_refused() {
        let mut idx = sample();
        assert!(!idx.insert(2, Some("Something Else")));
        assert!(!idx.insert(3, Some("Something Else")));
        assert_eq!(idx.len(), 4);
        assert!(probe(&idx, Some("something else"), JoinSpec::overlap(1)).is_empty());
        // Keys need not be dense.
        assert!(idx.insert(9, Some("Something Else")));
        assert_eq!(probe(&idx, Some("something else"), JoinSpec::overlap(2)), vec![9]);
    }

    #[test]
    fn null_and_token_less_text_never_match() {
        let idx = sample();
        for k in 0..3 {
            assert!(!probe(&idx, Some("anything at all"), JoinSpec::overlap(k)).contains(&3));
            assert!(probe(&idx, None, JoinSpec::overlap(k)).is_empty());
            assert!(probe(&idx, Some(" -- "), JoinSpec::overlap(k)).is_empty());
        }
        let oc = JoinSpec::set_sim(SetMeasure::OverlapCoefficient, 0.1);
        assert!(probe(&idx, Some("anything"), oc).is_empty());
    }

    #[test]
    fn set_sim_and_union_follow_the_measure() {
        let idx = sample();
        // "lab supplies" vs "Lab Supplies": inter 2, min 2 → oc = 1.0.
        let oc = JoinSpec::set_sim(SetMeasure::OverlapCoefficient, 0.7);
        assert_eq!(probe(&idx, Some("lab supplies"), oc), vec![2]);
        let jaccard = JoinSpec::set_sim(SetMeasure::Jaccard, 0.99);
        assert_eq!(probe(&idx, Some("supplies lab"), jaccard), vec![2]);
        // A word the vocabulary lacks still counts toward |A|: 2/3 < 0.99.
        assert!(probe(&idx, Some("supplies lab nowhere"), jaccard).is_empty());
        let union = JoinSpec::union(3, SetMeasure::OverlapCoefficient, 0.7);
        let text = Some("corn fungicide lab supplies development");
        assert_eq!(probe(&idx, text, union), vec![0, 2]);
    }

    #[test]
    fn tail_seals_at_tail_rows_and_segments_merge_by_size_class() {
        let mut idx = IncrementalIndex::new();
        let shape = |idx: &IncrementalIndex| {
            let layout = idx.layout();
            (layout.segments.iter().map(|s| s.0).collect::<Vec<_>>(), layout.tail_rows)
        };
        for j in 0..TAIL_ROWS - 1 {
            idx.insert(j, Some("corn lab"));
        }
        assert_eq!(shape(&idx), (vec![], TAIL_ROWS - 1));
        idx.insert(TAIL_ROWS - 1, Some("corn lab"));
        assert_eq!(shape(&idx), (vec![TAIL_ROWS], 0));
        for j in TAIL_ROWS..7 * TAIL_ROWS + 5 {
            idx.insert(j, Some("corn lab"));
        }
        // Seven seals: a binary counter at 0b111.
        assert_eq!(shape(&idx), (vec![4 * TAIL_ROWS, 2 * TAIL_ROWS, TAIL_ROWS], 5));
        for j in 7 * TAIL_ROWS + 5..8 * TAIL_ROWS {
            idx.insert(j, Some("corn lab"));
        }
        assert_eq!(shape(&idx), (vec![8 * TAIL_ROWS], 0));
        // A bulk build is one segment whatever its size, and later seals
        // merge into it once they reach its class.
        let mut bulk = IncrementalIndex::from_texts((0..3 * TAIL_ROWS + 1).map(|_| Some("corn")));
        assert_eq!(shape(&bulk), (vec![3 * TAIL_ROWS + 1], 0));
        for j in 0..2 * TAIL_ROWS {
            bulk.insert(bulk.len(), Some("lab"));
            assert_eq!(bulk.len(), 3 * TAIL_ROWS + 2 + j);
        }
        assert_eq!(shape(&bulk), (vec![5 * TAIL_ROWS + 1], 0));
        assert_eq!(shape(&IncrementalIndex::from_texts(None)), (vec![], 0));
    }

    #[test]
    fn scratch_reuse_is_probe_independent() {
        let idx = sample();
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        // A big probe warms the buffers; a later unrelated probe must not
        // see stale counts, tokens or rows.
        let big = Some("corn fungicide guidelines development of");
        idx.probe_into(big, &JoinSpec::overlap(1), &mut scratch, &mut out);
        assert!(!out.is_empty());
        idx.probe_into(Some("swamp dodder"), &JoinSpec::overlap(2), &mut scratch, &mut out);
        assert_eq!(out, vec![1]);
        idx.probe_into(None, &JoinSpec::overlap(1), &mut scratch, &mut out);
        assert!(out.is_empty());
    }
}
