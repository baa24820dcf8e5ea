//! Batch set-similarity join: the corpus-scale engine behind the token
//! blockers, the blocking debugger and the fused match stream.
//!
//! A probe answers, for one left row's token set, which right rows the
//! unfiltered nested-loop scan admits under a [`JoinSpec`]. It does so with
//! a **bit-sliced count**: 64 right rows are counted per machine word.
//!
//! # Layout
//!
//! [`JoinIndex::build`] orders the right rows that have tokens by
//! (token count, row index). A row's rank in that order is its **bit
//! position**, so the rows of one token count — a *size run* — are one
//! contiguous range of positions. Every token is then stored one of two
//! ways, by a fixed rule on its document frequency (`DENSE_DF_RATIO`):
//!
//! - a **dense** token (df ≥ positions / 64) is a bitset over the positions,
//!   bit `p` set when the row at `p` contains it;
//! - a **sparse** token is the plain list of the positions containing it.
//!
//! The right corpus rides along as the [`TokenCorpus`] the positions were
//! derived from.
//!
//! # Probe
//!
//! A probe splits the query's tokens by that rule. Each sparse token's
//! list is walked into a per-position count in the [`JoinScratch`] (plus
//! one bit per touched position). The dense tokens are *added*, not
//! walked: for a block of words, each dense bitset is added into
//! ⌈log₂(d+1)⌉ *slice* words — slice `s` holds bit `s` of every position's
//! running count — by a ripple-carry add, two word operations per slice
//! for 64 rows at once.
//!
//! Then, per size run (`la` query tokens, `lb` row tokens, `lq` query
//! tokens that occur in the right corpus at all):
//!
//! 1. `JoinSpec::min_admitted` finds `t`, the smallest intersection size
//!    in `1..=min(lq, lb)` that [`JoinSpec::admits`]. None means no row of
//!    that size can be admitted — the **length filter** — and the run's
//!    words are never touched.
//! 2. A bit-sliced compare extracts the positions whose dense count is
//!    `≥ t`; the run's sparse-touched positions are or-ed in.
//! 3. Each extracted position's **exact** intersection size is read back —
//!    its bit of every slice plus its sparse count — and the unchanged
//!    `admits` predicate decides, per spec.
//!
//! # Why the output is exact
//!
//! `admits` is monotone nondecreasing in the intersection size, so a row
//! is admitted iff its intersection is `≥ t`. A row with intersection
//! `≥ t` either has dense count `≥ t` (step 2 extracts it) or shares a
//! sparse token (it is sparse-touched): the extracted set contains every
//! admissible row. Every extracted row's count is its exact intersection
//! with the query — all dense and all sparse query tokens were counted,
//! nothing is bounded or estimated — so step 3 is the nested-loop
//! predicate verbatim, float boundaries included (pinned by
//! `tests/join_prop.rs`). With several specs the smallest `t` over specs
//! extracts a superset for each, and each spec's own `admits` filters it.
//!
//! # Why there is no prefix filter
//!
//! The previous probe walked postings rarest token first and stopped
//! admitting new rows once too few query tokens remained. Award titles
//! give that filter nothing to hold on to: at x16 (30 640 right rows) 248
//! of the 1 067 title words have df ≥ n/64 and carry all but 3 878 of the
//! ~196 k postings, so every query's "rare" prefix is still frequent. One
//! pass over the 21 376 left rows visited 106 M postings and touched
//! 68.6 M rows to admit 0.35 M (a both-sided prefix-filter prototype still
//! touched 58.6 M). Counting those same frequent tokens 64 rows per word
//! examines 0.43 M rows instead, about five times faster on one thread.
//!
//! Probes reuse a [`JoinScratch`]; a warmed probe loop performs no heap
//! allocation (counted by `tests/join_allocations.rs`).
//!
//! Table-scale drivers fan left rows out over
//! [`em_parallel::Executor::map_indexed_with`] — scratch per worker,
//! output a pure function of the row index, so candidate sets are
//! bit-identical at any thread count. [`join_stats`] is the streaming
//! variant for x64–x256 scale benchmarking: it folds per-row results into
//! counts and an order-chained checksum over **fixed-size** row chunks
//! ([`JOIN_CHUNK`], independent of the thread count), never materializing
//! the candidate set.

use crate::blockers::SetMeasure;
use em_parallel::Executor;
use em_text::intern::{TokenCorpus, TokenQuery};
use std::ops::Range;

/// Minimum left rows per probing thread in the table-scale drivers.
const JOIN_GRAIN: usize = 64;

/// The predicate(s) a join admits pairs under. Mirrors the batch blockers
/// bit for bit: the overlap arm compares integer counts, the set-similarity
/// arm evaluates the identical [`SetMeasure::score`] f64 expression.
#[derive(Debug, Clone, Copy)]
pub struct JoinSpec {
    /// Admit pairs sharing at least `k` distinct tokens.
    overlap_k: Option<usize>,
    /// Admit pairs whose set-similarity reaches the threshold.
    set_sim: Option<(SetMeasure, f64)>,
}

impl JoinSpec {
    /// Overlap-`k` predicate ([`crate::OverlapBlocker`] semantics).
    pub fn overlap(k: usize) -> JoinSpec {
        JoinSpec { overlap_k: Some(k), set_sim: None }
    }

    /// Set-similarity predicate ([`crate::SetSimBlocker`] semantics).
    pub fn set_sim(measure: SetMeasure, threshold: f64) -> JoinSpec {
        JoinSpec { overlap_k: None, set_sim: Some((measure, threshold)) }
    }

    /// Union predicate: overlap-`k` **or** set-similarity — one postings
    /// walk for a `C2 ∪ C3`-style consolidated plan.
    pub fn union(k: usize, measure: SetMeasure, threshold: f64) -> JoinSpec {
        JoinSpec { overlap_k: Some(k), set_sim: Some((measure, threshold)) }
    }

    /// True when a pair with `inter` shared tokens (of `la` query / `lb`
    /// row tokens) satisfies at least one predicate. This is the *exact*
    /// final filter. Both predicates are monotone nondecreasing in `inter`
    /// (an integer compare; a correctly rounded quotient whose numerator
    /// grows while its denominator does not), which is what
    /// [`JoinSpec::min_admitted`] searches on.
    pub fn admits(&self, inter: usize, la: usize, lb: usize) -> bool {
        if let Some(k) = self.overlap_k {
            if inter >= k {
                return true;
            }
        }
        if let Some((measure, threshold)) = self.set_sim {
            if measure.score(inter, la, lb) >= threshold {
                return true;
            }
        }
        false
    }

    /// The smallest intersection size in `1..=cap` that [`JoinSpec::admits`]
    /// for a `la`-token query and a `lb`-token row, or `None` when not even
    /// `cap` is admitted. A pair is admitted iff its intersection reaches
    /// this: `admits` is monotone in `inter`, so the first admitted size is
    /// found by bisection and every larger one is admitted too. Zero is
    /// never returned — rows sharing no token are not join output.
    fn min_admitted(&self, la: usize, lb: usize, cap: usize) -> Option<usize> {
        if cap == 0 || !self.admits(cap, la, lb) {
            return None;
        }
        // Invariant: `admits(hi)`, and nothing below `lo` is admitted.
        let (mut lo, mut hi) = (1, cap);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.admits(mid, la, lb) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

/// A token is stored **dense** (a bitset over the bit positions) when
/// `df * DENSE_DF_RATIO >= positions`, else **sparse** (a list of `u32`
/// positions). 64 is the memory-parity point against the 8-byte
/// `(size, row)` postings this layout replaced: a bitset is `positions / 8`
/// bytes, those postings were `8 * df`, equal at `df = positions / 64`. So
/// the index is never larger than the postings were, and a dense token
/// costs a probe `positions / 64` word adds where walking it cost at least
/// as many posting visits.
const DENSE_DF_RATIO: usize = 64;

/// Marks a token without a dense bitset in [`JoinIndex::dense_slot`].
const NOT_DENSE: u32 = u32::MAX;

/// Words a probe adds and compares at a time: the slices of one block
/// (`width * BLOCK` words, 2 KiB for counts up to 15) stay in L1 however
/// large the index is, and a block is long enough that the per-token
/// set-up of an add is small beside its words.
const BLOCK: usize = 64;

/// Slice words a [`JoinScratch`] holds: an intersection size is a `u32`.
const MAX_SLICES: usize = u32::BITS as usize;

/// The right rows of one token count: bit positions `start..end`.
#[derive(Debug, Clone, Copy)]
struct SizeRun {
    /// Tokens per row (≥ 1: rows without tokens have no position).
    size: u32,
    start: u32,
    end: u32,
}

/// The bit-sliced layout (see the module docs) over one contiguous range
/// of a [`TokenCorpus`]'s rows. It borrows nothing: whoever holds the corpus
/// — a [`JoinIndex`] its one segment, the online
/// [`IncrementalIndex`](crate::IncrementalIndex) one per sealed range —
/// passes queries in that corpus's id space.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// The corpus rows indexed.
    pub(crate) rows: Range<usize>,
    /// Size runs in ascending token count; their position ranges tile
    /// `0..row_at.len()` in order.
    runs: Vec<SizeRun>,
    /// Bit position → corpus row index.
    row_at: Vec<u32>,
    /// Words per bitset: `row_at.len().div_ceil(64)`.
    words: usize,
    /// Token id → index of its bitset in `dense`, or [`NOT_DENSE`].
    dense_slot: Vec<u32>,
    /// Dense bitsets back to back, `words` each.
    dense: Vec<u64>,
    /// Token id → its positions, `sparse[sparse_starts[t]..sparse_starts[t + 1]]`
    /// (empty for dense tokens and for ids no indexed row contains).
    sparse_starts: Vec<u32>,
    sparse: Vec<u32>,
}

/// Bit-sliced index over one tokenized column of the right table, built
/// once per join (see the module docs for the layout). Owns the right
/// [`TokenCorpus`] so callers verify against the rows the index describes.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    /// All of `right`'s rows as one segment.
    segment: Segment,
    /// The indexed corpus; the segment's rows point into it.
    right: TokenCorpus,
}

/// What a [`JoinIndex`] holds, for profiling output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinLayout {
    /// Right rows with at least one token (= bit positions).
    pub positions: usize,
    /// Distinct row token counts.
    pub size_runs: usize,
    /// Tokens stored as bitsets.
    pub dense_tokens: usize,
    /// Set bits over all bitsets: the postings they stand for.
    pub dense_postings: usize,
    /// Tokens stored as position lists.
    pub sparse_tokens: usize,
    /// Entries over all position lists.
    pub sparse_postings: usize,
}

impl JoinIndex {
    /// Collects into `out` (ascending row order) exactly the right rows the
    /// unfiltered scan admits for `query` (sorted distinct token ids of one
    /// left row) under `spec`. `out` and `scratch` are caller-owned so a
    /// warmed-up probe loop allocates nothing.
    pub fn probe_into(
        &self,
        query: &[u32],
        spec: &JoinSpec,
        scratch: &mut JoinScratch,
        out: &mut Vec<u32>,
    ) {
        self.probe_multi_into(
            query,
            std::slice::from_ref(spec),
            scratch,
            std::slice::from_mut(out),
        );
    }

    /// Fused multi-predicate probe: **one** count answers every spec in
    /// `specs`, writing each spec's admissions to the matching entry of
    /// `outs`. Rows are extracted at the smallest threshold any spec has
    /// for their size run, and each spec's own exact predicate filters
    /// them — each `outs[s]` equals a standalone [`JoinIndex::probe_into`]
    /// under `specs[s]` bit for bit. This is how a C2 ∪ C3-style plan
    /// shares the count across blockers.
    pub fn probe_multi_into(
        &self,
        query: &[u32],
        specs: &[JoinSpec],
        scratch: &mut JoinScratch,
        outs: &mut [Vec<u32>],
    ) {
        for out in outs.iter_mut() {
            out.clear();
        }
        self.segment.probe_append(query, specs, scratch, outs);
        for out in outs.iter_mut() {
            out.sort_unstable();
        }
    }
}

impl Segment {
    /// The fused probe of [`JoinIndex::probe_multi_into`] over this
    /// segment's rows: **appends** each spec's admissions to its entry of
    /// `outs`, in position order — the caller clears before and sorts after.
    pub(crate) fn probe_append(
        &self,
        query: &[u32],
        specs: &[JoinSpec],
        scratch: &mut JoinScratch,
        outs: &mut [Vec<u32>],
    ) {
        debug_assert_eq!(specs.len(), outs.len());
        scratch.fit(self);
        let JoinScratch { dense, slices, carry, ge, rare_count, rare_mask, touched, counters, .. } =
            scratch;
        let la = query.len();

        // Split the query: dense tokens are queued for the block adds,
        // sparse lists are counted now. Tokens no right row contains (or
        // that the right corpus never interned) only count toward `la`.
        dense.clear();
        let mut lq = 0;
        for &token in query {
            let token = token as usize;
            let Some(&slot) = self.dense_slot.get(token) else { continue };
            if slot != NOT_DENSE {
                dense.push(slot);
                lq += 1;
                continue;
            }
            let list = &self.sparse
                [self.sparse_starts[token] as usize..self.sparse_starts[token + 1] as usize];
            lq += usize::from(!list.is_empty());
            for &pos in list {
                let pos = pos as usize;
                if rare_count[pos] == 0 {
                    touched.push(pos as u32);
                    rare_mask[pos / 64] |= 1 << (pos % 64);
                }
                rare_count[pos] += 1;
            }
        }
        // The largest dense count is `dense.len()`: its bit length is the
        // number of slices the adds fill.
        let width = (usize::BITS - dense.len().leading_zeros()) as usize;
        counters.slice_widths[width] += 1;

        for run in &self.runs {
            let lb = run.size as usize;
            // Length filter: no intersection this run's rows can reach is
            // admitted by any spec.
            let Some(t) = specs.iter().filter_map(|s| s.min_admitted(la, lb, lq.min(lb))).min()
            else {
                continue;
            };
            let (first, last) = (run.start as usize / 64, (run.end as usize - 1) / 64);
            let first_mask = !0u64 << (run.start % 64);
            let last_mask = !0u64 >> (63 - (run.end - 1) % 64);
            let mut w0 = first;
            while w0 <= last {
                let len = BLOCK.min(last + 1 - w0);
                self.add_block(dense, w0, len, slices, carry);
                count_at_least(&slices[..width], t, &mut ge[..len]);
                for b in 0..len {
                    let w = w0 + b;
                    let rare = rare_mask[w];
                    let mut hits = ge[b] | rare;
                    // A word on a run boundary also holds the neighbouring
                    // run's rows, which have another `lb` and `t`.
                    if w == first {
                        hits &= first_mask;
                    }
                    if w == last {
                        hits &= last_mask;
                    }
                    counters.enumerated += u64::from(hits.count_ones());
                    while hits != 0 {
                        let bit = hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        let pos = w * 64 + bit;
                        // Exact intersection size: this position's bit of
                        // every slice, plus its sparse count.
                        let mut inter =
                            if rare >> bit & 1 == 1 { rare_count[pos] as usize } else { 0 };
                        for (s, slice) in slices[..width].iter().enumerate() {
                            inter += ((slice[b] >> bit & 1) as usize) << s;
                        }
                        for (spec, out) in specs.iter().zip(outs.iter_mut()) {
                            if spec.admits(inter, la, lb) {
                                out.push(self.row_at[pos]);
                            }
                        }
                    }
                }
                w0 += len;
            }
        }

        // Leave the sparse counts zeroed for the next probe.
        for &pos in touched.iter() {
            rare_count[pos as usize] = 0;
            rare_mask[pos as usize / 64] = 0;
        }
        touched.clear();
    }

    /// Adds words `w0..w0 + len` of every queued dense bitset into
    /// `slices`: afterwards bit `i` of `slices[s][b]` is bit `s` of the
    /// number of queued tokens the row at position `(w0 + b) * 64 + i`
    /// contains. `carry` is working space.
    fn add_block(
        &self,
        dense: &[u32],
        w0: usize,
        len: usize,
        slices: &mut [[u64; BLOCK]],
        carry: &mut [u64; BLOCK],
    ) {
        let mut width = 0;
        for (j, &slot) in dense.iter().enumerate() {
            // After this add a count can be `j + 1`: one more slice each
            // time that gains a bit.
            if (j + 1).is_power_of_two() {
                slices[width][..len].fill(0);
                width += 1;
            }
            // Ripple-carry add of a one-bit number into the sliced counts,
            // 64 positions per word: the token's bits enter slice 0, each
            // slice's carry out enters the next. The last carry out is
            // zero: the sum fits `width` bits.
            let bits = &self.dense[slot as usize * self.words + w0..][..len];
            let (lowest, higher) = slices[..width].split_at_mut(1);
            for ((sum, c), &bit) in lowest[0][..len].iter_mut().zip(&mut carry[..len]).zip(bits) {
                let held = *sum;
                *sum = held ^ bit;
                *c = held & bit;
            }
            for slice in higher {
                for (sum, c) in slice[..len].iter_mut().zip(&mut carry[..len]) {
                    let held = *sum;
                    *sum = held ^ *c;
                    *c &= held;
                }
            }
        }
    }

    // ---- index building (cold path) -------------------------------------

    /// Builds the layout over the rows `range` of `corpus`: a counting
    /// sort of the rows by token count assigns the bit positions, one pass
    /// over the tokens counts document frequencies, and a second sets
    /// bitset bits and fills position lists.
    pub(crate) fn build(corpus: &TokenCorpus, range: Range<usize>) -> Segment {
        let start = range.start;
        let rows = || range.clone().map(|j| (j, corpus.row(j)));
        let max_size = rows().map(|(_, ids)| ids.len()).max().unwrap_or(0);
        let mut rows_of_size = vec![0u32; max_size + 1];
        for (_, ids) in rows() {
            rows_of_size[ids.len()] += 1;
        }
        let mut runs = Vec::new();
        // Next free position per size.
        let mut cursor = vec![0u32; max_size + 1];
        let mut positions = 0u32;
        for size in 1..=max_size {
            if rows_of_size[size] > 0 {
                cursor[size] = positions;
                let end = positions + rows_of_size[size];
                runs.push(SizeRun { size: size as u32, start: positions, end });
                positions = end;
            }
        }
        let positions = positions as usize;
        let words = positions.div_ceil(64);

        // A row's ids are sorted: its last is its largest.
        let n_tokens = rows().filter_map(|(_, ids)| ids.last()).max().map_or(0, |&m| m as usize + 1);
        let mut df = vec![0u32; n_tokens];
        let mut row_at = vec![0u32; positions];
        let mut pos_of = vec![0u32; range.len()];
        // Rows arrive in ascending index, so positions ascend with the row
        // inside each run.
        for (j, ids) in rows().filter(|(_, ids)| !ids.is_empty()) {
            let pos = &mut cursor[ids.len()];
            row_at[*pos as usize] = j as u32;
            pos_of[j - start] = *pos;
            *pos += 1;
            for &t in ids {
                df[t as usize] += 1;
            }
        }

        let mut dense_slot = vec![NOT_DENSE; n_tokens];
        // Offsets are u32 like the corpus arena's: a 4G-token corpus is two
        // orders of magnitude past the x256 target.
        let mut sparse_starts = vec![0u32; n_tokens + 1];
        let mut n_dense = 0u32;
        for t in 0..n_tokens {
            let is_dense = df[t] > 0 && df[t] as usize * DENSE_DF_RATIO >= positions;
            if is_dense {
                dense_slot[t] = n_dense;
                n_dense += 1;
            }
            sparse_starts[t + 1] = sparse_starts[t] + if is_dense { 0 } else { df[t] };
        }
        let mut dense = vec![0u64; n_dense as usize * words];
        let mut sparse = vec![0u32; sparse_starts[n_tokens] as usize];
        let mut fill = sparse_starts.clone();
        for (j, ids) in rows() {
            let pos = pos_of[j - start] as usize;
            for &t in ids {
                let t = t as usize;
                if dense_slot[t] == NOT_DENSE {
                    sparse[fill[t] as usize] = pos as u32;
                    fill[t] += 1;
                } else {
                    dense[dense_slot[t] as usize * words + pos / 64] |= 1 << (pos % 64);
                }
            }
        }
        Segment { rows: range, runs, row_at, words, dense_slot, dense, sparse_starts, sparse }
    }

    /// Token and posting counts on each side of the dense rule.
    pub(crate) fn layout(&self) -> JoinLayout {
        JoinLayout {
            positions: self.row_at.len(),
            size_runs: self.runs.len(),
            dense_tokens: self.dense_slot.iter().filter(|&&slot| slot != NOT_DENSE).count(),
            dense_postings: self.dense.iter().map(|w| w.count_ones() as usize).sum(),
            sparse_tokens: self.sparse_starts.windows(2).filter(|r| r[0] < r[1]).count(),
            sparse_postings: self.sparse.len(),
        }
    }
}

impl JoinIndex {
    /// Builds the index over the tokenized right column.
    pub fn build(right: TokenCorpus) -> JoinIndex {
        JoinIndex { segment: Segment::build(&right, 0..right.len()), right }
    }

    /// The indexed right corpus.
    pub fn right(&self) -> &TokenCorpus {
        &self.right
    }

    /// Number of indexed right rows.
    pub fn len(&self) -> usize {
        self.right.len()
    }

    /// True when the indexed corpus has no rows.
    pub fn is_empty(&self) -> bool {
        self.right.is_empty()
    }

    /// Probe without caller-owned buffers (tests/one-shot use).
    pub fn probe(&self, query: &[u32], spec: &JoinSpec) -> Vec<u32> {
        let mut scratch = JoinScratch::for_index(self);
        let mut out = Vec::new();
        self.probe_into(query, spec, &mut scratch, &mut out);
        out
    }

    /// Token and posting counts on each side of the dense rule.
    pub fn layout(&self) -> JoinLayout {
        self.segment.layout()
    }
}

/// Sets bit `i` of `out[b]` when the count sliced across `slices` (bit `i`
/// of `slices[s][b]` is bit `s` of the count) is at least `t`.
fn count_at_least(slices: &[[u64; BLOCK]], t: usize, out: &mut [u64]) {
    out.fill(0);
    if t >> slices.len() != 0 {
        // `t` needs more bits than any count has.
        return;
    }
    // `below` = count < t, decided from the low bit up: a higher bit
    // overrides where count and `t` differ there, and keeps the verdict of
    // the lower bits where they agree.
    for (s, slice) in slices.iter().enumerate() {
        if t >> s & 1 == 1 {
            for (below, bits) in out.iter_mut().zip(slice) {
                *below |= !bits;
            }
        } else {
            for (below, bits) in out.iter_mut().zip(slice) {
                *below &= !bits;
            }
        }
    }
    for below in out.iter_mut() {
        *below = !*below;
    }
}

/// Work one [`JoinScratch`] has done since it was made, for profiling
/// output (never read by a probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCounters {
    /// Rows whose exact intersection size was read and put to `admits`.
    pub enumerated: u64,
    /// `slice_widths[w]` probes counted their dense tokens in `w` slices
    /// (the entries sum to the segment probes run: one a [`JoinIndex`]
    /// probe, one per sealed segment an
    /// [`IncrementalIndex`](crate::IncrementalIndex) probe).
    pub slice_widths: [u64; MAX_SLICES + 1],
    /// Unsealed tail rows an [`IncrementalIndex`](crate::IncrementalIndex)
    /// probe intersected with the query one by one.
    pub tail_scanned: u64,
}

/// Reusable probe buffers for one worker thread. Between probes the sparse
/// counts are all zero, so a scratch serves any index and every segment of
/// one: it grows to the largest it has met.
#[derive(Debug)]
pub struct JoinScratch {
    /// Bitset slots of the current query's dense tokens.
    dense: Vec<u32>,
    /// Sliced dense counts of the current block.
    slices: Vec<[u64; BLOCK]>,
    /// Carries between the slices of one add.
    carry: [u64; BLOCK],
    /// Compare output of the current block.
    ge: [u64; BLOCK],
    /// Per bit position, how many of the query's sparse tokens its row
    /// contains.
    rare_count: Vec<u32>,
    /// Bit per position with a nonzero `rare_count`.
    rare_mask: Vec<u64>,
    /// Positions with a nonzero `rare_count`, in first-touch order.
    touched: Vec<u32>,
    /// The text an [`IncrementalIndex`](crate::IncrementalIndex) probe was
    /// given, tokenized.
    pub(crate) query: TokenQuery,
    /// That probe's admitted rows, before they are mapped to keys.
    pub(crate) rows: Vec<u32>,
    pub(crate) counters: ProbeCounters,
}

impl JoinScratch {
    /// Scratch that has met no index yet; its first probes grow it.
    pub fn new() -> JoinScratch {
        JoinScratch {
            dense: Vec::new(),
            slices: vec![[0; BLOCK]; MAX_SLICES],
            carry: [0; BLOCK],
            ge: [0; BLOCK],
            rare_count: Vec::new(),
            rare_mask: Vec::new(),
            touched: Vec::new(),
            query: TokenQuery::default(),
            rows: Vec::new(),
            counters: ProbeCounters {
                enumerated: 0,
                slice_widths: [0; MAX_SLICES + 1],
                tail_scanned: 0,
            },
        }
    }

    /// Scratch pre-sized for `index`, so its first probe allocates only
    /// for lists that grow with the query.
    pub fn for_index(index: &JoinIndex) -> JoinScratch {
        let mut scratch = JoinScratch::new();
        scratch.fit(&index.segment);
        scratch
    }

    /// Grows the per-position arrays to span `segment`.
    fn fit(&mut self, segment: &Segment) {
        if self.rare_count.len() < segment.row_at.len() {
            self.rare_count.resize(segment.row_at.len(), 0);
            self.rare_mask.resize(segment.words, 0);
        }
    }

    /// Work done by the probes this scratch has served.
    pub fn counters(&self) -> &ProbeCounters {
        &self.counters
    }
}

impl Default for JoinScratch {
    fn default() -> Self {
        JoinScratch::new()
    }
}

/// Fixed row-chunk width of [`join_stats`]'s checksum fold. Independent of
/// the thread count on purpose: per-chunk digests combine in chunk order,
/// so the stats are bit-identical however the chunks land on workers.
pub const JOIN_CHUNK: usize = 1024;

/// Streaming join summary: candidate count, an order-sensitive checksum of
/// the full pair stream, and how many pairs a caller-supplied predicate
/// (e.g. "already in C1") matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStats {
    /// Total admitted pairs.
    pub pairs: u64,
    /// FNV-1a over every admitted `(left, right)` pair, folded per
    /// [`JOIN_CHUNK`] then chained in chunk order.
    pub checksum: u64,
    /// Pairs for which the caller's predicate returned true.
    pub flagged: u64,
}

/// FNV-1a 64-bit offset basis. Seed for both per-chunk digests and the
/// chunk-order chain; public so downstream streaming executors (the fused
/// match path in `em-core`) can reproduce [`join_stats`]-compatible
/// checksums over their own pair streams.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a hash state byte-wise (little-endian).
/// The checksum primitive behind [`JoinStats::checksum`]: chunk digests
/// start from [`FNV_OFFSET`] and absorb `left` then `right` per pair; the
/// final chain starts from [`FNV_OFFSET`] and absorbs digests in chunk
/// order.
pub fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Joins every left row against the index, returning the admitted right
/// rows per left row (ascending within each row). Fans out over left-row
/// chunks with per-worker scratch; the per-row result is a pure function
/// of the row index, so output is bit-identical at any thread count.
pub fn join_pairs(left: &TokenCorpus, index: &JoinIndex, spec: &JoinSpec) -> Vec<Vec<u32>> {
    Executor::current().map_indexed_with(
        left.len(),
        JOIN_GRAIN,
        || JoinScratch::for_index(index),
        |scratch, i| {
            let mut out = Vec::new();
            index.probe_into(left.row(i), spec, scratch, &mut out);
            out
        },
    )
}

/// Fused multi-spec variant of [`join_pairs`]: one postings walk per left
/// row answers every spec, returning `result[spec][left_row] -> admitted
/// right rows`. Each `result[s]` is bit-identical to
/// `join_pairs(left, index, &specs[s])`; the walk cost — the dominant term
/// — is paid once instead of once per spec.
pub fn join_pairs_multi(
    left: &TokenCorpus,
    index: &JoinIndex,
    specs: &[JoinSpec],
) -> Vec<Vec<Vec<u32>>> {
    let per_row: Vec<Vec<Vec<u32>>> = Executor::current().map_indexed_with(
        left.len(),
        JOIN_GRAIN,
        || JoinScratch::for_index(index),
        |scratch, i| {
            let mut outs: Vec<Vec<u32>> = specs.iter().map(|_| Vec::new()).collect();
            index.probe_multi_into(left.row(i), specs, scratch, &mut outs);
            outs
        },
    );
    // Transpose row-major results to spec-major without cloning row lists.
    let mut by_spec: Vec<Vec<Vec<u32>>> =
        specs.iter().map(|_| Vec::with_capacity(per_row.len())).collect();
    for outs in per_row {
        for (s, out) in outs.into_iter().enumerate() {
            by_spec[s].push(out);
        }
    }
    by_spec
}

/// Streaming variant of [`join_pairs`] for corpus-scale benchmarking:
/// counts and checksums the candidate stream without materializing it.
/// `flag(left_row, right_row)` is evaluated on every admitted pair — the
/// scaling harness passes a C1-membership test so `|C1 ∪ join|` falls out
/// of the counts by inclusion–exclusion.
pub fn join_stats<F>(left: &TokenCorpus, index: &JoinIndex, spec: &JoinSpec, flag: F) -> JoinStats
where
    F: Fn(usize, usize) -> bool + Sync,
{
    let n = left.len();
    let chunks = n.div_ceil(JOIN_CHUNK);
    let per_chunk: Vec<(u64, u64, u64)> = Executor::current().map_indexed_with(
        chunks,
        1,
        || (JoinScratch::for_index(index), Vec::new()),
        |(scratch, out), c| {
            let (mut pairs, mut digest, mut flagged) = (0u64, FNV_OFFSET, 0u64);
            for i in c * JOIN_CHUNK..((c + 1) * JOIN_CHUNK).min(n) {
                index.probe_into(left.row(i), spec, scratch, out);
                pairs += out.len() as u64;
                for &j in out.iter() {
                    digest = fnv_u64(fnv_u64(digest, i as u64), u64::from(j));
                    if flag(i, j as usize) {
                        flagged += 1;
                    }
                }
            }
            (pairs, digest, flagged)
        },
    );
    let mut stats = JoinStats { pairs: 0, checksum: FNV_OFFSET, flagged: 0 };
    for (pairs, digest, flagged) in per_chunk {
        stats.pairs += pairs;
        stats.checksum = fnv_u64(stats.checksum, digest);
        stats.flagged += flagged;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_text::intern::{overlap_size_sorted, TokenCache};

    fn corpus(texts: &[&str]) -> TokenCorpus {
        corpus_with(&TokenCache::for_blocking(), texts)
    }

    fn corpus_with(cache: &TokenCache, texts: &[&str]) -> TokenCorpus {
        TokenCorpus::from_column(
            cache,
            texts.iter().map(|t| if t.is_empty() { None } else { Some(*t) }),
        )
    }

    /// Unfiltered reference: scan every right row with the exact predicate.
    fn scan(left: &TokenCorpus, right: &TokenCorpus, spec: &JoinSpec) -> Vec<Vec<u32>> {
        left.iter()
            .map(|(_, q)| {
                right
                    .iter()
                    .filter(|(_, r)| {
                        let inter = overlap_size_sorted(q, r);
                        inter > 0 && spec.admits(inter, q.len(), r.len())
                    })
                    .map(|(j, _)| j as u32)
                    .collect()
            })
            .collect()
    }

    fn sample() -> (TokenCorpus, TokenCorpus) {
        let cache = TokenCache::for_blocking();
        let l = corpus_with(
            &cache,
            &[
                "development of ipm based corn fungicide guidelines",
                "swamp dodder applied ecology and management",
                "lab supplies",
                "",
                "corn",
            ],
        );
        let r = corpus_with(
            &cache,
            &[
                "Development of IPM-Based Corn Fungicide Guidelines",
                "swamp dodder ecology in carrot production",
                "Lab Supplies",
                "unrelated title entirely different words",
                "",
            ],
        );
        (l, r)
    }

    #[test]
    fn overlap_join_matches_scan() {
        let (l, r) = sample();
        let index = JoinIndex::build(r.clone());
        for k in 1..=5 {
            let spec = JoinSpec::overlap(k);
            assert_eq!(join_pairs(&l, &index, &spec), scan(&l, &r, &spec), "k={k}");
        }
    }

    #[test]
    fn set_sim_join_matches_scan() {
        let (l, r) = sample();
        let index = JoinIndex::build(r.clone());
        for measure in [SetMeasure::OverlapCoefficient, SetMeasure::Jaccard] {
            for threshold in [0.01, 0.5, 0.7, 1.0] {
                let spec = JoinSpec::set_sim(measure, threshold);
                assert_eq!(
                    join_pairs(&l, &index, &spec),
                    scan(&l, &r, &spec),
                    "{measure:?} t={threshold}"
                );
            }
        }
    }

    #[test]
    fn union_join_is_union_of_joins() {
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        let u = join_pairs(&l, &index, &JoinSpec::union(3, SetMeasure::OverlapCoefficient, 0.7));
        let a = join_pairs(&l, &index, &JoinSpec::overlap(3));
        let b = join_pairs(&l, &index, &JoinSpec::set_sim(SetMeasure::OverlapCoefficient, 0.7));
        for i in 0..u.len() {
            let mut expect = a[i].clone();
            expect.extend_from_slice(&b[i]);
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(u[i], expect, "row {i}");
        }
    }

    #[test]
    fn multi_spec_join_matches_per_spec_joins() {
        // The fused walk admits under the union of bounds; each output must
        // still equal its standalone join exactly — including specs that
        // admit nothing on their own.
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        let specs = [
            JoinSpec::overlap(3),
            JoinSpec::set_sim(SetMeasure::OverlapCoefficient, 0.7),
            JoinSpec::overlap(100),
        ];
        let fused = join_pairs_multi(&l, &index, &specs);
        assert_eq!(fused.len(), specs.len());
        for (s, spec) in specs.iter().enumerate() {
            assert_eq!(fused[s], join_pairs(&l, &index, spec), "spec {s}");
        }
    }

    #[test]
    fn scratch_reuse_is_probe_independent() {
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        let spec = JoinSpec::overlap(2);
        let mut scratch = JoinScratch::for_index(&index);
        let mut out = Vec::new();
        let mut fresh = Vec::new();
        // Probe every left row twice through one scratch; each result must
        // equal a fresh-scratch probe (no stale epochs or counts).
        for _ in 0..2 {
            for (i, q) in l.iter() {
                index.probe_into(q, &spec, &mut scratch, &mut out);
                index.probe_into(q, &spec, &mut JoinScratch::for_index(&index), &mut fresh);
                assert_eq!(out, fresh, "row {i}");
            }
        }
    }

    #[test]
    fn one_scratch_serves_indexes_of_different_sizes() {
        // A scratch made for the small index meets the large one (more
        // positions than it was sized for) and goes back and forth; every
        // probe must equal a standalone one. The `r*` words are sparse in
        // the large index, so the per-position counts are in play.
        let cache = TokenCache::for_blocking();
        let (l, small) = sample();
        let l = corpus_with(&cache, &["corn guidelines r3", "swamp dodder ecology", "r7 r3 corn"])
            .iter()
            .chain(l.iter())
            .map(|(_, q)| q.to_vec())
            .collect::<Vec<_>>();
        let titles: Vec<String> = (0..300)
            .map(|i| format!("corn {} r{}", ["guidelines", "ecology", "dodder"][i % 3], i % 100))
            .collect();
        let large = corpus_with(&cache, &titles.iter().map(String::as_str).collect::<Vec<_>>());
        let (small, large) = (JoinIndex::build(small), JoinIndex::build(large));
        assert!(small.len() < large.len());
        let spec = JoinSpec::union(2, SetMeasure::Jaccard, 0.5);
        let mut scratch = JoinScratch::for_index(&small);
        let mut out = Vec::new();
        for _ in 0..2 {
            for q in &l {
                for index in [&large, &small, &large] {
                    index.probe_into(q, &spec, &mut scratch, &mut out);
                    assert_eq!(out, index.probe(q, &spec));
                }
            }
        }
    }

    #[test]
    fn a_size_run_longer_than_a_block() {
        // 9 000 three-word rows: one size run of 141 words — two full
        // blocks and a part of one — plus a short run of two-word rows.
        let cache = TokenCache::for_blocking();
        let titles: Vec<String> = (0..9100usize)
            .map(|i| match i % 91 {
                0 => format!("w{} w{}", i % 7, 7 + i % 5),
                _ => format!("w{} w{} w{}", i % 7, 7 + i % 5, 12 + (i / 3) % 11),
            })
            .collect();
        let r = corpus_with(&cache, &titles.iter().map(String::as_str).collect::<Vec<_>>());
        let l = corpus_with(
            &cache,
            &["w0 w7 w12", "w1 w8", "w6 w11 w22 w3", "w2 w2 w9 w13 nowhere", "w5"],
        );
        let index = JoinIndex::build(r.clone());
        assert!(index.segment.runs.iter().any(|run| (run.end - run.start) as usize > 2 * 64 * BLOCK));
        for spec in [
            JoinSpec::overlap(2),
            JoinSpec::overlap(3),
            JoinSpec::set_sim(SetMeasure::Jaccard, 0.5),
            JoinSpec::union(3, SetMeasure::OverlapCoefficient, 0.7),
        ] {
            assert_eq!(join_pairs(&l, &index, &spec), scan(&l, &r, &spec), "{spec:?}");
        }
    }

    #[test]
    fn min_admitted_is_the_brute_force_minimum() {
        // Thresholds on float boundaries: 0.7 * 10 is 7.000000000000001 in
        // f64, 2/3 of 3, 6, 9, 12 lands on an integer exactly.
        let thresholds = [0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.7, 0.75, 1.0];
        let mut specs: Vec<JoinSpec> = (0..=6).map(JoinSpec::overlap).collect();
        for measure in [SetMeasure::OverlapCoefficient, SetMeasure::Jaccard] {
            for threshold in thresholds {
                specs.push(JoinSpec::set_sim(measure, threshold));
                specs.push(JoinSpec::union(3, measure, threshold));
            }
        }
        for spec in &specs {
            for la in 0..=12 {
                for lb in 0..=12 {
                    for cap in 0..=la.min(lb) {
                        let brute = (1..=cap).find(|&t| spec.admits(t, la, lb));
                        assert_eq!(spec.min_admitted(la, lb, cap), brute, "{spec:?} {la} {lb}");
                        // The search is only as good as the monotonicity
                        // it rests on.
                        if let Some(t) = brute {
                            assert!((t..=cap).all(|i| spec.admits(i, la, lb)), "{spec:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn join_is_thread_count_invariant() {
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        let spec = JoinSpec::union(2, SetMeasure::Jaccard, 0.4);
        em_parallel::set_threads(1);
        let one = join_pairs(&l, &index, &spec);
        let stats_one = join_stats(&l, &index, &spec, |_, _| false);
        em_parallel::set_threads(4);
        let four = join_pairs(&l, &index, &spec);
        let stats_four = join_stats(&l, &index, &spec, |_, _| false);
        em_parallel::set_threads(0);
        assert_eq!(one, four);
        assert_eq!(stats_one, stats_four);
    }

    #[test]
    fn stats_agree_with_pairs() {
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        let spec = JoinSpec::union(3, SetMeasure::OverlapCoefficient, 0.7);
        let pairs = join_pairs(&l, &index, &spec);
        let total: u64 = pairs.iter().map(|p| p.len() as u64).sum();
        let stats = join_stats(&l, &index, &spec, |i, _| i == 0);
        assert_eq!(stats.pairs, total);
        assert_eq!(stats.flagged, pairs[0].len() as u64);
        // The checksum is a function of the exact pair stream.
        let mut digest = FNV_OFFSET;
        for (i, js) in pairs.iter().enumerate() {
            for &j in js {
                digest = fnv_u64(fnv_u64(digest, i as u64), u64::from(j));
            }
        }
        assert_eq!(stats.checksum, fnv_u64(FNV_OFFSET, digest), "single chunk chains once");
    }

    #[test]
    fn empty_sides_are_empty_joins() {
        let empty = corpus(&[]);
        let (l, r) = sample();
        let index = JoinIndex::build(r);
        assert!(join_pairs(&empty, &index, &JoinSpec::overlap(1)).is_empty());
        let empty_index = JoinIndex::build(empty);
        assert!(empty_index.is_empty());
        for js in join_pairs(&l, &empty_index, &JoinSpec::overlap(1)) {
            assert!(js.is_empty());
        }
    }

    #[test]
    fn left_only_tokens_are_ignored() {
        // Left tokenized first: its ids exceed anything in the right
        // corpus, exercising the token-table bounds check.
        let cache = TokenCache::for_blocking();
        let l = corpus_with(&cache, &["zig zag zog corn"]);
        let r = corpus_with(&cache, &["corn maze", "zag only here"]);
        let index = JoinIndex::build(r.clone());
        let spec = JoinSpec::overlap(1);
        assert_eq!(join_pairs(&l, &index, &spec), scan(&l, &r, &spec));
    }
}
