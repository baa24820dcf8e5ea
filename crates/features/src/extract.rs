//! Feature-vector extraction: turning candidate pairs into the matrix the
//! matchers consume.
//!
//! This module owns the **cache plans** the one scoring kernel
//! ([`crate::batch`]) scores against, and [`extract_vectors`], the
//! materializing driver over that kernel. Every referenced column is
//! prepared exactly once per extractor, into flat arenas:
//!
//! - a [`SetPlan`] per `(left column, right column, tokenizer, case)` —
//!   sorted distinct interned token ids of every distinct cell string in one
//!   `u32` arena, rows pointing into it by [`Span`] (repeated strings share
//!   a span);
//! - the [`SeqCaches`] — one **global** string-id (`sid`) space across both
//!   tables and every `(left column, right column, case)` plan, with the
//!   decoded chars (and, when a Monge-Elkan feature is live, interned word
//!   ids) of each distinct string in a [`SeqSpace`]; sid equality ⇔
//!   string equality everywhere, so a case-folded plan whose cells lowercase
//!   to themselves shares its sids with its case-sensitive twin;
//! - a [`Scalar`] column pair per numeric/date/boolean attribute pair.
//!
//! Every cache grows one cell at a time through its interner
//! ([`SetPlan::intern`], [`SeqCaches::intern`], [`TypedOp::parse`]). The
//! batch constructors run a whole column through that path and then drop
//! the interner; a growable corpus ([`crate::serve`]) keeps it, appends
//! rows as they are admitted and reads it to recognise an arriving row's
//! strings.
//!
//! All of it is bit-for-bit neutral: the set measures evaluate the
//! `*_counts` expressions `em_text::set` reduces to, the `*_chars` kernels
//! are property-tested equal to the naive reference, typed features apply
//! [`Feature::compute`](crate::Feature::compute)'s own arithmetic to the
//! same parsed scalars, and chunked results join in pair order.

use crate::batch::{BatchExtractor, PullCounts};
use crate::feature::FeatureKind;
use crate::generate::FeatureSet;
use crate::mask::FeatureMask;
use em_blocking::Pair;
use em_parallel::Executor;
use em_table::{Date, Table, TableError, Value};
use em_text::intern;
use em_text::tokenize::AlphanumericTokenizer;
use em_text::{phonetic, seq, FastMap, KernelScratch, PatternMasks, TokenCorpus};
use std::borrow::Cow;

/// Below this many (pair × feature) computations, extraction stays
/// single-threaded — thread setup would dominate.
pub(crate) const PARALLEL_THRESHOLD: usize = 20_000;

/// The set measure an interned feature computes from intersection counts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SetOp {
    Jaccard,
    Cosine,
    OverlapCoeff,
    Dice,
}

impl SetOp {
    /// The measure from `(|A∩B|, |A|, |B|)` counts. The `*_sorted`
    /// functions of `em_text::intern` delegate to the same `*_counts`
    /// functions, so this is the identical f64 expression a sorted-merge
    /// score evaluates — the kernel counts the intersection by stamp
    /// lookups; tokens of an arriving row that the corpus has never
    /// produced only contribute to `|A|`.
    pub(crate) fn score_counts(self, inter: usize, la: usize, lb: usize) -> f64 {
        match self {
            SetOp::Jaccard => intern::jaccard_counts(inter, la, lb),
            SetOp::Cosine => intern::cosine_counts(inter, la, lb),
            SetOp::OverlapCoeff => intern::overlap_coefficient_counts(inter, la, lb),
            SetOp::Dice => intern::dice_counts(inter, la, lb),
        }
    }
}

/// Which feature kinds run on interned ids, and how they tokenize
/// (`true` → 3-grams, `false` → word tokens).
pub(crate) fn set_op(kind: FeatureKind) -> Option<(bool, SetOp)> {
    match kind {
        FeatureKind::JaccardWord => Some((false, SetOp::Jaccard)),
        FeatureKind::CosineWord => Some((false, SetOp::Cosine)),
        FeatureKind::OverlapCoeffWord => Some((false, SetOp::OverlapCoeff)),
        FeatureKind::JaccardQgram3 => Some((true, SetOp::Jaccard)),
        FeatureKind::DiceQgram3 => Some((true, SetOp::Dice)),
        _ => None,
    }
}

/// The character-level measure a sequence feature computes on cached,
/// pre-decoded cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeqOp {
    Exact,
    LevSim,
    Jaro,
    JaroWinkler,
    NeedlemanWunsch,
    SmithWaterman,
    MongeElkanJw,
    MongeElkanSoundex,
}

/// Directed Monge-Elkan over interned word ids — the exact computation of
/// `em_text::set::monge_elkan`, with the inner measure resolved through the
/// call-wide word table instead of re-deriving it from `&str` every call.
/// Same iteration order, same fold, same mean: bit-identical results.
pub(crate) fn monge_elkan_ids(a: &[u32], b: &[u32], inner: &mut impl FnMut(u32, u32) -> f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let total: f64 = a
        .iter()
        .map(|&ta| b.iter().map(|&tb| inner(ta, tb)).fold(f64::NEG_INFINITY, f64::max))
        .sum();
    total / a.len() as f64
}

/// Symmetric mean of both directed scores, mirroring
/// `em_text::set::monge_elkan_sym` (argument order of the second direction
/// included).
pub(crate) fn monge_elkan_sym_ids(a: &[u32], b: &[u32], mut inner: impl FnMut(u32, u32) -> f64) -> f64 {
    (monge_elkan_ids(a, b, &mut inner) + monge_elkan_ids(b, a, &mut inner)) / 2.0
}

/// Monge-Elkan/Jaro-Winkler of one prepared left string against the
/// strings it meets, as a dense word matrix: a row per word slot of the
/// left string, a column per distinct right word met so far.
///
/// Column `y` holds the `n` forward values `JW(x_i, y)` — `y`'s pattern
/// masks built once for all of them — and `max_i JW(y, x_i)`, each
/// `JW(y, x_i)` run against `x_i`'s masks, built once per left string.
/// Those are exactly the values `em_text::set::monge_elkan`'s inner closure
/// returns for the word pair, and the backward maximum is its own
/// `fold(NEG_INFINITY, f64::max)` over the left words in order, hoisted out
/// of the pair: a pull looks its right words' columns up, folds the forward
/// values with the same `f64::max` in the same order and takes the two sums
/// as `monge_elkan` takes them, so the score is bit-equal to the per-pair
/// computation. Rows are word *slots*, not word ids: a repeated word is two
/// rows, a request-local word a row like any other.
///
/// Columns are found through an epoch-stamped array over the corpus word-id
/// space (right strings are corpus strings); the epoch is the scratch's
/// left-row epoch, so preparing another left row kills every column at
/// once. Storage is sized by what a left string meets and is kept.
#[derive(Debug, Default)]
struct WordMatrix {
    /// The left-row epoch the rows were built in (0: never).
    row_epoch: u32,
    /// Pattern masks of the left string's words, slot `i` in lane `i`.
    left_masks: PatternMasks,
    /// Per corpus word id: `(left-row epoch, column)`.
    column_of: Vec<(u32, u32)>,
    /// Column `c` is the `c`-th run of (word slots + 1) values: the forward
    /// values by slot, then the backward maximum.
    values: Vec<f64>,
}

/// The [`WordMatrix`] of each sequence plan, and the buffers one pull of
/// any of them works in.
#[derive(Debug, Default)]
pub(crate) struct WordMatrices {
    by_plan: Vec<WordMatrix>,
    /// Pattern masks of the right word whose column is being built.
    right_masks: PatternMasks,
    /// Per slot, the best forward value over the current pair's columns.
    best: Vec<f64>,
}

impl WordMatrices {
    /// Makes room for `n_plans` sequence plans.
    pub(crate) fn grow(&mut self, n_plans: usize) {
        if self.by_plan.len() < n_plans {
            self.by_plan.resize_with(n_plans, WordMatrix::default);
        }
    }

    /// Kills every column keyed on an epoch before the wrap.
    pub(crate) fn forget_columns(&mut self) {
        for matrix in &mut self.by_plan {
            matrix.column_of.fill((0, 0));
            matrix.row_epoch = 0;
        }
    }

    /// Symmetric Monge-Elkan/Jaro-Winkler of plan `plan`'s left string
    /// `sa`, prepared in left-row epoch `row_epoch`, and the corpus string
    /// `sb`.
    fn score(
        &mut self,
        t: Tiers<'_>,
        (sa, sb): (u32, u32),
        (plan, row_epoch): (usize, u32),
        counts: &mut PullCounts,
        ks: &mut KernelScratch,
    ) -> f64 {
        let WordMatrices { by_plan, right_masks, best } = self;
        let matrix = &mut by_plan[plan];
        let (xs, ys) = (t.word_ids(sa), t.word_ids(sb));
        counts.me_pulls += 1;
        if xs.is_empty() || ys.is_empty() {
            // Both directed scores are 1 for two wordless strings, 0 for one.
            return if xs.is_empty() && ys.is_empty() { 1.0 } else { 0.0 };
        }
        if matrix.row_epoch != row_epoch {
            matrix.row_epoch = row_epoch;
            matrix.values.clear();
            matrix.left_masks.build_each(xs.iter().map(|&x| t.word_chars(x)));
        }
        let n_words = t.corpus.word_sdx.len();
        if matrix.column_of.len() < n_words {
            // The first pull, or the corpus has produced new words since.
            matrix.column_of.resize(n_words, (0, 0));
        }
        best.clear();
        best.resize(xs.len(), f64::NEG_INFINITY);
        // `monge_elkan(ys, xs)`'s sum, over the hoisted maxima.
        let backward: f64 = ys
            .iter()
            .map(|&y| {
                let column = matrix.column(t, xs, y, right_masks, counts, ks);
                for (best, &forward) in best.iter_mut().zip(column) {
                    *best = best.max(forward);
                }
                column[xs.len()]
            })
            .sum();
        let forward: f64 = best.iter().sum();
        (forward / xs.len() as f64 + backward / ys.len() as f64) / 2.0
    }
}

impl WordMatrix {
    /// The column of corpus word `y` against the left words `xs`, built if
    /// this left string has not met `y` yet.
    fn column(
        &mut self,
        t: Tiers<'_>,
        xs: &[u32],
        y: u32,
        right_masks: &mut PatternMasks,
        counts: &mut PullCounts,
        ks: &mut KernelScratch,
    ) -> &[f64] {
        let stride = xs.len() + 1;
        let (epoch, mut column) = self.column_of[y as usize];
        if epoch != self.row_epoch {
            column = offset(self.values.len() / stride);
            self.column_of[y as usize] = (self.row_epoch, column);
            let cy = t.word_chars(y);
            right_masks.build(cy);
            let mut backward = f64::NEG_INFINITY;
            for (slot, &x) in xs.iter().enumerate() {
                let cx = t.word_chars(x);
                self.values.push(seq::jaro_winkler_chars_masked(ks, cx, cy, (right_masks, 0)));
                let back = seq::jaro_winkler_chars_masked(ks, cy, cx, (&self.left_masks, slot));
                backward = backward.max(back);
            }
            self.values.push(backward);
            counts.me_columns += 1;
            counts.me_cells += 2 * xs.len() as u64;
        }
        &self.values[column as usize * stride..][..stride]
    }
}

impl SeqOp {
    /// The measure on the two strings `sa` and `sb` name in `t`: `sa` the
    /// prepared left row's, `sb` a corpus row's. [`SeqOp::Exact`] never
    /// gets here — it is the sid comparison itself.
    pub(crate) fn score(
        self,
        t: Tiers<'_>,
        (sa, sb): (u32, u32),
        (words, plan, row_epoch): (&mut WordMatrices, usize, u32),
        counts: &mut PullCounts,
        ks: &mut KernelScratch,
    ) -> f64 {
        use SeqOp::*;
        let (ca, cb) = (t.chars(sa), t.chars(sb));
        match self {
            // Cells are interned: equal string ids ⇔ equal strings.
            Exact => f64::from(sa == sb),
            LevSim => seq::levenshtein_sim_chars(ks, ca, cb),
            Jaro => seq::jaro_chars(ks, ca, cb),
            JaroWinkler => seq::jaro_winkler_chars(ks, ca, cb),
            NeedlemanWunsch => seq::needleman_wunsch_sim_chars(ks, ca, cb),
            SmithWaterman => seq::smith_waterman_sim_chars(ks, ca, cb),
            // Monge-Elkan runs on interned word ids: the inner
            // Jaro-Winkler values live in the left string's word matrix,
            // the inner Soundex compares codes precomputed once per
            // distinct word.
            MongeElkanJw => words.score(t, (sa, sb), (plan, row_epoch), counts, ks),
            MongeElkanSoundex => {
                // Exactly `phonetic::soundex_sim`: 1.0 iff both words have
                // a code and the codes agree.
                let inner = |x: u32, y: u32| match (t.word_sdx(x), t.word_sdx(y)) {
                    (Some(cx), Some(cy)) if cx == cy => 1.0,
                    _ => 0.0,
                };
                monge_elkan_sym_ids(t.word_ids(sa), t.word_ids(sb), inner)
            }
        }
    }

    /// True for the measures that read a cell's word ids.
    pub(crate) fn needs_words(self) -> bool {
        matches!(self, SeqOp::MongeElkanJw | SeqOp::MongeElkanSoundex)
    }
}

/// Which feature kinds run on the normalization cache.
pub(crate) fn seq_op(kind: FeatureKind) -> Option<SeqOp> {
    match kind {
        FeatureKind::ExactStr => Some(SeqOp::Exact),
        FeatureKind::LevSim => Some(SeqOp::LevSim),
        FeatureKind::Jaro => Some(SeqOp::Jaro),
        FeatureKind::JaroWinkler => Some(SeqOp::JaroWinkler),
        FeatureKind::NeedlemanWunsch => Some(SeqOp::NeedlemanWunsch),
        FeatureKind::SmithWaterman => Some(SeqOp::SmithWaterman),
        FeatureKind::MongeElkanJw => Some(SeqOp::MongeElkanJw),
        FeatureKind::MongeElkanSoundex => Some(SeqOp::MongeElkanSoundex),
        _ => None,
    }
}

/// Arena offset as `u32` (every arena here is indexed by `u32`).
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("cache arena exceeds u32::MAX entries")
}

/// The id of the next string or word of a space holding `len`: below
/// [`LOCAL_BIT`], which tells the two tiers of ids apart.
fn next_id(len: usize) -> u32 {
    let id = offset(len);
    assert!(id < LOCAL_BIT, "more than 2^31 distinct strings or words");
    id
}

/// Variable-length rows in one flat vector — row `i` is
/// `items[starts[i]..starts[i + 1]]` — instead of one heap slice per row.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Arena<T> {
    fn default() -> Arena<T> {
        Arena { starts: vec![0], items: Vec::new() }
    }
}

impl<T> Arena<T> {
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    pub(crate) fn row(&self, i: u32) -> &[T] {
        let i = i as usize;
        &self.items[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Closes the row the items pushed since the last call make up.
    fn end_row(&mut self) {
        self.starts.push(offset(self.items.len()));
    }

    fn clear(&mut self) {
        self.starts.truncate(1);
        self.items.clear();
    }
}

/// The strings of one id space, indexed by sid — decoded chars and interned
/// word ids of every distinct normalized string — and its words, indexed by
/// word id: chars decoded once for the Monge-Elkan inner Jaro-Winkler,
/// Soundex code computed once for the inner phonetic measure. The corpus
/// caches hold one; a scratch holds another for what only the arriving row
/// has produced (see [`Tiers`]).
#[derive(Debug, Default)]
pub(crate) struct SeqSpace {
    chars: Arena<char>,
    /// Word ids per string in token order (empty rows unless a Monge-Elkan
    /// feature is live).
    word_ids: Arena<u32>,
    word_chars: Arena<char>,
    word_sdx: Vec<Option<[u8; 4]>>,
}

impl SeqSpace {
    /// Number of distinct strings.
    pub(crate) fn len(&self) -> usize {
        self.chars.len()
    }

    /// Decoded chars of string `sid`.
    pub(crate) fn chars(&self, sid: u32) -> &[char] {
        self.chars.row(sid)
    }

    /// Appends string `s`, its words resolved by `word_id` (which may
    /// [`push_word`](SeqSpace::push_word) new ones), and returns its sid.
    pub(crate) fn push_string(
        &mut self,
        s: &str,
        with_words: bool,
        mut word_id: impl FnMut(&mut SeqSpace, &str) -> u32,
    ) -> u32 {
        let sid = next_id(self.len());
        self.chars.items.extend(s.chars());
        self.chars.end_row();
        if with_words {
            AlphanumericTokenizer.for_each_token(s, |w| {
                let id = word_id(self, w);
                self.word_ids.items.push(id);
            });
        }
        self.word_ids.end_row();
        sid
    }

    /// Appends word `w` and returns its id.
    pub(crate) fn push_word(&mut self, w: &str) -> u32 {
        let id = next_id(self.word_sdx.len());
        self.word_chars.items.extend(w.chars());
        self.word_chars.end_row();
        self.word_sdx.push(phonetic::soundex_code(w));
        id
    }

    /// Forgets every string and word, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.chars.clear();
        self.word_ids.clear();
        self.word_chars.clear();
        self.word_sdx.clear();
    }
}

/// Sids and word ids with this bit set index the request-local tier: what
/// an arriving row holds that the corpus has never produced. A local id
/// equals no corpus id, which is exactly what an unknown string or word
/// must do.
pub(crate) const LOCAL_BIT: u32 = 1 << 31;

/// The two id tiers a scoring call can name: the corpus caches' own, and
/// the prepared arriving row's (empty when the left row is a table row).
#[derive(Clone, Copy)]
pub(crate) struct Tiers<'a> {
    pub(crate) corpus: &'a SeqSpace,
    pub(crate) local: &'a SeqSpace,
}

impl<'a> Tiers<'a> {
    #[inline]
    fn of(self, id: u32) -> (&'a SeqSpace, u32) {
        if id & LOCAL_BIT != 0 {
            (self.local, id ^ LOCAL_BIT)
        } else {
            (self.corpus, id)
        }
    }

    /// Decoded chars of string `sid`.
    #[inline]
    pub(crate) fn chars(self, sid: u32) -> &'a [char] {
        let (space, i) = self.of(sid);
        space.chars.row(i)
    }

    fn word_ids(self, sid: u32) -> &'a [u32] {
        let (space, i) = self.of(sid);
        space.word_ids.row(i)
    }

    fn word_chars(self, word: u32) -> &'a [char] {
        let (space, i) = self.of(word);
        space.word_chars.row(i)
    }

    fn word_sdx(self, word: u32) -> Option<[u8; 4]> {
        let (space, i) = self.of(word);
        space.word_sdx[i as usize]
    }
}

/// The string a string measure sees for one non-null cell: its rendering,
/// lowercased when the plan asks. Borrows the cell's own text whenever that
/// is already the answer — `str::to_lowercase` maps an ASCII string exactly
/// as `to_ascii_lowercase` does, and one without uppercase to itself — so
/// most cells cost no allocation.
pub(crate) fn normalized(v: &Value, lowercase: bool) -> Cow<'_, str> {
    let s: Cow<'_, str> = match v.as_str() {
        Some(s) => Cow::Borrowed(s),
        None => Cow::Owned(v.render()),
    };
    if !lowercase {
        return s;
    }
    if s.is_ascii() {
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(s.to_ascii_lowercase())
        } else {
            s
        }
    } else {
        // Allow-listed cache-build site: runs once per row, not per pair.
        #[allow(clippy::disallowed_methods)]
        let lower = s.to_lowercase();
        Cow::Owned(lower)
    }
}

/// Marks a null (or never-referenced) row in a sid column.
pub(crate) const NULL_SID: u32 = u32::MAX;

/// One normalization plan's sid columns; [`NULL_SID`] marks a null cell
/// (feature value `NaN`, as always) or a row no pair references.
pub(crate) struct SeqColumns {
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
}

/// The sequence-measure caches: per-plan sid columns over one global
/// [`SeqSpace`].
pub(crate) struct SeqCaches {
    pub(crate) columns: Vec<SeqColumns>,
    pub(crate) space: SeqSpace,
    /// Whether strings carry word ids (a Monge-Elkan feature is live).
    pub(crate) with_words: bool,
}

/// Which strings and words of a [`SeqCaches`] have ids. One spans both
/// tables and every plan, so sids are global.
#[derive(Default)]
pub(crate) struct SeqInterner {
    pub(crate) strings: FastMap<String, u32>,
    pub(crate) words: FastMap<String, u32>,
}

/// Key of a normalization plan: `(left column, right column, lowercase)`.
pub(crate) type SeqKey = (usize, usize, bool);

impl SeqCaches {
    /// Caches for `n_plans` plans over no rows yet.
    pub(crate) fn empty(n_plans: usize, with_words: bool) -> SeqCaches {
        let columns = (0..n_plans).map(|_| SeqColumns { left: Vec::new(), right: Vec::new() });
        SeqCaches { columns: columns.collect(), space: SeqSpace::default(), with_words }
    }

    /// The sid of cell `v` ([`NULL_SID`] for a null), interning its
    /// normalized string if it is new.
    pub(crate) fn intern(&mut self, v: &Value, lowercase: bool, known: &mut SeqInterner) -> u32 {
        if v.is_null() {
            return NULL_SID;
        }
        let s = normalized(v, lowercase);
        if let Some(&sid) = known.strings.get(s.as_ref()) {
            return sid;
        }
        let words = &mut known.words;
        let sid = self.space.push_string(&s, self.with_words, |space, w| match words.get(w) {
            Some(&id) => id,
            None => {
                let id = space.push_word(w);
                words.insert(w.to_string(), id);
                id
            }
        });
        known.strings.insert(s.into_owned(), sid);
        sid
    }
}

/// Interns sids for the sequence plans in `keys`. One interner spans both
/// tables and every plan, so the pass is sequential by construction — it
/// is one set-up leg, however many plans it serves.
pub(crate) fn build_seq_caches(
    keys: &[SeqKey],
    with_words: bool,
    (a, b): (&Table, &Table),
    (used_left, used_right): (&[bool], &[bool]),
) -> SeqCaches {
    let mut caches = SeqCaches::empty(keys.len(), with_words);
    let mut known = SeqInterner::default();
    for (c, &(lcol, rcol, lowercase)) in keys.iter().enumerate() {
        // Rows no candidate pair references are never read in the hot
        // loop, so they are not normalized at all.
        let mut column = |t: &Table, col: usize, used: &[bool]| -> Vec<u32> {
            let rows = t.rows().iter().zip(used);
            rows.map(|(row, &used)| {
                if used {
                    caches.intern(&row[col], lowercase, &mut known)
                } else {
                    NULL_SID
                }
            })
            .collect()
        };
        let (left, right) = (column(a, lcol, used_left), column(b, rcol, used_right));
        caches.columns[c] = SeqColumns { left, right };
    }
    caches
}

/// One row's slice of a [`SetPlan`] arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// A null cell (feature value `NaN`) or a row no pair references.
    const NULL: Span = Span { start: 0, len: u32::MAX };

    /// `|ids|`, or `None` for a null cell.
    #[inline]
    pub(crate) fn len(self) -> Option<usize> {
        (self.len != u32::MAX).then_some(self.len as usize)
    }
}

/// One tokenization plan: sorted distinct token ids per cell for both
/// tables in a single arena. Ids come from the plan's private interner
/// (or, for a borrowed plan, the blocking join's token cache) and are all
/// below `id_space`; set measures are invariant to the id assignment.
#[derive(Default)]
pub(crate) struct SetPlan {
    ids: Vec<u32>,
    pub(crate) left: Vec<Span>,
    pub(crate) right: Vec<Span>,
    pub(crate) id_space: usize,
}

/// Key of a tokenization plan:
/// `(left column, right column, qgram, lowercase)`.
pub(crate) type SetKey = (usize, usize, bool, bool);

/// Token-id assignment for one tokenization plan, and the spans of the
/// strings it has tokenized. Grams are keyed by their three chars directly
/// — no heap key, no per-gram string building — while words and
/// shorter-than-q whole strings key by string. The namespaces can't collide
/// (a gram is exactly 3 chars, a short string fewer), so ids from one
/// shared counter preserve token identity exactly as a single string
/// interner would. One interner spans both columns, so ids compare across
/// tables.
#[derive(Default)]
pub(crate) struct SetInterner {
    grams: FastMap<[char; 3], u32>,
    strings: FastMap<String, u32>,
    next: u32,
    spans: FastMap<String, Span>,
}

/// One token of a set plan's stream.
#[derive(Clone, Copy)]
pub(crate) enum Token<'a> {
    Gram([char; 3]),
    Str(&'a str),
}

/// The token stream of one normalized string under a plan. `qgram` is the
/// exact stream of `QgramTokenizer::new(3)` — empty → none, shorter than q
/// → the whole string, else char windows — with no `String` built per
/// gram; otherwise the word tokens.
pub(crate) fn for_each_token<'a>(s: &'a str, qgram: bool, mut f: impl FnMut(Token<'a>)) {
    if !qgram {
        return AlphanumericTokenizer.for_each_token(s, |w| f(Token::Str(w)));
    }
    let (mut window, mut n_chars) = (['\0'; 3], 0usize);
    for c in s.chars() {
        window = [window[1], window[2], c];
        n_chars += 1;
        if n_chars >= 3 {
            f(Token::Gram(window));
        }
    }
    if n_chars == 1 || n_chars == 2 {
        f(Token::Str(s));
    }
}

impl SetInterner {
    /// The id of `token`, assigning the next one if it is new.
    fn id(&mut self, token: Token<'_>) -> u32 {
        if let Some(id) = self.get(token) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        match token {
            Token::Gram(g) => self.grams.insert(g, id),
            Token::Str(s) => self.strings.insert(s.to_string(), id),
        };
        id
    }

    /// Read-only lookup (an arriving row never grows the interner).
    pub(crate) fn get(&self, token: Token<'_>) -> Option<u32> {
        match token {
            Token::Gram(g) => self.grams.get(&g).copied(),
            Token::Str(s) => self.strings.get(s).copied(),
        }
    }
}

impl SetPlan {
    /// The ids `span` covers (empty for a null span).
    #[inline]
    pub(crate) fn ids(&self, span: Span) -> &[u32] {
        match span.len() {
            Some(len) => &self.ids[span.start as usize..span.start as usize + len],
            None => &[],
        }
    }

    /// The span of cell `v` ([`Span::NULL`] for a null). A string new to
    /// `known` is tokenized and its **sorted distinct** interned ids
    /// appended to the arena.
    pub(crate) fn intern(
        &mut self,
        v: &Value,
        (qgram, lowercase): (bool, bool),
        known: &mut SetInterner,
    ) -> Span {
        if v.is_null() {
            return Span::NULL;
        }
        let s = normalized(v, lowercase);
        if let Some(&span) = known.spans.get(s.as_ref()) {
            return span;
        }
        let start = self.ids.len();
        let ids = &mut self.ids;
        for_each_token(&s, qgram, |token| ids.push(known.id(token)));
        ids[start..].sort_unstable();
        let mut kept = start;
        for i in start..ids.len() {
            if kept == start || ids[kept - 1] != ids[i] {
                ids[kept] = ids[i];
                kept += 1;
            }
        }
        ids.truncate(kept);
        let span = Span { start: offset(start), len: offset(kept - start) };
        known.spans.insert(s.into_owned(), span);
        self.id_space = known.next as usize;
        span
    }
}

/// Tokenizes both columns of one plan through a private interner. Plans
/// share nothing, so each is an independent set-up leg.
pub(crate) fn build_set_plan(
    (lcol, rcol, qgram, lowercase): SetKey,
    (a, b): (&Table, &Table),
    (used_left, used_right): (&[bool], &[bool]),
) -> SetPlan {
    let mut plan = SetPlan::default();
    let mut known = SetInterner::default();
    // Rows no candidate pair references are never read in the hot loop, so
    // they are not tokenized at all.
    let mut column = |t: &Table, col: usize, used: &[bool]| -> Vec<Span> {
        let rows = t.rows().iter().zip(used);
        rows.map(|(row, &used)| {
            if used {
                plan.intern(&row[col], (qgram, lowercase), &mut known)
            } else {
                Span::NULL
            }
        })
        .collect()
    };
    let (left, right) = (column(a, lcol, used_left), column(b, rcol, used_right));
    SetPlan { left, right, ..plan }
}

/// Copies an already-tokenized [`TokenCorpus`] pair into a plan's arena
/// instead of re-tokenizing the columns from scratch.
///
/// Eligibility and bit-safety: the corpus rows are sorted distinct ids of
/// the `AlphanumericTokenizer` stream over `Normalizer::for_blocking`
/// output (strip specials → lowercase → collapse whitespace). For a
/// **lowercase word-level** plan the owned path tokenizes the lowercased
/// render with the same tokenizer — and since the tokenizer splits on
/// every non-alphanumeric char anyway, the strip/collapse steps cannot
/// change the token stream. Set measures depend only on
/// `(|A∩B|, |A|, |B|)` of sorted distinct sets, so scores are bit-equal
/// under either interner's id space.
///
/// Nullness comes from the *table* (the corpus maps null and empty rows
/// both to an empty slice): a null cell stays null → `NaN`, a non-null
/// cell with no tokens stays an empty span. Returns `None` (caller falls
/// back to owned tokenization) if any used non-null cell is not a string —
/// `render()` would tokenize the formatted value, which the corpus never
/// saw.
pub(crate) fn borrow_set_plan(
    (lcol, rcol): (usize, usize),
    (a, b): (&Table, &Table),
    (left, right): (&TokenCorpus, &TokenCorpus),
    (used_left, used_right): (&[bool], &[bool]),
) -> Option<SetPlan> {
    let mut ids: Vec<u32> = Vec::with_capacity(left.n_tokens_total() + right.n_tokens_total());
    let mut column = |t: &Table, col: usize, corpus: &TokenCorpus, used: &[bool]| {
        debug_assert_eq!(corpus.len(), t.n_rows());
        let mut spans = Vec::with_capacity(t.n_rows());
        for (i, (row, &used)) in t.rows().iter().zip(used).enumerate() {
            let v = &row[col];
            if !used || v.is_null() {
                spans.push(Span::NULL);
                continue;
            }
            v.as_str()?;
            let start = ids.len();
            ids.extend_from_slice(corpus.row(i));
            spans.push(Span { start: offset(start), len: offset(ids.len() - start) });
        }
        Some(spans)
    };
    let left_spans = column(a, lcol, left, used_left)?;
    let right_spans = column(b, rcol, right, used_right)?;
    let id_space = left.max_id().max(right.max_id()).map_or(0, |m| m as usize + 1);
    Some(SetPlan { ids, left: left_spans, right: right_spans, id_space })
}

/// The scalar a non-string feature reads, parsed once per cell. `Null` is
/// a null cell, a cell of another type, or a row no pair references — all
/// `NaN`, as in [`Feature::compute`](crate::Feature).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar {
    Null,
    /// `Value::as_f64` (the `Num*` features).
    Num(f64),
    /// `Date::day_number` (`DateYearGap` subtracts day numbers).
    Day(i64),
    /// The date itself (`DateExact` compares fields: dirty dates such as
    /// `2/30/09` share a day number with a valid neighbour).
    Date(Date),
    /// `Value::as_bool`.
    Bool(bool),
}

/// The measure a non-string feature computes on [`Scalar`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TypedOp {
    NumExact,
    NumAbsDiff,
    NumRelSim,
    DateYearGap,
    DateExact,
    BoolExact,
}

/// Which feature kinds run on typed columns.
pub(crate) fn typed_op(kind: FeatureKind) -> Option<TypedOp> {
    match kind {
        FeatureKind::NumExact => Some(TypedOp::NumExact),
        FeatureKind::NumAbsDiff => Some(TypedOp::NumAbsDiff),
        FeatureKind::NumRelSim => Some(TypedOp::NumRelSim),
        FeatureKind::DateYearGap => Some(TypedOp::DateYearGap),
        FeatureKind::DateExact => Some(TypedOp::DateExact),
        FeatureKind::BoolExact => Some(TypedOp::BoolExact),
        _ => None,
    }
}

impl TypedOp {
    /// Parses one cell into the scalar this measure reads.
    pub(crate) fn parse(self, v: &Value) -> Scalar {
        match self {
            TypedOp::NumExact | TypedOp::NumAbsDiff | TypedOp::NumRelSim => {
                v.as_f64().map_or(Scalar::Null, Scalar::Num)
            }
            TypedOp::DateYearGap => {
                v.as_date().map_or(Scalar::Null, |d| Scalar::Day(d.day_number()))
            }
            TypedOp::DateExact => v.as_date().map_or(Scalar::Null, Scalar::Date),
            TypedOp::BoolExact => v.as_bool().map_or(Scalar::Null, Scalar::Bool),
        }
    }

    /// Parses the referenced rows of one column.
    pub(crate) fn column(self, t: &Table, col: usize, used: &[bool]) -> Vec<Scalar> {
        let rows = t.rows().iter().zip(used);
        rows.map(|(row, &u)| if u { self.parse(&row[col]) } else { Scalar::Null }).collect()
    }

    /// True when `self` and `other` parse cells into the same scalar.
    pub(crate) fn shares_column_with(self, other: TypedOp) -> bool {
        use TypedOp::*;
        let num = |op| matches!(op, NumExact | NumAbsDiff | NumRelSim);
        self == other || (num(self) && num(other))
    }

    /// The feature value on two scalars this measure parsed — each arm is
    /// the expression [`Feature::compute`](crate::Feature::compute)
    /// evaluates on the same scalars.
    #[inline]
    pub(crate) fn score(self, left: Scalar, right: Scalar) -> f64 {
        match (left, right) {
            (Scalar::Num(x), Scalar::Num(y)) => match self {
                TypedOp::NumExact => f64::from(x == y),
                TypedOp::NumAbsDiff => (x - y).abs(),
                _ => {
                    let denom = x.abs().max(y.abs());
                    if denom == 0.0 {
                        1.0
                    } else {
                        1.0 - ((x - y).abs() / denom).min(1.0)
                    }
                }
            },
            (Scalar::Day(x), Scalar::Day(y)) => ((x - y).abs() as f64) / 365.25,
            (Scalar::Date(x), Scalar::Date(y)) => f64::from(x == y),
            (Scalar::Bool(x), Scalar::Bool(y)) => f64::from(x == y),
            _ => f64::NAN,
        }
    }
}

/// Extracts the feature matrix for `pairs`: one row per pair, one column
/// per feature, `NaN` for missing values.
///
/// Implemented on [`BatchExtractor`] with a full feature mask: caches are
/// built once for the rows `pairs` actually reference, then extraction
/// fans out over [`em_parallel::Executor`] with one
/// [`BatchScratch`](crate::BatchScratch) per worker. Per-pair values are
/// pure functions of the cell contents, so results are bit-identical at
/// any thread count — and to [`Feature::compute`](crate::Feature::compute).
///
/// Fails fast if any feature references a column absent from its table or
/// any pair indexes past a table.
pub fn extract_vectors(
    features: &FeatureSet,
    a: &Table,
    b: &Table,
    pairs: &[Pair],
) -> Result<Vec<Vec<f64>>, TableError> {
    let ex = BatchExtractor::for_pairs(features, a, b, &FeatureMask::full(features.len()), pairs)?;
    // Grain in pairs such that one thread's chunk is at least
    // PARALLEL_THRESHOLD (pair × feature) computations.
    let grain = (PARALLEL_THRESHOLD / features.len().max(1)).max(1);
    let rows = Executor::current().map_indexed_with(
        pairs.len(),
        grain,
        || ex.scratch(),
        |scratch, i| {
            let mut out = vec![0.0; features.len()];
            ex.extract_into(pairs[i], scratch, &mut out);
            out
        },
    );
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{auto_features, FeatureOptions};
    use em_table::csv::read_str;

    fn tables() -> (Table, Table) {
        let a = read_str(
            "A",
            "Title,Amount\nCorn Fungicide Guidelines,10\nSwamp Dodder Ecology,\n",
        )
        .unwrap();
        let b = read_str(
            "B",
            "Title,Amount\ncorn fungicide guidelines,10\nTotally Different,5\n",
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn extracts_rows_in_pair_order() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = vec![Pair::new(0, 0), Pair::new(1, 1), Pair::new(0, 1)];
        let x = extract_vectors(&fs, &a, &b, &pairs).unwrap();
        assert_eq!(x.len(), 3);
        assert_eq!(x[0].len(), fs.len());
        // case-insensitive jaccard on pair (0,0) must be 1.0
        let idx = fs.names().iter().position(|n| n == "Title_jac_q3_lc").unwrap();
        assert_eq!(x[0][idx], 1.0);
        assert!(x[2][idx] < 0.5);
    }

    #[test]
    fn missing_values_become_nan() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        let idx = fs.names().iter().position(|n| n == "Amount_abs_diff").unwrap();
        let x = extract_vectors(&fs, &a, &b, &[Pair::new(1, 0)]).unwrap();
        assert!(x[0][idx].is_nan());
    }

    #[test]
    fn out_of_range_pair_is_error() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        assert!(extract_vectors(&fs, &a, &b, &[Pair::new(9, 0)]).is_err());
    }

    #[test]
    fn interned_set_features_match_direct_compute() {
        // Every feature value must equal Feature::compute run directly on
        // the cell values — the interned fast path is bit-for-bit neutral.
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = [Pair::new(0, 0), Pair::new(0, 1), Pair::new(1, 0), Pair::new(1, 1)];
        let x = extract_vectors(&fs, &a, &b, &pairs).unwrap();
        for (r, p) in pairs.iter().enumerate() {
            for (k, f) in fs.features.iter().enumerate() {
                let va = a.row(p.left).unwrap().get(&f.left_attr).unwrap();
                let vb = b.row(p.right).unwrap().get(&f.right_attr).unwrap();
                let direct = f.compute(va, vb);
                let got = x[r][k];
                assert!(
                    got.to_bits() == direct.to_bits() || (got.is_nan() && direct.is_nan()),
                    "{} on pair {:?}: got {got}, direct {direct}",
                    f.name,
                    p
                );
            }
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Build enough pairs to cross the parallel threshold.
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let mut pairs = Vec::new();
        for _ in 0..2000 {
            pairs.push(Pair::new(0, 0));
            pairs.push(Pair::new(0, 1));
            pairs.push(Pair::new(1, 0));
            pairs.push(Pair::new(1, 1));
        }
        em_parallel::set_threads(4);
        let x = extract_vectors(&fs, &a, &b, &pairs).unwrap();
        em_parallel::set_threads(0);
        let serial = extract_vectors(&fs, &a, &b, &pairs[..4]).unwrap();
        assert_eq!(x.len(), pairs.len());
        for k in 0..4 {
            for (u, v) in x[k].iter().zip(&serial[k]) {
                assert!(u == v || (u.is_nan() && v.is_nan()));
            }
        }
    }

    #[test]
    fn string_ids_never_leak_between_calls() {
        // String ids are assigned per extractor; nothing keyed on them may
        // survive into the next one. Run extractions whose sid spaces
        // collide but whose strings differ, then check each against the
        // direct compute path.
        let (a, b) = tables();
        let a2 = read_str("A", "Title,Amount\nZebra Grazing Study,10\nRiver Silt Survey,2\n")
            .unwrap();
        let b2 = read_str("B", "Title,Amount\nzebra grazing study,10\nUnrelated Topic,5\n")
            .unwrap();
        let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
        let pairs = [Pair::new(0, 0), Pair::new(0, 1), Pair::new(1, 0), Pair::new(1, 1)];
        for (ta, tb) in [(&a, &b), (&a2, &b2), (&a, &b)] {
            let x = extract_vectors(&fs, ta, tb, &pairs).unwrap();
            for (r, p) in pairs.iter().enumerate() {
                for (k, f) in fs.features.iter().enumerate() {
                    let va = ta.row(p.left).unwrap().get(&f.left_attr).unwrap();
                    let vb = tb.row(p.right).unwrap().get(&f.right_attr).unwrap();
                    let direct = f.compute(va, vb);
                    let got = x[r][k];
                    assert!(
                        got.to_bits() == direct.to_bits() || (got.is_nan() && direct.is_nan()),
                        "{} on pair {:?}: got {got}, direct {direct}",
                        f.name,
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn empty_pairs_ok() {
        let (a, b) = tables();
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        assert!(extract_vectors(&fs, &a, &b, &[]).unwrap().is_empty());
    }
}
