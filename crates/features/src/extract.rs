//! Feature-vector extraction: turning candidate pairs into the matrix the
//! matchers consume.
//!
//! This module owns the **cache plans** the batch kernel
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
//!   ids) of each distinct string in a [`CellTable`]; sid equality ⇔
//!   string equality everywhere, so a case-folded plan whose cells lowercase
//!   to themselves shares its sids with its case-sensitive twin;
//! - a [`TypedColumns`] pair per numeric/date/boolean attribute pair.
//!
//! All of it is bit-for-bit neutral: the set measures evaluate the
//! `*_counts` expressions `em_text::set` reduces to, the `*_chars` kernels
//! are property-tested equal to the naive reference, typed features apply
//! [`Feature::compute`](crate::Feature::compute)'s own arithmetic to the
//! same parsed scalars, and chunked results join in pair order.

use crate::batch::BatchExtractor;
use crate::feature::FeatureKind;
use crate::generate::FeatureSet;
use crate::serve::FeatureMask;
use em_blocking::Pair;
use em_parallel::Executor;
use em_table::{Date, Table, TableError, Value};
use em_text::intern;
use em_text::tokenize::{AlphanumericTokenizer, Tokenizer};
use em_text::{phonetic, seq, FastMap, KernelScratch, TokenCorpus};
use std::borrow::Cow;
use std::sync::Arc;

/// Below this many (pair × feature) computations, extraction stays
/// single-threaded — thread setup would dominate.
pub(crate) const PARALLEL_THRESHOLD: usize = 20_000;

/// A memoized `f64` map with **size-capped epoch eviction**: when the map
/// reaches its cap it is cleared wholesale and an epoch counter ticks, so
/// long candidate streams hold memory flat instead of growing with the
/// number of distinct keys. Values must be pure functions of their key
/// (every memo here is), so eviction can only cost recomputation — never
/// change a result. A cap of 0 disables memoization entirely.
pub(crate) struct BoundedMemo<K> {
    map: FastMap<K, f64>,
    cap: usize,
    epochs: u64,
}

impl<K: std::hash::Hash + Eq> BoundedMemo<K> {
    pub(crate) fn with_cap(cap: usize) -> BoundedMemo<K> {
        BoundedMemo { map: FastMap::default(), cap, epochs: 0 }
    }

    #[inline]
    pub(crate) fn get(&self, k: &K) -> Option<f64> {
        self.map.get(k).copied()
    }

    #[inline]
    pub(crate) fn insert(&mut self, k: K, v: f64) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap {
            self.map.clear();
            self.epochs += 1;
        }
        self.map.insert(k, v);
    }

    #[cfg(test)]
    pub(crate) fn epochs(&self) -> u64 {
        self.epochs
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

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
    /// score evaluates — the batch kernel counts the intersection by stamp
    /// lookups, the serve extractor against probe cells whose unknown
    /// tokens only contribute to `|A|`.
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
/// included, so inner memo keys stay call-order faithful).
pub(crate) fn monge_elkan_sym_ids(a: &[u32], b: &[u32], mut inner: impl FnMut(u32, u32) -> f64) -> f64 {
    (monge_elkan_ids(a, b, &mut inner) + monge_elkan_ids(b, a, &mut inner)) / 2.0
}

impl SeqOp {
    /// The measure on two distinct-string cells of a [`CellTable`].
    /// [`SeqOp::Exact`] never gets here — it is the sid comparison itself.
    pub(crate) fn score(
        self,
        cells: &CellTable,
        (sa, sb): (u32, u32),
        words: &[WordData],
        jw_memo: &mut BoundedMemo<(u32, u32)>,
        ks: &mut KernelScratch,
    ) -> f64 {
        use SeqOp::*;
        let (ca, cb) = (cells.chars(sa), cells.chars(sb));
        match self {
            // Cells are interned: equal string ids ⇔ equal strings.
            Exact => f64::from(sa == sb),
            LevSim => seq::levenshtein_sim_chars(ks, ca, cb),
            Jaro => seq::jaro_chars(ks, ca, cb),
            JaroWinkler => seq::jaro_winkler_chars(ks, ca, cb),
            NeedlemanWunsch => seq::needleman_wunsch_sim_chars(ks, ca, cb),
            SmithWaterman => seq::smith_waterman_sim_chars(ks, ca, cb),
            // Monge-Elkan runs on interned word ids: the inner
            // Jaro-Winkler reads pre-decoded word chars (memoized per
            // ordered word pair), the inner Soundex compares codes
            // precomputed once per distinct word.
            MongeElkanJw => {
                let inner = |x: u32, y: u32| {
                    if let Some(v) = jw_memo.get(&(x, y)) {
                        return v;
                    }
                    let v = seq::jaro_winkler_chars(
                        ks,
                        &words[x as usize].chars,
                        &words[y as usize].chars,
                    );
                    jw_memo.insert((x, y), v);
                    v
                };
                monge_elkan_sym_ids(cells.words(sa), cells.words(sb), inner)
            }
            MongeElkanSoundex => {
                // Exactly `phonetic::soundex_sim`: 1.0 iff both words have
                // a code and the codes agree.
                let inner = |x: u32, y: u32| match (words[x as usize].sdx, words[y as usize].sdx) {
                    (Some(cx), Some(cy)) if cx == cy => 1.0,
                    _ => 0.0,
                };
                monge_elkan_sym_ids(cells.words(sa), cells.words(sb), inner)
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

/// One normalized cell of the serve extractor: the rendered (and possibly
/// lowercased) string, decoded exactly once. `sid` is an interned string id
/// — equal ids mean equal normalized strings across all plans — so it
/// doubles as the exact-match answer.
#[derive(Clone)]
pub(crate) struct NormCell {
    pub(crate) sid: u32,
    pub(crate) chars: Arc<[char]>,
    pub(crate) word_ids: Arc<[u32]>,
}

/// One distinct word across the whole call: chars decoded once for the
/// Monge-Elkan inner Jaro-Winkler, Soundex code computed once for the inner
/// phonetic measure (`None` = no letters, scores 0 against everything).
pub(crate) struct WordData {
    pub(crate) chars: Arc<[char]>,
    pub(crate) sdx: Option<[u8; 4]>,
}

/// Word-level Soundex code in the fixed-width form [`WordTable`] stores:
/// `None` when the word has no letters (scores 0 against everything).
pub(crate) fn soundex_code(w: &str) -> Option<[u8; 4]> {
    phonetic::soundex(w).map(|code| {
        let b = code.into_bytes();
        [b[0], b[1], b[2], b[3]]
    })
}

/// Call-wide word interner: every distinct word token is decoded and
/// Soundex-encoded exactly once, shared by all Monge-Elkan features.
#[derive(Default)]
pub(crate) struct WordTable {
    pub(crate) index: FastMap<String, u32>,
    pub(crate) data: Vec<WordData>,
}

impl WordTable {
    fn intern(&mut self, w: &str) -> u32 {
        if let Some(&id) = self.index.get(w) {
            return id;
        }
        let id = u32::try_from(self.data.len()).expect("more than u32::MAX distinct words");
        self.data.push(WordData { chars: w.chars().collect(), sdx: soundex_code(w) });
        self.index.insert(w.to_string(), id);
        id
    }
}

/// Memoized normalization of one already-rendered (and lowercased, when the
/// plan asks) string: string id, decoded chars, interned word ids — the
/// serve extractor's corpus-push path. (The batch caches intern the same
/// strings into a flat [`CellTable`] instead.)
pub(crate) fn norm_cell(
    s: String,
    memo: &mut FastMap<String, NormCell>,
    words: &mut WordTable,
) -> NormCell {
    if let Some(cell) = memo.get(&s) {
        return cell.clone();
    }
    let sid = u32::try_from(memo.len()).expect("more than u32::MAX distinct strings");
    let chars: Arc<[char]> = s.chars().collect();
    let word_ids: Arc<[u32]> =
        AlphanumericTokenizer.tokenize(&s).iter().map(|w| words.intern(w)).collect();
    let cell = NormCell { sid, chars, word_ids };
    memo.insert(s, cell.clone());
    cell
}

/// Arena offset as `u32` (every arena here is indexed by `u32`).
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("cache arena exceeds u32::MAX entries")
}

/// The string a string measure sees for one non-null cell: its rendering,
/// lowercased when the plan asks. Borrows the cell's own text whenever that
/// is already the answer — `str::to_lowercase` maps an ASCII string exactly
/// as `to_ascii_lowercase` does, and one without uppercase to itself — so
/// most cells cost no allocation.
fn normalized(v: &Value, lowercase: bool) -> Cow<'_, str> {
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

/// Decoded chars and interned word ids of every distinct normalized
/// string, indexed by sid: two flat arenas with `n + 1` offsets each
/// instead of two `Arc` slices per string.
#[derive(Default)]
pub(crate) struct CellTable {
    char_starts: Vec<u32>,
    chars: Vec<char>,
    word_starts: Vec<u32>,
    word_ids: Vec<u32>,
}

impl CellTable {
    /// Decoded chars of string `sid`.
    #[inline]
    pub(crate) fn chars(&self, sid: u32) -> &[char] {
        let s = sid as usize;
        &self.chars[self.char_starts[s] as usize..self.char_starts[s + 1] as usize]
    }

    /// Word ids of string `sid` in token order (empty unless the caches
    /// were built with words).
    #[inline]
    pub(crate) fn words(&self, sid: u32) -> &[u32] {
        let s = sid as usize;
        &self.word_ids[self.word_starts[s] as usize..self.word_starts[s + 1] as usize]
    }
}

/// One normalization plan's sid columns; [`NULL_SID`] marks a null cell
/// (feature value `NaN`, as always) or a row no pair references.
pub(crate) struct SeqColumns {
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
}

/// The sequence-measure caches: per-plan sid columns over one global
/// [`CellTable`] and word table.
pub(crate) struct SeqCaches {
    pub(crate) columns: Vec<SeqColumns>,
    pub(crate) cells: CellTable,
    pub(crate) words: Vec<WordData>,
}

/// Key of a normalization plan: `(left column, right column, lowercase)`.
pub(crate) type SeqKey = (usize, usize, bool);

/// Interns sids for the sequence plans in `keys`. One memo spans both
/// tables and every plan, so the pass is sequential by construction — it
/// is one set-up leg, however many plans it serves.
pub(crate) fn build_seq_caches(
    keys: &[SeqKey],
    with_words: bool,
    (a, b): (&Table, &Table),
    (used_left, used_right): (&[bool], &[bool]),
) -> SeqCaches {
    let mut memo: FastMap<String, u32> = FastMap::default();
    let mut words = WordTable::default();
    let mut cells = CellTable { char_starts: vec![0], word_starts: vec![0], ..CellTable::default() };
    let mut column = |t: &Table, col: usize, lowercase: bool, used: &[bool]| -> Vec<u32> {
        t.rows()
            .iter()
            .zip(used)
            .map(|(row, &used)| {
                // Rows no candidate pair references are never read in the
                // hot loop, so they are not normalized at all.
                let v = &row[col];
                if !used || v.is_null() {
                    return NULL_SID;
                }
                let s = normalized(v, lowercase);
                if let Some(&sid) = memo.get(s.as_ref()) {
                    return sid;
                }
                let sid = offset(memo.len());
                cells.chars.extend(s.chars());
                cells.char_starts.push(offset(cells.chars.len()));
                if with_words {
                    AlphanumericTokenizer
                        .for_each_token(&s, |w| cells.word_ids.push(words.intern(w)));
                }
                cells.word_starts.push(offset(cells.word_ids.len()));
                memo.insert(s.into_owned(), sid);
                sid
            })
            .collect()
    };
    let columns = keys
        .iter()
        .map(|&(lcol, rcol, lowercase)| SeqColumns {
            left: column(a, lcol, lowercase, used_left),
            right: column(b, rcol, lowercase, used_right),
        })
        .collect();
    SeqCaches { columns, cells, words: words.data }
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
pub(crate) struct SetPlan {
    ids: Vec<u32>,
    pub(crate) left: Vec<Span>,
    pub(crate) right: Vec<Span>,
    pub(crate) id_space: usize,
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
}

/// Key of a tokenization plan:
/// `(left column, right column, qgram, lowercase)`.
pub(crate) type SetKey = (usize, usize, bool, bool);

/// Token-id assignment for one tokenization plan. Grams are keyed by their
/// three chars directly — no heap key, no per-gram string building — while
/// words and shorter-than-q whole strings key by string. The namespaces
/// can't collide (a gram is exactly 3 chars, a short string fewer), so ids
/// from one shared counter preserve token identity exactly as a single
/// string interner would.
#[derive(Default)]
pub(crate) struct PlanInterner {
    grams: FastMap<[char; 3], u32>,
    strings: FastMap<String, u32>,
    next: u32,
}

impl PlanInterner {
    fn gram(&mut self, g: [char; 3]) -> u32 {
        *self.grams.entry(g).or_insert_with(|| {
            let id = self.next;
            self.next += 1;
            id
        })
    }

    fn string(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.strings.insert(s.to_string(), id);
        id
    }

    /// Read-only gram lookup (serve probe cells never grow the interner).
    pub(crate) fn get_gram(&self, g: [char; 3]) -> Option<u32> {
        self.grams.get(&g).copied()
    }

    /// Read-only string/word lookup.
    pub(crate) fn get_string(&self, s: &str) -> Option<u32> {
        self.strings.get(s).copied()
    }
}

/// Tokenizes one normalized string under a plan (`qgram` → 3-gram windows,
/// else word tokens) and appends its **sorted distinct** interned ids to
/// `out`. `cbuf` is a reusable char buffer.
fn plan_tokenize_into(
    s: &str,
    qgram: bool,
    interner: &mut PlanInterner,
    cbuf: &mut Vec<char>,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    if qgram {
        // The exact token stream of `QgramTokenizer::new(3)` (empty → none,
        // shorter than q → the whole string, else char windows), with each
        // gram interned straight from its window — no `String` is ever
        // built per gram.
        cbuf.clear();
        cbuf.extend(s.chars());
        if cbuf.len() >= 3 {
            out.extend(cbuf.windows(3).map(|w| interner.gram([w[0], w[1], w[2]])));
        } else if !cbuf.is_empty() {
            out.push(interner.string(s));
        }
    } else {
        AlphanumericTokenizer.for_each_token(s, |tok| out.push(interner.string(tok)));
    }
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[kept - 1] != out[i] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// [`plan_tokenize_into`] into a fresh list — the serve extractor's
/// corpus-push path.
pub(crate) fn plan_tokenize(
    s: &str,
    qgram: bool,
    interner: &mut PlanInterner,
    cbuf: &mut Vec<char>,
) -> Vec<u32> {
    let mut ids = Vec::new();
    plan_tokenize_into(s, qgram, interner, cbuf, &mut ids);
    ids
}

/// Tokenizes both columns of one plan through a private interner. One
/// interner + memo spans both columns so ids compare across tables; plans
/// share nothing, so each is an independent set-up leg.
pub(crate) fn build_set_plan(
    (lcol, rcol, qgram, lowercase): SetKey,
    (a, b): (&Table, &Table),
    (used_left, used_right): (&[bool], &[bool]),
) -> SetPlan {
    let mut interner = PlanInterner::default();
    let mut memo: FastMap<String, Span> = FastMap::default();
    let mut ids: Vec<u32> = Vec::new();
    let mut cbuf: Vec<char> = Vec::new();
    let mut column = |t: &Table, col: usize, used: &[bool]| -> Vec<Span> {
        t.rows()
            .iter()
            .zip(used)
            .map(|(row, &used)| {
                // Rows no candidate pair references are never read in the
                // hot loop, so they are not tokenized at all.
                let v = &row[col];
                if !used || v.is_null() {
                    return Span::NULL;
                }
                let s = normalized(v, lowercase);
                if let Some(&span) = memo.get(s.as_ref()) {
                    return span;
                }
                let start = ids.len();
                plan_tokenize_into(&s, qgram, &mut interner, &mut cbuf, &mut ids);
                let span = Span { start: offset(start), len: offset(ids.len() - start) };
                memo.insert(s.into_owned(), span);
                span
            })
            .collect()
    };
    let left = column(a, lcol, used_left);
    let right = column(b, rcol, used_right);
    SetPlan { ids, left, right, id_space: interner.next as usize }
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

/// The scalar view a non-string feature reads, parsed once per cell.
/// `None` is a null cell, a cell of another type, or a row no pair
/// references — all `NaN`, as in [`Feature::compute`](crate::Feature).
pub(crate) enum TypedColumn {
    /// `Value::as_f64` (the `Num*` features).
    Num(Vec<Option<f64>>),
    /// `Date::day_number` (`DateYearGap` subtracts day numbers).
    Day(Vec<Option<i64>>),
    /// The date itself (`DateExact` compares fields: dirty dates such as
    /// `2/30/09` share a day number with a valid neighbour).
    Date(Vec<Option<Date>>),
    /// `Value::as_bool`.
    Bool(Vec<Option<bool>>),
}

/// The measure a non-string feature computes on [`TypedColumn`] scalars.
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
    /// Parses one column into the view this measure reads.
    pub(crate) fn column(self, t: &Table, col: usize, used: &[bool]) -> TypedColumn {
        fn parse<T>(
            t: &Table,
            col: usize,
            used: &[bool],
            f: impl Fn(&Value) -> Option<T>,
        ) -> Vec<Option<T>> {
            t.rows().iter().zip(used).map(|(row, &u)| if u { f(&row[col]) } else { None }).collect()
        }
        match self {
            TypedOp::NumExact | TypedOp::NumAbsDiff | TypedOp::NumRelSim => {
                TypedColumn::Num(parse(t, col, used, Value::as_f64))
            }
            TypedOp::DateYearGap => {
                TypedColumn::Day(parse(t, col, used, |v| v.as_date().map(|d| d.day_number())))
            }
            TypedOp::DateExact => TypedColumn::Date(parse(t, col, used, Value::as_date)),
            TypedOp::BoolExact => TypedColumn::Bool(parse(t, col, used, Value::as_bool)),
        }
    }

    /// True when `self` and `other` read the same [`TypedColumn`] view.
    pub(crate) fn shares_column_with(self, other: TypedOp) -> bool {
        use TypedOp::*;
        let num = |op| matches!(op, NumExact | NumAbsDiff | NumRelSim);
        self == other || (num(self) && num(other))
    }

    /// The feature value on rows `(i, j)` — each arm is the expression
    /// [`Feature::compute`](crate::Feature::compute) evaluates on the same
    /// scalars.
    #[inline]
    pub(crate) fn score(self, left: &TypedColumn, right: &TypedColumn, i: usize, j: usize) -> f64 {
        match (left, right) {
            (TypedColumn::Num(l), TypedColumn::Num(r)) => match (l[i], r[j]) {
                (Some(x), Some(y)) => match self {
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
                _ => f64::NAN,
            },
            (TypedColumn::Day(l), TypedColumn::Day(r)) => match (l[i], r[j]) {
                (Some(x), Some(y)) => ((x - y).abs() as f64) / 365.25,
                _ => f64::NAN,
            },
            (TypedColumn::Date(l), TypedColumn::Date(r)) => match (l[i], r[j]) {
                (Some(x), Some(y)) => f64::from(x == y),
                _ => f64::NAN,
            },
            (TypedColumn::Bool(l), TypedColumn::Bool(r)) => match (l[i], r[j]) {
                (Some(x), Some(y)) => f64::from(x == y),
                _ => f64::NAN,
            },
            _ => unreachable!("both columns of a typed plan are parsed by the same op"),
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
