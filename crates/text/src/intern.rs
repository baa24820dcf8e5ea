//! Token interning: tokenize once, compare integers forever.
//!
//! The blockers and set-similarity features spend most of their time
//! re-tokenizing the same strings into owned `Vec<String>` and comparing
//! heap-allocated tokens. This module fixes both costs:
//!
//! - [`Interner`] maps each distinct token string to a dense `u32` id.
//! - [`TokenCache`] is a normalizer and an [`Interner`] behind a mutex:
//!   one id space shared by every column tokenized through it.
//! - [`TokenCorpus`] tokenizes a whole column up front into per-row id
//!   lists (the "tokenize each column once" layout blockers consume), and
//!   grows a row at a time under an online index.
//! - [`TokenQuery`] tokenizes one text against a plain [`Interner`] into
//!   reused buffers: interning on the write path, a read-only look-up —
//!   no lock, no memo, nothing interned — on the read path.
//! - The `*_sorted` set measures compute overlap/Jaccard/… on sorted id
//!   slices with a linear merge — no hash sets, no string comparisons.
//!
//! Id assignment depends on insertion order, so ids are only meaningful
//! within one `Interner`/`TokenCache`; all set measures are invariant to
//! the id assignment, which keeps results independent of interning order.

use crate::fasthash::FastMap;
use crate::normalize::Normalizer;
use crate::tokenize::AlphanumericTokenizer;
use std::sync::{Arc, Mutex};

/// Maps token strings to dense `u32` ids. Keyed with [`FastMap`]: token
/// text is pipeline-internal, and the interner is hashed once per token
/// occurrence during bulk tokenization.
#[derive(Debug, Default)]
pub struct Interner {
    map: FastMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Returns the id of `tok`, assigning the next free id on first sight.
    pub fn intern(&mut self, tok: &str) -> u32 {
        if let Some(&id) = self.map.get(tok) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.map.insert(tok.to_string(), id);
        self.strings.push(tok.to_string());
        id
    }

    /// The id of `tok` if it has been interned.
    pub fn get(&self, tok: &str) -> Option<u32> {
        self.map.get(tok).copied()
    }

    /// The string for an id assigned by this interner.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One text tokenized against an [`Interner`]: the normalized text and its
/// sorted distinct token ids, in buffers that are reused from text to text,
/// so a warmed instance tokenizes ASCII text without allocating (see
/// [`Normalizer::apply_into`]).
#[derive(Debug, Default)]
pub struct TokenQuery {
    normalized: String,
    ids: Vec<u32>,
    /// Byte ranges of `normalized` holding the tokens of a look-up that the
    /// interner has no id for, deduplicated by text.
    unknown: Vec<(usize, usize)>,
}

impl TokenQuery {
    /// Sorted distinct token ids of the last text tokenized.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Tokenizes `text` (`None` has no tokens), assigning ids to tokens
    /// `vocab` has not seen — the write path.
    pub fn intern(&mut self, normalizer: &Normalizer, vocab: &mut Interner, text: Option<&str>) {
        let TokenQuery { normalized, ids, .. } = self;
        ids.clear();
        normalizer.apply_into(text.unwrap_or(""), normalized);
        AlphanumericTokenizer.for_each_token(normalized, |tok| ids.push(vocab.intern(tok)));
        ids.sort_unstable();
        ids.dedup();
    }

    /// Tokenizes `text` without touching `vocab` — the read path. A token
    /// `vocab` has no id for is deduplicated by its text and given an id
    /// past every assigned one (`vocab.len()` and up): it matches no indexed
    /// row, and still counts toward the size of the query's token set.
    pub fn look_up(&mut self, normalizer: &Normalizer, vocab: &Interner, text: Option<&str>) {
        let TokenQuery { normalized, ids, unknown } = self;
        ids.clear();
        unknown.clear();
        normalizer.apply_into(text.unwrap_or(""), normalized);
        AlphanumericTokenizer.for_each_token_range(normalized, |b, e| {
            match vocab.get(&normalized[b..e]) {
                Some(id) => ids.push(id),
                None => unknown.push((b, e)),
            }
        });
        ids.sort_unstable();
        ids.dedup();
        // The arriving text has no length limit: sort, not a quadratic scan.
        let word = |&(b, e): &(usize, usize)| &normalized[b..e];
        unknown.sort_unstable_by(|x, y| word(x).cmp(word(y)));
        unknown.dedup_by(|x, y| word(x) == word(y));
        ids.extend((vocab.len() as u32..).take(unknown.len()));
    }
}

/// Sorted distinct token ids of one text value. Cheap to clone and share.
pub type TokenIds = Arc<[u32]>;

struct CacheInner {
    interner: Interner,
    /// Buffers every text tokenizes through.
    query: TokenQuery,
}

/// Normalizer + word tokenizer + interner.
///
/// `token_ids` returns the **sorted distinct** token ids of a text value.
/// Shareable across blockers so the columns of one blocking plan are
/// tokenized into one id space.
pub struct TokenCache {
    normalizer: Normalizer,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for TokenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("TokenCache")
            .field("normalizer", &self.normalizer)
            .field("distinct_tokens", &inner.interner.len())
            .finish()
    }
}

impl TokenCache {
    /// A cache applying `normalizer` before word tokenization.
    pub fn new(normalizer: Normalizer) -> TokenCache {
        TokenCache {
            normalizer,
            inner: Mutex::new(CacheInner { interner: Interner::new(), query: TokenQuery::default() }),
        }
    }

    /// A cache with the paper's blocking normalization.
    pub fn for_blocking() -> TokenCache {
        TokenCache::new(Normalizer::for_blocking())
    }

    /// Sorted distinct token ids for `text`, tokenized on every call; `None`
    /// has no tokens. Whole columns go through [`TokenCorpus::from_column`].
    pub fn token_ids(&self, text: Option<&str>) -> TokenIds {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let CacheInner { interner, query } = &mut *inner;
        query.intern(&self.normalizer, interner, text);
        Arc::from(query.ids())
    }

    /// The token string behind an id (allocates; debugging/reporting only).
    pub fn resolve(&self, id: u32) -> Option<String> {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.interner.resolve(id).map(str::to_string)
    }

    /// Number of distinct tokens interned so far.
    pub fn n_tokens(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.interner.len()
    }
}

/// One table column tokenized up front: sorted distinct token ids per row,
/// all interned in a shared cache. This is the layout the blockers probe.
///
/// Storage is columnar: one flat `u32` id arena indexed by a row-offset
/// table, so a corpus of `n` rows and `m` total tokens costs exactly
/// `4(n + 1 + m)` bytes regardless of row-length skew — no per-row
/// allocation, no `Arc` headers, and row slices are contiguous in probe
/// order. At x256 scale (~490k award titles) this halves corpus memory
/// versus the earlier `Vec<Arc<[u32]>>` layout and keeps the set-similarity
/// join's sequential verification merges cache-friendly.
#[derive(Debug, Clone)]
pub struct TokenCorpus {
    /// Row `i` occupies `arena[starts[i] as usize..starts[i + 1] as usize]`.
    starts: Vec<u32>,
    arena: Vec<u32>,
    max_id: Option<u32>,
}

impl TokenCorpus {
    /// A corpus without rows, to be grown with [`TokenCorpus::push_row`].
    pub fn new() -> TokenCorpus {
        TokenCorpus { starts: vec![0], arena: Vec::new(), max_id: None }
    }

    /// Appends one row: its sorted distinct token ids.
    pub fn push_row(&mut self, ids: &[u32]) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row ids must be sorted distinct");
        self.arena.extend_from_slice(ids);
        self.starts.push(self.arena.len() as u32);
        self.max_id = self.max_id.max(ids.last().copied());
    }

    /// Tokenizes every row of a column (an iterator of optional cell texts)
    /// through `cache`, in row order — interning stays deterministic
    /// because this pass is sequential.
    ///
    /// This is the bulk path: the cache is locked **once** for the whole
    /// column and every row tokenizes through the cache's reused
    /// [`TokenQuery`] — no per-row `Arc`, normalized or token `String`.
    pub fn from_column<'a, I>(cache: &TokenCache, column: I) -> TokenCorpus
    where
        I: IntoIterator<Item = Option<&'a str>>,
    {
        let mut inner = cache.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let CacheInner { interner, query } = &mut *inner;
        let mut corpus = TokenCorpus::new();
        for text in column {
            query.intern(&cache.normalizer, interner, text);
            corpus.push_row(query.ids());
        }
        corpus
    }

    /// Sorted distinct token ids of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.arena[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when the corpus has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total token occurrences across all rows (the arena length).
    pub fn n_tokens_total(&self) -> usize {
        self.arena.len()
    }

    /// Largest token id appearing in any row, if any — the bound dense
    /// inverted indexes are sized by.
    pub fn max_id(&self) -> Option<u32> {
        self.max_id
    }

    /// Iterates `(row_index, token_ids)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        (0..self.len()).map(|i| (i, self.row(i)))
    }
}

impl Default for TokenCorpus {
    fn default() -> Self {
        TokenCorpus::new()
    }
}

/// `|A ∩ B|` of two sorted distinct id slices via linear merge.
pub fn overlap_size_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard from precomputed set cardinalities: `inter / (la + lb - inter)`
/// with the same degenerate conventions as [`jaccard_sorted`]. The serve-path
/// extractor scores candidates from `(|A∩B|, |A|, |B|)` counts without
/// materializing both id lists; delegating the sorted variant to this
/// function keeps the two paths bit-identical by construction.
pub fn jaccard_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    let union = la + lb - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Overlap coefficient from precomputed set cardinalities, matching
/// [`overlap_coefficient_sorted`]'s degenerate conventions.
pub fn overlap_coefficient_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    inter as f64 / la.min(lb) as f64
}

/// Dice from precomputed set cardinalities, matching [`dice_sorted`].
pub fn dice_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    let denom = la + lb;
    if denom == 0 {
        1.0
    } else {
        2.0 * inter as f64 / denom as f64
    }
}

/// Set cosine from precomputed set cardinalities, matching [`cosine_sorted`].
pub fn cosine_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    inter as f64 / ((la * lb) as f64).sqrt()
}

/// Jaccard `|A∩B| / |A∪B|` on sorted distinct id slices. Two empty inputs
/// are identical (`1.0`), matching [`crate::set::jaccard`].
pub fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    jaccard_counts(overlap_size_sorted(a, b), a.len(), b.len())
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)` on sorted distinct id slices,
/// matching [`crate::set::overlap_coefficient`]'s degenerate conventions.
pub fn overlap_coefficient_sorted(a: &[u32], b: &[u32]) -> f64 {
    overlap_coefficient_counts(overlap_size_sorted(a, b), a.len(), b.len())
}

/// Dice `2|A∩B| / (|A|+|B|)` on sorted distinct id slices.
pub fn dice_sorted(a: &[u32], b: &[u32]) -> f64 {
    dice_counts(overlap_size_sorted(a, b), a.len(), b.len())
}

/// Set cosine `|A∩B| / sqrt(|A|·|B|)` on sorted distinct id slices.
pub fn cosine_sorted(a: &[u32], b: &[u32]) -> f64 {
    cosine_counts(overlap_size_sorted(a, b), a.len(), b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn ids_of(cache: &TokenCache, s: &str) -> TokenIds {
        cache.token_ids(Some(s))
    }

    #[test]
    fn interner_round_trips() {
        let mut i = Interner::new();
        let a = i.intern("corn");
        let b = i.intern("fungicide");
        assert_ne!(a, b);
        assert_eq!(i.intern("corn"), a, "re-interning is idempotent");
        assert_eq!(i.resolve(a), Some("corn"));
        assert_eq!(i.get("fungicide"), Some(b));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn cache_dedups_and_re_tokenizes_to_the_same_ids() {
        let cache = TokenCache::for_blocking();
        let a = ids_of(&cache, "Corn corn CORN fungicide");
        assert_eq!(a.len(), 2, "distinct after lowercasing: {a:?}");
        let words: Vec<String> = a.iter().map(|&id| cache.resolve(id).unwrap()).collect();
        assert_eq!(words, ["corn", "fungicide"]);
        assert_eq!(ids_of(&cache, "Corn corn CORN fungicide"), a, "ids are stable across calls");
        assert_eq!(cache.n_tokens(), 2);
        assert!(cache.token_ids(None).is_empty());
    }

    #[test]
    fn ids_are_sorted() {
        let cache = TokenCache::for_blocking();
        // Interning order differs from sorted order here on purpose.
        ids_of(&cache, "zebra");
        let ids = ids_of(&cache, "zebra apple mango");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn corpus_tokenizes_each_row() {
        let cache = TokenCache::for_blocking();
        let col = [Some("Corn Fungicide"), None, Some("corn")];
        let corpus = TokenCorpus::from_column(&cache, col);
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.row(0).len(), 2);
        assert!(corpus.row(1).is_empty());
        assert_eq!(overlap_size_sorted(corpus.row(0), corpus.row(2)), 1);
        assert!(corpus.max_id().is_some());
    }

    #[test]
    fn pushed_corpus_equals_the_bulk_one() {
        let cache = TokenCache::for_blocking();
        let col = [Some("Corn Fungicide"), None, Some("corn"), Some("zebra apple")];
        let bulk = TokenCorpus::from_column(&cache, col);
        let mut grown = TokenCorpus::default();
        assert!(grown.is_empty() && grown.max_id().is_none());
        for (_, ids) in bulk.iter() {
            grown.push_row(ids);
        }
        assert_eq!(grown.len(), bulk.len());
        assert_eq!(grown.max_id(), bulk.max_id());
        assert!(grown.iter().zip(bulk.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn query_interns_like_the_cache_and_looks_up_without_interning() {
        let normalizer = Normalizer::for_blocking();
        let cache = TokenCache::for_blocking();
        let mut vocab = Interner::new();
        let mut q = TokenQuery::default();
        for text in [Some("Zebra apple, MANGO"), Some("apple apple"), Some(" -- "), None] {
            q.intern(&normalizer, &mut vocab, text);
            // Same tokenizer, same first-seen id assignment.
            assert_eq!(q.ids(), cache.token_ids(text).as_ref(), "{text:?}");
        }
        assert_eq!(vocab.len(), 3);
        // Known tokens keep their ids; the two distinct unknown ones get
        // ids past the vocabulary, once each, and nothing is interned.
        q.look_up(&normalizer, &vocab, Some("Mango kiwi KIWI fig zebra"));
        let (zebra, mango) = (vocab.get("zebra").unwrap(), vocab.get("mango").unwrap());
        assert_eq!(q.ids(), [zebra, mango, 3, 4]);
        assert_eq!((vocab.len(), vocab.get("kiwi")), (3, None));
        q.look_up(&normalizer, &vocab, None);
        assert!(q.ids().is_empty());
    }

    #[test]
    fn sorted_measures_match_string_measures() {
        let cache = TokenCache::new(Normalizer::none());
        let pairs = [
            ("a b c", "b c d"),
            ("lab supplies", "lab supplies extra"),
            ("x", "x"),
            ("one two", "three four"),
        ];
        for (x, y) in pairs {
            let (ia, ib) = (ids_of(&cache, x), ids_of(&cache, y));
            let (ta, tb) = (toks(x), toks(y));
            assert_eq!(overlap_size_sorted(&ia, &ib), set::overlap_size(&ta, &tb), "({x},{y})");
            assert_eq!(jaccard_sorted(&ia, &ib), set::jaccard(&ta, &tb), "({x},{y})");
            assert_eq!(
                overlap_coefficient_sorted(&ia, &ib),
                set::overlap_coefficient(&ta, &tb),
                "({x},{y})"
            );
            assert_eq!(dice_sorted(&ia, &ib), set::dice(&ta, &tb), "({x},{y})");
            assert_eq!(cosine_sorted(&ia, &ib), set::cosine(&ta, &tb), "({x},{y})");
        }
    }

    #[test]
    fn degenerate_conventions_preserved() {
        let empty: &[u32] = &[];
        let one: &[u32] = &[1];
        assert_eq!(jaccard_sorted(empty, empty), 1.0);
        assert_eq!(jaccard_sorted(empty, one), 0.0);
        assert_eq!(overlap_coefficient_sorted(empty, empty), 1.0);
        assert_eq!(overlap_coefficient_sorted(empty, one), 0.0);
        assert_eq!(dice_sorted(empty, empty), 1.0);
        assert_eq!(cosine_sorted(one, empty), 0.0);
    }
}
