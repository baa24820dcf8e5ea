//! # em-text — tokenizers and string similarity for entity matching
//!
//! Hand-rolled equivalents of py_stringmatching, covering every measure the
//! case study's feature generation and blocking use:
//!
//! - **Normalization** ([`normalize`]): the lowercase / strip-specials /
//!   collapse-whitespace pipeline applied before blocking.
//! - **Tokenizers** ([`tokenize`]): whitespace, word (alphanumeric), q-gram,
//!   and delimiter tokenizers.
//! - **Sequence similarity** ([`seq`]): Levenshtein, Damerau, Jaro,
//!   Jaro-Winkler, Needleman-Wunsch, Smith-Waterman, affine gap — backed by
//!   the similarity-kernel engine: Myers bit-parallel Levenshtein
//!   ([`myers`]) and a bit-parallel Jaro over one pattern-mask table, a
//!   reusable per-thread scratch arena ([`scratch`]), and
//!   `*_chars` kernels over pre-decoded slices. The original per-cell DPs
//!   live on in [`naive`] as the property-test reference.
//! - **Set similarity** ([`set`]): Jaccard, overlap, overlap coefficient,
//!   Dice, cosine, Tversky, Monge-Elkan.
//! - **Corpus-weighted similarity** ([`corpus`]): TF-IDF and soft TF-IDF.
//! - **Token interning** ([`intern`]): tokenize-once caches and `u32`
//!   token-id set measures backing the blockers' and features' hot paths.
//! - **Numeric comparators** ([`numeric`]): exact, absolute/relative
//!   difference, year gaps.
//! - **Phonetic encoding** ([`phonetic`]): American Soundex.
//!
//! ```
//! use em_text::tokenize::{QgramTokenizer, Tokenizer};
//! use em_text::set::jaccard;
//!
//! let t = QgramTokenizer::new(3);
//! let a = t.tokenize("corn fungicide");
//! let b = t.tokenize("corn fungicides");
//! assert!(jaccard(&a, &b) > 0.8);
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod fasthash;
pub mod intern;
pub mod myers;
pub mod naive;
pub mod normalize;
pub mod numeric;
pub mod phonetic;
pub mod scratch;
pub mod seq;
pub mod set;
pub mod tokenize;

pub use corpus::TfIdfCorpus;
pub use fasthash::{FastMap, FastSet};
pub use intern::{TokenCache, TokenCorpus};
pub use normalize::Normalizer;
pub use scratch::{with_scratch, KernelScratch, PatternMasks};
pub use tokenize::{
    AlphanumericTokenizer, DelimiterTokenizer, QgramTokenizer, Tokenizer, WhitespaceTokenizer,
};
