//! # em-text — tokenizers and string similarity for entity matching
//!
//! Hand-rolled equivalents of the py_stringmatching measures the case
//! study's feature generation and blocking call, and nothing else:
//!
//! - **Normalization** ([`normalize`]): the lowercase / strip-specials /
//!   collapse-whitespace pipeline applied before blocking.
//! - **Tokenizers** ([`tokenize`]): word (alphanumeric) and q-gram.
//! - **Sequence similarity** ([`seq`]): Levenshtein, Jaro, Jaro-Winkler,
//!   Needleman-Wunsch, Smith-Waterman — backed by the similarity-kernel
//!   engine: Myers bit-parallel Levenshtein ([`myers`]) and a bit-parallel
//!   Jaro over one pattern-mask table, a reusable per-thread scratch arena
//!   ([`scratch`]), and `*_chars` kernels over pre-decoded slices. The
//!   original per-cell DPs live on in [`naive`] as the property-test
//!   reference.
//! - **Set similarity** ([`set`]): Jaccard, overlap, overlap coefficient,
//!   Dice, cosine, Monge-Elkan.
//! - **Token interning** ([`intern`]): tokenize-once caches and `u32`
//!   token-id set measures backing the blockers' and features' hot paths.
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
#![deny(unsafe_code)]

pub mod fasthash;
pub mod intern;
pub mod myers;
pub mod naive;
pub mod normalize;
pub mod phonetic;
pub mod scratch;
pub mod seq;
pub mod set;
pub mod tokenize;

pub use fasthash::{FastMap, FastSet};
pub use intern::{TokenCache, TokenCorpus};
pub use normalize::Normalizer;
pub use scratch::{KernelScratch, PatternMasks};
pub use tokenize::{AlphanumericTokenizer, QgramTokenizer, Tokenizer};
