//! Tokenizers: word-level and q-gram, the two shapes the case study uses
//! (word tokens for overlap blocking, 3-grams for Jaccard features).

/// Splits text into tokens.
///
/// Implementations are value types (cheap to copy) so feature generators can
/// embed them. Tokens are returned in order with duplicates preserved; the
/// [`crate::set`] measures collapse them.
pub trait Tokenizer {
    /// Tokenizes `s`. Empty inputs yield no tokens.
    fn tokenize(&self, s: &str) -> Vec<String>;
}

/// Alphanumeric (word) tokenizer: maximal runs of alphanumeric characters.
/// This is the "word-level tokenizer" of Section 7 — punctuation separates
/// tokens even without whitespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlphanumericTokenizer;

impl AlphanumericTokenizer {
    /// Visits each token as a borrowed slice of `s` without allocating.
    /// Tokens are maximal alphanumeric runs, so each one is a contiguous
    /// byte range of the input. This is the bulk-tokenization hot path
    /// ([`Tokenizer::tokenize`] delegates to it), kept in one place so the
    /// allocating and borrowing views can never disagree.
    pub fn for_each_token<'a>(&self, s: &'a str, mut f: impl FnMut(&'a str)) {
        self.for_each_token_range(s, |b, e| f(&s[b..e]));
    }

    /// [`for_each_token`](Self::for_each_token) by byte range `start..end`
    /// of `s`, for callers that keep offsets into a buffer they own.
    pub fn for_each_token_range(&self, s: &str, mut f: impl FnMut(usize, usize)) {
        let mut start = None;
        for (i, c) in s.char_indices() {
            if c.is_alphanumeric() {
                start.get_or_insert(i);
            } else if let Some(b) = start.take() {
                f(b, i);
            }
        }
        if let Some(b) = start {
            f(b, s.len());
        }
    }
}

impl Tokenizer for AlphanumericTokenizer {
    fn tokenize(&self, s: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(s, |t| tokens.push(t.to_string()));
        tokens
    }
}

/// Character q-gram tokenizer, unpadded: strings shorter than `q` produce a
/// single whole-string token rather than nothing, which keeps set
/// similarities defined on short identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QgramTokenizer {
    /// Gram length (≥ 1).
    pub q: usize,
}

impl QgramTokenizer {
    /// Q-grams of length `q` (the feature-generation default: "Jaccard over
    /// 3-grams").
    pub fn new(q: usize) -> QgramTokenizer {
        QgramTokenizer { q: q.max(1) }
    }
}

impl Tokenizer for QgramTokenizer {
    fn tokenize(&self, s: &str) -> Vec<String> {
        if s.is_empty() {
            return Vec::new();
        }
        let chars: Vec<char> = s.chars().collect();
        if chars.len() < self.q {
            return vec![chars.iter().collect()];
        }
        chars.windows(self.q).map(|w| w.iter().collect()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alnum_splits_on_punctuation() {
        assert_eq!(
            AlphanumericTokenizer.tokenize("IPM-Based (Corn)"),
            vec!["IPM", "Based", "Corn"]
        );
    }

    #[test]
    fn alnum_for_each_matches_tokenize() {
        // Multi-byte chars, leading/trailing runs, and empty inputs all
        // agree between the borrowing and allocating views.
        for s in ["IPM-Based (Corn)", "café σ12!end", "", "---", "a", " x "] {
            let mut seen = Vec::new();
            AlphanumericTokenizer.for_each_token(s, |t| seen.push(t.to_string()));
            assert_eq!(seen, AlphanumericTokenizer.tokenize(s), "{s:?}");
        }
    }

    #[test]
    fn qgrams_basic() {
        assert_eq!(QgramTokenizer::new(3).tokenize("abcd"), vec!["abc", "bcd"]);
    }

    #[test]
    fn qgrams_short_string_yields_whole() {
        assert_eq!(QgramTokenizer::new(3).tokenize("ab"), vec!["ab"]);
        assert!(QgramTokenizer::new(3).tokenize("").is_empty());
    }

    #[test]
    fn qgram_q_clamped_to_one() {
        assert_eq!(QgramTokenizer::new(0).tokenize("ab"), vec!["a", "b"]);
    }
}
