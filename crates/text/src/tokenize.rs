//! Tokenizers: word-level and q-gram, the two shapes the case study uses
//! (word tokens for overlap blocking, 3-grams for Jaccard features).

use std::collections::HashSet;

/// Splits text into tokens.
///
/// Implementations are value types (cheap to copy) so feature generators can
/// embed them. Tokens are returned in order with duplicates preserved;
/// callers that need set semantics use [`token_set`].
pub trait Tokenizer {
    /// Tokenizes `s`. Empty inputs yield no tokens.
    fn tokenize(&self, s: &str) -> Vec<String>;

    /// A short stable name for reports and feature labels (e.g. `"ws"`,
    /// `"qgm_3"`).
    fn name(&self) -> String;
}

/// Whitespace tokenizer: splits on Unicode whitespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhitespaceTokenizer;

impl Tokenizer for WhitespaceTokenizer {
    fn tokenize(&self, s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }
    fn name(&self) -> String {
        "ws".to_string()
    }
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
    fn name(&self) -> String {
        "alnum".to_string()
    }
}

/// Character q-gram tokenizer.
///
/// With `padded = true` the string is framed with `q - 1` copies of `#` and
/// `$` (py_stringmatching's convention), so short strings still produce
/// discriminative grams; with `padded = false` strings shorter than `q`
/// produce a single whole-string token rather than nothing, which keeps
/// set similarities defined on short identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QgramTokenizer {
    /// Gram length (≥ 1).
    pub q: usize,
    /// Whether to frame the input with boundary padding characters.
    pub padded: bool,
}

impl QgramTokenizer {
    /// Unpadded q-grams of length `q` (the common feature-generation
    /// default: "Jaccard over 3-grams").
    pub fn new(q: usize) -> QgramTokenizer {
        QgramTokenizer { q: q.max(1), padded: false }
    }

    /// Padded q-grams of length `q`.
    pub fn padded(q: usize) -> QgramTokenizer {
        QgramTokenizer { q: q.max(1), padded: true }
    }
}

impl Tokenizer for QgramTokenizer {
    fn tokenize(&self, s: &str) -> Vec<String> {
        if s.is_empty() {
            return Vec::new();
        }
        let chars: Vec<char> = if self.padded {
            let pad = self.q - 1;
            std::iter::repeat_n('#', pad)
                .chain(s.chars())
                .chain(std::iter::repeat_n('$', pad))
                .collect()
        } else {
            s.chars().collect()
        };
        if chars.len() < self.q {
            return vec![chars.iter().collect()];
        }
        chars.windows(self.q).map(|w| w.iter().collect()).collect()
    }
    fn name(&self) -> String {
        if self.padded {
            format!("qgm_{}p", self.q)
        } else {
            format!("qgm_{}", self.q)
        }
    }
}

/// Delimiter tokenizer: splits on one specific character, preserving empty
/// interior segments' neighbours but dropping empty tokens. Used for the
/// `|`-separated employee-name lists of Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelimiterTokenizer {
    /// The delimiter character.
    pub delim: char,
}

impl Tokenizer for DelimiterTokenizer {
    fn tokenize(&self, s: &str) -> Vec<String> {
        s.split(self.delim)
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect()
    }
    fn name(&self) -> String {
        format!("delim_{}", self.delim)
    }
}

/// Deduplicated token set (the view set-similarity measures consume).
pub fn token_set(tokens: &[String]) -> HashSet<&str> {
    tokens.iter().map(String::as_str).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_splits() {
        assert_eq!(WhitespaceTokenizer.tokenize("a  b\tc"), vec!["a", "b", "c"]);
        assert!(WhitespaceTokenizer.tokenize("  ").is_empty());
    }

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
    fn qgrams_padded() {
        let toks = QgramTokenizer::padded(2).tokenize("ab");
        assert_eq!(toks, vec!["#a", "ab", "b$"]);
    }

    #[test]
    fn qgram_names() {
        assert_eq!(QgramTokenizer::new(3).name(), "qgm_3");
        assert_eq!(QgramTokenizer::padded(3).name(), "qgm_3p");
    }

    #[test]
    fn delimiter_trims_and_drops_empties() {
        let t = DelimiterTokenizer { delim: '|' };
        assert_eq!(t.tokenize("Smith, J | Doe, K ||"), vec!["Smith, J", "Doe, K"]);
    }

    #[test]
    fn token_set_dedups() {
        let toks = WhitespaceTokenizer.tokenize("a b a");
        assert_eq!(token_set(&toks).len(), 2);
    }

    #[test]
    fn qgram_q_clamped_to_one() {
        assert_eq!(QgramTokenizer::new(0).tokenize("ab"), vec!["a", "b"]);
    }
}
