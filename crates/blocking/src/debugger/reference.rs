//! The pre-rewrite debugger, kept verbatim as the oracle the exact top-k
//! join in [`super`] is tested against: tokenize per pair, materialize every
//! surviving pair, sort, truncate.

use super::{BlockingDebugger, DebugPair};
use crate::candidate::{CandidateSet, Pair};
use crate::error::BlockError;
use em_table::Table;
use em_text::seq::jaro_winkler;
use em_text::set::jaccard;
use em_text::tokenize::{AlphanumericTokenizer, Tokenizer};
use std::collections::{HashMap, HashSet};

/// Scores one pair of normalized strings: the better of token Jaccard and
/// Jaro-Winkler (tokens catch word reorderings, JW catches short strings).
fn pair_score(a: &str, b: &str) -> f64 {
    let ta = AlphanumericTokenizer.tokenize(a);
    let tb = AlphanumericTokenizer.tokenize(b);
    if ta.is_empty() && tb.is_empty() {
        return 0.0; // two missing values carry no evidence of a match
    }
    jaccard(&ta, &tb).max(jaro_winkler(a, b))
}

/// The original scan: returns the `top_k` most match-like pairs that are in
/// `A × B` but **not** in `candidates`, ranked by decreasing score (ties
/// broken by pair order for determinism).
///
/// Pairs sharing no word token in any compared attribute are skipped — they
/// cannot outrank pairs that do, and skipping them is what makes the
/// debugger "fast" in the paper's sense (inverted-index candidate
/// generation rather than a Cartesian scan).
pub(crate) fn debug_blocking_naive(
    config: &BlockingDebugger,
    a: &Table,
    b: &Table,
    candidates: &CandidateSet,
) -> Result<Vec<DebugPair>, BlockError> {
    if config.attrs.is_empty() {
        return Err(BlockError::BadParameter("debugger needs >= 1 attribute pair".to_string()));
    }
    for (la, ra) in &config.attrs {
        a.schema().require(la)?;
        b.schema().require(ra)?;
    }

    // Normalized attribute texts.
    let norm = |t: &Table, attr: &str| -> Vec<String> {
        t.iter()
            .map(|r| r.str(attr).map(|s| config.normalizer.apply(s)).unwrap_or_default())
            .collect()
    };

    let mut survivors: HashSet<Pair> = HashSet::new();
    let mut texts: Vec<(Vec<String>, Vec<String>)> = Vec::with_capacity(config.attrs.len());
    for (la, ra) in &config.attrs {
        let left = norm(a, la);
        let right = norm(b, ra);
        // Inverted index on right tokens for this attribute.
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (j, text) in right.iter().enumerate() {
            for tok in AlphanumericTokenizer.tokenize(text) {
                index.entry(tok).or_default().push(j);
            }
        }
        for (i, text) in left.iter().enumerate() {
            let mut seen: HashSet<usize> = HashSet::new();
            for tok in AlphanumericTokenizer.tokenize(text) {
                if let Some(js) = index.get(&tok) {
                    seen.extend(js.iter().copied());
                }
            }
            for j in seen {
                let p = Pair::new(i, j);
                if !candidates.contains(&p) {
                    survivors.insert(p);
                }
            }
        }
        texts.push((left, right));
    }

    let mut scored: Vec<DebugPair> = survivors
        .into_iter()
        .map(|pair| {
            let score = texts
                .iter()
                .map(|(l, r)| pair_score(&l[pair.left], &r[pair.right]))
                .sum::<f64>()
                / texts.len() as f64;
            DebugPair { pair, score }
        })
        .collect();
    scored.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.pair.cmp(&y.pair))
    });
    scored.truncate(config.top_k);
    Ok(scored)
}
