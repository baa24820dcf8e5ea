//! Token-set similarity measures: Jaccard, overlap, overlap coefficient,
//! Dice, cosine, and Monge-Elkan.
//!
//! These operate on pre-tokenized inputs (slices of tokens) using **set**
//! semantics — duplicates are collapsed, matching py_stringmatching and the
//! paper's blockers (the overlap blocker counts *shared tokens*, and
//! `overlap_coefficient(X, Y) = |X ∩ Y| / min(|X|, |Y|)` per Section 7).
//!
//! Conventions for degenerate inputs: two empty token lists have similarity
//! `1.0` (identical), one empty and one non-empty have `0.0`.

use std::collections::HashSet;

fn sets<'a>(a: &'a [String], b: &'a [String]) -> (HashSet<&'a str>, HashSet<&'a str>) {
    (
        a.iter().map(String::as_str).collect(),
        b.iter().map(String::as_str).collect(),
    )
}

fn intersection_size(a: &HashSet<&str>, b: &HashSet<&str>) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().filter(|t| large.contains(*t)).count()
}

/// Number of shared distinct tokens, `|A ∩ B|` — what the overlap blocker
/// thresholds on.
pub fn overlap_size(a: &[String], b: &[String]) -> usize {
    let (sa, sb) = sets(a, b);
    intersection_size(&sa, &sb)
}

/// Jaccard similarity `|A ∩ B| / |A ∪ B|`.
pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (sa, sb) = sets(a, b);
    let inter = intersection_size(&sa, &sb);
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` — the blocker of
/// Section 7 step 3, robust to very short titles.
pub fn overlap_coefficient(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (sa, sb) = sets(a, b);
    intersection_size(&sa, &sb) as f64 / sa.len().min(sb.len()) as f64
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`.
pub fn dice(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (sa, sb) = sets(a, b);
    let denom = sa.len() + sb.len();
    if denom == 0 {
        1.0
    } else {
        2.0 * intersection_size(&sa, &sb) as f64 / denom as f64
    }
}

/// Set cosine (Ochiai) `|A ∩ B| / sqrt(|A| · |B|)`.
pub fn cosine(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (sa, sb) = sets(a, b);
    intersection_size(&sa, &sb) as f64 / ((sa.len() * sb.len()) as f64).sqrt()
}

/// Monge-Elkan: mean over tokens of `a` of the best `inner` similarity to
/// any token of `b`. Asymmetric; see [`monge_elkan_sym`] for the symmetric
/// average. `0.0` when `a` is empty and `b` is not; `1.0` for two empties.
pub fn monge_elkan<F: Fn(&str, &str) -> f64>(a: &[String], b: &[String], inner: F) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let total: f64 = a
        .iter()
        .map(|ta| {
            b.iter()
                .map(|tb| inner(ta, tb))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .sum();
    total / a.len() as f64
}

/// Symmetric Monge-Elkan: the mean of both directed scores.
pub fn monge_elkan_sym<F: Fn(&str, &str) -> f64 + Copy>(
    a: &[String],
    b: &[String],
    inner: F,
) -> f64 {
    (monge_elkan(a, b, inner) + monge_elkan(b, a, inner)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::jaro_winkler;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn jaccard_known() {
        close(jaccard(&toks("a b c"), &toks("b c d")), 0.5);
        close(jaccard(&toks("a"), &toks("a")), 1.0);
        close(jaccard(&toks(""), &toks("")), 1.0);
        close(jaccard(&toks("a"), &toks("")), 0.0);
    }

    #[test]
    fn jaccard_uses_set_semantics() {
        close(jaccard(&toks("a a b"), &toks("a b")), 1.0);
    }

    #[test]
    fn overlap_size_counts_distinct_shared() {
        assert_eq!(overlap_size(&toks("a b c c"), &toks("c b z")), 2);
        assert_eq!(overlap_size(&toks(""), &toks("x")), 0);
    }

    #[test]
    fn overlap_coefficient_known() {
        // paper Section 7: |X∩Y| / min(|X|,|Y|)
        close(overlap_coefficient(&toks("lab supplies"), &toks("lab supplies extra")), 1.0);
        close(overlap_coefficient(&toks("a b"), &toks("b c d")), 0.5);
        close(overlap_coefficient(&toks(""), &toks("")), 1.0);
        close(overlap_coefficient(&toks(""), &toks("a")), 0.0);
    }

    #[test]
    fn overlap_coefficient_ge_jaccard() {
        for (x, y) in [("a b c", "b c d"), ("a", "a b c d"), ("q w e", "e")] {
            assert!(overlap_coefficient(&toks(x), &toks(y)) >= jaccard(&toks(x), &toks(y)));
        }
    }

    #[test]
    fn dice_known() {
        close(dice(&toks("a b"), &toks("b c")), 0.5);
        close(dice(&toks(""), &toks("")), 1.0);
    }

    #[test]
    fn cosine_known() {
        close(cosine(&toks("a b c d"), &toks("a")), 0.5);
        close(cosine(&toks("a"), &toks("")), 0.0);
    }

    #[test]
    fn monge_elkan_exact_inner() {
        let inner = |x: &str, y: &str| f64::from(x == y);
        close(monge_elkan(&toks("a b"), &toks("a z"), inner), 0.5);
        close(monge_elkan(&toks(""), &toks(""), inner), 1.0);
        close(monge_elkan(&toks("a"), &toks(""), inner), 0.0);
    }

    #[test]
    fn monge_elkan_is_asymmetric_sym_fixes() {
        let a = toks("development of guidelines");
        let b = toks("development");
        let me_ab = monge_elkan(&a, &b, jaro_winkler);
        let me_ba = monge_elkan(&b, &a, jaro_winkler);
        assert!(me_ba > me_ab);
        let sym = monge_elkan_sym(&a, &b, jaro_winkler);
        close(sym, (me_ab + me_ba) / 2.0);
    }

    #[test]
    fn all_in_unit_interval() {
        let pairs = [
            ("corn fungicide guidelines", "corn guidelines"),
            ("", "x y"),
            ("a a a", "a"),
        ];
        for (x, y) in pairs {
            for v in [
                jaccard(&toks(x), &toks(y)),
                overlap_coefficient(&toks(x), &toks(y)),
                dice(&toks(x), &toks(y)),
                cosine(&toks(x), &toks(y)),
            ] {
                assert!((0.0..=1.0).contains(&v), "{v} out of range for ({x}, {y})");
            }
        }
    }
}
