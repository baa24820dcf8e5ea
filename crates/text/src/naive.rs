//! Textbook reference implementations of the sequence kernels.
//!
//! These are the original per-cell dynamic programs [`crate::seq`] shipped
//! before the similarity-kernel engine (bit-parallel Levenshtein + scratch
//! arena) replaced them on the hot path. They are kept — unoptimized and
//! allocation-happy — as the ground truth the fast kernels are
//! property-tested (`tests/prop.rs`) and timed (`profile_extract` with no
//! arguments) against: for every input, `seq::f == naive::f` must hold bit
//! for bit. No match path calls them.

/// Levenshtein edit distance, classic two-row DP. `O(|a|·|b|)` time.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein similarity: `1 - dist / max_len` (1.0 for two empty strings).
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaro similarity, allocating match and flag buffers per call.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> =
        b.iter().zip(&b_used).filter(|(_, used)| **used).map(|(c, _)| *c).collect();
    let transpositions =
        matches_a.iter().zip(&matches_b).filter(|(x, y)| x != y).count() / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity (`p = 0.1`, prefix capped at 4).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Needleman-Wunsch global alignment score, two-row DP.
pub fn needleman_wunsch(a: &str, b: &str, gap: f64) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<f64> = (0..=b.len()).map(|j| -(j as f64) * gap).collect();
    let mut cur = vec![0.0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = -((i + 1) as f64) * gap;
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { 1.0 } else { 0.0 };
            cur[j + 1] = diag.max(prev[j + 1] - gap).max(cur[j] - gap);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized Needleman-Wunsch similarity (gap 1, clamped at 0).
pub fn needleman_wunsch_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    (needleman_wunsch(a, b, 1.0).max(0.0)) / max_len as f64
}

/// Smith-Waterman local alignment score, two-row DP.
pub fn smith_waterman(a: &str, b: &str, gap: f64) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev = vec![0.0f64; b.len() + 1];
    let mut cur = vec![0.0f64; b.len() + 1];
    let mut best = 0.0f64;
    for ca in &a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { 1.0 } else { 0.0 };
            cur[j + 1] = diag.max(prev[j + 1] - gap).max(cur[j] - gap).max(0.0);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Normalized Smith-Waterman similarity (gap 1, shorter-length denominator).
pub fn smith_waterman_sim(a: &str, b: &str) -> f64 {
    let min_len = a.chars().count().min(b.chars().count());
    if min_len == 0 {
        return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
    }
    smith_waterman(a, b, 1.0) / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert!((jaro("MARTHA", "MARHTA") - 0.9444444444444445).abs() < 1e-12);
        assert!((needleman_wunsch("ab", "axb", 1.0) - 1.0).abs() < 1e-12);
        assert!((smith_waterman("xxhelloyy", "zzhellozz", 1.0) - 5.0).abs() < 1e-12);
    }
}
