//! Sequence (character-level) similarity measures: edit distances and
//! alignment scores. These back the string features PyMatcher generates
//! automatically (edit distance, Jaro, Jaro-Winkler, Needleman-Wunsch,
//! Smith-Waterman).
//!
//! All `*_sim` functions return a similarity in `[0, 1]` with `1` meaning
//! identical; two empty strings are defined to have similarity `1`.
//!
//! Every measure comes in two tiers of the similarity-kernel engine:
//!
//! - `f_chars(scratch, a, b)` — the real kernel on pre-decoded `&[char]`
//!   slices and a caller-held [`KernelScratch`], what the feature
//!   extractor's per-row normalization cache feeds so per-pair work never
//!   decodes or allocates;
//! - `f(a: &str, b: &str)` — the same kernel behind one private decode
//!   step into the calling thread's scratch: what `Feature::compute`, the
//!   reference feature path, and the tests call.
//!
//! Levenshtein runs on the Myers bit-parallel engine ([`crate::myers`]),
//! Jaro on a bit-parallel match scan over the same pattern-mask table; the
//! DP kernels reuse scratch rows instead of allocating. All of them are
//! bit-for-bit equivalent to the retained reference implementations
//! in [`crate::naive`], enforced by the property suite in `tests/prop.rs`.

use crate::myers;
use crate::scratch::{with_scratch, KernelScratch, PatternMasks, WORD};

/// Runs `kernel` on the chars of `a` and `b`, decoded into the calling
/// thread's [`KernelScratch`]: the one step between every `&str` entry
/// point and its `*_chars` kernel.
fn on_chars<R>(
    a: &str,
    b: &str,
    kernel: impl FnOnce(&mut KernelScratch, &[char], &[char]) -> R,
) -> R {
    with_scratch(|s| {
        let (ca, cb) = s.take_decoded(a, b);
        let out = kernel(s, &ca, &cb);
        s.return_decoded(ca, cb);
        out
    })
}

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
/// Myers bit-parallel: `O(⌈min(n,m)/64⌉·max(n,m))` time after prefix/suffix
/// trimming, no allocation on the hot path.
pub fn levenshtein(a: &str, b: &str) -> usize {
    on_chars(a, b, levenshtein_chars)
}

/// [`levenshtein`] on pre-decoded char slices.
pub fn levenshtein_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> usize {
    myers::distance(scratch, a, b)
}

/// Levenshtein similarity: `1 - dist / max_len` (1.0 for two empty strings).
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    on_chars(a, b, levenshtein_sim_chars)
}

/// [`levenshtein_sim`] on pre-decoded char slices.
pub fn levenshtein_sim_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(scratch, a, b) as f64 / max_len as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    on_chars(a, b, jaro_chars)
}

/// [`jaro`] on pre-decoded char slices: bit-parallel and exact. The greedy
/// scan of the reference implementation picks, for each `a[i]` in order,
/// the lowest unmatched `j` in `[i − w, i + w]` with `b[j] == a[i]`; with
/// `b`'s [`PatternMasks`] and the matched positions of `b` as a bitset that
/// `j` is the lowest set bit of `masks[a[i]] & window & !matched` — no scan.
/// The match sets, and so `m` and the transposition count, are the scan's,
/// and the closing expression is its own: every value is bit-equal to
/// [`crate::naive::jaro`].
pub fn jaro_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> f64 {
    let KernelScratch { masks, flags_a, flags_b, .. } = scratch;
    masks.build(b);
    jaro_on_masks((masks, 0), (flags_a, flags_b), a, b)
}

/// [`jaro_chars`] against a right-hand string whose masks the caller built
/// — once, for any number of left-hand strings: `b` is the string `masks`
/// holds in `lane` (lane 0 of a table [built](PatternMasks::build) from
/// `b` alone).
///
/// # Panics
/// If `masks` has no such lane, or one too narrow for `b`.
pub fn jaro_chars_masked(
    scratch: &mut KernelScratch,
    a: &[char],
    b: &[char],
    (masks, lane): (&PatternMasks, usize),
) -> f64 {
    let first = masks.lane(lane, b.len());
    jaro_on_masks((masks, first), (&mut scratch.flags_a, &mut scratch.flags_b), a, b)
}

/// Jaro of `a` and `b` given `b`'s masks (its lane starting at word
/// `first`): one flag word a side while both strings fit one, `⌈len/64⌉`
/// words a side (in `flags`) above.
fn jaro_on_masks(
    masks: (&PatternMasks, usize),
    (fa, fb): (&mut Vec<u64>, &mut Vec<u64>),
    a: &[char],
    b: &[char],
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (m, mismatched) = if a.len() <= WORD && b.len() <= WORD {
        single_word(masks, window, a, b)
    } else {
        multi_word(masks, window, (fa, fb), a, b)
    };
    if m == 0 {
        return 0.0;
    }
    // The reference implementation's closing expression, operation for
    // operation.
    let transpositions = mismatched / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The greedy match scan and the transposition walk for strings of at most
/// 64 chars, the matched positions of each side in one word: the number of
/// matches, and of matched chars that differ from their counterpart.
fn single_word(
    (masks, first): (&PatternMasks, usize),
    window: usize,
    a: &[char],
    b: &[char],
) -> (usize, usize) {
    let (mut fa, mut fb) = (0u64, 0u64);
    for (i, &c) in a.iter().enumerate() {
        // Bits `i − w ..= i + w`; no mask has a bit past its string's end.
        let lo = i.saturating_sub(window);
        let hi = (i + window).min(WORD - 1);
        let in_window = (!0u64 << lo) & (!0u64 >> (WORD - 1 - hi));
        let open = masks.get(c, first) & in_window & !fb;
        // Branch-free: the lowest open bit, or none.
        fb |= open & open.wrapping_neg();
        fa |= u64::from(open != 0) << i;
    }
    // The `k`-th matched char of `a` meets the `k`-th matched char of `b`:
    // the reference's `matches_a` zipped with `matches_b`.
    let (m, mut mismatched) = (fb.count_ones() as usize, 0);
    while fa != 0 {
        let (i, j) = (fa.trailing_zeros() as usize, fb.trailing_zeros() as usize);
        mismatched += usize::from(a[i] != b[j]);
        fa &= fa - 1;
        fb &= fb - 1;
    }
    (m, mismatched)
}

/// [`single_word`] for longer strings, the matched positions of `a` in
/// `fa` and of `b` in `fb`.
fn multi_word(
    (masks, first): (&PatternMasks, usize),
    window: usize,
    (fa, fb): (&mut Vec<u64>, &mut Vec<u64>),
    a: &[char],
    b: &[char],
) -> (usize, usize) {
    fa.clear();
    fa.resize(a.len().div_ceil(WORD), 0);
    fb.clear();
    fb.resize(b.len().div_ceil(WORD), 0);
    for (i, &c) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        if lo >= b.len() {
            // The window has left `b`, and only moves right from here.
            break;
        }
        let hi = (i + window).min(b.len() - 1);
        let (w_lo, w_hi) = (lo / WORD, hi / WORD);
        for (w, matched) in fb.iter_mut().enumerate().take(w_hi + 1).skip(w_lo) {
            let mut open = masks.get(c, first + w) & !*matched;
            if w == w_lo {
                open &= !0u64 << (lo % WORD);
            }
            if w == w_hi {
                open &= !0u64 >> (WORD - 1 - hi % WORD);
            }
            if open != 0 {
                *matched |= open & open.wrapping_neg();
                fa[i / WORD] |= 1 << (i % WORD);
                break;
            }
        }
    }
    let m = fb.iter().map(|w| w.count_ones() as usize).sum();
    let mismatched = ones(fa).zip(ones(fb)).filter(|&(i, j)| a[i] != b[j]).count();
    (m, mismatched)
}

/// Positions of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        let rest = |r: &u64| Some(r & (r - 1)).filter(|&r| r != 0);
        std::iter::successors(Some(bits).filter(|&r| r != 0), rest)
            .map(move |r| w * WORD + r.trailing_zeros() as usize)
    })
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and a
/// maximum rewarded prefix of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    on_chars(a, b, jaro_winkler_chars)
}

/// [`jaro_winkler`] on pre-decoded char slices.
pub fn jaro_winkler_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> f64 {
    jaro_winkler_boost(jaro_chars(scratch, a, b), a, b)
}

/// [`jaro_winkler_chars`] against a right-hand string whose masks the
/// caller built — see [`jaro_chars_masked`].
pub fn jaro_winkler_chars_masked(
    scratch: &mut KernelScratch,
    a: &[char],
    b: &[char],
    masks: (&PatternMasks, usize),
) -> f64 {
    jaro_winkler_boost(jaro_chars_masked(scratch, a, b, masks), a, b)
}

/// The Winkler prefix boost applied to `j`, the Jaro similarity of `a` and
/// `b` — the second half of [`jaro_winkler_chars`], for callers that
/// already hold the Jaro value.
pub fn jaro_winkler_boost(j: f64, a: &[char], b: &[char]) -> f64 {
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Needleman-Wunsch global alignment score with unit match reward,
/// zero mismatch reward, and linear gap cost `gap`. Can be negative.
pub fn needleman_wunsch(a: &str, b: &str, gap: f64) -> f64 {
    on_chars(a, b, |s, a, b| needleman_wunsch_chars(s, a, b, gap))
}

/// [`needleman_wunsch`] on pre-decoded char slices using scratch DP rows.
pub fn needleman_wunsch_chars(
    scratch: &mut KernelScratch,
    a: &[char],
    b: &[char],
    gap: f64,
) -> f64 {
    let mut prev = std::mem::take(&mut scratch.frow0);
    let mut cur = std::mem::take(&mut scratch.frow1);
    prev.clear();
    prev.extend((0..=b.len()).map(|j| -(j as f64) * gap));
    cur.clear();
    cur.resize(b.len() + 1, 0.0);
    for (i, ca) in a.iter().enumerate() {
        cur[0] = -((i + 1) as f64) * gap;
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { 1.0 } else { 0.0 };
            cur[j + 1] = diag.max(prev[j + 1] - gap).max(cur[j] - gap);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let out = prev[b.len()];
    scratch.frow0 = prev;
    scratch.frow1 = cur;
    out
}

/// Needleman-Wunsch similarity: score with `gap = 1`, clamped at 0 and
/// normalized by the longer length (1.0 for two empty strings).
pub fn needleman_wunsch_sim(a: &str, b: &str) -> f64 {
    on_chars(a, b, needleman_wunsch_sim_chars)
}

/// [`needleman_wunsch_sim`] on pre-decoded char slices.
pub fn needleman_wunsch_sim_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    (needleman_wunsch_chars(scratch, a, b, 1.0).max(0.0)) / max_len as f64
}

/// Smith-Waterman local alignment score with unit match reward, zero
/// mismatch reward, and linear gap cost `gap`. Non-negative by construction.
pub fn smith_waterman(a: &str, b: &str, gap: f64) -> f64 {
    on_chars(a, b, |s, a, b| smith_waterman_chars(s, a, b, gap))
}

/// [`smith_waterman`] on pre-decoded char slices using scratch DP rows.
pub fn smith_waterman_chars(scratch: &mut KernelScratch, a: &[char], b: &[char], gap: f64) -> f64 {
    let mut prev = std::mem::take(&mut scratch.frow0);
    let mut cur = std::mem::take(&mut scratch.frow1);
    prev.clear();
    prev.resize(b.len() + 1, 0.0);
    cur.clear();
    cur.resize(b.len() + 1, 0.0);
    let mut best = 0.0f64;
    for ca in a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { 1.0 } else { 0.0 };
            cur[j + 1] = diag.max(prev[j + 1] - gap).max(cur[j] - gap).max(0.0);
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    scratch.frow0 = prev;
    scratch.frow1 = cur;
    best
}

/// Smith-Waterman similarity: score with `gap = 1` normalized by the shorter
/// length — the best local alignment cannot exceed it (1.0 for two empties).
pub fn smith_waterman_sim(a: &str, b: &str) -> f64 {
    on_chars(a, b, smith_waterman_sim_chars)
}

/// [`smith_waterman_sim`] on pre-decoded char slices.
pub fn smith_waterman_sim_chars(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> f64 {
    let min_len = a.len().min(b.len());
    if min_len == 0 {
        return if a.is_empty() && b.is_empty() { 1.0 } else { 0.0 };
    }
    smith_waterman_chars(scratch, a, b, 1.0) / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("ca", "ac"), 2);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        close(levenshtein_sim("", ""), 1.0);
        close(levenshtein_sim("abc", "abc"), 1.0);
        close(levenshtein_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        close(jaro("MARTHA", "MARHTA"), 0.9444444444444445);
        close(jaro("DIXON", "DICKSONX"), 0.7666666666666666);
        close(jaro("", ""), 1.0);
        close(jaro("a", ""), 0.0);
        close(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        close(jaro_winkler("MARTHA", "MARHTA"), 0.9611111111111111);
        close(jaro_winkler("DWAYNE", "DUANE"), 0.8400000000000001);
        assert!(jaro_winkler("prefix", "pref") > jaro("prefix", "pref"));
    }

    #[test]
    fn nw_identical_and_disjoint() {
        close(needleman_wunsch("abc", "abc", 1.0), 3.0);
        close(needleman_wunsch_sim("abc", "abc"), 1.0);
        assert!(needleman_wunsch("abc", "xyz", 1.0) <= 0.0);
        close(needleman_wunsch_sim("", ""), 1.0);
    }

    #[test]
    fn nw_gap_cost_applied() {
        // align "ab" with "axb": one gap → 2 matches - 1 gap = 1
        close(needleman_wunsch("ab", "axb", 1.0), 1.0);
    }

    #[test]
    fn sw_finds_local_match() {
        close(smith_waterman("xxhelloyy", "zzhellozz", 1.0), 5.0);
        close(smith_waterman_sim("abc", "abc"), 1.0);
        close(smith_waterman_sim("", "a"), 0.0);
        close(smith_waterman_sim("", ""), 1.0);
    }

    #[test]
    fn all_sims_symmetric() {
        for (a, b) in [("grant title", "grant titel"), ("WIS01040", "WIS04059"), ("", "x")] {
            close(levenshtein_sim(a, b), levenshtein_sim(b, a));
            close(jaro(a, b), jaro(b, a));
            close(jaro_winkler(a, b), jaro_winkler(b, a));
            close(needleman_wunsch_sim(a, b), needleman_wunsch_sim(b, a));
            close(smith_waterman_sim(a, b), smith_waterman_sim(b, a));
        }
    }

    #[test]
    fn unicode_safe() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert!(jaro("naïve", "naive") > 0.8);
    }

    /// The `*_chars` kernels on one caller-held scratch, reused across
    /// inputs, agree with the `&str` entry points on the thread's own.
    #[test]
    fn explicit_scratch_matches_wrappers() {
        let mut s = KernelScratch::new();
        for (a, b) in [("corn fungicide", "corn fungicides"), ("", "x"), ("Lab Supplies", "Lab Supplies")] {
            let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            assert_eq!(levenshtein_chars(&mut s, &ca, &cb), levenshtein(a, b));
            assert_eq!(jaro_chars(&mut s, &ca, &cb).to_bits(), jaro(a, b).to_bits());
            assert_eq!(
                jaro_winkler_chars(&mut s, &ca, &cb).to_bits(),
                jaro_winkler(a, b).to_bits()
            );
            assert_eq!(
                needleman_wunsch_sim_chars(&mut s, &ca, &cb).to_bits(),
                needleman_wunsch_sim(a, b).to_bits()
            );
            assert_eq!(
                smith_waterman_sim_chars(&mut s, &ca, &cb).to_bits(),
                smith_waterman_sim(a, b).to_bits()
            );
        }
    }
}
