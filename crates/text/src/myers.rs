//! Myers bit-parallel Levenshtein distance.
//!
//! The classic per-cell DP costs `O(n·m)` with a data-dependent branch per
//! cell. Myers' algorithm (G. Myers, *A fast bit-vector algorithm for
//! approximate string matching based on dynamic programming*, JACM 1999)
//! encodes a whole DP column's vertical deltas in two machine words (`VP`,
//! `VN`) and advances one text character with ~15 word operations — a
//! 64-cells-per-step data-parallel evaluation of the exact same recurrence,
//! so the distance is **exact**, not approximate.
//!
//! For patterns longer than 64 chars the block-based extension (Hyyrö 2003,
//! as implemented in tools like Edlib) chains `⌈m/64⌉` blocks per column,
//! propagating a horizontal delta `hin ∈ {-1, 0, +1}` bottom-up.
//!
//! Two distance-preserving short-cuts run first: the common prefix and
//! suffix are trimmed (they contribute no edits), and once either trimmed
//! side is empty the length difference *is* the distance — the degenerate
//! band where no alignment choice remains. All working memory (the
//! [`PatternMasks`](crate::scratch::PatternMasks) table it shares with the
//! bit-parallel Jaro, block vectors) lives in the caller's [`KernelScratch`].

use crate::scratch::{KernelScratch, WORD};

/// Exact Levenshtein distance between two char slices.
///
/// Equivalent to [`crate::naive::levenshtein`] on every input (pinned by
/// the property suite in `tests/prop.rs`); allocation-free after scratch
/// warm-up.
pub fn distance(scratch: &mut KernelScratch, a: &[char], b: &[char]) -> usize {
    // Trim the common prefix and suffix: neither affects the distance.
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    // The shorter side is the pattern (fewer blocks); distance is symmetric.
    let (pat, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pat.is_empty() {
        // Length difference bounds — and here equals — the distance.
        return text.len();
    }
    if pat.len() <= WORD {
        single_block(scratch, pat, text)
    } else {
        multi_block(scratch, pat, text)
    }
}

/// Patterns up to 64 chars: the original single-word recurrence. The top
/// boundary (row 0 of the DP matrix) always increases rightward, realized
/// by the `| 1` carried into `Ph` each column.
fn single_block(s: &mut KernelScratch, pat: &[char], text: &[char]) -> usize {
    s.masks.build(pat);
    let m = pat.len();
    let high = 1u64 << (m - 1);
    let mut vp = !0u64;
    let mut vn = 0u64;
    let mut score = m;
    for &c in text {
        let eq = s.masks.get(c, 0);
        let xv = eq | vn;
        let xh = (((eq & vp).wrapping_add(vp)) ^ vp) | eq;
        let mut ph = vn | !(xh | vp);
        let mut mh = vp & xh;
        if ph & high != 0 {
            score += 1;
        } else if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        vp = mh | !(xv | ph);
        vn = ph & xv;
    }
    score
}

/// Patterns over 64 chars: `⌈m/64⌉` chained blocks per text char. Each
/// block consumes the horizontal delta `hin` coming out of the block below
/// and emits its own at its top row; the last block's delta (read at the
/// pattern's final bit, not bit 63, when the block is partial) tracks the
/// bottom-row score. Bits above the pattern end never feed back into live
/// bits — word-add carries only propagate upward — so the partial block
/// needs no masking.
fn multi_block(s: &mut KernelScratch, pat: &[char], text: &[char]) -> usize {
    let m = pat.len();
    let words = m.div_ceil(WORD);
    s.masks.build(pat);
    s.vp.clear();
    s.vp.resize(words, !0u64);
    s.vn.clear();
    s.vn.resize(words, 0);
    let last = words - 1;
    let last_high = 1u64 << ((m - 1) % WORD);
    let mut score = m as i64;
    for &c in text {
        let mut hin: i32 = 1; // row 0 grows rightward
        for w in 0..words {
            let eq = s.masks.get(c, w);
            let vp = s.vp[w];
            let vn = s.vn[w];
            let xv = eq | vn;
            let eq2 = eq | u64::from(hin < 0);
            let xh = (((eq2 & vp).wrapping_add(vp)) ^ vp) | eq2;
            let mut ph = vn | !(xh | vp);
            let mut mh = vp & xh;
            let high = if w == last { last_high } else { 1u64 << (WORD - 1) };
            let hout = if ph & high != 0 {
                1
            } else if mh & high != 0 {
                -1
            } else {
                0
            };
            ph <<= 1;
            mh <<= 1;
            match hin.cmp(&0) {
                std::cmp::Ordering::Less => mh |= 1,
                std::cmp::Ordering::Greater => ph |= 1,
                std::cmp::Ordering::Equal => {}
            }
            s.vp[w] = mh | !(xv | ph);
            s.vn[w] = ph & xv;
            hin = hout;
        }
        score += i64::from(hin);
    }
    score as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn dist(a: &str, b: &str) -> usize {
        let mut s = KernelScratch::new();
        let ca: Vec<char> = a.chars().collect();
        let cb: Vec<char> = b.chars().collect();
        distance(&mut s, &ca, &cb)
    }

    #[test]
    fn known_values() {
        assert_eq!(dist("kitten", "sitting"), 3);
        assert_eq!(dist("", "abc"), 3);
        assert_eq!(dist("abc", ""), 3);
        assert_eq!(dist("abc", "abc"), 0);
        assert_eq!(dist("flaw", "lawn"), 2);
        assert_eq!(dist("", ""), 0);
    }

    #[test]
    fn unicode_pattern_chars() {
        assert_eq!(dist("café", "cafe"), 1);
        assert_eq!(dist("naïve", "naive"), 1);
        assert_eq!(dist("日本語の見出し", "日本語の題名"), 3);
    }

    #[test]
    fn crosses_the_block_boundary() {
        // 63-, 64-, 65-, 130-char patterns around the 64-bit word edge.
        for n in [63usize, 64, 65, 100, 130] {
            let a: String = "ab".chars().cycle().take(n).collect();
            let mut b = a.clone();
            b.replace_range(0..1, "x"); // one substitution at the head
            assert_eq!(dist(&a, &b), naive::levenshtein(&a, &b), "n={n}");
            let b2: String = a.chars().rev().collect();
            assert_eq!(dist(&a, &b2), naive::levenshtein(&a, &b2), "rev n={n}");
        }
    }

    #[test]
    fn long_asymmetric_inputs() {
        let a = "the quick brown fox jumps over the lazy dog and keeps running far beyond the fence line";
        let b = "a quick brown fox jumped over a lazy dog and kept running well beyond that old fence";
        assert_eq!(dist(a, b), naive::levenshtein(a, b));
        assert_eq!(dist(b, a), naive::levenshtein(b, a));
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let mut s = KernelScratch::new();
        let pairs = [("grant title", "grant titel"), ("", "x"), ("lévénshtein", "levenshtein")];
        for (a, b) in pairs {
            let ca: Vec<char> = a.chars().collect();
            let cb: Vec<char> = b.chars().collect();
            let first = distance(&mut s, &ca, &cb);
            let second = distance(&mut s, &ca, &cb);
            assert_eq!(first, second);
            assert_eq!(first, naive::levenshtein(a, b));
        }
    }
}
