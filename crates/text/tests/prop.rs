//! Property-based tests for similarity-measure invariants, plus the
//! equivalence suite pinning the similarity-kernel engine ([`em_text::seq`],
//! [`em_text::myers`]) bit-for-bit against the retained reference
//! implementations in [`em_text::naive`].

use em_text::seq::*;
use em_text::set::*;
use em_text::tokenize::{QgramTokenizer, Tokenizer};
use em_text::{naive, KernelScratch};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{0,8}").expect("valid regex")
}

/// Arbitrary strings drawn from a mixed ASCII / multi-byte alphabet, with
/// lengths up to 150 chars — past the 64-char Myers block boundary and into
/// the multi-block path. Repeated letters keep match/transposition cases hot.
fn any_string() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'b', 'c', 'a', 'b', 'z', '0', '9', ' ', '-', 'é', 'ß', '日', '本', '語', '🦀',
    ];
    proptest::collection::vec(proptest::sample::select(alphabet), 0..150)
        .prop_map(|cs| cs.into_iter().collect())
}

fn words() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::string::string_regex("[a-z]{1,5}").expect("valid regex"),
        0..8,
    )
}

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Levenshtein is bounded by the longer length; zero iff equal.
    #[test]
    fn levenshtein_bounds(a in word(), b in word()) {
        let d = levenshtein(&a, &b);
        prop_assert!(d <= a.chars().count().max(b.chars().count()));
        prop_assert_eq!(d == 0, a == b);
    }

    /// Jaro and Jaro-Winkler stay in [0,1]; JW only boosts (never lowers)
    /// and equals 1 exactly on identical strings.
    #[test]
    fn jaro_family_bounds(a in word(), b in word()) {
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&jw));
        prop_assert!(jw >= j - 1e-12);
        if a == b {
            prop_assert!((jw - 1.0).abs() < 1e-12);
        }
    }

    /// Set measures live in [0,1]; identity scores 1; overlap coefficient
    /// dominates Jaccard which is dominated by Dice.
    #[test]
    fn set_measure_ordering(a in words(), b in words()) {
        let jac = jaccard(&a, &b);
        let oc = overlap_coefficient(&a, &b);
        let dc = dice(&a, &b);
        let cs = cosine(&a, &b);
        for v in [jac, oc, dc, cs] {
            prop_assert!((0.0..=1.0).contains(&v), "{} out of range", v);
        }
        prop_assert!(oc >= jac - 1e-12);
        prop_assert!(dc >= jac - 1e-12);
        prop_assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        // cosine >= jaccard (AM-GM on set sizes)
        prop_assert!(cs >= jac - 1e-12);
    }

    /// overlap_size is consistent with the definition of Jaccard.
    #[test]
    fn overlap_size_consistent(a in words(), b in words()) {
        let inter = overlap_size(&a, &b) as f64;
        let ua: std::collections::HashSet<&str> = a.iter().map(String::as_str).collect();
        let ub: std::collections::HashSet<&str> = b.iter().map(String::as_str).collect();
        let union = (ua.len() + ub.len()) as f64 - inter;
        if union > 0.0 {
            prop_assert!((jaccard(&a, &b) - inter / union).abs() < 1e-12);
        }
    }

    /// Q-gram tokenization of a string of length >= q yields exactly
    /// len - q + 1 grams, each of length q, and they reconstruct the string.
    #[test]
    fn qgram_structure(s in proptest::string::string_regex("[a-z]{3,20}").unwrap()) {
        let q = 3usize;
        let grams = QgramTokenizer::new(q).tokenize(&s);
        let n = s.chars().count();
        prop_assert_eq!(grams.len(), n - q + 1);
        for g in &grams {
            prop_assert_eq!(g.chars().count(), q);
        }
        // overlapping reconstruction: gram i+1 shares q-1 chars with gram i
        for w in grams.windows(2) {
            prop_assert_eq!(&w[0][1..], &w[1][..w[1].len() - 1]);
        }
    }

    /// Monge-Elkan with an exact inner function is bounded and reaches 1 on
    /// identical token lists.
    #[test]
    fn monge_elkan_bounds(a in words(), b in words()) {
        let inner = |x: &str, y: &str| f64::from(x == y);
        let m = monge_elkan(&a, &b, inner);
        prop_assert!((0.0..=1.0).contains(&m));
        prop_assert!((monge_elkan(&a, &a, inner) - 1.0).abs() < 1e-12);
    }

    /// Myers bit-parallel Levenshtein equals the reference DP on arbitrary
    /// strings, including multi-byte unicode and >64-char (multi-block) ones.
    #[test]
    fn myers_matches_naive_levenshtein(a in any_string(), b in any_string()) {
        prop_assert_eq!(levenshtein(&a, &b), naive::levenshtein(&a, &b));
    }

    /// Every engine kernel is bit-identical to its naive reference — f64
    /// results compared via `to_bits`, not a tolerance.
    #[test]
    fn engine_kernels_match_naive(a in any_string(), b in any_string()) {
        prop_assert_eq!(levenshtein_sim(&a, &b).to_bits(), naive::levenshtein_sim(&a, &b).to_bits());
        prop_assert_eq!(jaro(&a, &b).to_bits(), naive::jaro(&a, &b).to_bits());
        prop_assert_eq!(jaro_winkler(&a, &b).to_bits(), naive::jaro_winkler(&a, &b).to_bits());
        prop_assert_eq!(
            needleman_wunsch(&a, &b, 0.5).to_bits(),
            naive::needleman_wunsch(&a, &b, 0.5).to_bits()
        );
        prop_assert_eq!(
            needleman_wunsch_sim(&a, &b).to_bits(),
            naive::needleman_wunsch_sim(&a, &b).to_bits()
        );
        prop_assert_eq!(
            smith_waterman(&a, &b, 0.5).to_bits(),
            naive::smith_waterman(&a, &b, 0.5).to_bits()
        );
        prop_assert_eq!(
            smith_waterman_sim(&a, &b).to_bits(),
            naive::smith_waterman_sim(&a, &b).to_bits()
        );
    }
}

/// Known-value pins cross-checked against the naive reference module, so a
/// regression in *either* implementation trips the suite.
#[test]
fn known_values_pinned_against_naive() {
    assert_eq!(naive::jaro("MARTHA", "MARHTA").to_bits(), 0.9444444444444445f64.to_bits());
    assert_eq!(jaro("MARTHA", "MARHTA").to_bits(), 0.9444444444444445f64.to_bits());
    assert_eq!(naive::jaro("DIXON", "DICKSONX").to_bits(), 0.7666666666666666f64.to_bits());
    assert_eq!(jaro("DIXON", "DICKSONX").to_bits(), 0.7666666666666666f64.to_bits());
    assert_eq!(naive::jaro_winkler("MARTHA", "MARHTA").to_bits(), 0.9611111111111111f64.to_bits());
    assert_eq!(jaro_winkler("MARTHA", "MARHTA").to_bits(), 0.9611111111111111f64.to_bits());
}

/// `seq` against `naive`, bit for bit, through every Jaro entry point: the
/// `*_chars` kernels on `scratch` (whatever earlier calls left in it), and
/// the masks-built-once entry against masks built from `b` alone.
fn assert_jaro_family_equals_naive(scratch: &mut KernelScratch, a: &str, b: &str) {
    let (j, jw) = (naive::jaro(a, b).to_bits(), naive::jaro_winkler(a, b).to_bits());
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    assert_eq!(jaro_chars(scratch, &ca, &cb).to_bits(), j, "jaro({a:?}, {b:?})");
    assert_eq!(jaro_winkler_chars(scratch, &ca, &cb).to_bits(), jw, "jaro_winkler({a:?}, {b:?})");
    let mut masks = em_text::PatternMasks::new();
    masks.build(&cb);
    let masked = jaro_chars_masked(scratch, &ca, &cb, (&masks, 0)).to_bits();
    assert_eq!(masked, j, "masked jaro({a:?}, {b:?})");
    let masked = jaro_winkler_chars_masked(scratch, &ca, &cb, (&masks, 0)).to_bits();
    assert_eq!(masked, jw, "masked jaro_winkler({a:?}, {b:?})");
}

/// The first `n` chars of `alphabet` repeated.
fn cycled(alphabet: &str, n: usize) -> String {
    alphabet.chars().cycle().take(n).collect()
}

/// Hand-enumerated cases for the bit-parallel Jaro (the vendored proptest
/// stub does not shrink, so the edges are walked rather than sampled): every
/// pair of lengths around the window-0 strings and the 64-char word edge,
/// in both argument orders, over shapes that match in order, out of order
/// (transpositions), at the window's two ends, and not at all — one
/// `KernelScratch` through all of it, so every call meets the masks and
/// flag words of a different right-hand string.
#[test]
fn jaro_length_and_window_edges_match_naive() {
    let lens = [0usize, 1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 66, 127, 128, 129, 130, 193];
    // (left alphabet, right alphabet): periods that drift against each
    // other put equal chars at every offset from the diagonal.
    let shapes = [
        ("abcde", "abcde"),
        ("abcde", "badce"),
        ("abcdefg", "gfedcba"),
        ("abc", "abcabd"),
        ("ab", "ba"),
        ("abcdefghijklmnopqrstuvwxyz0123456789", "9876543210zyxwvutsrqponmlkjihgfedcba"),
        ("aaab", "abbb"),
        ("xyz", "abc"),
    ];
    let mut scratch = KernelScratch::new();
    for (left, right) in shapes {
        for la in lens {
            for lb in lens {
                let (a, b) = (cycled(left, la), cycled(right, lb));
                assert_jaro_family_equals_naive(&mut scratch, &a, &b);
                assert_jaro_family_equals_naive(&mut scratch, &b, &a);
            }
        }
    }
}

/// The window's two ends, to the position: a single shared char that sits
/// exactly `w`, and `w + 1`, before and after its counterpart.
#[test]
fn jaro_window_is_inclusive_at_both_ends_and_no_wider() {
    let mut scratch = KernelScratch::new();
    for n in [4usize, 8, 9, 20, 63, 64, 65, 100, 128, 129, 140] {
        let w = (n / 2).saturating_sub(1);
        for i in [0, 1, n / 2, n - 1] {
            // `a` holds its one `x` at `i`; `b` one at each probed offset.
            let mut a = vec!['a'; n];
            a[i] = 'x';
            let a: String = a.into_iter().collect();
            for j in [i.wrapping_sub(w + 1), i.wrapping_sub(w), i + w, i + w + 1] {
                if j >= n {
                    continue;
                }
                let mut b = vec!['b'; n];
                b[j] = 'x';
                let b: String = b.into_iter().collect();
                let inside = i.abs_diff(j) <= w;
                assert_eq!(jaro(&a, &b) > 0.0, inside, "n={n} i={i} j={j} w={w}");
                assert_jaro_family_equals_naive(&mut scratch, &a, &b);
                assert_jaro_family_equals_naive(&mut scratch, &b, &a);
            }
        }
    }
}

/// One char repeated past the window: the scan runs out of unmatched
/// positions on one side while the other still asks (flag exhaustion), in
/// one word and across the word edge.
#[test]
fn jaro_repeated_char_exhausts_the_flags() {
    let mut scratch = KernelScratch::new();
    for (run, rest) in [(3usize, 9usize), (5, 15), (20, 5), (40, 30), (64, 1), (70, 60), (100, 29)] {
        let all = "a".repeat(run + rest);
        for b in [
            "a".repeat(run) + &"b".repeat(rest),
            "b".repeat(rest) + &"a".repeat(run),
            "b".repeat(rest / 2) + &"a".repeat(run) + &"b".repeat(rest - rest / 2),
            "a".repeat(run),
        ] {
            assert_jaro_family_equals_naive(&mut scratch, &all, &b);
            assert_jaro_family_equals_naive(&mut scratch, &b, &all);
        }
    }
}

/// Chars at and past U+0080 on either side, mixed with ASCII: the mask
/// table's slot-map half, short and across the word edge. `İ` lowercases
/// to two chars and `Σ` to a position-dependent one (PR 13's cases).
#[test]
fn jaro_non_ascii_chars_match_naive() {
    let words = [
        "İpm", "i̇pm", "ipm", "IPM", "Σίτος", "σίτος", "ΣΊΤΟΣ", "σίτοσ", "café", "CAFÉ", "cafe",
        "玉米 corn", "corn 玉米", "米玉", "\u{80}a\u{7f}", "a\u{7f}\u{80}", "🦀é日a", "",
    ];
    let long = [
        cycled("aéb日", 130),
        cycled("日béa", 129),
        cycled("abéa", 65),
        cycled("ΣίτοςİΣ", 64),
        cycled("éa", 63),
        cycled("ab", 128),
    ];
    let mut scratch = KernelScratch::new();
    let all: Vec<&str> = words.iter().copied().chain(long.iter().map(String::as_str)).collect();
    for a in &all {
        for b in &all {
            assert_jaro_family_equals_naive(&mut scratch, a, b);
        }
    }
}

/// One right-hand string's masks, built once, against many left-hand
/// strings — and a table rebuilt from a shorter, then a disjoint, string
/// keeps no bit of the last one. Then all the right-hand strings in one
/// table, a lane each (short ones beside two-word ones, a non-ASCII one
/// among ASCII): every lane reads as the table built from its string alone.
#[test]
fn jaro_masks_built_once_serve_many_left_strings() {
    let lefts: Vec<Vec<char>> = [
        "", "c", "corn", "CORN", "nroc", "corn fungicide", "fungicide corn", "cornn", "ccoorrnn",
        "玉米 corn", &cycled("corn ", 64), &cycled("nroc ", 65), &cycled("corn fungicide ", 150),
    ]
    .iter()
    .map(|s| s.chars().collect())
    .collect();
    let rights: Vec<Vec<char>> = [
        cycled("corn fungicide guidelines ", 140),
        cycled("corn fungicide guidelines ", 64),
        "corn".to_string(),
        "玉米 nroc".to_string(),
        String::new(),
        "zzzz".to_string(),
    ]
    .iter()
    .map(|s| s.chars().collect())
    .collect();
    let mut scratch = KernelScratch::new();
    let mut one = em_text::PatternMasks::new();
    let mut all = em_text::PatternMasks::new();
    all.build_each(rights.iter().map(Vec::as_slice));
    for (lane, cb) in rights.iter().enumerate() {
        let right: String = cb.iter().collect();
        one.build(cb);
        for ca in &lefts {
            let left: String = ca.iter().collect();
            for (what, masks) in [("own table", (&one, 0)), ("shared table", (&all, lane))] {
                assert_eq!(
                    jaro_chars_masked(&mut scratch, ca, cb, masks).to_bits(),
                    naive::jaro(&left, &right).to_bits(),
                    "masked jaro({left:?}, {right:?}), {what}"
                );
                assert_eq!(
                    jaro_winkler_chars_masked(&mut scratch, ca, cb, masks).to_bits(),
                    jaro_winkler_chars(&mut scratch, ca, cb).to_bits(),
                    "masked jaro_winkler({left:?}, {right:?}), {what}"
                );
            }
        }
    }
}

/// A lane the table does not have, or one too narrow for the string, is
/// refused, not read.
#[test]
#[should_panic(expected = "pattern masks hold no lane 0 of 65 chars")]
fn jaro_masked_refuses_a_lane_too_narrow_for_the_string() {
    let mut masks = em_text::PatternMasks::new();
    masks.build(&['a'; 64]);
    jaro_chars_masked(&mut KernelScratch::new(), &['a'], &['a'; 65], (&masks, 0));
}

#[test]
#[should_panic(expected = "pattern masks hold no lane 1 of 3 chars")]
fn jaro_masked_refuses_a_lane_the_table_lacks() {
    let mut masks = em_text::PatternMasks::new();
    masks.build(&['a', 'b', 'c']);
    jaro_chars_masked(&mut KernelScratch::new(), &['a'], &['a', 'b', 'c'], (&masks, 1));
}
