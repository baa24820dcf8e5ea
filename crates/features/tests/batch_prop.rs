//! Property tests for the row-grouped kernel: whatever the tables, the
//! mask and the pair order, [`BatchExtractor`] — and [`ServeExtractor`],
//! the same kernel with an arriving record for a left row and a corpus
//! grown row by row — must return exactly the bits [`Feature::compute`]
//! returns (`NaN == NaN`), with dead slots `NaN`.
//!
//! Tables mix nulls, case, multi-byte scripts, strings shorter than a
//! 3-gram, dirty dates that share a day number, ints stored where strings
//! are measured and strings stored where numbers are; titles repeat their
//! own words. One scratch serves a whole case — grouped order, then
//! shuffled, across many left-row switches and forced epoch wraps, then
//! every left row again as an arrival against the grown corpus, which has
//! never seen most of its tokens, words and strings. Every pair is also seen through the lazy
//! [`PairView`] first: a random subset of its features pulled in a random
//! order, some twice, on the scratch the pair before left its values in.

use em_blocking::Pair;
use em_features::{
    BatchExtractor, BatchScratch, Feature, FeatureKind, FeatureMask, FeatureSet, PairView,
    ServeExtractor,
};
use em_table::{DataType, Date, Schema, Table, Value};
use proptest::prelude::*;

const STRING_KINDS: [FeatureKind; 13] = [
    FeatureKind::ExactStr,
    FeatureKind::LevSim,
    FeatureKind::Jaro,
    FeatureKind::JaroWinkler,
    FeatureKind::NeedlemanWunsch,
    FeatureKind::SmithWaterman,
    FeatureKind::JaccardQgram3,
    FeatureKind::JaccardWord,
    FeatureKind::CosineWord,
    FeatureKind::OverlapCoeffWord,
    FeatureKind::DiceQgram3,
    FeatureKind::MongeElkanJw,
    FeatureKind::MongeElkanSoundex,
];

const TYPED_KINDS: [FeatureKind; 6] = [
    FeatureKind::NumExact,
    FeatureKind::NumAbsDiff,
    FeatureKind::NumRelSim,
    FeatureKind::DateYearGap,
    FeatureKind::DateExact,
    FeatureKind::BoolExact,
];

const COLUMNS: [&str; 4] = ["Title", "Code", "When", "Flag"];

/// Every measure on every column, string measures in both cases: typed
/// measures meet strings and string measures meet ints, as in real tables.
fn features() -> FeatureSet {
    let mut fs = FeatureSet::default();
    for col in COLUMNS {
        for kind in STRING_KINDS {
            fs.push(Feature::new(col, col, kind, false));
            fs.push(Feature::new(col, col, kind, true));
        }
        for kind in TYPED_KINDS {
            fs.push(Feature::new(col, col, kind, false));
        }
    }
    fs
}

/// Words both tables draw their titles from, so cells, words and grams
/// recur within and across rows (the reuse paths): mixed case and scripts,
/// one- and two-char cells, punctuation-only ones.
const SHARED_WORDS: [&str; 18] = [
    "Corn", "corn", "CORN", "fungicide", "Guidelines", "café", "CAFÉ", "Σίτος", "σίτος", "İpm",
    "玉米", "x", "Ab", "ab", "42", "-", "  ", "",
];

/// Words only left rows use: whatever the right table holds, an arriving
/// row brings tokens, words and strings its caches have never produced.
const LEFT_WORDS: [&str; 5] = ["Zebra", "quixotic", "ΣΊΤΟΣ", "İ", "yz"];

/// A title of up to four drawn words, then up to three of its own words
/// again: a word repeated inside a title is two rows of the Monge-Elkan
/// word matrix (and, on the right, one column met twice).
fn title(words: Vec<&'static str>) -> impl Strategy<Value = Value> {
    let word = proptest::sample::select(words);
    let repeats = proptest::collection::vec(0usize..4, 0..4);
    prop_oneof![
        Just(Value::Null),
        (proptest::collection::vec(word, 0..5), repeats).prop_map(|(mut ws, repeats)| {
            for r in repeats {
                if !ws.is_empty() {
                    ws.push(ws[r % ws.len()]);
                }
            }
            Value::Str(ws.join(" "))
        }),
    ]
}

/// Identifier-like cells: short strings in both cases, and the same
/// numbers as ints, floats and digit strings.
fn code() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        proptest::sample::select(vec!["WIS01040", "wis01040", "2008-34103", "7", "a", ""])
            .prop_map(Value::from),
        (0i64..12).prop_map(Value::Int),
        (0i64..12).prop_map(|n| Value::Float(n as f64 / 2.0)),
        Just(Value::Float(f64::NAN)),
    ]
}

/// Dates a few days apart, including `2009-02-30` — structurally valid,
/// and on the same day number as `2009-03-02`.
fn when() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::from("2009-03-02")),
        (2008i32..2011, 2u8..4, 1u8..32)
            .prop_map(|(y, m, d)| Date::new(y, m, d).map_or(Value::Null, Value::Date)),
    ]
}

fn flag() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::from("true")),
    ]
}

fn table(words: Vec<&'static str>) -> impl Strategy<Value = Table> {
    proptest::collection::vec((title(words), code(), when(), flag()), 1..7).prop_map(|rows| {
        let schema = Schema::of(&COLUMNS.map(|c| (c, DataType::Any)));
        let rows = rows.into_iter().map(|(t, c, w, f)| vec![t, c, w, f]).collect();
        Table::from_rows("t", schema, rows).expect("every value fits an Any column")
    })
}

fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// `Err(description)` for the first slot of `p` that is not what
/// `Feature::compute` (live) or `NaN` (dead) says.
fn check_pair(
    fs: &FeatureSet,
    (a, b): (&Table, &Table),
    mask: &FeatureMask,
    p: Pair,
    out: &[f64],
) -> Result<(), String> {
    for (k, f) in fs.features.iter().enumerate() {
        let want = if mask.is_live(k) {
            let va = a.get(p.left, &f.left_attr).expect("column exists");
            let vb = b.get(p.right, &f.right_attr).expect("column exists");
            f.compute(va, vb)
        } else {
            f64::NAN
        };
        if !same_bits(out[k], want) {
            return Err(format!("{} on {p:?}: got {}, want {want}", f.name, out[k]));
        }
    }
    Ok(())
}

/// The slots of `picks` (reduced into the feature set) in that order:
/// a subset with repeats, so some features are pulled twice.
fn pull_order(fs: &FeatureSet, picks: &[u32], salt: usize) -> Vec<usize> {
    picks.iter().map(|&r| (r as usize).wrapping_add(salt * 7) % fs.len()).collect()
}

/// Pulls `order` from `view` and checks every value against
/// `Feature::compute` (live) or `NaN` (dead).
fn check_pulls(
    fs: &FeatureSet,
    (a, b): (&Table, &Table),
    mask: &FeatureMask,
    p: Pair,
    mut view: PairView<'_>,
    order: &[usize],
) -> Result<(), String> {
    for &k in order {
        let f = &fs.features[k];
        let want = if mask.is_live(k) {
            let va = a.get(p.left, &f.left_attr).expect("column exists");
            let vb = b.get(p.right, &f.right_attr).expect("column exists");
            f.compute(va, vb)
        } else {
            f64::NAN
        };
        let got = view.pull(k);
        if !same_bits(got, want) {
            return Err(format!("pulled {} on {p:?}: got {got}, want {want}", f.name));
        }
    }
    // A slot the feature set does not have reads as a dead one.
    if !view.pull(fs.len()).is_nan() {
        return Err(format!("slot {} of {} is not NaN", fs.len(), fs.len()));
    }
    Ok(())
}

/// The set-plan intersection passes pulling `order` on `p` must run: one
/// per distinct tokenization plan among the live set measures pulled,
/// when neither cell is null — however many measures share the plan.
fn expected_set_passes(
    fs: &FeatureSet,
    (a, b): (&Table, &Table),
    mask: &FeatureMask,
    p: Pair,
    order: &[usize],
) -> u64 {
    use FeatureKind::*;
    let mut plans: Vec<(&str, bool, bool)> = Vec::new();
    for &k in order {
        let f = &fs.features[k];
        let qgram = match f.kind {
            JaccardQgram3 | DiceQgram3 => true,
            JaccardWord | CosineWord | OverlapCoeffWord => false,
            _ => continue,
        };
        let null = |t: &Table, row, attr| t.get(row, attr).expect("column exists").is_null();
        let plan = (f.left_attr.as_str(), qgram, f.lowercase);
        if mask.is_live(k)
            && !null(a, p.left, &f.left_attr)
            && !null(b, p.right, &f.right_attr)
            && !plans.contains(&plan)
        {
            plans.push(plan);
        }
    }
    plans.len() as u64
}

fn set_passes(scratch: &BatchScratch) -> u64 {
    scratch.pull_counts().set_passes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All-rows extractor, one scratch: grouped pairs, then the same pairs
    /// shuffled (every pair a left-row switch), with epoch wraps forced at
    /// random points.
    #[test]
    fn batch_equals_feature_compute_in_any_order(
        a in table([&SHARED_WORDS[..], &LEFT_WORDS[..]].concat()),
        b in table(SHARED_WORDS.to_vec()),
        live in proptest::collection::vec(any::<bool>(), 128),
        order in proptest::collection::vec(any::<u32>(), 36),
        wraps in proptest::collection::vec(0usize..72, 0..4),
        prefix in 0usize..7,
        picks in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        let fs = features();
        let mask = FeatureMask::from_live_indices(fs.len(), (0..fs.len()).filter(|&k| live[k]));
        let ex = BatchExtractor::new(&fs, &a, &b, &mask, None).expect("columns exist");
        let grouped: Vec<Pair> = (0..a.n_rows())
            .flat_map(|i| (0..b.n_rows()).map(move |j| Pair::new(i, j)))
            .collect();
        let mut shuffled = grouped.clone();
        shuffled.sort_by_key(|p| order[p.left * 6 + p.right]);
        let mut scratch = ex.scratch();
        let mut out = vec![0.0; fs.len()];
        for (n, p) in grouped.iter().chain(&shuffled).enumerate() {
            if wraps.contains(&n) {
                scratch.force_epoch_wrap();
            }
            // The lazy view first: its slots still hold the last pair's
            // values, all of them, stamped by the `extract_into` below.
            let pulls = pull_order(&fs, &picks, n);
            let passes = set_passes(&scratch);
            if let Err(why) =
                check_pulls(&fs, (&a, &b), &mask, *p, ex.pair(*p, &mut scratch), &pulls)
            {
                prop_assert!(false, "pair #{n}: {why}");
            }
            prop_assert_eq!(
                set_passes(&scratch) - passes,
                expected_set_passes(&fs, (&a, &b), &mask, *p, &pulls),
                "pair #{}: one intersection pass per set plan pulled", n
            );
            ex.extract_into(*p, &mut scratch, &mut out);
            if let Err(why) = check_pair(&fs, (&a, &b), &mask, *p, &out) {
                prop_assert!(false, "pair #{n}: {why}");
            }
        }
        // The chunked matrix form is the same kernel.
        let matrix = ex.extract_matrix(&a, &b, &shuffled);
        for (p, row) in shuffled.iter().zip(matrix.chunks_exact(fs.len())) {
            if let Err(why) = check_pair(&fs, (&a, &b), &mask, *p, row) {
                prop_assert!(false, "matrix: {why}");
            }
        }
        // The arriving-row side of the same kernel, on the same scratch:
        // the corpus is a prefix of `b` grown to all of it, every row of
        // `a` arrives once, in shuffled order.
        let prefix = prefix.min(b.n_rows());
        let mut head = Table::new("t", b.schema().clone());
        for row in &b.rows()[..prefix] {
            head.push_row(row.clone()).expect("same schema");
        }
        let mut serve = ServeExtractor::with_mask(&fs, &head, &mask).expect("columns exist");
        for row in &b.rows()[prefix..] {
            serve.push_right_row(row);
        }
        let mut prepared = usize::MAX;
        for (n, p) in shuffled.iter().enumerate() {
            if wraps.contains(&n) {
                scratch.force_epoch_wrap();
                prepared = usize::MAX;
            }
            if prepared != p.left {
                serve.prepare(&a, p.left, &mut scratch).expect("row in range");
                prepared = p.left;
            }
            let pulls = pull_order(&fs, &picks, n);
            let view = serve.candidate(p.right, &mut scratch);
            if let Err(why) = check_pulls(&fs, (&a, &b), &mask, *p, view, &pulls) {
                prop_assert!(false, "arrival #{n}: {why}");
            }
            serve.candidate(p.right, &mut scratch).fill(&mut out);
            if let Err(why) = check_pair(&fs, (&a, &b), &mask, *p, &out) {
                prop_assert!(false, "arrival #{n}: {why}");
            }
            if order[n] % 3 == 0 {
                // The scratch goes to the table-row extractor and back:
                // a rebind between two pulls of the arriving-row side.
                if let Err(why) =
                    check_pulls(&fs, (&a, &b), &mask, *p, ex.pair(*p, &mut scratch), &pulls)
                {
                    prop_assert!(false, "rebound #{n}: {why}");
                }
                prepared = usize::MAX;
            }
        }
    }

    /// An extractor built for a subset of pairs covers exactly those rows.
    #[test]
    fn for_pairs_covers_the_rows_it_was_given(
        a in table(SHARED_WORDS.to_vec()),
        b in table(SHARED_WORDS.to_vec()),
        picks in proptest::collection::vec((0usize..6, 0usize..6), 0..12),
    ) {
        let fs = features();
        let mask = FeatureMask::full(fs.len());
        let pairs: Vec<Pair> = picks
            .into_iter()
            .filter(|&(i, j)| i < a.n_rows() && j < b.n_rows())
            .map(|(i, j)| Pair::new(i, j))
            .collect();
        let ex = BatchExtractor::for_pairs(&fs, &a, &b, &mask, &pairs).expect("pairs in range");
        let mut scratch = ex.scratch();
        let mut out = vec![0.0; fs.len()];
        for p in &pairs {
            ex.extract_into(*p, &mut scratch, &mut out);
            if let Err(why) = check_pair(&fs, (&a, &b), &mask, *p, &out) {
                prop_assert!(false, "{why}");
            }
        }
        let beyond = [Pair::new(a.n_rows(), 0)];
        prop_assert!(BatchExtractor::for_pairs(&fs, &a, &b, &mask, &beyond).is_err());
    }
}
