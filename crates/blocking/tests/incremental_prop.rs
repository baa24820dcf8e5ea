//! Property tests for [`em_blocking::IncrementalIndex`]: a probe's output
//! is a function of the indexed rows alone. Whatever the history — pushed
//! row by row through every seal and merge, bulk-built, or bulk-built and
//! then pushed — it equals the nested-loop scan over the rows (computed
//! here on token *strings*, so it shares nothing with the index but
//! [`JoinSpec::admits`]) and [`JoinIndex::probe`] over the same rows, for
//! overlap, set-similarity and union predicates with thresholds that land
//! on float boundaries.

use em_blocking::{IncrementalIndex, JoinIndex, JoinScratch, JoinSpec, SetMeasure, TAIL_ROWS};
use em_text::{AlphanumericTokenizer, Normalizer, TokenCache, TokenCorpus};
use proptest::prelude::*;
use std::collections::BTreeSet;

type Text = Option<String>;

/// The distinct tokens of `text` under the blocking normalization.
fn tokens(text: &Text) -> BTreeSet<String> {
    let normalized = Normalizer::for_blocking().apply(text.as_deref().unwrap_or(""));
    let mut set = BTreeSet::new();
    AlphanumericTokenizer.for_each_token(&normalized, |t| {
        set.insert(t.to_string());
    });
    set
}

/// The oracle: every row against the query, one by one.
fn scan(rows: &[Text], query: &Text, spec: &JoinSpec) -> Vec<usize> {
    let a = tokens(query);
    (0..rows.len())
        .filter(|&j| {
            let b = tokens(&rows[j]);
            let inter = a.intersection(&b).count();
            inter > 0 && spec.admits(inter, a.len(), b.len())
        })
        .collect()
}

/// The key row `j` is pushed under: ascending with gaps, so a probe that
/// returned rows instead of keys would show.
fn key(j: usize) -> usize {
    3 * j + 1
}

/// One index history over a growing prefix of the same rows.
struct History {
    index: IncrementalIndex,
    /// Row → key.
    keys: Vec<usize>,
}

impl History {
    /// The first `bulk` rows built in one go, the rest to be pushed.
    fn new(rows: &[Text], bulk: usize) -> History {
        let index = IncrementalIndex::from_texts(rows[..bulk].iter().map(|t| t.as_deref()));
        History { index, keys: (0..bulk).collect() }
    }

    fn push(&mut self, text: &Text) {
        let next = self.keys.last().map_or(0, |&last| last + 1).max(key(self.keys.len()));
        assert!(self.index.insert(next, text.as_deref()));
        self.keys.push(next);
        // A key already present, and one below it, are refused.
        assert!(!self.index.insert(next, Some("refused")));
        assert!(!self.index.insert(next.saturating_sub(1), Some("refused")));
        assert_eq!(self.index.len(), self.keys.len());
    }

    fn probe(&self, query: &Text, spec: &JoinSpec, scratch: &mut JoinScratch) -> Vec<usize> {
        let mut out = Vec::new();
        self.index.probe_into(query.as_deref(), spec, scratch, &mut out);
        out
    }
}

/// Holds every history of `rows` to the oracle and to the batch join, for
/// every query and spec, at each prefix length in `checkpoints`.
fn assert_histories_agree(
    rows: &[Text],
    bulk: usize,
    checkpoints: impl Fn(usize) -> bool,
    queries: &[Text],
    specs: &[JoinSpec],
) {
    let mut pushed = History::new(rows, 0);
    let mut mixed = History::new(rows, bulk);
    // One scratch for every index and probe: stale state would show.
    let mut scratch = JoinScratch::new();
    for n in 0..=rows.len() {
        if n > 0 {
            pushed.push(&rows[n - 1]);
            if n > bulk {
                mixed.push(&rows[n - 1]);
            }
        }
        if !checkpoints(n) {
            continue;
        }
        let rows = &rows[..n];
        let built = History::new(rows, n);
        let cache = TokenCache::for_blocking();
        let join =
            JoinIndex::build(TokenCorpus::from_column(&cache, rows.iter().map(|t| t.as_deref())));
        for query in queries {
            for spec in specs {
                let want = scan(rows, query, spec);
                let at = format!("{n} rows, query {query:?}, {spec:?}");
                let keyed = |h: &History| want.iter().map(|&j| h.keys[j]).collect::<Vec<_>>();
                assert_eq!(pushed.probe(query, spec, &mut scratch), keyed(&pushed), "pushed: {at}");
                assert_eq!(built.probe(query, spec, &mut scratch), want, "bulk-built: {at}");
                if n >= bulk {
                    assert_eq!(mixed.probe(query, spec, &mut scratch), keyed(&mixed), "mixed: {at}");
                }
                let batch = join.probe(&cache.token_ids(query.as_deref()), spec);
                assert_eq!(batch.iter().map(|&j| j as usize).collect::<Vec<_>>(), want, "{at}");
            }
        }
    }
}

/// Titles over a small vocabulary so overlaps occur: repeated words,
/// multi-byte scripts, punctuation-only words (which normalize away), the
/// empty string and the null cell.
fn title() -> impl Strategy<Value = Text> {
    prop_oneof![
        Just(None),
        proptest::collection::vec(
            proptest::sample::select(vec![
                "corn", "Corn", "fungicide", "guidelines", "lab", "supplies", "café", "σίτος",
                "玉米", "42", "--", "",
            ]),
            0..7,
        )
        .prop_map(|ws| Some(ws.join(" "))),
    ]
}

/// `n` distinct words no row has, each twice and its twin far from it.
fn absent_words(n: usize) -> String {
    (0..n).chain((0..n).rev()).map(|i| format!("absent{i}")).collect::<Vec<_>>().join(" ")
}

/// Queries: titles, plus words no row has (alone, repeated, mixed in, and
/// many at once — each still counts toward `|A|` exactly once).
fn query() -> impl Strategy<Value = Text> {
    prop_oneof![
        title(),
        Just(Some("absent1 absent2 absent1".to_string())),
        title().prop_map(|t| Some(format!("{} absent1 ABSENT1 absent2", t.unwrap_or_default()))),
        (title(), 1usize..80)
            .prop_map(|(t, n)| Some(format!("{} {}", absent_words(n), t.unwrap_or_default()))),
    ]
}

/// Thresholds on exact float boundaries of small-set similarities.
fn threshold() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.25),
        Just(1.0 / 3.0),
        Just(0.5),
        Just(2.0 / 3.0),
        Just(0.7),
        Just(0.75),
        Just(1.0),
    ]
}

fn spec() -> impl Strategy<Value = JoinSpec> {
    (0usize..3, 1usize..5, threshold(), any::<bool>()).prop_map(|(kind, k, t, jaccard)| {
        let measure = if jaccard { SetMeasure::Jaccard } else { SetMeasure::OverlapCoefficient };
        match kind {
            0 => JoinSpec::overlap(k),
            1 => JoinSpec::set_sim(measure, t),
            _ => JoinSpec::union(k, measure, t),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert sequences long enough to seal and merge, probed after
    /// every insert.
    #[test]
    fn probe_is_a_function_of_the_rows(
        rows in proptest::collection::vec(title(), 0..3 * TAIL_ROWS + 9),
        bulk in 0usize..TAIL_ROWS + 2,
        queries in proptest::collection::vec(query(), 1..3),
        specs in proptest::collection::vec(spec(), 1..3),
    ) {
        assert_histories_agree(&rows, bulk.min(rows.len()), |_| true, &queries, &specs);
    }
}

/// Rows in the manner of `join_prop`'s word-edge tables: mixed lengths over
/// eight frequent words, every third row with a word rare enough to be
/// sparse in the larger segments, every 17th row null.
fn edge_rows(n: usize) -> Vec<Text> {
    (0..n)
        .map(|i| {
            let mut words: Vec<String> =
                (0..1 + i % 6).map(|j| format!("f{}", (i + j) % 8)).collect();
            if i % 3 == 0 {
                words.push(format!("r{}", i % 64));
            }
            (i % 17 != 16).then(|| words.join(" "))
        })
        .collect()
}

/// Queries that meet those rows from every side: prefixes of the frequent
/// words, rare words, mixes, absent words, a repeated word, no words.
fn edge_queries() -> Vec<Text> {
    let frequent = |n: usize| (0..n).map(|j| format!("f{j}")).collect::<Vec<_>>().join(" ");
    let mut queries: Vec<Text> = [1, 2, 3, 4, 7, 8].into_iter().map(|n| Some(frequent(n))).collect();
    queries.push(Some("r0 r3 r6 r63".to_string()));
    queries.push(Some(format!("{} r0 r3", frequent(3))));
    queries.push(Some(format!("{} absent1 absent2", frequent(2))));
    queries.push(Some("absent1 absent2 absent3".to_string()));
    // Row 1 is "f1 f2": Jaccard 2/3 only if the absent word counts once.
    queries.push(Some("f1 f2 absent1 ABSENT1".to_string()));
    queries.push(Some(format!("f0 {} f1", absent_words(300))));
    queries.push(Some("F0 f0 f0".to_string()));
    queries.push(Some(" !! ".to_string()));
    queries.push(None);
    queries
}

#[test]
fn every_seal_and_merge_boundary() {
    // Up to the seal that merges four tails into one segment, and one past.
    let rows = edge_rows(4 * TAIL_ROWS + 1);
    let at = |n: usize| {
        // The tail one short of sealing, sealed, and one row into the next:
        // for the first seal, the first merge (two tails), a seal that
        // merges nothing (three) and the cascade (four) — and the word
        // edges of `join_prop`, whatever `TAIL_ROWS` is.
        (1..=4).any(|m| n + 1 == m * TAIL_ROWS || n == m * TAIL_ROWS || n == m * TAIL_ROWS + 1)
            || [0, 1, 63, 64, 65, 128, 129].contains(&n)
    };
    let mut specs = Vec::new();
    for (k, t) in [(1, 0.25), (2, 2.0 / 3.0), (3, 0.7), (4, 1.0)] {
        specs.push(JoinSpec::overlap(k));
        for measure in [SetMeasure::OverlapCoefficient, SetMeasure::Jaccard] {
            specs.push(JoinSpec::set_sim(measure, t));
            specs.push(JoinSpec::union(k, measure, t));
        }
    }
    assert_histories_agree(&rows, TAIL_ROWS + TAIL_ROWS / 2, at, &edge_queries(), &specs);
}
