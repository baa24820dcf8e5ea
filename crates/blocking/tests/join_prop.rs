//! Property-based tests for the batch set-similarity join: the filtered,
//! index-based table path must equal the naive pairwise scan **bit for
//! bit** over random corpora — unicode titles, empty and degenerate token
//! sets (punctuation-only cells tokenize to nothing), and thresholds that
//! sit exactly on float boundaries such as `1/3` and `2/3`.
//!
//! The second half builds corpora around the edges of the bit-sliced
//! layout — document frequencies on either side of the dense rule, right
//! tables ending on and next to a word boundary, queries with enough
//! frequent tokens to grow the slices — and runs every predicate kind
//! through both the single-spec and the fused probe against the same scan.

use em_blocking::blockers::{block_pairwise, Blocker, OverlapBlocker, SetMeasure, SetSimBlocker};
use em_blocking::{block_specs, JoinIndex, JoinSpec, Pair};
use em_table::{Schema, Table, Value};
use em_text::{TokenCache, TokenCorpus};
use proptest::prelude::*;

/// Random award-title strings over a small vocabulary so overlaps occur,
/// salted with multi-byte scripts, digits, punctuation-only tokens (which
/// normalize away), and whitespace padding.
fn title() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            "corn", "fungicide", "guidelines", "café", "σίτος", "玉米", "研究", "ipm", "42",
            "x1b", "--", "!!", "",
        ]),
        0..7,
    )
    .prop_map(|ws| ws.join(" "))
}

fn table(rows: Vec<String>) -> Table {
    Table::from_rows(
        "t",
        Schema::of_strings(&["Title"]),
        rows.into_iter().map(|s| vec![Value::Str(s)]).collect(),
    )
    .unwrap()
}

/// Thresholds chosen to land on exact float boundaries of small-set
/// similarities: `k/min(|A|,|B|)` and `k/|A∪B|` values hit `1/3`, `1/2`,
/// `2/3`, … dead on, so any filter that diverges from the pairwise
/// predicate by one ULP fails here.
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

proptest! {
    /// The join-engine overlap blocker equals the pairwise Cartesian scan.
    #[test]
    fn overlap_join_equals_pairwise(
        la in proptest::collection::vec(title(), 0..9),
        lb in proptest::collection::vec(title(), 0..9),
        k in 1usize..5,
    ) {
        let (a, b) = (table(la), table(lb));
        let blocker = OverlapBlocker::new("Title", "Title", k);
        let joined = blocker.block(&a, &b).unwrap();
        let scanned = block_pairwise(&blocker, &a, &b).unwrap();
        prop_assert_eq!(joined.to_vec(), scanned.to_vec(), "K={}", k);
    }

    /// The join-engine set-similarity blocker equals the pairwise scan for
    /// both measures at boundary thresholds.
    #[test]
    fn set_sim_join_equals_pairwise(
        la in proptest::collection::vec(title(), 0..9),
        lb in proptest::collection::vec(title(), 0..9),
        jaccard in any::<bool>(),
        t in threshold(),
    ) {
        let (a, b) = (table(la), table(lb));
        let blocker = if jaccard {
            SetSimBlocker::jaccard("Title", "Title", t)
        } else {
            SetSimBlocker::overlap_coefficient("Title", "Title", t)
        };
        let joined = blocker.block(&a, &b).unwrap();
        let scanned = block_pairwise(&blocker, &a, &b).unwrap();
        prop_assert_eq!(joined.to_vec(), scanned.to_vec(), "jaccard={} t={}", jaccard, t);
    }

    /// Running both predicates through one shared index (the plan-level
    /// `block_specs` path) changes nothing about either output.
    #[test]
    fn block_specs_equals_individual_blocks(
        la in proptest::collection::vec(title(), 0..9),
        lb in proptest::collection::vec(title(), 0..9),
        k in 1usize..4,
        t in threshold(),
    ) {
        let (a, b) = (table(la), table(lb));
        let overlap = OverlapBlocker::new("Title", "Title", k);
        let oc = SetSimBlocker::overlap_coefficient("Title", "Title", t);
        let cache = em_text::TokenCache::for_blocking();
        let sets = em_blocking::block_specs(
            &cache,
            &a,
            "Title",
            &b,
            "Title",
            &[
                (overlap.join_spec().unwrap(), overlap.name()),
                (oc.join_spec().unwrap(), oc.name()),
            ],
        )
        .unwrap();
        prop_assert_eq!(sets[0].to_vec(), overlap.block(&a, &b).unwrap().to_vec());
        prop_assert_eq!(sets[1].to_vec(), oc.block(&a, &b).unwrap().to_vec());
    }
}

/// Every predicate kind, alone and fused, against the pairwise scan: the
/// overlap blocker, both set measures and both unions, at a spread of `k`
/// and boundary thresholds. A blocker's `block` is the single-spec probe;
/// `block_specs` answers all five specs from one fused probe per left row,
/// and a union must equal the union of its two scans. A candidate set would
/// swallow a right row admitted twice, so the raw per-row probe output is
/// held to the same scans.
fn assert_join_equals_scan(left: Vec<String>, right: Vec<String>) {
    let cache = TokenCache::for_blocking();
    let corpus =
        |rows: &[String]| TokenCorpus::from_column(&cache, rows.iter().map(|s| Some(s.as_str())));
    let (queries, index) = (corpus(&left), JoinIndex::build(corpus(&right)));
    let (a, b) = (table(left), table(right));
    for (k, t) in [(1, 0.25), (2, 2.0 / 3.0), (3, 0.7), (4, 1.0)] {
        let overlap = OverlapBlocker::new("Title", "Title", k);
        let oc = SetSimBlocker::overlap_coefficient("Title", "Title", t);
        let jaccard = SetSimBlocker::jaccard("Title", "Title", t);
        let want_overlap = block_pairwise(&overlap, &a, &b).unwrap();
        let want_oc = block_pairwise(&oc, &a, &b).unwrap();
        let want_jaccard = block_pairwise(&jaccard, &a, &b).unwrap();
        let want = [
            want_overlap.to_vec(),
            want_oc.to_vec(),
            want_jaccard.to_vec(),
            want_overlap.union(&want_oc).to_vec(),
            want_overlap.union(&want_jaccard).to_vec(),
        ];
        let alone = [
            overlap.block(&a, &b).unwrap().to_vec(),
            oc.block(&a, &b).unwrap().to_vec(),
            jaccard.block(&a, &b).unwrap().to_vec(),
        ];
        assert_eq!(alone[..], want[..3], "single-spec probes, k={k} t={t}");
        let specs = [
            overlap.join_spec().unwrap(),
            oc.join_spec().unwrap(),
            jaccard.join_spec().unwrap(),
            JoinSpec::union(k, SetMeasure::OverlapCoefficient, t),
            JoinSpec::union(k, SetMeasure::Jaccard, t),
        ]
        .map(|spec| (spec, "fused".to_string()));
        for ((spec, _), want) in specs.iter().zip(&want) {
            let raw: Vec<Pair> = em_blocking::join_pairs(&queries, &index, spec)
                .iter()
                .enumerate()
                .flat_map(|(i, js)| js.iter().map(move |&j| Pair::new(i, j as usize)))
                .collect();
            assert_eq!(&raw, want, "raw probe output, k={k} t={t}");
        }
        let fused = block_specs(&TokenCache::for_blocking(), &a, "Title", &b, "Title", &specs)
            .unwrap()
            .iter()
            .map(|set| set.to_vec())
            .collect::<Vec<_>>();
        assert_eq!(fused[..], want[..], "fused probe, k={k} t={t}");
    }
}

/// Left rows that meet a right table of titles over `f0..`, `r0..` words
/// from every side: prefixes of every length of the frequent words (up to
/// `n_frequent`, so slice widths 0 to 7), the rare words, mixes, words no
/// right row has, a single word, and the empty title.
fn probing_titles(n_frequent: usize, n_rare: usize) -> Vec<String> {
    let frequent = |n: usize| (0..n).map(|j| format!("f{j}")).collect::<Vec<_>>().join(" ");
    let rare = (0..n_rare).map(|j| format!("r{j}")).collect::<Vec<_>>().join(" ");
    let mut titles: Vec<String> = [0, 1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 65, n_frequent]
        .into_iter()
        .filter(|&n| n <= n_frequent)
        .map(frequent)
        .collect();
    titles.push(rare.clone());
    titles.push(format!("{} {rare}", frequent(3.min(n_frequent))));
    titles.push(format!("{} absent1 absent2", frequent(2.min(n_frequent))));
    titles.push("absent1 absent2 absent3".to_string());
    titles.push("r0".to_string());
    titles.push("f0 f0 f0".to_string());
    titles
}

/// The layout of the index the join builds for `right`.
fn layout_of(right: &[String]) -> em_blocking::JoinLayout {
    let cache = TokenCache::for_blocking();
    JoinIndex::build(TokenCorpus::from_column(&cache, right.iter().map(|s| Some(s.as_str()))))
        .layout()
}

#[test]
fn df_on_either_side_of_the_dense_rule() {
    // 640 right rows: a token is dense from df = 10 (10 * 64 >= 640).
    // `r0`, `r1`, `r2` sit at df 9, 10 and 11; `f0` is in every row and
    // `f1..f4` in two thirds of them or more.
    let n = 640;
    let right: Vec<String> = (0..n)
        .map(|i| {
            let mut words: Vec<String> =
                (0..5).filter(|j| *j == 0 || i % (j + 2) != 0).map(|j| format!("f{j}")).collect();
            for (j, df) in [9, 10, 11].into_iter().enumerate() {
                // Spread each rare word over the table, one row in 50.
                if i % 50 == j && i / 50 < df {
                    words.push(format!("r{j}"));
                }
            }
            words.join(" ")
        })
        .collect();
    let layout = layout_of(&right);
    assert_eq!(layout.positions, n);
    assert_eq!((layout.dense_tokens, layout.sparse_tokens), (7, 1), "r0 alone is sparse");
    assert_eq!(layout.sparse_postings, 9);
    assert_join_equals_scan(probing_titles(5, 3), right);
}

#[test]
fn right_tables_at_word_edges() {
    // 63/64/65/128/129 positions: the last bitset word is full, one bit
    // short, or one bit long. Rows mix lengths so size runs start and end
    // inside words, and every third row carries a word rare enough to be
    // sparse in the larger tables.
    for n in [63usize, 64, 65, 128, 129] {
        let right: Vec<String> = (0..n)
            .map(|i| {
                let mut words: Vec<String> =
                    (0..1 + i % 6).map(|j| format!("f{}", (i + j) % 8)).collect();
                if i % 3 == 0 {
                    words.push(format!("r{}", i % 64));
                }
                words.join(" ")
            })
            .collect();
        assert_eq!(layout_of(&right).positions, n);
        assert_join_equals_scan(probing_titles(8, 4), right);
    }
}

#[test]
fn queries_with_many_frequent_tokens_grow_the_slices() {
    // 70 words, each in two thirds of 130 rows: all dense, and a 70-word
    // query counts them in 7 slices. Row lengths differ, so thresholds do.
    let right: Vec<String> = (0..130usize)
        .map(|i| {
            (0..70usize)
                .filter(|j| (i + j) % 3 != 0 && (i % 5 != 1 || j % 2 == 0))
                .map(|j| format!("f{j}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let layout = layout_of(&right);
    assert_eq!((layout.dense_tokens, layout.sparse_tokens), (70, 0));
    assert_join_equals_scan(probing_titles(70, 2), right);
}

#[test]
fn degenerate_rows_and_a_single_size_run() {
    // Rows of one token and empty rows only; `r*` words are sparse.
    let ones: Vec<String> = (0..200usize)
        .map(|i| match i % 4 {
            0 => String::new(),
            1 => "f0".to_string(),
            2 => format!("f{}", i % 3),
            _ => format!("r{}", i % 50),
        })
        .collect();
    assert_eq!(layout_of(&ones).size_runs, 1);
    assert_join_equals_scan(probing_titles(3, 3), ones);
    // Every right row has exactly four tokens: one size run, nothing else.
    let fours: Vec<String> = (0..150usize)
        .map(|i| format!("f{} f{} f{} r{}", i % 3, 3 + i % 4, 7 + i % 2, i % 40))
        .collect();
    assert_eq!(layout_of(&fours).size_runs, 1);
    assert_join_equals_scan(probing_titles(9, 5), fours);
    // No right row has a token at all.
    assert_join_equals_scan(probing_titles(3, 1), vec![String::new(); 70]);
}
