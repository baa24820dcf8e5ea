//! A growable corpus and one arriving record: the serve-side driver of
//! the scoring kernel.
//!
//! [`extract_vectors`](crate::extract_vectors) builds its caches per call,
//! walking the referenced rows of both tables per plan. That amortizes over
//! tens of thousands of candidate pairs and is catastrophic for an online
//! service extracting ~a dozen candidates per arriving record.
//! [`ServeExtractor`] flips the lifecycle and nothing else: it holds the
//! same [`FeatureCaches`] a [`BatchExtractor`](crate::BatchExtractor)
//! does, with an empty left side, *keeps* the interners the batch
//! constructors drop, and grows the right side row by row
//! ([`push_right_row`](ServeExtractor::push_right_row)) as the corpus
//! evolves. A request prepares the one arriving record as the scratch's
//! left row ([`prepare`](ServeExtractor::prepare), read-only on the
//! corpus) and sees each surviving candidate through the kernel the batch
//! paths use ([`candidate`](ServeExtractor::candidate): a lazy
//! [`PairView`], of which [`fill`](PairView::fill) pulls everything).
//!
//! What the corpus has never produced stays **request-local**, and that is
//! bit-neutral feature by feature:
//!
//! - Set measures depend only on `(|A∩B|, |A|, |B|)`. A token without a
//!   corpus id can intersect nothing, so it is counted into `|A|` and never
//!   stamped.
//! - A string without a corpus sid gets a local sid (and its chars a place
//!   in the scratch): it equals no corpus string, which is the exact-match
//!   answer, and the kernels read the same decoded chars either way.
//! - Monge-Elkan folds over word ids; a word without a corpus id gets a
//!   local one, resolved to its chars and Soundex code in the scratch.
//!
//! The [`FeatureMask`] (what the fitted model's split walk can read — see
//! `em_core::derive_feature_mask`) is bound at construction: dead features
//! get no plan, so nothing is built, pushed or prepared for them.

use crate::batch::{position_or_push, BatchScratch, FeatureCaches, PairView, PlanKeys};
use crate::extract::{
    for_each_token, normalized, SeqInterner, SetInterner, Token, LOCAL_BIT, NULL_SID,
};
use crate::generate::FeatureSet;
use crate::mask::FeatureMask;
use em_table::{Table, TableError, Value};

/// Persistent serve-side feature extractor over an evolving corpus.
///
/// Construction runs every corpus row through
/// [`push_right_row`](ServeExtractor::push_right_row), which also grows the
/// caches in place as records are admitted. Requests are read-only
/// (`&self`), so a service can extract from multiple threads without
/// locking.
pub struct ServeExtractor {
    features: FeatureSet,
    caches: FeatureCaches,
    /// The columns each cache plan reads; a key's left column indexes
    /// `left_attrs`, the distinct left attributes.
    keys: PlanKeys,
    left_attrs: Vec<String>,
    /// Per set plan: its token ids and tokenized strings.
    set_known: Vec<SetInterner>,
    seq_known: SeqInterner,
    n_rows: usize,
}

impl ServeExtractor {
    /// Builds the extractor for every feature of `features` over the
    /// current `corpus` (right-side) rows. Fails if a feature references a
    /// column absent from the corpus schema.
    pub fn new(features: &FeatureSet, corpus: &Table) -> Result<ServeExtractor, TableError> {
        ServeExtractor::with_mask(features, corpus, &FeatureMask::full(features.len()))
    }

    /// [`new`](ServeExtractor::new) restricted to `mask`'s live features.
    pub fn with_mask(
        features: &FeatureSet,
        corpus: &Table,
        mask: &FeatureMask,
    ) -> Result<ServeExtractor, TableError> {
        let mut left_attrs: Vec<String> = Vec::new();
        let left_col = |attr: &str| {
            Ok(position_or_push(&mut left_attrs, |have| have == attr, attr.to_string()))
        };
        let (caches, keys) = FeatureCaches::empty(features, mask, left_col, corpus.schema())?;
        let mut ex = ServeExtractor {
            features: features.clone(),
            caches,
            set_known: keys.set_keys.iter().map(|_| SetInterner::default()).collect(),
            keys,
            left_attrs,
            seq_known: SeqInterner::default(),
            n_rows: 0,
        };
        for row in corpus.rows() {
            ex.push_right_row(row);
        }
        Ok(ex)
    }

    /// Number of corpus rows currently cached.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The feature plan this extractor serves.
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// Tokenizes/normalizes/parses one newly-admitted corpus row into every
    /// live plan's cache. Must be called for corpus rows in order (row
    /// `n_rows` next).
    pub fn push_right_row(&mut self, row: &[Value]) {
        let caches = &mut self.caches;
        for ((plan, &(_, rcol, qgram, lowercase)), known) in
            caches.set_plans.iter_mut().zip(&self.keys.set_keys).zip(&mut self.set_known)
        {
            let span = plan.intern(&row[rcol], (qgram, lowercase), known);
            plan.right.push(span);
        }
        for (c, &(_, rcol, lowercase)) in self.keys.seq_keys.iter().enumerate() {
            let sid = caches.seq.intern(&row[rcol], lowercase, &mut self.seq_known);
            caches.seq.columns[c].right.push(sid);
        }
        for ((_, right), &(_, rcol, op)) in caches.typed_cols.iter_mut().zip(&self.keys.typed_keys) {
            right.push(op.parse(&row[rcol]));
        }
        self.n_rows += 1;
    }

    /// Makes the arriving record `arrivals[i]` the prepared left row of
    /// `scratch` — once per request, before any candidate is scored. The
    /// corpus caches are only *read*: tokens they have no id for are
    /// counted, strings and words they have no id for get request-local
    /// ones. Allocation-free once the scratch has warmed up. Fails if a
    /// feature's left column is absent from the arrival schema or `i` is
    /// out of range.
    pub fn prepare(
        &self,
        arrivals: &Table,
        i: usize,
        scratch: &mut BatchScratch,
    ) -> Result<(), TableError> {
        let row = arrivals.rows().get(i).ok_or_else(|| TableError::KeyViolation {
            column: "arrival".to_string(),
            detail: format!("row {i} out of range"),
        })?;
        self.caches.bind(scratch);
        scratch.begin_arrival();
        let BatchScratch { stamps, left_sids, left_scalars, local, arrival: buf, .. } = scratch;
        buf.left_cols.clear();
        for attr in &self.left_attrs {
            buf.left_cols.push(arrivals.schema().require(attr)?);
        }

        for (((plan, &(lcol, _, qgram, lowercase)), known), st) in
            self.caches.set_plans.iter().zip(&self.keys.set_keys).zip(&self.set_known).zip(stamps)
        {
            let v = &row[buf.left_cols[lcol]];
            if v.is_null() {
                st.left_len = None;
                continue;
            }
            let s = normalized(v, lowercase);
            st.begin(plan.id_space);
            buf.grams.clear();
            buf.words.clear();
            buf.text.clear();
            // Known tokens are stamped (and counted once); the others can
            // intersect nothing and only count towards |A|.
            let mut distinct = 0usize;
            for_each_token(&s, qgram, |token| match (known.get(token), token) {
                (Some(id), _) => distinct += usize::from(st.mark(id)),
                (None, Token::Gram(g)) => buf.grams.push(g),
                (None, Token::Str(w)) => {
                    buf.words.push((buf.text.len(), buf.text.len() + w.len()));
                    buf.text.push_str(w);
                }
            });
            let text = &buf.text;
            buf.grams.sort_unstable();
            buf.grams.dedup();
            buf.words.sort_unstable_by_key(|&(from, to)| &text[from..to]);
            buf.words.dedup_by_key(|&mut (from, to)| &text[from..to]);
            st.left_len = Some(distinct + buf.grams.len() + buf.words.len());
        }

        let with_words = self.caches.seq.with_words;
        for (sid, &(lcol, _, lowercase)) in left_sids.iter_mut().zip(&self.keys.seq_keys) {
            let v = &row[buf.left_cols[lcol]];
            if v.is_null() {
                *sid = NULL_SID;
                continue;
            }
            let s = normalized(v, lowercase);
            *sid = match self.seq_known.strings.get(s.as_ref()) {
                Some(&known) => known,
                // Two plans often normalize to one string: one local sid.
                None => match (0..local.len() as u32)
                    .find(|&n| local.chars(n).iter().copied().eq(s.chars()))
                {
                    Some(n) => LOCAL_BIT | n,
                    None => {
                        LOCAL_BIT
                            | local.push_string(&s, with_words, |local, w| {
                                match self.seq_known.words.get(w) {
                                    Some(&id) => id,
                                    None => LOCAL_BIT | local.push_word(w),
                                }
                            })
                    }
                },
            };
        }

        for (scalar, &(lcol, _, op)) in left_scalars.iter_mut().zip(&self.keys.typed_keys) {
            *scalar = op.parse(&row[buf.left_cols[lcol]]);
        }
        Ok(())
    }

    /// The prepared arrival against corpus row `right_key`, as a lazy view:
    /// nothing is computed until a feature is pulled. `scratch` must have
    /// been [`prepare`](ServeExtractor::prepare)d by this extractor for the
    /// arrival. This is the allocation-free per-candidate path — the kernel
    /// every batch path scores through.
    #[inline]
    pub fn candidate<'s>(
        &'s self,
        right_key: usize,
        scratch: &'s mut BatchScratch,
    ) -> PairView<'s> {
        self.caches.view(right_key, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Feature, FeatureKind};
    use crate::generate::{auto_features, FeatureOptions};
    use crate::BatchExtractor;
    use em_blocking::Pair;
    use em_table::csv::read_str;

    fn corpus() -> Table {
        read_str(
            "B",
            "Title,Amount\n\
             corn fungicide guidelines,10\n\
             Totally Different,5\n\
             ab,\n\
             ,7\n\
             Swamp Dodder Applied Ecology,3\n",
        )
        .unwrap()
    }

    fn arrivals() -> Table {
        // Known strings, unknown words, unknown grams, short strings, case
        // differences, nulls, and an exact corpus duplicate.
        read_str(
            "A",
            "Title,Amount\n\
             Corn Fungicide Guidelines,10\n\
             Zebra Quixotic Jargon,2\n\
             ab,\n\
             ,4\n\
             Totally Different,5\n\
             corn dodder xylophone,1\n",
        )
        .unwrap()
    }

    /// `auto_features` plus every string measure on `Title` in both cases —
    /// the menu alone would never see Monge-Elkan on titles this short.
    fn every_measure(a: &Table, b: &Table) -> FeatureSet {
        use FeatureKind::*;
        let mut fs = auto_features(a, b, &FeatureOptions::default().with_case_insensitive());
        for kind in [
            ExactStr, LevSim, Jaro, JaroWinkler, NeedlemanWunsch, SmithWaterman, JaccardQgram3,
            JaccardWord, CosineWord, OverlapCoeffWord, DiceQgram3, MongeElkanJw, MongeElkanSoundex,
        ] {
            for lowercase in [false, true] {
                let f = Feature::new("Title", "Title", kind, lowercase);
                if !fs.features.contains(&f) {
                    fs.push(f);
                }
            }
        }
        fs
    }

    fn assert_bits_eq(got: f64, want: f64, what: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: got {got}, want {want}"
        );
    }

    /// Prepares `a[i]` and checks every corpus row's vector against
    /// `Feature::compute` (live slots) and `NaN` (dead slots).
    fn check_arrival(
        ex: &ServeExtractor,
        mask: &FeatureMask,
        (a, b): (&Table, &Table),
        i: usize,
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(ex.n_rows(), b.n_rows());
        let fs = ex.features();
        let mut out = vec![0.0; fs.len()];
        ex.prepare(a, i, scratch).unwrap();
        for j in 0..b.n_rows() {
            ex.candidate(j, scratch).fill(&mut out);
            for (k, f) in fs.features.iter().enumerate() {
                let want = if mask.is_live(k) {
                    f.compute(a.get(i, &f.left_attr).unwrap(), b.get(j, &f.right_attr).unwrap())
                } else {
                    f64::NAN
                };
                assert_bits_eq(out[k], want, &format!("pair ({i},{j}) feature {}", f.name));
            }
        }
    }

    #[test]
    fn full_mask_matches_feature_compute_bitwise() {
        let (a, b) = (arrivals(), corpus());
        let fs = every_measure(&a, &b);
        let ex = ServeExtractor::new(&fs, &b).unwrap();
        let mut scratch = BatchScratch::new();
        for i in 0..a.n_rows() {
            check_arrival(&ex, &FeatureMask::full(fs.len()), (&a, &b), i, &mut scratch);
        }
    }

    #[test]
    fn masked_extraction_nans_dead_slots_and_preserves_live() {
        let (a, b) = (arrivals(), corpus());
        let fs = every_measure(&a, &b);
        // Every third feature live.
        let mask =
            FeatureMask::from_live_indices(fs.len(), (0..fs.len()).filter(|k| k % 3 == 0));
        assert!(mask.is_strict_subset());
        assert!(mask.n_live() > 0);
        let ex = ServeExtractor::with_mask(&fs, &b, &mask).unwrap();
        // Dead features get no plan: one live feature, one cache.
        let one = FeatureMask::from_live_indices(fs.len(), [0]);
        let one = ServeExtractor::with_mask(&fs, &b, &one).unwrap();
        assert_eq!(one.keys.set_keys.len() + one.keys.seq_keys.len() + one.keys.typed_keys.len(), 1);
        let mut scratch = BatchScratch::new();
        for i in 0..a.n_rows() {
            check_arrival(&ex, &mask, (&a, &b), i, &mut scratch);
        }
    }

    #[test]
    fn incremental_growth_equals_fresh_construction() {
        let (a, b) = (arrivals(), corpus());
        let fs = every_measure(&a, &b);
        // Grow from the first two rows to all rows one by one.
        let head = read_str("B", "Title,Amount\ncorn fungicide guidelines,10\nTotally Different,5\n")
            .unwrap();
        let mut grown = ServeExtractor::new(&fs, &head).unwrap();
        for j in 2..b.n_rows() {
            grown.push_right_row(&b.rows()[j]);
        }
        assert_eq!(grown.n_rows(), b.n_rows());
        let fresh = ServeExtractor::new(&fs, &b).unwrap();
        let (mut s1, mut s2) = (BatchScratch::new(), BatchScratch::new());
        let (mut o1, mut o2) = (vec![0.0; fs.len()], vec![0.0; fs.len()]);
        for i in 0..a.n_rows() {
            grown.prepare(&a, i, &mut s1).unwrap();
            fresh.prepare(&a, i, &mut s2).unwrap();
            for j in 0..b.n_rows() {
                grown.candidate(j, &mut s1).fill(&mut o1);
                fresh.candidate(j, &mut s2).fill(&mut o2);
                for k in 0..fs.len() {
                    assert_bits_eq(o1[k], o2[k], &format!("pair ({i},{j}) feature {k}"));
                }
            }
        }
    }

    #[test]
    fn prepare_rejects_bad_inputs() {
        let (a, b) = (arrivals(), corpus());
        let fs = auto_features(&a, &b, &FeatureOptions::default());
        let ex = ServeExtractor::new(&fs, &b).unwrap();
        let mut scratch = BatchScratch::new();
        assert!(ex.prepare(&a, 999, &mut scratch).is_err());
        let wrong = read_str("A", "Other\nx\n").unwrap();
        assert!(ex.prepare(&wrong, 0, &mut scratch).is_err());
        // A refused request leaves the scratch fit for the next one.
        check_arrival(&ex, &FeatureMask::full(fs.len()), (&a, &b), 0, &mut scratch);
    }

    #[test]
    fn one_scratch_alternates_between_extractors_with_colliding_ids() {
        // Two corpora whose sids, word ids and token ids all start at 0 and
        // name different things; a batch extractor over a third pair of
        // tables shares the scratch too.
        let (a, b) = (arrivals(), corpus());
        let b2 = read_str(
            "B",
            "Title,Amount\nZebra Grazing Study,10\ncorn dodder xylophone,2\nab,\n\
             Quixotic Jargon Zebra,4\n,\n",
        )
        .unwrap();
        let fs = every_measure(&a, &b);
        let mask = FeatureMask::full(fs.len());
        let ex1 = ServeExtractor::new(&fs, &b).unwrap();
        let ex2 = ServeExtractor::new(&fs, &b2).unwrap();
        let batch = BatchExtractor::new(&fs, &b2, &b, &mask, None).unwrap();
        let mut scratch = BatchScratch::new();
        let mut out = vec![0.0; fs.len()];
        for round in 0..3 {
            for i in 0..a.n_rows() {
                check_arrival(&ex1, &mask, (&a, &b), i, &mut scratch);
                check_arrival(&ex2, &mask, (&a, &b2), i, &mut scratch);
                let p = Pair::new(i % b2.n_rows(), (i + round) % b.n_rows());
                batch.extract_into(p, &mut scratch, &mut out);
                for (k, f) in fs.features.iter().enumerate() {
                    let want = f.compute(
                        b2.get(p.left, &f.left_attr).unwrap(),
                        b.get(p.right, &f.right_attr).unwrap(),
                    );
                    assert_bits_eq(out[k], want, &format!("batch {p:?} feature {}", f.name));
                }
            }
        }
    }

    #[test]
    fn local_ids_do_not_outlive_their_request() {
        // Consecutive arrivals whose unknown strings and words differ but
        // get the same request-local ids (local sid 0, local words 0..3),
        // scored against the same corpus rows — through a reuse table of
        // any size (one slot a measure: every pull reaches the kernels and
        // the word matrices), across a generation and left-row epoch wrap.
        let b = corpus();
        let a = read_str(
            "A",
            "Title,Amount\n\
             zebra quixotic jargon,1\n\
             yak quixotic jargon,1\n\
             zebra quixotic jargon,1\n\
             corn fungicide guidelinez,1\n\
             xx,1\n\
             yy,1\n",
        )
        .unwrap();
        let fs = every_measure(&a, &b);
        let mask = FeatureMask::full(fs.len());
        let ex = ServeExtractor::new(&fs, &b).unwrap();
        for mut scratch in [BatchScratch::new(), BatchScratch::with_reuse_slots(1)] {
            for round in 0..2 {
                for i in 0..a.n_rows() {
                    if round == 1 && i == 2 {
                        scratch.force_epoch_wrap();
                    }
                    check_arrival(&ex, &mask, (&a, &b), i, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn warmed_scratch_survives_corpus_growth() {
        // The scratch is sized against a two-row corpus; the rows pushed
        // afterwards bring new tokens, strings and words — ids beyond
        // every stamp array the scratch has.
        let (a, b) = (arrivals(), corpus());
        let fs = every_measure(&a, &b);
        let mask = FeatureMask::full(fs.len());
        let mut head = Table::new("B", b.schema().clone());
        head.push_row(b.rows()[0].clone()).unwrap();
        head.push_row(b.rows()[1].clone()).unwrap();
        let mut ex = ServeExtractor::new(&fs, &head).unwrap();
        let mut scratch = BatchScratch::new();
        for i in 0..a.n_rows() {
            check_arrival(&ex, &mask, (&a, &head), i, &mut scratch);
        }
        for j in 2..b.n_rows() {
            ex.push_right_row(&b.rows()[j]);
            head.push_row(b.rows()[j].clone()).unwrap();
            for i in 0..a.n_rows() {
                check_arrival(&ex, &mask, (&a, &head), i, &mut scratch);
            }
        }
    }
}
