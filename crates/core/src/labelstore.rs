//! A shared, persistent label store — the Section 13 "Support for Easy
//! Collaboration" challenge.
//!
//! In the case study, labeling was spread over a cloud tool that only one
//! person could use at a time, Google Sheets for discussing mismatches, and
//! email. [`LabelStore`] is the library-shaped version: labels are keyed by
//! the business identifiers `(UniqueAwardNumber, AccessionNumber)` (stable
//! across re-projections), carry the labeler's name, persist as plain CSV
//! (the medium both teams actually exchanged), and merge across labelers
//! with explicit conflict surfacing — the Section 8 cross-check as an API.

use crate::error::CoreError;
use crate::labeling::LabeledSet;
use em_blocking::Pair;
use em_estimate::Label;
use em_table::{csv, DataType, Schema, Table, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One labeler's label for one identifier pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelRecord {
    /// UMETRICS `UniqueAwardNumber`.
    pub award: String,
    /// USDA `AccessionNumber`.
    pub accession: String,
    /// The label given.
    pub label: Label,
    /// Who labeled (e.g. `"umetrics-team"`, `"em-team"`).
    pub labeler: String,
}

/// A conflict between labelers on one pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelConflict {
    /// UMETRICS award number.
    pub award: String,
    /// USDA accession number.
    pub accession: String,
    /// Every labeler's vote.
    pub votes: Vec<(String, Label)>,
}

/// How [`LabelStore::merge`] resolves disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Any disagreement resolves to `Unsure` (and is reported) — the
    /// conservative policy the paper's teams effectively used until a
    /// face-to-face discussion settled the pair.
    UnanimousOrUnsure,
    /// Strict majority wins; ties resolve to `Unsure`. `Unsure` votes count
    /// as abstentions.
    Majority,
}

/// A multi-labeler label store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelStore {
    // (award, accession) -> labeler -> label; BTree for stable iteration.
    by_pair: BTreeMap<(String, String), BTreeMap<String, Label>>,
}

fn label_to_str(l: Label) -> &'static str {
    match l {
        Label::Yes => "Yes",
        Label::No => "No",
        Label::Unsure => "Unsure",
    }
}

fn label_from_str(s: &str) -> Option<Label> {
    match s.trim().to_ascii_lowercase().as_str() {
        // `true`/`false` appear when CSV type inference reads an all-Yes/No
        // column back as booleans.
        "yes" | "y" | "match" | "1" | "true" => Some(Label::Yes),
        "no" | "n" | "non-match" | "0" | "false" => Some(Label::No),
        "unsure" | "u" | "?" => Some(Label::Unsure),
        _ => None,
    }
}

impl LabelStore {
    /// Empty store.
    pub fn new() -> LabelStore {
        LabelStore::default()
    }

    /// Records (or replaces) one labeler's label for a pair.
    pub fn record(&mut self, rec: LabelRecord) {
        self.by_pair
            .entry((rec.award, rec.accession))
            .or_default()
            .insert(rec.labeler, rec.label);
    }

    /// Number of distinct pairs with at least one label.
    pub fn n_pairs(&self) -> usize {
        self.by_pair.len()
    }

    /// One labeler's label for a pair, if present.
    pub fn get(&self, award: &str, accession: &str, labeler: &str) -> Option<Label> {
        self.by_pair
            .get(&(award.to_string(), accession.to_string()))
            .and_then(|votes| votes.get(labeler).copied())
    }

    /// Distinct labeler names seen, sorted.
    pub fn labelers(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .by_pair
            .values()
            .flat_map(|votes| votes.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The pairs where two named labelers disagree — the Section 8
    /// cross-check ("we labeled the same set … and observed 22 mismatched
    /// labels").
    pub fn cross_check(&self, labeler_a: &str, labeler_b: &str) -> Vec<LabelConflict> {
        let mut out = Vec::new();
        for ((award, accession), votes) in &self.by_pair {
            if let (Some(&la), Some(&lb)) = (votes.get(labeler_a), votes.get(labeler_b)) {
                if la != lb {
                    out.push(LabelConflict {
                        award: award.clone(),
                        accession: accession.clone(),
                        votes: vec![
                            (labeler_a.to_string(), la),
                            (labeler_b.to_string(), lb),
                        ],
                    });
                }
            }
        }
        out
    }

    /// Merges all labelers' votes into one label per pair under `policy`,
    /// returning the merged labels and the conflicts encountered.
    pub fn merge(
        &self,
        policy: MergePolicy,
    ) -> (BTreeMap<(String, String), Label>, Vec<LabelConflict>) {
        let mut merged = BTreeMap::new();
        let mut conflicts = Vec::new();
        for ((award, accession), votes) in &self.by_pair {
            let distinct: Vec<Label> = {
                let mut v: Vec<Label> = votes.values().copied().collect();
                v.dedup();
                let mut uniq = Vec::new();
                for l in v {
                    if !uniq.contains(&l) {
                        uniq.push(l);
                    }
                }
                uniq
            };
            let label = if distinct.len() <= 1 {
                distinct.first().copied().unwrap_or(Label::Unsure)
            } else {
                conflicts.push(LabelConflict {
                    award: award.clone(),
                    accession: accession.clone(),
                    votes: votes.iter().map(|(n, l)| (n.clone(), *l)).collect(),
                });
                match policy {
                    MergePolicy::UnanimousOrUnsure => Label::Unsure,
                    MergePolicy::Majority => {
                        let yes = votes.values().filter(|&&l| l == Label::Yes).count();
                        let no = votes.values().filter(|&&l| l == Label::No).count();
                        match yes.cmp(&no) {
                            std::cmp::Ordering::Greater => Label::Yes,
                            std::cmp::Ordering::Less => Label::No,
                            std::cmp::Ordering::Equal => Label::Unsure,
                        }
                    }
                }
            };
            merged.insert((award.clone(), accession.clone()), label);
        }
        (merged, conflicts)
    }

    /// Serializes the store as a CSV table
    /// (`AwardNumber,AccessionNumber,Label,Labeler`).
    pub fn to_table(&self) -> Table {
        let schema = Schema::of(&[
            ("AwardNumber", DataType::Str),
            ("AccessionNumber", DataType::Str),
            ("Label", DataType::Str),
            ("Labeler", DataType::Str),
        ]);
        let mut t = Table::new("labels", schema);
        for ((award, accession), votes) in &self.by_pair {
            for (labeler, label) in votes {
                // Infallible: the row literal above matches the 4-column
                // Str schema built in this function.
                #[allow(clippy::expect_used)]
                t.push_row(vec![
                    Value::Str(award.clone()),
                    Value::Str(accession.clone()),
                    Value::Str(label_to_str(*label).to_string()),
                    Value::Str(labeler.clone()),
                ])
                .expect("store rows fit the schema");
            }
        }
        t
    }

    /// Loads a store from a table in the [`to_table`](Self::to_table)
    /// layout. Unknown label strings are an error (a mislabeled CSV should
    /// not silently become data).
    pub fn from_table(table: &Table) -> Result<LabelStore, CoreError> {
        let mut store = LabelStore::new();
        for (i, row) in table.iter().enumerate() {
            let field = |name: &str| -> Result<String, CoreError> {
                row.get(name)
                    .map(|v| v.render())
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| {
                        CoreError::Pipeline(format!("label row {i}: missing {name}"))
                    })
            };
            let label_text = field("Label")?;
            let label = label_from_str(&label_text).ok_or_else(|| {
                CoreError::Pipeline(format!("label row {i}: unknown label {label_text:?}"))
            })?;
            store.record(LabelRecord {
                award: field("AwardNumber")?,
                accession: field("AccessionNumber")?,
                label,
                labeler: field("Labeler")?,
            });
        }
        Ok(store)
    }

    /// Writes the store to a CSV file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        csv::write_path(&self.to_table(), path)?;
        Ok(())
    }

    /// Reads a store from a CSV file.
    pub fn load(path: impl AsRef<Path>) -> Result<LabelStore, CoreError> {
        let table = csv::read_path(path)?;
        LabelStore::from_table(&table)
    }

    /// Resolves merged labels onto row pairs of the projected tables,
    /// producing the [`LabeledSet`] the training stage consumes. Pairs
    /// referencing unknown identifiers are skipped (they belong to another
    /// data slice).
    pub fn to_labeled_set(
        &self,
        policy: MergePolicy,
        umetrics: &Table,
        usda: &Table,
    ) -> Result<LabeledSet, CoreError> {
        let award_row: BTreeMap<String, usize> = umetrics
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.get("AwardNumber").map(|v| (v.render(), i)))
            .collect();
        let acc_row: BTreeMap<String, usize> = usda
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.get("AccessionNumber").map(|v| (v.render(), i)))
            .collect();
        let (merged, _) = self.merge(policy);
        let mut out = LabeledSet::new();
        for ((award, accession), label) in merged {
            if let (Some(&l), Some(&r)) = (award_row.get(&award), acc_row.get(&accession)) {
                out.insert(Pair::new(l, r), label);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(award: &str, acc: &str, label: Label, who: &str) -> LabelRecord {
        LabelRecord {
            award: award.to_string(),
            accession: acc.to_string(),
            label,
            labeler: who.to_string(),
        }
    }

    #[test]
    fn record_and_cross_check() {
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::Yes, "experts"));
        s.record(rec("W1", "100", Label::No, "em-team"));
        s.record(rec("W2", "200", Label::Yes, "experts"));
        s.record(rec("W2", "200", Label::Yes, "em-team"));
        let mismatches = s.cross_check("experts", "em-team");
        assert_eq!(mismatches.len(), 1);
        assert_eq!(mismatches[0].award, "W1");
        assert_eq!(s.labelers(), vec!["em-team", "experts"]);
    }

    #[test]
    fn relabeling_replaces() {
        // The paper: "The UMETRICS team updated 4 labels to Yes."
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::No, "experts"));
        s.record(rec("W1", "100", Label::Yes, "experts"));
        assert_eq!(s.get("W1", "100", "experts"), Some(Label::Yes));
        assert_eq!(s.n_pairs(), 1);
    }

    #[test]
    fn merge_unanimous_policy() {
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::Yes, "a"));
        s.record(rec("W1", "100", Label::No, "b"));
        s.record(rec("W2", "200", Label::No, "a"));
        s.record(rec("W2", "200", Label::No, "b"));
        let (merged, conflicts) = s.merge(MergePolicy::UnanimousOrUnsure);
        assert_eq!(merged[&("W1".to_string(), "100".to_string())], Label::Unsure);
        assert_eq!(merged[&("W2".to_string(), "200".to_string())], Label::No);
        assert_eq!(conflicts.len(), 1);
    }

    #[test]
    fn merge_majority_policy() {
        let mut s = LabelStore::new();
        for (who, l) in [("a", Label::Yes), ("b", Label::Yes), ("c", Label::No)] {
            s.record(rec("W1", "100", l, who));
        }
        // Tie with an abstention.
        for (who, l) in [("a", Label::Yes), ("b", Label::No), ("c", Label::Unsure)] {
            s.record(rec("W2", "200", l, who));
        }
        let (merged, conflicts) = s.merge(MergePolicy::Majority);
        assert_eq!(merged[&("W1".to_string(), "100".to_string())], Label::Yes);
        assert_eq!(merged[&("W2".to_string(), "200".to_string())], Label::Unsure);
        assert_eq!(conflicts.len(), 2);
    }

    #[test]
    fn csv_round_trip() {
        let mut s = LabelStore::new();
        s.record(rec("10.200 2008-1-2", "200001", Label::Yes, "experts"));
        s.record(rec("10.203 WIS01040", "200002", Label::Unsure, "em-team"));
        let table = s.to_table();
        let back = LabelStore::from_table(&table).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir()
            .join(format!("em-labelstore-{}.csv", std::process::id()));
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::No, "experts"));
        s.save(&path).unwrap();
        let back = LabelStore::load(&path).unwrap();
        assert_eq!(s, back);
        std::fs::remove_file(&path).ok();
    }

    /// A store CSV that took a round trip through Windows tooling — CRLF
    /// line endings and trailing blank lines — must load identically.
    #[test]
    fn windows_file_round_trips() {
        let path = std::env::temp_dir()
            .join(format!("em-labelstore-crlf-{}.csv", std::process::id()));
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::Yes, "experts"));
        s.record(rec("10.203 WIS01040", "200002", Label::Unsure, "em-team"));
        s.save(&path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let windows = text.replace('\n', "\r\n") + "\r\n\r\n\r\n";
        std::fs::write(&path, windows).unwrap();

        let back = LabelStore::load(&path).unwrap();
        assert_eq!(s, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_label_text_is_rejected() {
        let t = csv::read_str(
            "labels",
            "AwardNumber,AccessionNumber,Label,Labeler\nW1,100,Maybe,experts\n",
        )
        .unwrap();
        assert!(LabelStore::from_table(&t).is_err());
    }

    #[test]
    fn lenient_label_spellings_accepted() {
        let t = csv::read_str(
            "labels",
            "AwardNumber,AccessionNumber,Label,Labeler\nW1,100,y,a\nW2,200,NO,a\nW3,300,?,a\n",
        )
        .unwrap();
        let s = LabelStore::from_table(&t).unwrap();
        assert_eq!(s.get("W1", "100", "a"), Some(Label::Yes));
        assert_eq!(s.get("W2", "200", "a"), Some(Label::No));
        assert_eq!(s.get("W3", "300", "a"), Some(Label::Unsure));
    }

    /// [`LabelStore::load`]'s parse of a file's text.
    fn load_str(text: &str) -> Result<LabelStore, CoreError> {
        LabelStore::from_table(&csv::read_str("labels", text)?)
    }

    /// Loading hostile bytes is a typed error or a store whose saved text
    /// is a fixed point of load-then-save — never a panic. Returns whether
    /// it was accepted.
    fn assert_loads_or_errs(text: &str, what: &str) -> bool {
        let save = |s: &LabelStore| csv::write_str(&s.to_table());
        let outcome = std::panic::catch_unwind(|| {
            load_str(text).ok().map(|store| {
                let once = save(&store);
                (load_str(&once).map(|s| save(&s)), once)
            })
        });
        match outcome {
            Err(_) => panic!("load panicked on {what}"),
            Ok(Some((again, once))) => {
                assert_eq!(again, Ok(once), "{what}: accepted, but save is not a fixed point");
                true
            }
            Ok(None) => false,
        }
    }

    #[test]
    fn hostile_bytes_are_typed_errors_or_fixed_points() {
        let mut s = LabelStore::new();
        s.record(rec("10.200 2008-1-2", "200001", Label::Yes, "experts"));
        s.record(rec("10.200 2008-1-2", "200001", Label::No, "em-team"));
        s.record(rec("10.203 WIS01040", "200002", Label::Unsure, "Smith, J"));
        s.record(rec("W1", "100", Label::No, "experts"));
        let good = csv::write_str(&s.to_table());
        assert!(good.is_ascii());
        assert!(assert_loads_or_errs(&good, "the saved store"));
        for cut in 0..good.len() {
            assert_loads_or_errs(&good[..cut], &format!("truncation at {cut}"));
        }
        // Seeded single-byte ASCII mutations (splitmix64), tab and newline
        // included.
        let mut state = 20190326u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\t', b'\n']).collect();
        let mut accepted = 0;
        for _ in 0..4_000 {
            let at = next() % good.len();
            let byte = alphabet[next() % alphabet.len()];
            let mut bytes = good.clone().into_bytes();
            bytes[at] = byte;
            let text = String::from_utf8(bytes).unwrap();
            if assert_loads_or_errs(&text, &format!("byte {at} set to {:?}", byte as char)) {
                accepted += 1;
            }
        }
        // Both outcomes occur: a mutation inside a name or number loads, one
        // in a label, a header or the quoting does not.
        assert!((1..4_000).contains(&accepted), "{accepted} of 4000 mutations accepted");
    }

    #[test]
    fn to_labeled_set_resolves_rows() {
        let u = csv::read_str("u", "AwardNumber\nW1\nW2\n").unwrap();
        let d = csv::read_str("d", "AccessionNumber\n100\n200\n").unwrap();
        let mut s = LabelStore::new();
        s.record(rec("W1", "100", Label::Yes, "a"));
        s.record(rec("W2", "200", Label::No, "a"));
        s.record(rec("W9", "900", Label::Yes, "a")); // other slice: skipped
        let set = s.to_labeled_set(MergePolicy::Majority, &u, &d).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(&Pair::new(0, 0)), Some(Label::Yes));
        assert_eq!(set.get(&Pair::new(1, 1)), Some(Label::No));
    }
}
