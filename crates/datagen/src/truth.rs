//! Ground truth for the synthetic scenario.
//!
//! Matches are keyed by `(UniqueAwardNumber, AccessionNumber)` — the same
//! identifier pairs the UMETRICS team required as the deliverable (Section
//! 6: "the output matches to be listed as pairs of UniqueAwardNumber and
//! AccessionNumber"). Keying by identifier rather than row index keeps the
//! truth valid across the pipeline's projections, joins, and re-orderings.

use std::collections::{BTreeMap, BTreeSet};

/// The hidden true match set plus generation metadata the experiments need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    matches: BTreeSet<(String, String)>,
    by_award: BTreeMap<String, Vec<String>>,
    extra_awards: BTreeSet<String>,
}

impl GroundTruth {
    /// Records a true match.
    pub fn add_match(&mut self, award: &str, accession: &str) {
        if self.matches.insert((award.to_string(), accession.to_string())) {
            self.by_award
                .entry(award.to_string())
                .or_default()
                .push(accession.to_string());
        }
    }

    /// Marks an award as belonging to the withheld "extra data" batch.
    pub fn mark_extra(&mut self, award: &str) {
        self.extra_awards.insert(award.to_string());
    }

    /// True when the pair is a real match.
    pub fn is_match(&self, award: &str, accession: &str) -> bool {
        self.matches.contains(&(award.to_string(), accession.to_string()))
    }

    /// Number of true match pairs.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True when no matches exist.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Iterates `(award, accession)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.matches.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }

    /// Accession numbers matching one award (the one-to-many structure).
    pub fn accessions_for(&self, award: &str) -> &[String] {
        self.by_award.get(award).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when the award was withheld into the extra batch.
    pub fn is_extra_award(&self, award: &str) -> bool {
        self.extra_awards.contains(award)
    }

    /// Matches whose award is in the initial (non-extra) batch.
    pub fn n_matches_initial(&self) -> usize {
        self.matches.iter().filter(|(a, _)| !self.extra_awards.contains(a)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut t = GroundTruth::default();
        t.add_match("10.200 A1", "100");
        t.add_match("10.200 A1", "101"); // one-to-many
        t.add_match("10.203 B1", "102");
        assert!(t.is_match("10.200 A1", "100"));
        assert!(!t.is_match("10.200 A1", "102"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.accessions_for("10.200 A1"), &["100", "101"]);
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut t = GroundTruth::default();
        t.add_match("a", "1");
        t.add_match("a", "1");
        assert_eq!(t.len(), 1);
        assert_eq!(t.accessions_for("a").len(), 1);
    }

    #[test]
    fn extra_tracking() {
        let mut t = GroundTruth::default();
        t.add_match("a", "1");
        t.add_match("b", "2");
        t.mark_extra("b");
        assert!(t.is_extra_award("b"));
        assert!(!t.is_extra_award("a"));
        assert_eq!(t.n_matches_initial(), 1);
    }

    #[test]
    fn unknown_keys_empty() {
        let t = GroundTruth::default();
        assert!(t.accessions_for("nope").is_empty());
        assert!(t.is_empty());
    }
}
