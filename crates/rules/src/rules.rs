//! Positive and negative match rules, and the rule sets the workflows apply.
//!
//! The case study uses three kinds of hand-crafted rules:
//!
//! - **M1** (Section 5): if the suffix of UMETRICS `AwardNumber` equals the
//!   USDA `AwardNumber`, the pair is a sure match.
//! - The **revised-definition rule** (Section 10): if UMETRICS
//!   `AwardNumber` equals USDA `ProjectNumber`, the pair is a sure match.
//! - The **negative rule** (Section 12): if two identifiers are comparable
//!   (same pattern) but different, flip the prediction to non-match.
//!
//! Positive rules are [`EqualityRule`]s over derived keys, so whole-table
//! application is a hash join, not a Cartesian scan.

use crate::award::award_suffix;
use crate::error::RuleError;
use crate::pattern::{comparable, infer};
use em_blocking::{CandidateSet, Pair};
use em_parallel::Executor;
use em_table::{RowRef, Table};
use em_text::intern::Interner;
use em_text::FastMap;
use std::collections::HashMap;
use std::sync::Arc;

/// Minimum rows (or pairs) per thread when rule probing fans out.
const RULE_GRAIN: usize = 256;

/// Derives the comparison key for one side of a rule. `None` / empty keys
/// never fire a rule.
pub type KeyFn = Arc<dyn Fn(RowRef<'_>) -> Option<String> + Send + Sync>;

/// Extracts a trimmed, non-empty string attribute.
pub fn attr_key(attr: &str) -> KeyFn {
    let attr = attr.to_string();
    Arc::new(move |r: RowRef<'_>| {
        r.str(&attr).map(str::trim).filter(|s| !s.is_empty()).map(str::to_string)
    })
}

/// Extracts the award-number suffix of an attribute (M1's left side).
pub fn suffix_key(attr: &str) -> KeyFn {
    let attr = attr.to_string();
    Arc::new(move |r: RowRef<'_>| {
        r.str(&attr).and_then(award_suffix).map(str::to_string)
    })
}

/// A positive (sure-match) rule: fires when the derived keys agree exactly.
#[derive(Clone)]
pub struct EqualityRule {
    name: String,
    left_key: KeyFn,
    right_key: KeyFn,
}

impl std::fmt::Debug for EqualityRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EqualityRule").field("name", &self.name).finish_non_exhaustive()
    }
}

impl EqualityRule {
    /// A rule over arbitrary key extractors.
    pub fn new(name: impl Into<String>, left_key: KeyFn, right_key: KeyFn) -> EqualityRule {
        EqualityRule { name: name.into(), left_key, right_key }
    }

    /// Exact equality of two attributes (the Section 10 rule:
    /// `AwardNumber = ProjectNumber`).
    pub fn attr_equals(name: impl Into<String>, left_attr: &str, right_attr: &str) -> EqualityRule {
        EqualityRule::new(name, attr_key(left_attr), attr_key(right_attr))
    }

    /// M1: the suffix of the left attribute equals the right attribute.
    pub fn suffix_equals(name: impl Into<String>, left_attr: &str, right_attr: &str) -> EqualityRule {
        EqualityRule::new(name, suffix_key(left_attr), attr_key(right_attr))
    }

    /// The rule's name (used as provenance tag).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Derived key for a left-table row (`None` never fires). Online
    /// serving uses this to probe a prebuilt right-side key index.
    pub fn left_key(&self, r: RowRef<'_>) -> Option<String> {
        (self.left_key)(r)
    }

    /// Derived key for a right-table row — the index side of the hash join.
    pub fn right_key(&self, r: RowRef<'_>) -> Option<String> {
        (self.right_key)(r)
    }

    /// Pair-level check.
    pub fn fires(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        match ((self.left_key)(a), (self.right_key)(b)) {
            (Some(l), Some(r)) => l == r,
            _ => false,
        }
    }

    /// All pairs of `A × B` on which the rule fires, via hash join on the
    /// derived keys. Right-side keys are interned to dense ids once while
    /// building the index; left rows then probe in parallel (each probe is
    /// a pure function of its row index, so output is thread-count
    /// independent).
    pub fn find_all(&self, a: &Table, b: &Table) -> Result<CandidateSet, RuleError> {
        let mut interner = Interner::new();
        let mut index: HashMap<u32, Vec<usize>> = HashMap::new();
        for (j, rb) in b.iter().enumerate() {
            if let Some(k) = (self.right_key)(rb) {
                index.entry(interner.intern(&k)).or_default().push(j);
            }
        }
        let hits: Vec<Option<&Vec<usize>>> =
            Executor::current().map_indexed(a.n_rows(), RULE_GRAIN, |i| {
                a.row(i)
                    .and_then(|ra| (self.left_key)(ra))
                    .and_then(|k| interner.get(&k))
                    .and_then(|id| index.get(&id))
            });
        let mut out = CandidateSet::new(self.name.clone());
        for (i, js) in hits.into_iter().enumerate() {
            for &j in js.into_iter().flatten() {
                out.add(Pair::new(i, j), &self.name);
            }
        }
        Ok(out)
    }
}

/// A negative rule: flips a predicted match to non-match when the derived
/// keys are *comparable* (same inferred pattern) but not equal.
#[derive(Clone)]
pub struct NegativeRule {
    name: String,
    left_key: KeyFn,
    right_key: KeyFn,
}

impl std::fmt::Debug for NegativeRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NegativeRule").field("name", &self.name).finish_non_exhaustive()
    }
}

impl NegativeRule {
    /// A negative rule over arbitrary key extractors.
    pub fn new(name: impl Into<String>, left_key: KeyFn, right_key: KeyFn) -> NegativeRule {
        NegativeRule { name: name.into(), left_key, right_key }
    }

    /// Comparable-but-different check over two attributes.
    pub fn comparable_attrs(
        name: impl Into<String>,
        left_attr: &str,
        right_attr: &str,
    ) -> NegativeRule {
        NegativeRule::new(name, attr_key(left_attr), attr_key(right_attr))
    }

    /// Comparable-but-different between the left attribute's award suffix
    /// and the right attribute (the paper's first negative condition).
    pub fn comparable_suffix(
        name: impl Into<String>,
        left_attr: &str,
        right_attr: &str,
    ) -> NegativeRule {
        NegativeRule::new(name, suffix_key(left_attr), attr_key(right_attr))
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pair-level check: true when the pair should be flipped to non-match.
    pub fn fires(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        match ((self.left_key)(a), (self.right_key)(b)) {
            (Some(l), Some(r)) => comparable(&l, &r) && l != r,
            _ => false,
        }
    }
}

/// One row's key under one bound negative rule: the interned pattern of the
/// trimmed key and the interned key itself; `None` when the row has no key
/// or only whitespace (never comparable, so the rule cannot fire).
type BoundKey = Option<(u32, u32)>;

/// The key id no right row carries: what a left key the right side never
/// produced binds to. It differs from every right key, which is all a
/// comparison asks of an id.
const UNSEEN_KEY: u32 = u32::MAX;

/// One negative rule with its right side bound.
#[derive(Debug)]
struct BoundRule {
    rule: NegativeRule,
    /// Pattern ids, one id space for both sides.
    patterns: Interner,
    /// Every right key seen so far, as stored; its pattern is inferred the
    /// first time it is seen.
    keys: FastMap<String, BoundKey>,
    /// Per right row.
    right: Vec<BoundKey>,
}

/// The negative rules of a [`RuleSet`] bound to a right table: every key is
/// derived, pattern-inferred and interned **once per row**, so the per-pair
/// check of a long candidate stream is two loads and two integer
/// comparisons — no key strings, no pattern strings. The right side grows
/// row by row; a left row is bound read-only — once per table row by the
/// batch stream, once per request by the serve loop — and
/// [`any_fires`](BoundNegativeRules::any_fires) on its keys equals
/// [`RuleSet::any_negative_fires`] on the same rows.
#[derive(Debug)]
pub struct BoundNegativeRules {
    rules: Vec<BoundRule>,
}

impl BoundNegativeRules {
    /// Binds one more right row, the next row index.
    pub fn push_right_row(&mut self, row: RowRef<'_>) -> Result<(), RuleError> {
        for bound in &mut self.rules {
            let key = match (bound.rule.right_key)(row) {
                None => None,
                Some(k) => {
                    let next = u32::try_from(bound.keys.len())
                        .ok()
                        .filter(|&id| id != UNSEEN_KEY)
                        .ok_or_else(|| RuleError::TooManyKeys(bound.rule.name.clone()))?;
                    let patterns = &mut bound.patterns;
                    *bound.keys.entry(k).or_insert_with_key(|k| {
                        let trimmed = k.trim();
                        (!trimmed.is_empty()).then(|| (patterns.intern(&infer(trimmed)), next))
                    })
                }
            };
            bound.right.push(key);
        }
        Ok(())
    }

    /// Appends `row`'s key under each rule to `out`, in rule order. A key no
    /// right row has gets a row-local id and a pattern no right row has
    /// binds to `None`: neither can change a comparison against a right
    /// row, so nothing is interned.
    pub fn bind_left(&self, row: RowRef<'_>, out: &mut Vec<Option<(u32, u32)>>) {
        out.extend(self.rules.iter().map(|bound| {
            let k = (bound.rule.left_key)(row)?;
            if let Some(&seen) = bound.keys.get(&k) {
                return seen;
            }
            let trimmed = k.trim();
            if trimmed.is_empty() {
                return None;
            }
            bound.patterns.get(&infer(trimmed)).map(|pattern| (pattern, UNSEEN_KEY))
        }));
    }

    /// True when any negative rule fires between a left row's
    /// [bound](BoundNegativeRules::bind_left) keys and right row `right`:
    /// the two keys are comparable (same pattern) but different. A right
    /// row never pushed fires nothing.
    #[inline]
    pub fn any_fires(&self, left: &[Option<(u32, u32)>], right: usize) -> bool {
        self.rules.iter().zip(left).any(|(bound, l)| {
            match (l, bound.right.get(right).copied().flatten()) {
                (Some((lp, lk)), Some((rp, rk))) => *lp == rp && *lk != rk,
                _ => false,
            }
        })
    }
}

/// A bundle of positive and negative rules, applied the way the final
/// workflow of Figure 10 applies them.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Sure-match rules (applied to whole tables; union of firings).
    pub positive: Vec<EqualityRule>,
    /// Flip-to-non-match rules (applied to predicted matches).
    pub negative: Vec<NegativeRule>,
}

impl RuleSet {
    /// Union of all positive-rule firings over `A × B` — the sure-match set
    /// (`C1`/`D1` in Figures 9 and 10).
    pub fn sure_matches(&self, a: &Table, b: &Table) -> Result<CandidateSet, RuleError> {
        let mut out = CandidateSet::new("sure-matches");
        for rule in &self.positive {
            out = out.union(&rule.find_all(a, b)?);
        }
        out.set_name("sure-matches");
        Ok(out)
    }

    /// True when any positive rule fires on the pair.
    pub fn any_positive_fires(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        self.positive.iter().any(|r| r.fires(a, b))
    }

    /// True when any negative rule fires on the pair.
    pub fn any_negative_fires(&self, a: RowRef<'_>, b: RowRef<'_>) -> bool {
        self.negative.iter().any(|r| r.fires(a, b))
    }

    /// Binds the negative rules to a right table (see
    /// [`BoundNegativeRules`]) — the set-up step of a matcher that asks
    /// about far more pairs than the tables have rows.
    pub fn bind_negative(&self, right: &Table) -> Result<BoundNegativeRules, RuleError> {
        let mut bound = BoundNegativeRules {
            rules: self
                .negative
                .iter()
                .map(|rule| BoundRule {
                    rule: rule.clone(),
                    patterns: Interner::new(),
                    keys: FastMap::default(),
                    right: Vec::with_capacity(right.n_rows()),
                })
                .collect(),
        };
        for row in right.iter() {
            bound.push_right_row(row)?;
        }
        Ok(bound)
    }

    /// Applies the negative rules to a set of predicted matches, splitting
    /// it into `(kept, flipped)` — `S = R − flipped` in Figure 10.
    pub fn apply_negative(
        &self,
        a: &Table,
        b: &Table,
        matches: &CandidateSet,
    ) -> Result<(CandidateSet, CandidateSet), RuleError> {
        let mut kept = CandidateSet::new(format!("{}·kept", matches.name()));
        let mut flipped = CandidateSet::new(format!("{}·flipped", matches.name()));
        // Each pair's verdict is independent, so evaluation fans out; the
        // ordered merge below preserves provenance exactly as the
        // sequential loop did.
        let pairs: Vec<Pair> = matches.to_vec();
        let verdicts: Vec<Result<bool, RuleError>> =
            Executor::current().map_slice(&pairs, RULE_GRAIN, |pair| {
                let ra = a
                    .row(pair.left)
                    .ok_or(RuleError::BadPair(pair.left, pair.right))?;
                let rb = b
                    .row(pair.right)
                    .ok_or(RuleError::BadPair(pair.left, pair.right))?;
                Ok(self.any_negative_fires(ra, rb))
            });
        for (pair, verdict) in pairs.iter().zip(verdicts) {
            if verdict? {
                flipped.add(*pair, "negative-rule");
            } else {
                for src in matches.provenance(pair).unwrap_or(&[]) {
                    kept.add(*pair, src);
                }
            }
        }
        Ok((kept, flipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_table::csv::read_str;

    fn umetrics() -> Table {
        read_str(
            "U",
            "AwardNumber,AwardTitle\n\
             10.200 2008-34103-19449,Corn Fungicide Guidelines\n\
             10.203 WIS01040,Swamp Dodder Ecology\n\
             10.250 WIS04059,Maize Genetics\n\
             bare-no-space,Other\n",
        )
        .unwrap()
    }

    fn usda() -> Table {
        read_str(
            "S",
            "AwardNumber,ProjectNumber,ProjectTitle\n\
             2008-34103-19449,,Corn Fungicide Guidelines\n\
             ,WIS01040,Swamp Dodder Ecology\n\
             ,WIS09999,Different Project\n",
        )
        .unwrap()
    }

    #[test]
    fn m1_fires_on_suffix_equality() {
        let m1 = EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber");
        let c = m1.find_all(&umetrics(), &usda()).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&Pair::new(0, 0)));
        assert_eq!(c.provenance(&Pair::new(0, 0)).unwrap(), &["M1"]);
    }

    #[test]
    fn m1_ignores_bare_values() {
        // "bare-no-space" has no extractable suffix → never fires.
        let m1 = EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber");
        let (u, s) = (umetrics(), usda());
        for j in 0..s.n_rows() {
            assert!(!m1.fires(u.row(3).unwrap(), s.row(j).unwrap()));
        }
    }

    #[test]
    fn project_number_rule_fires() {
        let r2 = EqualityRule::suffix_equals("R2", "AwardNumber", "ProjectNumber");
        let c = r2.find_all(&umetrics(), &usda()).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&Pair::new(1, 1)));
    }

    #[test]
    fn fires_agrees_with_find_all() {
        let (u, s) = (umetrics(), usda());
        let rule = EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber");
        let c = rule.find_all(&u, &s).unwrap();
        for i in 0..u.n_rows() {
            for j in 0..s.n_rows() {
                assert_eq!(
                    rule.fires(u.row(i).unwrap(), s.row(j).unwrap()),
                    c.contains(&Pair::new(i, j)),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn negative_rule_flips_comparable_but_different() {
        let neg = NegativeRule::comparable_suffix("neg", "AwardNumber", "ProjectNumber");
        let (u, s) = (umetrics(), usda());
        // WIS01040 vs WIS09999: same pattern, different values → fires.
        assert!(neg.fires(u.row(1).unwrap(), s.row(2).unwrap()));
        // WIS01040 vs WIS01040: same value → does not fire.
        assert!(!neg.fires(u.row(1).unwrap(), s.row(1).unwrap()));
        // federal vs WIS pattern: not comparable → does not fire.
        assert!(!neg.fires(u.row(0).unwrap(), s.row(2).unwrap()));
    }

    #[test]
    fn negative_rule_ignores_missing_values() {
        let neg = NegativeRule::comparable_attrs("neg", "AwardNumber", "AwardNumber");
        let (u, s) = (umetrics(), usda());
        // USDA row 1 has empty AwardNumber → no firing possible.
        assert!(!neg.fires(u.row(1).unwrap(), s.row(1).unwrap()));
    }

    #[test]
    fn bound_negative_rules_equal_pairwise_checks() {
        // Padded, blank, missing, equal and merely comparable keys.
        let u = read_str(
            "U",
            "AwardNumber,Other\n10.203 WIS01040,WIS01040\n10.203 WIS09999, WIS09999 \nbare,\n,\" \"\n10.200 2008-34103-19449,2008-34103-19449\n",
        )
        .unwrap();
        let s = read_str(
            "S",
            "AwardNumber,Other\nWIS01040,WIS01040\nWIS09999,WIS09999\n,2009-11111-22222\n\" \",\n2008-34103-19449, WIS01040\n",
        )
        .unwrap();
        let rules = RuleSet {
            positive: vec![],
            negative: vec![
                NegativeRule::comparable_suffix("neg-suffix", "AwardNumber", "AwardNumber"),
                NegativeRule::comparable_attrs("neg-attr", "Other", "Other"),
                NegativeRule::new("neg-raw", raw_key("Other"), raw_key("Other")),
            ],
        };
        let bound = rules.bind_negative(&s).unwrap();
        let mut fired = 0;
        let mut left = Vec::new();
        for i in 0..u.n_rows() {
            left.clear();
            bound.bind_left(u.row(i).unwrap(), &mut left);
            assert_eq!(left.len(), rules.negative.len());
            for j in 0..s.n_rows() {
                let want = rules.any_negative_fires(u.row(i).unwrap(), s.row(j).unwrap());
                assert_eq!(bound.any_fires(&left, j), want, "({i},{j})");
                fired += usize::from(want);
            }
            // A right row the binder never saw fires nothing.
            assert!(!bound.any_fires(&left, s.n_rows()));
        }
        assert!(fired > 0 && fired < u.n_rows() * s.n_rows());
        assert!(!RuleSet::default().bind_negative(&s).unwrap().any_fires(&[], 0));
    }

    /// The attribute as stored: padding and blanks reach the rule.
    fn raw_key(attr: &str) -> KeyFn {
        let attr = attr.to_string();
        Arc::new(move |r: RowRef<'_>| r.str(&attr).map(str::to_string))
    }

    #[test]
    fn ruleset_sure_matches_unions_rules() {
        let rules = RuleSet {
            positive: vec![
                EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber"),
                EqualityRule::suffix_equals("R2", "AwardNumber", "ProjectNumber"),
            ],
            negative: vec![],
        };
        let sure = rules.sure_matches(&umetrics(), &usda()).unwrap();
        assert_eq!(sure.len(), 2);
        assert!(sure.contains(&Pair::new(0, 0)));
        assert!(sure.contains(&Pair::new(1, 1)));
    }

    #[test]
    fn apply_negative_splits_matches() {
        let rules = RuleSet {
            positive: vec![],
            negative: vec![NegativeRule::comparable_suffix(
                "neg",
                "AwardNumber",
                "ProjectNumber",
            )],
        };
        let mut predicted = CandidateSet::new("R");
        predicted.add(Pair::new(1, 1), "model"); // WIS01040 = WIS01040: keep
        predicted.add(Pair::new(1, 2), "model"); // WIS01040 vs WIS09999: flip
        let (kept, flipped) =
            rules.apply_negative(&umetrics(), &usda(), &predicted).unwrap();
        assert_eq!(kept.len(), 1);
        assert!(kept.contains(&Pair::new(1, 1)));
        assert_eq!(kept.provenance(&Pair::new(1, 1)).unwrap(), &["model"]);
        assert_eq!(flipped.len(), 1);
        assert!(flipped.contains(&Pair::new(1, 2)));
    }

    #[test]
    fn apply_negative_rejects_out_of_range_pairs() {
        let rules = RuleSet::default();
        let mut predicted = CandidateSet::new("R");
        predicted.add(Pair::new(99, 0), "model");
        assert!(rules.apply_negative(&umetrics(), &usda(), &predicted).is_err());
    }
}
