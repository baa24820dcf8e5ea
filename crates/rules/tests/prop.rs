//! Property-based tests for the pattern language and rule semantics.

use em_rules::award::{award_suffix, ids_equal, program_prefix};
use em_rules::pattern::{comparable, infer, Pattern};
use em_rules::{KeyFn, NegativeRule, RuleSet};
use em_table::{DataType, RowRef, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Identifier-shaped strings: digits, letters, dashes, dots.
fn identifier() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Z0-9.-]{1,20}").expect("valid regex")
}

/// Award numbers in the UMETRICS shape: `##.### <suffix>`.
fn unique_award_number() -> impl Strategy<Value = String> {
    (10u32..100, 100u32..1000, identifier())
        .prop_map(|(a, b, suffix)| format!("{a}.{b} {suffix}"))
}

/// A rule-key cell over a tiny alphabet, so keys and patterns collide:
/// missing, blank, bare, padded, or in the `##.### <suffix>` award shape.
fn key_cell() -> impl Strategy<Value = Value> {
    let key = || proptest::string::string_regex("[AB12-]{1,3}").expect("valid regex");
    prop_oneof![
        Just(Value::Null),
        Just(Value::from("")),
        Just(Value::from(" ")),
        key().prop_map(Value::from),
        key().prop_map(|k| Value::from(format!(" {k} "))),
        key().prop_map(|k| Value::from(format!("10.200 {k}"))),
    ]
}

fn key_table(name: &str, rows: Vec<(Value, Value)>) -> Table {
    let schema = Schema::of(&[("Id", DataType::Str), ("Other", DataType::Str)]);
    Table::from_rows(name, schema, rows.into_iter().map(|(a, b)| vec![a, b]).collect())
        .expect("string cells")
}

/// The attribute as stored: padding and blanks reach the rule.
fn raw_key(attr: &'static str) -> KeyFn {
    Arc::new(move |r: RowRef<'_>| r.str(attr).map(str::to_string))
}

proptest! {
    /// A binder grown row by row, one bound over the whole right table and
    /// the pair-level reference agree on every pair — with each left row
    /// bound against every prefix of the right side, so its keys and
    /// patterns are ones the binder has not produced yet.
    #[test]
    fn grown_binder_equals_whole_table_binder_equals_pairwise_rules(
        left in proptest::collection::vec((key_cell(), key_cell()), 1..6),
        right in proptest::collection::vec((key_cell(), key_cell()), 1..8),
    ) {
        let (u, s) = (key_table("U", left), key_table("S", right));
        let rules = RuleSet {
            positive: vec![],
            negative: vec![
                NegativeRule::comparable_suffix("suffix", "Id", "Id"),
                NegativeRule::comparable_attrs("attrs", "Other", "Other"),
                NegativeRule::new("raw", raw_key("Other"), raw_key("Other")),
            ],
        };
        let whole = rules.bind_negative(&s).expect("bind");
        let mut grown = rules.bind_negative(&key_table("S", Vec::new())).expect("bind");
        let (mut by_whole, mut by_grown) = (Vec::new(), Vec::new());
        for seen in 1..=s.n_rows() {
            grown.push_right_row(s.row(seen - 1).expect("row")).expect("push");
            for (i, l) in u.iter().enumerate() {
                by_whole.clear();
                by_grown.clear();
                whole.bind_left(l, &mut by_whole);
                grown.bind_left(l, &mut by_grown);
                for j in 0..seen {
                    let want = rules.any_negative_fires(l, s.row(j).expect("row"));
                    prop_assert_eq!(whole.any_fires(&by_whole, j), want, "whole ({}, {})", i, j);
                    prop_assert_eq!(grown.any_fires(&by_grown, j), want, "grown to {} ({}, {})", seen, i, j);
                }
            }
        }
    }

    /// The inferred pattern of a value always matches that value.
    #[test]
    fn inferred_pattern_matches_source(v in identifier()) {
        let p = Pattern::parse(&infer(&v));
        prop_assert!(p.matches(&v), "infer({v:?}) = {:?} does not match", infer(&v));
    }

    /// Comparability is reflexive (for non-empty values) and symmetric.
    #[test]
    fn comparable_is_reflexive_and_symmetric(a in identifier(), b in identifier()) {
        prop_assert!(comparable(&a, &a));
        prop_assert_eq!(comparable(&a, &b), comparable(&b, &a));
    }

    /// Two values with the same inferred pattern are comparable; values
    /// with different patterns never are.
    #[test]
    fn comparable_iff_same_pattern(a in identifier(), b in identifier()) {
        prop_assert_eq!(comparable(&a, &b), infer(&a) == infer(&b));
    }

    /// Pattern inference is idempotent on the pattern alphabet in the sense
    /// that equal values infer equal patterns.
    #[test]
    fn equal_values_equal_patterns(a in identifier()) {
        prop_assert_eq!(infer(&a), infer(&a.clone()));
    }

    /// The award suffix of `"<prefix> <suffix>"` is the suffix, and the
    /// program prefix is the prefix.
    #[test]
    fn suffix_and_prefix_extraction(n in unique_award_number()) {
        let suffix = award_suffix(&n).expect("two components");
        let prefix = program_prefix(&n).expect("two components");
        prop_assert_eq!(format!("{prefix} {suffix}"), n);
    }

    /// Bare identifiers (no whitespace) have no suffix and no prefix.
    #[test]
    fn bare_identifier_has_no_parts(v in identifier()) {
        prop_assert!(award_suffix(&v).is_none());
        prop_assert!(program_prefix(&v).is_none());
    }

    /// `ids_equal` is an equivalence on trimmed non-empty identifiers and
    /// never equates distinct trimmed values.
    #[test]
    fn ids_equal_semantics(a in identifier(), b in identifier()) {
        prop_assert!(ids_equal(&a, &a));
        prop_assert_eq!(ids_equal(&a, &b), a.trim() == b.trim() && !a.trim().is_empty());
        // whitespace-insensitive on the outside
        let padded = format!("  {a} ");
        prop_assert!(ids_equal(&padded, &a));
    }
}
