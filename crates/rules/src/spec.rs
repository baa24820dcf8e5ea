//! Serializable rule-set descriptions.
//!
//! [`RuleSet`](crate::RuleSet) holds closures, so it cannot be written to
//! disk directly. A [`RuleSetDesc`] is the declarative form: a list of
//! records naming the rule constructor and its attributes, from which
//! [`RuleSetDesc::build`] reconstructs the exact same rules. Workflow
//! snapshots persist the description and rebuild the closures on load.

use crate::rules::{EqualityRule, NegativeRule, RuleSet};
use crate::RuleError;

/// Which side of the workflow a rule acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RulePolarity {
    /// Sure-match rule (applied to whole tables).
    Positive,
    /// Flip-to-non-match rule (applied to predicted matches).
    Negative,
}

/// Which key derivation the rule uses on its left side (the right side is
/// always the plain attribute value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKeyKind {
    /// Trimmed attribute equality ([`EqualityRule::attr_equals`] /
    /// [`NegativeRule::comparable_attrs`]).
    Attr,
    /// Award-suffix on the left ([`EqualityRule::suffix_equals`] /
    /// [`NegativeRule::comparable_suffix`]).
    Suffix,
}

/// One declaratively-described rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDesc {
    /// Positive or negative.
    pub polarity: RulePolarity,
    /// Key derivation.
    pub kind: RuleKeyKind,
    /// Rule name (provenance tag) — preserved exactly.
    pub name: String,
    /// Left-table attribute.
    pub left_attr: String,
    /// Right-table attribute.
    pub right_attr: String,
}

/// A serializable description of a [`RuleSet`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSetDesc {
    /// The rules, in application order (positives keep their union order).
    pub rules: Vec<RuleDesc>,
}

impl RulePolarity {
    fn tag(self) -> &'static str {
        match self {
            RulePolarity::Positive => "pos",
            RulePolarity::Negative => "neg",
        }
    }

    fn from_tag(tag: &str) -> Option<RulePolarity> {
        match tag {
            "pos" => Some(RulePolarity::Positive),
            "neg" => Some(RulePolarity::Negative),
            _ => None,
        }
    }
}

impl RuleKeyKind {
    fn tag(self) -> &'static str {
        match self {
            RuleKeyKind::Attr => "attr",
            RuleKeyKind::Suffix => "suffix",
        }
    }

    fn from_tag(tag: &str) -> Option<RuleKeyKind> {
        match tag {
            "attr" => Some(RuleKeyKind::Attr),
            "suffix" => Some(RuleKeyKind::Suffix),
            _ => None,
        }
    }
}

impl RuleSetDesc {
    /// Starts an empty description.
    pub fn new() -> RuleSetDesc {
        RuleSetDesc::default()
    }

    /// Appends a positive rule.
    pub fn positive(
        mut self,
        kind: RuleKeyKind,
        name: impl Into<String>,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> RuleSetDesc {
        self.rules.push(RuleDesc {
            polarity: RulePolarity::Positive,
            kind,
            name: name.into(),
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
        });
        self
    }

    /// Appends a negative rule.
    pub fn negative(
        mut self,
        kind: RuleKeyKind,
        name: impl Into<String>,
        left_attr: impl Into<String>,
        right_attr: impl Into<String>,
    ) -> RuleSetDesc {
        self.rules.push(RuleDesc {
            polarity: RulePolarity::Negative,
            kind,
            name: name.into(),
            left_attr: left_attr.into(),
            right_attr: right_attr.into(),
        });
        self
    }

    /// Reconstructs the executable [`RuleSet`] through the same public
    /// constructors hand-written code uses, so described and hand-built
    /// rule sets behave identically.
    pub fn build(&self) -> RuleSet {
        let mut set = RuleSet::default();
        for r in &self.rules {
            match (r.polarity, r.kind) {
                (RulePolarity::Positive, RuleKeyKind::Attr) => set
                    .positive
                    .push(EqualityRule::attr_equals(&r.name, &r.left_attr, &r.right_attr)),
                (RulePolarity::Positive, RuleKeyKind::Suffix) => set
                    .positive
                    .push(EqualityRule::suffix_equals(&r.name, &r.left_attr, &r.right_attr)),
                (RulePolarity::Negative, RuleKeyKind::Attr) => set
                    .negative
                    .push(NegativeRule::comparable_attrs(&r.name, &r.left_attr, &r.right_attr)),
                (RulePolarity::Negative, RuleKeyKind::Suffix) => set
                    .negative
                    .push(NegativeRule::comparable_suffix(&r.name, &r.left_attr, &r.right_attr)),
            }
        }
        set
    }

    /// One line per rule: `polarity kind name left right`, fields
    /// tab-separated so names may contain spaces.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                r.polarity.tag(),
                r.kind.tag(),
                r.name,
                r.left_attr,
                r.right_attr
            ));
        }
        out
    }

    /// Parses a description produced by [`RuleSetDesc::encode`]. Malformed
    /// lines yield [`RuleError::BadRuleDesc`] — never a panic.
    pub fn decode(text: &str) -> Result<RuleSetDesc, RuleError> {
        let mut rules = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [pol, kind, name, left, right] = fields.as_slice() else {
                return Err(RuleError::BadRuleDesc(format!(
                    "expected 5 tab-separated fields, got {}: {line:?}",
                    fields.len()
                )));
            };
            let polarity = RulePolarity::from_tag(pol)
                .ok_or_else(|| RuleError::BadRuleDesc(format!("unknown polarity {pol:?}")))?;
            let kind = RuleKeyKind::from_tag(kind)
                .ok_or_else(|| RuleError::BadRuleDesc(format!("unknown key kind {kind:?}")))?;
            rules.push(RuleDesc {
                polarity,
                kind,
                name: name.to_string(),
                left_attr: left.to_string(),
                right_attr: right.to_string(),
            });
        }
        Ok(RuleSetDesc { rules })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_table::csv::read_str;

    fn sample() -> RuleSetDesc {
        RuleSetDesc::new()
            .positive(RuleKeyKind::Suffix, "M1", "AwardNumber", "AwardNumber")
            .positive(RuleKeyKind::Suffix, "award=project", "AwardNumber", "ProjectNumber")
            .negative(RuleKeyKind::Suffix, "neg:award", "AwardNumber", "AwardNumber")
            .negative(RuleKeyKind::Attr, "neg:title", "AwardTitle", "ProjectTitle")
    }

    #[test]
    fn encode_decode_roundtrips() {
        let desc = sample();
        assert_eq!(RuleSetDesc::decode(&desc.encode()).unwrap(), desc);
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for text in ["pos\tattr\tname\tleft", "maybe\tattr\ta\tb\tc", "pos\tregex\ta\tb\tc"] {
            assert!(
                matches!(RuleSetDesc::decode(text), Err(RuleError::BadRuleDesc(_))),
                "accepted {text:?}"
            );
        }
    }

    #[test]
    fn built_rules_match_hand_constructed() {
        let u = read_str(
            "U",
            "AwardNumber,AwardTitle\n\
             10.200 2008-34103-19449,Corn Fungicide Guidelines\n\
             10.203 WIS01040,Swamp Dodder Ecology\n",
        )
        .unwrap();
        let s = read_str(
            "S",
            "AwardNumber,ProjectNumber,ProjectTitle\n\
             2008-34103-19449,,Corn Fungicide Guidelines\n\
             ,WIS01040,Swamp Dodder Ecology\n",
        )
        .unwrap();
        let built = sample().build();
        let hand = RuleSet {
            positive: vec![
                EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber"),
                EqualityRule::suffix_equals("award=project", "AwardNumber", "ProjectNumber"),
            ],
            negative: vec![
                NegativeRule::comparable_suffix("neg:award", "AwardNumber", "AwardNumber"),
                NegativeRule::comparable_attrs("neg:title", "AwardTitle", "ProjectTitle"),
            ],
        };
        for i in 0..u.n_rows() {
            for j in 0..s.n_rows() {
                let (ra, rb) = (u.row(i).unwrap(), s.row(j).unwrap());
                assert_eq!(built.any_positive_fires(ra, rb), hand.any_positive_fires(ra, rb));
                assert_eq!(built.any_negative_fires(ra, rb), hand.any_negative_fires(ra, rb));
            }
        }
        let names: Vec<&str> = built.positive.iter().map(|r| r.name()).collect();
        assert_eq!(names, vec!["M1", "award=project"]);
    }
}
