//! The award-number pattern language of Section 12.
//!
//! The UMETRICS team describes identifier shapes with patterns such as
//! `##-XX-########-###` and `YYYY-#####-#####`, where `#` is any digit, `X`
//! any letter, and `YYYY` a four-digit year. Two identifiers are
//! **comparable** when they follow the same pattern; the negative matching
//! rule then declares comparable-but-different identifiers a non-match.
//!
//! [`infer`] derives the pattern of a concrete value (so the rule engine can
//! check comparability without the experts enumerating patterns), and
//! [`Pattern`] matches values against an explicit spec (so the experts'
//! enumerated pattern lists are also expressible).

/// Infers the pattern of a value: maximal digit runs of length 4 that parse
/// to a plausible year (1900–2099) become `YYYY`, other digits become `#`,
/// letters become `X`, and everything else is kept literally.
pub fn infer(value: &str) -> String {
    // A pattern is never longer than its value, so this is the one
    // allocation: `infer` runs once per arriving record on the serve path.
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(c) = rest.chars().next() {
        if c.is_ascii_digit() {
            let run = rest.bytes().take_while(u8::is_ascii_digit).count();
            let year = run == 4 && rest[..4].parse().is_ok_and(|y: u32| (1900..=2099).contains(&y));
            if year {
                out.push_str("YYYY");
            } else {
                (0..run).for_each(|_| out.push('#'));
            }
            rest = &rest[run..];
        } else {
            out.push(if c.is_ascii_alphabetic() { 'X' } else { c });
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

/// Two values are comparable when they follow the same inferred pattern
/// (Section 12's definition). Empty values are never comparable.
pub fn comparable(a: &str, b: &str) -> bool {
    let (a, b) = (a.trim(), b.trim());
    !a.is_empty() && !b.is_empty() && infer(a) == infer(b)
}

/// An explicit pattern spec in the paper's notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    spec: Vec<Token>,
    source: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Digit,
    Letter,
    Year,
    Literal(char),
}

impl Pattern {
    /// Parses a spec: `#` digit, `X` letter, `YYYY` year, anything else
    /// literal.
    pub fn parse(spec: &str) -> Pattern {
        let mut tokens = Vec::new();
        let chars: Vec<char> = spec.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if chars[i] == 'Y' && chars[i..].starts_with(&['Y', 'Y', 'Y', 'Y']) {
                tokens.push(Token::Year);
                i += 4;
            } else {
                tokens.push(match chars[i] {
                    '#' => Token::Digit,
                    'X' => Token::Letter,
                    c => Token::Literal(c),
                });
                i += 1;
            }
        }
        Pattern { spec: tokens, source: spec.to_string() }
    }

    /// The original spec text.
    pub fn spec(&self) -> &str {
        &self.source
    }

    /// True when `value` matches the pattern exactly (whole string).
    pub fn matches(&self, value: &str) -> bool {
        let chars: Vec<char> = value.chars().collect();
        let mut pos = 0usize;
        for token in &self.spec {
            match token {
                Token::Digit => {
                    if pos >= chars.len() || !chars[pos].is_ascii_digit() {
                        return false;
                    }
                    pos += 1;
                }
                Token::Letter => {
                    if pos >= chars.len() || !chars[pos].is_ascii_alphabetic() {
                        return false;
                    }
                    pos += 1;
                }
                Token::Year => {
                    if pos + 4 > chars.len() {
                        return false;
                    }
                    let run: String = chars[pos..pos + 4].iter().collect();
                    match run.parse::<u32>() {
                        Ok(y) if (1900..=2099).contains(&y) => pos += 4,
                        _ => return false,
                    }
                }
                Token::Literal(c) => {
                    if pos >= chars.len() || chars[pos] != *c {
                        return false;
                    }
                    pos += 1;
                }
            }
        }
        pos == chars.len()
    }
}

/// A set of known patterns; a value "follows a known pattern" when any
/// member matches. This is the shape of the pattern lists the UMETRICS team
/// supplied (paper: "the list of possible patterns for the award numbers").
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Builds a set from spec strings.
    pub fn new(specs: &[&str]) -> PatternSet {
        PatternSet { patterns: specs.iter().map(|s| Pattern::parse(s)).collect() }
    }

    /// The first matching pattern's spec, if any.
    pub fn classify(&self, value: &str) -> Option<&str> {
        self.patterns.iter().find(|p| p.matches(value)).map(Pattern::spec)
    }

    /// True when some pattern matches.
    pub fn matches(&self, value: &str) -> bool {
        self.classify(value).is_some()
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the set has no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_paper_examples() {
        // Section 12's own examples.
        assert_eq!(infer("03-CS-112313000-031"), "##-XX-#########-###");
        assert_eq!(infer("2001-34101-10526"), "YYYY-#####-#####");
        assert_eq!(infer("WIS01560"), "XXX#####");
        assert_eq!(infer("WIS04509"), "XXX#####");
    }

    #[test]
    fn comparable_matches_paper_semantics() {
        // Different patterns → not comparable.
        assert!(!comparable("03-CS-112313000-031", "2001-34101-10526"));
        // Same pattern, different values → comparable (the negative rule
        // will then fire).
        assert!(comparable("WIS01560", "WIS04509"));
        assert!(comparable("2008-34103-19449", "2001-34101-10526"));
    }

    #[test]
    fn comparable_rejects_empty() {
        assert!(!comparable("", "WIS01560"));
        assert!(!comparable("  ", "  "));
    }

    #[test]
    fn year_detection_requires_plausible_year() {
        assert_eq!(infer("2008"), "YYYY");
        assert_eq!(infer("3008"), "####");
        assert_eq!(infer("123"), "###");
        assert_eq!(infer("12345"), "#####");
    }

    #[test]
    fn pattern_matches_explicit_specs() {
        let p = Pattern::parse("YYYY-#####-#####");
        assert!(p.matches("2008-34103-19449"));
        assert!(!p.matches("9008-34103-19449")); // implausible year
        assert!(!p.matches("2008-34103-1944")); // short
        assert!(!p.matches("2008-34103-194499")); // long
        let wis = Pattern::parse("XXX#####");
        assert!(wis.matches("WIS01040"));
        assert!(!wis.matches("WIS0104"));
        assert!(!wis.matches("W1S01040"));
    }

    #[test]
    fn pattern_literal_chars() {
        let p = Pattern::parse("##.###");
        assert!(p.matches("10.200"));
        assert!(!p.matches("10-200"));
    }

    #[test]
    fn pattern_set_classifies() {
        let set = PatternSet::new(&["YYYY-#####-#####", "XXX#####", "##-XX-#########-###"]);
        assert_eq!(set.classify("WIS01040"), Some("XXX#####"));
        assert_eq!(set.classify("2008-34103-19449"), Some("YYYY-#####-#####"));
        assert_eq!(set.classify("nonsense"), None);
        assert!(set.matches("03-CS-112313000-031"));
    }

    #[test]
    fn infer_then_match_round_trips() {
        for v in ["WIS01040", "2008-34103-19449", "03-CS-112313000-031", "10.200 2008-34103-19449"] {
            let p = Pattern::parse(&infer(v));
            assert!(p.matches(v), "inferred pattern should match its source: {v}");
        }
    }

    #[test]
    fn empty_pattern_matches_only_empty() {
        let p = Pattern::parse("");
        assert!(p.matches(""));
        assert!(!p.matches("x"));
    }
}
