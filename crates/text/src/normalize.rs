//! String normalization used before tokenization and blocking.
//!
//! Section 7 of the case study normalizes award titles by lower-casing and
//! removing special characters before overlap blocking — but Section 9
//! deliberately does *not* lowercase during pre-processing ("that often
//! resulted in a loss of information"), instead lowercasing only where
//! needed. [`Normalizer`] makes each choice explicit and composable so both
//! behaviours (and the A-2 ablation between them) are expressible.

/// A configurable string normalizer.
///
/// Steps are applied in a fixed order: lowercase → strip specials →
/// collapse whitespace → trim. Each step is independently switchable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Normalizer {
    /// ASCII-lowercase the input.
    pub lowercase: bool,
    /// Replace characters that are not alphanumeric or whitespace with a
    /// space (quotes, hashes, exclamation marks, braces, … — the list the
    /// paper removes before blocking).
    pub strip_specials: bool,
    /// Collapse runs of whitespace to a single space.
    pub collapse_whitespace: bool,
}

impl Normalizer {
    /// The paper's blocking normalization: lowercase + strip specials +
    /// collapse whitespace.
    pub fn for_blocking() -> Normalizer {
        Normalizer { lowercase: true, strip_specials: true, collapse_whitespace: true }
    }

    /// Identity (no-op) normalizer.
    pub fn none() -> Normalizer {
        Normalizer { lowercase: false, strip_specials: false, collapse_whitespace: false }
    }

    /// Lowercase only — the case-insensitive feature variant of Section 9.
    pub fn lowercase_only() -> Normalizer {
        Normalizer { lowercase: true, strip_specials: false, collapse_whitespace: false }
    }

    /// Applies the configured steps.
    pub fn apply(&self, s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        self.apply_into(s, &mut out);
        out
    }

    /// [`apply`](Normalizer::apply) into a caller-owned buffer (cleared
    /// first): one pass over the characters, and no allocation once `out`
    /// has grown — except when lowercasing text that is not ASCII, where
    /// `str::to_lowercase` is context-sensitive (final sigma) and the first
    /// two steps need the whole string.
    pub fn apply_into(&self, s: &str, out: &mut String) {
        out.clear();
        let strip = |c: char| {
            if self.strip_specials && !c.is_alphanumeric() && !c.is_whitespace() {
                ' '
            } else {
                c
            }
        };
        let lowered;
        let (s, per_char) = if self.lowercase && !s.is_ascii() {
            // Allow-listed: normalization is the once-per-value pipeline
            // stage, not a per-pair hot path.
            #[allow(clippy::disallowed_methods)]
            {
                lowered = s.chars().map(strip).collect::<String>().to_lowercase();
            }
            (lowered.as_str(), false)
        } else {
            (s, true)
        };
        let mut prev_space = false;
        for mut c in s.chars() {
            if per_char {
                c = strip(c);
                if self.lowercase {
                    c = c.to_ascii_lowercase();
                }
            }
            if self.collapse_whitespace && c.is_whitespace() {
                if !prev_space {
                    out.push(' ');
                }
                prev_space = true;
            } else {
                out.push(c);
                prev_space = false;
            }
        }
        out.truncate(out.trim_end().len());
        let lead = out.len() - out.trim_start().len();
        out.drain(..lead);
    }
}

impl Default for Normalizer {
    fn default() -> Self {
        Normalizer::for_blocking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_normalization() {
        let n = Normalizer::for_blocking();
        assert_eq!(
            n.apply("  \"Swamp Dodder (Cuscuta gronovii)\"  Applied!  "),
            "swamp dodder cuscuta gronovii applied"
        );
    }

    #[test]
    fn none_is_identity() {
        let n = Normalizer::none();
        assert_eq!(n.apply("A  (b)!"), "A  (b)!");
    }

    #[test]
    fn lowercase_only_keeps_punctuation() {
        let n = Normalizer::lowercase_only();
        assert_eq!(n.apply("IPM-Based Corn"), "ipm-based corn");
    }

    #[test]
    fn collapse_handles_tabs_and_newlines() {
        let n = Normalizer { lowercase: false, strip_specials: false, collapse_whitespace: true };
        assert_eq!(n.apply("a\t\tb\n c"), "a b c");
    }

    /// The normalizer as first written, a string-level pass per step: the
    /// reference the fused pass is held to.
    #[allow(clippy::disallowed_methods)]
    fn step_by_step(n: &Normalizer, s: &str) -> String {
        let mut out: String = if n.strip_specials {
            s.chars()
                .map(|c| if c.is_alphanumeric() || c.is_whitespace() { c } else { ' ' })
                .collect()
        } else {
            s.to_string()
        };
        if n.lowercase {
            out = out.to_lowercase();
        }
        if n.collapse_whitespace {
            let mut collapsed = String::with_capacity(out.len());
            let mut prev_space = false;
            for c in out.chars() {
                if c.is_whitespace() {
                    if !prev_space {
                        collapsed.push(' ');
                    }
                    prev_space = true;
                } else {
                    collapsed.push(c);
                    prev_space = false;
                }
            }
            out = collapsed;
        }
        out.trim().to_string()
    }

    #[test]
    fn fused_pass_equals_the_steps_under_every_configuration() {
        // Every ASCII byte (so every whitespace and special character meets
        // every step), runs of blanks at both ends, and non-ASCII text
        // whose lowercase form depends on context.
        let every_ascii: String = (0u8..128).map(|b| b as char).collect();
        let inputs = [
            "",
            "   ",
            "\t\x0b IPM-Based  Corn\r\n(2019)!\x0c ",
            "a\u{1f}b",
            every_ascii.as_str(),
            " ΟΔΥΣΣΕΥΣ  İstanbul  CAFÉ #9 ",
            "Σ.Σ ΑΣ! (玉米) \u{a0}x\u{2003}\u{2003}y\u{3000}",
        ];
        let mut out = String::from("stale");
        for bits in 0..8 {
            let n = Normalizer {
                lowercase: bits & 1 != 0,
                strip_specials: bits & 2 != 0,
                collapse_whitespace: bits & 4 != 0,
            };
            for s in inputs {
                n.apply_into(s, &mut out);
                assert_eq!(out, step_by_step(&n, s), "{n:?} on {s:?}");
                assert_eq!(n.apply(s), out);
            }
        }
    }

    #[test]
    fn unicode_alphanumerics_survive_strip() {
        let n = Normalizer::for_blocking();
        assert_eq!(n.apply("café #9"), "café 9");
    }
}
