//! Error type for rule application.

use std::fmt;

/// Errors raised while applying rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A candidate pair referenced a row outside its table.
    BadPair(usize, usize),
    /// A serialized rule description did not parse.
    BadRuleDesc(String),
    /// The named negative rule met more distinct keys than a `u32` id
    /// space holds.
    TooManyKeys(String),
    /// Underlying table error.
    Table(em_table::TableError),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::BadPair(l, r) => write!(f, "pair ({l}, {r}) is out of range"),
            RuleError::BadRuleDesc(detail) => write!(f, "bad rule description: {detail}"),
            RuleError::TooManyKeys(rule) => {
                write!(f, "negative rule {rule:?} has more than {} distinct keys", u32::MAX)
            }
            RuleError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for RuleError {}

impl From<em_table::TableError> for RuleError {
    fn from(e: em_table::TableError) -> Self {
        RuleError::Table(e)
    }
}
