//! # em-rules — hand-crafted match rules, patterns, and the IRIS baseline
//!
//! The rule layer of the case study:
//!
//! - [`pattern`]: the Section 12 identifier-pattern language (`#` digit,
//!   `X` letter, `YYYY` year), pattern inference, and *comparability*.
//! - [`award`]: award-number structure helpers (`"10.200 2008-34103-19449"`
//!   → suffix `"2008-34103-19449"`).
//! - [`rules`]: positive sure-match rules (M1, award-number =
//!   project-number) as hash joins; negative comparable-but-different rules;
//!   [`rules::RuleSet`] combining both.
//! - [`iris`]: the production rule-based baseline matcher (exact rules only
//!   — high precision, low recall).
//!
//! ```
//! use em_rules::pattern::{comparable, infer};
//!
//! assert_eq!(infer("2001-34101-10526"), "YYYY-#####-#####");
//! assert!(comparable("WIS01560", "WIS04509")); // same pattern → negative rule can fire
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod award;
pub mod error;
pub mod iris;
pub mod pattern;
pub mod rules;
pub mod spec;

pub use error::RuleError;
pub use iris::IrisMatcher;
pub use pattern::{comparable, infer, Pattern, PatternSet};
pub use rules::{BoundNegativeRules, EqualityRule, KeyFn, NegativeRule, RuleSet};
pub use spec::{RuleDesc, RuleKeyKind, RulePolarity, RuleSetDesc};
