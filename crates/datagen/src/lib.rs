//! # em-datagen — the synthetic UMETRICS/USDA scenario and labeling oracle
//!
//! The real UMETRICS and USDA data is restricted; this crate is the
//! documented substitute (see DESIGN.md). [`Scenario::generate`] builds the
//! seven raw tables of the paper's Figure 2 — with the paper's schemas and
//! the paper's row counts for the matching-relevant tables — a withheld
//! "extra data" batch (Section 10), and a hidden [`GroundTruth`].
//! [`Oracle`] simulates the domain-expert team's labeling behaviour
//! (`Yes`/`No`/`Unsure`, first-round mistakes, D1-D3 discrepancy rulings).
//!
//! ```
//! use em_datagen::{Scenario, ScenarioConfig};
//!
//! let s = Scenario::generate(ScenarioConfig::small()).unwrap();
//! assert_eq!(s.award_agg.n_cols(), 13);
//! assert!(!s.truth.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod flaky;
pub mod oracle;
pub mod scenario;
pub mod truth;
pub mod vocab;

pub use config::ScenarioConfig;
pub use flaky::{FlakyConfig, FlakyOracle, LabelSource, OracleFault};
pub use oracle::{Oracle, OracleConfig, PairView};
pub use scenario::Scenario;
pub use truth::GroundTruth;
