//! # umetrics-em — executing entity matching end to end
//!
//! A from-scratch Rust reproduction of *Executing Entity Matching End to
//! End: A Case Study* (Konda et al., EDBT 2019): the PyMatcher-style EM
//! toolkit, the UMETRICS/USDA grant-matching case study it was exercised
//! on, and the full experimental harness.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! - [`table`] — typed in-memory tables, CSV I/O, profiling
//! - [`text`] — tokenizers and string-similarity measures
//! - [`blocking`] — blockers, candidate-set algebra, blocking debugger
//! - [`features`] — automatic feature generation and extraction
//! - [`ml`] — six classifiers, cross-validation, metrics, debugging
//! - [`rules`] — pattern language, positive/negative rules, IRIS baseline
//! - [`estimate`] — labels and Corleone-style accuracy estimation
//! - [`datagen`] — the synthetic UMETRICS/USDA scenario and labeling oracle
//! - [`core`] — the end-to-end pipeline and workflow engine
//! - [`parallel`] — the deterministic scoped-thread executor behind the
//!   blocking, feature-extraction, and ML hot loops
//! - [`serve`] — online matching over frozen workflow snapshots: versioned
//!   snapshot artifacts, per-arrival and micro-batch serving, bounded
//!   admission queue
//!
//! ## Quickstart
//!
//! ```
//! use umetrics_em::core::pipeline::{CaseStudy, CaseStudyConfig};
//!
//! // Replay the entire case study on a small synthetic scenario.
//! let report = CaseStudy::new(CaseStudyConfig::small()).run().unwrap();
//! println!("final matches: {}", report.final_total);
//! assert!(report.final_total > 0);
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/bench` for the
//! paper-reproduction harness (`cargo run -p em-bench --bin reproduce`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use em_blocking as blocking;
pub use em_core as core;
pub use em_datagen as datagen;
pub use em_estimate as estimate;
pub use em_features as features;
pub use em_ml as ml;
pub use em_parallel as parallel;
pub use em_rules as rules;
pub use em_serve as serve;
pub use em_table as table;
pub use em_text as text;
