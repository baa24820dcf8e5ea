//! # em-core — the end-to-end entity-matching pipeline
//!
//! The paper's contribution is not a new matching algorithm but the
//! *process*: how an EM team takes two raw administrative datasets all the
//! way to a deployed match list, around dirty data, an evolving match
//! definition, expert labeling, and mid-project complications. This crate
//! is that process as a library:
//!
//! | Paper | Module |
//! |---|---|
//! | §4 understanding the data | [`em_table::profile`] + [`pipeline`] |
//! | §6 pre-processing | [`preprocess`] |
//! | §7 blocking + debugger | [`blocking_plan`] |
//! | §8 sampling, labeling, label debugging | [`labeling`], [`matcher::debug_labels`] |
//! | §9 matcher selection, training, debugging | [`matcher`] |
//! | Figures 8–10 workflows + patching | [`workflow`] |
//! | §10–§12 complications, estimation, rules | [`pipeline`] |
//!
//! The one-call entry point is [`pipeline::CaseStudy`]:
//!
//! ```
//! use em_core::pipeline::{CaseStudy, CaseStudyConfig};
//!
//! let report = CaseStudy::new(CaseStudyConfig::small()).run().unwrap();
//! assert_eq!(report.table_summaries.len(), 7); // Figure 2
//! assert!(report.final_total > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
pub mod blocking_plan;
pub mod checkpoint;
pub mod error;
pub mod labeling;
pub mod labelstore;
pub mod matcher;
pub mod monitor;
pub mod pipeline;
pub mod preprocess;
pub mod resilience;
pub mod spec;
mod stages;
pub mod stream;
pub mod workflow;

pub use blocking_plan::{run_blocking, BlockingOutcome, BlockingPlan};
pub use error::CoreError;
pub use labeling::{LabeledPair, LabeledSet, LabelingRound};
pub use labelstore::{LabelConflict, LabelRecord, LabelStore, MergePolicy};
pub use matcher::{MatcherStage, TrainedMatcher};
pub use pipeline::{
    al_stage_name, standard_rule_descs, standard_rules, CaseStudy, CaseStudyConfig,
    CaseStudyReport, ServingArtifacts, AL_ROUND_PREFIX, STAGES,
};
pub use preprocess::{project_umetrics, project_usda};
pub use analysis::{analyze_multiplicity, cluster_matches, MultiplicityReport};
pub use monitor::{AccuracyMonitor, MonitorConfig, SliceReport};
pub use resilience::{corrupt_csv, fault_draw, FaultPlan, ResilienceReport, RetryPolicy, ServeFaultPlan};
pub use spec::WorkflowSpec;
pub use stream::{derive_feature_mask, StreamMatcher, StreamOutcome, HIST_BINS, STREAM_CHUNK};
pub use workflow::{EmWorkflow, MatchIds, WorkflowResult};
