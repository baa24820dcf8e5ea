//! # em-features — automatic feature generation for entity matching
//!
//! The feature layer of the pipeline (Section 9, footnote 7): pair up
//! same-named attributes of the two aligned tables, infer each pair's type,
//! and generate the per-type menu of similarity features; then extract
//! feature vectors for candidate pairs (in parallel for large candidate
//! sets), with `NaN` marking missing values for downstream mean imputation.
//!
//! The `case_insensitive` option generates lowercase variants of every
//! string feature — the exact fix that resolved the Section 9 mismatches
//! caused by "award titles having different letter cases".
//!
//! ```
//! use em_features::{auto_features, extract_vectors, FeatureOptions};
//! use em_blocking::Pair;
//! use em_table::csv::read_str;
//!
//! let a = read_str("A", "Title\nCorn Fungicide Guidelines\n").unwrap();
//! let b = read_str("B", "Title\ncorn fungicide guidelines\n").unwrap();
//! let fs = auto_features(&a, &b, &FeatureOptions::default().with_case_insensitive());
//! let x = extract_vectors(&fs, &a, &b, &[Pair::new(0, 0)]).unwrap();
//! assert_eq!(x[0].len(), fs.len());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod batch;
pub mod extract;
pub mod feature;
pub mod generate;
pub mod mask;
pub mod serve;
pub mod types;

pub use batch::{
    BatchExtractor, BatchScratch, CacheLeg, ExtractorPlan, PairView, PullCounts,
    SharedWordColumns, BATCH_CHUNK,
};
pub use extract::extract_vectors;
pub use feature::{Feature, FeatureKind};
pub use generate::{auto_features, FeatureOptions, FeatureSet};
pub use mask::FeatureMask;
pub use serve::ServeExtractor;
pub use types::{infer_attr_type, joint_attr_type, AttrType};
