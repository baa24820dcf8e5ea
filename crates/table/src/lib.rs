//! # em-table — typed in-memory tables for entity matching
//!
//! The data substrate of the UMETRICS EM reproduction: a small, row-oriented
//! table library with schema validation, CSV I/O with type inference, the
//! relational operations the pre-processing stage needs (project, select,
//! rename, derive, join, union, sample), key/foreign-key validation, and
//! pandas-profiling-style column summaries.
//!
//! ```
//! use em_table::{csv, profile};
//!
//! let t = csv::read_str("awards", "AwardNumber,Title\nW1,Alpha\nW2,Beta\n").unwrap();
//! assert_eq!(t.n_rows(), 2);
//! t.check_key("AwardNumber").unwrap();
//! let p = profile::profile_table(&t);
//! assert!(p.columns[0].looks_like_key());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod csv;
pub mod error;
pub mod profile;
pub mod schema;
pub mod table;
pub mod value;

pub use error::TableError;
pub use schema::{Column, DataType, Schema};
pub use table::{RowRef, Table};
pub use value::{Date, Value};
