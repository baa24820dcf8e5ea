//! # em-blocking — blockers, candidate-set algebra, and the blocking debugger
//!
//! The blocking stage of the EM pipeline (Section 7 of the case study):
//!
//! - [`candidate::CandidateSet`]: deduplicated pairs with provenance, plus
//!   the union / intersection / difference algebra the paper's candidate-set
//!   accounting uses (`C = C1 ∪ C2 ∪ C3`, `C − sure matches`, …).
//! - [`blockers`]: attribute equivalence (hash join), token overlap,
//!   overlap-coefficient and Jaccard set-similarity blockers (all three
//!   token blockers run on the [`join`] engine), and a black-box predicate
//!   blocker.
//! - [`join`]: the batch set-similarity join — frequent tokens as bitsets
//!   over size-ordered rows, counted 64 rows per word, with a length filter
//!   and exact intersection sizes; the corpus-scale path behind the token
//!   blockers.
//! - [`incremental`]: the same index kept current under appends for the
//!   serve tier — sealed bit-sliced segments plus a short scanned tail,
//!   probed through `&self`.
//! - [`debugger`]: a MatchCatcher-style audit that ranks the most
//!   match-like pairs *excluded* by blocking.
//!
//! ```
//! use em_blocking::blockers::{Blocker, OverlapBlocker};
//! use em_table::csv::read_str;
//!
//! let a = read_str("A", "Title\nCorn Fungicide Guidelines For States\n").unwrap();
//! let b = read_str("B", "Title\ncorn fungicide guidelines\n").unwrap();
//! let c = OverlapBlocker::new("Title", "Title", 3).block(&a, &b).unwrap();
//! assert_eq!(c.len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod blockers;
pub mod candidate;
pub mod debugger;
pub mod error;
pub mod incremental;
pub mod join;

pub use blockers::{
    block_pairwise, block_specs, AttrEquivalenceBlocker, BlackboxBlocker, Blocker, OverlapBlocker,
    SetMeasure, SetSimBlocker,
};
pub use candidate::{CandidateSet, Pair};
pub use debugger::{debug_blocking, BlockingDebugger, DebugPair};
#[doc(hidden)]
pub use debugger::{debug_blocking_counted, DebugWork};
pub use error::BlockError;
pub use incremental::{IncrementalIndex, IncrementalLayout, TAIL_ROWS};
pub use join::{
    fnv_u64, join_pairs, join_pairs_multi, join_stats, JoinIndex, JoinLayout, JoinScratch, JoinSpec,
    JoinStats, ProbeCounters, FNV_OFFSET, JOIN_CHUNK,
};
