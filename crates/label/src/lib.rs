//! # em-label — label-efficient training for entity matching
//!
//! The case study buys its matcher with ~300 expert labels drawn uniformly
//! from the candidate set. This crate implements the two standard ways to
//! spend that budget better, both fully deterministic and resumable:
//!
//! - **Active learning** ([`active`]): an iterative
//!   query-by-committee loop — seed batch, committee fit, vote-entropy +
//!   margin selection, refit — with per-round checkpoints so a crash
//!   mid-loop resumes bit-identically, and a label-efficiency curve (F1 vs
//!   #labels, with [`em_estimate`] intervals) against a random-sampling
//!   baseline. The strategy only picks pairs: each round is labeled by
//!   [`em_core::labeling::label_round`], the case study's own labeling call,
//!   with its retry policy and its [`em_core::ResilienceReport`] ledger, and
//!   the random arm is the case study's uniform loop.
//! - **Weak supervision** ([`weak`]): a labeling-function DSL layered on
//!   [`em_rules::spec`] predicates (threshold and pattern LFs voting
//!   MATCH / NO-MATCH / ABSTAIN), resolved by
//!   majority vote and by a seeded generative accuracy-weighted label
//!   model fit with EM — training a matcher with **zero** oracle labels.
//!
//! Everything routes through [`em_parallel::Executor`], so results are
//! bit-identical at any thread count; the active loop's checkpoints use
//! [`em_core::checkpoint::Checkpoint`]'s bit-exact float round-trip, so a
//! resumed curve equals the uninterrupted one to the last bit.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod active;
pub mod weak;

pub use active::{
    run_active, ActiveConfig, ActiveOutcome, ActiveRound, RoundLatency, Strategy,
    AL_TARGET_FRACTION,
};
pub use weak::{
    majority_vote, run_weak, standard_lfs, GenerativeModel, LabelingFunction, LfMatrix, Vote,
    WeakConfig, WeakOutcome,
};
