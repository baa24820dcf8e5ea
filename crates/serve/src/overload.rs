//! Overload control for the admission queue: deadline budgets, load
//! shedding, backpressure, and the rules-only degraded scoring mode.
//!
//! The serve tier's degradation ladder, from healthiest to most stressed:
//!
//! 1. **Normal** — the queue is below every watermark; requests are
//!    admitted, drained, and scored through the full model path.
//! 2. **Degraded scoring** — a drain whose kept batch reaches
//!    [`OverloadPolicy::degrade_watermark`] switches that batch to
//!    [`ServeMode::RulesOnly`]: positive-rule sure matches are still
//!    served (they are hash-joins, orders of magnitude cheaper than
//!    featurize + score), model-scored candidates are skipped, and every
//!    affected outcome is flagged `degraded` and counted.
//! 3. **Load shedding** — an arrival that finds the queue at
//!    [`OverloadPolicy::shed_watermark`] is rejected with
//!    [`ServeError::Overloaded`](crate::ServeError::Overloaded), which
//!    carries a deterministic retry backoff from the policy's
//!    [`RetryPolicy`]; a queued request whose deadline
//!    (admission time + [`OverloadPolicy::deadline_budget_ms`]) has
//!    already passed at drain time is shed instead of served late.
//! 4. **Hard bound** — the queue capacity itself; past it admissions fail
//!    with [`ServeError::QueueFull`](crate::ServeError::QueueFull), which
//!    is transport-level rejection: the request never entered the
//!    service's accounting (watermark shedding, by contrast, is a policy
//!    decision *about* an admitted request, so it counts as admitted and
//!    shed).
//!
//! All clocks here are **virtual milliseconds** supplied by the caller
//! ([`MatchService::submit_at`](crate::MatchService::submit_at) /
//! [`MatchService::drain_at`](crate::MatchService::drain_at)) — nothing
//! sleeps and nothing reads wall time, so overload behavior is exactly
//! reproducible from a seed and an arrival schedule.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::service::BatchOutcome;
use em_core::resilience::RetryPolicy;

/// How a drained batch is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// The full pipeline: blocking, rules, featurize, model, negative
    /// rules — bit-identical to the batch workflow.
    Full,
    /// Degraded scoring: blocking and positive rules only. Sure matches
    /// are served, model candidates are skipped, outcomes are flagged.
    RulesOnly,
}

/// Watermarks and budgets governing the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Queue length at (or past) which new arrivals are shed with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    pub shed_watermark: usize,
    /// Virtual milliseconds an admitted request may wait before a drain
    /// sheds it instead of serving it late.
    pub deadline_budget_ms: u64,
    /// Kept-batch size at (or past) which a drain scores in
    /// [`ServeMode::RulesOnly`].
    pub degrade_watermark: usize,
    /// Backoff schedule quoted to shed callers (virtual, never slept).
    pub retry: RetryPolicy,
}

impl OverloadPolicy {
    /// No shedding, no deadlines, no degradation — the pre-overload
    /// behavior of the service, and its default.
    pub fn unbounded() -> OverloadPolicy {
        OverloadPolicy {
            shed_watermark: usize::MAX,
            deadline_budget_ms: u64::MAX,
            degrade_watermark: usize::MAX,
            retry: RetryPolicy::default(),
        }
    }
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy::unbounded()
    }
}

/// Admission-time metadata of one queued request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingMeta {
    /// Monotonic per-service submission sequence number.
    pub seq: u64,
    /// Virtual deadline: admission time + the policy's budget.
    pub deadline_ms: u64,
}

/// The result of one [`MatchService::drain_at`](crate::MatchService::drain_at).
#[derive(Debug, Clone)]
pub struct DrainOutcome {
    /// Outcomes of the served requests, in admission order.
    pub batch: BatchOutcome,
    /// Submission sequence numbers served, aligned with `batch.outcomes`.
    pub served: Vec<u64>,
    /// Submission sequence numbers shed for blown deadlines.
    pub shed: Vec<u64>,
    /// Whether the batch was scored in [`ServeMode::RulesOnly`].
    pub degraded: bool,
    /// Snapshot epoch the batch was served on.
    pub epoch: u64,
}
