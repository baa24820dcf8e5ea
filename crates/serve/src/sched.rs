//! Micro-batching scheduler: a virtual-clock admission queue in front of
//! the sharded tier.
//!
//! Single-record arrivals are expensive to serve one by one (every
//! request pays the scatter fan-out); batches amortize it. The
//! [`MicroBatcher`] accepts arrivals stamped with a **virtual time**
//! (milliseconds on the same virtual clock as
//! [`MatchService::submit_at`](crate::MatchService::submit_at) — no wall
//! clock anywhere near the determinism-relevant path) and closes the open
//! batch on whichever trigger fires first:
//!
//! - **size**: the batch reached [`BatchPolicy::max_batch`] rows;
//! - **deadline**: the earlier of two instants — the consumer asking for
//!   work ([`MicroBatcher::pop_closed`] with no closed batch ready takes
//!   the open one, stamped at the latest virtual time the batcher has
//!   seen), or [`BatchPolicy::close_deadline_ms`] virtual ms after the
//!   batch opened, which only a busy consumer ever reaches;
//! - **flush**: the caller ends the stream ([`MicroBatcher::flush`]).
//!
//! So the scheduler is work-conserving: an idle tier never waits for
//! company, and batch size follows load — one row at a trickle,
//! `max_batch` under a flood.
//!
//! Admission reuses the overload machinery from the single-instance
//! queue: the scheduler sheds when the **per-shard** backlog — open rows
//! plus whatever the caller reports as still in flight, divided over the
//! shards that will serve it — reaches
//! [`OverloadPolicy::shed_watermark`], and the error quotes the same
//! deterministic [`RetryPolicy`](em_core::resilience::RetryPolicy)
//! backoff as [`MatchService::submit_at`](crate::MatchService::submit_at).
//!
//! The batcher never runs matches itself: it turns an arrival stream into
//! [`ClosedBatch`]es, and the caller (a serving loop; in this repository
//! the `benchmark/` harness's open-loop driver) executes them against a
//! [`ShardedMatchService`](crate::ShardedMatchService) and decides what
//! "in flight" means.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

use crate::error::ServeError;
use crate::overload::OverloadPolicy;
use std::collections::VecDeque;

/// When and how eagerly the open batch closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Close as soon as the open batch holds this many rows.
    pub max_batch: usize,
    /// Close this many virtual ms after the batch opened, full or not —
    /// the bound for a busy consumer; an idle one takes the open batch
    /// sooner.
    pub close_deadline_ms: f64,
}

impl Default for BatchPolicy {
    /// Eight rows (one grain of the serve executor) or two virtual
    /// milliseconds. The deadline is about 40× the warm per-record
    /// latency: it bounds how long a consumer that is busy with earlier
    /// batches lets a partial one age, not how long an idle one waits.
    fn default() -> BatchPolicy {
        BatchPolicy { max_batch: 8, close_deadline_ms: 2.0 }
    }
}

/// Which trigger closed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchTrigger {
    /// The batch filled to [`BatchPolicy::max_batch`].
    Size,
    /// An idle consumer pulled the batch, or it aged out at
    /// [`BatchPolicy::close_deadline_ms`], whichever came first.
    Deadline,
    /// The caller flushed at end of stream.
    Flush,
}

/// A batch the scheduler has closed, ready to execute.
#[derive(Debug, Clone)]
pub struct ClosedBatch {
    /// Arrival row indices, admission order.
    pub rows: Vec<usize>,
    /// Per-row admission sequence numbers (parallel to `rows`).
    pub seqs: Vec<u64>,
    /// Per-row admission virtual times (parallel to `rows`).
    pub arrived_ms: Vec<f64>,
    /// Virtual time the batch opened (first admission).
    pub opened_ms: f64,
    /// Virtual time the batch closed: the closing arrival's time (size),
    /// the latest time the batcher had seen when it was pulled, capped at
    /// `opened_ms + close_deadline_ms` (deadline), or the flush time.
    pub closed_ms: f64,
    /// What closed it.
    pub trigger: BatchTrigger,
}

/// Counters the scheduler keeps — trigger attribution for the bench block
/// ([`MicroBatcher::size_closed`] vs [`MicroBatcher::deadline_closed`])
/// and the admission ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SchedCounters {
    admitted: u64,
    shed: u64,
    size_closed: u64,
    deadline_closed: u64,
    flush_closed: u64,
}

/// The virtual-clock micro-batching admission queue. See the module docs.
pub struct MicroBatcher {
    policy: BatchPolicy,
    overload: OverloadPolicy,
    n_shards: usize,
    open: Vec<(usize, u64, f64)>,
    opened_ms: f64,
    /// The latest virtual time passed to `submit_at`, `tick` or `flush`:
    /// where a pulled batch closes.
    seen_ms: f64,
    ready: VecDeque<ClosedBatch>,
    next_seq: u64,
    counters: SchedCounters,
}

impl MicroBatcher {
    /// A batcher feeding an `n_shards`-way tier (the shard count scales
    /// the shed watermark: depth is accounted per shard).
    pub fn new(policy: BatchPolicy, overload: OverloadPolicy, n_shards: usize) -> MicroBatcher {
        MicroBatcher {
            policy,
            overload,
            n_shards: n_shards.max(1),
            open: Vec::new(),
            opened_ms: 0.0,
            seen_ms: f64::NEG_INFINITY,
            ready: VecDeque::new(),
            next_seq: 0,
            counters: SchedCounters::default(),
        }
    }

    /// Rows currently waiting in the open (unclosed) batch.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Closed batches not yet taken by the caller.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Batches closed by the size trigger so far.
    pub fn size_closed(&self) -> u64 {
        self.counters.size_closed
    }

    /// Batches closed by the deadline trigger (aged out or pulled) so far.
    pub fn deadline_closed(&self) -> u64 {
        self.counters.deadline_closed
    }

    /// Batches closed by an end-of-stream flush so far.
    pub fn flush_closed(&self) -> u64 {
        self.counters.flush_closed
    }

    /// Arrivals admitted (assigned a sequence number) so far.
    pub fn admitted(&self) -> u64 {
        self.counters.admitted
    }

    /// Arrivals shed at the watermark so far.
    pub fn shed(&self) -> u64 {
        self.counters.shed
    }

    /// The virtual time the open batch will age out, if one is open.
    pub fn deadline_at(&self) -> Option<f64> {
        if self.open.is_empty() {
            None
        } else {
            Some(self.opened_ms + self.policy.close_deadline_ms)
        }
    }

    /// Admission at virtual time `now_ms`. `in_flight_rows` is the
    /// caller's count of admitted-but-uncompleted rows (closed batches
    /// executing or queued behind the tier); together with the open rows
    /// it forms the backlog whose **per-shard depth**
    /// (`ceil(backlog / n_shards)`) is held against
    /// [`OverloadPolicy::shed_watermark`] — shedding with the same
    /// deterministic quoted backoff as the single-instance queue.
    /// `attempt` is 0 for a first submission, `n` for its `n`-th retry.
    ///
    /// On admission the arrival joins the open batch (opening one at
    /// `now_ms` if none is open) and the batch closes immediately when it
    /// reaches the size trigger. Call [`MicroBatcher::tick`] with a later
    /// virtual time to fire deadline closes, and
    /// [`MicroBatcher::pop_closed`] whenever the consumer is free.
    pub fn submit_at(
        &mut self,
        row: usize,
        now_ms: f64,
        in_flight_rows: usize,
        attempt: u32,
    ) -> Result<u64, ServeError> {
        // A deadline that already passed fires before this arrival joins:
        // the batch it would have joined closed in the (virtual) past.
        self.tick(now_ms);
        let backlog = self.open.len() + in_flight_rows;
        let per_shard = backlog.div_ceil(self.n_shards);
        if self.overload.shed_watermark > 0 && per_shard >= self.overload.shed_watermark {
            self.counters.shed += 1;
            return Err(ServeError::Overloaded {
                queue_len: backlog,
                shed_watermark: self.overload.shed_watermark,
                retry_after_ms: self
                    .overload
                    .retry
                    .backoff_ms(&format!("sched-arrival-{row}"), attempt),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.admitted += 1;
        if self.open.is_empty() {
            self.opened_ms = now_ms;
        }
        self.open.push((row, seq, now_ms));
        if self.open.len() >= self.policy.max_batch {
            self.close(now_ms, BatchTrigger::Size);
        }
        Ok(seq)
    }

    /// Advances the virtual clock: if the open batch's deadline is at or
    /// before `now_ms`, it closes **at the deadline** (not at `now_ms` —
    /// the close happened when the clock passed it, regardless of when the
    /// caller noticed).
    pub fn tick(&mut self, now_ms: f64) {
        self.seen_ms = self.seen_ms.max(now_ms);
        if let Some(deadline) = self.deadline_at() {
            if deadline <= now_ms {
                self.close(deadline, BatchTrigger::Deadline);
            }
        }
    }

    /// Closes the open batch at `now_ms` regardless of size or age (end
    /// of stream). No-op when nothing is open.
    pub fn flush(&mut self, now_ms: f64) {
        self.tick(now_ms);
        if !self.open.is_empty() {
            self.close(now_ms, BatchTrigger::Flush);
        }
    }

    /// The consumer asking for work: takes the oldest closed batch, or,
    /// with none ready, closes the open batch and takes that — stamped at
    /// the latest virtual time the batcher has seen and counted as a
    /// [`BatchTrigger::Deadline`] close. `None` only when nothing is
    /// admitted and untaken.
    pub fn pop_closed(&mut self) -> Option<ClosedBatch> {
        if self.ready.is_empty() {
            if let Some(deadline) = self.deadline_at() {
                self.close(self.seen_ms.min(deadline), BatchTrigger::Deadline);
            }
        }
        self.ready.pop_front()
    }

    fn close(&mut self, closed_ms: f64, trigger: BatchTrigger) {
        let members = std::mem::take(&mut self.open);
        if members.is_empty() {
            return;
        }
        match trigger {
            BatchTrigger::Size => self.counters.size_closed += 1,
            BatchTrigger::Deadline => self.counters.deadline_closed += 1,
            BatchTrigger::Flush => self.counters.flush_closed += 1,
        }
        let mut rows = Vec::with_capacity(members.len());
        let mut seqs = Vec::with_capacity(members.len());
        let mut arrived_ms = Vec::with_capacity(members.len());
        for (row, seq, at) in members {
            rows.push(row);
            seqs.push(seq);
            arrived_ms.push(at);
        }
        self.ready.push_back(ClosedBatch {
            rows,
            seqs,
            arrived_ms,
            opened_ms: self.opened_ms,
            closed_ms,
            trigger,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::resilience::RetryPolicy;

    fn unbounded() -> MicroBatcher {
        MicroBatcher::new(
            BatchPolicy { max_batch: 4, close_deadline_ms: 10.0 },
            OverloadPolicy::unbounded(),
            2,
        )
    }

    #[test]
    fn size_trigger_closes_at_the_closing_arrival() {
        let mut b = unbounded();
        for k in 0..4 {
            b.submit_at(k, k as f64, 0, 0).unwrap();
        }
        assert_eq!(b.open_len(), 0);
        let batch = b.pop_closed().expect("size close");
        assert_eq!(batch.trigger, BatchTrigger::Size);
        assert_eq!(batch.rows, vec![0, 1, 2, 3]);
        assert_eq!(batch.seqs, vec![0, 1, 2, 3]);
        assert_eq!(batch.opened_ms, 0.0);
        assert_eq!(batch.closed_ms, 3.0);
        assert_eq!(b.size_closed(), 1);
        assert_eq!(b.deadline_closed(), 0);
    }

    #[test]
    fn deadline_trigger_closes_at_the_deadline_not_the_tick() {
        let mut b = unbounded();
        b.submit_at(7, 1.0, 0, 0).unwrap();
        assert_eq!(b.deadline_at(), Some(11.0));
        b.tick(5.0);
        assert_eq!((b.ready_len(), b.open_len()), (0, 1), "closed before the deadline");
        b.tick(50.0);
        assert_eq!((b.ready_len(), b.open_len()), (1, 0), "tick past the deadline must close");
        let batch = b.pop_closed().expect("deadline close");
        assert_eq!(batch.trigger, BatchTrigger::Deadline);
        assert_eq!(batch.closed_ms, 11.0, "must close at the deadline, not the tick");
        assert_eq!(b.deadline_closed(), 1);
    }

    #[test]
    fn an_idle_pull_closes_at_the_last_time_seen() {
        let mut b = unbounded();
        b.submit_at(1, 1.0, 0, 0).unwrap();
        b.submit_at(2, 2.0, 0, 0).unwrap();
        b.tick(4.5);
        let batch = b.pop_closed().expect("pulled batch");
        assert_eq!(batch.trigger, BatchTrigger::Deadline);
        assert_eq!(batch.rows, vec![1, 2]);
        assert_eq!(batch.opened_ms, 1.0);
        assert_eq!(batch.closed_ms, 4.5, "closes when pulled, not at the 11.0 deadline");
        assert_eq!((b.size_closed(), b.deadline_closed(), b.flush_closed()), (0, 1, 0));
        assert_eq!(b.open_len(), 0);
        assert_eq!(b.deadline_at(), None);
    }

    #[test]
    fn pop_on_an_empty_batcher_returns_none_and_counts_nothing() {
        let mut b = unbounded();
        assert!(b.pop_closed().is_none());
        b.tick(3.0);
        assert!(b.pop_closed().is_none());
        b.submit_at(0, 4.0, 0, 0).unwrap();
        assert!(b.pop_closed().is_some());
        assert!(b.pop_closed().is_none(), "a drained batcher has nothing to pull");
        assert_eq!((b.size_closed(), b.deadline_closed(), b.flush_closed()), (0, 1, 0));
        assert_eq!(b.admitted(), 1);
    }

    #[test]
    fn ready_batches_drain_fifo_before_the_open_batch_is_pulled() {
        let mut b = unbounded();
        for k in 0..4 {
            b.submit_at(k, k as f64, 0, 0).unwrap(); // size close at 3.0
        }
        b.submit_at(4, 4.0, 0, 0).unwrap();
        b.tick(20.0); // ages out at 14.0
        b.submit_at(5, 21.0, 0, 0).unwrap();
        let order: Vec<(Vec<usize>, BatchTrigger, f64)> =
            std::iter::from_fn(|| b.pop_closed().map(|c| (c.rows, c.trigger, c.closed_ms)))
                .collect();
        assert_eq!(
            order,
            vec![
                (vec![0, 1, 2, 3], BatchTrigger::Size, 3.0),
                (vec![4], BatchTrigger::Deadline, 14.0),
                (vec![5], BatchTrigger::Deadline, 21.0),
            ]
        );
    }

    #[test]
    fn the_open_batch_keeps_filling_while_ready_batches_wait() {
        let mut b = unbounded();
        for k in 0..4 {
            b.submit_at(k, 0.0, 0, 0).unwrap();
        }
        b.submit_at(4, 5.0, 0, 0).unwrap();
        b.submit_at(5, 6.0, 0, 0).unwrap();
        assert_eq!((b.ready_len(), b.open_len()), (1, 2));
        assert_eq!(b.pop_closed().map(|c| c.trigger), Some(BatchTrigger::Size));
        assert_eq!(b.open_len(), 2, "a ready batch was taken; the open one stays open");
        b.submit_at(6, 7.0, 0, 0).unwrap();
        let pulled = b.pop_closed().expect("pulled batch");
        assert_eq!(pulled.rows, vec![4, 5, 6]);
        assert_eq!((pulled.opened_ms, pulled.closed_ms), (5.0, 7.0));
    }

    #[test]
    fn late_arrival_lands_in_a_fresh_batch_after_a_passed_deadline() {
        let mut b = unbounded();
        b.submit_at(1, 0.0, 0, 0).unwrap();
        // The next arrival is past the first batch's deadline: the old
        // batch closes at 10.0 and the arrival opens a new one at 25.0.
        b.submit_at(2, 25.0, 0, 0).unwrap();
        let first = b.pop_closed().expect("aged-out batch");
        assert_eq!(first.rows, vec![1]);
        assert_eq!(first.closed_ms, 10.0);
        assert_eq!(b.open_len(), 1);
        assert_eq!(b.deadline_at(), Some(35.0));
    }

    #[test]
    fn per_shard_depth_feeds_the_shed_watermark_with_quoted_backoff() {
        let overload = OverloadPolicy {
            shed_watermark: 4,
            deadline_budget_ms: 1_000,
            degrade_watermark: 0,
            retry: RetryPolicy::default(),
        };
        // 2 shards, watermark 4: shedding starts when ceil(backlog/2) >= 4,
        // i.e. at a backlog of 7 rows.
        let mut b =
            MicroBatcher::new(BatchPolicy { max_batch: 100, close_deadline_ms: 1e9 }, overload, 2);
        for k in 0..6 {
            b.submit_at(k, 0.0, 0, 0).unwrap();
        }
        // 6 open + 2 in flight = 8 -> per-shard 4 -> shed.
        let err = b.submit_at(6, 0.0, 2, 0).unwrap_err();
        let ServeError::Overloaded { queue_len, shed_watermark, retry_after_ms } = err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert_eq!(queue_len, 8);
        assert_eq!(shed_watermark, 4);
        assert!(retry_after_ms >= 100, "backoff below base delay: {retry_after_ms}");
        assert_eq!(b.shed(), 1);
        // Without the in-flight rows the same arrival is admitted (backlog
        // 6 -> per-shard 3, below the watermark).
        b.submit_at(6, 0.0, 0, 0).unwrap();
        assert_eq!(b.admitted(), 7);
        // Backoff is deterministic in (key, attempt).
        let a = b.overload.retry.backoff_ms("sched-arrival-9", 2);
        let b2 = b.overload.retry.backoff_ms("sched-arrival-9", 2);
        assert_eq!(a, b2);
    }

    #[test]
    fn flush_drains_the_tail() {
        let mut b = unbounded();
        b.submit_at(3, 2.0, 0, 0).unwrap();
        b.submit_at(4, 3.0, 0, 0).unwrap();
        b.flush(4.0);
        let batch = b.pop_closed().expect("flushed batch");
        assert_eq!(batch.trigger, BatchTrigger::Flush);
        assert_eq!(batch.rows, vec![3, 4]);
        assert_eq!(batch.closed_ms, 4.0);
        assert_eq!(b.flush_closed(), 1);
        b.flush(9.0);
        assert!(b.pop_closed().is_none(), "empty flush must not emit a batch");
    }
}
