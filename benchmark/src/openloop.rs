//! Open-loop load generation on a clock, in front of the micro-batching
//! scheduler.
//!
//! Operations are sent on a seeded schedule whether or not earlier ones have
//! completed, and every latency is timed **from the operation's due time**,
//! not from when the generator got round to sending it: a stall in the tier
//! (or in this driver) delays the admission of the operations that fall due
//! meanwhile, and that wait is theirs. How late the generator ran is
//! reported beside the latencies ([`Outcome::lag_ms`]).
//!
//! A read the scheduler sheds at its watermark is retried after the backoff
//! the error quotes, as a client of the tier is told to, up to the policy's
//! retry count; its latency still runs from the original due time. Only a
//! read that runs out of retries counts as shed.
//!
//! One thread drives everything: it admits due operations into
//! [`MicroBatcher`], executes closed batches on the tier one at a time, and
//! applies writes as they fall due. The clock and the tier are traits so the
//! unit tests can run the same loop on a simulated clock.

use crate::gen::Res;
use em_serve::{BatchPolicy, MicroBatcher, OverloadPolicy, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Match arrival row `.0` against the corpus.
    Read(usize),
    /// Push the next held-back corpus row.
    Write,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub due_ms: f64,
    pub kind: OpKind,
}

/// What the schedule is drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub seed: u64,
    pub n_ops: usize,
    /// Share of operations that are writes.
    pub write_share: f64,
    /// Reads walk this many arrival rows in steps of [`ROW_STRIDE`],
    /// starting at `first_row`.
    pub arrival_rows: usize,
    pub first_row: usize,
}

/// Step between the arrival rows of successive reads. Neighbouring rows of a
/// generated table are alike (same project, same kind of record), so a rep
/// that read one contiguous range would do different work from the next; a
/// prime stride makes every rep a sample of the whole table.
pub const ROW_STRIDE: usize = 7919;

/// A seeded schedule: exponential gaps at `rate_per_s` (a Poisson arrival
/// process). A rate of `f64::INFINITY` makes everything due at once, which
/// [`drive`] with `max_ready = 1` turns into a closed loop.
pub fn schedule(mix: &Mix, rate_per_s: f64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(mix.seed);
    let mut due_ms = 0.0f64;
    let mut reads = 0usize;
    (0..mix.n_ops)
        .map(|_| {
            let u: f64 = rng.gen();
            let is_write = rng.gen::<f64>() < mix.write_share;
            if rate_per_s.is_finite() {
                due_ms += -(1.0 - u).ln() / rate_per_s * 1e3;
            }
            let kind = if is_write {
                OpKind::Write
            } else {
                reads += 1;
                OpKind::Read((mix.first_row + (reads - 1) * ROW_STRIDE) % mix.arrival_rows.max(1))
            };
            Op { due_ms, kind }
        })
        .collect()
}

pub trait Clock {
    fn now_ms(&self) -> f64;
    fn wait_until(&self, ms: f64);
}

/// The real clock: sleeps through long waits, spins through the last
/// fraction of a millisecond so admissions are not a timer tick late.
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    pub fn start() -> RealClock {
        RealClock {
            origin: Instant::now(),
        }
    }

    /// The instant this clock reads 0 ms.
    pub fn origin(&self) -> Instant {
        self.origin
    }
}

impl Clock for RealClock {
    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    fn wait_until(&self, ms: f64) {
        loop {
            let left = ms - self.now_ms();
            if left <= 0.0 {
                return;
            }
            if left > 0.3 {
                std::thread::sleep(Duration::from_secs_f64((left - 0.2) / 1e3));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What the driver runs operations on.
pub trait Tier {
    /// Executes one closed batch of reads, returning each shard's service
    /// time in ms.
    fn read_batch(&mut self, rows: &[usize]) -> Res<Vec<f64>>;
    fn write(&mut self) -> Res<()>;
}

/// One executed batch, every instant on the driver's clock.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    pub rows: usize,
    pub closed_ms: f64,
    pub start_ms: f64,
    pub done_ms: f64,
    /// Slowest and mean shard leg.
    pub shard_max_ms: f64,
    pub shard_mean_ms: f64,
}

impl BatchRecord {
    /// The instants between the four waits of a read due at `due_ms` that
    /// ran in this batch: due, batch close, start, slowest shard done,
    /// gathered. The differences are batch wait, queue wait, service and
    /// gather, and add up to the read's latency.
    pub fn wait_instants(&self, due_ms: f64) -> [f64; 5] {
        let served = self.start_ms + self.shard_max_ms;
        [
            due_ms,
            self.closed_ms,
            self.start_ms,
            served,
            self.done_ms.max(served),
        ]
    }

    /// Batch wait, queue wait, service and gather of a read due at `due_ms`.
    pub fn waits(&self, due_ms: f64) -> [f64; 4] {
        let at = self.wait_instants(due_ms);
        [at[1] - at[0], at[2] - at[1], at[3] - at[2], at[4] - at[3]]
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ReadRecord {
    pub due_ms: f64,
    /// Due time to completion.
    pub latency_ms: f64,
    /// Due time to admission: how late the generator ran for this read.
    pub lag_ms: f64,
    /// Index into [`Outcome::batches`].
    pub batch: usize,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub reads: Vec<ReadRecord>,
    pub write_latency_ms: Vec<f64>,
    pub batches: Vec<BatchRecord>,
    /// Due time to admission, every operation.
    pub lag_ms: Vec<f64>,
    /// Reads refused at the watermark and sent again after the quoted backoff.
    pub retried: u64,
    /// Reads refused on their last retry: failed operations.
    pub shed: u64,
    /// Operations due but not completed when the middle and the last
    /// operation were admitted.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// First due time to last completion.
    pub wall_ms: f64,
    pub size_closed: u64,
    pub deadline_closed: u64,
}

/// Drives `ops` through a fresh [`MicroBatcher`] onto `tier`.
///
/// Admission pauses while `max_ready` closed batches wait for the tier:
/// `usize::MAX` is the open loop; `1` with everything due at once is a
/// closed loop that always has one batch ready and never builds a queue.
pub fn drive(
    clock: &dyn Clock,
    tier: &mut dyn Tier,
    ops: &[Op],
    policy: BatchPolicy,
    overload: OverloadPolicy,
    n_shards: usize,
    max_ready: usize,
) -> Res<Outcome> {
    let mut batcher = MicroBatcher::new(policy, overload, n_shards);
    let mut out = Outcome::default();
    // (due, lag) of each admitted read, by the batcher's sequence number.
    let mut admitted: Vec<(f64, f64)> = Vec::new();
    // Reads waiting out a quoted backoff: (retry time, op index, attempt).
    let mut retries: Vec<(f64, usize, u32)> = Vec::new();
    let mut next = 0usize;
    let mut completed = 0usize;
    let origin_ms = clock.now_ms();
    let mid = ops.len() / 2;
    let earliest_retry = |retries: &[(f64, usize, u32)]| {
        retries
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .map(|(slot, r)| (slot, r.0))
    };

    loop {
        // 1. Admit everything that is due: fresh operations in schedule
        // order, retries when their backoff has run out.
        while batcher.ready_len() < max_ready {
            let now = clock.now_ms() - origin_ms;
            let fresh_due = ops.get(next).map(|op| op.due_ms).filter(|&due| due <= now);
            let retry_due = earliest_retry(&retries).filter(|&(_, at)| at <= now);
            let (index, attempt) = match (fresh_due, retry_due) {
                (Some(due), Some((_, at))) if due <= at => (next, 0),
                (_, Some((slot, _))) => {
                    let (_, index, attempt) = retries.swap_remove(slot);
                    (index, attempt)
                }
                (Some(_), None) => (next, 0),
                (None, None) => break,
            };
            let op = ops[index];
            let lag = now - op.due_ms;
            if attempt == 0 {
                out.lag_ms.push(lag);
                next += 1;
            }
            match op.kind {
                OpKind::Read(row) => {
                    let waiting = batcher.ready_len() * policy.max_batch;
                    match batcher.submit_at(row, now, waiting, attempt) {
                        Ok(_) => admitted.push((op.due_ms, lag)),
                        Err(ServeError::Overloaded { retry_after_ms, .. })
                            if attempt < overload.retry.max_retries =>
                        {
                            out.retried += 1;
                            retries.push((now + retry_after_ms as f64, index, attempt + 1));
                        }
                        Err(ServeError::Overloaded { .. }) => out.shed += 1,
                        Err(e) => return Err(e.into()),
                    }
                }
                OpKind::Write => {
                    tier.write()?;
                    out.write_latency_ms
                        .push(clock.now_ms() - origin_ms - op.due_ms);
                    completed += 1;
                }
            }
            if attempt == 0 {
                let backlog = next - completed - out.shed as usize;
                if index == mid {
                    out.backlog_mid = backlog;
                }
                if index + 1 == ops.len() {
                    out.backlog_end = backlog;
                }
            }
        }

        // 2. Fire a deadline that has passed, then run one closed batch and
        // come back, so arrivals falling due meanwhile are admitted between
        // batches.
        batcher.tick(clock.now_ms() - origin_ms);
        if let Some(batch) = batcher.pop_closed() {
            let start_ms = clock.now_ms() - origin_ms;
            let shard_ms = tier.read_batch(&batch.rows)?;
            let done_ms = clock.now_ms() - origin_ms;
            let index = out.batches.len();
            for &seq in &batch.seqs {
                let (due_ms, lag_ms) = admitted[seq as usize];
                out.reads.push(ReadRecord {
                    due_ms,
                    latency_ms: done_ms - due_ms,
                    lag_ms,
                    batch: index,
                });
            }
            completed += batch.rows.len();
            out.batches.push(BatchRecord {
                rows: batch.rows.len(),
                closed_ms: batch.closed_ms,
                start_ms,
                done_ms,
                shard_max_ms: shard_ms.iter().copied().fold(0.0, f64::max),
                shard_mean_ms: shard_ms.iter().sum::<f64>() / shard_ms.len().max(1) as f64,
            });
            continue;
        }

        // 3. Nothing runnable: wait for the next due time or batch deadline.
        let wake = [
            ops.get(next).map(|op| op.due_ms),
            earliest_retry(&retries).map(|(_, at)| at),
            batcher.deadline_at(),
        ]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
        if wake.is_infinite() {
            break;
        }
        clock.wait_until(wake + origin_ms);
    }

    out.size_closed = batcher.size_closed();
    out.deadline_closed = batcher.deadline_closed();
    out.wall_ms = clock.now_ms() - origin_ms - ops.first().map_or(0.0, |op| op.due_ms);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when someone waits on it or the tier works.
    struct SimClock(Rc<Cell<f64>>);

    impl Clock for SimClock {
        fn now_ms(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&self, ms: f64) {
            self.0.set(self.0.get().max(ms));
        }
    }

    /// A tier whose work advances the simulated clock; batch `stall_at`
    /// takes `stall_ms` longer than the rest.
    struct SimTier {
        now: Rc<Cell<f64>>,
        batch_ms: f64,
        stall_at: usize,
        stall_ms: f64,
        batches: usize,
        writes: usize,
    }

    impl Tier for SimTier {
        fn read_batch(&mut self, _rows: &[usize]) -> Res<Vec<f64>> {
            let extra = if self.batches == self.stall_at {
                self.stall_ms
            } else {
                0.0
            };
            self.batches += 1;
            self.now.set(self.now.get() + self.batch_ms + extra);
            Ok(vec![self.batch_ms + extra, self.batch_ms / 2.0])
        }
        fn write(&mut self) -> Res<()> {
            self.writes += 1;
            self.now.set(self.now.get() + 0.05);
            Ok(())
        }
    }

    fn mix(n_ops: usize, write_share: f64) -> Mix {
        Mix {
            seed: 11,
            n_ops,
            write_share,
            arrival_rows: 100,
            first_row: 0,
        }
    }

    fn sim(stall_at: usize, stall_ms: f64) -> (SimClock, SimTier) {
        let now = Rc::new(Cell::new(0.0));
        let tier = SimTier {
            now: Rc::clone(&now),
            batch_ms: 0.2,
            stall_at,
            stall_ms,
            batches: 0,
            writes: 0,
        };
        (SimClock(now), tier)
    }

    #[test]
    fn schedule_is_seeded_and_mixes_reads_and_writes() {
        let a = schedule(&mix(2000, 0.05), 1000.0);
        assert_eq!(a, schedule(&mix(2000, 0.05), 1000.0));
        assert_ne!(
            a,
            schedule(
                &Mix {
                    seed: 12,
                    ..mix(2000, 0.05)
                },
                1000.0
            )
        );
        let writes = a.iter().filter(|op| op.kind == OpKind::Write).count();
        assert!(
            (60..=140).contains(&writes),
            "{writes} writes of 2000 at 5%"
        );
        assert!(a.windows(2).all(|w| w[0].due_ms <= w[1].due_ms));
        // 2000 ops at 1000/s span about two seconds.
        let span = a.last().map_or(0.0, |op| op.due_ms);
        assert!((1700.0..2300.0).contains(&span), "span {span} ms");
        // Reads walk the arrival rows in steps of the stride.
        let rows: Vec<usize> = a
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Read(r) => Some(r),
                OpKind::Write => None,
            })
            .take(3)
            .collect();
        assert_eq!(rows, [0, ROW_STRIDE % 100, 2 * ROW_STRIDE % 100]);
    }

    #[test]
    fn a_stall_shows_in_the_latency_of_later_requests() {
        let ops = schedule(&mix(600, 0.0), 1000.0);
        let run = |stall_ms: f64| {
            let (clock, mut tier) = sim(20, stall_ms);
            drive(
                &clock,
                &mut tier,
                &ops,
                BatchPolicy::default(),
                OverloadPolicy::unbounded(),
                2,
                usize::MAX,
            )
            .expect("drive")
        };
        let calm = run(0.0);
        let stalled = run(50.0);
        assert_eq!(calm.reads.len(), 600);
        assert_eq!(stalled.reads.len(), 600);
        assert_eq!(stalled.shed, 0);

        // Without the stall nothing waits much longer than the 2 ms deadline.
        let worst_calm = calm.reads.iter().map(|r| r.latency_ms).fold(0.0, f64::max);
        assert!(worst_calm < 4.0, "calm worst {worst_calm} ms");

        // The stalled batch itself is slow ...
        let stall_batch = stalled.batches[20];
        assert!(stall_batch.shard_max_ms >= 50.0);
        // ... and so are the requests that fell due *during* the stall and
        // ran in later batches: about 50 of them at 1000/s. Their wait is in
        // the latency because it is timed from the due time.
        let later_and_slow = stalled
            .reads
            .iter()
            .filter(|r| r.batch > 20 && r.latency_ms > 5.0)
            .count();
        assert!(
            later_and_slow >= 35,
            "only {later_and_slow} later requests saw the stall"
        );
        // Timed from admission instead, the same requests look fast: that is
        // the measurement error this driver exists to avoid.
        let hidden = stalled
            .reads
            .iter()
            .filter(|r| r.batch > 20 && r.latency_ms > 5.0 && r.latency_ms - r.lag_ms < 5.0)
            .count();
        assert!(
            hidden >= 35,
            "{hidden} requests would have hidden the stall"
        );
        // The generator reports how late it ran.
        let worst_lag = stalled.lag_ms.iter().copied().fold(0.0, f64::max);
        assert!(worst_lag > 40.0, "worst lag {worst_lag} ms");
        // The queue drains: by the end the backlog is back to a batch or so.
        assert!(
            stalled.backlog_end <= 16,
            "backlog {} at the end",
            stalled.backlog_end
        );
    }

    #[test]
    fn waits_add_up_to_the_latency_and_writes_are_timed_from_due() {
        let ops = schedule(&mix(400, 0.1), 2000.0);
        let (clock, mut tier) = sim(usize::MAX, 0.0);
        let out = drive(
            &clock,
            &mut tier,
            &ops,
            BatchPolicy::default(),
            OverloadPolicy::unbounded(),
            2,
            usize::MAX,
        )
        .expect("drive");
        assert_eq!(out.reads.len() + out.write_latency_ms.len(), 400);
        assert_eq!(tier.writes, out.write_latency_ms.len());
        assert!(out.write_latency_ms.iter().all(|&l| l >= 0.05 - 1e-9));
        for r in &out.reads {
            let b = out.batches[r.batch];
            let sum: f64 = b.waits(r.due_ms).iter().sum();
            assert!(
                (sum - r.latency_ms).abs() < 1e-9,
                "waits {sum} vs latency {}",
                r.latency_ms
            );
        }
        assert_eq!(
            out.size_closed + out.deadline_closed,
            out.batches.len() as u64
        );
    }

    #[test]
    fn closed_loop_keeps_one_batch_ready_and_never_queues() {
        let ops = schedule(&mix(800, 0.05), f64::INFINITY);
        let (clock, mut tier) = sim(usize::MAX, 0.0);
        let out = drive(
            &clock,
            &mut tier,
            &ops,
            BatchPolicy::default(),
            OverloadPolicy::unbounded(),
            2,
            1,
        )
        .expect("drive");
        assert_eq!(out.reads.len() + out.write_latency_ms.len(), 800);
        // Every batch but the last filled to the size trigger, and none
        // waited behind another.
        assert!(out.deadline_closed <= 1);
        assert!(out.batches.iter().all(|b| b.waits(0.0)[1] < 1e-9));
        // Wall time is the work itself: batches and writes back to back.
        let work = out.batches.len() as f64 * 0.2 + tier.writes as f64 * 0.05;
        assert!(
            out.wall_ms < work + 2.5,
            "wall {} ms for {work} ms of work",
            out.wall_ms
        );
    }

    #[test]
    fn overload_is_retried_after_the_quoted_backoff_then_shed() {
        let ops = schedule(&mix(2000, 0.0), 50_000.0);
        let (clock, mut tier) = sim(usize::MAX, 0.0);
        let overload = OverloadPolicy {
            shed_watermark: 8,
            ..OverloadPolicy::unbounded()
        };
        let out = drive(
            &clock,
            &mut tier,
            &ops,
            BatchPolicy::default(),
            overload,
            2,
            usize::MAX,
        )
        .expect("drive");
        // Refused reads come back after the quoted backoff (100 ms and up),
        // by which time the burst is over, so every one is served in the end
        // and its wait shows in its latency.
        assert!(
            out.retried > 0,
            "50k/s against a 40k/s tier must refuse reads"
        );
        assert_eq!(out.reads.len() + out.shed as usize, 2000);
        let slow = out.reads.iter().filter(|r| r.latency_ms >= 100.0).count();
        assert!(
            slow > 0 && slow <= out.retried as usize,
            "{slow} slow of {} retried",
            out.retried
        );

        // With no retries allowed the same reads are shed for good.
        let (clock, mut tier) = sim(usize::MAX, 0.0);
        let no_retry = OverloadPolicy {
            retry: em_core::RetryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            ..overload
        };
        let out = drive(
            &clock,
            &mut tier,
            &ops,
            BatchPolicy::default(),
            no_retry,
            2,
            usize::MAX,
        )
        .expect("drive");
        assert!(out.shed > 0 && out.retried == 0);
        assert_eq!(out.reads.len() + out.shed as usize, 2000);
    }
}
