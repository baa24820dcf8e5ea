//! Property tests for the micro-batching scheduler: for *arbitrary*
//! interleavings of admissions (virtual times never decreasing), ticks,
//! pulls and flushes, every admitted row leaves exactly once, in admission
//! order, in a batch that respects the policy's size and age bounds — and a
//! consumer that is never busy never holds a row at all.

use em_serve::{BatchPolicy, BatchTrigger, ClosedBatch, MicroBatcher, OverloadPolicy};
use proptest::prelude::*;

/// Virtual times move in quarter-millisecond steps, so arrivals landing
/// exactly on a deadline are common.
const STEP_MS: f64 = 0.25;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the clock by `steps`, then admit one row reporting
    /// `in_flight` rows still executing.
    Submit { steps: u32, in_flight: usize },
    Tick(u32),
    Pop,
    Flush(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let submit =
        || (0u32..12, 0usize..6).prop_map(|(steps, in_flight)| Op::Submit { steps, in_flight });
    // Admissions twice as likely as each other op, so batches fill.
    prop_oneof![
        submit(),
        submit(),
        (0u32..24).prop_map(Op::Tick),
        Just(Op::Pop),
        (0u32..8).prop_map(Op::Flush),
    ]
}

/// `(max_batch, close_deadline_ms, shed_watermark)`; a watermark of 0 never
/// sheds.
fn policy_strategy() -> impl Strategy<Value = (usize, f64, usize)> {
    (1usize..7, 1u32..16, 0usize..5)
        .prop_map(|(max_batch, d, w)| (max_batch, d as f64 * STEP_MS, w * 2))
}

struct Run {
    /// `(seq, arrival time)` of every admitted row, admission order.
    admitted: Vec<(u64, f64)>,
    batches: Vec<ClosedBatch>,
    batcher: MicroBatcher,
}

/// Applies `ops`, then flushes and drains. With `eager`, the consumer pulls
/// after every admission (and takes nothing otherwise). A refused
/// admission shows only in the batcher's shed count.
fn run(policy: BatchPolicy, watermark: usize, ops: &[Op], eager: bool) -> Run {
    let overload = OverloadPolicy { shed_watermark: watermark, ..OverloadPolicy::unbounded() };
    let mut batcher = MicroBatcher::new(policy, overload, 2);
    let (mut admitted, mut batches) = (Vec::new(), Vec::new());
    let mut now = 0.0f64;
    for (row, op) in ops.iter().enumerate() {
        match *op {
            Op::Submit { steps, in_flight } => {
                now += steps as f64 * STEP_MS;
                if let Ok(seq) = batcher.submit_at(row, now, in_flight, 0) {
                    admitted.push((seq, now));
                    if eager {
                        batches.extend(batcher.pop_closed());
                    }
                }
            }
            Op::Tick(steps) => {
                now += steps as f64 * STEP_MS;
                batcher.tick(now);
            }
            Op::Pop if !eager => batches.extend(batcher.pop_closed()),
            Op::Pop => {}
            Op::Flush(steps) => {
                now += steps as f64 * STEP_MS;
                batcher.flush(now);
            }
        }
    }
    batcher.flush(now);
    batches.extend(std::iter::from_fn(|| batcher.pop_closed()));
    Run { admitted, batches, batcher }
}

fn check(policy: BatchPolicy, r: &Run, submits: usize) -> Result<(), TestCaseError> {
    let popped: Vec<u64> = r.batches.iter().flat_map(|b| b.seqs.iter().copied()).collect();
    let admitted: Vec<u64> = r.admitted.iter().map(|&(seq, _)| seq).collect();
    prop_assert_eq!(&popped, &admitted, "every admitted seq pops exactly once, in order");
    // Only the watermark refuses an admission.
    prop_assert_eq!(r.batcher.admitted() + r.batcher.shed(), submits as u64);
    let arrivals: Vec<f64> = r.batches.iter().flat_map(|b| b.arrived_ms.iter().copied()).collect();
    let expected: Vec<f64> = r.admitted.iter().map(|&(_, at)| at).collect();
    prop_assert_eq!(arrivals, expected);
    for b in &r.batches {
        prop_assert!(!b.rows.is_empty() && b.rows.len() <= policy.max_batch, "{b:?}");
        prop_assert_eq!(b.rows.len(), b.seqs.len());
        prop_assert_eq!(b.rows.len(), b.arrived_ms.len());
        if b.trigger == BatchTrigger::Size {
            prop_assert_eq!(b.rows.len(), policy.max_batch);
        }
        for &at in &b.arrived_ms {
            prop_assert!(b.opened_ms <= at && at <= b.closed_ms, "{b:?}");
        }
        prop_assert!(b.closed_ms <= b.opened_ms + policy.close_deadline_ms, "{b:?}");
    }
    let closes = r.batcher.size_closed() + r.batcher.deadline_closed() + r.batcher.flush_closed();
    prop_assert_eq!(closes, r.batches.len() as u64);
    prop_assert_eq!((r.batcher.open_len(), r.batcher.ready_len()), (0, 0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving, drained at the end: the ledger balances and every
    /// batch respects the policy. A consumer that pulls after every
    /// admission is never busy, so no row waits: each leaves alone, in a
    /// batch closed at its own arrival time.
    #[test]
    fn every_admitted_row_leaves_once_in_order_within_bounds(
        policy in policy_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..60),
        eager in any::<bool>(),
    ) {
        let (max_batch, close_deadline_ms, watermark) = policy;
        let policy = BatchPolicy { max_batch, close_deadline_ms };
        let submits = ops.iter().filter(|op| matches!(op, Op::Submit { .. })).count();
        let r = run(policy, watermark, &ops, eager);
        check(policy, &r, submits)?;
        if eager {
            for b in &r.batches {
                prop_assert_eq!(b.arrived_ms.as_slice(), &[b.closed_ms], "{:?}", b);
            }
        }
    }
}
