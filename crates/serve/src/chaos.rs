//! Seeded chaos harness: drive the serve tier through crashes, torn WAL
//! tails, corrupt snapshots, latency spikes, and arrival bursts — then
//! prove nothing was lost.
//!
//! The harness mirrors PR 1's batch-side fault injection
//! (`em_core::resilience`) for the serve tier. Everything is derived from
//! one seed through [`fault_draw`], and every clock is **virtual**: ticks
//! and milliseconds advance by arithmetic, never by sleeping, so a chaos
//! run is exactly reproducible and fast.
//!
//! A run has two phases:
//!
//! - **Phase A — durable growth.** `n_pushes` deterministic corpus rows
//!   (clones of existing rows under fresh accession numbers) are pushed
//!   through the WAL. After any push the process may "crash" (the service
//!   is dropped), optionally tearing the WAL tail mid-record; recovery
//!   must rebuild the exact prefix state and the harness re-pushes the
//!   rest. The phase ends with a checkpoint, freezing the fully-grown
//!   corpus.
//! - **Phase B — open-loop serving.** Arrivals are submitted on a virtual
//!   clock (one per tick, plus seeded bursts), drained every tick,
//!   retried on shed/reject with the service's quoted backoff, and
//!   periodically hot-swapped (`swap_every`) through candidate snapshots
//!   that are sometimes byte-corrupt (quarantined at decode) or
//!   semantically broken (rejected by golden probes, then quarantined).
//!   Crashes can strike between drains; the harness resubmits the queued
//!   requests the crash destroyed after recovery.
//!
//! The report asserts the three robustness invariants of the issue: **no
//! panics** (everything is a typed [`ServeError`]), **a terminal outcome
//! for every request** (served or shed after bounded retries), and
//! **bit-identity**: every served outcome equals the fault-free shadow
//! service's outcome for that arrival (full or rules-only, per its mode),
//! and a final crash + recover reproduces the shadow's corpus and probes.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::hot::ProbeScratch;
use crate::overload::{OverloadPolicy, ServeMode};
use crate::service::{MatchService, ACCESSION_COL};
use crate::shard::ShardedMatchService;
use crate::snapshot::WorkflowSnapshot;
use crate::swap::{GoldenProbeSet, SnapshotCell};
use crate::wal::read_wal;
use em_core::resilience::{fault_draw, RetryPolicy, ServeFaultPlan};
use em_core::MatchIds;
use em_rules::RuleSetDesc;
use em_table::{Table, Value};
use std::path::{Path, PathBuf};

/// Ticks after which a run is declared non-terminating (a harness bug,
/// not a service property — bounded retries guarantee termination).
const MAX_TICKS: u64 = 1_000_000;

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every fault decision hashes it with a site key.
    pub seed: u64,
    /// Serve-side fault probabilities and shapes.
    pub faults: ServeFaultPlan,
    /// Corpus rows pushed (through the WAL) in phase A.
    pub n_pushes: usize,
    /// Total admission attempts per arrival before a terminal shed.
    pub max_attempts: u32,
    /// Hard queue bound of the service under test.
    pub queue_capacity: usize,
    /// Overload watermarks/budgets of the service under test.
    pub policy: OverloadPolicy,
    /// Shard count for the post-run sharded-serving audit: the recovered
    /// state is re-partitioned across this many shards and every arrival
    /// must match the fault-free shadow bit-identically. `0` skips the
    /// audit.
    pub shards: usize,
    /// Directory holding the checkpoint snapshot, WAL, and candidates.
    pub dir: PathBuf,
}

impl ChaosConfig {
    /// A stress-everything default: tight queue, short deadlines, every
    /// fault channel active. Deterministic in `seed`.
    pub fn new(seed: u64, dir: PathBuf) -> ChaosConfig {
        ChaosConfig {
            seed,
            faults: ServeFaultPlan {
                p_crash: 0.04,
                p_torn_tail: 0.6,
                p_snapshot_corrupt: 0.5,
                p_latency_spike: 0.12,
                latency_spike_ms: 64,
                p_burst: 0.18,
                burst_len: 6,
                swap_every: 16,
            },
            n_pushes: 24,
            max_attempts: 6,
            queue_capacity: 24,
            policy: OverloadPolicy {
                shed_watermark: 16,
                deadline_budget_ms: 48,
                degrade_watermark: 8,
                retry: RetryPolicy {
                    max_retries: 6,
                    base_delay_ms: 4,
                    max_delay_ms: 64,
                    jitter_seed: seed,
                },
            },
            shards: 2,
            dir,
        }
    }
}

/// The ledger of one chaos run. Wall-clock fields (`*_ms*`) are
/// observability only; every other field is deterministic in the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Arrival requests driven through the service.
    pub arrivals: usize,
    /// Arrivals that reached a served outcome.
    pub completed: u64,
    /// Arrivals that reached a terminal shed (attempts exhausted).
    pub shed: u64,
    /// Retry submissions performed after a shed/reject/crash.
    pub retried: u64,
    /// `QueueFull` rejections observed at the hard bound.
    pub queue_full: u64,
    /// Served outcomes that were scored in the rules-only degraded mode.
    pub degraded: u64,
    /// Simulated crashes (service dropped mid-run).
    pub crashes: u64,
    /// Successful recoveries (always equals `crashes` + the final audit).
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_records_replayed: u64,
    /// Torn WAL tails dropped and truncated across all recoveries.
    pub torn_tails_repaired: u64,
    /// Candidate snapshots validated and published.
    pub swaps: u64,
    /// Candidates that decoded but failed golden-probe validation.
    pub swap_rollbacks: u64,
    /// Candidate artifacts quarantined (byte-corrupt or rejected).
    pub snapshots_quarantined: u64,
    /// Total wall-clock recovery time (ms) across all recoveries.
    pub recovery_ms_total: f64,
    /// Slowest single recovery (ms).
    pub recovery_ms_max: f64,
    /// Slowest single swap, validation + publish (ms).
    pub swap_latency_ms_max: f64,
    /// Whether every served outcome matched the fault-free shadow run and
    /// the final crash + recover reproduced the shadow state.
    pub bit_identical: bool,
    /// Whether every arrival reached a terminal outcome (served or shed).
    pub terminal_outcomes: bool,
    /// Snapshot epoch at the end of the run.
    pub final_epoch: u64,
    /// Shard count of the post-run sharded-serving audit (0 = skipped).
    pub shards: usize,
    /// Arrivals replayed through the sharded service during the audit.
    pub shard_probes: u64,
    /// Whether the sharded replay of the recovered state matched the
    /// fault-free shadow on every arrival (vacuously true when skipped).
    pub shard_identical: bool,
}

/// Terminal state of one arrival in the harness's own ledger.
enum Terminal {
    Done(MatchIds, bool),
    Shed,
}

fn pipeline(detail: impl std::fmt::Display) -> ServeError {
    ServeError::Pipeline(detail.to_string())
}

/// Deterministic phase-A push rows: clones of existing corpus rows under
/// fresh accession numbers (so they block and join like real rows without
/// colliding with any original id).
fn chaos_push_rows(corpus: &Table, n: usize) -> Result<Vec<Vec<Value>>, ServeError> {
    if corpus.n_rows() == 0 {
        return Err(pipeline("chaos needs a non-empty snapshot corpus"));
    }
    let acc = corpus
        .schema()
        .index_of(ACCESSION_COL)
        .ok_or_else(|| pipeline(format!("corpus is missing {ACCESSION_COL:?}")))?;
    let acc_dtype = corpus.schema().columns()[acc].dtype;
    let mut rows = Vec::with_capacity(n);
    for p in 0..n {
        let src = corpus
            .row(p % corpus.n_rows())
            .ok_or_else(|| pipeline(format!("corpus row {p} vanished")))?;
        let mut vals = src.values().to_vec();
        // Fresh accession in the column's own dtype, far outside any id
        // the generator hands out, so pushed rows never collide.
        vals[acc] = match acc_dtype {
            em_table::DataType::Int => Value::Int(900_000_000 + p as i64),
            _ => Value::Str(format!("CHAOS-{p}")),
        };
        rows.push(vals);
    }
    Ok(rows)
}

/// Truncates the WAL mid-way through its final record — the torn tail a
/// crash during an append leaves behind. The cut point is deterministic
/// in `(seed, key)` and always leaves a non-empty unterminated fragment.
fn tear_wal_tail(path: &Path, seed: u64, key: &str) -> Result<(), ServeError> {
    let replay = read_wal(path)?;
    let n = replay.record_end_offsets.len();
    if n == 0 {
        return Ok(());
    }
    let last_end = replay.record_end_offsets[n - 1];
    let prev_end = if n >= 2 {
        replay.record_end_offsets[n - 2]
    } else {
        let bytes = std::fs::read(path)?;
        match bytes.iter().position(|&b| b == b'\n') {
            Some(p) => p as u64 + 1,
            None => return Ok(()),
        }
    };
    let span = last_end.saturating_sub(prev_end);
    if span < 2 {
        return Ok(());
    }
    // Cut in [prev_end + 1, last_end - 1]: the newline is always gone, at
    // least one fragment byte always remains.
    let cut = prev_end + 1 + (fault_draw(seed, key, 110) * (span - 2) as f64) as u64;
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(cut)?;
    Ok(())
}

/// Runs the full chaos schedule. Every fault is deterministic in
/// `cfg.seed`; every failure mode is a typed [`ServeError`] — a panic
/// anywhere in here is a bug the chaos gate exists to catch.
pub fn run_chaos(
    snapshot: WorkflowSnapshot,
    arrivals: &Table,
    cfg: &ChaosConfig,
) -> Result<ChaosReport, ServeError> {
    std::fs::create_dir_all(&cfg.dir)?;
    let snap_path = cfg.dir.join("chaos.emsnap");
    let wal_path = cfg.dir.join("chaos.wal");
    let candidate_path = cfg.dir.join("candidate.emsnap");

    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    let mut wal_records_replayed = 0u64;
    let mut torn_tails_repaired = 0u64;
    let mut recovery_ms_total = 0f64;
    let mut recovery_ms_max = 0f64;

    // ---- Phase A: durable corpus growth under crash + torn-tail faults.
    let mut service = MatchService::from_snapshot(snapshot)?
        .with_queue_capacity(cfg.queue_capacity)
        .with_overload_policy(cfg.policy);
    let base_rows = service.corpus().n_rows();
    let push_rows = chaos_push_rows(service.corpus(), cfg.n_pushes)?;
    service.checkpoint(&snap_path, &wal_path)?;
    let mut next_push = 0usize;
    // Fault draws are keyed by a monotonic operation counter, NOT by the
    // push index: a torn tail rewinds `next_push`, and keying off it
    // would hand the re-push the exact same crash draw — a deterministic
    // crash loop. The op counter never rewinds, so every retry gets fresh
    // (but still seed-reproducible) randomness; the cap turns the
    // astronomically-unlikely endless crash chain into a typed error.
    let mut push_op = 0u64;
    let push_op_cap = (cfg.n_pushes as u64 + 1) * 64;
    while next_push < cfg.n_pushes {
        push_op += 1;
        if push_op > push_op_cap {
            return Err(pipeline(format!(
                "phase A failed to make progress within {push_op_cap} push operations"
            )));
        }
        service.push_corpus_row(push_rows[next_push].clone())?;
        next_push += 1;
        let key = format!("push-op-{push_op}");
        if fault_draw(cfg.seed, &key, 101) < cfg.faults.p_crash {
            crashes += 1;
            drop(service); // the crash: all in-memory state is gone
            if fault_draw(cfg.seed, &key, 102) < cfg.faults.p_torn_tail {
                tear_wal_tail(&wal_path, cfg.seed, &key)?;
            }
            let (restored, rec) = MatchService::recover(&snap_path, &wal_path)?;
            service = restored
                .with_queue_capacity(cfg.queue_capacity)
                .with_overload_policy(cfg.policy);
            recoveries += 1;
            wal_records_replayed += rec.replayed as u64;
            torn_tails_repaired += u64::from(rec.torn_tail_repaired);
            recovery_ms_total += rec.recovery_ms;
            recovery_ms_max = recovery_ms_max.max(rec.recovery_ms);
            // A torn tail ate the newest record(s): re-push from wherever
            // recovery actually landed.
            next_push = service.corpus().n_rows() - base_rows;
        }
    }
    service.checkpoint(&snap_path, &wal_path)?;

    // ---- Fault-free shadow: the oracle for bit-identity. Same corpus,
    // no faults, both scoring modes precomputed per arrival.
    let shadow = MatchService::from_snapshot(service.to_snapshot())?;
    let n = arrivals.n_rows();
    let mut full_expect = Vec::with_capacity(n);
    let mut rules_expect = Vec::with_capacity(n);
    let mut scratch = ProbeScratch::new();
    for i in 0..n {
        full_expect.push(shadow.match_inner(arrivals, i, &mut scratch, ServeMode::Full)?.ids);
        rules_expect.push(shadow.match_inner(arrivals, i, &mut scratch, ServeMode::RulesOnly)?.ids);
    }

    // Golden probes: the first arrivals with non-empty outcomes (capped at
    // 8) — probes that can actually catch a broken candidate.
    let mut probe_rows = Table::new("golden-probes", arrivals.schema().clone());
    let mut probe_expect = Vec::new();
    for (i, expect) in full_expect.iter().enumerate() {
        if probe_expect.len() == 8 {
            break;
        }
        if expect.is_empty() {
            continue;
        }
        let row = arrivals
            .row(i)
            .ok_or_else(|| pipeline(format!("arrival row {i} vanished")))?;
        probe_rows.push_row(row.values().to_vec())?;
        probe_expect.push(expect.clone());
    }
    let probes = GoldenProbeSet::new(probe_rows, probe_expect)?;

    // ---- Phase B: open-loop arrivals on a virtual clock.
    let mut cell = SnapshotCell::new(service, probes.clone());
    let mut terminal: Vec<Option<Terminal>> = Vec::new();
    terminal.resize_with(n, || None);
    let mut inflight: Vec<(u64, usize, u32)> = Vec::new(); // (seq, arrival, attempt)
    let mut retries: Vec<(u64, usize, u32)> = Vec::new(); // (due_ms, arrival, attempt)
    let mut next_arrival = 0usize;
    let mut now_ms = 0u64;
    let mut tick = 0u64;
    let mut completed = 0u64;
    let mut terminal_shed = 0u64;
    let mut retried = 0u64;
    let mut queue_full = 0u64;
    let mut degraded = 0u64;
    let mut swaps = 0u64;
    let mut swap_rollbacks = 0u64;
    let mut snapshots_quarantined = 0u64;
    let mut swap_latency_ms_max = 0f64;
    let mut bit_identical = true;

    while next_arrival < n || !inflight.is_empty() || !retries.is_empty() {
        tick += 1;
        if tick > MAX_TICKS {
            return Err(pipeline(format!(
                "chaos run failed to terminate after {MAX_TICKS} ticks"
            )));
        }
        let tick_key = format!("tick-{tick}");

        // Due submissions: matured retries first (stable order), then new
        // arrivals — one per tick, plus a seeded burst.
        let mut due: Vec<(usize, u32)> = Vec::new();
        retries.retain(|&(due_ms, idx, attempt)| {
            if due_ms <= now_ms {
                due.push((idx, attempt));
                false
            } else {
                true
            }
        });
        let mut n_new = 1usize;
        if fault_draw(cfg.seed, &tick_key, 103) < cfg.faults.p_burst {
            n_new += cfg.faults.burst_len as usize;
        }
        for _ in 0..n_new {
            if next_arrival < n {
                due.push((next_arrival, 0));
                next_arrival += 1;
            }
        }
        for (idx, attempt) in due {
            if attempt > 0 {
                retried += 1;
            }
            match cell.service_mut().submit_at(arrivals, idx, now_ms, attempt) {
                Ok(seq) => inflight.push((seq, idx, attempt)),
                Err(ServeError::Overloaded { retry_after_ms, .. }) => {
                    if attempt + 1 >= cfg.max_attempts {
                        terminal[idx] = Some(Terminal::Shed);
                        terminal_shed += 1;
                    } else {
                        retries.push((now_ms + retry_after_ms.max(1), idx, attempt + 1));
                    }
                }
                Err(ServeError::QueueFull { .. }) => {
                    queue_full += 1;
                    let back = cfg.policy.retry.backoff_ms(&format!("qf-{idx}"), attempt);
                    if attempt + 1 >= cfg.max_attempts {
                        terminal[idx] = Some(Terminal::Shed);
                        terminal_shed += 1;
                    } else {
                        retries.push((now_ms + back.max(1), idx, attempt + 1));
                    }
                }
                Err(other) => return Err(other),
            }
        }

        // Injected latency spike: virtual time jumps before the drain, so
        // queued deadlines can expire exactly as under a real stall.
        if fault_draw(cfg.seed, &tick_key, 104) < cfg.faults.p_latency_spike {
            now_ms += cfg.faults.latency_spike_ms;
        }

        // Crash between drains: the queue dies with the process. The
        // harness resubmits the destroyed requests (same attempt count —
        // a crash is not the request's fault) after recovery.
        if fault_draw(cfg.seed, &tick_key, 105) < cfg.faults.p_crash {
            crashes += 1;
            for (_seq, idx, attempt) in inflight.drain(..) {
                retries.push((now_ms + 1, idx, attempt));
            }
            drop(cell);
            let (restored, rec) = MatchService::recover(&snap_path, &wal_path)?;
            recoveries += 1;
            wal_records_replayed += rec.replayed as u64;
            torn_tails_repaired += u64::from(rec.torn_tail_repaired);
            recovery_ms_total += rec.recovery_ms;
            recovery_ms_max = recovery_ms_max.max(rec.recovery_ms);
            cell = SnapshotCell::new(
                restored
                    .with_queue_capacity(cfg.queue_capacity)
                    .with_overload_policy(cfg.policy),
                probes.clone(),
            );
            now_ms += 1;
            continue;
        }

        // Drain: serve everything still inside its deadline, shed the
        // rest (shed requests re-enter through the retry path).
        let outcome = cell.service_mut().drain_at(now_ms)?;
        for (k, seq) in outcome.served.iter().enumerate() {
            let Some(pos) = inflight.iter().position(|&(s, _, _)| s == *seq) else {
                return Err(pipeline(format!("served unknown seq {seq}")));
            };
            let (_, idx, _) = inflight.remove(pos);
            let o = &outcome.batch.outcomes[k];
            if o.degraded {
                degraded += 1;
            }
            terminal[idx] = Some(Terminal::Done(o.ids.clone(), o.degraded));
            completed += 1;
        }
        for seq in &outcome.shed {
            let Some(pos) = inflight.iter().position(|&(s, _, _)| s == *seq) else {
                return Err(pipeline(format!("shed unknown seq {seq}")));
            };
            let (_, idx, attempt) = inflight.remove(pos);
            if attempt + 1 >= cfg.max_attempts {
                terminal[idx] = Some(Terminal::Shed);
                terminal_shed += 1;
            } else {
                let back = cfg.policy.retry.backoff_ms(&format!("dl-{idx}"), attempt);
                retries.push((now_ms + back.max(1), idx, attempt + 1));
            }
        }

        // Periodic hot swap at the just-drained boundary. Candidates are
        // frozen from live state, so a clean candidate is behavior-
        // preserving and must pass the golden probes; a corrupted one
        // must be quarantined (byte damage) or rejected + quarantined
        // (semantic damage) without perturbing the live service.
        if cfg.faults.swap_every > 0 && tick.is_multiple_of(cfg.faults.swap_every as u64) {
            let mut candidate = cell.service().to_snapshot();
            let swap_key = format!("swap-{tick}");
            let corrupt_draw = fault_draw(cfg.seed, &swap_key, 106);
            let byte_corrupt = corrupt_draw < cfg.faults.p_snapshot_corrupt / 2.0;
            let semantic_corrupt = !byte_corrupt && corrupt_draw < cfg.faults.p_snapshot_corrupt;
            if semantic_corrupt {
                // Decodes fine, behaves wrong: no rules, impossible
                // threshold — the golden probes must catch it.
                candidate.threshold = 2.0;
                candidate.rules = RuleSetDesc::new();
            }
            candidate.save(&candidate_path)?;
            if byte_corrupt {
                // Mid-swap corruption: the artifact on disk is damaged
                // after the writer thought it was safe.
                let text = std::fs::read_to_string(&candidate_path)?;
                std::fs::write(
                    &candidate_path,
                    text.replacen("em-snapshot v1", "em-snapshot v7", 1),
                )?;
            }
            match cell.propose_from_path(&candidate_path) {
                Ok(()) => {
                    if let Some(rep) = cell.publish_at_boundary() {
                        swaps += 1;
                        swap_latency_ms_max =
                            swap_latency_ms_max.max(rep.validate_ms + rep.publish_ms);
                        // Make the published epoch durable: new snapshot,
                        // fresh WAL.
                        cell.service_mut().checkpoint(&snap_path, &wal_path)?;
                    }
                }
                Err(ServeError::Quarantined { cause, .. }) => {
                    snapshots_quarantined += 1;
                    if matches!(*cause, ServeError::SwapRejected { .. }) {
                        swap_rollbacks += 1;
                    }
                }
                Err(other) => return Err(other),
            }
        }

        now_ms += 1;
    }

    // ---- Post-run audit. Every arrival must be terminal; every served
    // outcome must equal the fault-free shadow in its scoring mode.
    let mut terminal_outcomes = true;
    for (idx, t) in terminal.iter().enumerate() {
        match t {
            Some(Terminal::Done(ids, was_degraded)) => {
                let want = if *was_degraded { &rules_expect[idx] } else { &full_expect[idx] };
                if ids != want {
                    bit_identical = false;
                }
            }
            Some(Terminal::Shed) => {}
            None => terminal_outcomes = false,
        }
    }

    // Final crash + recover: the disk state alone must reproduce the
    // shadow corpus and every golden probe outcome.
    let final_epoch = cell.service().epoch();
    drop(cell);
    let (resurrected, rec) = MatchService::recover(&snap_path, &wal_path)?;
    recoveries += 1;
    wal_records_replayed += rec.replayed as u64;
    torn_tails_repaired += u64::from(rec.torn_tail_repaired);
    recovery_ms_total += rec.recovery_ms;
    recovery_ms_max = recovery_ms_max.max(rec.recovery_ms);
    if resurrected.corpus().n_rows() != shadow.corpus().n_rows() {
        bit_identical = false;
    }
    if probes.validate(&resurrected).is_err() {
        bit_identical = false;
    }

    // Sharded-serving audit: partition the recovered state across
    // `cfg.shards` shards and replay every arrival through the
    // scatter/gather path. The merged outcomes must equal the fault-free
    // shadow's full-mode outcomes — the same bit-identity bar the
    // single-instance run is held to.
    let mut shard_identical = true;
    let mut shard_probes = 0u64;
    if cfg.shards > 0 {
        let sharded = ShardedMatchService::from_snapshot(resurrected.to_snapshot(), cfg.shards)?;
        for (i, expect) in full_expect.iter().enumerate() {
            let outcome = sharded.match_on_arrival(arrivals, i)?;
            shard_probes += 1;
            if &outcome.ids != expect {
                shard_identical = false;
            }
        }
    }

    Ok(ChaosReport {
        seed: cfg.seed,
        arrivals: n,
        completed,
        shed: terminal_shed,
        retried,
        queue_full,
        degraded,
        crashes,
        recoveries,
        wal_records_replayed,
        torn_tails_repaired,
        swaps,
        swap_rollbacks,
        snapshots_quarantined,
        recovery_ms_total,
        recovery_ms_max,
        swap_latency_ms_max,
        bit_identical,
        terminal_outcomes,
        final_epoch,
        shards: cfg.shards,
        shard_probes,
        shard_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{arrivals, snapshot};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("em-chaos-{tag}-{}", std::process::id()))
    }

    /// The deterministic slice of a report (wall-clock timings excluded).
    fn deterministic_view(r: &ChaosReport) -> (u64, usize, [u64; 15], [bool; 3]) {
        (
            r.seed,
            r.arrivals,
            [
                r.completed,
                r.shed,
                r.retried,
                r.queue_full,
                r.degraded,
                r.crashes,
                r.recoveries,
                r.wal_records_replayed,
                r.torn_tails_repaired,
                r.swaps,
                r.swap_rollbacks,
                r.snapshots_quarantined,
                r.final_epoch,
                r.shards as u64,
                r.shard_probes,
            ],
            [r.bit_identical, r.terminal_outcomes, r.shard_identical],
        )
    }

    #[test]
    fn chaos_run_reaches_terminal_outcomes_bit_identically() {
        for seed in [1u64, 2, 7, 20190326] {
            let dir = temp_dir(&format!("run-{seed}"));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = ChaosConfig::new(seed, dir.clone());
            let report = run_chaos(snapshot(1.0), &arrivals(), &cfg).unwrap();
            assert!(report.terminal_outcomes, "seed {seed}: request without outcome");
            assert!(report.bit_identical, "seed {seed}: diverged from fault-free run");
            assert!(report.shard_identical, "seed {seed}: sharded audit diverged");
            assert_eq!(report.shards, 2, "seed {seed}: default shard audit width");
            assert_eq!(report.shard_probes, report.arrivals as u64, "seed {seed}");
            assert_eq!(
                report.completed + report.shed,
                report.arrivals as u64,
                "seed {seed}: terminal accounting broken"
            );
            assert_eq!(report.recoveries, report.crashes + 1, "seed {seed}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn chaos_is_deterministic_in_the_seed() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }
        let a = run_chaos(snapshot(1.0), &arrivals(), &ChaosConfig::new(7, dir_a.clone()))
            .unwrap();
        let b = run_chaos(snapshot(1.0), &arrivals(), &ChaosConfig::new(7, dir_b.clone()))
            .unwrap();
        assert_eq!(deterministic_view(&a), deterministic_view(&b));
        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn fault_free_chaos_serves_everything_on_epoch_cadence() {
        let dir = temp_dir("calm");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ChaosConfig::new(3, dir.clone());
        cfg.faults = ServeFaultPlan { swap_every: 4, ..ServeFaultPlan::none() };
        let report = run_chaos(snapshot(1.0), &arrivals(), &cfg).unwrap();
        assert!(report.bit_identical && report.terminal_outcomes);
        assert_eq!(report.completed, report.arrivals as u64, "nothing may shed");
        assert_eq!(report.shed + report.queue_full + report.crashes, 0);
        assert_eq!(report.swap_rollbacks + report.snapshots_quarantined, 0);
        assert!(report.swaps > 0, "clean candidates must publish");
        assert_eq!(report.final_epoch, report.swaps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_audit_passes_at_every_shard_count() {
        for shards in [1usize, 3, 4] {
            let dir = temp_dir(&format!("shards-{shards}"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = ChaosConfig::new(11, dir.clone());
            cfg.shards = shards;
            let report = run_chaos(snapshot(1.0), &arrivals(), &cfg).unwrap();
            assert!(report.shard_identical, "shards {shards}: sharded audit diverged");
            assert_eq!(report.shards, shards);
            assert_eq!(report.shard_probes, report.arrivals as u64);
            // The shard knob must not perturb the fault schedule itself.
            assert!(report.bit_identical && report.terminal_outcomes);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
