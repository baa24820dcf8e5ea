//! Sharded serve tier: N corpus partitions behind one deterministic
//! scatter/gather front.
//!
//! [`ShardedMatchService`] splits the right-hand (USDA) corpus into `N`
//! shards by a **stable FNV-1a hash of the corpus key**
//! (`AccessionNumber`), so a row's home shard is a pure function of its
//! identity — independent of arrival order, shard count changes rebuild
//! the same partition from the same corpus, and a WAL replay routes every
//! row back to the shard that logged it. Each shard is a full
//! [`SnapshotCell`]-wrapped [`MatchService`] with its own incremental
//! blocking indexes, token cache, WAL, and epoch.
//!
//! ## Determinism
//!
//! A request scatters to **all** shards (any shard may hold matching
//! corpus rows) and gathers with a chunk-ordered merge — one scatter and
//! one gather, in [`ShardedMatchService::match_rows_timed`], whatever the
//! entry point: per-shard outcomes are consumed in shard order, each row's
//! match ids moved into the row's key-ordered
//! [`MatchIds`](em_core::MatchIds) set (duplicate pairs — impossible while
//! shards partition the corpus, but harmless — dedup by pair key), and
//! per-row counters are summed. Because every corpus row lives in exactly
//! one shard and the frozen model, imputer, rules, and threshold are
//! replicated to all shards, the gathered output is **bit-identical to a
//! single-instance [`MatchService`] over the whole corpus, at any shard
//! count and any thread count** (pinned by the `shard_equivalence`
//! integration tests and a property test over random push/request
//! interleavings).
//!
//! ## Hot swap
//!
//! [`ShardedMatchService::propose_snapshot`] splits a candidate snapshot
//! with the same hash partition and stages it on every shard; if **any**
//! shard rejects (golden-probe divergence), every staged candidate is
//! abandoned — all-or-nothing, no shard ever runs ahead.
//! [`ShardedMatchService::publish_at_boundary`] publishes on all shards
//! only when all of them are at a request boundary, so no request can
//! observe mixed epochs.
//!
//! ## Durability
//!
//! Per-shard WALs and checkpoint snapshots carry the shard id in the
//! filename (`shard-3.wal`, `shard-3.emsnap`), and corrupt artifacts are
//! moved aside with the same numbered-quarantine rename as single-instance
//! snapshots ([`crate::snapshot::quarantine_path`]) — two shards can never
//! clobber each other's quarantine evidence because their names never
//! collide.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::overload::ServeMode;
use crate::service::{BatchOutcome, MatchOutcome, MatchService, RecoveryReport};
use crate::service::ACCESSION_COL;
use crate::snapshot::{quarantine_path, WorkflowSnapshot};
use crate::swap::{GoldenProbeSet, SnapshotCell, SwapReport};
use crate::wal::{fnv1a64, read_wal};
use em_parallel::Executor;
use em_table::{Table, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The home shard of a corpus key under an `n`-way partition: FNV-1a of
/// the key bytes, reduced modulo `n`. Stable across processes, arrival
/// orders, and shard-count-preserving rebuilds.
pub fn shard_of_key(key: &str, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    (fnv1a64(key.as_bytes()) % n_shards as u64) as usize
}

/// Checkpoint snapshot path for shard `s` under `dir`: `shard-<s>.emsnap`.
fn shard_snapshot_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.emsnap"))
}

/// WAL path for shard `s` under `dir`: `shard-<s>.wal`.
fn shard_wal_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.wal"))
}

/// Splits `snapshot` into `n` shard-local snapshots: the corpus rows are
/// routed by [`shard_of_key`] on the `AccessionNumber` cell (preserving
/// relative row order inside each shard); the frozen plan, features,
/// imputer, model, rules, and threshold are replicated verbatim.
fn split_snapshot(
    snapshot: &WorkflowSnapshot,
    n_shards: usize,
) -> Result<Vec<WorkflowSnapshot>, ServeError> {
    let acc_idx = snapshot.corpus.schema().index_of(ACCESSION_COL).ok_or_else(|| {
        ServeError::Pipeline(format!("corpus is missing the {ACCESSION_COL} shard key column"))
    })?;
    let mut parts: Vec<Table> = (0..n_shards)
        .map(|s| {
            Table::new(
                format!("{}-shard-{s}", snapshot.corpus.name()),
                snapshot.corpus.schema().clone(),
            )
        })
        .collect();
    for (i, row) in snapshot.corpus.rows().iter().enumerate() {
        let key = row.get(acc_idx).map(Value::render).unwrap_or_default();
        let s = shard_of_key(&key, n_shards);
        parts[s].push_row(row.clone()).map_err(|e| {
            ServeError::Pipeline(format!("corpus row {i} failed shard routing: {e}"))
        })?;
    }
    Ok(parts
        .into_iter()
        .map(|corpus| WorkflowSnapshot {
            corpus,
            features: snapshot.features.clone(),
            imputer: snapshot.imputer.clone(),
            model: snapshot.model.clone(),
            learner_name: snapshot.learner_name.clone(),
            rules: snapshot.rules.clone(),
            plan: snapshot.plan,
            threshold: snapshot.threshold,
        })
        .collect())
}

/// Shape of the sharded tier, for observability and the load benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub n_shards: usize,
    /// Total corpus rows across all shards.
    pub corpus_rows: usize,
    /// Corpus rows per shard, in shard order.
    pub rows_per_shard: Vec<usize>,
    /// The common epoch (all shards always publish together).
    pub epoch: u64,
    /// Shards currently holding a staged (validated, unpublished) swap.
    pub staged: usize,
}

/// A [`MatchService`] partitioned into N hash-routed corpus shards — see
/// the module docs for the determinism, hot-swap, and durability story.
pub struct ShardedMatchService {
    cells: Vec<SnapshotCell>,
    /// Column index of the shard key in the corpus schema (validated at
    /// construction, so routing never re-searches the schema).
    acc_idx: usize,
}

impl std::fmt::Debug for ShardedMatchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMatchService").field("stats", &self.stats()).finish()
    }
}

impl ShardedMatchService {
    /// Builds an `n_shards`-way sharded service from one whole-corpus
    /// snapshot. `n_shards` must be at least 1. Golden probe sets start
    /// empty (proposals are accepted unvalidated) until
    /// [`ShardedMatchService::record_probes`] freezes current behavior.
    pub fn from_snapshot(
        snapshot: WorkflowSnapshot,
        n_shards: usize,
    ) -> Result<ShardedMatchService, ServeError> {
        if n_shards == 0 {
            return Err(ServeError::Pipeline("shard count must be at least 1".into()));
        }
        let acc_idx = snapshot.corpus.schema().index_of(ACCESSION_COL).ok_or_else(|| {
            ServeError::Pipeline(format!("corpus is missing the {ACCESSION_COL} shard key column"))
        })?;
        let parts = split_snapshot(&snapshot, n_shards)?;
        let mut cells = Vec::with_capacity(n_shards);
        for part in parts {
            let probe_schema = part.corpus.schema().clone();
            let service = MatchService::from_snapshot(part)?;
            let probes = GoldenProbeSet::new(Table::new("probes", probe_schema), Vec::new())?;
            cells.push(SnapshotCell::new(service, probes));
        }
        Ok(ShardedMatchService { cells, acc_idx })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.cells.len()
    }

    /// The shard that owns (or would own) corpus key `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        shard_of_key(key, self.cells.len())
    }

    /// Borrow shard `s`'s live service (observability; `None` out of range).
    pub fn shard(&self, s: usize) -> Option<&MatchService> {
        self.cells.get(s).map(SnapshotCell::service)
    }

    /// Tier shape: shard count, per-shard row counts, common epoch.
    pub fn stats(&self) -> ShardStats {
        let rows_per_shard: Vec<usize> =
            self.cells.iter().map(|c| c.service().corpus().n_rows()).collect();
        ShardStats {
            n_shards: self.cells.len(),
            corpus_rows: rows_per_shard.iter().sum(),
            rows_per_shard,
            epoch: self.epoch(),
            staged: self.cells.iter().filter(|c| c.has_staged()).count(),
        }
    }

    /// The tier's epoch. Shards only ever publish together
    /// ([`ShardedMatchService::publish_at_boundary`]), so every shard
    /// reports the same epoch; shard 0 speaks for all.
    pub fn epoch(&self) -> u64 {
        self.cells.first().map_or(0, |c| c.service().epoch())
    }

    /// Routes one corpus row to its home shard's
    /// [`MatchService::push_corpus_row`] (WAL-logged there when a WAL is
    /// attached). Returns `(shard, local_row_index)`.
    pub fn push_corpus_row(&mut self, row: Vec<Value>) -> Result<(usize, usize), ServeError> {
        let key = row.get(self.acc_idx).map(Value::render).unwrap_or_default();
        let s = shard_of_key(&key, self.cells.len());
        let local = self.cells[s].service_mut().push_corpus_row(row)?;
        Ok((s, local))
    }

    /// Matches one arriving record: scatter to every shard, gather in
    /// shard order. Bit-identical to a single-instance service over the
    /// unsharded corpus.
    pub fn match_on_arrival(
        &self,
        arrivals: &Table,
        i: usize,
    ) -> Result<MatchOutcome, ServeError> {
        let (mut batch, _) = self.match_rows_timed(arrivals, &[i])?;
        let merged = batch.outcomes.pop();
        merged.ok_or_else(|| ServeError::Pipeline("sharded service has no shards".into()))
    }

    /// Matches a whole table of arrivals as one deterministic micro-batch.
    /// Equal to [`ShardedMatchService::match_on_arrival`] row by row, and
    /// bit-identical to the single-instance [`MatchService::match_batch`].
    pub fn match_batch(&self, arrivals: &Table) -> Result<BatchOutcome, ServeError> {
        let rows: Vec<usize> = (0..arrivals.n_rows()).collect();
        self.match_rows_timed(arrivals, &rows).map(|(batch, _)| batch)
    }

    /// The scatter/gather core over an explicit row subset, returning the
    /// merged batch plus each shard's wall-clock service time in
    /// milliseconds (observability and the benchmark's open loop; excluded
    /// from every determinism guarantee).
    ///
    /// Scatter: each shard serves the full row list against its own
    /// partition on the `em-parallel` executor (one chunk per shard, so
    /// the merge is chunk-ordered by construction), on one scratch from
    /// its own pool. Gather: the first shard's outcomes become the rows'
    /// accumulators and every later shard's are folded into them in shard
    /// order — ids move into the key-ordered pair set, counts sum.
    pub fn match_rows_timed(
        &self,
        arrivals: &Table,
        rows: &[usize],
    ) -> Result<(BatchOutcome, Vec<f64>), ServeError> {
        let per_shard: Vec<Result<(Vec<MatchOutcome>, f64), ServeError>> =
            Executor::current().map_indexed(self.cells.len(), 1, |s| {
                let t0 = Instant::now();
                let service = self.cells[s].service();
                let outs: Result<Vec<MatchOutcome>, ServeError> = service.with_scratch(|scratch| {
                    rows.iter()
                        .map(|&i| service.match_inner(arrivals, i, scratch, ServeMode::Full))
                        .collect()
                });
                Ok((outs?, t0.elapsed().as_secs_f64() * 1e3))
            });
        let mut shard_ms = Vec::with_capacity(self.cells.len());
        let mut outcomes: Vec<MatchOutcome> = Vec::new();
        for (s, r) in per_shard.into_iter().enumerate() {
            let (outs, ms) = r?;
            shard_ms.push(ms);
            if s == 0 {
                outcomes = outs;
                continue;
            }
            for (acc, o) in outcomes.iter_mut().zip(outs) {
                merge_outcome(acc, o);
            }
        }
        Ok((BatchOutcome::of(outcomes), shard_ms))
    }

    /// Freezes the tier's *current* behavior over `arrivals` as every
    /// shard's golden probe set: each shard records its own partition-local
    /// expected outcomes, so a proposed snapshot must reproduce all of them
    /// shard by shard before it can stage.
    pub fn record_probes(&mut self, arrivals: &Table) -> Result<(), ServeError> {
        for cell in &mut self.cells {
            let probes = GoldenProbeSet::record(cell.service(), arrivals.clone())?;
            cell.set_probes(probes);
        }
        Ok(())
    }

    /// Splits `snapshot` with the same hash partition and stages it on
    /// every shard — **all or nothing**: if any shard rejects the
    /// candidate (golden-probe divergence, decode failure), every staged
    /// candidate on every shard is abandoned and the error is returned, so
    /// no shard can ever publish ahead of its peers.
    pub fn propose_snapshot(&mut self, snapshot: WorkflowSnapshot) -> Result<(), ServeError> {
        let parts = split_snapshot(&snapshot, self.cells.len())?;
        for (s, part) in parts.into_iter().enumerate() {
            if let Err(e) = self.cells[s].propose(part) {
                for cell in &mut self.cells {
                    cell.abandon_staged();
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Publishes the staged candidate on **all** shards iff every shard
    /// has one staged and every shard's admission queue is empty — the
    /// tier-wide request boundary. Otherwise a no-op returning `None`: a
    /// request admitted before the boundary can never observe shard `a` on
    /// the old epoch and shard `b` on the new one. On publish, every
    /// shard's epoch advances together.
    pub fn publish_at_boundary(&mut self) -> Option<Vec<SwapReport>> {
        let ready = self
            .cells
            .iter()
            .all(|c| c.has_staged() && c.service().queue_len() == 0);
        if !ready {
            return None;
        }
        // Every precondition of SnapshotCell::publish_at_boundary holds on
        // every shard, so each publish succeeds; collect the reports.
        let reports: Vec<SwapReport> =
            self.cells.iter_mut().filter_map(SnapshotCell::publish_at_boundary).collect();
        if reports.len() == self.cells.len() {
            Some(reports)
        } else {
            // Unreachable by construction; surfaced as "no publish" rather
            // than a panic to keep the fault path typed.
            None
        }
    }

    /// Attaches a fresh WAL to every shard under `dir`
    /// (`dir/shard-<s>.wal`). See [`MatchService::attach_wal`] for the
    /// relative-to-current-corpus caveat.
    pub fn attach_wal(&mut self, dir: &Path) -> Result<(), ServeError> {
        for (s, cell) in self.cells.iter_mut().enumerate() {
            cell.service_mut().attach_wal(&shard_wal_path(dir, s))?;
        }
        Ok(())
    }

    /// Durable checkpoint of every shard under `dir`: shard `s` saves to
    /// `shard-<s>.emsnap` and rotates `shard-<s>.wal`, exactly
    /// [`MatchService::checkpoint`] per shard — `&Path` end to end.
    pub fn checkpoint(&mut self, dir: &Path) -> Result<(), ServeError> {
        for (s, cell) in self.cells.iter_mut().enumerate() {
            cell.service_mut()
                .checkpoint(&shard_snapshot_path(dir, s), &shard_wal_path(dir, s))?;
        }
        Ok(())
    }

    /// Crash recovery of an `n_shards`-way tier from `dir`: each shard
    /// recovers independently from its own snapshot + WAL pair
    /// ([`MatchService::recover`]), and a shard whose artifacts fail to
    /// *decode* is quarantined with the numbered rename
    /// ([`crate::snapshot::quarantine_path`]) before the error is
    /// returned — the shard id in the filename guarantees two shards'
    /// quarantine destinations never collide, so no shard's evidence can
    /// clobber another's. Returns the tier plus per-shard recovery
    /// reports, in shard order.
    pub fn recover(
        dir: &Path,
        n_shards: usize,
    ) -> Result<(ShardedMatchService, Vec<RecoveryReport>), ServeError> {
        if n_shards == 0 {
            return Err(ServeError::Pipeline("shard count must be at least 1".into()));
        }
        let mut cells = Vec::with_capacity(n_shards);
        let mut reports = Vec::with_capacity(n_shards);
        let mut acc_idx = None;
        for s in 0..n_shards {
            let snap_path = shard_snapshot_path(dir, s);
            let wal_path = shard_wal_path(dir, s);
            // A corrupt WAL must not crash-loop the supervisor: decode-class
            // failures quarantine the log (torn tails are *not* errors —
            // MatchService::recover repairs them by truncation).
            if wal_path.exists() {
                if let Err(e) = read_wal(&wal_path) {
                    let dest = quarantine_path(&wal_path);
                    let _ = std::fs::rename(&wal_path, &dest);
                    return Err(ServeError::Quarantined {
                        dest: dest.display().to_string(),
                        cause: Box::new(e),
                    });
                }
            }
            let (service, report) = match MatchService::recover(&snap_path, &wal_path) {
                Ok(ok) => ok,
                Err(e @ (ServeError::Corrupt(_)
                | ServeError::Truncated { .. }
                | ServeError::VersionMismatch { .. })) => {
                    // The snapshot failed to decode: same quarantine rename
                    // as WorkflowSnapshot::load_quarantining.
                    let dest = quarantine_path(&snap_path);
                    let _ = std::fs::rename(&snap_path, &dest);
                    return Err(ServeError::Quarantined {
                        dest: dest.display().to_string(),
                        cause: Box::new(e),
                    });
                }
                Err(other) => return Err(other),
            };
            if acc_idx.is_none() {
                acc_idx = service.corpus().schema().index_of(ACCESSION_COL);
            }
            let probe_schema = service.corpus().schema().clone();
            let probes = GoldenProbeSet::new(Table::new("probes", probe_schema), Vec::new())?;
            cells.push(SnapshotCell::new(service, probes));
            reports.push(report);
        }
        let acc_idx = acc_idx.ok_or_else(|| {
            ServeError::Pipeline(format!("corpus is missing the {ACCESSION_COL} shard key column"))
        })?;
        Ok((ShardedMatchService { cells, acc_idx }, reports))
    }
}

/// Shard-order merge of a later shard's outcome for a row into the row's
/// accumulator: ids move in by pair key (the [`em_core::MatchIds`] set is
/// key-ordered, so the union is independent of merge order), counts sum,
/// degraded ORs, stage timings sum. The epoch is common to all shards by
/// the publish protocol.
fn merge_outcome(acc: &mut MatchOutcome, o: MatchOutcome) {
    acc.ids.absorb(o.ids);
    acc.n_blocked += o.n_blocked;
    acc.n_sure += o.n_sure;
    acc.n_candidates += o.n_candidates;
    acc.n_predicted += o.n_predicted;
    acc.n_flipped += o.n_flipped;
    acc.degraded |= o.degraded;
    acc.timings.blocking_ms += o.timings.blocking_ms;
    acc.timings.rules_ms += o.timings.rules_ms;
    acc.timings.features_ms += o.timings.features_ms;
    acc.timings.predict_ms += o.timings.predict_ms;
    acc.timings.total_ms += o.timings.total_ms;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{arrivals, corpus, push_variant, snapshot};

    #[test]
    fn shard_routing_is_stable_and_partitions_the_corpus() {
        let snap = snapshot(1.0);
        for n in 1..=4 {
            let sharded = ShardedMatchService::from_snapshot(snap.clone(), n).unwrap();
            let stats = sharded.stats();
            assert_eq!(stats.n_shards, n);
            assert_eq!(stats.corpus_rows, corpus().n_rows(), "rows lost in partition");
            // Every corpus key lives on exactly the shard the hash names.
            for r in corpus().iter() {
                let acc = r.get(ACCESSION_COL).unwrap().render();
                let home = shard_of_key(&acc, n);
                assert_eq!(home, sharded.shard_of(&acc));
                let shard = sharded.shard(home).unwrap();
                assert!(
                    shard
                        .corpus()
                        .iter()
                        .any(|row| row.get(ACCESSION_COL).unwrap().render() == acc),
                    "key {acc} missing from its home shard {home} of {n}"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_single_instance_bit_identically() {
        let single = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let arr = arrivals();
        let reference = single.match_batch(&arr).unwrap();
        for n in 1..=4 {
            let sharded = ShardedMatchService::from_snapshot(snapshot(1.0), n).unwrap();
            let got = sharded.match_batch(&arr).unwrap();
            assert_eq!(got.ids, reference.ids, "batch ids diverged at {n} shards");
            for (i, (g, w)) in got.outcomes.iter().zip(&reference.outcomes).enumerate() {
                assert_eq!(g.ids, w.ids, "row {i} ids diverged at {n} shards");
                assert_eq!(g.n_blocked, w.n_blocked, "row {i} blocked count at {n} shards");
                assert_eq!(g.n_sure, w.n_sure, "row {i} sure count at {n} shards");
                assert_eq!(g.n_candidates, w.n_candidates, "row {i} candidates at {n} shards");
                assert_eq!(g.n_predicted, w.n_predicted, "row {i} predicted at {n} shards");
                assert_eq!(g.n_flipped, w.n_flipped, "row {i} flipped at {n} shards");
            }
            // One-at-a-time agrees with the batch.
            for i in 0..arr.n_rows() {
                let o = sharded.match_on_arrival(&arr, i).unwrap();
                assert_eq!(o.ids, reference.outcomes[i].ids, "row {i} single at {n} shards");
            }
        }
    }

    #[test]
    fn pushes_route_to_the_home_shard_and_keep_equivalence() {
        let mut single = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let mut sharded = ShardedMatchService::from_snapshot(snapshot(1.0), 3).unwrap();
        let arr = arrivals();
        let base = corpus();
        for k in 0..6 {
            let row = push_variant(&base, "GROW", k);
            single.push_corpus_row(row.clone()).unwrap();
            let (s, _) = sharded.push_corpus_row(row.clone()).unwrap();
            let key = row[0].render();
            assert_eq!(s, sharded.shard_of(&key), "push routed off the stable hash");
            let want = single.match_batch(&arr).unwrap();
            let got = sharded.match_batch(&arr).unwrap();
            assert_eq!(got.ids, want.ids, "diverged after push {k}");
        }
        assert_eq!(sharded.stats().corpus_rows, single.corpus().n_rows());
    }

    #[test]
    fn swap_is_all_or_nothing_across_shards() {
        let arr = arrivals();
        let mut sharded = ShardedMatchService::from_snapshot(snapshot(1.0), 3).unwrap();
        sharded.record_probes(&arr).unwrap();
        let before = sharded.match_batch(&arr).unwrap();
        assert_eq!(sharded.epoch(), 0);

        // A candidate that only perturbs ONE shard: drop the corpus row a
        // golden probe depends on (ACC1 matches arrival 0 by award number),
        // leaving every other shard's partition byte-identical. Exactly
        // ACC1's home shard must reject — and the rejection must still roll
        // back ALL shards' staged candidates.
        let full = snapshot(1.0);
        let mut pruned = full.clone();
        let kept: Vec<Vec<Value>> = full
            .corpus
            .rows()
            .iter()
            .filter(|r| r[0].render() != "ACC1")
            .cloned()
            .collect();
        pruned.corpus = Table::from_rows("usda", full.corpus.schema().clone(), kept).unwrap();
        let err = sharded.propose_snapshot(pruned).unwrap_err();
        assert!(matches!(err, ServeError::SwapRejected { .. }), "got {err:?}");
        let stats = sharded.stats();
        assert_eq!(stats.staged, 0, "a rejected proposal left a staged candidate behind");
        assert!(sharded.publish_at_boundary().is_none(), "nothing must publish");
        assert_eq!(sharded.epoch(), 0, "rejected proposal advanced an epoch");
        let after = sharded.match_batch(&arr).unwrap();
        assert_eq!(after.ids, before.ids, "rejected proposal changed serving");

        // The identical snapshot passes every shard's probes and publishes
        // epoch-atomically on all of them.
        sharded.propose_snapshot(snapshot(1.0)).unwrap();
        assert_eq!(sharded.stats().staged, 3);
        let reports = sharded.publish_at_boundary().expect("boundary is clear");
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.epoch == 1), "shards published different epochs");
        assert_eq!(sharded.epoch(), 1);
        let after = sharded.match_batch(&arr).unwrap();
        assert_eq!(after.ids, before.ids);
    }

    #[test]
    fn no_publish_while_any_shard_queue_is_nonempty() {
        let arr = arrivals();
        let mut sharded = ShardedMatchService::from_snapshot(snapshot(1.0), 2).unwrap();
        sharded.propose_snapshot(snapshot(1.0)).unwrap();
        // Queue a request on one shard only: the tier is mid-batch, so the
        // boundary is not reached and NO shard may advance.
        sharded.cells[1].service_mut().submit(&arr, 0).unwrap();
        assert!(sharded.publish_at_boundary().is_none(), "published across a live queue");
        assert_eq!(sharded.epoch(), 0);
        sharded.cells[1].service_mut().drain().unwrap();
        let reports = sharded.publish_at_boundary().expect("boundary reached after drain");
        assert_eq!(reports.len(), 2);
        assert_eq!(sharded.epoch(), 1);
    }

    #[test]
    fn checkpoint_recover_round_trips_and_quarantines_per_shard() {
        let dir = std::env::temp_dir().join(format!("em-shard-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let arr = arrivals();

        let mut sharded = ShardedMatchService::from_snapshot(snapshot(1.0), 2).unwrap();
        sharded.checkpoint(&dir).unwrap();
        let base = corpus();
        for k in 0..4 {
            sharded.push_corpus_row(push_variant(&base, "NEW", k)).unwrap();
        }
        let want = sharded.match_batch(&arr).unwrap();

        // Crash: recover from disk alone — WAL replay routes every row home.
        let (recovered, reports) = ShardedMatchService::recover(&dir, 2).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 4);
        let got = recovered.match_batch(&arr).unwrap();
        assert_eq!(got.ids, want.ids, "recovery changed serving");
        assert_eq!(recovered.stats().corpus_rows, sharded.stats().corpus_rows);

        // Corrupt BOTH shard WALs: each quarantines to its own shard-named
        // destination; repeating the recovery numbers the next rename —
        // no shard ever clobbers another shard's (or its own) evidence.
        for s in 0..2 {
            std::fs::write(dir.join(format!("shard-{s}.wal")), "em-wal v999\ngarbage").unwrap();
        }
        let err = ShardedMatchService::recover(&dir, 2).unwrap_err();
        let ServeError::Quarantined { dest, .. } = err else {
            panic!("expected Quarantined, got {err:?}");
        };
        assert!(dest.ends_with("shard-0.wal.quarantined"), "unexpected dest {dest}");
        std::fs::write(dir.join("shard-0.wal"), "em-wal v999\ngarbage").unwrap();
        let err2 = ShardedMatchService::recover(&dir, 2).unwrap_err();
        let ServeError::Quarantined { dest: dest2, .. } = err2 else {
            panic!("expected Quarantined, got {err2:?}");
        };
        assert!(
            dest2.ends_with("shard-0.wal.quarantined.1"),
            "second quarantine must take a numbered destination, got {dest2}"
        );
        assert!(std::path::Path::new(&dest).exists());
        assert!(std::path::Path::new(&dest2).exists());
        // Shard 1's corrupt WAL is still in place, untouched by shard 0's
        // quarantines: with shard 0's log moved aside, the next recovery
        // reaches shard 1 and quarantines at shard 1's own destination —
        // the shard id in the filename makes collision impossible.
        let err3 = ShardedMatchService::recover(&dir, 2).unwrap_err();
        let ServeError::Quarantined { dest: dest3, .. } = err3 else {
            panic!("expected Quarantined, got {err3:?}");
        };
        assert!(
            dest3.ends_with("shard-1.wal.quarantined"),
            "shard 1 quarantine collided or missed: {dest3}"
        );
        // With every bad WAL moved aside, recovery succeeds from the
        // checkpoints (the logged pushes are lost with their logs).
        let (recovered2, _) = ShardedMatchService::recover(&dir, 2).unwrap();
        assert_eq!(recovered2.stats().corpus_rows, corpus().n_rows());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
