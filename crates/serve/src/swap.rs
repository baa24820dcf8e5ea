//! Epoch-based snapshot hot-swap: retrain offline, validate against golden
//! probes, publish at a deterministic request boundary — or roll back and
//! quarantine.
//!
//! ## The swap protocol
//!
//! 1. **Propose.** A candidate [`WorkflowSnapshot`] (typically a fresh
//!    retrain) is built into a full [`MatchService`] off to the side — the
//!    live service keeps serving untouched.
//! 2. **Validate.** The candidate must reproduce every expected outcome of
//!    the cell's [`GoldenProbeSet`]. A divergence is a typed
//!    [`ServeError::SwapRejected`] naming the first failing probe; the
//!    candidate is dropped (rollback is a no-op because the live service
//!    was never touched), and when the candidate came from disk, the
//!    artifact is quarantined like any other corrupt snapshot.
//! 3. **Stage.** A validated candidate waits in the cell. Nothing about
//!    the live service changes yet.
//! 4. **Publish at a boundary.** [`SnapshotCell::publish_at_boundary`]
//!    swaps only when the admission queue is empty — the deterministic
//!    request boundary. Every queued or in-flight request therefore
//!    finishes on the epoch that admitted it; the first request admitted
//!    after the swap runs on `epoch + 1`. The lineage's monotonic counters
//!    and overload policy migrate to the new epoch; its WAL does **not**
//!    (the new corpus supersedes the old log), so callers should
//!    [`MatchService::checkpoint`] right after a publish.
//!
//! Epochs are counted, reported in every
//! [`MatchOutcome`](crate::MatchOutcome), and surfaced in
//! [`ServiceStats`](crate::ServiceStats), so an auditor can attribute any
//! served result to the exact snapshot generation that produced it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::overload::ServeMode;
use crate::service::MatchService;
use crate::snapshot::{quarantine_path, WorkflowSnapshot};
use em_core::MatchIds;
use em_table::Table;
use std::path::Path;
use std::time::Instant;

/// A fixed set of probe arrivals with their expected match ids — the
/// acceptance gate a candidate snapshot must pass before publication.
#[derive(Debug, Clone)]
pub struct GoldenProbeSet {
    arrivals: Table,
    expected: Vec<MatchIds>,
}

impl GoldenProbeSet {
    /// A probe set with externally curated expectations (`expected[i]` is
    /// the required outcome for row `i` of `arrivals`).
    pub fn new(arrivals: Table, expected: Vec<MatchIds>) -> Result<GoldenProbeSet, ServeError> {
        if arrivals.n_rows() != expected.len() {
            return Err(ServeError::Pipeline(format!(
                "golden probe set has {} arrivals but {} expectations",
                arrivals.n_rows(),
                expected.len()
            )));
        }
        Ok(GoldenProbeSet { arrivals, expected })
    }

    /// Freezes the *current* behavior of `service` over `arrivals` as the
    /// expectations — the right gate when candidates are supposed to be
    /// behavior-preserving (checkpoint reloads, corpus-identical rebuilds).
    /// Probes run on the uncounted path, so recording does not perturb
    /// [`ServiceStats`](crate::ServiceStats).
    pub fn record(service: &MatchService, arrivals: Table) -> Result<GoldenProbeSet, ServeError> {
        let expected: Result<Vec<MatchIds>, ServeError> = service.with_scratch(|scratch| {
            (0..arrivals.n_rows())
                .map(|i| Ok(service.match_inner(&arrivals, i, scratch, ServeMode::Full)?.ids))
                .collect()
        });
        Ok(GoldenProbeSet { expected: expected?, arrivals })
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Whether the set has no probes (validation then accepts anything —
    /// the caller has explicitly opted out of gating).
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Checks every probe against `candidate` (uncounted), failing with
    /// [`ServeError::SwapRejected`] at the first divergence or probe error.
    pub fn validate(&self, candidate: &MatchService) -> Result<(), ServeError> {
        for (i, want) in self.expected.iter().enumerate() {
            let got = candidate
                .with_scratch(|scratch| candidate.match_inner(&self.arrivals, i, scratch, ServeMode::Full))
                .map_err(|e| ServeError::SwapRejected {
                    probe: i,
                    detail: format!("probe failed to serve: {e}"),
                })?;
            if got.ids != *want {
                return Err(ServeError::SwapRejected {
                    probe: i,
                    detail: format!(
                        "ids diverged: candidate produced {} match(es), expected {}",
                        got.ids.len(),
                        want.len()
                    ),
                });
            }
        }
        Ok(())
    }
}

/// What one published swap did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapReport {
    /// Epoch the lineage moved to.
    pub epoch: u64,
    /// Golden probes the candidate passed.
    pub probes: usize,
    /// Corpus rows of the published service.
    pub corpus_rows: usize,
    /// Wall-clock time from proposal to validation verdict —
    /// observability only, excluded from every determinism guarantee.
    pub validate_ms: f64,
    /// Wall-clock time of the publish itself (counter migration + swap).
    pub publish_ms: f64,
}

/// The arc-swap-style holder of the live service: candidates are
/// validated and staged off to the side, then atomically (from the
/// request path's point of view: between drains, never mid-batch)
/// exchanged for the live service at a queue-empty boundary.
pub struct SnapshotCell {
    current: MatchService,
    staged: Option<(MatchService, f64)>,
    probes: GoldenProbeSet,
    history: Vec<SwapReport>,
}

impl SnapshotCell {
    /// Wraps a live service with its acceptance gate.
    pub fn new(service: MatchService, probes: GoldenProbeSet) -> SnapshotCell {
        SnapshotCell { current: service, staged: None, probes, history: Vec::new() }
    }

    /// The live service.
    pub fn service(&self) -> &MatchService {
        &self.current
    }

    /// The live service, mutably (submissions, drains, pushes).
    pub fn service_mut(&mut self) -> &mut MatchService {
        &mut self.current
    }

    /// Unwraps the cell, dropping any staged candidate.
    pub fn into_service(self) -> MatchService {
        self.current
    }

    /// Whether a validated candidate is waiting for a boundary.
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Reports of every published swap, oldest first.
    pub fn history(&self) -> &[SwapReport] {
        &self.history
    }

    /// Replaces the acceptance gate (e.g. re-freezing current behavior
    /// after a corpus push made the old expectations stale).
    pub fn set_probes(&mut self, probes: GoldenProbeSet) {
        self.probes = probes;
    }

    /// Drops any staged candidate without publishing it — the rollback
    /// half of an all-or-nothing multi-cell swap
    /// ([`crate::shard::ShardedMatchService::propose_snapshot`]): when a
    /// peer cell rejects its part of a proposal, every sibling abandons
    /// its own validated stage so no cell can publish ahead of the group.
    pub fn abandon_staged(&mut self) {
        self.staged = None;
    }

    /// Builds, validates, and stages a candidate snapshot. On failure the
    /// live service and any previously staged candidate are untouched
    /// (rollback is the absence of publication); the error names the
    /// failing probe. A newly validated candidate replaces an older staged
    /// one — last validated proposal wins the next boundary.
    pub fn propose(&mut self, snapshot: WorkflowSnapshot) -> Result<(), ServeError> {
        let t0 = Instant::now();
        let candidate = MatchService::from_snapshot(snapshot)?;
        self.probes.validate(&candidate)?;
        self.staged = Some((candidate, t0.elapsed().as_secs_f64() * 1e3));
        Ok(())
    }

    /// [`SnapshotCell::propose`] from an on-disk artifact. A snapshot that
    /// fails to *decode* is quarantined by
    /// [`WorkflowSnapshot::load_quarantining`]; one that decodes but fails
    /// golden-probe validation is quarantined here for the same reason —
    /// a supervisor must not retry a rejected artifact in a loop. Either
    /// way the returned [`ServeError::Quarantined`] names the destination.
    pub fn propose_from_path(&mut self, path: &Path) -> Result<(), ServeError> {
        let snapshot = WorkflowSnapshot::load_quarantining(path)?;
        match self.propose(snapshot) {
            Ok(()) => Ok(()),
            Err(e @ ServeError::SwapRejected { .. }) => {
                let dest = quarantine_path(path);
                let _ = std::fs::rename(path, &dest);
                Err(ServeError::Quarantined {
                    dest: dest.display().to_string(),
                    cause: Box::new(e),
                })
            }
            Err(other) => Err(other),
        }
    }

    /// Publishes the staged candidate **iff** one exists and the admission
    /// queue is empty (the deterministic request boundary); otherwise a
    /// no-op returning `None`. On publish, the new epoch is the old plus
    /// one; monotonic counters, overload policy, queue capacity, and the
    /// submission sequence migrate so the lineage's accounting is
    /// continuous across the swap. The old service (and its WAL handle)
    /// is dropped — checkpoint the new service to make the swap durable.
    pub fn publish_at_boundary(&mut self) -> Option<SwapReport> {
        if self.current.queue_len() > 0 {
            return None;
        }
        let (mut next, validate_ms) = self.staged.take()?;
        let t0 = Instant::now();
        next.counters.adopt(&self.current.counters);
        next.epoch = self.current.epoch + 1;
        next.policy = self.current.policy;
        next.queue_capacity = self.current.queue_capacity;
        next.next_seq = self.current.next_seq;
        let report = SwapReport {
            epoch: next.epoch,
            probes: self.probes.len(),
            corpus_rows: next.corpus().n_rows(),
            validate_ms,
            publish_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        self.current = next;
        self.history.push(report);
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{arrivals, corpus as fixture_corpus, snapshot};
    use em_table::Value;

    #[test]
    fn golden_probes_accept_identical_and_reject_divergent_candidates() {
        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let probes = GoldenProbeSet::record(&service, arrivals()).unwrap();
        assert_eq!(probes.len(), arrivals().n_rows());

        // A behavior-identical rebuild (round-tripped snapshot) passes.
        let same = MatchService::from_snapshot(
            WorkflowSnapshot::decode(&snapshot(1.0).encode()).unwrap(),
        )
        .unwrap();
        probes.validate(&same).unwrap();

        // A candidate whose model flips every prediction diverges.
        let broken = MatchService::from_snapshot(snapshot(0.0)).unwrap();
        let err = probes.validate(&broken).unwrap_err();
        assert!(matches!(err, ServeError::SwapRejected { .. }), "got {err:?}");
    }

    #[test]
    fn queued_requests_finish_on_their_admission_epoch() {
        // Empty probe set: both models are acceptable, so the swap is
        // gated purely by the request boundary.
        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let probes =
            GoldenProbeSet::new(Table::new("probes", arrivals().schema().clone()), Vec::new())
                .unwrap();
        let mut cell = SnapshotCell::new(service, probes);
        let arr = arrivals();

        // Queue two requests on epoch 0, then stage a candidate that
        // predicts nothing (proba 0.0).
        cell.service_mut().submit(&arr, 0).unwrap();
        cell.service_mut().submit(&arr, 2).unwrap();
        cell.propose(snapshot(0.0)).unwrap();
        assert!(cell.has_staged());

        // The queue is non-empty: no boundary, no swap.
        assert!(cell.publish_at_boundary().is_none());
        assert_eq!(cell.service().epoch(), 0);

        // Drain: the queued requests are served by the *old* model on the
        // admission epoch.
        let drained = cell.service_mut().drain().unwrap();
        assert_eq!(drained.outcomes.len(), 2);
        for o in &drained.outcomes {
            assert_eq!(o.epoch, 0, "queued request served on a later epoch");
        }
        let old_ids = drained.ids.clone();
        assert!(!old_ids.is_empty(), "proba-1.0 fixture must match something");

        // Now the boundary is real: the swap publishes, epoch advances,
        // counters migrate.
        let before = cell.service().stats();
        let report = cell.publish_at_boundary().expect("staged swap must publish");
        assert_eq!(report.epoch, 1);
        let after = cell.service().stats();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.admitted, before.admitted, "counters must migrate");
        assert_eq!(after.completed, before.completed);

        // Requests after the boundary run on the new epoch and the new
        // model (proba 0.0 → sure matches only).
        let o = cell.service().match_on_arrival(&arr, 0).unwrap();
        assert_eq!(o.epoch, 1);
        assert_eq!(o.n_predicted, 0, "new model must predict nothing");
    }

    #[test]
    fn rejected_disk_candidate_is_quarantined_and_live_service_untouched() {
        let dir = std::env::temp_dir().join(format!("em-swap-q-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("candidate.emsnap");

        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let probes = GoldenProbeSet::record(&service, arrivals()).unwrap();
        let mut cell = SnapshotCell::new(service, probes);

        // A semantically broken candidate: decodes fine, diverges on the
        // probes. It must be rejected AND moved aside.
        snapshot(0.0).save(&path).unwrap();
        let err = cell.propose_from_path(&path).unwrap_err();
        let ServeError::Quarantined { dest, cause } = err else {
            panic!("expected Quarantined, got {err:?}");
        };
        assert!(matches!(*cause, ServeError::SwapRejected { .. }));
        assert!(!path.exists(), "rejected artifact still in place");
        assert!(std::path::Path::new(&dest).exists());
        assert!(!cell.has_staged());
        assert_eq!(cell.service().epoch(), 0);
        assert!(cell.publish_at_boundary().is_none(), "nothing staged must publish");

        // A byte-corrupt candidate takes the decode-quarantine path.
        std::fs::write(&path, "em-snapshot v1 5\njunk").unwrap();
        let err = cell.propose_from_path(&path).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { .. }), "got {err:?}");
        assert!(!path.exists());

        // The live service still serves exactly as before.
        let o = cell.service().match_on_arrival(&arrivals(), 0).unwrap();
        assert!(!o.ids.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swapping_in_a_grown_corpus_serves_the_new_rows() {
        // The retrain-with-more-data story: candidate = live state plus
        // one new corpus row, frozen via to_snapshot.
        let mut grown = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        let extra = vec![
            Value::Str("ACC5".into()),
            Value::Str("7777-66666-55555".into()),
            Value::Null,
            Value::Str("corn fungicide guidelines appendix".into()),
        ];
        grown.push_corpus_row(extra).unwrap();
        let candidate = grown.to_snapshot();
        assert_eq!(candidate.corpus.n_rows(), fixture_corpus().n_rows() + 1);

        let service = MatchService::from_snapshot(snapshot(1.0)).unwrap();
        // Probe on a row whose outcome the new corpus row does not change
        // (arrival 1 matches by project number only).
        let mut probe_rows = Table::new("probes", arrivals().schema().clone());
        probe_rows
            .push_row(arrivals().row(1).unwrap().values().to_vec())
            .unwrap();
        let probes = GoldenProbeSet::record(&service, probe_rows).unwrap();
        let mut cell = SnapshotCell::new(service, probes);
        cell.propose(candidate).unwrap();
        let report = cell.publish_at_boundary().expect("boundary is clear");
        assert_eq!(report.epoch, 1);
        assert_eq!(report.corpus_rows, fixture_corpus().n_rows() + 1);
        assert_eq!(cell.service().stats().corpus_rows, fixture_corpus().n_rows() + 1);
    }
}
