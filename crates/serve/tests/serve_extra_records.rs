//! End-to-end serving equivalence: replaying the case study's 496 extra
//! UMETRICS records through the online [`MatchService`] — one at a time
//! and as a micro-batch — produces exactly the match ids the batch
//! pipeline's extra-data patch stage produces, and a snapshot
//! save/load round-trip changes nothing.

use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::{standard_rules, EmWorkflow, MatchIds};
use em_serve::{MatchService, ProbeScratch, WorkflowSnapshot};

#[test]
fn serving_extra_records_equals_batch_patch_stage() {
    let artifacts = CaseStudy::new(CaseStudyConfig::small())
        .train_serving_artifacts()
        .expect("training the serving artifacts");
    let extra = &artifacts.extra_umetrics;
    assert!(extra.n_rows() > 0, "scenario produced no extra records");

    // Batch reference: the workflow-patch stage over the extra table
    // (Figure 9's composition), keyed as deliverable ids.
    let workflow = EmWorkflow {
        rules: standard_rules(),
        plan: artifacts.plan,
        matcher: &artifacts.matcher,
        apply_negative: true,
    };
    let (_original, patch) = workflow
        .run_patched(&artifacts.umetrics, extra, &artifacts.usda)
        .expect("batch patch run");
    let batch_ids = MatchIds::from_candidates(extra, &artifacts.usda, &patch.matches)
        .expect("batch ids");

    // Online replay, one record at a time.
    let service = MatchService::from_artifacts(&artifacts).expect("service from artifacts");
    let mut one_at_a_time = MatchIds::default();
    for i in 0..extra.n_rows() {
        let outcome = service.match_on_arrival(extra, i).expect("match_on_arrival");
        one_at_a_time = one_at_a_time.union(&outcome.ids);
    }
    assert_eq!(
        one_at_a_time, batch_ids,
        "one-at-a-time serving diverged from the batch patch stage"
    );

    // Online replay as one micro-batch.
    let batched = service.match_batch(extra).expect("match_batch");
    assert_eq!(batched.ids, batch_ids, "micro-batched serving diverged");
    assert_eq!(batched.outcomes.len(), extra.n_rows());

    // Snapshot round-trip: freeze, encode, decode, serve again —
    // bit-identical verdicts.
    let snapshot = WorkflowSnapshot::from_artifacts(&artifacts);
    let text = snapshot.encode();
    let reloaded = WorkflowSnapshot::decode(&text).expect("snapshot decode");
    assert_eq!(reloaded.encode(), text, "snapshot encoding is not a fixed point");
    let service2 = MatchService::from_snapshot(reloaded).expect("service from snapshot");
    let batched2 = service2.match_batch(extra).expect("match_batch after round-trip");
    assert_eq!(batched2.ids, batch_ids, "snapshot round-trip changed verdicts");

    // The bounded admission queue drains to the same result.
    let mut service3 = MatchService::from_artifacts(&artifacts).expect("service");
    let take = extra.n_rows().min(32);
    for i in 0..take {
        service3.submit(extra, i).expect("submit");
    }
    let drained = service3.drain().expect("drain");
    let mut expected = MatchIds::default();
    for o in batched.outcomes.iter().take(take) {
        expected = expected.union(&o.ids);
    }
    assert_eq!(drained.ids, expected, "queued drain diverged from direct serving");
}

#[test]
fn serving_is_thread_count_invariant() {
    let artifacts = CaseStudy::new(CaseStudyConfig::small())
        .train_serving_artifacts()
        .expect("training the serving artifacts");
    let extra = &artifacts.extra_umetrics;
    let service = MatchService::from_artifacts(&artifacts).expect("service");

    // The steady-state request loop rides along: one reused scratch, cold at
    // 1 thread and warm at 4, must give the micro-batch's verdict row by row.
    let mut scratch = ProbeScratch::new();
    let mut replay = || -> Vec<MatchIds> {
        (0..extra.n_rows())
            .map(|i| service.match_on_arrival_with(extra, i, &mut scratch).expect("request").ids)
            .collect()
    };
    em_parallel::set_threads(1);
    let single = service.match_batch(extra).expect("1-thread batch");
    let hot_single = replay();
    em_parallel::set_threads(4);
    let multi = service.match_batch(extra).expect("4-thread batch");
    let hot_multi = replay();
    em_parallel::set_threads(0);

    assert_eq!(single.ids, multi.ids, "thread count changed match ids");
    assert_eq!(single.outcomes.len(), multi.outcomes.len());
    for (a, b) in single.outcomes.iter().zip(&multi.outcomes) {
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.n_blocked, b.n_blocked);
        assert_eq!(a.n_predicted, b.n_predicted);
        assert_eq!(a.n_flipped, b.n_flipped);
    }
    for (i, o) in single.outcomes.iter().enumerate() {
        assert_eq!(hot_single[i], o.ids, "cold one-at-a-time request {i} vs the micro-batch");
        assert_eq!(hot_multi[i], o.ids, "warm one-at-a-time request {i} at 4 threads");
    }
}
