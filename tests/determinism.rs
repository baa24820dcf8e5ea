//! Thread-count invariance of the performance engine.
//!
//! The parallel executor partitions index ranges into contiguous chunks and
//! joins them in order, so every fan-out point (blocking probes, feature
//! extraction, forest fitting, CV folds, batch prediction) must produce
//! *bit-identical* results at any thread count. These tests pin that
//! guarantee at each layer and for the full case study, including a
//! checkpointed resume at a different thread count than the original run.

use std::sync::{Mutex, MutexGuard, OnceLock};

use umetrics_em::blocking::{
    debug_blocking, Blocker, BlockingDebugger, OverlapBlocker, SetSimBlocker,
};
use umetrics_em::core::blocking_plan::{run_blocking, BlockingPlan};
use umetrics_em::core::labeling::{accession_of, award_of};
use umetrics_em::core::pipeline::{CaseStudy, CaseStudyConfig, CaseStudyReport};
use umetrics_em::core::stream::StreamMatcher;
use umetrics_em::core::{project_umetrics, project_usda, standard_rules, EmWorkflow, MatchIds};
use umetrics_em::datagen::{Scenario, ScenarioConfig};
use umetrics_em::features::{auto_features, extract_vectors, FeatureOptions};
use umetrics_em::ml::forest::RandomForestLearner;
use umetrics_em::ml::{impute_mean, Dataset, Model};
use umetrics_em::serve::{MatchService, ShardedMatchService, WorkflowSnapshot};
use umetrics_em::table::Table;

/// `set_threads` is process-global, so tests that flip it must not
/// interleave. (Results are thread-count-invariant either way — the guard
/// keeps the *requested* counts honest, not the outputs.)
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    umetrics_em::parallel::set_threads(n);
    let out = f();
    umetrics_em::parallel::set_threads(0);
    out
}

fn projected_tables() -> (Table, Table, Scenario) {
    let s = Scenario::generate(ScenarioConfig::small()).unwrap();
    let u = project_umetrics(&s.award_agg, &s.employees).unwrap();
    let d = project_usda(&s.usda, false).unwrap();
    (u, d, s)
}

#[test]
fn candidate_sets_are_thread_count_invariant() {
    let _guard = thread_lock();
    let (u, d, _) = projected_tables();
    let overlap = OverlapBlocker::new("AwardTitle", "AwardTitle", 3);
    let oc = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", 0.7);

    let base_overlap = at_threads(1, || overlap.block(&u, &d).unwrap().to_vec());
    let base_oc = at_threads(1, || oc.block(&u, &d).unwrap().to_vec());
    assert!(!base_overlap.is_empty());

    for threads in [2, 5, 16] {
        let ov = at_threads(threads, || overlap.block(&u, &d).unwrap().to_vec());
        assert_eq!(ov, base_overlap, "overlap blocker diverged at {threads} threads");
        let oc_pairs = at_threads(threads, || oc.block(&u, &d).unwrap().to_vec());
        assert_eq!(oc_pairs, base_oc, "set-sim blocker diverged at {threads} threads");
    }
}

#[test]
fn forest_probabilities_are_thread_count_invariant() {
    let _guard = thread_lock();
    let (u, d, s) = projected_tables();
    let pairs = OverlapBlocker::new("AwardTitle", "AwardTitle", 3).block(&u, &d).unwrap().to_vec();
    let features = auto_features(
        &u,
        &d,
        &FeatureOptions::excluding(&["RecordId", "AccessionNumber"]).with_case_insensitive(),
    );

    // Extraction itself must be invariant (bitwise, including NaN slots).
    let x1 = at_threads(1, || extract_vectors(&features, &u, &d, &pairs).unwrap());
    for threads in [2, 7] {
        let xn = at_threads(threads, || extract_vectors(&features, &u, &d, &pairs).unwrap());
        let a: Vec<u64> = x1.iter().flatten().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = xn.iter().flatten().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "feature vectors diverged at {threads} threads");
    }

    let y: Vec<bool> = pairs
        .iter()
        .map(|p| {
            s.truth.is_match(
                &u.get(p.left, "AwardNumber").map(|v| v.render()).unwrap_or_default(),
                &d.get(p.right, "AccessionNumber").map(|v| v.render()).unwrap_or_default(),
            )
        })
        .collect();
    let mut data = Dataset::new(features.names(), x1, y).unwrap();
    let _ = impute_mean(&mut data);

    let probe: Vec<&[f64]> = data.x.iter().map(Vec::as_slice).collect();
    let base: Vec<u64> = {
        let model = at_threads(1, || RandomForestLearner::default().fit_forest(&data).unwrap());
        probe.iter().map(|row| model.predict_proba(row).to_bits()).collect()
    };
    for threads in [2, 4, 16] {
        let model =
            at_threads(threads, || RandomForestLearner::default().fit_forest(&data).unwrap());
        let got: Vec<u64> = probe.iter().map(|row| model.predict_proba(row).to_bits()).collect();
        assert_eq!(got, base, "forest probabilities diverged at {threads} threads");
    }
}

/// The Section 7 MatchCatcher audit at the paper's scale and seed: the
/// bound-pruned top-k join fans left rows out over per-chunk heaps, so the
/// pruning threshold each chunk sees moves with the thread count — the
/// ranked list must not. The audit also has to keep telling the story the
/// pinned paper-scale report tells.
#[test]
fn paper_scale_debugger_audit_is_thread_count_invariant() {
    let _guard = thread_lock();
    let study = CaseStudy::new(CaseStudyConfig::paper());
    let (u, d, scenario) = study.prepare_tables().unwrap();
    let candidates = run_blocking(&u, &d, &BlockingPlan::default()).unwrap().consolidated;
    let debugger = BlockingDebugger::new("AwardTitle", "AwardTitle");
    let audit = |threads| {
        let list = at_threads(threads, || debug_blocking(&debugger, &u, &d, &candidates).unwrap());
        list.iter().map(|p| (p.pair, p.score.to_bits())).collect::<Vec<_>>()
    };
    let base = audit(1);
    assert_eq!(base.len(), 100, "paper's top-100 audit");
    for threads in [2, 4] {
        assert_eq!(audit(threads), base, "debugger audit diverged at {threads} threads");
    }

    let true_matches = base
        .iter()
        .filter(|(p, _)| scenario.truth.is_match(&award_of(&u, p.left), &accession_of(&d, p.right)))
        .count();
    let report = study.run().unwrap();
    assert_eq!((report.debugger_inspected, report.debugger_true_matches), (100, true_matches));
    let line = format!("\n  {true_matches} of top 100 excluded pairs were true matches\n");
    assert!(
        include_str!("../reproduce_paper_output.txt").contains(&line),
        "audit no longer matches the pinned reproduce_paper_output.txt: {line:?}"
    );
}

/// `StreamMatcher::new` forks its set-up legs (extractor caches, sure-match
/// and C1 adjacencies, bound negative rules, token corpora + join index)
/// and `run` fans chunks out: the frozen x1 workflow streamed over the x1
/// and x4 corpora must give the same accounting — counts, histogram,
/// checksum — and the same feature mask however many threads built and
/// drove it.
#[test]
fn stream_setup_and_run_are_thread_count_invariant() {
    let _guard = thread_lock();
    let mut cfg = CaseStudyConfig::small();
    cfg.scenario = ScenarioConfig::scaled(1.0);
    let art = CaseStudy::new(cfg).train_serving_artifacts().unwrap();
    for factor in [1.0, 4.0] {
        // Auxiliary tables at paper size, as `reproduce --scaling-match`
        // caps them: they never feed the matcher's columns.
        let paper = ScenarioConfig::paper();
        let mut scaled = ScenarioConfig::scaled(factor);
        scaled.n_employees = paper.n_employees;
        scaled.n_vendors = paper.n_vendors;
        scaled.n_subawards = paper.n_subawards;
        scaled.n_object_codes = paper.n_object_codes;
        let s = Scenario::generate(scaled).unwrap();
        let u = project_umetrics(&s.award_agg, &s.employees).unwrap();
        let d = project_usda(&s.usda, true).unwrap();
        let stream = |threads| {
            at_threads(threads, || {
                let sm = StreamMatcher::new(&u, &d, &art.matcher, &art.rule_descs, &art.plan)
                    .unwrap();
                (sm.run(), sm.mask().live_indices().collect::<Vec<_>>())
            })
        };
        let base = stream(1);
        assert!(base.0.candidates > 0 && base.0.matched > 0, "x{factor} streamed nothing");
        for threads in [2, 4] {
            assert_eq!(stream(threads), base, "x{factor} stream diverged at {threads} threads");
        }
    }
}

/// The serve tier scores an arriving record through the kernel the batch
/// paths use: a single instance and a 1- and 2-shard tier must return the
/// batch patch stage's match ids for the extra records, however many
/// threads drive the micro-batch.
#[test]
fn serving_equals_the_batch_patch_stage_at_any_thread_count() {
    let _guard = thread_lock();
    let art = CaseStudy::new(CaseStudyConfig::small()).train_serving_artifacts().unwrap();
    let extra = &art.extra_umetrics;
    let workflow = EmWorkflow {
        rules: standard_rules(),
        plan: art.plan,
        matcher: &art.matcher,
        apply_negative: true,
    };
    let (_original, patch) = workflow.run_patched(&art.umetrics, extra, &art.usda).unwrap();
    let batch_ids = MatchIds::from_candidates(extra, &art.usda, &patch.matches).unwrap();
    assert!(!batch_ids.is_empty(), "the patch stage matched nothing");

    let snapshot = WorkflowSnapshot::from_artifacts(&art);
    let single = MatchService::from_snapshot(snapshot.clone()).unwrap();
    let tiers = [1, 2].map(|n| ShardedMatchService::from_snapshot(snapshot.clone(), n).unwrap());
    for threads in [1, 2, 4] {
        let ids = at_threads(threads, || single.match_batch(extra).unwrap().ids);
        assert_eq!(ids, batch_ids, "single instance diverged at {threads} threads");
        for (tier, shards) in tiers.iter().zip([1, 2]) {
            let ids = at_threads(threads, || tier.match_batch(extra).unwrap().ids);
            assert_eq!(ids, batch_ids, "{shards}-shard tier diverged at {threads} threads");
        }
    }
}

/// Strips per-run wall-clock noise so reports compare on content alone.
fn canonical(mut r: CaseStudyReport) -> CaseStudyReport {
    r.resilience.resumed_stages.clear();
    r
}

#[test]
fn full_report_is_thread_count_invariant() {
    let _guard = thread_lock();
    let study = CaseStudy::new(CaseStudyConfig::small());
    let base = at_threads(1, || study.run().unwrap());
    for threads in [2, 6] {
        let got = at_threads(threads, || study.run().unwrap());
        assert_eq!(got, base, "case-study report diverged at {threads} threads");
    }
}

#[test]
fn checkpoint_resume_is_thread_count_invariant() {
    let _guard = thread_lock();
    let dir = std::env::temp_dir().join(format!("em-determinism-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let study = CaseStudy::new(CaseStudyConfig::small());
    // Fresh single-threaded reference, no checkpointing involved.
    let reference = at_threads(1, || study.run().unwrap());
    // Checkpoint at 2 threads, then resume the same directory at 4: every
    // stage loads from disk and the stitched report must match the clean
    // single-threaded run bit for bit.
    let first = at_threads(2, || study.run_checkpointed(&dir).unwrap());
    assert_eq!(canonical(first), canonical(reference.clone()));
    let resumed = at_threads(4, || study.run_checkpointed(&dir).unwrap());
    assert!(!resumed.resilience.resumed_stages.is_empty(), "second run must resume from disk");
    assert_eq!(canonical(resumed), canonical(reference));

    let _ = std::fs::remove_dir_all(&dir);
}
