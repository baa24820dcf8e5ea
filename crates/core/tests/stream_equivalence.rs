//! The fused streaming executor is the materialized workflow, bit for bit:
//! same counts, same per-pair probabilities (`f64::to_bits` equality),
//! same final match list — and all of it thread-invariant, checksum
//! included. And it computes no feature the model does not read for the
//! pair: what the scorer pulled is exactly the distinct split features on
//! the traversed paths.

use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_core::labeling::run_labeling;
use em_core::matcher::{build_training_data, train_matcher, MatcherStage, TrainedMatcher};
use em_core::pipeline::standard_rule_descs;
use em_core::preprocess::{project_umetrics, project_usda};
use em_core::stream::StreamMatcher;
use em_core::workflow::EmWorkflow;
use em_datagen::{Oracle, OracleConfig, Scenario, ScenarioConfig};
use em_features::{auto_features, extract_vectors};
use em_table::Table;
use std::collections::BTreeSet;

/// Tests that flip the global `em_parallel` thread override must not run
/// concurrently with each other.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Small-scenario tables plus a matcher trained with the named learner
/// (forced, not CV-selected, so both the masked tree/forest path and the
/// dense-model path get exercised deterministically).
fn fixture(learner: &str) -> (Table, Table, TrainedMatcher) {
    let scenario = Scenario::generate(ScenarioConfig::small().with_seed(5)).unwrap();
    let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
    let s = project_usda(&scenario.usda, true).unwrap();
    let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
    let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
    let (labeled, _) = run_labeling(&u, &s, &candidates, &oracle, &[100, 100], 5).unwrap();
    let stage = MatcherStage::new(1).with_case_insensitive();
    let features = auto_features(&u, &s, &stage.feature_opts);
    let rules = standard_rule_descs().build();
    let (data, imputer) = build_training_data(&u, &s, &features, &labeled, &rules).unwrap();
    let matcher = train_matcher(features, imputer, &data, learner, &stage).unwrap();
    (u, s, matcher)
}

#[test]
fn fused_stream_matches_materialized_workflow_bitwise() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Decision Tree and Random Forest exercise the masked extraction + the
    // flattened walk that pulls from it; Logistic Regression exercises the
    // dense (full-mask, pull-everything) path.
    for learner in ["Decision Tree", "Random Forest", "Logistic Regression"] {
        let (u, s, matcher) = fixture(learner);
        let descs = standard_rule_descs();
        let plan = BlockingPlan::default();
        let wf = EmWorkflow {
            rules: descs.build(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: true,
        };
        let r = wf.run(&u, &s).unwrap();
        let probs = matcher.probabilities(&u, &s, &r.candidates).unwrap();

        let sm = StreamMatcher::new(&u, &s, &matcher, &descs, &plan).unwrap();
        em_parallel::set_threads(1);
        let (o1, scored1, matches1) = sm.run_collecting();
        em_parallel::set_threads(4);
        let (o4, scored4, matches4) = sm.run_collecting();
        em_parallel::set_threads(0);

        // Thread invariance: accounting (checksum included), scores, and
        // matches identical at 1 and 4 threads.
        assert_eq!(o1, o4, "[{learner}] outcome depends on thread count");
        assert_eq!(scored1.len(), scored4.len());
        for (a, b) in scored1.iter().zip(scored4.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "[{learner}] score depends on threads");
        }
        assert_eq!(matches1, matches4);

        // The fixture must be non-trivial for the comparison to mean much.
        assert!(o1.candidates > 0, "[{learner}] no candidates streamed");
        assert!(o1.matched > 0, "[{learner}] no matches streamed");

        // Accounting equals the materialized workflow's set sizes.
        assert_eq!(o1.sure, r.sure.len(), "[{learner}] sure count");
        assert_eq!(o1.candidates, r.candidates.len(), "[{learner}] candidate count");
        assert_eq!(o1.predicted, r.predicted.len(), "[{learner}] predicted count");
        assert_eq!(o1.flipped, r.flipped.len(), "[{learner}] flipped count");
        assert_eq!(o1.matched, r.matches.len(), "[{learner}] match count");
        assert_eq!(
            o1.histogram.iter().sum::<u64>(),
            o1.candidates as u64,
            "[{learner}] histogram does not cover every scored candidate"
        );

        // Per-pair probabilities: same pairs in the same (left, right)
        // order, bit-identical scores.
        assert_eq!(scored1.len(), probs.len(), "[{learner}] scored-pair count");
        for ((sp, sv), (mp, mv)) in scored1.iter().zip(probs.iter()) {
            assert_eq!(sp, mp, "[{learner}] scored pair order");
            assert_eq!(
                sv.to_bits(),
                mv.to_bits(),
                "[{learner}] probability mismatch at {sp:?}: {sv} vs {mv}"
            );
        }

        // The final match list is the workflow's, pair for pair.
        assert_eq!(matches1, r.matches.to_vec(), "[{learner}] match list");

        // Features computed per pair: walk the model over each pair's full,
        // imputed row and note which features the walk asks for. The stream
        // must have computed those and no others — per feature over all
        // pairs, and pair by pair in how many.
        let pairs: Vec<_> = scored1.iter().map(|(p, _)| *p).collect();
        let mut rows = extract_vectors(&matcher.features, &u, &s, &pairs).unwrap();
        matcher.imputer.transform(&mut rows);
        let nf = matcher.features.len();
        let scorer = matcher.model.block_scorer();
        let (mut pulls, mut by_pulled) = (vec![0u64; nf], vec![0u64; nf + 1]);
        for (row, (_, p)) in rows.iter().zip(&scored1) {
            let mut read = BTreeSet::new();
            let walked = scorer.score_with(&mut vec![0.0; nf], |k| {
                read.insert(k);
                row[k]
            });
            assert_eq!(walked.to_bits(), p.to_bits());
            for &k in &read {
                pulls[k] += 1;
            }
            by_pulled[read.len()] += 1;
        }
        let (o, counts) = sm.run_profiled();
        assert_eq!(o, o1, "[{learner}] profiled outcome");
        assert_eq!(counts.pulls, pulls, "[{learner}] pairs computing each feature");
        assert_eq!(counts.by_pulled, by_pulled, "[{learner}] features computed per pair");
        let can_read = matcher.model.referenced_features().map_or(nf, |live| live.len());
        assert_eq!(sm.mask().n_live(), can_read, "[{learner}] mask is what the model can read");
        assert!(by_pulled[can_read + 1..].iter().all(|&n| n == 0));
    }
}
