//! The fused stream — the one batch executor, under `EmWorkflow::run` and
//! as the accounting-only `StreamMatcher::run` — is the materialized chain
//! of stage functions, bit for bit: same sets, same per-pair probabilities
//! (`f64::to_bits` equality), same order, at any thread count, with the
//! negative rules applied or not. And it computes no feature the model does
//! not read for the pair: what the scorer pulled is exactly the distinct
//! split features on the traversed paths.

mod common;

use common::{assert_run_equals, materialized};
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

/// Small-scenario tables — original, extra (no employee rows), USDA — plus
/// a matcher trained with the named learner (forced, not CV-selected, so
/// both the masked tree/forest path and the dense-model path get exercised
/// deterministically). At this seed the negative rules flip predictions of
/// all three learners, on the original table and on the extra one.
fn fixture(learner: &str) -> (Table, Table, Table, TrainedMatcher) {
    let scenario = Scenario::generate(ScenarioConfig::small().with_seed(1)).unwrap();
    let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
    let no_employees = Table::new("emp", scenario.employees.schema().clone());
    let extra_u = project_umetrics(&scenario.extra_award_agg, &no_employees).unwrap();
    let s = project_usda(&scenario.usda, true).unwrap();
    let candidates = run_blocking(&u, &s, &BlockingPlan::default()).unwrap().consolidated;
    let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
    let (labeled, _) = run_labeling(&u, &s, &candidates, &oracle, &[100, 100], 5).unwrap();
    let stage = MatcherStage::new(1).with_case_insensitive();
    let features = auto_features(&u, &s, &stage.feature_opts);
    let rules = standard_rule_descs().build();
    let (data, imputer) = build_training_data(&u, &s, &features, &labeled, &rules).unwrap();
    let matcher = train_matcher(features, imputer, &data, learner, &stage).unwrap();
    (u, extra_u, s, matcher)
}

#[test]
fn fused_stream_matches_materialized_workflow_bitwise() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Decision Tree and Random Forest exercise the masked extraction + the
    // tree walk that pulls from it; Logistic Regression exercises the
    // dense (full-mask, pull-everything) path.
    for learner in ["Decision Tree", "Random Forest", "Logistic Regression"] {
        let (u, _, s, matcher) = fixture(learner);
        let descs = standard_rule_descs();
        let plan = BlockingPlan::default();

        // `EmWorkflow::run` against the materialized chain.
        let [want, _] = [true, false].map(|apply_negative| {
            let wf = EmWorkflow { rules: descs.build(), plan, matcher: &matcher, apply_negative };
            let want = materialized(&wf, &u, &s);
            // The fixture must be non-trivial for the comparison to mean much.
            assert!(!want.scored.is_empty(), "[{learner}] no candidates");
            assert!(!want.matches.is_empty(), "[{learner}] no matches");
            assert_eq!(want.flipped.is_empty(), !apply_negative, "[{learner}] flips");
            for threads in [1, 4] {
                em_parallel::set_threads(threads);
                let r = wf.run(&u, &s);
                em_parallel::set_threads(0);
                let ctx = format!("{learner}, negative {apply_negative}, {threads} threads");
                assert_run_equals(&r.unwrap(), &want, &ctx);
            }
            want
        });

        // The accounting-only stream against the same chain (negative rules
        // applied), and its own thread invariance, checksum included.
        let sm = StreamMatcher::new(&u, &s, &matcher, &descs, &plan).unwrap();
        em_parallel::set_threads(1);
        let o1 = sm.run();
        em_parallel::set_threads(4);
        let o4 = sm.run();
        em_parallel::set_threads(0);
        assert_eq!(o1, o4, "[{learner}] outcome depends on thread count");
        assert_eq!(o1, sm.run_collecting().0, "[{learner}] collecting changes the accounting");
        assert_eq!(o1.sure, want.sure.len(), "[{learner}] sure count");
        assert_eq!(o1.candidates, want.scored.len(), "[{learner}] candidate count");
        assert_eq!(o1.predicted, want.predicted.len(), "[{learner}] predicted count");
        assert_eq!(o1.flipped, want.flipped.len(), "[{learner}] flipped count");
        assert_eq!(o1.matched, want.matches.len(), "[{learner}] match count");
        assert_eq!(
            o1.histogram.iter().sum::<u64>(),
            o1.candidates as u64,
            "[{learner}] histogram does not cover every scored candidate"
        );

        // Features computed per pair: walk the model over each pair's full,
        // imputed row and note which features the walk asks for. The stream
        // must have computed those and no others — per feature over all
        // pairs, and pair by pair in how many.
        let pairs: Vec<_> = want.scored.iter().map(|(p, _)| *p).collect();
        let mut rows = extract_vectors(&matcher.features, &u, &s, &pairs).unwrap();
        matcher.imputer.transform(&mut rows);
        let nf = matcher.features.len();
        let scorer = matcher.model.block_scorer();
        let (mut pulls, mut by_pulled) = (vec![0u64; nf], vec![0u64; nf + 1]);
        for (row, (_, p)) in rows.iter().zip(&want.scored) {
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

/// What `CaseStudy` relies on to read Figures 9 and 10 off one run each of
/// the original and the patch: without the negative rules a run's matches
/// are `sure ∪ predicted` of the run that applies them, and `flipped` is
/// what that run took out.
#[test]
fn unapplied_run_is_sure_plus_predicted_of_the_applied_run() {
    let (u, extra_u, s, matcher) = fixture("Decision Tree");
    let wf = |apply_negative| EmWorkflow {
        rules: standard_rule_descs().build(),
        plan: BlockingPlan::default(),
        matcher: &matcher,
        apply_negative,
    };
    for left in [&u, &extra_u] {
        let unapplied = wf(false).run(left, &s).unwrap();
        let applied = wf(true).run(left, &s).unwrap();
        assert!(!applied.flipped.is_empty(), "{}: nothing flipped", left.name());
        assert!(unapplied.flipped.is_empty());
        assert_eq!(unapplied.predicted.to_vec(), applied.predicted.to_vec());
        assert_eq!(unapplied.matches.to_vec(), applied.sure.union(&applied.predicted).to_vec());
        assert_eq!(applied.flipped.to_vec(), applied.predicted.minus(&applied.matches).to_vec());
    }
}
