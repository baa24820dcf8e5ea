//! Pins the fused streaming executor's x4 corpus-scale run: the exact
//! accounting `reproduce --scaling-match 4` prints (candidates,
//! predicted, flipped, matched, and the chunk-chained FNV checksum),
//! thread-invariant at 1 and 4 threads — and `EmWorkflow::run` on the same
//! corpus bit-identical to the materialized blocking → extract → predict
//! chain em-core's equivalence test composes from stage functions. The
//! setup mirrors `scaling_match_sweep` in `src/bin/reproduce.rs`: the
//! workflow trains once at x1 (uncapped), then streams over the x4 scenario
//! with auxiliary tables capped at paper size.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use em_core::pipeline::{CaseStudy, CaseStudyConfig};
use em_core::stream::StreamMatcher;
use em_core::EmWorkflow;
use em_datagen::ScenarioConfig;

/// The default scenario seed (`reproduce --seed 20190326`).
const SEED: u64 = 20190326;

/// Tests that flip the global `em_parallel` thread override must not run
/// concurrently with each other.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn x4_stream_is_pinned_and_matches_materialized_workflow() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Frozen x1 workflow — exactly the artifact `--scaling-match` trains.
    let mut cs_cfg = CaseStudyConfig::small();
    cs_cfg.scenario = ScenarioConfig::scaled(1.0).with_seed(SEED);
    let artifacts = CaseStudy::new(cs_cfg).train_serving_artifacts().unwrap();

    // x4 corpus with auxiliary tables capped at paper size, as in the
    // blocking scaling sweep: employees / vendors / sub-awards / object
    // codes never feed the matcher's columns.
    let fx = em_bench::scaled_fixtures(4.0, SEED);
    let (u, d) = (fx.umetrics, fx.usda);

    let sm = StreamMatcher::new(&u, &d, &artifacts.matcher, &artifacts.rule_descs, &artifacts.plan)
        .unwrap();
    em_parallel::set_threads(1);
    let o1 = sm.run();
    em_parallel::set_threads(4);
    let o4 = sm.run();
    em_parallel::set_threads(0);

    // Thread invariance, checksum included.
    assert_eq!(o1, o4, "x4 outcome depends on thread count");

    // The x4 row of `reproduce --scaling-match`, pinned value for value.
    // A change here is a semantic change to blocking, features,
    // imputation, the model, or the rules — not noise — and
    // EXPERIMENTS.md's rows must be re-run with it.
    assert_eq!(o1.left_rows, 5344, "x4 left rows");
    assert_eq!(o1.right_rows, 7660, "x4 right rows");
    assert_eq!(o1.candidates, 23260, "x4 streamed candidates");
    assert_eq!(o1.predicted, 1815, "x4 predicted matches");
    assert_eq!(o1.flipped, 390, "x4 negative-rule flips");
    assert_eq!(o1.matched, 3909, "x4 final matches");
    assert_eq!(o1.checksum, 0xa59b_62b4_b38e_4195, "x4 match checksum");
    assert_eq!(o1.histogram.iter().sum::<u64>(), o1.candidates as u64);

    // `EmWorkflow::run` against the materialized chain on the same corpus:
    // same sets, same candidate probabilities in the same order.
    let wf = EmWorkflow {
        rules: artifacts.rule_descs.build(),
        plan: artifacts.plan,
        matcher: &artifacts.matcher,
        apply_negative: true,
    };
    let want = common::materialized(&wf, &u, &d);
    assert_eq!(
        (want.scored.len(), want.predicted.len(), want.flipped.len(), want.matches.len()),
        (o1.candidates, o1.predicted, o1.flipped, o1.matched),
        "materialized counts vs the pinned stream row"
    );
    for threads in [1, 4] {
        em_parallel::set_threads(threads);
        let r = wf.run(&u, &d);
        em_parallel::set_threads(0);
        common::assert_run_equals(&r.unwrap(), &want, &format!("x4, {threads} threads"));
    }
}
