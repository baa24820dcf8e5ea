//! End-to-end guarantees of the label-efficient training subsystem:
//!
//! - the active-learning curve is **bit-identical** at 1, 2, and 4 threads;
//! - a run crashed mid-loop **resumes bit-identically** from its round
//!   checkpoints (and a checkpoint dir refuses a different config);
//! - query-by-committee reaches the random baseline's final F1 with at most
//!   [`AL_TARGET_FRACTION`] of the random arm's label budget — the PR's
//!   acceptance bound;
//! - weak supervision trains a working matcher with **zero** oracle labels.

use em_core::blocking_plan::{run_blocking, BlockingPlan};
use em_core::preprocess::{project_umetrics, project_usda};
use em_core::CoreError;
use em_datagen::{
    FlakyConfig, FlakyOracle, GroundTruth, Oracle, OracleConfig, Scenario, ScenarioConfig,
};
use em_label::{
    run_active, run_weak, ActiveConfig, ActiveOutcome, Strategy, WeakConfig, AL_TARGET_FRACTION,
};
use em_table::Table;

/// Tests that flip the global `em_parallel` thread override must not run
/// concurrently with each other.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The generator's default scenario seed.
const SCENARIO_SEED: u64 = 20190326;

/// (scenario seed, experiment seed) pairs the two acceptance bounds hold at:
/// the default scenario under experiment seed 7, and both seeds `reproduce
/// --active --weak --seed <7|20190326>` runs (one seed for both there).
const ACCEPTANCE_SEEDS: [(u64, u64); 3] =
    [(SCENARIO_SEED, 7), (7, 7), (SCENARIO_SEED, SCENARIO_SEED)];

struct Fixture {
    u: Table,
    s: Table,
    truth: GroundTruth,
    candidates: em_blocking::CandidateSet,
}

/// The label-efficiency pool: a quarter-scale scenario blocked with a
/// deliberately *loose* plan (overlap-1 at K=2, coefficient 0.5), so the
/// candidate set is realistically imbalanced (~10% positives). On the
/// workflow's consolidated set random sampling is nearly as good as
/// querying by committee — the whole point of active learning is pools
/// where most candidates are easy negatives.
fn fixture(scenario_seed: u64) -> Fixture {
    let scenario =
        Scenario::generate(ScenarioConfig::scaled(0.25).with_seed(scenario_seed)).unwrap();
    let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
    let s = project_usda(&scenario.usda, false).unwrap();
    let plan = BlockingPlan { overlap_k: 2, oc_threshold: 0.5 };
    let candidates = run_blocking(&u, &s, &plan).unwrap().consolidated;
    Fixture { u, s, truth: scenario.truth, candidates }
}

fn flaky(truth: &GroundTruth) -> FlakyOracle<'_> {
    FlakyOracle::new(
        Oracle::new(truth, OracleConfig::default()),
        FlakyConfig { p_unavailable: 0.2, p_timeout: 0.1, ..Default::default() },
    )
}

fn run(f: &Fixture, cfg: &ActiveConfig, dir: Option<&std::path::Path>) -> ActiveOutcome {
    let oracle = flaky(&f.truth);
    run_active(&f.u, &f.s, &f.candidates, &oracle, &f.truth, cfg, dir).unwrap()
}

fn assert_curves_bit_identical(a: &ActiveOutcome, b: &ActiveOutcome, what: &str) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{what}: round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.f1.to_bits(), y.f1.to_bits(), "{what}: f1 differs at round {}", x.round);
        assert_eq!(
            x.precision.lo.to_bits(),
            y.precision.lo.to_bits(),
            "{what}: precision.lo differs at round {}",
            x.round
        );
        assert_eq!(
            x.recall.hi.to_bits(),
            y.recall.hi.to_bits(),
            "{what}: recall.hi differs at round {}",
            x.round
        );
        assert_eq!(x, y, "{what}: curve row differs at round {}", x.round);
    }
    assert_eq!(a.labeled.len(), b.labeled.len(), "{what}: labeled-set size");
    for lp in a.labeled.iter() {
        assert_eq!(b.labeled.get(&lp.pair), Some(lp.label), "{what}: label for {:?}", lp.pair);
    }
    assert_eq!(a.ledger, b.ledger, "{what}: ledger");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("em-label-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn active_curve_is_thread_invariant() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = fixture(SCENARIO_SEED);
    let cfg = ActiveConfig::new(Strategy::Committee, 7);
    em_parallel::set_threads(1);
    let o1 = run(&f, &cfg, None);
    em_parallel::set_threads(2);
    let o2 = run(&f, &cfg, None);
    em_parallel::set_threads(4);
    let o4 = run(&f, &cfg, None);
    em_parallel::set_threads(0);
    assert_curves_bit_identical(&o1, &o2, "1 vs 2 threads");
    assert_curves_bit_identical(&o1, &o4, "1 vs 4 threads");
    assert!(o1.final_f1() > 0.5, "committee arm should learn something: {}", o1.final_f1());
    assert_eq!(o1.resumed_rounds, 0);
}

#[test]
fn crashed_run_resumes_bit_identically() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    em_parallel::set_threads(2);
    let f = fixture(SCENARIO_SEED);
    let baseline = run(&f, &ActiveConfig::new(Strategy::Committee, 7), None);

    let dir = temp_dir("resume");
    let mut crashing = ActiveConfig::new(Strategy::Committee, 7);
    crashing.crash_after_round = Some(2);
    let oracle = flaky(&f.truth);
    let err = run_active(&f.u, &f.s, &f.candidates, &oracle, &f.truth, &crashing, Some(&dir))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::InjectedCrash(_)),
        "crash hook must surface as InjectedCrash, got {err:?}"
    );

    // Resume with the hook cleared: rounds 0..=2 load from checkpoint, the
    // rest recompute — and the whole curve equals the uninterrupted run's.
    let resumed = run(&f, &ActiveConfig::new(Strategy::Committee, 7), Some(&dir));
    em_parallel::set_threads(0);
    assert_eq!(resumed.resumed_rounds, 3, "rounds 0, 1, 2 must come from checkpoints");
    assert_curves_bit_identical(&baseline, &resumed, "crash-resume vs uninterrupted");

    // The same dir refuses a different experiment outright.
    let other = ActiveConfig::new(Strategy::Random, 7);
    let oracle = flaky(&f.truth);
    let err = run_active(&f.u, &f.s, &f.candidates, &oracle, &f.truth, &other, Some(&dir))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Checkpoint(ref m) if m.contains("different active-learning configuration")),
        "config guard must refuse a mismatched fingerprint, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committee_halves_the_label_budget() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    em_parallel::set_threads(2);
    for (scenario_seed, seed) in ACCEPTANCE_SEEDS {
        let f = fixture(scenario_seed);
        let random = run(&f, &ActiveConfig::new(Strategy::Random, seed), None);
        let active = run(&f, &ActiveConfig::new(Strategy::Committee, seed), None);

        let target = random.final_f1();
        assert!(target > 0.5, "seed {seed}: random baseline should learn something: {target}");
        let random_spent = random.rounds.last().map_or(0, |r| r.distinct);
        let al_spent = active
            .labels_to_reach(target)
            .expect("active arm never reached the random baseline's final F1");
        assert!(
            (al_spent as f64) <= AL_TARGET_FRACTION * random_spent as f64,
            "seed {seed}: active learning spent {al_spent} labels to reach F1 {target:.3}; \
             the bound is {AL_TARGET_FRACTION} x {random_spent}"
        );
    }
    em_parallel::set_threads(0);
}

#[test]
fn weak_supervision_needs_zero_oracle_labels() {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (scenario_seed, seed) in ACCEPTANCE_SEEDS {
        let f = fixture(scenario_seed);
        let cfg = WeakConfig::standard(seed);
        em_parallel::set_threads(1);
        let w1 = run_weak(&f.u, &f.s, &f.candidates, &f.truth, &cfg).unwrap();
        em_parallel::set_threads(4);
        let w4 = run_weak(&f.u, &f.s, &f.candidates, &f.truth, &cfg).unwrap();
        em_parallel::set_threads(0);

        assert_eq!(w1.oracle_labels, 0, "seed {seed}: weak supervision must not touch the oracle");
        assert_eq!(w1.f1.to_bits(), w4.f1.to_bits(), "seed {seed}: weak F1 depends on threads");
        assert_eq!(w1, w4, "seed {seed}: weak outcome depends on thread count");
        assert!(w1.coverage > 0.5, "LF set should cover most candidates: {}", w1.coverage);
        assert!(w1.kept > 0, "seed {seed}: posterior band kept no training rows");
        assert!(
            w1.f1 > 0.6,
            "seed {seed}: zero-label matcher should still be useful: f1={} (majority {}, label model {})",
            w1.f1,
            w1.f1_majority,
            w1.f1_label_model
        );
        assert!(
            w1.f1_label_model >= w1.f1_majority - 0.05,
            "seed {seed}: the generative model should not fall far behind majority vote: {} vs {}",
            w1.f1_label_model,
            w1.f1_majority
        );
    }
}
