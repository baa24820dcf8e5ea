//! Failure injection: every stage surfaces dirty or malformed input as a
//! typed error instead of panicking or silently mis-matching, and the
//! pipeline absorbs injected faults (flaky oracle, corrupted CSV, crashes
//! between stages) without changing its answers.

use proptest::prelude::*;
use umetrics_em::blocking::{Blocker, OverlapBlocker};
use umetrics_em::core::preprocess::{project_umetrics, project_usda};
use umetrics_em::core::{corrupt_csv, CaseStudy, CaseStudyConfig, CoreError, FaultPlan, STAGES};
use umetrics_em::ml::dataset::Dataset;
use umetrics_em::ml::model::Learner;
use umetrics_em::ml::tree::DecisionTreeLearner;
use umetrics_em::table::{csv, Schema, Table, TableError, Value};

#[test]
fn corrupt_csv_is_rejected_with_location() {
    for (input, fragment) in [
        ("a,b\n1\n", "fields"),              // ragged row
        ("a\n\"unterminated\n", "unterminated"), // open quote
        ("a\n\"x\"tail\n", "closing quote"),  // text after quote
        ("", "empty input"),                  // no header
    ] {
        let err = csv::read_str("t", input).unwrap_err();
        match err {
            TableError::Csv { message, .. } => {
                assert!(
                    message.contains(fragment),
                    "{input:?}: message {message:?} missing {fragment:?}"
                )
            }
            other => panic!("{input:?}: expected Csv error, got {other}"),
        }
    }
}

#[test]
fn duplicate_award_keys_abort_preprocessing() {
    let award = csv::read_str(
        "UMETRICSAwardAggMatching",
        "UniqueAwardNumber,AwardTitle,FirstTransDate,LastTransDate\nW1,T,2008-01-01,2009-01-01\nW1,T2,2008-01-01,2009-01-01\n",
    )
    .unwrap();
    let employees = csv::read_str("emp", "UniqueAwardNumber,FullName\nW1,A B\n").unwrap();
    let err = project_umetrics(&award, &employees).unwrap_err();
    assert!(matches!(err, CoreError::Table(TableError::KeyViolation { .. })), "{err}");
}

#[test]
fn dangling_employee_reference_is_caught() {
    let award = csv::read_str(
        "a",
        "UniqueAwardNumber,AwardTitle,FirstTransDate,LastTransDate\nW1,T,2008-01-01,2009-01-01\n",
    )
    .unwrap();
    let employees = csv::read_str("emp", "UniqueAwardNumber,FullName\nW999,A B\n").unwrap();
    assert!(project_umetrics(&award, &employees).is_err());
}

#[test]
fn usda_without_accession_key_fails() {
    let usda = csv::read_str(
        "u",
        "AwardNumber,ProjectTitle,ProjectStartDate,ProjectEndDate,AccessionNumber,ProjectDirector\nX,T,2008-01-01,2009-01-01,1,D\nY,T2,2008-01-01,2009-01-01,1,D\n",
    )
    .unwrap();
    assert!(project_usda(&usda, false).is_err(), "duplicate accession must fail");
}

#[test]
fn blocker_on_missing_column_reports_it() {
    let t = csv::read_str("t", "Title\nabc\n").unwrap();
    let err = OverlapBlocker::new("Nope", "Title", 2).block(&t, &t).unwrap_err();
    assert!(err.to_string().contains("Nope"), "{err}");
}

#[test]
fn learner_rejects_nan_features_and_empty_data() {
    let nan = Dataset::new(vec!["f".into()], vec![vec![f64::NAN]], vec![true]).unwrap();
    assert!(DecisionTreeLearner::default().fit_model(&nan).is_err());
    let empty = Dataset::new(vec!["f".into()], vec![], vec![]).unwrap();
    assert!(DecisionTreeLearner::default().fit_model(&empty).is_err());
}

#[test]
fn table_rejects_type_confusion() {
    use umetrics_em::table::DataType;
    let mut t = Table::new(
        "t",
        Schema::of(&[("n", DataType::Int)]),
    );
    let err = t.push_row(vec![Value::Str("not a number".into())]).unwrap_err();
    assert!(matches!(err, TableError::TypeMismatch { .. }));
}

#[test]
fn all_null_label_columns_still_estimate_vacuously() {
    use umetrics_em::estimate::{estimate_accuracy, Label, SampleItem, Z95};
    // A sample that is entirely Unsure constrains nothing but must not
    // panic or divide by zero.
    let sample: Vec<SampleItem> =
        (0..10).map(|_| SampleItem { predicted: true, label: Label::Unsure }).collect();
    let est = estimate_accuracy(&sample, Z95);
    assert_eq!(est.n_used, 0);
    assert_eq!(est.precision.lo, 0.0);
    assert_eq!(est.precision.hi, 1.0);
}

/// A fault plan that exercises every resilience path at once: a flaky
/// oracle, corrupted USDA CSV rows, and (per test) an injected crash.
fn active_faults() -> FaultPlan {
    FaultPlan {
        seed: 0xBAD5EED,
        p_oracle_unavailable: 0.15,
        p_oracle_timeout: 0.05,
        max_fault_attempts: 4,
        p_corrupt_row: 0.03,
        max_quarantine_fraction: 0.25,
        crash_after: None,
        ..FaultPlan::none()
    }
}

#[test]
fn faulty_runs_are_deterministic() {
    let mut cfg = CaseStudyConfig::small();
    cfg.faults = active_faults();
    let a = CaseStudy::new(cfg.clone()).run().unwrap();
    let b = CaseStudy::new(cfg).run().unwrap();
    assert!(!a.resilience.is_clean(), "the fault plan should actually fire");
    assert!(a.resilience.oracle_faults > 0);
    assert!(a.resilience.quarantined_rows > 0);
    assert_eq!(a, b, "two runs under the same fault plan must agree bit for bit");
}

/// Kill the pipeline after every single stage in turn; resuming from the
/// checkpoint directory must reproduce the uninterrupted report exactly,
/// even with the flaky oracle and CSV corruption active.
#[test]
fn crash_after_any_stage_resumes_to_identical_report() {
    let mut cfg = CaseStudyConfig::small();
    cfg.faults = active_faults();
    let baseline = CaseStudy::new(cfg.clone()).run().unwrap();

    for stage in STAGES {
        let dir = std::env::temp_dir()
            .join(format!("em-crash-{}-{}", stage, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut crashing = cfg.clone();
        crashing.faults.crash_after = Some(stage.to_string());
        let err = CaseStudy::new(crashing).run_checkpointed(&dir).unwrap_err();
        match err {
            CoreError::InjectedCrash(s) => assert_eq!(s, *stage),
            other => panic!("stage {stage}: expected InjectedCrash, got {other}"),
        }

        let mut resumed = CaseStudy::resume(&dir)
            .unwrap_or_else(|e| panic!("resume after {stage} crash failed: {e}"));
        assert!(
            resumed.resilience.resumed_stages.iter().any(|s| s == stage),
            "stage {stage} should have been restored from checkpoint, \
             resumed: {:?}",
            resumed.resilience.resumed_stages
        );
        resumed.resilience.resumed_stages.clear();
        assert_eq!(
            resumed, baseline,
            "crash after {stage} + resume must equal the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// Quarantine ingest conserves rows: however `corrupt_csv` mangles a
    /// table, every data row ends up either accepted or quarantined, and
    /// with corruption off nothing is quarantined at all.
    #[test]
    fn quarantine_conserves_rows(
        rows in proptest::collection::vec(
            proptest::collection::vec(
                proptest::string::string_regex("[a-z ,.]{0,10}").expect("valid regex"),
                2,
            ),
            1..30,
        ),
        seed in any::<u64>(),
        p in 0.0f64..0.6,
    ) {
        let table = Table::from_rows(
            "t",
            Schema::of_strings(&["a", "b"]),
            rows.iter()
                .map(|r| r.iter().map(|s| Value::Str(s.clone())).collect())
                .collect(),
        ).unwrap();
        let clean = csv::write_str(&table);

        let out = csv::read_quarantine("t", &corrupt_csv(&clean, seed, p), 1.0).unwrap();
        prop_assert_eq!(out.total_rows(), table.n_rows());

        let untouched = csv::read_quarantine("t", &corrupt_csv(&clean, seed, 0.0), 1.0).unwrap();
        prop_assert!(untouched.quarantined.is_empty());
        prop_assert_eq!(untouched.table.n_rows(), table.n_rows());
    }
}
