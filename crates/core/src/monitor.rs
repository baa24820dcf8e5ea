//! Production accuracy monitoring — the Section 12 challenge the teams were
//! "currently working on": "the new data may be dirty, so we need to
//! monitor the accuracy of the match results. This is typically done by
//! taking a random sample of the predicted matches at regular intervals,
//! manually labeling it, then using the labeled sample to estimate the
//! accuracy" (footnote 11, citing the Chimera production monitor).
//!
//! [`AccuracyMonitor`] wraps a deployed workflow: for each new data slice
//! it runs the workflow, samples the *predicted matches*, obtains expert
//! labels (the oracle stands in for the production labeling rota), and
//! estimates precision with a confidence interval. When the interval's
//! upper bound falls below the configured floor, the slice is flagged for
//! a return "to the development stage".

use crate::blocking_plan::BlockingPlan;
use crate::error::CoreError;
use crate::labeling::{label_round, LabeledSet};
use crate::matcher::TrainedMatcher;
use crate::resilience::{ResilienceReport, RetryPolicy};
use crate::workflow::EmWorkflow;
use em_blocking::Pair;
use em_datagen::{LabelSource, Oracle};
use em_estimate::{estimate_accuracy, AccuracyEstimate, SampleItem, Z95};
use em_rules::RuleSet;
use em_table::{csv, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Predicted matches sampled per slice.
    pub sample_size: usize,
    /// Alert when the precision interval's *upper* bound drops below this.
    pub precision_floor: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Quarantine-ingest abort threshold for [`AccuracyMonitor::check_slice_csv`]:
    /// a slice file whose malformed-row fraction exceeds this is rejected
    /// rather than monitored. Production slices are expected to be mostly
    /// clean, so the default is stricter than the pipeline's.
    pub max_quarantine_fraction: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sample_size: 100,
            precision_floor: 0.9,
            seed: 13,
            max_quarantine_fraction: 0.2,
        }
    }
}

/// One slice's health report.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Slice label (e.g. the data-file year or university).
    pub slice: String,
    /// Matches the workflow produced on the slice.
    pub n_matches: usize,
    /// Matches sampled and labeled.
    pub n_sampled: usize,
    /// The precision estimate from the labeled sample.
    pub estimate: AccuracyEstimate,
    /// True when the slice breaches the precision floor.
    pub alert: bool,
    /// Faults absorbed while monitoring this slice: labeling-rota faults,
    /// retries, degraded labels, and quarantined ingest rows.
    pub resilience: ResilienceReport,
}

/// A deployed workflow plus monitoring policy.
pub struct AccuracyMonitor<'m> {
    /// The packaged rules.
    pub rules: RuleSet,
    /// The packaged blocking plan.
    pub plan: BlockingPlan,
    /// The trained matcher being monitored.
    pub matcher: &'m TrainedMatcher,
    /// Whether negative rules are applied (the deployed configuration).
    pub apply_negative: bool,
    /// Monitoring policy.
    pub config: MonitorConfig,
}

impl<'m> AccuracyMonitor<'m> {
    /// Runs the deployed workflow on one new slice and estimates precision
    /// from a labeled sample of its predicted matches (reliable rota:
    /// labeling never faults).
    pub fn check_slice(
        &self,
        slice_name: &str,
        umetrics: &Table,
        usda: &Table,
        oracle: &Oracle<'_>,
    ) -> Result<SliceReport, CoreError> {
        self.check_slice_source(slice_name, umetrics, usda, oracle, &RetryPolicy::none())
    }

    /// [`AccuracyMonitor::check_slice`] against a fallible labeling rota:
    /// each labeling call is retried per `retry` (backoff recorded in
    /// virtual milliseconds) and degrades to `Unsure` when retries run out.
    /// Degraded labels land in the estimate's `n_unsure` — the monitor
    /// keeps producing intervals from whatever labels it could get.
    pub fn check_slice_source(
        &self,
        slice_name: &str,
        umetrics: &Table,
        usda: &Table,
        source: &dyn LabelSource,
        retry: &RetryPolicy,
    ) -> Result<SliceReport, CoreError> {
        let wf = EmWorkflow {
            rules: self.rules.clone(),
            plan: self.plan,
            matcher: self.matcher,
            apply_negative: self.apply_negative,
        };
        let result = wf.run(umetrics, usda)?;
        let mut matches: Vec<Pair> = result.matches.to_vec();
        let n_matches = matches.len();

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        matches.shuffle(&mut rng);
        matches.truncate(self.config.sample_size);

        let mut resilience = ResilienceReport::default();
        let mut labeled = LabeledSet::new();
        label_round(umetrics, usda, source, retry, &matches, false, &mut labeled, &mut resilience)?;
        let sample: Vec<SampleItem> =
            labeled.iter().map(|lp| SampleItem { predicted: true, label: lp.label }).collect();
        let estimate = estimate_accuracy(&sample, Z95);
        // With every sampled pair predicted, the precision interval is the
        // fraction labeled Yes; an empty sample stays vacuous (no alert).
        let alert = !sample.is_empty() && estimate.precision.hi < self.config.precision_floor;
        Ok(SliceReport {
            slice: slice_name.to_string(),
            n_matches,
            n_sampled: sample.len(),
            estimate,
            alert,
            resilience,
        })
    }

    /// Monitors a slice delivered as raw CSV text (the production path:
    /// "the new data may be dirty"). Both files go through quarantine
    /// ingest — malformed rows are diverted and counted in the report's
    /// resilience ledger rather than failing the slice, unless they exceed
    /// `config.max_quarantine_fraction`.
    pub fn check_slice_csv(
        &self,
        slice_name: &str,
        umetrics_csv: &str,
        usda_csv: &str,
        source: &dyn LabelSource,
        retry: &RetryPolicy,
    ) -> Result<SliceReport, CoreError> {
        let u_out = csv::read_quarantine(
            "UMETRICSProjected",
            umetrics_csv,
            self.config.max_quarantine_fraction,
        )?;
        let s_out = csv::read_quarantine(
            "USDAProjected",
            usda_csv,
            self.config.max_quarantine_fraction,
        )?;
        let mut report =
            self.check_slice_source(slice_name, &u_out.table, &s_out.table, source, retry)?;
        report.resilience.quarantined_rows += u_out.quarantined.len() + s_out.quarantined.len();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking_plan::run_blocking;
    use crate::labeling::run_labeling;
    use crate::matcher::{build_training_data, select_matcher, train_matcher};
    use crate::pipeline::standard_rules;
    use crate::preprocess::{project_umetrics, project_usda};
    use crate::spec::WorkflowSpec;
    use em_datagen::{FlakyConfig, FlakyOracle, OracleConfig, Scenario, ScenarioConfig};
    use em_features::auto_features;

    fn trained_matcher(
        scenario: &Scenario,
        u: &Table,
        s: &Table,
    ) -> TrainedMatcher {
        let candidates = run_blocking(u, s, &BlockingPlan::default()).unwrap().consolidated;
        let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
        let (labeled, _) = run_labeling(u, s, &candidates, &oracle, &[100, 100], 5).unwrap();
        let spec = WorkflowSpec::umetrics_usda();
        let stage = spec.matcher_stage(1);
        let features = auto_features(u, s, &stage.feature_opts);
        let (data, imputer) =
            build_training_data(u, s, &features, &labeled, &spec.rules()).unwrap();
        let ranking = select_matcher(&data, &stage).unwrap();
        train_matcher(features, imputer, &data, &ranking[0].learner, &stage).unwrap()
    }

    #[test]
    fn healthy_slice_passes_dirty_slice_alerts() {
        // Train on one slice.
        let train_scenario = Scenario::generate(ScenarioConfig::small().with_seed(31)).unwrap();
        let u = project_umetrics(&train_scenario.award_agg, &train_scenario.employees).unwrap();
        let s = project_usda(&train_scenario.usda, true).unwrap();
        let matcher = trained_matcher(&train_scenario, &u, &s);
        let monitor = AccuracyMonitor {
            rules: standard_rules(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: true,
            config: MonitorConfig { precision_floor: 0.8, ..Default::default() },
        };

        // A fresh healthy slice: same generator, new seed.
        let healthy = Scenario::generate(ScenarioConfig::small().with_seed(32)).unwrap();
        let hu = project_umetrics(&healthy.award_agg, &healthy.employees).unwrap();
        let hs = project_usda(&healthy.usda, true).unwrap();
        let healthy_oracle = Oracle::new(&healthy.truth, OracleConfig::default());
        let report = monitor.check_slice("2016", &hu, &hs, &healthy_oracle).unwrap();
        assert!(report.n_matches > 0);
        assert!(!report.alert, "healthy slice flagged: {report:?}");
        assert!(report.estimate.precision.hi >= 0.8);

        // A degraded slice: sibling/garble rates cranked up so titles lie.
        let mut dirty_cfg = ScenarioConfig::small().with_seed(33);
        dirty_cfg.p_sibling_title = 0.85;
        dirty_cfg.p_project_number_present = 0.0; // negative rules blinded
        dirty_cfg.p_federal_award_present = 0.0; // and sure rules too
        dirty_cfg.frac_federal = 0.0;
        let dirty = Scenario::generate(dirty_cfg).unwrap();
        let du = project_umetrics(&dirty.award_agg, &dirty.employees).unwrap();
        let ds = project_usda(&dirty.usda, true).unwrap();
        let dirty_oracle = Oracle::new(&dirty.truth, OracleConfig::default());
        let dirty_report = monitor.check_slice("2017-dirty", &du, &ds, &dirty_oracle).unwrap();
        assert!(
            dirty_report.estimate.precision.mid() < report.estimate.precision.mid(),
            "dirty slice should estimate lower precision ({:?} vs {:?})",
            dirty_report.estimate.precision,
            report.estimate.precision
        );
    }

    #[test]
    fn empty_slice_does_not_alert() {
        let scenario = Scenario::generate(ScenarioConfig::small().with_seed(41)).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let s = project_usda(&scenario.usda, true).unwrap();
        let matcher = trained_matcher(&scenario, &u, &s);
        let monitor = AccuracyMonitor {
            rules: standard_rules(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: true,
            config: MonitorConfig::default(),
        };
        // Slice with no rows → no matches → vacuous estimate, no alert.
        let empty_u = Table::new("u", u.schema().clone());
        let empty_s = Table::new("s", s.schema().clone());
        let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
        let r = monitor.check_slice("empty", &empty_u, &empty_s, &oracle).unwrap();
        assert_eq!(r.n_matches, 0);
        assert!(!r.alert);
        assert!(r.resilience.is_clean());
    }

    #[test]
    fn flaky_rota_and_dirty_csv_slices_stay_monitorable() {
        let scenario = Scenario::generate(ScenarioConfig::small().with_seed(31)).unwrap();
        let u = project_umetrics(&scenario.award_agg, &scenario.employees).unwrap();
        let s = project_usda(&scenario.usda, true).unwrap();
        let matcher = trained_matcher(&scenario, &u, &s);
        let monitor = AccuracyMonitor {
            rules: standard_rules(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: true,
            config: MonitorConfig::default(),
        };
        let oracle = Oracle::new(&scenario.truth, OracleConfig::default());
        let clean = monitor.check_slice("2018", &u, &s, &oracle).unwrap();
        assert!(clean.resilience.is_clean());

        // A flaky labeling rota with enough retries reproduces the clean
        // numbers exactly, plus a fault ledger.
        let flaky = FlakyOracle::new(
            Oracle::new(&scenario.truth, OracleConfig::default()),
            FlakyConfig { p_unavailable: 0.2, p_timeout: 0.05, ..FlakyConfig::default() },
        );
        let shaky = monitor
            .check_slice_source("2018", &u, &s, &flaky, &RetryPolicy::default())
            .unwrap();
        assert!(shaky.resilience.oracle_faults > 0, "rates this high must fault somewhere");
        assert!(shaky.resilience.total_backoff_ms > 0, "retries must record backoff");
        assert_eq!(shaky.resilience.degraded_labels, 0, "retry budget should absorb all");
        assert_eq!(shaky.estimate, clean.estimate, "absorbed faults must not move the estimate");
        assert_eq!(shaky.alert, clean.alert);

        // The same slice as dirty CSV text: corrupt USDA rows quarantine,
        // and the slice still gets monitored.
        let u_csv = csv::write_str(&u);
        let s_csv = crate::resilience::corrupt_csv(&csv::write_str(&s), 7, 0.05);
        let dirty = monitor
            .check_slice_csv("2018-dirty", &u_csv, &s_csv, &oracle, &RetryPolicy::none())
            .unwrap();
        assert!(dirty.resilience.quarantined_rows > 0);
        assert!(dirty.n_matches > 0);

        // Too dirty, and the slice is rejected outright.
        let strict = AccuracyMonitor {
            config: MonitorConfig { max_quarantine_fraction: 0.0, ..MonitorConfig::default() },
            rules: standard_rules(),
            plan: BlockingPlan::default(),
            matcher: &matcher,
            apply_negative: true,
        };
        assert!(matches!(
            strict.check_slice_csv("2018-dirty", &u_csv, &s_csv, &oracle, &RetryPolicy::none()),
            Err(CoreError::Table(em_table::TableError::QuarantineOverflow { .. }))
        ));
    }
}
