//! # em-bench — the paper-reproduction harness and profiling binaries
//!
//! - `cargo run -p em-bench --bin reproduce [-- --scale paper --section all]`
//!   regenerates every table and figure of the paper (see EXPERIMENTS.md for
//!   the paper-vs-measured record).
//! - `cargo run --release -p em-bench --bin profile_extract [-- <mode>]`
//!   breaks one layer's time down on stderr: the sequence kernels naive vs
//!   engine (no arguments), the fused stream (`--stream`), a served request
//!   (`--serve`) or the training loops (`--train`).
//!
//! End-to-end and per-layer performance is measured and gated by
//! `benchmark/` (`BENCHMARK.json`), not here. This crate exposes the
//! fixtures the binaries and the pinned tests under `tests/` share.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use em_core::preprocess::{project_umetrics, project_usda};
use em_datagen::{Scenario, ScenarioConfig};
use em_table::Table;

/// A prepared pair of projected tables plus the scenario behind them, so
/// each binary and pinned test does not re-derive the fixtures.
pub struct Fixtures {
    /// Projected UMETRICS table.
    pub umetrics: Table,
    /// Projected USDA table (with ProjectNumber).
    pub usda: Table,
    /// The full scenario.
    pub scenario: Scenario,
}

/// Builds fixtures from an explicit scenario config — e.g. one produced by
/// [`ScenarioConfig::scaled`] for `reproduce --scale-factor` runs.
pub fn fixtures_cfg(cfg: ScenarioConfig) -> Fixtures {
    let scenario = Scenario::generate(cfg).expect("valid preset");
    let umetrics = project_umetrics(&scenario.award_agg, &scenario.employees)
        .expect("generated tables are consistent");
    let usda = project_usda(&scenario.usda, true).expect("generated tables are consistent");
    Fixtures { umetrics, usda, scenario }
}

/// The corpus-scale fixtures `reproduce --scaling` / `--scaling-match`,
/// `profile_extract --stream` and the two scale pins under `tests/` share:
/// the scenario at `factor` with the auxiliary tables (employees, vendors,
/// sub-awards, object codes) capped at paper size. Each table draws from its
/// own RNG stream and none of the four feeds a blocking or matching column,
/// so the projected tables are unchanged and generation stays proportional
/// to what a corpus-scale run reads.
pub fn scaled_fixtures(factor: f64, seed: u64) -> Fixtures {
    let mut cfg = ScenarioConfig::scaled(factor).with_seed(seed);
    let paper = ScenarioConfig::paper();
    cfg.n_employees = paper.n_employees;
    cfg.n_vendors = paper.n_vendors;
    cfg.n_subawards = paper.n_subawards;
    cfg.n_object_codes = paper.n_object_codes;
    fixtures_cfg(cfg)
}

/// The labeled training sets of the case study's Sections 8–9 at paper
/// scale: the scenario at `seed`, the default blocking plan, the paper's
/// 100 + 100 + 100 labels drawn with `seed`, `Unsure` labels and M1 sure
/// matches removed, means imputed. The first set carries the case-sensitive
/// features label debugging runs on, the second the case-insensitive
/// variants the final selection runs on. `profile_extract --train` and
/// `tests/training_pinned.rs` share it.
pub fn paper_training_sets(seed: u64) -> (em_ml::Dataset, em_ml::Dataset) {
    use em_core::blocking_plan::{run_blocking, BlockingPlan};
    use em_core::matcher::{build_training_data, MatcherStage};
    let fx = fixtures_cfg(ScenarioConfig::paper().with_seed(seed));
    let (u, s) = (&fx.umetrics, &fx.usda);
    let candidates =
        run_blocking(u, s, &BlockingPlan::default()).expect("default plan blocks").consolidated;
    let oracle = em_datagen::Oracle::new(&fx.scenario.truth, em_datagen::OracleConfig::default());
    let (labeled, _) =
        em_core::labeling::run_labeling(u, s, &candidates, &oracle, &[100, 100, 100], seed)
            .expect("labeling over generated tables");
    let m1 = em_rules::RuleSet {
        positive: vec![em_rules::EqualityRule::suffix_equals("M1", "AwardNumber", "AwardNumber")],
        negative: vec![],
    };
    let set = |stage: MatcherStage| {
        let features = em_features::auto_features(u, s, &stage.feature_opts);
        build_training_data(u, s, &features, &labeled, &m1).expect("labeled pairs are in range").0
    };
    (set(MatcherStage::new(seed)), set(MatcherStage::new(seed).with_case_insensitive()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_at_small_scale() {
        let f = fixtures_cfg(ScenarioConfig::small());
        assert!(f.umetrics.n_rows() > 0);
        assert!(f.usda.schema().contains("ProjectNumber"));
    }
}
