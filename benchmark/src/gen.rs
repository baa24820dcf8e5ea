//! Inputs: generated tables and the frozen workflow that runs over them.
//!
//! `--seed` generates every table a workload reads and every arrival
//! schedule. The frozen workflow of the streaming and serving workloads (the
//! trained matcher, its feature plan and rules) is part of the system under
//! test, not of its input, so it is trained at the fixed [`TRAIN_SEED`]:
//! which learner cross-validation selects changes the cost of a candidate
//! pair by more than 2x, and a benchmark whose artifact under test changed
//! with the seed would compare different programs.

use em_core::pipeline::{CaseStudy, CaseStudyConfig, ServingArtifacts};
use em_core::preprocess::{project_umetrics, project_usda};
use em_datagen::{Scenario, ScenarioConfig};
use em_table::Table;

/// Seed of the scenario the frozen workflows are trained on (the default
/// seed of the repository's own reproduction runs).
pub const TRAIN_SEED: u64 = 20190326;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Projected tables of one generated scenario.
pub struct Tables {
    /// Projected initial UMETRICS table (the batch left side).
    pub umetrics: Table,
    /// Projected extra award records (the later arrivals).
    pub extra: Table,
    /// Projected USDA table (the right side, the serve corpus).
    pub usda: Table,
    pub scenario: Scenario,
}

/// Scenario at `factor` times the paper's row counts. With `cap_aux` the
/// auxiliary tables (employees, vendors, sub-awards, object codes) stay at
/// paper size, as `reproduce --scaling-match` does: they never feed the
/// matcher's columns, so generation stays proportional to what matching reads.
pub fn scenario_config(factor: f64, seed: u64, cap_aux: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::scaled(factor).with_seed(seed);
    if cap_aux {
        let paper = ScenarioConfig::paper();
        cfg.n_employees = paper.n_employees;
        cfg.n_vendors = paper.n_vendors;
        cfg.n_subawards = paper.n_subawards;
        cfg.n_object_codes = paper.n_object_codes;
    }
    cfg
}

pub fn tables(factor: f64, seed: u64, cap_aux: bool) -> Res<Tables> {
    let scenario = Scenario::generate(scenario_config(factor, seed, cap_aux))?;
    let umetrics = project_umetrics(&scenario.award_agg, &scenario.employees)?;
    let no_employees = Table::new("emp", scenario.employees.schema().clone());
    let extra = project_umetrics(&scenario.extra_award_agg, &no_employees)?;
    let usda = project_usda(&scenario.usda, true)?;
    Ok(Tables {
        umetrics,
        extra,
        usda,
        scenario,
    })
}

/// The frozen workflow the streaming executor runs: trained once at x1 with
/// the small label budget, as `reproduce --scaling-match` trains it.
pub fn train_stream_workflow() -> Res<ServingArtifacts> {
    let mut cfg = CaseStudyConfig::small();
    cfg.scenario = ScenarioConfig::scaled(1.0).with_seed(TRAIN_SEED);
    Ok(CaseStudy::new(cfg).train_serving_artifacts()?)
}

/// The frozen workflow the serve tier runs: trained at `factor` with the
/// paper's label budget.
pub fn train_serve_workflow(factor: f64) -> Res<ServingArtifacts> {
    let mut cfg = CaseStudyConfig::paper();
    cfg.scenario = ScenarioConfig::scaled(factor).with_seed(TRAIN_SEED);
    Ok(CaseStudy::new(cfg).train_serving_artifacts()?)
}

/// Every projected UMETRICS row followed by the extra records: the arrivals
/// the serve workloads replay.
pub fn arrivals(t: &Tables) -> Res<Table> {
    let mut all = t.umetrics.clone();
    all.set_name("arrivals");
    for row in t.extra.rows() {
        all.push_row(row.clone())?;
    }
    Ok(all)
}

/// FNV-1a over the `(award, accession)` ids of a match list, in key order;
/// start from [`em_blocking::FNV_OFFSET`].
pub fn fnv_ids(mut h: u64, ids: &em_core::MatchIds) -> u64 {
    for (award, accession) in ids.iter() {
        for b in award
            .bytes()
            .chain([0u8])
            .chain(accession.bytes())
            .chain([1u8])
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
