//! The Section 7 blocking plan: three blocking schemes whose union is the
//! consolidated candidate set.
//!
//! 1. **C1** — attribute equivalence on the M1 key: extract the suffix of
//!    the UMETRICS `AwardNumber` into a temporary column, AE-block it
//!    against the USDA `AwardNumber`, drop the temporary column.
//! 2. **C2** — token overlap on `AwardTitle` with threshold `K = 3` (the
//!    paper settled on 3 after sweeping 1 and 7).
//! 3. **C3** — overlap coefficient on `AwardTitle` with threshold 0.7, to
//!    rescue similar titles shorter than `K` tokens.
//!
//! `C = C1 ∪ C2 ∪ C3`, with the footnote-3 accounting preserved.

use crate::error::CoreError;
use em_blocking::{
    join_stats, AttrEquivalenceBlocker, Blocker, CandidateSet, JoinIndex, OverlapBlocker,
    SetSimBlocker,
};
use em_rules::award::award_suffix;
use em_table::{DataType, Table, Value};
use em_text::{TokenCache, TokenCorpus};

/// Parameters of the blocking plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingPlan {
    /// Overlap-blocker threshold (paper: 3).
    pub overlap_k: usize,
    /// Overlap-coefficient threshold (paper: 0.7).
    pub oc_threshold: f64,
}

impl Default for BlockingPlan {
    fn default() -> Self {
        BlockingPlan { overlap_k: 3, oc_threshold: 0.7 }
    }
}

impl BlockingPlan {
    /// The `C2 ∪ C3` union predicate as a single join spec: one postings
    /// walk admits a pair if overlap-`K` *or* the overlap coefficient
    /// passes. The streaming scaling harness counts the title-join
    /// candidates under this spec without materializing either set.
    pub fn union_spec(&self) -> em_blocking::JoinSpec {
        em_blocking::JoinSpec::union(
            self.overlap_k,
            em_blocking::SetMeasure::OverlapCoefficient,
            self.oc_threshold,
        )
    }
}

/// The plan's outputs, with the per-scheme sets kept for the footnote-3
/// accounting.
#[derive(Debug, Clone)]
pub struct BlockingOutcome {
    /// Pairs admitted by the M1 attribute-equivalence scheme.
    pub c1: CandidateSet,
    /// Pairs admitted by the overlap blocker.
    pub c2: CandidateSet,
    /// Pairs admitted by the overlap-coefficient blocker.
    pub c3: CandidateSet,
    /// The consolidated candidate set `C1 ∪ C2 ∪ C3`.
    pub consolidated: CandidateSet,
}

impl BlockingOutcome {
    /// `|C2 ∩ C3|` — the paper reports 1,140.
    pub fn c2_and_c3(&self) -> usize {
        self.c2.intersect(&self.c3).len()
    }
    /// `|C2 − C3|` — the paper reports 1,797.
    pub fn c2_only(&self) -> usize {
        self.c2.minus(&self.c3).len()
    }
    /// `|C3 − C2|` — the paper reports 235.
    pub fn c3_only(&self) -> usize {
        self.c3.minus(&self.c2).len()
    }
}

/// The temporary column used for the C1 scheme (it lives on a copy that is
/// dropped afterwards, as the paper removes it).
const TEMP_COL: &str = "TempAwardNumber";

/// Runs the C1 attribute-equivalence scheme alone: suffix-extract the M1
/// key into a temporary column of a copy of `umetrics` and AE-block it
/// against the USDA `AwardNumber` (pair indices are row indices, so they
/// hold for the borrowed table the copy was made from). Shared by
/// [`run_blocking`] and the streaming scaling harness, which combines it
/// with a [`join`]-engine count of `C2 ∪ C3` instead of materialized
/// candidate sets.
///
/// [`join`]: em_blocking::join
pub fn c1_scheme(umetrics: &Table, usda: &Table) -> Result<CandidateSet, CoreError> {
    let with_temp = umetrics.add_column(TEMP_COL, DataType::Str, |r| {
        r.str("AwardNumber").and_then(award_suffix).map(Value::from).into()
    })?;
    let ae = AttrEquivalenceBlocker::new(TEMP_COL, "AwardNumber");
    let mut c1 = ae.block(&with_temp, usda)?;
    c1.set_name("C1");
    Ok(c1)
}

/// Runs the blocking plan over the projected tables.
pub fn run_blocking(
    umetrics: &Table,
    usda: &Table,
    plan: &BlockingPlan,
) -> Result<BlockingOutcome, CoreError> {
    let c1 = c1_scheme(umetrics, usda)?;

    // C2 and C3 block on the same column, so they share one tokenization
    // pass and one postings index: `block_specs` tokenizes AwardTitle once,
    // builds the join index once, and runs both predicates over it.
    let cache = TokenCache::for_blocking();
    let overlap = OverlapBlocker::new("AwardTitle", "AwardTitle", plan.overlap_k);
    let oc = SetSimBlocker::overlap_coefficient("AwardTitle", "AwardTitle", plan.oc_threshold);
    let mut sets = em_blocking::block_specs(
        &cache,
        umetrics,
        "AwardTitle",
        usda,
        "AwardTitle",
        &[(overlap.join_spec()?, overlap.name()), (oc.join_spec()?, oc.name())],
    )?;
    let mut c3 = sets.pop().ok_or_else(|| CoreError::Pipeline("missing C3".to_string()))?;
    let mut c2 = sets.pop().ok_or_else(|| CoreError::Pipeline("missing C2".to_string()))?;
    c2.set_name("C2");
    c3.set_name("C3");

    let mut consolidated = c1.union(&c2).union(&c3);
    consolidated.set_name("C");
    Ok(BlockingOutcome { c1, c2, c3, consolidated })
}

/// The Section 7 threshold sweep: candidate-set size for each overlap
/// threshold (the paper swept K = 1 → 200K pairs and K = 7 → a few
/// hundred before settling on 3).
pub fn overlap_threshold_sweep(
    umetrics: &Table,
    usda: &Table,
    thresholds: &[usize],
) -> Result<Vec<(usize, usize)>, CoreError> {
    umetrics.schema().require("AwardTitle")?;
    usda.schema().require("AwardTitle")?;
    // The sweep only reports sizes: tokenize and index the column once and
    // count each K's admissions on the streaming join, never materializing
    // a candidate set.
    let cache = TokenCache::for_blocking();
    let titles =
        |t: &Table| TokenCorpus::from_column(&cache, t.iter().map(|r| r.str("AwardTitle")));
    let left = titles(umetrics);
    let index = JoinIndex::build(titles(usda));
    thresholds
        .iter()
        .map(|&k| {
            let spec = OverlapBlocker::new("AwardTitle", "AwardTitle", k).join_spec()?;
            Ok((k, join_stats(&left, &index, &spec, |_, _| false).pairs as usize))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{project_umetrics, project_usda};
    use em_datagen::{Scenario, ScenarioConfig};

    fn projected() -> (Table, Table, Scenario) {
        let s = Scenario::generate(ScenarioConfig::small()).unwrap();
        let u = project_umetrics(&s.award_agg, &s.employees).unwrap();
        let d = project_usda(&s.usda, false).unwrap();
        (u, d, s)
    }

    #[test]
    fn consolidated_is_the_union() {
        let (u, d, _) = projected();
        let out = run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
        assert_eq!(
            out.consolidated.len(),
            out.c1.union(&out.c2).union(&out.c3).len()
        );
        for p in out.c1.iter().chain(out.c2.iter()).chain(out.c3.iter()) {
            assert!(out.consolidated.contains(&p));
        }
    }

    #[test]
    fn c1_pairs_satisfy_m1() {
        let (u, d, _) = projected();
        let out = run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
        assert!(!out.c1.is_empty(), "federal awards must produce M1 pairs");
        for p in out.c1.iter() {
            let suffix = u
                .get(p.left, "AwardNumber")
                .and_then(|v| v.as_str())
                .and_then(award_suffix)
                .unwrap();
            let usda_num = d.get(p.right, "AwardNumber").unwrap().render();
            assert_eq!(suffix, usda_num);
        }
    }

    #[test]
    fn footnote3_structure_holds() {
        // C2 and C3 overlap heavily but neither subsumes the other.
        let (u, d, _) = projected();
        let out = run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
        assert!(out.c2_and_c3() > 0, "C2 ∩ C3 empty");
        assert!(out.c2_only() > 0, "C2 − C3 empty");
        assert!(out.c3_only() > 0, "C3 − C2 empty");
    }

    #[test]
    fn blocking_keeps_most_true_matches() {
        let (u, d, s) = projected();
        let out = run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
        // Build (award, accession) set of the candidate pairs.
        let mut kept = 0usize;
        let mut total = 0usize;
        let pairs: std::collections::HashSet<(String, String)> = out
            .consolidated
            .iter()
            .map(|p| {
                (
                    u.get(p.left, "AwardNumber").unwrap().render(),
                    d.get(p.right, "AccessionNumber").unwrap().render(),
                )
            })
            .collect();
        for (award, acc) in s.truth.iter() {
            if s.truth.is_extra_award(award) {
                continue; // not in the initial batch
            }
            total += 1;
            if pairs.contains(&(award.to_string(), acc.to_string())) {
                kept += 1;
            }
        }
        assert!(total > 0);
        let recall = kept as f64 / total as f64;
        assert!(recall > 0.9, "blocking recall {recall} too low ({kept}/{total})");
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let (u, d, _) = projected();
        let sweep = overlap_threshold_sweep(&u, &d, &[1, 3, 7]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1 >= sweep[1].1);
        assert!(sweep[1].1 >= sweep[2].1);
        assert!(sweep[0].1 > sweep[2].1, "K=1 must admit more than K=7");
    }

    #[test]
    fn sweep_counts_equal_materialized_blocker_sizes() {
        let (u, d, _) = projected();
        let ks = [1, 2, 3, 4, 5, 6, 7];
        let blocked: Vec<(usize, usize)> = ks
            .iter()
            .map(|&k| {
                let c = OverlapBlocker::new("AwardTitle", "AwardTitle", k).block(&u, &d).unwrap();
                (k, c.len())
            })
            .collect();
        assert_eq!(overlap_threshold_sweep(&u, &d, &ks).unwrap(), blocked);
        assert!(overlap_threshold_sweep(&u, &d, &[0]).is_err(), "K = 0 stays a typed error");
    }

    #[test]
    fn temp_column_not_leaked() {
        let (u, d, _) = projected();
        run_blocking(&u, &d, &BlockingPlan::default()).unwrap();
        assert!(!u.schema().contains(TEMP_COL));
    }
}
