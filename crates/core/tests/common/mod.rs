//! The materialized reference for [`EmWorkflow::run`], composed from the
//! public stage functions one after another — whole candidate set, full
//! 46-feature matrix, row-wise `predict_proba`, negative rules on `Row`s.
//! It shares no driver code with the fused stream, so holding the two equal
//! bit for bit is a real check. `crates/bench/tests/scaling_match_pinned.rs`
//! includes this file by path for the x4 corpus.

use em_blocking::Pair;
use em_core::blocking_plan::run_blocking;
use em_core::workflow::{EmWorkflow, WorkflowResult};
use em_features::extract_vectors;
use em_ml::model::Model;
use em_table::Table;

/// Every set of a workflow run, in `(left, right)` order.
pub struct Materialized {
    pub sure: Vec<Pair>,
    pub blocked: Vec<Pair>,
    pub scored: Vec<(Pair, f64)>,
    pub predicted: Vec<Pair>,
    pub flipped: Vec<Pair>,
    pub matches: Vec<Pair>,
}

/// Runs `wf`'s stages materialized, never touching `wf.run`.
pub fn materialized(wf: &EmWorkflow<'_>, u: &Table, s: &Table) -> Materialized {
    let sure = wf.rules.sure_matches(u, s).unwrap();
    let blocked = run_blocking(u, s, &wf.plan).unwrap().consolidated;
    let pairs = blocked.minus(&sure).to_vec();
    let mut x = extract_vectors(&wf.matcher.features, u, s, &pairs).unwrap();
    wf.matcher.imputer.transform(&mut x);
    let scored: Vec<(Pair, f64)> =
        pairs.iter().zip(&x).map(|(p, row)| (*p, wf.matcher.model.predict_proba(row))).collect();
    let predicted: Vec<Pair> = scored.iter().filter(|(_, p)| *p >= 0.5).map(|(p, _)| *p).collect();
    let (flipped, kept): (Vec<Pair>, Vec<Pair>) = predicted.iter().partition(|p| {
        wf.apply_negative
            && wf.rules.any_negative_fires(u.row(p.left).unwrap(), s.row(p.right).unwrap())
    });
    let mut matches: Vec<Pair> = sure.iter().chain(kept).collect();
    matches.sort_unstable();
    Materialized {
        sure: sure.to_vec(),
        blocked: blocked.to_vec(),
        scored,
        predicted,
        flipped,
        matches,
    }
}

/// Asserts `r` is `want` set for set, in order, probabilities by bit
/// pattern.
pub fn assert_run_equals(r: &WorkflowResult, want: &Materialized, ctx: &str) {
    assert_eq!(r.sure.to_vec(), want.sure, "[{ctx}] sure");
    assert_eq!(r.blocked.to_vec(), want.blocked, "[{ctx}] blocked");
    let candidates: Vec<Pair> = want.scored.iter().map(|(p, _)| *p).collect();
    assert_eq!(r.candidates.to_vec(), candidates, "[{ctx}] candidates");
    assert_eq!(r.scored.len(), want.scored.len(), "[{ctx}] scored-pair count");
    for ((rp, rv), (wp, wv)) in r.scored.iter().zip(&want.scored) {
        assert_eq!(rp, wp, "[{ctx}] scored pair order");
        assert_eq!(rv.to_bits(), wv.to_bits(), "[{ctx}] probability at {rp:?}: {rv} vs {wv}");
    }
    assert_eq!(r.predicted.to_vec(), want.predicted, "[{ctx}] predicted");
    assert_eq!(r.flipped.to_vec(), want.flipped, "[{ctx}] flipped");
    assert_eq!(r.matches.to_vec(), want.matches, "[{ctx}] matches");
}
