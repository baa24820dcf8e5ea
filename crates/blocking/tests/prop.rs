//! Property-based tests: blockers agree with their pair-level semantics on
//! random tables, and candidate-set algebra obeys set laws.

use em_blocking::blockers::{Blocker, OverlapBlocker, SetSimBlocker};
use em_blocking::{CandidateSet, Pair};
use em_table::{Schema, Table, Value};
use proptest::prelude::*;

fn title() -> impl Strategy<Value = String> {
    // Small vocabulary so overlaps actually occur.
    proptest::collection::vec(
        proptest::sample::select(vec![
            "corn", "fungicide", "guidelines", "lab", "supplies", "maize", "gene", "study",
        ]),
        0..6,
    )
    .prop_map(|ws| ws.join(" "))
}

fn table(rows: Vec<String>) -> Table {
    Table::from_rows(
        "t",
        Schema::of_strings(&["Title"]),
        rows.into_iter().map(|s| vec![Value::Str(s)]).collect(),
    )
    .unwrap()
}

fn pairs() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..8, 0usize..8), 0..20)
}

fn cset(name: &str, ps: &[(usize, usize)]) -> CandidateSet {
    CandidateSet::from_pairs(name, ps.iter().map(|&(l, r)| Pair::new(l, r)), "src")
}

proptest! {
    /// Index-based overlap blocking equals the Cartesian scan with
    /// `accepts`.
    #[test]
    fn overlap_block_equals_cartesian(
        la in proptest::collection::vec(title(), 1..8),
        lb in proptest::collection::vec(title(), 1..8),
        k in 1usize..4,
    ) {
        let (a, b) = (table(la), table(lb));
        let blocker = OverlapBlocker::new("Title", "Title", k);
        let fast = blocker.block(&a, &b).unwrap();
        for i in 0..a.n_rows() {
            for j in 0..b.n_rows() {
                let acc = blocker.accepts(a.row(i).unwrap(), b.row(j).unwrap()).unwrap();
                prop_assert_eq!(acc, fast.contains(&Pair::new(i, j)), "({}, {}) K={}", i, j, k);
            }
        }
    }

    /// Overlap-coefficient blocking equals the Cartesian scan.
    #[test]
    fn oc_block_equals_cartesian(
        la in proptest::collection::vec(title(), 1..8),
        lb in proptest::collection::vec(title(), 1..8),
        t in prop_oneof![Just(0.3), Just(0.5), Just(0.7), Just(1.0)],
    ) {
        let (a, b) = (table(la), table(lb));
        let blocker = SetSimBlocker::overlap_coefficient("Title", "Title", t);
        let fast = blocker.block(&a, &b).unwrap();
        for i in 0..a.n_rows() {
            for j in 0..b.n_rows() {
                let acc = blocker.accepts(a.row(i).unwrap(), b.row(j).unwrap()).unwrap();
                prop_assert_eq!(acc, fast.contains(&Pair::new(i, j)));
            }
        }
    }

    /// Candidate-set algebra: inclusion–exclusion, difference laws,
    /// idempotence, commutativity of union/intersection on pair sets.
    #[test]
    fn candidate_algebra_laws(pa in pairs(), pb in pairs()) {
        let a = cset("a", &pa);
        let b = cset("b", &pb);
        let u = a.union(&b);
        let i = a.intersect(&b);
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());
        prop_assert_eq!(a.minus(&b).len() + i.len(), a.len());
        prop_assert_eq!(u.to_vec(), b.union(&a).to_vec());
        prop_assert_eq!(i.to_vec(), b.intersect(&a).to_vec());
        prop_assert_eq!(a.union(&a).to_vec(), a.to_vec());
        prop_assert_eq!(a.intersect(&a).to_vec(), a.to_vec());
        prop_assert!(a.minus(&a).is_empty());
        // A = (A − B) ∪ (A ∩ B)
        prop_assert_eq!(a.minus(&b).union(&i).to_vec(), a.to_vec());
    }
}
