//! Property-based tests: scenario invariants hold across random
//! configurations and seeds, not just the two presets.

use em_datagen::{Oracle, OracleConfig, PairView, Scenario, ScenarioConfig};
use em_estimate::Label;
use proptest::prelude::*;

fn config() -> impl Strategy<Value = ScenarioConfig> {
    (
        any::<u64>(),      // seed
        10usize..60,       // awards
        0usize..20,        // extra awards
        0.0f64..1.0,       // frac_federal
        0.2f64..0.8,       // p_in_usda
        0.0f64..0.3,       // p_generic
    )
        .prop_map(|(seed, n_awards, n_extra, frac_federal, p_in_usda, p_generic)| {
            let mut c = ScenarioConfig::small().with_seed(seed);
            c.n_awards = n_awards;
            c.n_extra_awards = n_extra;
            // keep USDA big enough for matched records (≤ ~1.2 per project)
            c.n_usda = (n_awards + n_extra) * 2 + 20;
            c.n_employees = n_awards.max(1) * 4;
            c.frac_federal = frac_federal;
            c.p_in_usda = p_in_usda;
            c.p_generic_title = p_generic;
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural invariants hold for arbitrary configurations: schemas,
    /// key integrity, truth referential integrity, extra-batch bookkeeping.
    #[test]
    fn scenario_invariants(cfg in config()) {
        let s = Scenario::generate(cfg.clone()).unwrap();
        prop_assert_eq!(s.award_agg.n_rows(), cfg.n_awards);
        prop_assert_eq!(s.extra_award_agg.n_rows(), cfg.n_extra_awards);
        prop_assert_eq!(s.usda.n_rows(), cfg.n_usda);
        prop_assert_eq!(s.usda.n_cols(), 78);

        // Keys.
        s.award_agg.union(&s.extra_award_agg).unwrap().check_key("UniqueAwardNumber").unwrap();
        s.usda.check_key("AccessionNumber").unwrap();

        // Truth references real identifiers only, and never exceeds the
        // USDA row count… per award side it can (one-to-many), but every
        // accession appears at most once as a match target of some award?
        // No — many-to-one is impossible by construction: each USDA record
        // belongs to exactly one project.
        let mut seen_accessions = std::collections::HashSet::new();
        for (_, acc) in s.truth.iter() {
            prop_assert!(seen_accessions.insert(acc.to_string()),
                "accession {acc} matched by two awards at generation time");
        }

        // Every extra award is marked, and only extras are marked.
        for r in s.extra_award_agg.iter() {
            prop_assert!(s.truth.is_extra_award(r.str("UniqueAwardNumber").unwrap()));
        }
        for r in s.award_agg.iter() {
            prop_assert!(!s.truth.is_extra_award(r.str("UniqueAwardNumber").unwrap()));
        }
        prop_assert!(s.truth.n_matches_initial() <= s.truth.len());
    }

    /// The oracle never settles a true match as No, never settles a clear
    /// (dissimilar-title) non-match as Yes, and is deterministic.
    #[test]
    fn oracle_soundness(cfg in config()) {
        let s = Scenario::generate(cfg).unwrap();
        let oracle = Oracle::new(&s.truth, OracleConfig::default());
        // Probe with synthetic views across both regimes.
        let mut checked = 0;
        for (award, acc) in s.truth.iter().take(20) {
            let v = PairView {
                award_number: award,
                accession: acc,
                left_title: "SOIL NUTRIENT CYCLING STUDY",
                right_title: "Soil Nutrient Cycling Study",
                right_award_number: None,
                right_project_number: None,
            };
            let l1 = oracle.label(&v);
            prop_assert_ne!(l1, Label::No, "true match settled as No");
            prop_assert_eq!(l1, oracle.label(&v), "non-deterministic label");
            checked += 1;
        }
        prop_assert!(checked > 0 || s.truth.is_empty());

        let non = PairView {
            award_number: "10.999 NOT-A-REAL-AWARD",
            accession: "999999",
            left_title: "Alpha Beta Gamma",
            right_title: "Completely Different Words Here",
            right_award_number: None,
            right_project_number: None,
        };
        prop_assert_eq!(oracle.label(&non), Label::No);
    }

    /// Generation is a pure function of the config.
    #[test]
    fn generation_deterministic(cfg in config()) {
        let a = Scenario::generate(cfg.clone()).unwrap();
        let b = Scenario::generate(cfg).unwrap();
        prop_assert_eq!(a.usda.rows(), b.usda.rows());
        prop_assert_eq!(a.award_agg.rows(), b.award_agg.rows());
        prop_assert_eq!(a.truth, b.truth);
    }
}
