//! Property test over the whole pipeline: for random small designs, the
//! asynchronous mapper never introduces hazards and always preserves the
//! function — the end-to-end statement of the paper's Theorem 3.2.

use asyncmap::prelude::*;
use asyncmap_oracle::gen::{arb_cube, NVARS};
use proptest::prelude::*;

prop_compose! {
    fn arb_equations()(covers in prop::collection::vec(
        prop::collection::vec(arb_cube(), 1..5), 1..3)) -> Option<EquationSet> {
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let mut eqs = Vec::new();
        for (i, cubes) in covers.into_iter().enumerate() {
            let cover = Cover::from_cubes(NVARS, cubes);
            if cover.is_tautology() {
                return None;
            }
            eqs.push((format!("f{i}"), cover));
        }
        Some(EquationSet::new(vars, eqs))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn async_tmap_preserves_function_and_hazards(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let mut lib = asyncmap::library::builtin::lsi9k();
        lib.annotate_hazards();
        let design = async_tmap(&eqs, &lib, &MapOptions::default())
            .expect("LSI9K covers all base gates");
        prop_assert!(design.verify_function(&lib));
        prop_assert!(design.verify_hazards(&lib));
    }

    #[test]
    fn sync_tmap_preserves_function_but_may_add_hazards(eqs in arb_equations()) {
        let Some(eqs) = eqs else { return Ok(()) };
        let mut lib = asyncmap::library::builtin::cmos3();
        lib.annotate_hazards();
        let design = tmap(&eqs, &lib, &MapOptions::default())
            .expect("CMOS3 covers all base gates");
        // Function always preserved; hazard containment is NOT asserted —
        // that is exactly the paper's point.
        prop_assert!(design.verify_function(&lib));
    }
}
