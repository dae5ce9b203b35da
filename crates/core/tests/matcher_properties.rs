//! Property tests for the matcher and coverer on randomly generated
//! designs: every reported match binding is functionally exact, every
//! async-accepted hazardous match independently passes the exhaustive
//! hazard-containment check, and every DP cover verifies.

use asyncmap_core::{
    cover_cone_with, enumerate_clusters, instantiate, truth_table_of, ClusterLimits, HazardPolicy,
    Matcher, Objective,
};
use asyncmap_cube::{Cover, VarTable};
use asyncmap_library::builtin;
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use asyncmap_oracle::gen::arb_cover;
use proptest::prelude::*;

fn design_of(cover: &Cover) -> Option<(asyncmap_network::Network, Vec<asyncmap_network::Cone>)> {
    if cover.is_tautology() {
        return None;
    }
    let vars = VarTable::from_names(["a", "b", "c", "d"]);
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), cover.clone())]);
    let net = async_tech_decomp(&eqs);
    let cones = partition(&net);
    Some((net, cones))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_match_binding_is_functionally_exact(cover in arb_cover()) {
        let Some((net, cones)) = design_of(&cover) else { return Ok(()) };
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::Ignore);
        for cone in &cones {
            let clusters = enumerate_clusters(&net, cone, &ClusterLimits::default());
            for list in clusters.values() {
                for cluster in list {
                    let n = cluster.leaves.len();
                    let want = truth_table_of(&cluster.expr, n);
                    for m in matcher.find_matches(cluster) {
                        let cell = &lib.cells()[m.cell_index];
                        let inst = instantiate(cell.bff(), &m.pin_to_leaf);
                        prop_assert_eq!(
                            truth_table_of(&inst, n),
                            want.clone(),
                            "bad binding for {}",
                            cell.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn async_accepted_hazardous_matches_pass_independent_check(cover in arb_cover()) {
        let Some((net, cones)) = design_of(&cover) else { return Ok(()) };
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        for cone in &cones {
            let clusters = enumerate_clusters(&net, cone, &ClusterLimits::default());
            for list in clusters.values() {
                for cluster in list {
                    for m in matcher.find_matches(cluster) {
                        let cell = &lib.cells()[m.cell_index];
                        if !cell.is_hazardous() {
                            continue;
                        }
                        let candidate = instantiate(cell.bff(), &m.pin_to_leaf);
                        prop_assert!(
                            asyncmap_hazard::hazards_subset_exhaustive(
                                &candidate,
                                &cluster.expr,
                                cluster.leaves.len()
                            ),
                            "accepted match fails the independent check: {}",
                            cell.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dp_covers_verify_on_random_designs(cover in arb_cover()) {
        let Some((net, cones)) = design_of(&cover) else { return Ok(()) };
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        for cone in &cones {
            let limits = ClusterLimits::default();
            let c = cover_cone_with(&net, cone, &matcher, &limits, Objective::Area).unwrap();
            prop_assert!(asyncmap_core::verify_cone_function(&net, cone, &c, &lib));
            let sum: f64 = c
                .instances
                .iter()
                .map(|i| lib.cells()[i.cell_index].area())
                .sum();
            prop_assert!((c.area - sum).abs() < 1e-9);
        }
    }
}
