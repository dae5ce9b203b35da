//! Equivalence of the word-parallel matcher kernels against their scalar
//! generic counterparts: truth tables, dependence tests, input signatures
//! and — end to end — the match lists themselves (same cells, same pin
//! bindings, same order, same hazard verdicts), on 4-variable designs and
//! on 7–8-variable ones whose wide clusters match GDT's and Actel's
//! 8-input cells, where the cut-based covers must also equal the legacy
//! reference DP's.

use asyncmap_bff::Expr;
use asyncmap_core::truth;
use asyncmap_core::{
    cover_cone_legacy, cover_cone_with, depends_on, depends_on_words, enumerate_clusters,
    input_signature, input_signature_words, truth_table_of, truth_table_of_generic, ClusterLimits,
    HazardPolicy, Matcher, Objective,
};
use asyncmap_cube::{Cover, Cube, Phase, VarId, VarTable};
use asyncmap_library::builtin;
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use proptest::prelude::*;

/// Random depth-bounded expression over `nvars` variables, driven by a
/// proptest-supplied byte stream so every case is reproducible.
fn expr_from_stream(nvars: usize, stream: &[u8], pos: &mut usize, depth: usize) -> Expr {
    fn next(stream: &[u8], pos: &mut usize, bound: usize) -> usize {
        let b = stream[*pos % stream.len()] as usize;
        *pos += 1;
        b % bound
    }
    if depth == 0 || next(stream, pos, 4) == 0 {
        let v = Expr::Var(VarId(next(stream, pos, nvars)));
        return if next(stream, pos, 2) == 1 {
            v.not()
        } else {
            v
        };
    }
    let arity = 2 + next(stream, pos, 2);
    let args: Vec<Expr> = (0..arity)
        .map(|_| expr_from_stream(nvars, stream, pos, depth - 1))
        .collect();
    if next(stream, pos, 2) == 1 {
        Expr::and(args)
    } else {
        Expr::or(args)
    }
}

prop_compose! {
    fn arb_expr(nvars: usize)(stream in prop::collection::vec(any::<u8>(), 32..64)) -> Expr {
        let mut pos = 0;
        expr_from_stream(nvars, &stream, &mut pos, 3)
    }
}

const NVARS: usize = 4;

prop_compose! {
    fn arb_cube()(used in 1u8..16, phase in 0u8..16) -> Cube {
        let mut lits = Vec::new();
        for v in 0..NVARS {
            if (used >> v) & 1 == 1 {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                lits.push((VarId(v), p));
            }
        }
        Cube::from_literals(NVARS, lits)
    }
}

prop_compose! {
    fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 1..5)) -> Cover {
        Cover::from_cubes(NVARS, cubes)
    }
}

prop_compose! {
    /// A cover over 7 or 8 variables that uses every one of them: each
    /// variable joins one of a few disjoint cubes — in half the cases the
    /// cubes pair up consecutive variables, and in half of those every
    /// literal is negative, the shape of GDT's 7–8-input OAI cells
    /// (`OAI2222` is `a'b' + c'd' + e'f' + g'h'`) — and up to two random
    /// cubes over all variables add overlap.
    fn arb_wide_cover()(
        nvars in 7usize..9,
        ncubes in 3usize..6,
        shape in any::<u8>(),
        groups in prop::collection::vec(any::<u8>(), 8..9),
        phase in any::<u8>(),
        extra in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) -> Cover {
        let paired = shape & 1 == 1;
        let phase = if paired && shape & 2 == 2 { 0 } else { phase };
        let mut used = vec![0u8; ncubes.max(4)];
        for (v, &group) in groups.iter().enumerate().take(nvars) {
            let cube = if paired { v / 2 } else { group as usize % ncubes };
            used[cube] |= 1 << v;
        }
        let mut cubes: Vec<(u8, u8)> = used
            .into_iter()
            .filter(|&u| u != 0)
            .map(|u| (u, phase))
            .collect();
        cubes.extend(extra.into_iter().filter(|&(u, _)| u != 0));
        let cubes = cubes.into_iter().map(|(used, phase)| {
            let lits = (0..nvars).filter(|v| (used >> v) & 1 == 1).map(|v| {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                (VarId(v), p)
            });
            Cube::from_literals(nvars, lits)
        });
        Cover::from_cubes(nvars, cubes.collect())
    }
}

/// On GDT and Actel under the hazard filter: every eager cluster's match
/// list equals the scalar reference's, and every cone's cut-based cover
/// equals the legacy reference DP's. Every case has a 7–8-leaf cluster.
fn wide_case(cover: &Cover) -> Result<(), TestCaseError> {
    if cover.is_tautology() {
        return Ok(());
    }
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let vars = VarTable::from_names(names[..cover.nvars()].iter().copied());
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), cover.clone())]);
    let net = async_tech_decomp(&eqs);
    let limits = ClusterLimits::default();
    let mut wide = 0;
    for mut lib in [builtin::gdt(), builtin::actel()] {
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        for cone in &partition(&net) {
            for cluster in enumerate_clusters(&net, cone, &limits).values().flatten() {
                wide += usize::from(cluster.leaves.len() > 6);
                prop_assert_eq!(
                    matcher.find_matches(cluster),
                    matcher.find_matches_generic(cluster),
                    "match lists diverge in {}",
                    lib.name()
                );
            }
            let a = cover_cone_with(&net, cone, &matcher, &limits, Objective::Area);
            let b = cover_cone_legacy(&net, cone, &matcher, &limits, Objective::Area);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.area.to_bits(), b.area.to_bits(), "area in {}", lib.name());
                    prop_assert_eq!(a.instances.len(), b.instances.len());
                    for (x, y) in a.instances.iter().zip(&b.instances) {
                        prop_assert_eq!(x.cell_index, y.cell_index, "cell in {}", lib.name());
                        prop_assert_eq!(x.output, y.output);
                        prop_assert_eq!(&x.inputs, &y.inputs, "pins in {}", lib.name());
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.gate, b.gate),
                (a, b) => prop_assert!(false, "cover outcomes diverge: {:?} vs {:?}", a, b),
            }
        }
    }
    prop_assert!(wide > 0, "no 7–8-leaf cluster in {:?}", cover);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wide_match_lists_and_covers_agree(cover in arb_wide_cover()) {
        wide_case(&cover)?;
    }
}

proptest! {
    // The CI case count: run with `--ignored` in release mode.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    #[ignore = "long; CI runs it in release mode"]
    fn wide_match_lists_and_covers_agree_at_ci_scale(cover in arb_wide_cover()) {
        wide_case(&cover)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truth_tables_agree_small(e in arb_expr(5)) {
        let fast = truth_table_of(&e, 5);
        let generic = truth_table_of_generic(&e, 5);
        prop_assert_eq!(&fast, &generic);
        // The packed u64 table must agree with both.
        let packed = truth::truth6_of(&e, 5);
        prop_assert_eq!(fast.words()[0], packed);
    }

    #[test]
    fn truth_tables_agree_wide(e in arb_expr(8)) {
        prop_assert_eq!(truth_table_of(&e, 8), truth_table_of_generic(&e, 8));
    }

    #[test]
    fn dependence_and_signatures_agree(e in arb_expr(5)) {
        let n = 5;
        let table = truth_table_of_generic(&e, n);
        let packed = truth::truth6_of(&e, n);
        for v in 0..n {
            let dep = depends_on(&table, n, v);
            prop_assert_eq!(depends_on_words(&table, v), dep, "depends_on_words var {}", v);
            prop_assert_eq!(truth::depends6(packed, n, v), dep, "depends6 var {}", v);
            let sig = input_signature(&table, n, v);
            prop_assert_eq!(input_signature_words(&table, v), sig, "sig_words var {}", v);
            prop_assert_eq!(truth::input_signature6(packed, n, v), sig, "sig6 var {}", v);
        }
    }

    #[test]
    fn match_lists_identical_with_hazard_filter(cover in arb_cover()) {
        if cover.is_tautology() {
            return Ok(());
        }
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), cover.clone())]);
        let net = async_tech_decomp(&eqs);
        // Actel's mux modules exercise the hazard-containment verdicts;
        // LSI9K covers the plain-gate bulk.
        for mut lib in [builtin::lsi9k(), builtin::actel()] {
            lib.annotate_hazards();
            let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
            for cone in &partition(&net) {
                let clusters = enumerate_clusters(&net, cone, &ClusterLimits::default());
                for list in clusters.values() {
                    for cluster in list {
                        prop_assert_eq!(
                            matcher.find_matches(cluster),
                            matcher.find_matches_generic(cluster),
                            "match lists diverge in {}",
                            lib.name()
                        );
                    }
                }
            }
        }
    }
}
