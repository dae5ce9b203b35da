//! Equivalence of the interned-cut enumerator against the
//! legacy recursive enumerator — per root, after cover selection the chosen
//! instances must be identical — plus round-trip properties of the NPN/P
//! canonical form backing the match memo, and memo-on vs memo-off match
//! agreement through the covering API.

use asyncmap_core::truth;
use asyncmap_core::{
    cover_cone_legacy, cover_cone_with, ClusterLimits, HazardPolicy, Matcher, Objective,
};
use asyncmap_cube::{Cover, Cube, Phase, VarId, VarTable};
use asyncmap_library::builtin;
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use proptest::prelude::*;

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

/// Permutation of `0..n` driven by a proptest byte stream (Fisher–Yates).
fn perm_from_stream(n: usize, stream: &[u8]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = stream[i % stream.len()] as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cut_and_legacy_covers_agree(cover in arb_cover(), delay_objective in any::<bool>()) {
        if cover.is_tautology() {
            return Ok(());
        }
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), cover.clone())]);
        let net = async_tech_decomp(&eqs);
        let objective = if delay_objective { Objective::Delay } else { Objective::Area };
        let limits = ClusterLimits::default();
        // SubsetCheck exercises the hazard filter; Ignore the plain
        // functional match lists.
        for (mut lib, policy) in [
            (builtin::lsi9k(), HazardPolicy::SubsetCheck),
            (builtin::actel(), HazardPolicy::SubsetCheck),
            (builtin::lsi9k(), HazardPolicy::Ignore),
            (builtin::gdt(), HazardPolicy::Ignore),
        ] {
            lib.annotate_hazards();
            let matcher = Matcher::new(&lib, policy);
            for cone in &partition(&net) {
                let a = cover_cone_with(&net, cone, &matcher, &limits, objective);
                let b = cover_cone_legacy(&net, cone, &matcher, &limits, objective);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a.root, b.root);
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
    }

    #[test]
    fn memo_does_not_change_covers(cover in arb_cover()) {
        if cover.is_tautology() {
            return Ok(());
        }
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), cover.clone())]);
        let net = async_tech_decomp(&eqs);
        let limits = ClusterLimits::default();
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let mut memo_on = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        memo_on.set_npn_memo_enabled(true);
        let mut memo_off = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        memo_off.set_npn_memo_enabled(false);
        for cone in &partition(&net) {
            // Cover each cone twice with the memoized matcher so the second
            // pass actually replays memo entries.
            let _ = cover_cone_with(&net, cone, &memo_on, &limits, Objective::Area);
            let a = cover_cone_with(&net, cone, &memo_on, &limits, Objective::Area).ok();
            let b = cover_cone_with(&net, cone, &memo_off, &limits, Objective::Area).ok();
            match (a, b) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.area.to_bits(), b.area.to_bits());
                    prop_assert_eq!(a.instances.len(), b.instances.len());
                    for (x, y) in a.instances.iter().zip(&b.instances) {
                        prop_assert_eq!(x.cell_index, y.cell_index);
                        prop_assert_eq!(&x.inputs, &y.inputs);
                    }
                }
                (None, None) => {}
                _ => prop_assert!(false, "memo changed coverability"),
            }
        }
        let off = memo_off.counters();
        prop_assert_eq!(off.npn_hits + off.npn_misses, 0);
    }

    #[test]
    fn canon_is_invariant_under_permutation(
        raw in any::<u64>(),
        n in 1usize..7,
        stream in prop::collection::vec(any::<u8>(), 6..7),
    ) {
        let t = raw & truth::full_mask(n);
        let perm = perm_from_stream(n, &stream);
        let permuted = truth::apply_perm6(t, &perm, n);
        prop_assert_eq!(truth::canon6(permuted, n), truth::canon6(t, n));
    }

    #[test]
    fn canon_of_complement_flips_only_phase(raw in any::<u64>(), n in 1usize..7) {
        let mask = truth::full_mask(n);
        let t = raw & mask;
        let c = truth::canon6(t, n);
        let cn = truth::canon6(!t & mask, n);
        prop_assert_eq!(c.canon, cn.canon);
        // Phase flips unless the class is self-complementary, where both
        // sides canonicalize positively.
        if c.phase == cn.phase {
            prop_assert!(!c.phase);
        }
    }

    #[test]
    fn canon_representative_is_a_fixed_point(raw in any::<u64>(), n in 1usize..7) {
        let t = raw & truth::full_mask(n);
        let c = truth::canon6(t, n);
        let again = truth::canon6(c.canon, n);
        prop_assert_eq!(again.canon, c.canon);
        prop_assert!(!again.phase);
    }
}
