//! Equivalence of the interned-cut enumerator against the legacy
//! recursive enumerator of `asyncmap-oracle` — gate by gate on real cones,
//! and per root after cover selection (the chosen instances must be
//! identical), on 4-variable designs and on 7–8-variable ones whose wide
//! clusters match GDT's and Actel's 8-input cells — plus round-trip
//! properties of the NPN/P canonical form backing the match memo.

use asyncmap_core::truth;
use asyncmap_core::{
    cover_cone_with, enumerate_clusters, Cluster, ClusterLimits, HazardPolicy, Matcher, Objective,
};
use asyncmap_cube::{Cover, VarTable};
use asyncmap_library::builtin;
use asyncmap_network::{async_tech_decomp, partition, Cone, EquationSet, Network};
use asyncmap_oracle::gen::{arb_cover, arb_wide_cover, shared_leaf_sop};
use asyncmap_oracle::{cover_cone_legacy, enumerate_clusters_legacy};
use proptest::prelude::*;

/// The cones of a single-output design.
fn design(vars: VarTable, f: Cover) -> (Network, Vec<Cone>) {
    let net = async_tech_decomp(&EquationSet::new(vars, vec![("f".to_owned(), f)]));
    let cones = partition(&net);
    (net, cones)
}

/// The cones of the seeded 16-input shared-leaf SOP design `seed`.
fn sop_design(seed: u64) -> Option<(Network, Vec<Cone>)> {
    let vars = VarTable::from_names((0..16).map(|i| format!("x{i}")));
    Some(design(vars, shared_leaf_sop(seed)?))
}

/// Checks every gate list of `cone` against the legacy enumerator: leaves
/// in order, gate count and structure.
fn assert_cone_equals_legacy(net: &Network, cone: &Cone, max_depth: usize, what: &str) {
    let limits = ClusterLimits { max_depth };
    let got = enumerate_clusters(net, cone, &limits);
    let want = enumerate_clusters_legacy(net, cone, &limits);
    let view = |c: &Cluster| (c.leaves.clone(), c.num_gates, c.expr.clone());
    for g in &cone.gates {
        let got: Vec<_> = got[g].iter().map(view).collect();
        let want: Vec<_> = want[g].iter().map(view).collect();
        assert_eq!(got, want, "{what}: gate {g} (depth {max_depth})");
    }
}

#[test]
fn small_cones_equal_legacy() {
    for (text, names) in [
        ("ab + a'c + bc", vec!["a", "b", "c"]),
        ("ab' + cd + a'd'", vec!["a", "b", "c", "d"]),
        ("ab + ab'", vec!["a", "b"]),
    ] {
        let vars = VarTable::from_names(names);
        let f = Cover::parse(text, &vars).unwrap();
        let (net, cones) = design(vars, f);
        for cone in &cones {
            assert_cone_equals_legacy(&net, cone, 5, text);
        }
    }
}

/// On the cones of the 11 Table 5 benchmarks — dean-ctrl's truncated
/// gates included — and on seeded shared-leaf SOP designs, every gate
/// list equals the legacy enumerator's.
#[test]
fn real_cones_equal_legacy() {
    for (name, eqs) in asyncmap_burst::all_benchmarks() {
        let net = async_tech_decomp(&eqs);
        for cone in partition(&net) {
            assert_cone_equals_legacy(&net, &cone, 5, name);
        }
    }
    for (seed, (net, cones)) in (0..6).filter_map(|seed| Some((seed, sop_design(seed)?))) {
        for cone in &cones {
            assert_cone_equals_legacy(&net, cone, 5, &format!("sop seed {seed}"));
        }
    }
}

/// [`real_cones_equal_legacy`] at a larger scale: every depth bound from 2
/// to 6 on the benchmarks and 96 seeded SOP designs. Run in release:
/// `cargo test --release -p asyncmap-core --test cut_enum_equivalence
/// real_cones_equal_legacy_at_ci_scale -- --ignored`.
#[test]
#[ignore]
fn real_cones_equal_legacy_at_ci_scale() {
    let benchmarks: Vec<(Network, Vec<Cone>)> = asyncmap_burst::all_benchmarks()
        .into_iter()
        .map(|(_, eqs)| {
            let net = async_tech_decomp(&eqs);
            let cones = partition(&net);
            (net, cones)
        })
        .collect();
    for max_depth in 2..=6 {
        for (net, cones) in &benchmarks {
            for cone in cones {
                assert_cone_equals_legacy(net, cone, max_depth, "benchmark");
            }
        }
    }
    for (seed, (net, cones)) in (0..96).filter_map(|seed| Some((seed, sop_design(seed)?))) {
        for cone in &cones {
            assert_cone_equals_legacy(&net, cone, 5, &format!("sop seed {seed}"));
        }
    }
}

/// The cut-based cover of `cone` equals the legacy DP's, instance for
/// instance (or both fail at the same gate).
fn covers_agree(
    net: &Network,
    cone: &Cone,
    matcher: &Matcher<'_>,
    objective: Objective,
) -> Result<(), TestCaseError> {
    let limits = ClusterLimits::default();
    let lib = matcher.library().name();
    match (
        cover_cone_with(net, cone, matcher, &limits, objective),
        cover_cone_legacy(net, cone, matcher, &limits, objective),
    ) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.root, b.root);
            prop_assert_eq!(a.area.to_bits(), b.area.to_bits(), "area in {}", lib);
            prop_assert_eq!(a.instances.len(), b.instances.len());
            for (x, y) in a.instances.iter().zip(&b.instances) {
                prop_assert_eq!(x.cell_index, y.cell_index, "cell in {}", lib);
                prop_assert_eq!(x.output, y.output);
                prop_assert_eq!(&x.inputs, &y.inputs, "pins in {}", lib);
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a.gate, b.gate),
        (a, b) => prop_assert!(false, "cover outcomes diverge: {:?} vs {:?}", a, b),
    }
    Ok(())
}

/// On GDT and Actel under the hazard filter, every cone's cut-based cover
/// of a 7–8-variable design equals the legacy DP's.
fn wide_case(cover: &Cover) -> Result<(), TestCaseError> {
    if cover.is_tautology() {
        return Ok(());
    }
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let vars = VarTable::from_names(names[..cover.nvars()].iter().copied());
    let (net, cones) = design(vars, cover.clone());
    for mut lib in [builtin::gdt(), builtin::actel()] {
        lib.annotate_hazards();
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        for cone in &cones {
            covers_agree(&net, cone, &matcher, Objective::Area)?;
        }
    }
    Ok(())
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
        let (net, cones) = design(VarTable::from_names(["a", "b", "c", "d"]), cover);
        let objective = if delay_objective { Objective::Delay } else { Objective::Area };
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
            for cone in &cones {
                covers_agree(&net, cone, &matcher, objective)?;
            }
        }
    }

    #[test]
    fn wide_covers_agree_with_legacy(cover in arb_wide_cover()) {
        wide_case(&cover)?;
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

proptest! {
    // The CI case count: run with `--ignored` in release mode.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    #[ignore = "long; CI runs it in release mode"]
    fn wide_covers_agree_with_legacy_at_ci_scale(cover in arb_wide_cover()) {
        wide_case(&cover)?;
    }
}
