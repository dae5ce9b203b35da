//! Property tests: BDD operations agree with brute-force truth-table
//! semantics of random covers, and with `Expr::eval` on random functions
//! of 20 and more variables — wide enough to grow the unique table and to
//! evict computed-table entries.

use asyncmap_bdd::{with_thread_manager, Manager, Ref};
use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, Cover, Cube, Phase, VarId, VarTable};
use proptest::prelude::*;

const NVARS: usize = 5;

fn assignment(m: usize) -> Bits {
    let mut b = Bits::new(NVARS);
    for v in 0..NVARS {
        b.set(v, (m >> v) & 1 == 1);
    }
    b
}

prop_compose! {
    fn arb_cube()(used in 0u8..32, phase in 0u8..32) -> Cube {
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
    fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 0..8)) -> Cover {
        Cover::from_cubes(NVARS, cubes)
    }
}

proptest! {
    #[test]
    fn from_cover_matches_eval(f in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let r = m.from_cover(&f);
        for a in 0..(1usize << NVARS) {
            prop_assert_eq!(m.eval(r, &assignment(a)), f.eval(&assignment(a)));
        }
    }

    #[test]
    fn canonical_iff_equivalent(f in arb_cover(), g in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let rf = m.from_cover(&f);
        let rg = m.from_cover(&g);
        prop_assert_eq!(rf == rg, f.equivalent(&g));
    }

    #[test]
    fn boolean_ops_match(f in arb_cover(), g in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let rf = m.from_cover(&f);
        let rg = m.from_cover(&g);
        let and = m.and(rf, rg);
        let or = m.or(rf, rg);
        let xor = m.xor(rf, rg);
        let not = m.not(rf);
        for a in 0..(1usize << NVARS) {
            let (va, vb) = (f.eval(&assignment(a)), g.eval(&assignment(a)));
            prop_assert_eq!(m.eval(and, &assignment(a)), va && vb);
            prop_assert_eq!(m.eval(or, &assignment(a)), va || vb);
            prop_assert_eq!(m.eval(xor, &assignment(a)), va ^ vb);
            prop_assert_eq!(m.eval(not, &assignment(a)), !va);
        }
    }

    #[test]
    fn sat_count_matches_truth_table(f in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let r = m.from_cover(&f);
        let count = (0..(1usize << NVARS))
            .filter(|&a| f.eval(&assignment(a)))
            .count() as u64;
        prop_assert_eq!(m.sat_count(r), count);
        match m.any_sat(r) {
            Some(a) => prop_assert!(m.eval(r, &a)),
            None => prop_assert_eq!(count, 0),
        }
    }

    #[test]
    fn restrict_matches_cofactor(f in arb_cover(), v in 0usize..NVARS, val: bool) {
        let mut m = Manager::new(NVARS);
        let r = m.from_cover(&f);
        let restricted = m.restrict(r, VarId(v), val);
        let phase = if val { Phase::Pos } else { Phase::Neg };
        let cof = m.from_cover(&f.cofactor(VarId(v), phase));
        prop_assert_eq!(restricted, cof);
    }

    #[test]
    fn implies_matches_cover_implication(f in arb_cover(), g in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let rf = m.from_cover(&f);
        let rg = m.from_cover(&g);
        prop_assert_eq!(m.implies(rf, rg), f.implies(&g));
    }

    #[test]
    fn support_is_semantic(f in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let r = m.from_cover(&f);
        let support = m.support(r);
        for v in 0..NVARS {
            let f0 = m.restrict(r, VarId(v), false);
            let f1 = m.restrict(r, VarId(v), true);
            prop_assert_eq!(support.contains(&VarId(v)), f0 != f1);
        }
    }

    #[test]
    fn tautology_iff_one(f in arb_cover()) {
        let mut m = Manager::new(NVARS);
        let r = m.from_cover(&f);
        prop_assert_eq!(r == Ref::ONE, f.is_tautology());
    }
}

/// The disjoint paths of `to_cover` come out in a fixed order: depth
/// first, the 0-branch before the 1-branch, along the natural variable
/// order.
#[test]
fn to_cover_path_order_is_pinned() {
    let vars = VarTable::from_names(["a", "b", "c", "d"]);
    let mut m = Manager::new(vars.len());
    let cases = [
        ("ab + a'c + bd'", "a'b'c + a'bc'd' + a'bc + ab"),
        ("a'b'c + a'bc' + ab'c' + abc", "a'b'c + a'bc' + ab'c' + abc"),
        ("ab + cd", "a'cd + ab'cd + ab"),
        ("1", "1"),
        ("0", "0"),
    ];
    for (text, paths) in cases {
        let f = m.from_cover(&Cover::parse(text, &vars).unwrap());
        assert_eq!(m.to_cover(f).display(&vars).to_string(), paths, "{text}");
    }
}

/// SplitMix64: the seeded stream of the wide-function tests.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn assignment(&mut self, nvars: usize) -> Bits {
        let mut a = Bits::new(nvars);
        for v in 0..nvars {
            a.set(v, self.next() & 1 == 1);
        }
        a
    }
}

/// A random formula over `nvars` variables: AND/OR nodes of fan-in 2–3,
/// complemented now and then, down to literals at `depth` 0.
fn random_expr(rng: &mut SplitMix, nvars: usize, depth: u32) -> Expr {
    if depth == 0 || rng.below(5) == 0 {
        let phase = if rng.below(2) == 0 {
            Phase::Pos
        } else {
            Phase::Neg
        };
        return Expr::literal(VarId(rng.below(nvars)), phase);
    }
    let terms = (0..2 + rng.below(2))
        .map(|_| random_expr(rng, nvars, depth - 1))
        .collect();
    let e = if rng.below(2) == 0 {
        Expr::And(terms)
    } else {
        Expr::Or(terms)
    };
    if rng.below(6) == 0 {
        e.not()
    } else {
        e
    }
}

/// An equivalent formula of a different shape: De Morgan at every AND
/// and OR, with the operands reversed.
fn rewrite(e: &Expr) -> Expr {
    let dual = |es: &[Expr]| es.iter().rev().map(|c| rewrite(c).not()).collect();
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Not(inner) => rewrite(inner).not(),
        Expr::And(es) => Expr::Or(dual(es)).not(),
        Expr::Or(es) => Expr::And(dual(es)).not(),
    }
}

fn bdd_of(m: &mut Manager, e: &Expr) -> Ref {
    match e {
        Expr::Const(b) => {
            if *b {
                Ref::ONE
            } else {
                Ref::ZERO
            }
        }
        Expr::Var(v) => m.var(*v),
        Expr::Not(inner) => {
            let r = bdd_of(m, inner);
            m.not(r)
        }
        Expr::And(es) => es.iter().fold(Ref::ONE, |acc, c| {
            let r = bdd_of(m, c);
            m.and(acc, r)
        }),
        Expr::Or(es) => es.iter().fold(Ref::ZERO, |acc, c| {
            let r = bdd_of(m, c);
            m.or(acc, r)
        }),
    }
}

/// Builds `pairs` random formulas over `nvars` variables, each next to an
/// equivalent rewrite, in one manager, and checks that
///
/// * every diagram evaluates as its formula on `samples` random
///   assignments;
/// * two `Ref`s are equal iff their formulas agree: equal `Ref`s agree on
///   every sample, and unequal ones disagree on the witness `any_sat`
///   finds in their XOR;
/// * the manager outgrew its computed table, so entries were evicted and
///   recomputed on the way;
/// * after `clear`, the same formulas rebuild the same `Ref`s.
fn check_wide_functions(nvars: usize, pairs: usize, depth: u32, samples: usize, seed: u64) {
    let mut rng = SplitMix(seed);
    let exprs: Vec<Expr> = (0..pairs)
        .flat_map(|_| {
            let e = random_expr(&mut rng, nvars, depth);
            let r = rewrite(&e);
            [e, r]
        })
        .collect();
    let assignments: Vec<Bits> = (0..samples).map(|_| rng.assignment(nvars)).collect();
    let mut m = Manager::new(nvars);
    let refs: Vec<Ref> = exprs.iter().map(|e| bdd_of(&mut m, e)).collect();
    // Every node but the variables' own was first stored as the result
    // of a distinct computed-table key, so more nodes than the table's
    // 2^14 entries means some entries were overwritten and recomputed.
    let nodes = m.node_count();
    assert!(
        nodes > (1 << 14) + nvars,
        "{nodes} nodes: too few to evict computed-table entries"
    );

    for (e, &r) in exprs.iter().zip(&refs) {
        for a in &assignments {
            assert_eq!(m.eval(r, a), e.eval(a));
        }
    }
    for pair in refs.chunks(2) {
        assert_eq!(pair[0], pair[1], "a rewrite changed the diagram");
    }
    for i in 0..exprs.len() {
        // Each formula against its rewrite's successor and a random other.
        for j in [(i + 2) % exprs.len(), rng.below(exprs.len())] {
            let (ei, ej) = (&exprs[i], &exprs[j]);
            if refs[i] == refs[j] {
                assert!(assignments.iter().all(|a| ei.eval(a) == ej.eval(a)));
            } else {
                let diff = m.xor(refs[i], refs[j]);
                let w = m.any_sat(diff).expect("unequal Refs differ somewhere");
                assert_ne!(ei.eval(&w), ej.eval(&w), "formulas {i} and {j}");
            }
        }
    }

    m.clear(nvars);
    assert_eq!(m.node_count(), 2);
    let again: Vec<Ref> = exprs.iter().map(|e| bdd_of(&mut m, e)).collect();
    assert_eq!(again, refs);
    assert_eq!(m.node_count(), nodes);
}

#[test]
fn wide_functions_agree_with_formula_evaluation() {
    check_wide_functions(20, 120, 5, 48, 1);
}

/// The larger variant: run with `cargo test --release -p asyncmap-bdd --
/// --ignored`.
#[test]
#[ignore = "takes seconds in release, minutes unoptimized"]
fn wide_functions_agree_with_formula_evaluation_large() {
    for seed in 2..6 {
        check_wide_functions(28, 400, 6, 256, seed);
    }
}

/// The thread's manager is cleared for each user, and a nested user gets
/// a manager of its own, so neither invalidates the other's `Ref`s.
#[test]
fn thread_manager_is_cleared_and_nesting_is_safe() {
    let vars = VarTable::from_names(["a", "b", "c"]);
    let cover = Cover::parse("ab + c", &vars).unwrap();
    let first = with_thread_manager(3, |m| {
        let f = m.from_cover(&cover);
        let nested = with_thread_manager(3, |inner| inner.from_cover(&cover));
        assert_eq!(m.to_cover(f).display(&vars).to_string(), "a'c + ab'c + ab");
        (f, nested)
    });
    with_thread_manager(3, |m| {
        assert_eq!(m.node_count(), 2, "a fresh user sees a cleared manager");
        assert_eq!(m.from_cover(&cover), first.0);
    });
    assert_eq!(first.0, first.1, "construction is deterministic");
}
