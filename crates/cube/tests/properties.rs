//! Property-based tests for the cube/cover algebra: every structural
//! operation is checked against brute-force minterm semantics on small
//! variable counts, and the word-walking cube and bit-set kernels are
//! checked against their per-variable definitions on multi-word widths.

use asyncmap_cube::{Bits, Cover, Cube, Phase, VarId};
use proptest::prelude::*;

const NVARS: usize = 5;

fn assignment(m: usize) -> Bits {
    let mut b = Bits::new(NVARS);
    for v in 0..NVARS {
        b.set(v, (m >> v) & 1 == 1);
    }
    b
}

fn minterm_set(c: &Cube) -> Vec<usize> {
    (0..(1usize << NVARS))
        .filter(|&m| c.eval(&assignment(m)))
        .collect()
}

fn cover_set(f: &Cover) -> Vec<usize> {
    (0..(1usize << NVARS))
        .filter(|&m| f.eval(&assignment(m)))
        .collect()
}

prop_compose! {
    fn arb_cube()(used in 0u8..32, phase in 0u8..32) -> Cube {
        let mut literals = Vec::new();
        for v in 0..NVARS {
            if (used >> v) & 1 == 1 {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                literals.push((VarId(v), p));
            }
        }
        Cube::from_literals(NVARS, literals)
    }
}

prop_compose! {
    fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 0..8)) -> Cover {
        Cover::from_cubes(NVARS, cubes)
    }
}

proptest! {
    #[test]
    fn containment_matches_semantics(a in arb_cube(), b in arb_cube()) {
        let (sa, sb) = (minterm_set(&a), minterm_set(&b));
        prop_assert_eq!(a.contains(&b), sb.iter().all(|m| sa.contains(m)));
    }

    #[test]
    fn intersection_matches_semantics(a in arb_cube(), b in arb_cube()) {
        let (sa, sb) = (minterm_set(&a), minterm_set(&b));
        let want: Vec<usize> = sa.iter().copied().filter(|m| sb.contains(m)).collect();
        match a.intersect(&b) {
            Some(c) => prop_assert_eq!(minterm_set(&c), want),
            None => prop_assert!(want.is_empty()),
        }
    }

    #[test]
    fn supercube_is_smallest_containing_cube(a in arb_cube(), b in arb_cube()) {
        let s = a.supercube(&b);
        prop_assert!(s.contains(&a) && s.contains(&b));
        // Minimality: dropping any remaining constraint is necessary;
        // equivalently every literal of s appears, same phase, in a and b.
        for (v, p) in s.literals() {
            prop_assert_eq!(a.literal(v), Some(p));
            prop_assert_eq!(b.literal(v), Some(p));
        }
    }

    #[test]
    fn adjacency_is_implicant_of_pair(a in arb_cube(), b in arb_cube()) {
        if let Some(cons) = a.adjacency(&b) {
            let f = Cover::from_cubes(NVARS, vec![a.clone(), b.clone()]);
            prop_assert!(f.covers_cube(&cons), "consensus not implied");
            prop_assert_eq!(a.distance(&b), 1);
        }
    }

    #[test]
    fn eval_agrees_with_literals(c in arb_cube(), m in 0usize..32) {
        let a = assignment(m);
        let want = c.literals().all(|(v, p)| a.get(v.index()) == p.is_pos());
        prop_assert_eq!(c.eval(&a), want);
    }

    #[test]
    fn minterms_iterator_is_exact(c in arb_cube()) {
        let mut listed: Vec<usize> = c
            .minterms()
            .map(|bits| (0..NVARS).fold(0usize, |acc, v| acc | (usize::from(bits.get(v)) << v)))
            .collect();
        listed.sort_unstable();
        prop_assert_eq!(listed, minterm_set(&c));
    }

    #[test]
    fn tautology_matches_truth_table(f in arb_cover()) {
        prop_assert_eq!(f.is_tautology(), cover_set(&f).len() == 1 << NVARS);
    }

    #[test]
    fn covers_cube_matches_semantics(f in arb_cover(), c in arb_cube()) {
        let fs = cover_set(&f);
        let want = minterm_set(&c).iter().all(|m| fs.contains(m));
        prop_assert_eq!(f.covers_cube(&c), want);
    }

    #[test]
    fn complement_matches_truth_table(f in arb_cover()) {
        let g = f.complement();
        let fs = cover_set(&f);
        for m in 0..(1usize << NVARS) {
            prop_assert_eq!(g.eval(&assignment(m)), !fs.contains(&m));
        }
    }

    #[test]
    fn irredundant_preserves_function(f in arb_cover()) {
        let g = f.irredundant();
        prop_assert!(g.equivalent(&f));
        // And it is actually irredundant: removing any cube changes f.
        for i in 0..g.len() {
            let rest = Cover::from_cubes(
                NVARS,
                g.cubes()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, c)| c.clone())
                    .collect(),
            );
            prop_assert!(!rest.equivalent(&f));
        }
    }

    #[test]
    fn all_primes_are_prime_and_cover(f in arb_cover()) {
        let primes = f.all_primes();
        for p in &primes {
            prop_assert!(f.is_prime(p), "non-prime {:?}", p);
        }
        // Every cube of f is contained in some prime.
        for c in f.cubes() {
            prop_assert!(primes.iter().any(|p| p.contains(c)));
        }
        // The primes cover exactly f.
        let pc = Cover::from_cubes(NVARS, primes);
        prop_assert!(pc.equivalent(&f));
    }

    #[test]
    fn expand_to_prime_yields_prime(f in arb_cover(), idx in 0usize..8) {
        if !f.is_empty() {
            let c = &f.cubes()[idx % f.len()];
            let p = f.expand_to_prime(c);
            prop_assert!(f.is_prime(&p));
            prop_assert!(p.contains(c));
        }
    }

    #[test]
    fn without_contained_cubes_preserves_semantics_and_structure(f in arb_cover()) {
        let g = f.without_contained_cubes();
        prop_assert!(g.equivalent(&f));
        // No cube contains another.
        for (i, a) in g.cubes().iter().enumerate() {
            for (j, b) in g.cubes().iter().enumerate() {
                if i != j {
                    prop_assert!(!a.contains(b));
                }
            }
        }
    }

    #[test]
    fn and_or_match_semantics(f in arb_cover(), g in arb_cover()) {
        let fs = cover_set(&f);
        let gs = cover_set(&g);
        let fo = f.or(&g);
        let fa = f.and(&g);
        for m in 0..(1usize << NVARS) {
            prop_assert_eq!(fo.eval(&assignment(m)), fs.contains(&m) || gs.contains(&m));
            prop_assert_eq!(fa.eval(&assignment(m)), fs.contains(&m) && gs.contains(&m));
        }
    }

    #[test]
    fn truth_table_matches_eval(f in arb_cover()) {
        let tt = f.truth_table();
        for m in 0..(1usize << NVARS) {
            prop_assert_eq!(tt.get(m), f.eval(&assignment(m)));
        }
    }
}

/// Widths that put cubes in inline 2-word, heap 3-word and heap 5-word
/// storage.
const WIDE: [usize; 3] = [70, 130, 300];

/// Per-variable literal codes: 0 is a negative literal, 1 a positive one,
/// anything else a don't-care (so about a quarter of the variables are
/// bound).
fn literal_of(code: u8) -> Option<Phase> {
    match code {
        0 => Some(Phase::Neg),
        1 => Some(Phase::Pos),
        _ => None,
    }
}

fn cube_of(nvars: usize, lits: &[Option<Phase>]) -> Cube {
    Cube::from_literals(
        nvars,
        lits.iter()
            .enumerate()
            .filter_map(|(v, l)| l.map(|p| (VarId(v), p))),
    )
}

fn bits_of(nvars: usize, set: impl Fn(usize) -> bool) -> Bits {
    let mut b = Bits::new(nvars);
    for v in 0..nvars {
        b.set(v, set(v));
    }
    b
}

proptest! {
    #[test]
    fn wide_word_kernels_match_per_variable_definitions(
        width in 0usize..3,
        codes_a in prop::collection::vec(0u8..8, 300..301),
        codes_b in prop::collection::vec(0u8..8, 300..301),
        edits in prop::collection::vec((0usize..300, 0u8..3), 0..3),
    ) {
        let nvars = WIDE[width];
        // `b` binds every literal of `a` plus its own, so `a ⊇ b` and the
        // two agree until the edits flip, drop or add literals in `b`
        // (anywhere, including the upper words).
        let la: Vec<Option<Phase>> = codes_a[..nvars].iter().map(|&c| literal_of(c)).collect();
        let mut lb: Vec<Option<Phase>> = la
            .iter()
            .zip(&codes_b)
            .map(|(&l, &c)| l.or(literal_of(c)))
            .collect();
        let mut assignment_flips = Vec::new();
        for &(pos, kind) in &edits {
            let v = pos % nvars;
            match kind {
                0 => lb[v] = lb[v].map(Phase::flipped),
                1 => lb[v] = None,
                _ => assignment_flips.push(v),
            }
        }
        let (a, b) = (cube_of(nvars, &la), cube_of(nvars, &lb));

        let contains = |x: &[Option<Phase>], y: &[Option<Phase>]| {
            x.iter().zip(y).all(|(l, m)| l.is_none() || l == m)
        };
        prop_assert_eq!(a.contains(&b), contains(&la, &lb));
        prop_assert_eq!(b.contains(&a), contains(&lb, &la));

        let conflicts = la
            .iter()
            .zip(&lb)
            .filter(|(l, m)| matches!((l, m), (Some(p), Some(q)) if p != q))
            .count() as u32;
        prop_assert_eq!(a.distance(&b), conflicts);
        prop_assert_eq!(b.distance(&a), conflicts);
        prop_assert_eq!(a.conflicts_with(&b), conflicts > 0);

        // An assignment inside `a` (don't-cares from `codes_b`), then
        // perturbed at the edit positions.
        let asg = bits_of(nvars, |v| {
            la[v].map_or(codes_b[v] & 1 == 1, Phase::is_pos) ^ assignment_flips.contains(&v)
        });
        for (c, l) in [(&a, &la), (&b, &lb)] {
            let want = (0..nvars).all(|v| l[v].is_none_or(|p| asg.get(v) == p.is_pos()));
            prop_assert_eq!(c.eval(&asg), want);
        }

        let (ua, ub) = (a.used(), b.used());
        prop_assert_eq!(ua.is_subset(ub), (0..nvars).all(|v| !ua.get(v) || ub.get(v)));
        prop_assert_eq!(ub.is_subset(ua), (0..nvars).all(|v| !ub.get(v) || ua.get(v)));
        // `a`'s don't-cares plus the edit positions: disjoint from `a`'s
        // literals unless an edit landed on one.
        let free = bits_of(nvars, |v| {
            la[v].is_none() || edits.iter().any(|&(p, _)| p % nvars == v)
        });
        prop_assert_eq!(
            ua.is_disjoint(&free),
            (0..nvars).all(|v| !(ua.get(v) && free.get(v)))
        );
    }
}
