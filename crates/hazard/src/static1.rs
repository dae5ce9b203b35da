//! Static logic 1-hazard analysis of two-level covers (paper §4.1.1).
//!
//! A static 1-hazard exists for a 1→1 transition exactly when no single
//! product term (gate) covers the whole transition span. The paper's
//! algorithm avoids full prime generation: it expands non-prime cubes,
//! then checks that every *cube adjacency* (consensus of a distance-1 pair,
//! formed with the `CONFLICTS` bit-vector trick) is contained in a single
//! cube of the cover.
//!
//! [`static_1_analysis`] is the paper's single pass; [`static_1_complete`]
//! iterates the consensus to closure, which is equivalent to requiring all
//! prime implicants to be present (Eichelberger's condition) and therefore
//! complete. The single pass can under-report hazards that need chained
//! consensus to expose; the mapper uses the complete form when certifying a
//! cover and the single pass when a fast filter is enough.

use crate::Hazard;
use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Cube};

/// The paper's `static_1_analysis` procedure: one pass of prime expansion
/// plus adjacency checking. Returns one [`Hazard::Static1`] per uncovered
/// transition span found (deduplicated).
///
/// # Examples
///
/// ```
/// use asyncmap_cube::{Cover, VarTable};
/// use asyncmap_hazard::static_1_analysis;
///
/// // Figure 2a: the consensus xyz is missing.
/// let vars = VarTable::from_names(["w", "x", "y", "z"]);
/// let f = Cover::parse("wxy + w'xz", &vars)?;
/// assert_eq!(static_1_analysis(&f).len(), 1);
/// let fixed = Cover::parse("wxy + w'xz + xyz", &vars)?;
/// assert!(static_1_analysis(&fixed).is_empty());
/// # Ok::<(), asyncmap_cube::ParseSopError>(())
/// ```
pub fn static_1_analysis(f: &Cover) -> Vec<Hazard> {
    let mut hazards: Vec<Cube> = Vec::new();
    // Work list: the cover's cubes, with non-primes replaced by their prime
    // expansion (flagging a hazard when the prime is not already present).
    let mut work: Vec<Cube> = Vec::new();
    for cube in f.cubes() {
        if cube.is_universe() {
            return Vec::new();
        }
        if f.is_prime(cube) {
            push_unique(&mut work, cube.clone());
            continue;
        }
        let prime = f.expand_to_prime(cube);
        if !f.single_cube_contains(&prime) {
            push_unique(&mut hazards, prime.clone());
        }
        push_unique(&mut work, prime);
    }
    // Generate all cube adjacencies and test single-cube coverage.
    let mut adjacencies: Vec<Cube> = Vec::new();
    for i in 0..work.len() {
        for j in (i + 1)..work.len() {
            if let Some(adj) = work[i].adjacency(&work[j]) {
                push_unique(&mut adjacencies, adj);
            }
        }
    }
    for adj in adjacencies {
        if !f.single_cube_contains(&adj) {
            push_unique(&mut hazards, adj);
        }
    }
    hazards
        .into_iter()
        .map(|span| Hazard::Static1 { span })
        .collect()
}

/// Complete static 1-hazard characterization: every prime implicant of the
/// function that is not contained in a single cube of the cover is an
/// uncovered transition span (and every hazardous transition lies inside
/// one such prime).
pub fn static_1_complete(f: &Cover) -> Vec<Hazard> {
    f.all_primes()
        .into_iter()
        .filter(|p| !f.single_cube_contains(p))
        .map(|span| Hazard::Static1 { span })
        .collect()
}

/// `true` iff the cover is free of multi-input-change static logic
/// 1-hazards, i.e. it contains all its prime implicants
/// (Eichelberger's necessary-and-sufficient condition, paper §2.3).
pub fn is_static_1_hazard_free(f: &Cover) -> bool {
    static_1_complete(f).is_empty()
}

/// Decides whether the specific 1→1 transition spanning `space` is free of
/// static 1-hazards in cover `f`.
///
/// Returns `true` when a single cube holds the output through the
/// transition. The caller is responsible for `space` being an implicant
/// (otherwise the transition has a function hazard and logic-hazard
/// analysis does not apply).
pub fn static_1_free_on(f: &Cover, space: &Cube) -> bool {
    f.single_cube_contains(space)
}

/// Exact containment of static-1 hazard behavior between two covers of the
/// *same function* (paper Theorem 3.2 specialized to static 1-hazards):
/// every 1→1 transition that is hazard-free in `reference` is hazard-free
/// in `candidate` — equivalently `hazards(candidate) ⊆ hazards(reference)`.
///
/// A transition is hazard-free in a cover iff a single cube contains it, so
/// the containment holds iff every cube of `reference` is contained in a
/// single cube of `candidate`.
pub fn static1_subset(candidate: &Cover, reference: &Cover) -> bool {
    reference
        .cubes()
        .iter()
        .all(|s| candidate.single_cube_contains(s))
}

/// Upper bound on [`product_estimate`] above which a hazard-preserving
/// flattening (and the [`static1_subset`] check that rides on it) is
/// skipped rather than risk an exponential distribution.
pub const FLATTEN_REPLAY_CAP: u64 = 4096;

/// Number of products that hazard-preserving distribution of `expr`
/// produces, computed by independent arithmetic over the expression shape
/// (Or under even negations sums, And multiplies; the dual under odd
/// negations; a constant counts 1 where it is true, 0 where it is false),
/// saturating at `u64::MAX`.
pub fn product_estimate(expr: &Expr) -> u64 {
    fn go(e: &Expr, neg: bool) -> u64 {
        match e {
            Expr::Const(b) => u64::from(*b != neg),
            Expr::Var(_) => 1,
            Expr::Not(inner) => go(inner, !neg),
            Expr::And(es) if !neg => es.iter().fold(1u64, |p, e| p.saturating_mul(go(e, neg))),
            Expr::Or(es) if neg => es.iter().fold(1u64, |p, e| p.saturating_mul(go(e, neg))),
            Expr::And(es) | Expr::Or(es) => {
                es.iter().fold(0u64, |s, e| s.saturating_add(go(e, neg)))
            }
        }
    }
    go(expr, false)
}

fn push_unique(list: &mut Vec<Cube>, cube: Cube) {
    if !list.contains(&cube) {
        list.push(cube);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    fn cover(text: &str, vars: &VarTable) -> Cover {
        Cover::parse(text, vars).unwrap()
    }

    #[test]
    fn figure2a_sic_static_1_hazard() {
        // Paper Figure 2a: f = wxy + w'xz has a hazard between w'xyz and
        // wxyz (the consensus xyz is uncovered).
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = cover("wxy + w'xz", &vars);
        let hz = static_1_analysis(&f);
        assert_eq!(hz.len(), 1);
        let Hazard::Static1 { span } = &hz[0] else {
            panic!("wrong kind")
        };
        assert_eq!(span, &Cube::parse("xyz", &vars).unwrap());
        // Adding the consensus gate removes the hazard.
        let fixed = cover("wxy + w'xz + xyz", &vars);
        assert!(static_1_analysis(&fixed).is_empty());
        assert!(is_static_1_hazard_free(&fixed));
    }

    #[test]
    fn figure2b_mic_static_1_hazard() {
        // Paper Figure 2b: f = w'x' + y'z + w'y + xz, transition from
        // α = w'x'y'z to β = w'xyz crosses gates with no single cover.
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = cover("w'x' + y'z + w'y + xz", &vars);
        let hz = static_1_complete(&f);
        assert!(!hz.is_empty());
        // The span w'z (containing both α and β) is an uncovered prime.
        let wz = Cube::parse("w'z", &vars).unwrap();
        assert!(f.covers_cube(&wz));
        assert!(!f.single_cube_contains(&wz));
        assert!(!static_1_free_on(&f, &wz));
    }

    #[test]
    fn all_primes_present_is_hazard_free() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("ab + a'c", &vars);
        assert!(!is_static_1_hazard_free(&f));
        let complete = cover("ab + a'c + bc", &vars);
        assert!(is_static_1_hazard_free(&complete));
    }

    #[test]
    fn nonprime_cube_flags_hazard() {
        // In f = abc + a'b the cube abc is not prime: it expands to the
        // prime bc (jointly covered by abc and a'b), which is missing from
        // the cover, so transitions inside bc are hazardous.
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("abc + a'b", &vars);
        let hz = static_1_analysis(&f);
        assert!(hz.iter().any(
            |h| matches!(h, Hazard::Static1 { span } if *span == Cube::parse("bc", &vars).unwrap())
        ));
    }

    #[test]
    fn single_pass_matches_complete_on_simple_cases() {
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        for text in ["wxy + w'xz", "wx + w'y", "wx + x'y + wy"] {
            let f = cover(text, &vars);
            let single: Vec<_> = static_1_analysis(&f);
            let complete: Vec<_> = static_1_complete(&f);
            assert_eq!(
                single.is_empty(),
                complete.is_empty(),
                "disagreement on {text}"
            );
        }
    }

    #[test]
    fn subset_check_matches_figure3() {
        // Figure 3: original = ab + a'c + bc (hazard-free),
        // candidate = ab + a'c (introduces a static-1 hazard) -> rejected.
        let vars = VarTable::from_names(["a", "b", "c"]);
        let original = cover("ab + a'c + bc", &vars);
        let candidate = cover("ab + a'c", &vars);
        assert!(!static1_subset(&candidate, &original));
        // The other direction is fine: the hazard-free cover's hazards
        // (none) are a subset of the hazardous cover's.
        assert!(static1_subset(&original, &candidate));
        // Identical structure is always accepted.
        assert!(static1_subset(&original, &original));
    }

    #[test]
    fn tautology_cover_has_no_hazards() {
        let vars = VarTable::from_names(["a"]);
        let f = cover("a + a' + 1", &vars);
        assert!(static_1_analysis(&f).is_empty());
    }

    #[test]
    fn single_cube_cover_is_hazard_free() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("abc", &vars);
        assert!(static_1_analysis(&f).is_empty());
        assert!(is_static_1_hazard_free(&f));
    }
}
