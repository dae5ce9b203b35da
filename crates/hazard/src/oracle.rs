//! Brute-force reference implementations used to validate the fast hazard
//! algorithms in tests and benchmarks. Everything here enumerates minterm
//! pairs and is exponential in the variable count — use only on small
//! spaces.

use crate::function::dynamic_function_hazard_free;
use asyncmap_cube::{Bits, Cover, Cube};

/// All static 1-hazardous transitions of a two-level cover: ordered pairs
/// `(α, β)` of distinct minterms with `f ≡ 1` on `T[α, β]` but no single
/// cube containing the span. Returned as `(α, β)` index pairs with `α < β`.
pub fn brute_static1_transitions(f: &Cover) -> Vec<(usize, usize)> {
    let n = f.nvars();
    assert!(n <= 12, "oracle limited to 12 variables");
    let size = 1usize << n;
    let mut out = Vec::new();
    for a in 0..size {
        let ba = index_bits(n, a);
        if !f.eval(&ba) {
            continue;
        }
        for b in (a + 1)..size {
            let bb = index_bits(n, b);
            if !f.eval(&bb) {
                continue;
            }
            let span = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
            if !f.covers_cube(&span) {
                continue; // function hazard, not a logic hazard
            }
            if !f.single_cube_contains(&span) {
                out.push((a, b));
            }
        }
    }
    out
}

/// All m.i.c. dynamic-hazardous transitions of a two-level cover per
/// Theorem 4.1: ordered pairs `(α, β)` with `f(α) = 0`, `f(β) = 1`, a
/// function-hazard-free transition space, and a cube intersecting the space
/// without containing `β`.
pub fn brute_mic_dynamic_transitions(f: &Cover) -> Vec<(usize, usize)> {
    let n = f.nvars();
    assert!(n <= 12, "oracle limited to 12 variables");
    let size = 1usize << n;
    let mut out = Vec::new();
    for a in 0..size {
        let ba = index_bits(n, a);
        if f.eval(&ba) {
            continue;
        }
        for b in 0..size {
            if a == b {
                continue;
            }
            let bb = index_bits(n, b);
            if !f.eval(&bb) {
                continue;
            }
            if !dynamic_function_hazard_free(f, &ba, &bb) {
                continue;
            }
            let space = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
            let beta_cube = Cube::minterm(&bb);
            let cond2 = f
                .cubes()
                .iter()
                .any(|c| c.intersect(&space).is_some() && !c.contains(&beta_cube));
            if cond2 {
                out.push((a, b));
            }
        }
    }
    out
}

/// `true` iff a minterm pair is a static-1-induced dynamic hazard: the
/// transition `(α, β)` (with `f(α)=0`, `f(β)=1`) passes next to an
/// uncovered 1-1 span, i.e. some 1-point of the space together with `β`
/// spans a statically hazardous region (Example 4.2.3).
pub fn is_static1_induced(f: &Cover, alpha: &Bits, beta: &Bits) -> bool {
    let space = Cube::minterm(alpha).supercube(&Cube::minterm(beta));
    for m in space.minterms() {
        if !f.eval(&m) {
            continue;
        }
        let span = Cube::minterm(&m).supercube(&Cube::minterm(beta));
        if f.covers_cube(&span) && !f.single_cube_contains(&span) {
            return true;
        }
    }
    false
}

/// Builds the assignment whose bit `i` is bit `i` of `m`.
pub fn index_bits(nvars: usize, m: usize) -> Bits {
    let mut b = Bits::new(nvars);
    for v in 0..nvars {
        b.set(v, (m >> v) & 1 == 1);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn brute_static1_matches_consensus_example() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c", &vars).unwrap();
        let hz = brute_static1_transitions(&f);
        // Exactly the pair abc(0b111) / a'bc(0b110): span bc uncovered.
        assert_eq!(hz, vec![(0b110, 0b111)]);
        let fixed = Cover::parse("ab + a'c + bc", &vars).unwrap();
        assert!(brute_static1_transitions(&fixed).is_empty());
    }

    #[test]
    fn brute_mic_matches_figure10() {
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
        let hz = brute_mic_dynamic_transitions(&f);
        assert!(!hz.is_empty());
        // The transition w'x'yz → w'xy'z (α=0b1100, β=0b1010) is among
        // them: the intersection cube w'xyz construction of Example 4.2.4.
        assert!(hz.contains(&(0b1100, 0b1010)));
    }

    #[test]
    fn single_cube_cover_is_clean() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("abc", &vars).unwrap();
        assert!(brute_static1_transitions(&f).is_empty());
        assert!(brute_mic_dynamic_transitions(&f).is_empty());
    }
}
