//! Function-hazard tests (paper §2.3, §4.2.1).
//!
//! Function hazards are a property of the function, not the implementation;
//! the logic-hazard algorithms use these predicates to restrict attention to
//! function-hazard-free transition spaces (Theorem 4.1, condition 1).

use asyncmap_cube::{Bits, Cover, Cube};

/// `true` iff the *static* transition across the whole cube `space` is free
/// of function hazards, i.e. `f` is constant on `space`.
pub fn static_function_hazard_free(f: &Cover, space: &Cube) -> bool {
    f.covers_cube(space) || disjoint(f, space)
}

/// `true` iff `f` intersects no minterm of `cube`.
pub fn disjoint(f: &Cover, cube: &Cube) -> bool {
    f.cubes().iter().all(|c| c.intersect(cube).is_none())
}

/// `true` iff the *dynamic* transition from minterm `alpha` to minterm
/// `beta` is free of function hazards: the function changes monotonically
/// along every change order.
///
/// With `f(α) = 0` and `f(β) = 1`, the transition has a function hazard iff
/// there are points `x ≼ y` on some monotone path (i.e. `y ∈ T[x, β]`) with
/// `f(x) = 1` and `f(y) = 0`; this enumeration is exponential only in the
/// Hamming distance of the transition, which is the burst width.
///
/// # Panics
///
/// Panics if `alpha`/`beta` are not minterms, if the endpoints have equal
/// function value, or if the burst is wider than 16 inputs.
pub fn dynamic_function_hazard_free(f: &Cover, alpha: &Bits, beta: &Bits) -> bool {
    let a = Cube::minterm(alpha);
    let b = Cube::minterm(beta);
    let (fa, fb) = (f.eval(alpha), f.eval(beta));
    assert_ne!(fa, fb, "dynamic transition requires f(α) ≠ f(β)");
    // Orient so the transition is 0 → 1.
    let (start, end) = if fa { (beta, alpha) } else { (alpha, beta) };
    let space = a.supercube(&b);
    let width = alpha.len() - space.num_literals() as usize;
    assert!(width <= 16, "burst width {width} too wide to enumerate");
    let end_cube = Cube::minterm(end);
    let _ = start;
    // Function hazard iff some x in T with f(x)=1 has a successor y in
    // T[x, end] with f(y)=0.
    for x in space.minterms() {
        if !f.eval(&x) {
            continue;
        }
        let tail = Cube::minterm(&x).supercube(&end_cube);
        for y in tail.minterms() {
            if !f.eval(&y) {
                return false;
            }
        }
    }
    true
}

/// `true` iff the transition from `alpha` to `beta` (any relation between
/// the endpoint values) has no function hazard.
pub fn transition_function_hazard_free(f: &Cover, alpha: &Bits, beta: &Bits) -> bool {
    let (fa, fb) = (f.eval(alpha), f.eval(beta));
    if fa == fb {
        let space = Cube::minterm(alpha).supercube(&Cube::minterm(beta));
        // Static: f must be constant on the space.
        if fa {
            f.covers_cube(&space)
        } else {
            disjoint(f, &space)
        }
    } else {
        dynamic_function_hazard_free(f, alpha, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn static_hazard_free_on_covered_space() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'b", &vars).unwrap();
        let b_space = Cube::parse("b", &vars).unwrap();
        assert!(static_function_hazard_free(&f, &b_space));
        let mixed = Cube::universe(3);
        assert!(!static_function_hazard_free(&f, &mixed));
        let off = Cube::parse("b'", &vars).unwrap();
        assert!(static_function_hazard_free(&f, &off));
    }

    #[test]
    fn figure7_dynamic_function_hazard() {
        // Paper Figure 8: f = w'xz + w'xy + xyz over (w,x,y,z).
        // The transition T[β,γ] has a function hazard when changes occur in
        // the order X↑ Z↓ Y↑.
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
        // β = w'x'y'z (f=0) → γ = w'xyz' (f=1): x,y,z all change.
        let beta = Bits::from_index(4, 0b1000); // z=1 only
        let gamma = Bits::from_index(4, 0b0110); // x=1,y=1
        assert!(!f.eval(&beta));
        assert!(f.eval(&gamma));
        // Path x↑ then z↓ then y↑ goes 0→1→0→1: function hazard.
        assert!(!dynamic_function_hazard_free(&f, &beta, &gamma));
    }

    #[test]
    fn monotone_transition_is_function_hazard_free() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a + b", &vars).unwrap();
        // 00 → 11 : f goes 0 then 1 and stays 1 along any order.
        assert!(dynamic_function_hazard_free(
            &f,
            &Bits::from_index(2, 0),
            &Bits::from_index(2, 3)
        ));
    }

    #[test]
    fn orientation_is_symmetric() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a + b", &vars).unwrap();
        assert!(dynamic_function_hazard_free(
            &f,
            &Bits::from_index(2, 3),
            &Bits::from_index(2, 0)
        ));
    }

    #[test]
    fn transition_dispatch() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("ab", &vars).unwrap();
        // 0→0 static across a: f zero on a'b' .. ab'? space = b'; f
        // disjoint from b' → hazard-free.
        assert!(transition_function_hazard_free(
            &f,
            &Bits::from_index(2, 0),
            &Bits::from_index(2, 1)
        ));
        // XOR has a function hazard on the double change 00 → 11.
        let x = Cover::parse("ab' + a'b", &vars).unwrap();
        assert!(!transition_function_hazard_free(
            &x,
            &Bits::from_index(2, 0),
            &Bits::from_index(2, 3)
        ));
    }

    #[test]
    #[should_panic(expected = "requires f(α) ≠ f(β)")]
    fn dynamic_requires_differing_endpoints() {
        let vars = VarTable::from_names(["a"]);
        let f = Cover::parse("a", &vars).unwrap();
        dynamic_function_hazard_free(&f, &Bits::from_index(1, 1), &Bits::from_index(1, 1));
    }
}
