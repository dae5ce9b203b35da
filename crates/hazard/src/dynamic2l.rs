//! Multi-input-change dynamic logic hazard analysis of two-level covers
//! (paper §4.2.1, procedure `findMicDynHaz2level`).
//!
//! Theorem 4.1: a two-level SOP implementation of `f` has a dynamic logic
//! hazard for the transition `α → β` (`f(α)=0`, `f(β)=1`) iff
//!
//! 1. the transition space `T[α, β]` is function-hazard-free, and
//! 2. some cube of the cover intersects `T[α, β]` but does not contain `β`.
//!
//! Instead of scanning all transition spaces, the procedure starts from
//! each *irredundant cube intersection*, walks to the adjacent subcubes by
//! complementing one care variable at a time, sorts them by function value,
//! and emits the minimal function-hazard-free transition spaces spanned by
//! each 0-side / 1-side pair. Dynamic hazards that are consequences of a
//! static 1-hazard are intentionally not re-reported (Example 4.2.3): they
//! are already fully characterized by the static-1 analysis.

use crate::function::disjoint;
use crate::Hazard;
use asyncmap_cube::{Bits, Cover, Cube};

/// The paper's `findMicDynHaz2level`: all m.i.c. dynamic logic hazards of a
/// two-level cover that are not the result of a static 1-hazard.
///
/// Each returned [`Hazard::DynamicMic`] describes the minimal
/// function-hazard-free transition space `T[zero_end, one_end]` built from
/// one irredundant cube intersection.
/// # Examples
///
/// ```
/// use asyncmap_cube::{Cover, VarTable};
/// use asyncmap_hazard::find_mic_dyn_haz_2level;
///
/// // Figure 10 / Example 4.2.4: one intersection, three hazards.
/// let vars = VarTable::from_names(["w", "x", "y", "z"]);
/// let f = Cover::parse("w'xz + w'xy + xyz", &vars)?;
/// assert_eq!(find_mic_dyn_haz_2level(&f).len(), 3);
/// # Ok::<(), asyncmap_cube::ParseSopError>(())
/// ```
pub fn find_mic_dyn_haz_2level(f: &Cover) -> Vec<Hazard> {
    let mut hazards: Vec<Hazard> = Vec::new();
    let complement = f.complement();
    for c in irredundant_intersections(f) {
        let mut alpha_c: Vec<Cube> = Vec::new();
        let mut beta_c: Vec<Cube> = Vec::new();
        for (v, _) in c.literals() {
            let d = c.with_var_flipped(v);
            if disjoint(f, &d) {
                push_unique(&mut alpha_c, d);
            } else if f.covers_cube(&d) {
                push_unique(&mut beta_c, d);
            } else {
                // Mixed-value neighbor (possible when the intersection is
                // not a minterm): descend into its constant-valued parts so
                // that endpoints stay function-pure.
                for g in complement.cubes() {
                    if let Some(e) = g.intersect(&d) {
                        push_unique(&mut alpha_c, e);
                    }
                }
                for cf in f.cubes() {
                    if let Some(e) = cf.intersect(&d) {
                        push_unique(&mut beta_c, e);
                    }
                }
            }
        }
        for i in &alpha_c {
            for j in &beta_c {
                // The witness cube c must be able to pulse during the
                // transition: it has to meet the transition space without
                // holding the settling endpoint (Theorem 4.1, condition 2).
                let space = i.supercube(j);
                if c.intersect(&space).is_none() || c.contains(j) {
                    continue;
                }
                let h = Hazard::DynamicMic {
                    space,
                    zero_end: i.clone(),
                    one_end: j.clone(),
                };
                if !hazards.contains(&h) {
                    hazards.push(h);
                }
            }
        }
    }
    hazards
}

fn push_unique(list: &mut Vec<Cube>, cube: Cube) {
    if !list.contains(&cube) {
        list.push(cube);
    }
}

/// The deduplicated pairwise cube intersections of a cover: nonempty
/// intersections of two cubes at distinct positions.
///
/// Containment pairs are *included*: a cube contained in another can still
/// glitch visibly during a dynamic transition, because its container is
/// itself switching (e.g. in `b + ab`, the gate `ab` pulses on the burst
/// `a↓ b↑` before `b` turns on). Intersections whose neighborhood contains
/// no 0-valued subcube produce no descriptors and are filtered naturally.
pub fn irredundant_intersections(f: &Cover) -> Vec<Cube> {
    let cubes = f.cubes();
    let mut out: Vec<Cube> = Vec::new();
    for i in 0..cubes.len() {
        for j in (i + 1)..cubes.len() {
            if let Some(c) = cubes[i].intersect(&cubes[j]) {
                if !c.is_universe() && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Theorem 4.1, condition 2, as a per-transition predicate: `true` iff some
/// cube of `f` intersects `space` without containing the settling 1-valued
/// endpoint `one_end` — i.e. the two-level implementation has a dynamic
/// hazard on every function-hazard-free transition from/to `one_end`
/// across `space`.
pub fn mic_dynamic_hazard_on(f: &Cover, space: &Cube, one_end: &Bits) -> bool {
    let end = Cube::minterm(one_end);
    f.cubes()
        .iter()
        .any(|c| c.intersect(space).is_some() && !c.contains(&end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    fn cover(text: &str, vars: &VarTable) -> Cover {
        Cover::parse(text, vars).unwrap()
    }

    fn cube(text: &str, vars: &VarTable) -> Cube {
        Cube::parse(text, vars).unwrap()
    }

    #[test]
    fn figure10_worked_example() {
        // Paper Example 4.2.4 / Figure 10: f = w'xz + w'xy + xyz.
        // Only irredundant intersection: w'xyz. Adjacent subcubes:
        // α = {w'x'yz}, β = {w'xy'z, wxyz, w'xyz'}.
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = cover("w'xz + w'xy + xyz", &vars);
        let inter = irredundant_intersections(&f);
        assert_eq!(inter, vec![cube("w'xyz", &vars)]);
        let hz = find_mic_dyn_haz_2level(&f);
        assert_eq!(hz.len(), 3);
        let zero = cube("w'x'yz", &vars);
        for h in &hz {
            let Hazard::DynamicMic {
                space,
                zero_end,
                one_end,
            } = h
            else {
                panic!("wrong kind")
            };
            assert_eq!(zero_end, &zero);
            assert_eq!(space, &zero.supercube(one_end));
        }
        let one_ends: Vec<&Cube> = hz
            .iter()
            .map(|h| match h {
                Hazard::DynamicMic { one_end, .. } => one_end,
                _ => unreachable!(),
            })
            .collect();
        for want in ["w'xy'z", "wxyz", "w'xyz'"] {
            assert!(one_ends.contains(&&cube(want, &vars)), "missing {want}");
        }
    }

    #[test]
    fn figure8_condition2_transition() {
        // Paper Example 4.2.2: f = w'xz + w'xy + xyz, transition
        // T[α, γ] with α = w'x'y'z and γ = w'xyz'. Cubes w'xz and xyz
        // intersect T without containing γ → dynamic hazard.
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = cover("w'xz + w'xy + xyz", &vars);
        let alpha = cube("w'x'y'z", &vars);
        let gamma = cube("w'xyz'", &vars);
        let space = alpha.supercube(&gamma);
        let mut gamma_bits = asyncmap_cube::Bits::new(4);
        gamma_bits.set(1, true); // x
        gamma_bits.set(2, true); // y
        assert!(mic_dynamic_hazard_on(&f, &space, &gamma_bits));
    }

    #[test]
    fn figure8_hazard_free_transition() {
        // T[β, δ] in the same figure has no dynamic hazard: the settle
        // point δ = w'xyz lies in all three cubes, so whichever gate turns
        // on first holds the output high while the rest settle.
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = cover("w'xz + w'xy + xyz", &vars);
        let beta = cube("w'x'y'z'", &vars);
        let delta = cube("w'xyz", &vars);
        let space = beta.supercube(&delta);
        let mut delta_bits = asyncmap_cube::Bits::new(4);
        delta_bits.set(1, true); // x
        delta_bits.set(2, true); // y
        delta_bits.set(3, true); // z
        assert!(!mic_dynamic_hazard_on(&f, &space, &delta_bits));
    }

    #[test]
    fn single_cube_has_no_mic_dynamic_hazard() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("abc", &vars);
        assert!(find_mic_dyn_haz_2level(&f).is_empty());
        assert!(irredundant_intersections(&f).is_empty());
    }

    #[test]
    fn disjoint_cubes_have_no_intersections() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("ab + a'c", &vars);
        assert!(irredundant_intersections(&f).is_empty());
        assert!(find_mic_dyn_haz_2level(&f).is_empty());
    }

    #[test]
    fn contained_cube_pulse_is_detected() {
        // b + ab: the gate ab pulses on the burst a↓ b↑ (from ab' to a'b)
        // before the b gate turns on — a real dynamic hazard even though
        // ab is a redundant, contained cube.
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = cover("b + ab", &vars);
        let inter = irredundant_intersections(&f);
        assert_eq!(inter, vec![cube("ab", &vars)]);
        let hz = find_mic_dyn_haz_2level(&f);
        assert!(
            hz.iter().any(|h| {
                let Hazard::DynamicMic {
                    zero_end, one_end, ..
                } = h
                else {
                    return false;
                };
                *zero_end == cube("ab'", &vars) && *one_end == cube("a'b", &vars)
            }),
            "{hz:?}"
        );
    }

    #[test]
    fn figure4a_mux_dynamic_hazard() {
        // Figure 4a: wy + xy' glitches for the {w,x} burst with y changing?
        // The classic mux hazard: cubes wy and xy' intersect at wxy·y'? No —
        // they conflict in y. The mux hazard wy + xy' is the static-1 case
        // on wx. The dynamic-m.i.c. example needs intersecting cubes:
        // f = wy + wx (intersecting at wxy).
        let vars = VarTable::from_names(["w", "x", "y"]);
        let f = cover("wy + wx", &vars);
        let hz = find_mic_dyn_haz_2level(&f);
        // Intersection wxy; neighbor w'xy is off f? w'xy: wy no, wx no → α.
        // Neighbors wx'y (wy ⊇? w=1,y=1 yes → β), wxy' (wx → β).
        assert_eq!(hz.len(), 2);
    }

    #[test]
    fn published_procedure_gap() {
        // A documented incompleteness of the published procedure, found by
        // the brute-force Theorem-4.1 oracle during this reproduction: in
        // f = b + a' + a'bc (function a' + b), every distance-1 neighbor of
        // the intersection cube a'bc has function value 1, so the procedure
        // emits no descriptor — yet the burst a↓ b↑ c↓ from ab'c to a'bc'
        // really can pulse the redundant gate a'bc (the off-set ab' is at
        // distance 2 from the intersection). The exhaustive waveform
        // comparison used by the matcher is immune to this gap.
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let f = cover("b + a' + a'bc", &vars);
        assert!(find_mic_dyn_haz_2level(&f).is_empty());
        let brute = asyncmap_oracle::brute_mic_dynamic_transitions(&f);
        // α = ab'c (a=1, c=1 → index 0b0101), β = a'bc' (b=1 → 0b0010).
        assert!(brute.contains(&(0b0101, 0b0010)));
    }

    #[test]
    fn mixed_neighbors_are_descended() {
        // Construct f where a neighbor subcube of the intersection takes
        // both values: intersection with a free variable.
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        // ab ∩ bc = abc (d free). Neighbor a'bc: f = ab + bc + ad?
        // a'bc ⊆ bc → β. Use f = ab + bc + a'b'd:
        // neighbor ab'c: ab no, bc no, a'b'd no (a=1) → α (disjoint) ok...
        // neighbor abc' : ab ⊇ → β. neighbor a'bc: bc ⊇ → β.
        let f = cover("ab + bc + a'b'd", &vars);
        let hz = find_mic_dyn_haz_2level(&f);
        // All descriptors must have function-value-pure endpoints.
        for h in &hz {
            let Hazard::DynamicMic {
                zero_end, one_end, ..
            } = h
            else {
                panic!()
            };
            assert!(disjoint(&f, zero_end));
            assert!(f.covers_cube(one_end));
        }
    }
}
