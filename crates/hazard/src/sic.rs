//! Static 0-hazard and single-input-change dynamic hazard analysis
//! (paper §4.1.2 and §4.2.3).
//!
//! Both hazard classes come from *vacuous terms*: after path labeling and
//! hazard-preserving flattening, a product containing a variable through two
//! paths in opposite phases (`…·yᵢ'·yⱼ·…`) can pulse while `y` changes.
//!
//! * If every other (proper) product is 0 for both values of `y`, the pulse
//!   appears on a steady-0 output: a **static 0-hazard**.
//! * If exactly one other product switches monotonically with `y`, the
//!   pulse can overlap the expected clean edge: a **s.i.c. dynamic hazard**.
//!
//! Sensitizability of the surrounding condition is decided with a BDD over
//! the original variables, and the set of sensitizing assignments is
//! reported as a cover.

use crate::Hazard;
use asyncmap_bdd::{with_thread_manager, Manager, Ref};
use asyncmap_bff::{Expr, PathSop};
use asyncmap_cube::{Cube, Phase, VarId};

/// Result of the path-based analysis.
#[derive(Debug, Clone, Default)]
pub struct SicAnalysis {
    /// Static 0-hazards found.
    pub static0: Vec<Hazard>,
    /// Single-input-change dynamic hazards found.
    pub dynamic_sic: Vec<Hazard>,
}

/// Maximum condition minterms examined per descriptor during waveform
/// confirmation.
const CONFIRM_CAP: u64 = 4096;

/// Analyzes `expr` (over `nvars` original variables) for static 0-hazards
/// and s.i.c. dynamic hazards.
///
/// The raw path-product conditions are *confirmed on the actual structure*
/// with the waveform oracle before being reported: distribution can invent
/// product pulses that a shared OR gate physically masks (e.g. in
/// `(w + x')(x + y)` with `w = 1` the first OR is pinned at 1 and the
/// output follows `x` cleanly, even though the flattened form contains the
/// pulsing product `x'x`).
pub fn find_sic_hazards(expr: &Expr, nvars: usize) -> SicAnalysis {
    let ps = PathSop::of(expr);
    let raw = find_sic_hazards_raw(&ps, nvars);
    SicAnalysis {
        static0: confirm(raw.static0, expr, nvars, |w| w.is_static_hazard()),
        dynamic_sic: confirm(raw.dynamic_sic, expr, nvars, |w| w.is_dynamic_hazard()),
    }
}

fn confirm(
    hazards: Vec<Hazard>,
    expr: &Expr,
    nvars: usize,
    accept: impl Fn(crate::Wave) -> bool,
) -> Vec<Hazard> {
    let mut out = Vec::new();
    for h in hazards {
        let (var, condition) = match &h {
            Hazard::Static0 { var, condition } => (*var, condition),
            Hazard::DynamicSic { var, condition, .. } => (*var, condition),
            _ => {
                out.push(h);
                continue;
            }
        };
        let mut kept = asyncmap_cube::Cover::zero(nvars);
        for cube in condition.cubes() {
            if cube.num_minterms() > CONFIRM_CAP {
                // Too large to confirm: keep the raw condition
                // (conservative over-report).
                kept.push(cube.clone());
                continue;
            }
            for m in cube.minterms() {
                let mut from = m.clone();
                from.set(var.index(), false);
                let mut to = m.clone();
                to.set(var.index(), true);
                let confirmed = accept(crate::wave_eval(expr, &from, &to))
                    || accept(crate::wave_eval(expr, &to, &from));
                if confirmed {
                    let mut ctx = Cube::minterm(&m);
                    ctx = ctx.without_var(var);
                    if !kept.cubes().contains(&ctx) {
                        kept.push(ctx);
                    }
                }
            }
        }
        if !kept.is_empty() {
            let kept = kept.without_contained_cubes();
            out.push(match h {
                Hazard::Static0 { var, .. } => Hazard::Static0 {
                    var,
                    condition: kept,
                },
                Hazard::DynamicSic { var, rising, .. } => Hazard::DynamicSic {
                    var,
                    rising,
                    condition: kept,
                },
                other => other,
            });
        }
    }
    out
}

/// The unfiltered path-product analysis: sound for two-level structures,
/// conservative (may over-report) for factored ones. Exposed for the
/// ablation benchmarks; [`find_sic_hazards`] is the confirmed form.
pub fn find_sic_hazards_raw(ps: &PathSop, nvars: usize) -> SicAnalysis {
    with_thread_manager(nvars, |mgr| sic_hazards_in(mgr, ps))
}

fn sic_hazards_in(mgr: &mut Manager, ps: &PathSop) -> SicAnalysis {
    let products = ps.cover.cubes();
    // Classify products once.
    let vacuous_vars: Vec<Vec<VarId>> = products.iter().map(|c| ps.vacuous_in(c)).collect();

    let mut out = SicAnalysis::default();
    for (ti, t) in products.iter().enumerate() {
        for &v in &vacuous_vars[ti] {
            // Condition: the non-v literals of t all at 1.
            let cond_t = product_without_var(mgr, ps, t, v);
            if cond_t == Ref::ZERO {
                continue; // the rest of t clashes too; never sensitizable
            }
            // Static-0: all proper products 0 at both values of v.
            let mut others_quiet = Ref::ONE;
            for (qi, q) in products.iter().enumerate() {
                if qi == ti || !vacuous_vars[qi].is_empty() {
                    continue; // vacuous products are never steadily 1
                }
                for value in [false, true] {
                    let qv = product_with_var_fixed(mgr, ps, q, v, value);
                    let nqv = mgr.not(qv);
                    others_quiet = mgr.and(others_quiet, nqv);
                }
            }
            let static0_cond = mgr.and(cond_t, others_quiet);
            if static0_cond != Ref::ZERO {
                out.static0.push(Hazard::Static0 {
                    var: v,
                    condition: mgr.to_cover(static0_cond),
                });
            }

            // Dynamic s.i.c.: one proper product u switches with v, the
            // remaining proper products stay 0 for both values of v.
            for (ui, u) in products.iter().enumerate() {
                if ui == ti || !vacuous_vars[ui].is_empty() {
                    continue;
                }
                let Some(_u_phase) = single_phase_of(ps, u, v) else {
                    continue; // u does not depend on v
                };
                let cond_u = product_without_var(mgr, ps, u, v);
                if cond_u == Ref::ZERO {
                    continue;
                }
                let mut rest_quiet = Ref::ONE;
                for (qi, q) in products.iter().enumerate() {
                    if qi == ti || qi == ui || !vacuous_vars[qi].is_empty() {
                        continue;
                    }
                    for value in [false, true] {
                        let qv = product_with_var_fixed(mgr, ps, q, v, value);
                        let nqv = mgr.not(qv);
                        rest_quiet = mgr.and(rest_quiet, nqv);
                    }
                }
                let sens = mgr.and(cond_t, cond_u);
                let sens = mgr.and(sens, rest_quiet);
                if sens != Ref::ZERO {
                    let condition = mgr.to_cover(sens);
                    let hazard = Hazard::DynamicSic {
                        var: v,
                        rising: true,
                        condition,
                    };
                    if !out.dynamic_sic.contains(&hazard) {
                        out.dynamic_sic.push(hazard);
                    }
                }
            }
        }
    }
    dedup_merge(&mut out.static0);
    out
}

/// BDD of a path product with the literals of original variable `v`
/// removed: the conjunction of the product's other literals, mapped back to
/// original variables.
fn product_without_var(mgr: &mut Manager, ps: &PathSop, product: &Cube, v: VarId) -> Ref {
    let mut acc = Ref::ONE;
    for (p, phase) in product.literals() {
        let orig = ps.labeling.original(p);
        if orig == v {
            continue;
        }
        let lit = mgr.literal(orig, phase);
        acc = mgr.and(acc, lit);
    }
    acc
}

/// BDD of a path product with original variable `v` frozen to `value`:
/// the product is identically 0 if any of its `v` literals disagrees with
/// `value`, otherwise the conjunction of the remaining literals.
fn product_with_var_fixed(
    mgr: &mut Manager,
    ps: &PathSop,
    product: &Cube,
    v: VarId,
    value: bool,
) -> Ref {
    let mut acc = Ref::ONE;
    for (p, phase) in product.literals() {
        let orig = ps.labeling.original(p);
        if orig == v {
            if phase.is_pos() != value {
                return Ref::ZERO;
            }
            continue;
        }
        let lit = mgr.literal(orig, phase);
        acc = mgr.and(acc, lit);
    }
    acc
}

/// If `product` depends on original variable `v` through exactly one phase,
/// returns that phase; `None` if `v` is absent (a vacuous dependence would
/// have been classified already).
fn single_phase_of(ps: &PathSop, product: &Cube, v: VarId) -> Option<Phase> {
    let mut found: Option<Phase> = None;
    for (p, phase) in product.literals() {
        if ps.labeling.original(p) == v {
            match found {
                None => found = Some(phase),
                Some(f) if f == phase => {}
                Some(_) => return None, // vacuous in v
            }
        }
    }
    found
}

/// Merges duplicate static-0 descriptors on the same variable by OR-ing
/// their conditions.
fn dedup_merge(list: &mut Vec<Hazard>) {
    let mut merged: Vec<Hazard> = Vec::new();
    for h in list.drain(..) {
        let Hazard::Static0 { var, condition } = &h else {
            merged.push(h);
            continue;
        };
        if let Some(Hazard::Static0 {
            condition: existing,
            ..
        }) = merged
            .iter_mut()
            .find(|m| matches!(m, Hazard::Static0 { var: mv, .. } if mv == var))
        {
            *existing = existing.or(condition).without_contained_cubes();
        } else {
            merged.push(h);
        }
    }
    *list = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Bits, VarTable};

    #[test]
    fn figure6a_static_0_hazard() {
        // Paper Figure 6a (McCluskey p.91): a circuit whose SOP expansion
        // contains the vacuous term x·x'. f = (w + x)(x' + z) + y... use the
        // figure's condition: static-0 when w=0, y=1?? We reproduce the
        // canonical example: f = (w + x)(x' + z): vacuous product x·x',
        // sensitized when w = 0 and z = 0.
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + x)*(x' + z)", &mut vars).unwrap();
        let a = find_sic_hazards(&e, vars.len());
        assert_eq!(a.static0.len(), 1);
        let Hazard::Static0 { var, condition } = &a.static0[0] else {
            panic!()
        };
        assert_eq!(*var, vars.lookup("x").unwrap());
        // Sensitized exactly at w=0, z=0.
        let mut expect = Bits::new(3);
        let _ = &mut expect;
        let w = vars.lookup("w").unwrap();
        let z = vars.lookup("z").unwrap();
        let want = asyncmap_cube::Cover::from_cubes(
            3,
            vec![Cube::from_literals(3, [(w, Phase::Neg), (z, Phase::Neg)])],
        );
        assert!(condition.equivalent(&want));
    }

    #[test]
    fn figure6b_sic_dynamic_hazard() {
        // Paper Figure 6b: f = (w + y' + x')(xy + y'z) — the expression
        // reduces (w=0, x=z=1) to y₁'y₂ + y₁'y₃', giving a dynamic hazard
        // while y changes.
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + y' + x')*(x*y + y'*z)", &mut vars).unwrap();
        let a = find_sic_hazards(&e, vars.len());
        let y = vars.lookup("y").unwrap();
        assert!(
            a.dynamic_sic
                .iter()
                .any(|h| matches!(h, Hazard::DynamicSic { var, .. } if *var == y)),
            "expected a s.i.c. dynamic hazard on y: {a:?}"
        );
    }

    #[test]
    fn two_level_sop_has_no_sic_hazards() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let a = find_sic_hazards(&e, vars.len());
        assert!(a.static0.is_empty());
        assert!(a.dynamic_sic.is_empty());
    }

    #[test]
    fn unsensitizable_vacuous_term_is_no_hazard() {
        // (a + x)(x' + a): vacuous product x·x' needs... other literals of
        // the vacuous product: none besides x, x'. Other products: a·x',
        // a·x... wait distribute: a·x' + a·a + x·x' + x·a. For the vacuous
        // term to pulse alone we need a·x' = a·a = a·x = 0 for both values
        // of x → a = 0. Then the pulse is visible: static-0 on x IS
        // sensitizable. Use instead (a + x)(x' + 1)? Trivial. Take
        // f = (x + a)(x' + a): other products aa (=a) must be 0 → a=0; and
        // ax', ax must be 0 → a=0: sensitizable at a=0.
        // A truly unsensitizable case: f = (x + 1)(x' + a) has no vacuous
        // term after constant folding; instead force coverage:
        // f = (x + a)(x' + a) + a' — the extra gate a' is 1 whenever a=0,
        // so the pulse is masked and no static-0 hazard is reported.
        let mut vars = VarTable::new();
        let e = Expr::parse("(x + a)*(x' + a) + a'", &mut vars).unwrap();
        let a = find_sic_hazards(&e, vars.len());
        assert!(a.static0.is_empty(), "{a:?}");
    }

    #[test]
    fn figure4b_factored_mux_has_sic_hazards_only_for_y() {
        // Figure 4b: (w + y')(x + y). The vacuous product y'y is
        // sensitized when w = 0, x = 0 (both proper products then 0 for
        // both values of y? products: wx, wy, y'x, y'y. With w=0,x=0:
        // wx=0, wy=0, y'x=0 for any y: static-0 on y at w'x'.
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + y')*(x + y)", &mut vars).unwrap();
        let a = find_sic_hazards(&e, vars.len());
        assert_eq!(a.static0.len(), 1);
        let Hazard::Static0 { var, .. } = &a.static0[0] else {
            panic!()
        };
        assert_eq!(*var, vars.lookup("y").unwrap());
    }
}
