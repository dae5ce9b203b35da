//! Multi-input-change dynamic hazard analysis of multi-level networks
//! (paper §4.2.2, procedure `findMicDynHazMultiLevel`).
//!
//! 1. Transform the network into two-level SOP form with static
//!    hazard-preserving laws ([`asyncmap_bff::flatten`]).
//! 2. Run the two-level procedure as a *filter* producing candidate
//!    transitions.
//! 3. Re-examine the original multi-level structure on those transitions
//!    and discard false hazards — here with the exact eight-valued waveform
//!    algebra ([`crate::wave_eval`]), the role the paper assigns to path
//!    labeling / ternary simulation.

use crate::dynamic2l::find_mic_dyn_haz_2level;
use crate::wave::wave_eval;
use crate::Hazard;
use asyncmap_bff::{flatten, Expr};
use asyncmap_cube::{Bits, Cube};

/// Maximum number of `(α, β)` minterm pairs examined per candidate
/// transition-space descriptor before giving up and keeping the candidate
/// conservatively.
const PAIR_CAP: usize = 4096;

/// All m.i.c. dynamic logic hazards of the multi-level expression `expr`
/// (over `nvars` variables) that are not consequences of static 1-hazards.
///
/// The returned descriptors are the two-level candidates whose hazard is
/// *confirmed* on the actual multi-level structure for at least one
/// endpoint pair.
pub fn find_mic_dyn_haz_multilevel(expr: &Expr, nvars: usize) -> Vec<Hazard> {
    let flat = flatten(expr, nvars);
    find_mic_dyn_haz_2level(&flat.cover)
        .into_iter()
        .filter(|h| {
            let Hazard::DynamicMic {
                zero_end, one_end, ..
            } = h
            else {
                return true;
            };
            confirm_on_structure(expr, &flat.cover, zero_end, one_end)
        })
        .collect()
}

/// `true` if some *function-hazard-free* minterm pair
/// `(α ∈ zero_end, β ∈ one_end)` exhibits a dynamic hazard on the given
/// structure (both conditions of Theorem 4.1). Falls back to `true`
/// (conservative: the hazard is assumed present) when the pair enumeration
/// exceeds the internal pair cap (4096).
pub fn confirm_on_structure(
    expr: &Expr,
    function: &asyncmap_cube::Cover,
    zero_end: &Cube,
    one_end: &Cube,
) -> bool {
    if zero_end
        .num_minterms()
        .saturating_mul(one_end.num_minterms())
        > PAIR_CAP as u64
    {
        return true;
    }
    for alpha in zero_end.minterms() {
        for beta in one_end.minterms() {
            if dynamic_hazard_on_structure(expr, &alpha, &beta)
                && crate::function::dynamic_function_hazard_free(function, &alpha, &beta)
            {
                return true;
            }
        }
    }
    false
}

/// Per-transition check: `true` iff the structure of `expr` has a dynamic
/// hazard for the burst `from → to` (the endpoints must have different
/// function values for the result to be meaningful).
pub fn dynamic_hazard_on_structure(expr: &Expr, from: &Bits, to: &Bits) -> bool {
    wave_eval(expr, from, to).is_dynamic_hazard()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn two_level_expression_keeps_its_hazards() {
        // Figure 10 function as a two-level expression: the multi-level
        // procedure must agree with the two-level one.
        let mut vars = VarTable::new();
        let e = asyncmap_bff::parse_letters("w'xz + w'xy + xyz", &mut vars).unwrap();
        let ml = find_mic_dyn_haz_multilevel(&e, vars.len());
        let flat = flatten(&e, vars.len());
        let tl = find_mic_dyn_haz_2level(&flat.cover);
        assert_eq!(ml.len(), tl.len());
        assert_eq!(ml.len(), 3);
    }

    #[test]
    fn factored_structure_discards_false_hazards() {
        // f = wx + x'y has a real dynamic hazard (Figure 4a). The factored
        // structure (w + x')(x + y) computes the same function; its
        // flattened form wx + wy + x'y (+ vacuous x'x) still trips the
        // two-level filter, but the waveform check on the real structure
        // discards the false candidates.
        let mut vars = VarTable::new();
        let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        let factored = Expr::parse_in("(w + x')*(x + y)", &vars).unwrap();
        let h2 = find_mic_dyn_haz_multilevel(&two_level, vars.len());
        let hf = find_mic_dyn_haz_multilevel(&factored, vars.len());
        assert!(
            hf.len() <= h2.len(),
            "factored structure cannot have more confirmed m.i.c. hazards"
        );
        // And the specific Figure 4 burst (w↓ x↑, y=1) is hazardous only in
        // the two-level structure.
        let mut alpha = Bits::new(3);
        alpha.set(0, true); // w
        alpha.set(2, true); // y
        let mut beta = Bits::new(3);
        beta.set(1, true); // x
        beta.set(2, true); // y
        assert!(dynamic_hazard_on_structure(&two_level, &alpha, &beta));
        assert!(!dynamic_hazard_on_structure(&factored, &alpha, &beta));
    }

    #[test]
    fn single_cube_tree_has_no_dynamic_hazards() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b*c*d", &mut vars).unwrap();
        assert!(find_mic_dyn_haz_multilevel(&e, vars.len()).is_empty());
    }
}
