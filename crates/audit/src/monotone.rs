//! The hazard-set monotonicity check: re-proving
//! `hazards(candidate) ⊆ hazards(reference)` for a certified rewrite step
//! with [`decide_containment`] over the step's compacted support — exact
//! (the transition sweep) on supports of at most
//! [`asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT`] variables and on identical
//! structures, its bounded flattening fallback on wider ones.

use asyncmap_bff::Expr;
use asyncmap_hazard::{decide_containment, transition_text, Containment};

use crate::equiv::{compact_onto, union_support};

/// Re-proves `hazards(candidate) ⊆ hazards(reference)` as deeply as the
/// shared support allows. Both expressions must compute the same function
/// (checked separately by the equivalence obligation). An exact
/// refutation comes with its first escaping burst, written `from → to`
/// with each side a binary number over the full variable space (bit `v`
/// is variable `v`).
pub fn recheck_monotone(candidate: &Expr, reference: &Expr) -> (Containment, Option<String>) {
    let support = union_support(candidate, reference);
    let k = support.len().max(1);
    let verdict = decide_containment(
        &compact_onto(candidate, &support),
        &compact_onto(reference, &support),
        k,
    );
    let witness = match verdict {
        Containment::Refuted(Some(burst)) => Some(transition_text(burst, |i| support[i].index())),
        _ => None,
    };
    (verdict, witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;
    use asyncmap_hazard::{product_estimate, PartialReason};

    #[test]
    fn product_estimate_matches_distribution() {
        let mut vars = VarTable::new();
        // (w + y')(x + y) distributes to 4 products (one vacuous).
        let e = Expr::parse("(w + y')*(x + y)", &mut vars).unwrap();
        assert_eq!(product_estimate(&e), 4);
        // (a*b + c)' → (a' + b')*c' → 2 products.
        let n = Expr::parse("(a*b + c)'", &mut vars).unwrap();
        assert_eq!(product_estimate(&n), 2);
    }

    #[test]
    fn regrouping_is_monotone() {
        let mut vars = VarTable::new();
        let before = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let after = match &before {
            Expr::Or(es) => Expr::Or(vec![
                Expr::Or(vec![es[0].clone(), es[1].clone()]),
                es[2].clone(),
            ]),
            _ => unreachable!(),
        };
        assert_eq!(recheck_monotone(&after, &before).0, Containment::Holds);
    }

    #[test]
    fn cube_deletion_is_refuted() {
        // Dropping the redundant consensus cube bc introduces a static
        // 1-hazard (paper Figure 3): containment must be refuted.
        let mut vars = VarTable::new();
        let full = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let pruned = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        let (verdict, witness) = recheck_monotone(&pruned, &full);
        assert!(matches!(verdict, Containment::Refuted(Some(_))));
        assert!(witness.is_some());
    }

    #[test]
    fn wide_supports_take_the_partial_path() {
        let names: Vec<String> = (0..9).map(|i| format!("v{i}")).collect();
        let vars = VarTable::from_names(names.iter().map(String::as_str));
        let terms: Vec<Expr> = (0..9).map(|i| Expr::Var(asyncmap_cube::VarId(i))).collect();
        let flat_or = Expr::Or(terms.clone());
        let regrouped = Expr::Or(vec![
            Expr::Or(terms[..5].to_vec()),
            Expr::Or(terms[5..].to_vec()),
        ]);
        let _ = vars;
        let (verdict, _) = recheck_monotone(&regrouped, &flat_or);
        assert_eq!(verdict, Containment::Partial(PartialReason::SameFlattening));
    }
}
