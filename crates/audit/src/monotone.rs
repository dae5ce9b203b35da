//! The hazard-set monotonicity ladder: re-proving
//! `hazards(candidate) ⊆ hazards(reference)` for a certified rewrite step
//! with `asyncmap-hazard`'s entry points, at a depth that scales with the
//! step's support.
//!
//! * Support of at most [`ORACLE_VAR_LIMIT`] variables: the full
//!   [`reverify_containment`] ladder (exhaustive transition sweep, guided
//!   comparison, static-1 cube adjacency and the brute-force oracle), and
//!   the verdict counts only if the methods also agree with each other.
//! * Wider supports: a *partial* check — both sides are flattened (when
//!   the independent product-count estimate stays under
//!   [`FLATTEN_REPLAY_CAP`]) and compared by exact cube-list equality or,
//!   failing that, the static-1 adjacency subset test, which is a
//!   necessary condition for full containment.

use asyncmap_bff::{flatten, Expr};
use asyncmap_hazard::{
    product_estimate, reverify_containment, static1_subset, FLATTEN_REPLAY_CAP, ORACLE_VAR_LIMIT,
};

use crate::equiv::{compact_onto, union_support};

/// Outcome of one monotonicity re-check.
#[derive(Debug, Clone)]
pub struct MonotoneOutcome {
    /// `false` iff the check positively refuted containment.
    pub ok: bool,
    /// `true` when only the partial (wide-support) method ran.
    pub partial: bool,
    /// `true` when even the partial method was skipped (flatten too big).
    pub skipped: bool,
    /// Human-readable description of what ran.
    pub detail: &'static str,
}

/// Re-proves `hazards(candidate) ⊆ hazards(reference)` as deeply as the
/// shared support allows. Both expressions must compute the same function
/// (checked separately by the equivalence obligation).
pub fn recheck_monotone(candidate: &Expr, reference: &Expr) -> MonotoneOutcome {
    let support = union_support(candidate, reference);
    let k = support.len().max(1);
    let cand = compact_onto(candidate, &support);
    let refr = compact_onto(reference, &support);
    if k <= ORACLE_VAR_LIMIT {
        let r = reverify_containment(&cand, &refr, k);
        return MonotoneOutcome {
            ok: r.accepted() && r.methods_agree(),
            partial: false,
            skipped: false,
            detail: "full reverification ladder",
        };
    }
    let est = product_estimate(&cand).saturating_add(product_estimate(&refr));
    if est > FLATTEN_REPLAY_CAP {
        return MonotoneOutcome {
            ok: true,
            partial: true,
            skipped: true,
            detail: "skipped: product estimate over the flatten replay cap",
        };
    }
    let cf = flatten(&cand, k);
    let rf = flatten(&refr, k);
    if cf.cover.cubes() == rf.cover.cubes() && cf.vacuous == rf.vacuous {
        return MonotoneOutcome {
            ok: true,
            partial: true,
            skipped: false,
            detail: "partial: flattened forms identical",
        };
    }
    MonotoneOutcome {
        ok: static1_subset(&cf.cover, &rf.cover),
        partial: true,
        skipped: false,
        detail: "partial: static-1 adjacency subset on flattened covers",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

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
        let out = recheck_monotone(&after, &before);
        assert!(out.ok && !out.partial);
    }

    #[test]
    fn cube_deletion_is_refuted() {
        // Dropping the redundant consensus cube bc introduces a static
        // 1-hazard (paper Figure 3): containment must be refuted.
        let mut vars = VarTable::new();
        let full = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let pruned = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        let out = recheck_monotone(&pruned, &full);
        assert!(!out.ok);
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
        let out = recheck_monotone(&regrouped, &flat_or);
        assert!(out.ok && out.partial && !out.skipped);
    }
}
