//! The hazard-set monotonicity check: re-proving
//! `hazards(candidate) ⊆ hazards(reference)` for a certified rewrite step
//! with `asyncmap-hazard`'s entry points, at a depth that scales with the
//! step's support.
//!
//! * Support of at most [`EXHAUSTIVE_VAR_LIMIT`] variables: the exact
//!   transition sweep over every burst of the compacted support
//!   ([`containment_witness`]), which also names the first escaping
//!   transition of a refutation.
//! * Wider supports: a *partial* check — both sides are flattened (when
//!   the independent product-count estimate stays under
//!   [`FLATTEN_REPLAY_CAP`]) and compared by exact cube-list equality or,
//!   failing that, the static-1 adjacency subset test, which is a
//!   necessary condition for full containment.

use asyncmap_bff::{flatten, Expr};
use asyncmap_cube::VarId;
use asyncmap_hazard::{
    containment_witness, product_estimate, static1_subset, EXHAUSTIVE_VAR_LIMIT, FLATTEN_REPLAY_CAP,
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
    /// When the exact sweep refuted containment, its first escaping burst
    /// as `from → to`, each a binary number over the full variable space
    /// (bit `v` is variable `v`).
    pub witness: Option<String>,
}

/// Re-proves `hazards(candidate) ⊆ hazards(reference)` as deeply as the
/// shared support allows. Both expressions must compute the same function
/// (checked separately by the equivalence obligation).
pub fn recheck_monotone(candidate: &Expr, reference: &Expr) -> MonotoneOutcome {
    let support = union_support(candidate, reference);
    let k = support.len().max(1);
    let cand = compact_onto(candidate, &support);
    let refr = compact_onto(reference, &support);
    if k <= EXHAUSTIVE_VAR_LIMIT {
        let witness = containment_witness(&cand, &refr, k).map(|(from, to)| {
            format!(
                "{} → {}",
                full_space_binary(from, &support),
                full_space_binary(to, &support)
            )
        });
        return MonotoneOutcome {
            ok: witness.is_none(),
            partial: false,
            skipped: false,
            detail: "exhaustive transition sweep",
            witness,
        };
    }
    let est = product_estimate(&cand).saturating_add(product_estimate(&refr));
    if est > FLATTEN_REPLAY_CAP {
        return MonotoneOutcome {
            ok: true,
            partial: true,
            skipped: true,
            detail: "skipped: product estimate over the flatten replay cap",
            witness: None,
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
            witness: None,
        };
    }
    MonotoneOutcome {
        ok: static1_subset(&cf.cover, &rf.cover),
        partial: true,
        skipped: false,
        detail: "partial: static-1 adjacency subset on flattened covers",
        witness: None,
    }
}

/// Assignment `index` of the compact space over the sorted `support`
/// (bit `i` is `support[i]`), written like `{:#b}` over the full variable
/// space.
fn full_space_binary(index: usize, support: &[VarId]) -> String {
    let set: Vec<usize> = (0..support.len())
        .filter(|i| index >> i & 1 == 1)
        .map(|i| support[i].index())
        .collect();
    let top = set.last().copied().unwrap_or(0);
    let digits: String = (0..=top)
        .rev()
        .map(|v| if set.contains(&v) { '1' } else { '0' })
        .collect();
    format!("0b{digits}")
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
