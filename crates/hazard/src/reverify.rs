//! Independent re-verification of the Theorem 3.2 acceptance condition
//! `hazards(candidate) ⊆ hazards(reference)` for a *completed* binding.
//!
//! The checkers decide this condition through
//! [`decide_containment`](crate::decide_containment), which is the exact
//! transition sweep ([`hazards_subset_exhaustive`]) up to
//! [`EXHAUSTIVE_VAR_LIMIT`] variables. This module re-derives the same verdict through every
//! analysis the crate has — the exhaustive transition sweep, the
//! descriptor-guided comparison, the exact static-1 cube-adjacency subset
//! test on the flattened covers, and (on small supports) the brute-force
//! minterm-pair oracle — and reports them side by side, so disagreement
//! between methods shows. It is a test oracle: no production path calls
//! it. `crates/bench/tests/containment_oracle.rs` replays every audit
//! step and equation obligation and every lint binding obligation of the
//! benchmark designs through it.

use crate::compare::{hazards_subset_exhaustive, hazards_subset_guided, EXHAUSTIVE_VAR_LIMIT};
use crate::oracle::brute_static1_transitions;
use crate::static1::static1_subset;
use asyncmap_bff::{flatten, Expr};

/// Variable-count limit for the brute-force oracle cross-check; the oracle
/// enumerates all ordered minterm pairs, so keep the space tiny.
pub const ORACLE_VAR_LIMIT: usize = 6;

/// The verdicts of each independent re-check of
/// `hazards(candidate) ⊆ hazards(reference)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainmentReverification {
    /// Size of the shared variable space.
    pub nvars: usize,
    /// Exhaustive transition-sweep verdict (exact under the pure-delay
    /// model); `None` when `nvars > EXHAUSTIVE_VAR_LIMIT`.
    pub exhaustive: Option<bool>,
    /// Descriptor-guided verdict (may be conservatively `false`).
    pub analytic: bool,
    /// Exact static-1 containment via cube adjacency on the flattened
    /// covers — a necessary condition for full containment.
    pub static1_adjacency: bool,
    /// Brute-force oracle's static-1 containment verdict; `None` when
    /// `nvars > ORACLE_VAR_LIMIT`.
    pub oracle_static1: Option<bool>,
}

impl ContainmentReverification {
    /// The overall verdict: the exhaustive sweep when available (it is
    /// exact), otherwise the guided comparison.
    pub fn accepted(&self) -> bool {
        self.exhaustive.unwrap_or(self.analytic)
    }

    /// `true` iff no method contradicts another. The guided comparison is
    /// allowed to be conservative (reject where the exhaustive sweep
    /// accepts); every other divergence — guided accepting what the sweep
    /// rejects, the adjacency test and the oracle disagreeing, or a
    /// static-1 violation surviving an exhaustive accept — indicates a bug
    /// in one of the analyses.
    pub fn methods_agree(&self) -> bool {
        if let Some(oracle) = self.oracle_static1 {
            if oracle != self.static1_adjacency {
                return false;
            }
        }
        if let Some(exhaustive) = self.exhaustive {
            if self.analytic && !exhaustive {
                return false;
            }
            if exhaustive && !self.static1_adjacency {
                return false;
            }
        }
        true
    }
}

/// Re-verifies `hazards(candidate) ⊆ hazards(reference)` through every
/// applicable analysis. Both expressions must compute the same function
/// over the same `nvars`-variable space (the Theorem 3.2 setting); the
/// verdicts are meaningless otherwise.
pub fn reverify_containment(
    candidate: &Expr,
    reference: &Expr,
    nvars: usize,
) -> ContainmentReverification {
    let candidate_flat = flatten(candidate, nvars);
    let reference_flat = flatten(reference, nvars);

    let exhaustive = (nvars <= EXHAUSTIVE_VAR_LIMIT)
        .then(|| hazards_subset_exhaustive(candidate, reference, nvars));

    let report = crate::analyze_expr(candidate, nvars);
    let analytic = hazards_subset_guided(&report, candidate, reference, nvars);

    let static1_adjacency = static1_subset(&candidate_flat.cover, &reference_flat.cover);

    let oracle_static1 = (nvars <= ORACLE_VAR_LIMIT).then(|| {
        let cand = brute_static1_transitions(&candidate_flat.cover);
        let refs = brute_static1_transitions(&reference_flat.cover);
        cand.iter().all(|pair| refs.contains(pair))
    });

    ContainmentReverification {
        nvars,
        exhaustive,
        analytic,
        static1_adjacency,
        oracle_static1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn identical_structures_reverify_cleanly() {
        let mut vars = VarTable::new();
        let e = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        let r = reverify_containment(&e, &e, vars.len());
        assert!(r.accepted());
        assert!(r.methods_agree());
        assert_eq!(r.exhaustive, Some(true));
        assert_eq!(r.oracle_static1, Some(true));
    }

    #[test]
    fn figure3_violation_caught_by_every_method() {
        // Candidate ab + a'c drops the consensus cube of ab + a'c + bc:
        // a static-1 hazard appears, so every analysis must reject.
        let mut vars = VarTable::new();
        let original = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let candidate = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        let r = reverify_containment(&candidate, &original, vars.len());
        assert!(!r.accepted());
        assert!(r.methods_agree());
        assert_eq!(r.exhaustive, Some(false));
        assert!(!r.analytic);
        assert!(!r.static1_adjacency);
        assert_eq!(r.oracle_static1, Some(false));
    }

    #[test]
    fn hazard_free_tree_accepted_over_sop() {
        let mut vars = VarTable::new();
        let tree = Expr::parse("a*(b + c)", &mut vars).unwrap();
        let sop = Expr::parse_in("a*b + a*c", &vars).unwrap();
        let r = reverify_containment(&tree, &sop, vars.len());
        assert!(r.accepted());
        assert!(r.methods_agree());
    }

    #[test]
    fn static0_difference_rejected() {
        // Figure 4b has a vacuous-term static-0 hazard 4a lacks; only the
        // transition-level analyses see it (static-1 adjacency passes).
        let mut vars = VarTable::new();
        let factored = Expr::parse("(w + x')*(x + y)", &mut vars).unwrap();
        let two_level = Expr::parse_in("w*x + x'*y", &vars).unwrap();
        let r = reverify_containment(&factored, &two_level, vars.len());
        assert!(!r.accepted());
        assert!(r.methods_agree());
    }
}
