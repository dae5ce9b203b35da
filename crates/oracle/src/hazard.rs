//! Brute-force and cross-method references for `asyncmap_hazard`: minterm
//! pair enumerators for the two-level analyses, ternary simulation, the
//! descriptor-guided containment comparison and the multi-method
//! containment ladder.

use asyncmap_bff::{burst_assignment, eval_ternary, flatten, Expr, Tern};
use asyncmap_cube::{Bits, Cover, Cube};
use asyncmap_hazard::{
    analyze_expr, dynamic_function_hazard_free, hazards_subset_exhaustive, static1_subset,
    wave_eval, Hazard, HazardReport, EXHAUSTIVE_VAR_LIMIT,
};

/// All static 1-hazardous transitions of a two-level cover: pairs
/// `(α, β)`, `α < β`, of minterm indices with `f ≡ 1` on `T[α, β]` but no
/// single cube containing the span.
pub fn brute_static1_transitions(f: &Cover) -> Vec<(usize, usize)> {
    let n = f.nvars();
    assert!(n <= 12, "oracle limited to 12 variables");
    let mut out = Vec::new();
    for a in 0..1usize << n {
        let ba = Bits::from_index(n, a);
        if !f.eval(&ba) {
            continue;
        }
        for b in (a + 1)..1usize << n {
            let bb = Bits::from_index(n, b);
            if !f.eval(&bb) {
                continue;
            }
            let span = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
            // A span f does not cover is a function hazard, not a logic one.
            if f.covers_cube(&span) && !f.single_cube_contains(&span) {
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
    let mut out = Vec::new();
    for a in 0..1usize << n {
        let ba = Bits::from_index(n, a);
        if f.eval(&ba) {
            continue;
        }
        for b in 0..1usize << n {
            let bb = Bits::from_index(n, b);
            if a == b || !f.eval(&bb) || !dynamic_function_hazard_free(f, &ba, &bb) {
                continue;
            }
            let space = Cube::minterm(&ba).supercube(&Cube::minterm(&bb));
            let beta_cube = Cube::minterm(&bb);
            if f.cubes()
                .iter()
                .any(|c| c.intersect(&space).is_some() && !c.contains(&beta_cube))
            {
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
    space.minterms().any(|m| {
        let span = Cube::minterm(&m).supercube(&Cube::minterm(beta));
        f.eval(&m) && f.covers_cube(&span) && !f.single_cube_contains(&span)
    })
}

/// Result of simulating one burst in ternary logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryOutcome {
    /// Settled output before the burst.
    pub before: bool,
    /// Output during the burst (`X` = may glitch).
    pub during: Tern,
    /// Settled output after the burst.
    pub after: bool,
}

impl TernaryOutcome {
    /// `true` when the transition is static (equal endpoints) and the
    /// output can glitch.
    pub fn is_static_hazard(&self) -> bool {
        self.before == self.after && self.during == Tern::X
    }
}

/// Eichelberger-style ternary simulation of the burst `from → to` on
/// `expr` (the paper's ref. 9): the changing inputs are `X` during the
/// burst. Exact for static transitions (function and logic hazards
/// alike); a dynamic transition is necessarily `X` during the burst.
pub fn ternary_transition(expr: &Expr, from: &Bits, to: &Bits) -> TernaryOutcome {
    let mid = burst_assignment(from, &from.xor(to));
    TernaryOutcome {
        before: expr.eval(from),
        during: eval_ternary(expr, &mid),
        after: expr.eval(to),
    }
}

/// `true` iff the static transition `from → to` can glitch on `expr`.
pub fn has_static_hazard(expr: &Expr, from: &Bits, to: &Bits) -> bool {
    ternary_transition(expr, from, to).is_static_hazard()
}

/// Per-descriptor minterm-pair cap for the guided comparison.
const GUIDED_PAIR_CAP: u64 = 4096;

/// Descriptor-guided `hazards(candidate) ⊆ hazards(reference)`: checks
/// each hazard descriptor of `candidate` against `reference`, rejecting
/// conservatively when a descriptor spans more than 4096 minterm pairs.
pub fn hazards_subset_guided(
    candidate_report: &HazardReport,
    candidate: &Expr,
    reference: &Expr,
    nvars: usize,
) -> bool {
    // Glitches `candidate` and not `reference` on `from → to`.
    let escapes = |from: &Bits, to: &Bits| {
        wave_eval(candidate, from, to).hazard && !wave_eval(reference, from, to).hazard
    };
    // Static-1: exact containment via the flattened covers.
    if !static1_subset(&candidate_report.flat, &flatten(reference, nvars).cover) {
        return false;
    }
    // m.i.c. dynamic: every hazardous endpoint pair of the candidate must
    // glitch the reference too.
    for h in &candidate_report.dynamic_mic {
        let Hazard::DynamicMic {
            zero_end, one_end, ..
        } = h
        else {
            continue;
        };
        if zero_end
            .num_minterms()
            .saturating_mul(one_end.num_minterms())
            > GUIDED_PAIR_CAP
        {
            return false;
        }
        if zero_end
            .minterms()
            .any(|alpha| one_end.minterms().any(|beta| escapes(&alpha, &beta)))
        {
            return false;
        }
    }
    // Static-0 and s.i.c. dynamic: sweep the sensitizing conditions.
    for h in candidate_report
        .static0
        .iter()
        .chain(&candidate_report.dynamic_sic)
    {
        let (var, condition) = match h {
            Hazard::Static0 { var, condition } => (var, condition),
            Hazard::DynamicSic { var, condition, .. } => (var, condition),
            _ => continue,
        };
        for cube in condition.cubes() {
            if cube.num_minterms() > GUIDED_PAIR_CAP {
                return false;
            }
            for ctx in cube.minterms() {
                let mut from = ctx.clone();
                from.set(var.index(), false);
                let mut to = ctx;
                to.set(var.index(), true);
                if escapes(&from, &to) {
                    return false;
                }
            }
        }
    }
    true
}

/// Variable-count limit for the brute-force rung of
/// [`reverify_containment`]: it enumerates all ordered minterm pairs.
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
    /// Brute-force static-1 containment verdict; `None` when
    /// `nvars > ORACLE_VAR_LIMIT`.
    pub oracle_static1: Option<bool>,
}

impl ContainmentReverification {
    /// The overall verdict: the exhaustive sweep when available (it is
    /// exact), otherwise the guided comparison.
    pub fn accepted(&self) -> bool {
        self.exhaustive.unwrap_or(self.analytic)
    }

    /// `true` iff no method contradicts another. The guided comparison may
    /// be conservative (reject where the exhaustive sweep accepts); every
    /// other divergence — guided accepting what the sweep rejects, the
    /// adjacency test and the brute force disagreeing, or a static-1
    /// violation surviving an exhaustive accept — is a bug in one of the
    /// analyses.
    pub fn methods_agree(&self) -> bool {
        let oracle_agrees = self
            .oracle_static1
            .is_none_or(|oracle| oracle == self.static1_adjacency);
        let sweep_agrees = self.exhaustive.is_none_or(|exhaustive| {
            if exhaustive {
                self.static1_adjacency
            } else {
                !self.analytic
            }
        });
        oracle_agrees && sweep_agrees
    }
}

/// Re-derives `hazards(candidate) ⊆ hazards(reference)` through every
/// method that applies: the exhaustive sweep, the guided comparison, the
/// static-1 adjacency subset on the flattened covers and, up to
/// [`ORACLE_VAR_LIMIT`] variables, the brute-force static-1 enumeration.
/// Both expressions must compute the same function over the same
/// `nvars`-variable space (the Theorem 3.2 setting).
pub fn reverify_containment(
    candidate: &Expr,
    reference: &Expr,
    nvars: usize,
) -> ContainmentReverification {
    let candidate_flat = flatten(candidate, nvars).cover;
    let reference_flat = flatten(reference, nvars).cover;
    let oracle_static1 = (nvars <= ORACLE_VAR_LIMIT).then(|| {
        let refs = brute_static1_transitions(&reference_flat);
        brute_static1_transitions(&candidate_flat)
            .iter()
            .all(|pair| refs.contains(pair))
    });
    ContainmentReverification {
        nvars,
        exhaustive: (nvars <= EXHAUSTIVE_VAR_LIMIT)
            .then(|| hazards_subset_exhaustive(candidate, reference, nvars)),
        analytic: hazards_subset_guided(
            &analyze_expr(candidate, nvars),
            candidate,
            reference,
            nvars,
        ),
        static1_adjacency: static1_subset(&candidate_flat, &reference_flat),
        oracle_static1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn brute_static1_matches_consensus_example() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c", &vars).unwrap();
        // Exactly the pair abc(0b111) / a'bc(0b110): span bc uncovered.
        assert_eq!(brute_static1_transitions(&f), vec![(0b110, 0b111)]);
        let fixed = Cover::parse("ab + a'c + bc", &vars).unwrap();
        assert!(brute_static1_transitions(&fixed).is_empty());
    }

    #[test]
    fn brute_mic_matches_figure10() {
        let vars = VarTable::from_names(["w", "x", "y", "z"]);
        let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
        let hz = brute_mic_dynamic_transitions(&f);
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

    #[test]
    fn ternary_detects_static_1_hazard() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b + a'*b", &mut vars).unwrap();
        let (from, to) = (Bits::from_index(2, 0b10), Bits::from_index(2, 0b11));
        assert!(has_static_hazard(&e, &from, &to));
        let fixed = Expr::parse("a*b + a'*b + b", &mut vars).unwrap();
        assert!(!has_static_hazard(&fixed, &from, &to));
    }

    #[test]
    fn ternary_outcome_fields() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a + b", &mut vars).unwrap();
        let o = ternary_transition(&e, &Bits::from_index(2, 0b00), &Bits::from_index(2, 0b01));
        assert!(!o.before);
        assert!(o.after);
        assert_eq!(o.during, Tern::X);
        assert!(!o.is_static_hazard());
        // b stays 1 while a changes: OR output held at 1.
        let o = ternary_transition(&e, &Bits::from_index(2, 0b10), &Bits::from_index(2, 0b11));
        assert_eq!(o.during, Tern::One);
        assert!(!o.is_static_hazard());
    }

    #[test]
    fn ternary_agrees_with_wave_on_static_transitions() {
        let mut vars = VarTable::new();
        let exprs = [
            Expr::parse("a*b + a'*c", &mut vars).unwrap(),
            Expr::parse_in("a*b + a'*c + b*c", &vars).unwrap(),
            Expr::parse_in("(a + b)*(b' + c)", &vars).unwrap(),
        ];
        for e in &exprs {
            for a in 0..8usize {
                for b in 0..8usize {
                    let (from, to) = (Bits::from_index(3, a), Bits::from_index(3, b));
                    if e.eval(&from) == e.eval(&to) {
                        let wave = wave_eval(e, &from, &to).is_static_hazard();
                        assert_eq!(has_static_hazard(e, &from, &to), wave, "{a:#b}->{b:#b}");
                    }
                }
            }
        }
    }

    #[test]
    fn guided_agrees_with_exhaustive() {
        let mut vars = VarTable::new();
        let pairs = [
            ("w*x + x'*y", "(w + x')*(x + y)"),
            ("a*b + a'*c", "a*b + a'*c + b*c"),
            ("s*a + s'*b", "s*a + s'*b + a*b"),
            ("a*(b + c)", "a*b + a*c"),
        ];
        for (left, right) in pairs {
            let l = Expr::parse(left, &mut vars).unwrap();
            let r = Expr::parse(right, &mut vars).unwrap();
            let n = vars.len();
            for (x, y) in [(&l, &r), (&r, &l)] {
                assert_eq!(
                    hazards_subset_exhaustive(x, y, n),
                    hazards_subset_guided(&analyze_expr(x, n), x, y, n),
                    "guided/exhaustive disagree on {x:?} ⊆ {y:?}"
                );
            }
        }
    }

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
