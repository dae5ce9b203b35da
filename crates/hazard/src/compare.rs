//! Hazard-behavior containment between two structures of the same function
//! — the acceptance test of the modified matching algorithm (paper §3.2.2
//! and Theorem 3.2): a hazardous library element may replace a subnetwork
//! only if `hazards(element) ⊆ hazards(subnetwork)`.

use crate::static1::static1_subset;
use crate::wave::{wave_eval, Lanes, Lanes256, WaveProgram, BLOCK_BURSTS};
use crate::HazardReport;
use asyncmap_bff::{flatten, Expr};
use asyncmap_cube::Cube;

/// Variable-count limit for the exhaustive transition sweep
/// ([`hazards_subset_exhaustive`]): all `4^n` ordered transition pairs are
/// decided, in `⌈4^n / 256⌉` runs of a compiled [`WaveProgram`].
pub const EXHAUSTIVE_VAR_LIMIT: usize = 8;

/// Per-descriptor minterm-pair cap for the guided comparison.
const GUIDED_PAIR_CAP: u64 = 4096;

/// Decides `hazards(candidate) ⊆ hazards(reference)` for two structures of
/// the same function over the same `nvars`-variable space.
///
/// Uses the exhaustive transition sweep when the space is small (exact
/// under the pure-delay model) and falls back to the descriptor-guided
/// comparison otherwise.
pub fn hazards_subset(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    if nvars <= EXHAUSTIVE_VAR_LIMIT {
        hazards_subset_exhaustive(candidate, reference, nvars)
    } else {
        let report = crate::analyze_expr(candidate, nvars);
        hazards_subset_guided(&report, candidate, reference, nvars)
    }
}

/// Exhaustive form: sweeps every ordered transition pair `(α, β)` and
/// requires that whenever `candidate` can glitch, `reference` can glitch on
/// the same burst. Function hazards excite both structures equally (they
/// compute the same function), so the comparison effectively ranges over
/// logic hazards.
///
/// The sweep is bit-sliced ([`WaveProgram`]): both expressions are
/// compiled once, each run decides 256 bursts, `⌈4^n / 256⌉` runs in all,
/// and `reference` runs only on blocks where `candidate` has a hazardous
/// lane.
///
/// # Panics
///
/// Panics if `nvars > EXHAUSTIVE_VAR_LIMIT`.
pub fn hazards_subset_exhaustive(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    containment_witness(candidate, reference, nvars).is_none()
}

/// The exhaustive sweep's counterexample: the first burst `(from, to)`,
/// in `(from << nvars) | to` order, on which `candidate` can glitch and
/// `reference` cannot. `None` iff `hazards(candidate) ⊆
/// hazards(reference)`. Assignments are indexed as in a truth table (bit
/// `v` is variable `v`).
///
/// # Panics
///
/// Panics if `nvars > EXHAUSTIVE_VAR_LIMIT`.
pub fn containment_witness(
    candidate: &Expr,
    reference: &Expr,
    nvars: usize,
) -> Option<(usize, usize)> {
    assert!(
        nvars <= EXHAUSTIVE_VAR_LIMIT,
        "exhaustive sweep limited to {EXHAUSTIVE_VAR_LIMIT} variables"
    );
    let candidate = WaveProgram::compile(candidate, nvars);
    let reference = WaveProgram::compile(reference, nvars);
    let mut stack = Vec::new();
    (0..candidate.blocks()).find_map(|block| {
        let hazards = candidate.eval_block(block, &mut stack).hazard;
        if hazards == Lanes256::ZERO {
            return None;
        }
        let escaped = hazards & !reference.eval_block(block, &mut stack).hazard;
        let burst = BLOCK_BURSTS * block + escaped.iter_ones().next()?;
        Some((burst >> nvars, burst & ((1 << nvars) - 1)))
    })
}

/// Descriptor-guided form: checks each hazard descriptor of `candidate`
/// against `reference`, rejecting conservatively when enumeration limits
/// are exceeded.
pub fn hazards_subset_guided(
    candidate_report: &HazardReport,
    candidate: &Expr,
    reference: &Expr,
    nvars: usize,
) -> bool {
    // Static-1: exact containment via the flattened covers.
    let ref_flat = flatten(reference, nvars).cover;
    if !static1_subset(&candidate_report.flat, &ref_flat) {
        return false;
    }
    // m.i.c. dynamic: every hazardous endpoint pair of the candidate must
    // glitch the reference too.
    for h in &candidate_report.dynamic_mic {
        let crate::Hazard::DynamicMic {
            zero_end, one_end, ..
        } = h
        else {
            continue;
        };
        if !pairs_subset(candidate, reference, zero_end, one_end) {
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
            crate::Hazard::Static0 { var, condition } => (var, condition),
            crate::Hazard::DynamicSic { var, condition, .. } => (var, condition),
            _ => continue,
        };
        for cube in condition.cubes() {
            if cube.num_minterms() > GUIDED_PAIR_CAP {
                return false; // conservative
            }
            for ctx in cube.minterms() {
                let mut from = ctx.clone();
                from.set(var.index(), false);
                let mut to = ctx;
                to.set(var.index(), true);
                let wc = wave_eval(candidate, &from, &to);
                if wc.hazard && !wave_eval(reference, &from, &to).hazard {
                    return false;
                }
            }
        }
    }
    true
}

fn pairs_subset(candidate: &Expr, reference: &Expr, zero_end: &Cube, one_end: &Cube) -> bool {
    if zero_end
        .num_minterms()
        .saturating_mul(one_end.num_minterms())
        > GUIDED_PAIR_CAP
    {
        return false; // conservative
    }
    for alpha in zero_end.minterms() {
        for beta in one_end.minterms() {
            let wc = wave_eval(candidate, &alpha, &beta);
            if wc.hazard && !wave_eval(reference, &alpha, &beta).hazard {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn identical_structures_are_accepted() {
        let mut vars = VarTable::new();
        let e = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        assert!(hazards_subset(&e, &e, vars.len()));
    }

    #[test]
    fn figure3_rejection() {
        // Candidate ab + a'c cannot replace ab + a'c + bc: dropping the
        // redundant consensus cube introduces a static-1 hazard (Figure 3).
        let mut vars = VarTable::new();
        let original = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let candidate = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        assert!(!hazards_subset(&candidate, &original, vars.len()));
        // The reverse also fails, more subtly: the added bc gate pulses on
        // b↑c↓ bursts (e.g. a=1, b:0→1, c:1→0), an m.i.c. dynamic hazard
        // the two-cube structure does not have. Neither replacement is
        // hazard-safe in general — exactly why the matcher must check.
        assert!(!hazards_subset(&original, &candidate, vars.len()));
    }

    #[test]
    fn figure4_structures() {
        // The two structures hazard-differ in both directions: 4a has a
        // static-1 hazard 4b lacks, 4b has a static-0 hazard 4a lacks.
        let mut vars = VarTable::new();
        let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        let factored = Expr::parse_in("(w + x')*(x + y)", &vars).unwrap();
        // 4a has the static-1 hazard on wy which 4b lacks.
        assert!(!hazards_subset(&two_level, &factored, vars.len()));
        // 4b has a static-0 hazard (vacuous x'x) that 4a lacks, so neither
        // direction holds in general.
        assert!(!hazards_subset(&factored, &two_level, vars.len()));
    }

    #[test]
    fn hazard_free_candidate_always_accepted() {
        let mut vars = VarTable::new();
        // Single complex gate: hazard-free implementation of a*b + a*c?
        // Use a tree with single occurrences: a*(b + c).
        let tree = Expr::parse("a*(b + c)", &mut vars).unwrap();
        let sop = Expr::parse_in("a*b + a*c", &vars).unwrap();
        assert!(hazards_subset(&tree, &sop, vars.len()));
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
            let report_l = crate::analyze_expr(&l, n);
            let report_r = crate::analyze_expr(&r, n);
            assert_eq!(
                hazards_subset_exhaustive(&l, &r, n),
                hazards_subset_guided(&report_l, &l, &r, n),
                "guided/exhaustive disagree on ({left}) ⊆ ({right})"
            );
            assert_eq!(
                hazards_subset_exhaustive(&r, &l, n),
                hazards_subset_guided(&report_r, &r, &l, n),
                "guided/exhaustive disagree on ({right}) ⊆ ({left})"
            );
        }
    }
}
