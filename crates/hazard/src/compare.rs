//! Hazard-behavior containment between two structures of the same function
//! — the acceptance test of the modified matching algorithm (paper §3.2.2
//! and Theorem 3.2): a hazardous library element may replace a subnetwork
//! only if `hazards(element) ⊆ hazards(subnetwork)`. [`decide_containment`]
//! is the one decision of this condition on production paths.

use crate::static1::{product_estimate, static1_subset, FLATTEN_REPLAY_CAP};
use crate::wave::{Lanes, Lanes256, WaveProgram, BLOCK_BURSTS};
use asyncmap_bff::{flatten, Expr};
use std::fmt;

/// Variable-count limit for the exhaustive transition sweep
/// ([`hazards_subset_exhaustive`]): all `4^n` ordered transition pairs are
/// decided, in `⌈4^n / 256⌉` runs of a compiled [`WaveProgram`].
pub const EXHAUSTIVE_VAR_LIMIT: usize = 8;

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

/// The verdict of [`decide_containment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Containment {
    /// Containment holds (identical structures, or no escaping burst).
    Holds,
    /// Containment fails. The exhaustive sweep names its first escaping
    /// burst `(from, to)` (see [`containment_witness`]); the static-1 test
    /// on wider supports names none.
    Refuted(Option<(usize, usize)>),
    /// The bounded fallback above [`EXHAUSTIVE_VAR_LIMIT`] variables
    /// neither proved nor refuted containment.
    Partial(PartialReason),
}

/// Why [`decide_containment`] stopped at [`Containment::Partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialReason {
    /// The two product estimates sum past [`FLATTEN_REPLAY_CAP`]: nothing
    /// was flattened.
    OverReplayCap,
    /// Both sides flatten to the same cubes and vacuous products.
    SameFlattening,
    /// The static-1 adjacency subset holds on the flattenings; the
    /// dynamic classes are not re-proved.
    Static1Only,
}

impl fmt::Display for PartialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PartialReason::OverReplayCap => "product estimate over the flatten replay cap",
            PartialReason::SameFlattening => "flattened forms identical",
            PartialReason::Static1Only => "static-1 adjacency subset on flattened covers",
        })
    }
}

/// The one containment decision of the matcher and the checkers:
/// `hazards(candidate) ⊆ hazards(reference)` for two structures of the
/// same function over `nvars` variables. Identical structures hold at any
/// width; up to [`EXHAUSTIVE_VAR_LIMIT`] variables the exhaustive sweep
/// decides; wider, a bounded fallback: over the replay cap, identical
/// flattenings, else the static-1 adjacency test ([`static1_subset`]),
/// whose failure is a refutation.
pub fn decide_containment(candidate: &Expr, reference: &Expr, nvars: usize) -> Containment {
    if candidate == reference {
        return Containment::Holds;
    }
    if nvars <= EXHAUSTIVE_VAR_LIMIT {
        return match containment_witness(candidate, reference, nvars) {
            None => Containment::Holds,
            witness => Containment::Refuted(witness),
        };
    }
    let estimate = product_estimate(candidate).saturating_add(product_estimate(reference));
    if estimate > FLATTEN_REPLAY_CAP {
        return Containment::Partial(PartialReason::OverReplayCap);
    }
    let cand = flatten(candidate, nvars);
    let refr = flatten(reference, nvars);
    if cand.cover.cubes() == refr.cover.cubes() && cand.vacuous == refr.vacuous {
        Containment::Partial(PartialReason::SameFlattening)
    } else if static1_subset(&cand.cover, &refr.cover) {
        Containment::Partial(PartialReason::Static1Only)
    } else {
        Containment::Refuted(None)
    }
}

/// A [`containment_witness`] burst written `0b… → 0b…`, each assignment
/// like `{:#b}` over the full variable space: bit `i` of the witness is
/// variable `var(i)`.
pub fn transition_text((from, to): (usize, usize), var: impl Fn(usize) -> usize) -> String {
    let binary = |index: usize| {
        let ones: Vec<usize> = (0..usize::BITS as usize)
            .filter(|i| index >> i & 1 == 1)
            .map(&var)
            .collect();
        let top = ones.iter().copied().max().unwrap_or(0);
        let digits: String = (0..=top)
            .rev()
            .map(|v| if ones.contains(&v) { '1' } else { '0' })
            .collect();
        format!("0b{digits}")
    };
    format!("{} → {}", binary(from), binary(to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn identical_structures_are_accepted() {
        let mut vars = VarTable::new();
        let e = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        assert!(hazards_subset_exhaustive(&e, &e, vars.len()));
        assert_eq!(decide_containment(&e, &e, vars.len()), Containment::Holds);
    }

    #[test]
    fn figure3_rejection() {
        // Candidate ab + a'c cannot replace ab + a'c + bc: dropping the
        // redundant consensus cube introduces a static-1 hazard (Figure 3).
        let mut vars = VarTable::new();
        let original = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let candidate = Expr::parse_in("a*b + a'*c", &vars).unwrap();
        assert!(!hazards_subset_exhaustive(
            &candidate,
            &original,
            vars.len()
        ));
        // The reverse also fails, more subtly: the added bc gate pulses on
        // b↑c↓ bursts (e.g. a=1, b:0→1, c:1→0), an m.i.c. dynamic hazard
        // the two-cube structure does not have. Neither replacement is
        // hazard-safe in general — exactly why the matcher must check.
        assert!(!hazards_subset_exhaustive(
            &original,
            &candidate,
            vars.len()
        ));
    }

    #[test]
    fn figure4_structures() {
        // The two structures hazard-differ in both directions: 4a has a
        // static-1 hazard 4b lacks, 4b has a static-0 hazard 4a lacks.
        let mut vars = VarTable::new();
        let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        let factored = Expr::parse_in("(w + x')*(x + y)", &vars).unwrap();
        // 4a has the static-1 hazard on wy which 4b lacks.
        assert!(!hazards_subset_exhaustive(
            &two_level,
            &factored,
            vars.len()
        ));
        // 4b has a static-0 hazard (vacuous x'x) that 4a lacks, so neither
        // direction holds in general.
        assert!(!hazards_subset_exhaustive(
            &factored,
            &two_level,
            vars.len()
        ));
    }

    #[test]
    fn hazard_free_candidate_always_accepted() {
        let mut vars = VarTable::new();
        // Single complex gate: hazard-free implementation of a*b + a*c?
        // Use a tree with single occurrences: a*(b + c).
        let tree = Expr::parse("a*(b + c)", &mut vars).unwrap();
        let sop = Expr::parse_in("a*b + a*c", &vars).unwrap();
        assert!(hazards_subset_exhaustive(&tree, &sop, vars.len()));
    }
}
