//! Replay of hazard-preserving flatten collapse traces
//! ([`FlattenTrace`]) against the [`FlatSop`] they certify.
//!
//! Obligations:
//!
//! 1. the traced normal form really is an NNF (complements only over
//!    variables) and computes the same function as the source;
//! 2. the claimed product count matches both the produced SOP and an
//!    independent arithmetic replay of the distribution over the NNF
//!    shape (sums under OR, products under AND) — catching silently
//!    dropped products, which is exactly how absorption or idempotence
//!    would manifest;
//! 3. every vacuous product really clashes (some variable in both
//!    phases), with its clash list honest;
//! 4. the SOP (proper cubes ∪ vacuous products) computes the source
//!    function;
//! 5. on supports of at most `EXHAUSTIVE_VAR_LIMIT` variables, the full
//!    SOP has *identical* static hazard behavior to the source on every
//!    transition — Unger's Theorem 4.3 promises preservation, not mere
//!    containment.

use asyncmap_bff::{Expr, FlatSop, FlattenTrace};
use asyncmap_cube::Phase;
use asyncmap_hazard::{product_estimate, WaveProgram, BLOCK_BURSTS, EXHAUSTIVE_VAR_LIMIT};

use crate::equiv::{compact_onto, prove_equal_each, union_support, EquivProof};
use crate::report::{AuditReport, Severity};

/// Path of every diagnostic about a collapse as a whole.
pub(crate) const FLATTEN_PATH: &str = "flatten";

fn is_nnf(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Not(inner) => matches!(**inner, Expr::Var(_)),
        Expr::And(es) | Expr::Or(es) => es.iter().all(is_nnf),
    }
}

/// The full distribution image as an expression: the proper cubes *plus*
/// the vacuous products, which carry the static-0 hazard behavior the
/// cover alone cannot represent.
fn image_expr(flat: &FlatSop) -> Expr {
    let mut terms: Vec<Expr> = flat
        .cover
        .cubes()
        .iter()
        .map(|c| Expr::and(c.literals().map(|(v, p)| Expr::literal(v, p)).collect()))
        .collect();
    for vac in &flat.vacuous {
        terms.push(Expr::and(
            vac.literals
                .iter()
                .map(|&(v, p)| Expr::literal(v, p))
                .collect(),
        ));
    }
    Expr::or(terms)
}

/// Replays one flatten certificate. `nvars` is the variable space the
/// flatten ran over.
pub fn check_flatten(flat: &FlatSop, trace: &FlattenTrace, nvars: usize) -> AuditReport {
    let mut report = AuditReport::default();
    report.counters.flatten_traces = 1;
    let path = FLATTEN_PATH.to_owned();

    if !is_nnf(&trace.nnf) {
        report.push(
            Severity::Error,
            "flatten.nnf-shape",
            path.clone(),
            "traced normal form complements a compound subexpression".to_owned(),
        );
        return report;
    }
    let image = image_expr(flat);
    let [(nnf_eq, nnf_proof), (image_eq, image_proof)] =
        prove_equal_each(&trace.source, [&trace.nnf, &image], nvars);
    count_proof(&mut report, nnf_proof);
    if !nnf_eq {
        report.push(
            Severity::Error,
            "flatten.nnf-divergence",
            path.clone(),
            "traced normal form computes a different function than the source".to_owned(),
        );
    }

    let produced = flat.cover.len() + flat.vacuous.len();
    let replayed = product_estimate(&trace.nnf);
    if trace.products != produced || replayed != produced as u64 {
        report.push(
            Severity::Error,
            "flatten.count-mismatch",
            path.clone(),
            format!(
                "certificate claims {} product(s), SOP has {}, independent replay expects {}",
                trace.products, produced, replayed
            ),
        );
    }

    for (i, vac) in flat.vacuous.iter().enumerate() {
        let honest = !vac.clashing.is_empty()
            && vac.clashing.iter().all(|v| {
                vac.literals.contains(&(*v, Phase::Pos)) && vac.literals.contains(&(*v, Phase::Neg))
            });
        if !honest {
            report.push(
                Severity::Error,
                "flatten.vacuous-clash",
                format!("{path}:vacuous{i}"),
                "vacuous product's clash evidence does not match its literals".to_owned(),
            );
        }
    }

    count_proof(&mut report, image_proof);
    if !image_eq {
        report.push(
            Severity::Error,
            "flatten.not-equivalent",
            path.clone(),
            "flattened SOP computes a different function than the source".to_owned(),
        );
        return report;
    }

    // Static hazard fidelity: sweep every transition of the compacted
    // support when small enough (Theorem 4.3 — the laws preserve static
    // hazard behavior exactly, in both directions).
    let support = union_support(&trace.source, &image);
    let k = support.len();
    if k <= EXHAUSTIVE_VAR_LIMIT {
        report.counters.hazard_rechecks += 1;
        let src = WaveProgram::compile(&compact_onto(&trace.source, &support), k);
        let img = WaveProgram::compile(&compact_onto(&image, &support), k);
        let mut stack = Vec::new();
        for block in 0..src.blocks() {
            let sw = src.eval_block(block, &mut stack);
            let iw = img.eval_block(block, &mut stack);
            // Lanes run in burst order `(from << k) | to`, so the first
            // diverging lane is the first diverging transition in
            // from-major order.
            let Some(lane) = (sw.static_hazard() ^ iw.static_hazard()).iter_ones().next() else {
                continue;
            };
            let burst = BLOCK_BURSTS * block + lane;
            let (a, b) = (burst >> k, burst & ((1 << k) - 1));
            report.push(
                Severity::Error,
                "flatten.static-hazard-divergence",
                path.clone(),
                format!(
                    "transition {a:#b} → {b:#b}: source {} a static hazard, SOP {}",
                    if sw.lane(lane).is_static_hazard() {
                        "has"
                    } else {
                        "lacks"
                    },
                    if iw.lane(lane).is_static_hazard() {
                        "has one"
                    } else {
                        "does not"
                    },
                ),
            );
            break;
        }
    } else {
        report.counters.hazard_partial += 1;
        report.push(
            Severity::Info,
            "flatten.hazard-partial",
            path,
            format!("support of {k} variables is too wide for the static-hazard sweep"),
        );
    }
    report
}

fn count_proof(report: &mut AuditReport, proof: EquivProof) {
    match proof {
        EquivProof::Truth => report.counters.truth_proofs += 1,
        EquivProof::Bdd => report.counters.bdd_proofs += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_bff::flatten_traced;
    use asyncmap_cube::VarTable;

    fn traced(text: &str) -> (FlatSop, FlattenTrace, usize) {
        let mut vars = VarTable::new();
        let e = Expr::parse(text, &mut vars).unwrap();
        let (flat, trace) = flatten_traced(&e, vars.len());
        (flat, trace, vars.len())
    }

    #[test]
    fn honest_traces_are_clean() {
        for text in [
            "(w + y')*(x + y)",
            "(w + y')*(x*y + y'*z)",
            "a*b + a'*c + b*c",
            "(a + b*(c + d'))' + a*d",
        ] {
            let (flat, trace, nvars) = traced(text);
            let report = check_flatten(&flat, &trace, nvars);
            assert!(report.is_clean(), "{text}: {}", report.render());
        }
    }

    #[test]
    fn dropped_vacuous_product_is_caught() {
        // Deleting the vacuous y'y product (what a non-hazard-preserving
        // flatten would do) breaks the count replay.
        let (mut flat, trace, nvars) = traced("(w + y')*(x + y)");
        assert_eq!(flat.vacuous.len(), 1);
        flat.vacuous.clear();
        let report = check_flatten(&flat, &trace, nvars);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "flatten.count-mismatch"));
    }

    #[test]
    fn forged_nnf_is_caught() {
        let (flat, mut trace, nvars) = traced("(w + y')*(x + y)");
        trace.nnf = trace.source.clone().not();
        let report = check_flatten(&flat, &trace, nvars);
        assert!(!report.is_clean());
    }

    #[test]
    fn dropped_consensus_cube_is_a_static_hazard_divergence() {
        // Same function, but without the consensus b*c the image has a
        // static-1 hazard on a's change with b = c = 1 that the source
        // structure lacks. The first diverging transition in a-major
        // order is reported.
        let (mut flat, trace, nvars) = traced("a*b + a'*c + b*c");
        let kept: Vec<_> = flat.cover.cubes()[..2].to_vec();
        assert_eq!(flat.cover.len(), 3);
        flat.cover = asyncmap_cube::Cover::from_cubes(nvars, kept);
        let report = check_flatten(&flat, &trace, nvars);
        let divergence: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.code == "flatten.static-hazard-divergence")
            .collect();
        assert_eq!(divergence.len(), 1, "{}", report.render());
        assert_eq!(divergence[0].path, "flatten");
        assert_eq!(
            divergence[0].message,
            "transition 0b110 → 0b111: source lacks a static hazard, SOP has one"
        );
    }

    #[test]
    fn dropped_consensus_cube_is_caught_at_eight_variables() {
        // An 8-variable support used to get only a partial note from the
        // six-variable sweep. The exact sweep refutes the forged SOP, and
        // its from → to witness replays on the scalar waveform oracle.
        let (mut flat, trace, nvars) = traced("a*b + a'*c + b*c + d*e*f*g*h");
        assert_eq!(nvars, 8);
        let bc = [
            (asyncmap_cube::VarId(1), Phase::Pos),
            (asyncmap_cube::VarId(2), Phase::Pos),
        ];
        let kept: Vec<_> = flat
            .cover
            .cubes()
            .iter()
            .filter(|c| !c.literals().eq(bc))
            .cloned()
            .collect();
        assert_eq!(kept.len() + 1, flat.cover.len());
        flat.cover = asyncmap_cube::Cover::from_cubes(nvars, kept);
        let report = check_flatten(&flat, &trace, nvars);
        assert!(report.notes.is_empty(), "{}", report.render());
        assert_eq!(report.counters.hazard_rechecks, 1);
        let divergence: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.code == "flatten.static-hazard-divergence")
            .collect();
        let [divergence] = divergence[..] else {
            panic!("one divergence expected: {}", report.render());
        };
        let witness = divergence
            .message
            .strip_prefix("transition ")
            .and_then(|m| m.split_once(':'))
            .and_then(|(burst, _)| burst.split_once(" → "))
            .expect("a from → to witness");
        let [from, to] = [witness.0, witness.1].map(|b| {
            let index = usize::from_str_radix(b.trim_start_matches("0b"), 2).unwrap();
            asyncmap_hazard::oracle::index_bits(nvars, index)
        });
        let source = asyncmap_hazard::wave_eval(&trace.source, &from, &to);
        let sop = asyncmap_hazard::wave_eval(&image_expr(&flat), &from, &to);
        assert!(!source.is_static_hazard() && sop.is_static_hazard());
        assert!(divergence
            .message
            .ends_with("source lacks a static hazard, SOP has one"));
    }

    #[test]
    fn forged_clash_evidence_is_caught() {
        let (mut flat, trace, nvars) = traced("(w + y')*(x + y)");
        flat.vacuous[0].clashing.clear();
        let report = check_flatten(&flat, &trace, nvars);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "flatten.vacuous-clash"));
    }
}
