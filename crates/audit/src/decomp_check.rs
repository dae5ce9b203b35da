//! Replay of decomposition certificates ([`DecompTrace`]) against the
//! produced network, without calling the decomposition code.
//!
//! Per [`RewriteStep`] the checker discharges three obligations:
//!
//! 1. **Rule applicability** — the `before`/`after` pair is syntactically
//!    an instance of the claimed rule (associative regrouping over the
//!    same operand sequence, a one-level DeMorgan push or its involution,
//!    or an input-inverter realization on the right input signal);
//! 2. **Functional equivalence** — re-proved by [`crate::equiv`]'s packed
//!    truth tables / BDDs;
//! 3. **Hazard monotonicity** — `hazards(after) ⊆ hazards(before)`,
//!    re-proved by the [`crate::monotone`] ladder.
//!
//! Per [`EquationCert`] it additionally walks the network from the output
//! root and requires the emitted gate tree to realize the certified
//! result node for node (as do assoc steps for their gate trees); and
//! it requires every gate of the network to be covered by some equation's
//! walk (no uncertified logic).

use std::collections::HashMap;

use asyncmap_bff::Expr;
use asyncmap_network::{
    DecompTrace, EquationSet, GateOp, Network, NodeKind, RewriteRule, RewriteStep, SignalId,
};

use crate::cache::{AuditCache, Mark, Obligation};
use crate::equiv::{prove_equal, EquivProof};
use crate::monotone::recheck_monotone;
use crate::report::{AuditReport, Severity};

/// Walks the gate tree rooted at `signal` and checks that it realizes
/// `expected` node for node: inputs are variables (by input position),
/// inverters are `Not`, buffers are transparent and AND/OR gates are the
/// raw `Expr` nodes over their fanins that the certified balanced-tree
/// regrouping claims. `None` expects nothing and only walks. Every gate
/// reached is marked in `visited`, whether or not it matches, so the
/// no-uncertified-logic sweep sees the whole tree.
fn realizes(
    net: &Network,
    signal: SignalId,
    expected: Option<&Expr>,
    positions: &[usize],
    visited: &mut [bool],
) -> bool {
    let (op, fanin) = match net.node(signal) {
        NodeKind::Input => {
            return matches!(expected, Some(Expr::Var(v)) if v.index() == positions[signal.index()]);
        }
        NodeKind::Gate { op, fanin } => (*op, fanin),
    };
    visited[signal.index()] = true;
    // The subexpressions the trailing fanins must realize: all of them
    // for AND/OR, the last one for inverters and buffers. `None` on a
    // shape mismatch, and then the fanins are walked for coverage only.
    let operands: Option<&[Expr]> = match (op, expected) {
        (GateOp::And, Some(Expr::And(es))) | (GateOp::Or, Some(Expr::Or(es)))
            if es.len() == fanin.len() =>
        {
            Some(es)
        }
        (GateOp::Inv, Some(Expr::Not(e))) if !fanin.is_empty() => Some(std::slice::from_ref(&**e)),
        (GateOp::Buf, Some(e)) if !fanin.is_empty() => Some(std::slice::from_ref(e)),
        _ => None,
    };
    let skip = fanin.len() - operands.map_or(0, <[Expr]>::len);
    let mut ok = operands.is_some();
    for (i, &f) in fanin.iter().enumerate() {
        let want = operands.and_then(|es| i.checked_sub(skip).map(|j| &es[j]));
        let realized = realizes(net, f, want, positions, visited);
        if want.is_some() {
            ok &= realized;
        }
    }
    ok
}

/// Greedy left-to-right fringe match: `true` iff splitting same-operator
/// binary nodes of `tree` (without any commutation) yields exactly the
/// operand sequence `operands`. Operand equality is tried before
/// splitting, so operands that themselves use the same operator are
/// matched whole.
fn fringe_matches(tree: &Expr, operands: &[Expr], is_and: bool) -> bool {
    fn go(tree: &Expr, operands: &[Expr], pos: usize, is_and: bool) -> Option<usize> {
        if pos < operands.len() && *tree == operands[pos] {
            return Some(pos + 1);
        }
        let es = match (tree, is_and) {
            (Expr::And(es), true) | (Expr::Or(es), false) => es,
            _ => return None,
        };
        let mut pos = pos;
        for e in es {
            pos = go(e, operands, pos, is_and)?;
        }
        Some(pos)
    }
    go(tree, operands, 0, is_and) == Some(operands.len())
}

/// `true` iff `step` is syntactically an instance of its claimed rule.
fn rule_applies(step: &RewriteStep) -> bool {
    match step.rule {
        RewriteRule::AssocRegroup => match &step.before {
            Expr::And(es) => es.len() >= 2 && fringe_matches(&step.after, es, true),
            Expr::Or(es) => es.len() >= 2 && fringe_matches(&step.after, es, false),
            _ => false,
        },
        RewriteRule::DeMorganPush => {
            let Expr::Not(inner) = &step.before else {
                return false;
            };
            match &**inner {
                // Involution: (e')' → e.
                Expr::Not(e) => step.after == **e,
                // One-level push: (x₁·…·xₖ)' → x₁'+…+xₖ' and the dual.
                Expr::And(es) => {
                    step.after == Expr::or(es.iter().map(|e| e.clone().not()).collect())
                }
                Expr::Or(es) => {
                    step.after == Expr::and(es.iter().map(|e| e.clone().not()).collect())
                }
                _ => false,
            }
        }
        RewriteRule::InputInverter => {
            step.before == step.after
                && matches!(&step.before, Expr::Not(v) if matches!(**v, Expr::Var(_)))
        }
    }
}

fn count_proof(report: &mut AuditReport, proof: EquivProof) {
    match proof {
        EquivProof::Truth => report.counters.truth_proofs += 1,
        EquivProof::Bdd => report.counters.bdd_proofs += 1,
    }
}

fn check_monotone(
    report: &mut AuditReport,
    candidate: &Expr,
    reference: &Expr,
    code: &'static str,
    path: &impl Fn() -> String,
) {
    let out = recheck_monotone(candidate, reference);
    if out.partial {
        report.counters.hazard_partial += 1;
        if out.skipped {
            report.push(
                Severity::Info,
                "decomp.hazard-partial",
                path(),
                format!("hazard re-check degraded: {}", out.detail),
            );
        }
    } else {
        report.counters.hazard_rechecks += 1;
    }
    if !out.ok {
        report.push(
            Severity::Error,
            code,
            path(),
            match &out.witness {
                Some(burst) => format!(
                    "hazards(after) ⊆ hazards(before) refuted ({}): transition {burst}",
                    out.detail
                ),
                None => format!("hazards(after) ⊆ hazards(before) refuted ({})", out.detail),
            },
        );
    }
}

/// Discharges one equivalence + hazard-monotonicity obligation
/// (`candidate ≡ reference` and `hazards(candidate) ⊆
/// hazards(reference)`) of a rewrite step (`rule`) or, with `rule` `None`,
/// of an equation certificate — by reference to an identical stored
/// verdict when `cache` has one. Returns `false` iff the two sides
/// compute different functions.
fn check_rewrite(
    report: &mut AuditReport,
    mut cache: Option<&mut AuditCache>,
    rule: Option<RewriteRule>,
    nvars: usize,
    reference: &Expr,
    candidate: &Expr,
    path: &impl Fn() -> String,
) -> bool {
    let ob = match rule {
        Some(rule) => Obligation::Step {
            nvars,
            rule,
            before: reference,
            after: candidate,
        },
        None => Obligation::Equation {
            nvars,
            source: reference,
            result: candidate,
        },
    };
    if let Some(c) = cache.as_deref_mut() {
        if c.replay(&ob, report, path) {
            return true;
        }
    }
    let mark = Mark::of(report);
    let (eq, proof) = prove_equal(reference, candidate, nvars);
    count_proof(report, proof);
    if !eq {
        return false;
    }
    check_monotone(
        report,
        candidate,
        reference,
        "decomp.hazard-containment",
        path,
    );
    if let Some(c) = cache {
        c.record(&ob, report, mark);
    }
    true
}

/// Replays a [`DecompTrace`] against the network it claims to describe.
/// Does not consult the source equations — see [`check_decomp`] for the
/// variant that additionally checks source fidelity.
pub fn check_decomp_trace(net: &Network, trace: &DecompTrace) -> AuditReport {
    check_decomp_trace_inner(net, trace, None)
}

/// [`check_decomp_trace`] with reuse: the per-step and per-equation
/// equivalence and hazard-monotonicity obligations — pure functions of
/// the certified expressions alone — are skipped when an identical
/// obligation already replayed without findings under `cache`, and its
/// stored notes are re-emitted under this step's or equation's path.
/// Everything tied to *this* network (rule applicability, node
/// realization walks, the no-uncertified-logic sweep, output-root
/// checks) always runs in full.
#[cfg(test)]
pub(crate) fn check_decomp_trace_cached(
    net: &Network,
    trace: &DecompTrace,
    cache: &mut AuditCache,
) -> AuditReport {
    check_decomp_trace_inner(net, trace, Some(cache))
}

fn check_decomp_trace_inner(
    net: &Network,
    trace: &DecompTrace,
    mut cache: Option<&mut AuditCache>,
) -> AuditReport {
    let mut report = AuditReport::default();
    report.counters.rewrite_steps = trace.steps.len();
    report.counters.equations = trace.equations.len();
    let signals = net.len();
    let mut positions = vec![usize::MAX; signals];
    for (i, s) in net.inputs().iter().enumerate() {
        positions[s.index()] = i;
    }
    let mut visited = vec![false; signals];

    for (i, step) in trace.steps.iter().enumerate() {
        let path = || format!("{}:step{}:{}", step.equation, i, step.rule.name());
        if !rule_applies(step) {
            report.push(
                Severity::Error,
                "decomp.rule-mismatch",
                path(),
                format!(
                    "before/after pair is not an instance of {}",
                    step.rule.name()
                ),
            );
            continue;
        }
        match step.rule {
            RewriteRule::InputInverter => {
                // before == after: nothing to prove functionally. The
                // obligation is the node realization: an inverter gate
                // over exactly the claimed primary input.
                let Expr::Not(v) = &step.before else {
                    unreachable!("rule_applies checked the shape");
                };
                let Expr::Var(v) = **v else {
                    unreachable!("rule_applies checked the shape");
                };
                let ok = match net.node(step.node) {
                    NodeKind::Gate {
                        op: GateOp::Inv,
                        fanin,
                    } => fanin.len() == 1 && fanin[0] == net.inputs()[v.index()],
                    _ => false,
                };
                if ok {
                    visited[step.node.index()] = true;
                } else {
                    report.push(
                        Severity::Error,
                        "decomp.node-mismatch",
                        path(),
                        format!(
                            "node {:?} is not an inverter over input {}",
                            step.node,
                            v.index()
                        ),
                    );
                }
                continue;
            }
            RewriteRule::AssocRegroup | RewriteRule::DeMorganPush => {
                // The equivalence and monotonicity obligations depend only
                // on (nvars, rule, before, after) — never on the network —
                // so an identical obligation that already replayed without
                // findings discharges this one.
                let equivalent = check_rewrite(
                    &mut report,
                    cache.as_deref_mut(),
                    Some(step.rule),
                    trace.nvars,
                    &step.before,
                    &step.after,
                    &path,
                );
                if !equivalent {
                    report.push(
                        Severity::Error,
                        "decomp.not-equivalent",
                        path(),
                        "before and after compute different functions".to_owned(),
                    );
                    continue;
                }
                // Only assoc steps certify the final shape of their node's
                // gate tree (a DeMorgan push is an intermediate rewrite;
                // its node realizes the *fully pushed* form, covered by
                // the equation certificate).
                if step.rule == RewriteRule::AssocRegroup
                    && !realizes(net, step.node, Some(&step.after), &positions, &mut visited)
                {
                    report.push(
                        Severity::Error,
                        "decomp.node-mismatch",
                        path(),
                        format!(
                            "gate tree at {:?} does not realize the certified regrouping",
                            step.node
                        ),
                    );
                }
            }
        }
    }

    let outputs: HashMap<&str, SignalId> = net
        .outputs()
        .iter()
        .map(|(n, s)| (n.as_str(), *s))
        .collect();
    for cert in &trace.equations {
        let path = || format!("{}:equation", cert.name);
        match outputs.get(cert.name.as_str()) {
            Some(&root) if root == cert.root => {}
            _ => {
                report.push(
                    Severity::Error,
                    "decomp.output-mismatch",
                    path(),
                    format!(
                        "network does not mark {:?} as output {:?}",
                        cert.root, cert.name
                    ),
                );
                continue;
            }
        }
        let equivalent = check_rewrite(
            &mut report,
            cache.as_deref_mut(),
            None,
            trace.nvars,
            &cert.source,
            &cert.result,
            &path,
        );
        if !equivalent {
            report.push(
                Severity::Error,
                "decomp.not-equivalent",
                path(),
                "decomposed result computes a different function than the source".to_owned(),
            );
            continue;
        }
        if !realizes(net, cert.root, Some(&cert.result), &positions, &mut visited) {
            report.push(
                Severity::Error,
                "decomp.node-mismatch",
                path(),
                "network walk from the output root does not realize the certified expression"
                    .to_owned(),
            );
        }
    }

    // No uncertified logic: every gate must be reachable from a certified
    // walk (output roots expand through every cube tree and every shared
    // inverter).
    for s in net.signals() {
        if matches!(net.node(s), NodeKind::Gate { .. }) && !visited[s.index()] {
            report.push(
                Severity::Error,
                "decomp.uncovered-gate",
                format!("{:?}", s),
                "gate is not covered by any certified equation walk".to_owned(),
            );
        }
    }
    report
}

/// [`check_decomp_trace`], plus source fidelity: every equation of `eqs`
/// must have a certificate whose source expression is exactly the
/// two-level form of its cover (no simplification slipped in before the
/// certified rewrites started).
pub fn check_decomp(eqs: &EquationSet, net: &Network, trace: &DecompTrace) -> AuditReport {
    check_decomp_inner(eqs, net, trace, None)
}

/// [`check_decomp`] with reuse under `cache`: step and certificate
/// obligations are discharged as in `check_decomp_trace_cached`, and
/// source fidelity is always checked in full.
pub(crate) fn check_decomp_cached(
    eqs: &EquationSet,
    net: &Network,
    trace: &DecompTrace,
    cache: &mut AuditCache,
) -> AuditReport {
    check_decomp_inner(eqs, net, trace, Some(cache))
}

fn check_decomp_inner(
    eqs: &EquationSet,
    net: &Network,
    trace: &DecompTrace,
    cache: Option<&mut AuditCache>,
) -> AuditReport {
    let mut report = check_decomp_trace_inner(net, trace, cache);
    if trace.nvars != eqs.inputs.len() {
        report.push(
            Severity::Error,
            "decomp.nvars-mismatch",
            "trace".to_owned(),
            format!(
                "trace ranges over {} variables, equations over {}",
                trace.nvars,
                eqs.inputs.len()
            ),
        );
    }
    let certs: HashMap<&str, &asyncmap_network::EquationCert> = trace
        .equations
        .iter()
        .map(|c| (c.name.as_str(), c))
        .collect();
    for (name, cover) in &eqs.equations {
        match certs.get(name.as_str()) {
            None => report.push(
                Severity::Error,
                "decomp.missing-equation",
                name.clone(),
                "equation has no end-to-end certificate".to_owned(),
            ),
            Some(cert) => {
                if cert.source != Expr::from_cover(cover) {
                    report.push(
                        Severity::Error,
                        "decomp.source-mismatch",
                        name.clone(),
                        "certificate source is not the two-level form of the equation's cover"
                            .to_owned(),
                    );
                }
            }
        }
    }
    if trace.equations.len() != eqs.equations.len() {
        report.push(
            Severity::Error,
            "decomp.missing-equation",
            "trace".to_owned(),
            format!(
                "{} equation certificate(s) for {} equation(s)",
                trace.equations.len(),
                eqs.equations.len()
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_network::{async_tech_decomp_traced, decompose_expr_demorgan};

    fn figure3() -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)])
    }

    #[test]
    fn honest_trace_is_clean() {
        let eqs = figure3();
        let (net, trace) = async_tech_decomp_traced(&eqs);
        let report = check_decomp(&eqs, &net, &trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.counters.rewrite_steps, trace.steps.len());
        assert_eq!(report.counters.equations, 1);
    }

    #[test]
    fn demorgan_trace_is_clean() {
        let inputs = VarTable::from_names(["w", "x", "y"]);
        let mut scratch = inputs.clone();
        let e = Expr::parse("(w*x + y)' + w*y", &mut scratch).unwrap();
        let (net, trace) = decompose_expr_demorgan(&inputs, &e, "f");
        let report = check_decomp_trace(&net, &trace);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn commuted_regroup_is_rejected() {
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        // Swap the operand order inside the first regroup's `before`:
        // commutation is not a hazard-preserving law, so the fringe match
        // must fail even though the function is unchanged.
        let step = trace
            .steps
            .iter_mut()
            .find(|s| s.rule == RewriteRule::AssocRegroup)
            .unwrap();
        let Expr::And(es) = &mut step.before else {
            panic!("AND regroup expected")
        };
        es.reverse();
        let report = check_decomp_trace(&net, &trace);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.rule-mismatch"));
    }

    #[test]
    fn pruned_source_is_rejected() {
        // A certificate claiming the decomposition started from the
        // *simplified* cover (dropping the consensus cube bc) fails both
        // source fidelity and the node-realization obligations.
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let mut pruned_vars = VarTable::from_names(["a", "b", "c"]);
        trace.equations[0].source = Expr::parse("a*b + a'*c", &mut pruned_vars).unwrap();
        let report = check_decomp(&eqs, &net, &trace);
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.source-mismatch"));
    }

    #[test]
    fn refuted_obligation_is_never_reused() {
        // Certify the equation as realizing the pruned cover: equivalent
        // to the source, but with the static 1-hazard the consensus cube
        // bc covers. The refutation must be re-derived on every pass.
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let mut vars = VarTable::from_names(["a", "b", "c"]);
        trace.equations[0].result = Expr::parse("a*b + a'*c", &mut vars).unwrap();
        let mut cache = AuditCache::new();
        for pass in 0..2 {
            let report = check_decomp_trace_cached(&net, &trace, &mut cache);
            assert!(
                report
                    .findings
                    .iter()
                    .any(|f| f.code == "decomp.hazard-containment" && f.path == "f:equation"),
                "pass {pass}: {}",
                report.render()
            );
            assert_eq!(report.counters.reused_equations, 0);
        }
    }

    #[test]
    fn seven_variable_static0_hazard_is_refuted_with_a_witness() {
        // Certify the equation as realizing (w + y')(x + y) + abcd: the
        // same function, but the vacuous y'y product pulses when y changes
        // with w = x = 0. The flattened covers are equal, so the partial
        // check that used to run above six variables let this through; the
        // exact sweep refutes it, and its witness replays on the oracle.
        let vars = VarTable::from_names(["w", "x", "y", "a", "b", "c", "d"]);
        let f = Cover::parse("wx + wy + xy' + abcd", &vars).unwrap();
        let eqs = EquationSet::new(vars.clone(), vec![("f".to_owned(), f)]);
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let mut scratch = vars.clone();
        let forged = Expr::parse("(w + y')*(x + y) + a*b*c*d", &mut scratch).unwrap();
        trace.equations[0].result = forged.clone();
        let report = check_decomp_trace(&net, &trace);
        let finding = report
            .findings
            .iter()
            .find(|f| f.code == "decomp.hazard-containment" && f.path == "f:equation")
            .unwrap_or_else(|| panic!("{}", report.render()));
        let (from, to) = finding
            .message
            .rsplit_once("transition ")
            .and_then(|(_, burst)| burst.split_once(" → "))
            .expect("a from → to witness");
        let [from, to] = [from, to].map(|b| {
            let index = usize::from_str_radix(b.trim_start_matches("0b"), 2).unwrap();
            asyncmap_hazard::oracle::index_bits(7, index)
        });
        let source = &trace.equations[0].source;
        assert!(asyncmap_hazard::wave_eval(&forged, &from, &to).hazard);
        assert!(!asyncmap_hazard::wave_eval(source, &from, &to).hazard);
    }

    #[test]
    fn forged_node_is_rejected() {
        let eqs = figure3();
        let (net, mut trace) = async_tech_decomp_traced(&eqs);
        let (a, b) = (trace.equations[0].root, trace.steps[0].node);
        trace.steps[0].node = a;
        trace.equations[0].root = b;
        let report = check_decomp_trace(&net, &trace);
        assert!(!report.is_clean());
    }
}
