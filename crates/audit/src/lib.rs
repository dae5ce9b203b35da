//! Translation-validation audit trail for the asyncmap front end.
//!
//! The paper's soundness story rests on every pre-mapping transformation
//! using only hazard-preserving laws: decomposition restricted to
//! associativity and DeMorgan (Unger), partitioning cut only at
//! multi-fanout points (§3.1.2), flattening by distribution without
//! absorption or idempotence (Theorem 4.3). The instrumented entry points
//! in `asyncmap-network`, `asyncmap-bff` and `asyncmap-hazard` emit one
//! structured certificate per rewrite step, cut point and collapse; this
//! crate replays those certificates **without calling the transformation
//! code**:
//!
//! * rule applicability is re-checked syntactically
//!   ([`check_decomp_trace`]);
//! * functional equivalence is re-proved with this crate's own packed
//!   truth tables (supports of ≤ 8 variables) or BDDs from
//!   `asyncmap-bdd` ([`equiv`]);
//! * hazard-set monotonicity per step is re-proved by `asyncmap-hazard`'s
//!   one containment decision
//!   ([`decide_containment`](asyncmap_hazard::decide_containment)), exact
//!   on supports of up to 8 variables ([`monotone`]);
//! * partition cut evidence is re-derived from the raw network
//!   ([`check_partition`]);
//! * flatten collapses are replayed by independent product-count
//!   arithmetic and transition sweeps ([`check_flatten`]);
//! * burst-mode specs are checked against the unique-entry-point, maximal
//!   set and distinguishability properties, collecting every violation
//!   ([`check_spec`]).
//!
//! Deliberately **not** a dependency of `asyncmap-core`: callers run the
//! checker by explicit call (`map --audit` on the CLI), nothing here is
//! consulted on the mapping fast path, and nothing in the crates being
//! audited depends on the auditor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod decomp_check;
mod equation;
pub mod equiv;
pub mod flatten_check;
pub mod monotone;
pub mod partition_check;
pub mod report;
pub mod spec_check;

pub use asyncmap_hazard::{product_estimate, FLATTEN_REPLAY_CAP};
pub use cache::AuditCache;
pub use decomp_check::{check_decomp, check_decomp_trace};
pub use equiv::{prove_equal, EquivProof, TRUTH_VAR_LIMIT};
pub use flatten_check::check_flatten;
use flatten_check::FLATTEN_PATH;
pub use monotone::recheck_monotone;
pub use partition_check::check_partition;
pub use report::{AuditCounters, AuditReport, Finding, Severity};
pub use spec_check::check_spec;

use asyncmap_bff::{flatten_traced, Expr};
use asyncmap_network::{
    async_tech_decomp_traced, partition_traced, Cone, DecompTrace, EquationSet, Network,
    PartitionTrace,
};
use cache::{Mark, Obligation};
use decomp_check::check_decomp_cached;

/// Audits the flatten collapse of every cone: replays
/// [`asyncmap_bff::flatten_traced`] (the collapse step of the paper's
/// multi-level hazard procedure) per cone and checks the resulting
/// certificate, skipping (with an info note) cones whose independent
/// product estimate exceeds [`FLATTEN_REPLAY_CAP`].
pub fn audit_cone_flattens(net: &Network, cones: &[Cone]) -> AuditReport {
    audit_cone_flattens_inner(net, cones, None)
}

/// [`audit_cone_flattens`] with reuse: a cone whose expression (over the
/// same leaf count) already replayed without findings under `cache` is
/// discharged by reference — the flatten is deterministic in the
/// expression, so the replay would reproduce the stored verdict verbatim,
/// and its notes are re-emitted.
pub(crate) fn audit_cone_flattens_cached(
    net: &Network,
    cones: &[Cone],
    cache: &mut AuditCache,
) -> AuditReport {
    audit_cone_flattens_inner(net, cones, Some(cache))
}

fn audit_cone_flattens_inner(
    net: &Network,
    cones: &[Cone],
    mut cache: Option<&mut AuditCache>,
) -> AuditReport {
    let mut report = AuditReport::default();
    for cone in cones {
        let expr = cone.to_expr(net);
        audit_flatten(
            &mut report,
            cache.as_deref_mut(),
            &expr,
            cone.leaves.len(),
            || format!("cone:{}", net.name(cone.root)),
        );
    }
    report
}

/// How [`audit_flatten`] discharged a cone's flatten obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Discharge {
    /// By reference to a stored verdict.
    Reused,
    /// Not at all: the product estimate is over the replay cap.
    Skipped,
    /// By replaying the collapse.
    Checked,
}

/// Audits the flatten collapse of one cone's expression over `leaves`
/// leaves into `report`; `path` names the cone. Every diagnostic
/// [`check_flatten`] returns is filed under the cone:
/// `{cone}:flatten` (and `{cone}:flatten:vacuous{i}`).
pub(crate) fn audit_flatten(
    report: &mut AuditReport,
    mut cache: Option<&mut AuditCache>,
    expr: &Expr,
    leaves: usize,
    path: impl Fn() -> String,
) -> Discharge {
    let ob = Obligation::Flatten { leaves, expr };
    if let Some(c) = cache.as_deref_mut() {
        if c.replay(&ob, report, || format!("{}:{FLATTEN_PATH}", path())) {
            report.counters.flatten_traces += 1;
            return Discharge::Reused;
        }
    }
    if product_estimate(expr) > FLATTEN_REPLAY_CAP {
        report.counters.flatten_skipped += 1;
        report.push(
            Severity::Info,
            "flatten.replay-skipped",
            path(),
            "product estimate over the replay cap".to_owned(),
        );
        return Discharge::Skipped;
    }
    let (flat, trace) = flatten_traced(expr, leaves);
    if trace.source != *expr {
        report.push(
            Severity::Error,
            "flatten.source-mismatch",
            path(),
            "collapse trace does not start from the cone's expression".to_owned(),
        );
        return Discharge::Checked;
    }
    let mark = Mark::of(report);
    let mut replay = check_flatten(&flat, &trace, leaves);
    if !(replay.findings.is_empty() && replay.notes.is_empty()) {
        let cone = path();
        for f in replay.findings.iter_mut().chain(&mut replay.notes) {
            f.path = format!("{cone}:{}", f.path);
        }
    }
    report.merge(replay);
    if let Some(c) = cache {
        c.record(&ob, report, mark);
    }
    Discharge::Checked
}

/// Checks a full front-end run — decomposition, partition and per-cone
/// flatten certificates — against the equations it claims to implement.
pub fn check_pipeline(
    eqs: &EquationSet,
    net: &Network,
    dtrace: &DecompTrace,
    cones: &[Cone],
    ptrace: &PartitionTrace,
) -> AuditReport {
    let mut report = check_decomp(eqs, net, dtrace);
    report.merge(check_partition(net, cones, ptrace));
    report.merge(audit_cone_flattens(net, cones));
    report
}

/// [`check_pipeline`] with reuse of expression-pure obligations under
/// `cache` (see [`AuditCache`]). The partition check and every
/// network-bound obligation run in full.
pub(crate) fn check_pipeline_cached(
    eqs: &EquationSet,
    net: &Network,
    dtrace: &DecompTrace,
    cones: &[Cone],
    ptrace: &PartitionTrace,
    cache: &mut AuditCache,
) -> AuditReport {
    let mut report = check_decomp_cached(eqs, net, dtrace, cache);
    report.merge(check_partition(net, cones, ptrace));
    report.merge(audit_cone_flattens_cached(net, cones, cache));
    report
}

/// Runs the instrumented front end on `eqs` and audits every certificate
/// it emits. This is the one place the audit *invokes* transformation
/// code — to obtain the traces; every check then replays them
/// independently.
pub fn audit_equations(eqs: &EquationSet) -> AuditReport {
    let (net, dtrace) = async_tech_decomp_traced(eqs);
    let (cones, ptrace) = partition_traced(&net);
    let mut report = check_pipeline(eqs, &net, &dtrace, &cones, &ptrace);
    report.counters.decomposed_equations = eqs.equations.len();
    report
}

/// [`audit_equations`] with reuse under `cache`: the entry point for
/// incremental (ECO) flows, where successive audits share almost every
/// certificate. An equation whose equation audit is stored (see
/// [`AuditCache`]) is discharged by one lookup and not decomposed; the
/// others are decomposed alone, in their whole-design context, and
/// audited step by step. If that finds anything, the whole network is
/// decomposed and audited step by step instead. On a fresh cache the
/// verdict and diagnostics are identical to [`audit_equations`]'s; only
/// the work counters differ.
pub fn audit_equations_cached(eqs: &EquationSet, cache: &mut AuditCache) -> AuditReport {
    equation::audit(eqs, cache).unwrap_or_else(|| {
        let (net, dtrace) = async_tech_decomp_traced(eqs);
        let (cones, ptrace) = partition_traced(&net);
        let mut report = check_pipeline_cached(eqs, &net, &dtrace, &cones, &ptrace, cache);
        report.counters.decomposed_equations = eqs.equations.len();
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Cover, VarTable};
    use decomp_check::check_decomp_trace_cached;

    #[test]
    fn figure3_pipeline_audits_clean() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let report = audit_equations(&eqs);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.counters.num_certificates() > 0);
        assert!(report.counters.cones >= 1);
    }

    #[test]
    fn multi_output_pipeline_audits_clean() {
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let f = Cover::parse("ab + a'c", &vars).unwrap();
        let g = Cover::parse("a'd + bc'd", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        let report = audit_equations(&eqs);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.counters.equations, 2);
    }

    /// Every diagnostic of a report as `(severity, code, path, message)`,
    /// sorted.
    fn diagnostics(report: &AuditReport) -> Vec<(Severity, &'static str, String, String)> {
        let mut all: Vec<_> = report
            .findings
            .iter()
            .chain(&report.notes)
            .map(|f| (f.severity, f.code, f.path.clone(), f.message.clone()))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn warm_cache_discharges_every_quiet_obligation() {
        // Figure 3, and a nine-variable function whose cone is too wide for
        // the static-hazard sweep, so its flatten carries a partial note.
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let figure3 = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let vars = VarTable::from_names(["a", "b", "c", "d", "e", "f", "g", "h", "i"]);
        let g = Cover::parse("abc + d'ef + gh'i + a'd", &vars).unwrap();
        let wide = EquationSet::new(vars, vec![("g".to_owned(), g)]);

        for eqs in [figure3, wide] {
            let mut cache = AuditCache::new();
            let cold = audit_equations_cached(&eqs, &mut cache);
            assert!(cold.is_clean(), "{}", cold.render());
            assert!(cache.entries() > 0);
            let warm = audit_equations_cached(&eqs, &mut cache);
            assert!(warm.is_clean(), "{}", warm.render());
            // Identical verdict, identical certificate and partial-check
            // accounting, identical diagnostics — only the discharge
            // mechanism differs.
            assert_eq!(
                warm.counters.num_certificates(),
                cold.counters.num_certificates()
            );
            assert_eq!(diagnostics(&warm), diagnostics(&cold));
            // Every cacheable step (input-inverter realizations are
            // network-bound and always re-checked), equation and flatten of
            // the second pass is discharged by reference, noted or not.
            let (_, dtrace) = async_tech_decomp_traced(&eqs);
            let cacheable = dtrace
                .steps
                .iter()
                .filter(|s| s.rule != asyncmap_network::RewriteRule::InputInverter)
                .count();
            assert_eq!(warm.counters.reused_steps, cacheable);
            assert_eq!(warm.counters.reused_equations, warm.counters.equations);
            assert_eq!(warm.counters.reused_flattens, warm.counters.flatten_traces);
            assert_eq!(warm.counters.truth_proofs + warm.counters.bdd_proofs, 0);
            // The cached run with a fresh cache agrees with the uncached one.
            let reference = audit_equations(&eqs);
            assert_eq!(
                reference.counters.num_certificates(),
                cold.counters.num_certificates()
            );
            assert_eq!(
                reference.counters.hazard_partial,
                cold.counters.hazard_partial
            );
            assert_eq!(diagnostics(&reference), diagnostics(&cold));
            if eqs.inputs.len() > asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT {
                assert!(warm
                    .notes
                    .iter()
                    .any(|n| n.code == "flatten.hazard-partial"));
                assert!(warm.counters.hazard_partial > 0);
            }
        }
    }

    #[test]
    fn flatten_notes_name_their_cone() {
        // Two wide equations, so two cones carry a partial flatten note;
        // cold, warm and uncached audits all file each under its cone.
        let vars = VarTable::from_names(["a", "b", "c", "d", "e", "f", "g", "h", "i"]);
        let g = Cover::parse("abc + d'ef + gh'i + a'd", &vars).unwrap();
        let h = Cover::parse("ab'c + def' + g'hi + ai", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("g".to_owned(), g), ("h".to_owned(), h)]);
        let (net, _) = async_tech_decomp_traced(&eqs);
        let (cones, _) = partition_traced(&net);
        let mut want: Vec<String> = cones
            .iter()
            .filter(|c| c.leaves.len() > asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT)
            .map(|c| format!("cone:{}:{FLATTEN_PATH}", net.name(c.root)))
            .collect();
        want.sort();
        assert_eq!(want.len(), 2);
        let mut cache = AuditCache::new();
        let cold = audit_equations_cached(&eqs, &mut cache);
        let warm = audit_equations_cached(&eqs, &mut cache);
        for report in [audit_equations(&eqs), cold, warm] {
            let mut paths: Vec<String> = report
                .notes
                .iter()
                .filter(|n| n.code == "flatten.hazard-partial")
                .map(|n| n.path.clone())
                .collect();
            paths.sort();
            assert_eq!(paths, want, "{}", report.render());
        }
    }

    #[test]
    fn warm_cache_does_not_mask_a_tampered_trace() {
        use asyncmap_network::{async_tech_decomp_traced, partition_traced, RewriteRule};
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let mut cache = AuditCache::new();
        assert!(audit_equations_cached(&eqs, &mut cache).is_clean());

        let (net, mut dtrace) = async_tech_decomp_traced(&eqs);
        let (cones, ptrace) = partition_traced(&net);
        // Commute a regroup's operands: the function is unchanged (so the
        // cached equivalence verdict would wave it through if consulted),
        // but commutation is not a hazard-preserving law — the always-run
        // syntactic rule check must reject it under any cache state.
        let step = dtrace
            .steps
            .iter_mut()
            .find(|s| s.rule == RewriteRule::AssocRegroup)
            .unwrap();
        let asyncmap_bff::Expr::And(es) = &mut step.before else {
            panic!("AND regroup expected")
        };
        es.reverse();
        let report = check_pipeline_cached(&eqs, &net, &dtrace, &cones, &ptrace, &mut cache);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.rule-mismatch"));
    }

    #[test]
    fn warm_cache_does_not_mask_a_tampered_step_with_a_noted_verdict() {
        use asyncmap_bff::Expr;
        use asyncmap_network::{decompose_expr_demorgan, RewriteRule};
        // (a₁b₁ + … + a₁₂b₁₂)' pushes to a product of twelve sums: both
        // its DeMorgan step and the regrouping of that product are too
        // wide for even the partial hazard re-check, so each stored
        // verdict carries a `decomp.hazard-partial` note.
        let names: Vec<String> = (0..24).map(|i| format!("x{i}")).collect();
        let inputs = VarTable::from_names(names.iter().map(String::as_str));
        let var = |i: usize| Expr::Var(asyncmap_cube::VarId(i));
        let sum = Expr::Or(
            (0..12)
                .map(|i| Expr::And(vec![var(2 * i), var(2 * i + 1)]))
                .collect(),
        );
        let (net, dtrace) = decompose_expr_demorgan(&inputs, &sum.not(), "f");
        let noted = |s: &asyncmap_network::RewriteStep| {
            s.rule == RewriteRule::AssocRegroup
                && matches!(&s.before, Expr::And(es) if es.len() == 12)
        };
        let at = dtrace.steps.iter().position(noted).expect("wide regroup");

        let mut cache = AuditCache::new();
        let cold = check_decomp_trace_cached(&net, &dtrace, &mut cache);
        assert!(cold.is_clean(), "{}", cold.render());
        let step_path = format!("f:step{at}:assoc-regroup");
        assert!(cold.notes.iter().any(|n| n.path == step_path));

        // Point the step at another gate: its (rule, before, after) still
        // hits the noted verdict, but the always-run realization walk must
        // reject it.
        let mut moved = dtrace.clone();
        moved.steps[at].node = dtrace
            .steps
            .iter()
            .map(|s| s.node)
            .find(|&n| n != dtrace.steps[at].node)
            .expect("another gate");
        let report = check_decomp_trace_cached(&net, &moved, &mut cache);
        let cacheable = dtrace
            .steps
            .iter()
            .filter(|s| s.rule != RewriteRule::InputInverter)
            .count();
        assert_eq!(report.counters.reused_steps, cacheable);
        assert!(report.notes.iter().any(|n| n.path == step_path));
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.node-mismatch" && f.path == step_path));

        // Commute the regroup's operands: the rule check must reject it
        // before any verdict is consulted.
        let mut commuted = dtrace.clone();
        let Expr::And(es) = &mut commuted.steps[at].before else {
            unreachable!("matched an AND regroup")
        };
        es.reverse();
        let report = check_decomp_trace_cached(&net, &commuted, &mut cache);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "decomp.rule-mismatch" && f.path == step_path));
    }
}
