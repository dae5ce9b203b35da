//! Design-side qualification: equation-set sanity and BLIF structural
//! findings.

use crate::PreflightReport;
use asyncmap_blif::{BlifNetlist, CollapseErrorKind, CollapseLimits};
use asyncmap_core::ClusterLimits;
use asyncmap_network::EquationSet;
use asyncmap_report::Severity;
use std::collections::HashSet;

/// Support width past which mapping cost becomes a concern (the exact
/// hazard machinery sweeps transition spaces exponential in the support).
const WIDE_SUPPORT_WARNING: usize = 24;

/// Checks an equation set: duplicate output names, support widths past
/// the cluster leaf cap, unused primary inputs.
pub fn preflight_design(eqs: &EquationSet) -> PreflightReport {
    let mut report = PreflightReport::default();
    report.counters.equations = eqs.equations.len();
    let leaf_cap = ClusterLimits::MAX_LEAVES;

    let mut seen: HashSet<&str> = HashSet::new();
    let mut used = vec![false; eqs.inputs.len()];
    for (name, cover) in &eqs.equations {
        if !seen.insert(name) {
            report.push(
                Severity::Error,
                "design.multi-driven",
                format!("equation {name}"),
                "two equations drive the same output name".into(),
            );
        }
        let support = cover.support();
        for v in &support {
            used[v.index()] = true;
        }
        if support.len() > WIDE_SUPPORT_WARNING {
            report.push(
                Severity::Warning,
                "design.wide-support",
                format!("equation {name}"),
                format!(
                    "support of {} inputs: exact hazard analysis over this cone \
                     will be slow or fall back to conservative verdicts",
                    support.len()
                ),
            );
        } else if support.len() > leaf_cap {
            report.push(
                Severity::Info,
                "design.wide-support",
                format!("equation {name}"),
                format!(
                    "support of {} inputs exceeds the cluster leaf cap of \
                     {leaf_cap}; every cover of this cone uses multiple cells",
                    support.len()
                ),
            );
        }
    }
    for (i, flag) in used.iter().enumerate() {
        if !flag {
            report.push(
                Severity::Info,
                "design.unused-input",
                format!("input {}", eqs.inputs.name(asyncmap_cube::VarId(i))),
                "no equation depends on this primary input".into(),
            );
        }
    }
    report
}

/// Checks a BLIF netlist structurally, and — when it is sound — collapses
/// it and runs the equation-set checks on the result. Returns the
/// collapsed equations so callers qualify and map the same object; `None`
/// when a structural error makes collapse impossible.
pub fn preflight_blif(net: &BlifNetlist) -> (PreflightReport, Option<EquationSet>) {
    let mut report = PreflightReport::default();
    let s = net.structure();
    for n in &s.undriven {
        report.push(
            Severity::Error,
            "design.undriven",
            format!("net {n}"),
            "read by the netlist but never driven".into(),
        );
    }
    for n in &s.multi_driven {
        report.push(
            Severity::Error,
            "design.multi-driven",
            format!("net {n}"),
            "more than one driver".into(),
        );
    }
    for n in &s.on_cycle {
        report.push(
            Severity::Error,
            "design.cycle",
            format!("net {n}"),
            "on a combinational cycle: fundamental-mode feedback must come \
             from the synthesis flow, not the netlist"
                .into(),
        );
    }
    for latch in &net.latches {
        report.push(
            Severity::Error,
            "design.latch",
            format!("net {}", latch.output),
            format!(
                ".latch at line {}: the fundamental-mode mapper is combinational",
                latch.line
            ),
        );
    }
    for n in &s.unused {
        report.push(
            Severity::Info,
            "design.unused",
            format!("net {n}"),
            "driven but read by nothing; its logic will be dropped".into(),
        );
    }
    if net.outputs.is_empty() {
        report.push(
            Severity::Error,
            "design.no-outputs",
            format!("model {}", net.model),
            "no .outputs declared".into(),
        );
    }
    if !s.is_sound() || !net.latches.is_empty() || net.outputs.is_empty() {
        return (report, None);
    }

    match net.to_equations(&CollapseLimits::default()) {
        Ok(eqs) => {
            report.merge(preflight_design(&eqs));
            (report, Some(eqs))
        }
        Err(e) => {
            let code = match e.kind {
                CollapseErrorKind::ConstantOutput => "design.constant-output",
                CollapseErrorKind::CubeBlowup => "design.collapse-blowup",
                _ => "design.collapse",
            };
            report.push(
                Severity::Error,
                code,
                format!("net {}", e.signal),
                e.message,
            );
            (report, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_blif::parse_blif;

    fn blif(text: &str) -> BlifNetlist {
        parse_blif(text, "t").unwrap()
    }

    #[test]
    fn benchmarks_are_error_free() {
        for def in asyncmap_burst::BENCHMARKS {
            let eqs = asyncmap_burst::benchmark(def.name);
            let report = preflight_design(&eqs);
            assert_eq!(report.num_errors(), 0, "{}: {}", def.name, report.render());
        }
    }

    #[test]
    fn clean_blif_collapses() {
        let (report, eqs) = preflight_blif(&blif(
            ".inputs a b c\n.outputs f\n.names a b t\n11 1\n.names t c f\n1- 1\n-1 1\n",
        ));
        assert_eq!(report.num_errors(), 0, "{}", report.render());
        assert_eq!(eqs.unwrap().equations.len(), 1);
    }

    #[test]
    fn cycle_is_an_error_with_the_expected_code() {
        let (report, eqs) = preflight_blif(&blif(
            ".inputs a\n.outputs f\n.names a x u\n11 1\n.names u x\n1 1\n.names a f\n1 1\n",
        ));
        assert!(eqs.is_none());
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "design.cycle" && f.severity == Severity::Error));
    }

    #[test]
    fn latch_undriven_and_constant_codes() {
        let (r, _) = preflight_blif(&blif(".inputs d\n.outputs q\n.latch d q\n"));
        assert!(r.findings.iter().any(|f| f.code == "design.latch"));

        let (r, _) = preflight_blif(&blif(".inputs a\n.outputs f\n.names ghost f\n1 1\n"));
        assert!(r.findings.iter().any(|f| f.code == "design.undriven"));

        let (r, _) = preflight_blif(&blif(".inputs a\n.outputs f\n.names f\n1\n"));
        assert!(r
            .findings
            .iter()
            .any(|f| f.code == "design.constant-output"));
    }

    #[test]
    fn unused_logic_is_a_note_not_an_error() {
        let (report, eqs) = preflight_blif(&blif(
            ".inputs a b\n.outputs f\n.names a b f\n11 1\n.names a b dead\n01 1\n",
        ));
        assert_eq!(report.num_errors(), 0);
        assert!(report.notes.iter().any(|f| f.code == "design.unused"));
        assert!(eqs.is_some());
    }

    #[test]
    fn duplicate_equation_names_are_an_error() {
        let eqs = asyncmap_burst::benchmark("dme");
        let mut dup = eqs.equations.clone();
        dup.push(dup[0].clone());
        let doubled = EquationSet::new(eqs.inputs.clone(), dup);
        let report = preflight_design(&doubled);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "design.multi-driven" && f.severity == Severity::Error));
    }
}
