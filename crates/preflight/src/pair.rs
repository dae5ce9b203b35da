//! Pair-wise qualification: decompose and partition the design exactly as
//! the mapper would, then qualify every cone root with the mapper's own
//! cut enumeration and matcher ([`qualify_cone_root`]).

use crate::PreflightReport;
use asyncmap_core::{qualify_cone_root, ClusterLimits, HazardPolicy, Matcher};
use asyncmap_library::Library;
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use asyncmap_report::Severity;

/// Statically qualifies the (design, library) pair.
///
/// Tree covering must choose, at every cone root, a matched cluster
/// rooted there — interior gates can ride inside an ancestor's cluster,
/// but the root cannot. So a root none of whose enumerated clusters
/// matches any library cell (pin-permutation-exact, hazards ignored) is a
/// *guaranteed* cover failure and reports `pair.unmappable` at error
/// severity. A root that matches functionally but loses every match to
/// the hazard-containment filter reports `pair.hazard-limited` at warning
/// severity: the mapper's buffer insertion or objective choice may still
/// find a legal cover, but the pair deserves a look.
///
/// One hazard-filtering [`Matcher`] answers both questions. It needs the
/// cells' hazard annotations: an annotated `library` is used as is, an
/// unannotated one is annotated on a clone, so the caller's object is
/// untouched either way.
pub fn preflight_pair(eqs: &EquationSet, library: &Library) -> PreflightReport {
    let mut report = PreflightReport::default();
    if library.is_empty() || eqs.equations.is_empty() {
        return report;
    }
    let net = async_tech_decomp(eqs);
    let cones = partition(&net);
    report.counters.cones = cones.len();

    let annotated = crate::annotated(library);
    let matcher = Matcher::new(&annotated, HazardPolicy::SubsetCheck);
    let limits = ClusterLimits::default();
    for cone in &cones {
        let q = qualify_cone_root(&net, cone, &limits, &matcher);
        report.counters.clusters += q.clusters;
        let root_name = net.name(cone.root);
        if !q.functional {
            report.counters.unmappable_roots += 1;
            report.push(
                Severity::Error,
                "pair.unmappable",
                format!("cone {root_name}"),
                format!(
                    "none of the {} cluster(s) rooted here matches any cell of \
                     {}: covering is guaranteed to fail",
                    q.clusters,
                    library.name()
                ),
            );
        } else if !q.hazard_ok {
            report.push(
                Severity::Warning,
                "pair.hazard-limited",
                format!("cone {root_name}"),
                "every functional match at this root is rejected by the \
                 hazard-containment filter"
                    .into(),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_library::{builtin, Cell};

    #[test]
    fn builtin_pairs_have_no_unmappable_roots() {
        let eqs = asyncmap_burst::benchmark("dme");
        for lib in builtin::all_libraries() {
            let report = preflight_pair(&eqs, &lib);
            assert_eq!(
                report.num_errors(),
                0,
                "{}: {}",
                lib.name(),
                report.render()
            );
        }
    }

    #[test]
    fn library_without_inverters_is_unmappable_on_a_design_needing_them() {
        // AND/OR cells only: any cone whose root is an inverter (every
        // benchmark has one after DeMorgan-free decomposition) or whose
        // root function is negative in some input cannot be covered.
        let mut lib = Library::new("no-inv");
        lib.add(Cell::from_bff("AND2", "a*b", 1.0));
        lib.add(Cell::from_bff("OR2", "a + b", 1.0));
        lib.add(Cell::from_bff("BUF", "(a')'", 1.0));
        let eqs = asyncmap_burst::benchmark("dme");
        let report = preflight_pair(&eqs, &lib);
        assert!(
            report.num_errors() > 0,
            "expected unmappable roots:\n{}",
            report.render()
        );
        assert!(report.findings.iter().any(|f| f.code == "pair.unmappable"));
    }

    #[test]
    fn empty_design_or_library_is_quietly_skipped() {
        let eqs = asyncmap_burst::benchmark("dme");
        let report = preflight_pair(&eqs, &Library::new("void"));
        assert!(report.is_clean());
    }
}
