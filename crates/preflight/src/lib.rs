//! Static preflight qualification of a (library, design) pair *before*
//! technology mapping.
//!
//! The mapper's own verification passes (`asyncmap-lint`,
//! `asyncmap-audit`, `asyncmap-fma`) check an implementation *after* it
//! exists. Real-world workloads arriving through the BLIF/genlib
//! frontends fail earlier and less legibly: a genlib file whose declared
//! pin phases contradict its SOP, a library with no cell in the inverter
//! class, a netlist with a combinational cycle. This crate qualifies the
//! inputs statically and reports severity-coded findings on the shared
//! [`asyncmap_report`] machinery, so a doomed mapping run is refused with
//! a diagnosis instead of a panic or a mid-flight cover error.
//!
//! Three check families, composable or run together via [`preflight`]:
//!
//! * **library** ([`preflight_library`], [`preflight_genlib`]) —
//!   declared-function cross-checks, pin-phase-vs-unateness
//!   contradictions (`library.function-mismatch`), vacuous pins that can
//!   never match a support-projected cluster, P-class duplicate and
//!   area/delay-dominated cells, per-cell hazard characterization, and
//!   P-class mapability coverage over all ≤4-input full-support classes
//!   including the four base-gate classes the hazard-preserving
//!   decomposition emits (`library.coverage-gap`);
//! * **design** ([`preflight_design`], [`preflight_blif`]) — undriven and
//!   multiply-driven nets, combinational cycles, unsupported latches,
//!   unused logic, support widths past the cluster leaf cap;
//! * **pair** ([`preflight_pair`]) — the design is decomposed and
//!   partitioned exactly as the mapper would, and every cone root is
//!   qualified by the mapper's own cut enumeration and matcher
//!   ([`asyncmap_core::qualify_cone_root`]: only the root's cuts are
//!   materialized, and one hazard-filtering matcher answers both
//!   questions): a root none of whose clusters match any cell is a
//!   *guaranteed* cover failure (`pair.unmappable`, error); a root that
//!   matches functionally but loses every match to the hazard filter is
//!   flagged `pair.hazard-limited` (warning).
//!
//! Cells are characterized once: the library pass reads a cell's stored
//! hazard annotation when there is one, and the pair pass clones and
//! annotates the library only when the caller's is not annotated.
//!
//! Exit policy mirrors the other passes: gate on [`Report::num_errors`],
//! tolerate warnings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod library;
mod pair;

pub use design::{preflight_blif, preflight_design};
pub use library::{preflight_genlib, preflight_library};
pub use pair::preflight_pair;

use asyncmap_library::Library;
use asyncmap_network::EquationSet;
use asyncmap_report::{Counters, Report, Totals};
use std::borrow::Cow;

/// Work counters of a preflight run.
#[derive(Debug, Default, Clone, Copy)]
pub struct PreflightCounters {
    /// Library cells examined.
    pub cells: usize,
    /// Cells whose structure has logic hazards.
    pub hazardous_cells: usize,
    /// Design equations examined.
    pub equations: usize,
    /// Cones the pair check partitioned the design into.
    pub cones: usize,
    /// Clusters sampled at cone roots by the pair check.
    pub clusters: usize,
    /// Cone roots with no realizable cluster (guaranteed cover failures).
    pub unmappable_roots: usize,
}

impl Counters for PreflightCounters {
    fn summarize(&self, totals: &Totals, out: &mut String) {
        out.push_str(&format!(
            "preflight: {} finding(s) ({} error(s)), {} note(s); \
             {} cell(s) ({} hazardous), {} equation(s), {} cone(s), \
             {} root cluster(s) sampled, {} unmappable root(s)\n",
            totals.findings,
            totals.errors,
            totals.notes,
            self.cells,
            self.hazardous_cells,
            self.equations,
            self.cones,
            self.clusters,
            self.unmappable_roots,
        ));
    }

    fn absorb(&mut self, other: &Self) {
        self.cells += other.cells;
        self.hazardous_cells += other.hazardous_cells;
        self.equations += other.equations;
        self.cones += other.cones;
        self.clusters += other.clusters;
        self.unmappable_roots += other.unmappable_roots;
    }
}

/// A preflight report.
pub type PreflightReport = Report<PreflightCounters>;

/// Runs the full qualification: library checks, design checks and the
/// pair-wise mapability check, merged into one report. An unannotated
/// `library` is annotated once, on a clone, for both the library and the
/// pair checks.
pub fn preflight(design: &EquationSet, library: &Library) -> PreflightReport {
    let library = annotated(library);
    let mut report = preflight_library(&library);
    report.merge(preflight_design(design));
    report.merge(preflight_pair(design, &library));
    report
}

/// `library` itself when it is hazard-annotated, else an annotated clone.
fn annotated(library: &Library) -> Cow<'_, Library> {
    if library.is_annotated() {
        Cow::Borrowed(library)
    } else {
        let mut copy = library.clone();
        copy.annotate_hazards();
        Cow::Owned(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_library::builtin;

    #[test]
    fn builtin_pairs_are_error_free() {
        // Acceptance gate: every built-in benchmark × library pair must
        // qualify with zero errors (warnings tolerated). The exhaustive
        // sweep lives in tests/; here one representative pair.
        let eqs = asyncmap_burst::benchmark("scsi");
        let report = preflight(&eqs, &builtin::lsi9k());
        assert_eq!(report.num_errors(), 0, "{}", report.render());
    }

    #[test]
    fn render_mentions_the_pass() {
        let report: PreflightReport = Report::default();
        assert!(report.render().starts_with("preflight:"));
    }
}
