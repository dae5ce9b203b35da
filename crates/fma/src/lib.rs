//! # asyncmap-fma
//!
//! Whole-design **f**undamental-**m**ode **a**nalysis: a static analyzer
//! that runs over any finished [`MappedDesign`] — and, when available,
//! its burst-mode spec — and emits a machine-readable report with
//! severity codes, in the same [`asyncmap_report`] shape the lint and
//! audit passes use.
//!
//! It checks three things, the first and last over the whole design and
//! the cone boundaries one cone at a time:
//!
//! * **structure** — core's instance-graph validator
//!   ([`asyncmap_core::validate_instance_graph`], shared with lint): every
//!   signal in range, one driver each, nothing read undriven and no
//!   combinational cycle (`structure.*`). Fundamental mode needs the block
//!   to settle combinationally, and every later phase walks the instance
//!   graph, so an error here stops the analysis;
//! * **cone boundaries**, per cone — no cone adds a hazard its subject
//!   function lacks (`boundary.containment`, `boundary.static1-escape`),
//!   decided at every width by core's per-cone verdict
//!   [`asyncmap_core::decide_cone`], which lint's whole-cone sweep shares;
//!   a cover that does not compose is reported under its fault's code;
//! * **spec conformance**, over the whole netlist — 8-valued waveform
//!   propagation of every specified burst through every instance
//!   (`boundary.burst-glitch`, `boundary.burst-mismatch`), interior-point
//!   race sweeps (`race.premature-transition`, `race.state-burst`),
//!   feedback pairing (`feedback.unpaired`) and essential-hazard
//!   candidates (`race.essential-candidate`).
//!
//! The analyzer is read-only and assumes nothing about how the design
//! was produced; a deliberately corrupted netlist is diagnosed the same
//! way a mapper-produced one is. Re-analysis after an ECO edit reuses
//! clean per-cone results through [`FmaCache`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interfere;
pub mod kernel;

pub use asyncmap_report::{Finding, Severity};

use asyncmap_burst::{expand, BurstSpec};
use asyncmap_core::{
    decide_cone, par_indexed, validate_instance_graph, CleanCones, CoverKeys, GraphFault,
    MappedDesign,
};
use asyncmap_hazard::{transition_text, Containment, EXHAUSTIVE_VAR_LIMIT};
use asyncmap_library::Library;
use asyncmap_report::{Report, Totals};
use std::fmt::Write as _;

/// Counter block of a fundamental-mode analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FmaCounters {
    /// Cones in the design.
    pub cones: usize,
    /// Cell instances in the design.
    pub instances: usize,
    /// Cones decided exactly (at most
    /// [`asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT`] leaves).
    pub containment_exact: usize,
    /// Cones that took the wide-support fallback.
    pub containment_wide: usize,
    /// Wide cones whose fallback ended without a full verdict.
    pub containment_partial: usize,
    /// Cones skipped because their (shape, cover) already analyzed clean.
    pub cones_reused: usize,
    /// Specified transitions checked (0 without a spec).
    pub spec_transitions: usize,
    /// Interior burst points swept by the packed evaluator.
    pub race_points: usize,
    /// Transitions whose interior sweep was capped to single-variable
    /// sub-bursts.
    pub race_capped: usize,
    /// Complete `st{k}` / `y{k}` feedback pairs.
    pub feedback_pairs: usize,
    /// Consecutive-edge essential-hazard candidates.
    pub essential_candidates: usize,
}

impl asyncmap_report::Counters for FmaCounters {
    fn summarize(&self, totals: &Totals, out: &mut String) {
        let _ = writeln!(
            out,
            "{} finding(s) ({} error(s)), {} note(s)",
            totals.findings, totals.errors, totals.notes
        );
        let _ = writeln!(
            out,
            "analyzed {} cone(s), {} instance(s): {} exact boundary sweep(s), \
             {} wide fallback run(s) ({} partial)",
            self.cones,
            self.instances,
            self.containment_exact,
            self.containment_wide,
            self.containment_partial
        );
        if self.spec_transitions > 0 {
            let _ = writeln!(
                out,
                "spec: {} transition(s) propagated, {} interior point(s) swept \
                 ({} capped), {} feedback pair(s), {} essential-hazard candidate(s)",
                self.spec_transitions,
                self.race_points,
                self.race_capped,
                self.feedback_pairs,
                self.essential_candidates
            );
        }
        if self.cones_reused > 0 {
            let _ = writeln!(
                out,
                "reused: {} cone(s) skipped via prior clean analysis",
                self.cones_reused
            );
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.cones += other.cones;
        self.instances += other.instances;
        self.containment_exact += other.containment_exact;
        self.containment_wide += other.containment_wide;
        self.containment_partial += other.containment_partial;
        self.cones_reused += other.cones_reused;
        self.spec_transitions += other.spec_transitions;
        self.race_points += other.race_points;
        self.race_capped += other.race_capped;
        self.feedback_pairs += other.feedback_pairs;
        self.essential_candidates += other.essential_candidates;
    }
}

/// Report of one fundamental-mode analysis run.
pub type FmaReport = Report<FmaCounters>;

/// Reuse state for incremental (ECO) re-analysis.
///
/// Keyed the same way the mapper's cover store and the lint cache are: a
/// cone is skipped when its localized (shape, chosen cover) words — its
/// [`asyncmap_core::CoverKeys`] entry — already analyzed clean under the
/// same library before this call. Only the per-cone boundary results are
/// cached; the whole-network phases (structure, spec conformance) always
/// rerun, and only cones with *no* findings enter the cache. A cone whose
/// key changed is decided afresh.
#[derive(Clone, Default)]
pub struct FmaCache {
    clean: CleanCones,
}

impl FmaCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct clean (shape, cover) pairs remembered.
    pub fn entries(&self) -> usize {
        self.clean.len()
    }
}

/// Analyzes `design` without a spec: structure and per-cone boundary
/// containment.
pub fn analyze_design(design: &MappedDesign, library: &Library) -> FmaReport {
    analyze_inner(design, library, None, None)
}

/// Analyzes `design` against its burst-mode `spec`: everything
/// [`analyze_design`] checks, plus whole-network waveform propagation of
/// every specified transition, interior race sweeps, feedback pairing
/// and essential-hazard candidates.
pub fn analyze_design_with_spec(
    design: &MappedDesign,
    library: &Library,
    spec: &BurstSpec,
) -> FmaReport {
    analyze_inner(design, library, Some(spec), None)
}

/// [`analyze_design`] with reuse: per-cone boundary checks are skipped
/// for cones already known clean under the same library.
pub fn analyze_design_cached(
    design: &MappedDesign,
    library: &Library,
    cache: &mut FmaCache,
) -> FmaReport {
    analyze_inner(design, library, None, Some(cache))
}

/// [`analyze_design_with_spec`] with reuse, see [`analyze_design_cached`].
pub fn analyze_design_with_spec_cached(
    design: &MappedDesign,
    library: &Library,
    spec: &BurstSpec,
    cache: &mut FmaCache,
) -> FmaReport {
    analyze_inner(design, library, Some(spec), Some(cache))
}

fn analyze_inner(
    design: &MappedDesign,
    library: &Library,
    spec: Option<&BurstSpec>,
    cache: Option<&mut FmaCache>,
) -> FmaReport {
    let threads = asyncmap_core::threads_from_env_capped();
    let mut report = FmaReport::default();
    report.counters.cones = design.cones.len();
    report.counters.instances = design.num_instances();

    // Structure first: every later phase walks the instance graph and
    // needs it in range, acyclic and fully driven.
    let faults = validate_instance_graph(design, library);
    faults
        .iter()
        .for_each(|f| f.push_to(&design.subject, &mut report));
    if report.num_errors() > 0 {
        return report;
    }

    // With a cache, key every cone in one arena and check only the cones
    // not already known clean; without one, check every cone and key none.
    let mut reuse = cache.map(|cache| {
        cache.clean.bind(library);
        (CoverKeys::new(design), &mut cache.clean)
    });
    let known_clean = |i: usize| {
        reuse
            .as_ref()
            .is_some_and(|(keys, clean)| keys.get(i).is_some_and(|k| clean.contains(k)))
    };
    let todo: Vec<usize> = (0..design.cones.len())
        .filter(|&i| !known_clean(i))
        .collect();
    report.counters.cones_reused = design.cones.len() - todo.len();
    // Per-cone checks on the shared worker pool, merged in partition order
    // so reports are identical across thread counts.
    let verdicts = par_indexed(todo.len(), threads, |k| {
        let i = todo[k];
        decide_cone(
            &design.subject,
            &design.cones[i],
            &design.covers[i],
            library,
        )
    });
    for (&i, verdict) in todo.iter().zip(verdicts) {
        let exact = design.cones[i].leaves.len() <= EXHAUSTIVE_VAR_LIMIT;
        report.counters.containment_exact += usize::from(exact);
        report.counters.containment_wide += usize::from(!exact);
        report.counters.containment_partial +=
            usize::from(matches!(verdict, Ok(Containment::Partial(_))));
        let quiet = report_verdict(design, i, verdict, &mut report);
        if let (true, Some((keys, clean))) = (quiet, reuse.as_mut()) {
            if let Some(key) = keys.get(i) {
                clean.insert(key);
            }
        }
    }

    if let Some(spec) = spec {
        match expand(spec) {
            Ok(flow) => {
                let spec_out =
                    interfere::check_spec(design, library, spec, &flow, threads, &mut report);
                report.counters.spec_transitions = spec_out.transitions;
                report.counters.race_points = spec_out.race_points;
                report.counters.race_capped = spec_out.race_capped;
                report.counters.feedback_pairs = spec_out.feedback_pairs;
                report.counters.essential_candidates = spec_out.essential_candidates;
            }
            Err(e) => report.push(
                Severity::Error,
                "spec.invalid",
                spec.name.clone(),
                format!("spec does not expand to a flow table: {e}"),
            ),
        }
    }

    report
}

/// Reports the boundary verdict of cone `index`: a refutation is an error,
/// a partial verdict only a counter, because an inconclusive bound is not
/// evidence of a defect. `true` when it raised no finding.
fn report_verdict(
    design: &MappedDesign,
    index: usize,
    verdict: Result<Containment, GraphFault>,
    report: &mut FmaReport,
) -> bool {
    let cone = &design.cones[index];
    let n = cone.leaves.len();
    let (code, message) = match verdict {
        Ok(Containment::Holds | Containment::Partial(_)) => return true,
        Err(fault) => {
            fault.push_to(&design.subject, report);
            return false;
        }
        Ok(Containment::Refuted(Some(witness))) => (
            "boundary.containment",
            format!(
                "mapped cone can glitch on an input burst its subject function \
                 handles clean ({n} leaves, exhaustive waveform sweep): transition {} \
                 — upstream monotone transitions no longer cover this cone's bursts",
                transition_text(witness, |i| i)
            ),
        ),
        Ok(Containment::Refuted(None)) => (
            "boundary.static1-escape",
            format!(
                "wide cone ({n} leaves): a static-1 transition of the subject \
                 function has no single covering product in the mapped \
                 structure's flattening — the cone can glitch while holding 1"
            ),
        ),
    };
    let path = design.subject.name(cone.root).to_string();
    report.push(Severity::Error, code, path, message);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_core::{async_tmap, MapOptions};
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::EquationSet;

    fn figure3() -> (MappedDesign, Library) {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        (design, lib)
    }

    #[test]
    fn figure3_analyzes_clean() {
        let (design, lib) = figure3();
        let report = analyze_design(&design, &lib);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.counters.cones, design.cones.len());
        assert!(report.counters.containment_exact > 0);
    }

    #[test]
    fn cache_reuses_unchanged_cones() {
        let (design, lib) = figure3();
        let mut cache = FmaCache::new();
        let cold = analyze_design_cached(&design, &lib, &mut cache);
        assert!(cold.is_clean(), "{}", cold.render());
        assert_eq!(cold.counters.cones_reused, 0);
        assert!(cache.entries() > 0);
        let warm = analyze_design_cached(&design, &lib, &mut cache);
        assert!(warm.is_clean());
        assert_eq!(warm.counters.cones_reused, warm.counters.cones);
        assert_eq!(warm.counters.containment_exact, 0);
    }

    #[test]
    fn cache_rebinds_on_library_change() {
        let (design, lib) = figure3();
        let mut cache = FmaCache::new();
        analyze_design_cached(&design, &lib, &mut cache);
        assert!(cache.entries() > 0);
        let mut other = builtin::cmos3();
        other.annotate_hazards();
        assert!(cache.clean.bind(&other));
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn injected_cycle_is_classified() {
        let (mut design, lib) = figure3();
        // Rewire some instance's first input to its own output.
        let cover = design
            .covers
            .iter_mut()
            .find(|c| !c.instances.is_empty())
            .unwrap();
        let out = cover.instances[0].output;
        cover.instances[0].inputs[0] = out;
        let report = analyze_design(&design, &lib);
        assert!(report.findings.iter().any(|f| f.code == "structure.cycle"));
    }

    #[test]
    fn out_of_range_binding_is_reported_not_panicked_on() {
        let (mut design, lib) = figure3();
        let beyond = asyncmap_network::SignalId(design.subject.len() + 5);
        let cover = design
            .covers
            .iter_mut()
            .find(|c| !c.instances.is_empty())
            .unwrap();
        cover.instances[0].inputs[0] = beyond;
        let report = analyze_design(&design, &lib);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "structure.signal-out-of-range" && f.severity == Severity::Error),
            "{}",
            report.render()
        );
        // The later phases never ran on the broken instance graph.
        assert_eq!(report.counters.containment_exact, 0);
    }

    #[test]
    fn report_renders_summary() {
        let (design, lib) = figure3();
        let text = analyze_design(&design, &lib).render();
        assert!(text.contains("analyzed"), "{text}");
        assert!(text.contains("boundary sweep"), "{text}");
    }
}
