//! # asyncmap-fma
//!
//! Whole-design **f**undamental-**m**ode **a**nalysis: a static analyzer
//! that runs over any finished [`MappedDesign`] — and, when available,
//! its burst-mode spec — and emits a machine-readable report with
//! severity codes, in the same [`asyncmap_report`] shape the lint and
//! audit passes use.
//!
//! Where the per-cone lint pass re-proves each cone against its *own*
//! subject function, this crate checks the properties that only exist at
//! whole-network scope:
//!
//! * **structure** — combinational cycles, multiply-driven and undriven
//!   signals (`cycle.*`): the fundamental-mode assumption needs the block
//!   to settle combinationally, with feedback closed only through the
//!   declared state variables;
//! * **cone boundaries** — every cone's input bursts must be covered by
//!   upstream cones' verified-monotonic output transitions
//!   (`boundary.containment`, `boundary.static1-escape`), decided by
//!   [`asyncmap_hazard::decide_containment`]: the exhaustive waveform
//!   sweep up to [`asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT`] leaves and its
//!   bounded flattening fallback above;
//! * **spec conformance** — 8-valued waveform propagation of every
//!   specified burst through the whole netlist
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

mod boundary;
mod interfere;
pub mod kernel;
mod structure;

pub use asyncmap_report::{Finding, Severity};

use asyncmap_burst::{expand, BurstSpec};
use asyncmap_core::{par_indexed, CleanCones, MappedDesign};
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
             {} wide ladder run(s) ({} partial)",
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
/// cone is skipped when its localized (shape, chosen cover) words — via
/// [`asyncmap_core::cone_cover_words`] — already analyzed clean under the
/// same library. Only the per-cone boundary results are cached; the
/// whole-network phases (structure, spec conformance) always rerun, and
/// only cones with *no* findings enter the cache. A cone whose key
/// changed is decided afresh.
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
        self.clean.keys.len()
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
    // needs it acyclic and fully driven.
    if !structure::check_structure(design, &mut report) {
        return report;
    }

    // Without a cache, a fresh one: it skips nothing and is dropped after.
    let mut fresh = FmaCache::default();
    let cache = cache.unwrap_or(&mut fresh);
    cache.clean.bind(library);
    // Per-cone checks on the shared worker pool, merged in partition order
    // so reports are identical across thread counts.
    let outcomes = par_indexed(design.cones.len(), threads, |i| {
        boundary::check_cone(design, library, &cache.clean, i)
    });
    for outcome in outcomes {
        report.counters.containment_exact += usize::from(outcome.exact);
        report.counters.containment_wide += usize::from(!outcome.exact && !outcome.reused);
        report.counters.containment_partial += usize::from(outcome.partial);
        report.counters.cones_reused += usize::from(outcome.reused);
        let quiet = outcome.findings.is_empty();
        for (sev, code, path, msg) in outcome.findings {
            report.push(sev, code, path, msg);
        }
        if quiet && !outcome.reused {
            if let Some(key) = outcome.key {
                cache.clean.keys.insert(key);
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
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "cycle.combinational"));
    }

    #[test]
    fn report_renders_summary() {
        let (design, lib) = figure3();
        let text = analyze_design(&design, &lib).render();
        assert!(text.contains("analyzed"), "{text}");
        assert!(text.contains("boundary sweep"), "{text}");
    }
}
