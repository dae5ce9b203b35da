//! Human-readable mapping reports: cell usage, per-family area breakdown
//! and the hazard-filter activity of a run — the summary a user reads
//! after `async_tmap`.

use crate::design::MappedDesign;
use asyncmap_library::Library;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Usage of one cell type in a mapped design.
#[derive(Debug, Clone, PartialEq)]
pub struct CellUsage {
    /// Cell name.
    pub name: String,
    /// Number of instances.
    pub count: usize,
    /// Total area contributed.
    pub area: f64,
}

/// Aggregates instance counts and area per cell type, sorted by descending
/// area contribution.
pub fn cell_usage(design: &MappedDesign, library: &Library) -> Vec<CellUsage> {
    let mut by_cell: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    for cover in &design.covers {
        for inst in &cover.instances {
            let cell = &library.cells()[inst.cell_index];
            let entry = by_cell.entry(cell.name()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += cell.area();
        }
    }
    let mut out: Vec<CellUsage> = by_cell
        .into_iter()
        .map(|(name, (count, area))| CellUsage {
            name: name.to_owned(),
            count,
            area,
        })
        .collect();
    out.sort_by(|a, b| b.area.total_cmp(&a.area).then(a.name.cmp(&b.name)));
    out
}

/// Formats a full report: totals, statistics, and the cell-usage table.
/// Every line is the same at any thread count; the verdict-cache and
/// match-memo hit/miss splits, which depend on scheduling, are left to
/// [`MapStats`](crate::MapStats) readers.
pub fn render_report(design: &MappedDesign, library: &Library) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mapped to {}: {} instances over {} cones ({} subject gates)",
        design.library_name,
        design.num_instances(),
        design.stats.cones,
        design.stats.subject_gates
    );
    let _ = writeln!(
        out,
        "area {:.1} (incl. {} fanout buffer(s)), critical-path delay {:.2}",
        design.area, design.stats.buffers, design.delay
    );
    if design.stats.hazard_checks > 0 {
        let _ = writeln!(
            out,
            "hazard filter: {} containment checks, {} matches rejected",
            design.stats.hazard_checks, design.stats.hazard_rejects
        );
    }
    if design.stats.cones_reused + design.stats.cones_remapped > 0 {
        let _ = writeln!(
            out,
            "eco remap: {} cone(s) reused, {} re-covered",
            design.stats.cones_reused, design.stats.cones_remapped
        );
    }
    if design.stats.cut_truncations > 0 {
        let _ = writeln!(
            out,
            "cut enumeration: {} gate(s) truncated at max_cuts_per_gate",
            design.stats.cut_truncations
        );
    }
    let _ = writeln!(out, "{:12} {:>6} {:>10}", "cell", "count", "area");
    for u in cell_usage(design, library) {
        let _ = writeln!(out, "{:12} {:>6} {:>10.1}", u.name, u.count, u.area);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{async_tmap, MapOptions};
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::EquationSet;

    fn mapped() -> (MappedDesign, asyncmap_library::Library) {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
        (design, lib)
    }

    #[test]
    fn usage_sums_to_instance_counts_and_cell_area() {
        let (design, lib) = mapped();
        let usage = cell_usage(&design, &lib);
        let count: usize = usage.iter().map(|u| u.count).sum();
        assert_eq!(count, design.num_instances());
        let area: f64 = usage.iter().map(|u| u.area).sum();
        let cover_area: f64 = design.covers.iter().map(|c| c.area).sum();
        assert!((area - cover_area).abs() < 1e-9);
        // Sorted by descending area.
        for pair in usage.windows(2) {
            assert!(pair[0].area >= pair[1].area);
        }
    }

    #[test]
    fn report_is_the_same_at_any_thread_count() {
        // Actel on pe-send-ifc fills both the verdict cache and the match
        // memo, whose hit/miss splits vary with scheduling.
        let mut lib = builtin::actel();
        lib.annotate_hazards();
        let eqs = asyncmap_burst::benchmark("pe-send-ifc");
        let report = |threads| {
            let options = MapOptions {
                threads,
                ..MapOptions::default()
            };
            let design = async_tmap(&eqs, &lib, &options).unwrap();
            assert!(design.stats.cache_hits + design.stats.cache_misses > 0);
            render_report(&design, &lib)
        };
        assert_eq!(report(1), report(4));
    }

    #[test]
    fn report_mentions_totals() {
        let (design, lib) = mapped();
        let text = render_report(&design, &lib);
        assert!(text.contains("mapped to CMOS3"));
        assert!(text.contains("critical-path delay"));
        assert!(text.contains("cell"));
    }
}
