//! Structural well-formedness beyond the instance graph (which core's
//! `validate_instance_graph` checks): exactly-once cover completeness,
//! partition boundaries only at legal cut points, and area re-addition.

use crate::{path_of, ConeMarks, InstanceView, LintReport, Severity};
use asyncmap_core::{ConeCover, MappedDesign};
use asyncmap_library::Library;
use asyncmap_network::{partition_roots, Cone, NodeKind};

const AREA_TOL: f64 = 1e-6;

/// Design-wide checks: cone/cover alignment, the partition boundary,
/// gate partitioning and total area. Every signal the design names must
/// already be in range.
pub(crate) fn check_global(design: &MappedDesign, library: &Library, report: &mut LintReport) {
    let net = &design.subject;
    if design.cones.len() != design.covers.len() {
        report.push(
            Severity::Error,
            "structure.cone-cover-mismatch",
            "design".to_owned(),
            format!(
                "{} cone(s) but {} cover(s)",
                design.cones.len(),
                design.covers.len()
            ),
        );
        return;
    }

    // Partition boundary: cover roots must be exactly the legal cut points
    // re-derived from the subject network — primary outputs and
    // multi-fanout gates, nothing else (paper §3.1.2).
    let roots = partition_roots(net);
    let mut expected = vec![false; net.len()];
    for r in &roots {
        expected[r.index()] = true;
    }
    let mut seen_root = vec![false; net.len()];
    for (cone, cover) in design.cones.iter().zip(&design.covers) {
        if cone.root != cover.root {
            report.push(
                Severity::Error,
                "structure.root-mismatch",
                path_of(net, cone, None),
                format!(
                    "cone root {} but cover root {}",
                    net.name(cone.root),
                    net.name(cover.root)
                ),
            );
        }
        if std::mem::replace(&mut seen_root[cone.root.index()], true) {
            report.push(
                Severity::Error,
                "partition.duplicate-root",
                path_of(net, cone, None),
                "two cones share this root signal".to_owned(),
            );
        }
        if !expected[cone.root.index()] {
            report.push(
                Severity::Error,
                "partition.illegal-boundary",
                path_of(net, cone, None),
                format!(
                    "signal {} is not a legal cut point (neither a primary output nor a multi-fanout gate)",
                    net.name(cone.root)
                ),
            );
        }
    }
    for &missing in roots.iter().filter(|r| !seen_root[r.index()]) {
        report.push(
            Severity::Error,
            "partition.missing-root",
            format!("signal {}", net.name(missing)),
            "legal cut point has no cone rooted at it".to_owned(),
        );
    }

    // Cone leaves must be primary inputs or other cones' roots, and the
    // cones' gate sets must partition the network's gates.
    let mut is_input = vec![false; net.len()];
    for s in net.inputs() {
        is_input[s.index()] = true;
    }
    const UNOWNED: usize = usize::MAX;
    let mut gate_owner = vec![UNOWNED; net.len()];
    for (idx, cone) in design.cones.iter().enumerate() {
        for &leaf in &cone.leaves {
            if !is_input[leaf.index()] && !expected[leaf.index()] {
                report.push(
                    Severity::Error,
                    "partition.illegal-leaf",
                    path_of(net, cone, None),
                    format!(
                        "leaf {} is neither a primary input nor a cone root",
                        net.name(leaf)
                    ),
                );
            }
        }
        for &g in &cone.gates {
            match gate_owner[g.index()] {
                UNOWNED => gate_owner[g.index()] = idx,
                other => report.push(
                    Severity::Error,
                    "partition.gate-in-two-cones",
                    path_of(net, cone, None),
                    format!(
                        "gate {} also belongs to the cone rooted at {}",
                        net.name(g),
                        net.name(design.cones[other].root)
                    ),
                ),
            }
        }
    }
    let orphans = net
        .signals()
        .filter(|&s| {
            matches!(net.node(s), NodeKind::Gate { .. }) && gate_owner[s.index()] == UNOWNED
        })
        .count();
    if orphans > 0 {
        report.push(
            Severity::Error,
            "partition.gates-unassigned",
            "design".to_owned(),
            format!("{orphans} subject gate(s) belong to no cone"),
        );
    }

    check_total_area(design, library, report);
}

/// Re-adds the reported areas: per-cover area must equal the sum of its
/// instances' cell areas, and the design total must equal the cover sum
/// plus the fanout buffers the assembler says it added.
fn check_total_area(design: &MappedDesign, library: &Library, report: &mut LintReport) {
    let net = &design.subject;
    let mut cover_sum = 0.0f64;
    for (cone, cover) in design.cones.iter().zip(&design.covers) {
        let sum: f64 = cover
            .instances
            .iter()
            .filter_map(|i| library.cells().get(i.cell_index))
            .map(|c| c.area())
            .sum();
        if (sum - cover.area).abs() > AREA_TOL * cover.area.abs().max(1.0) {
            report.push(
                Severity::Error,
                "structure.cover-area",
                path_of(net, cone, None),
                format!(
                    "cover reports area {} but its instances sum to {sum}",
                    cover.area
                ),
            );
        }
        cover_sum += cover.area;
    }
    let buffer_area = library
        .cells()
        .iter()
        .filter(|c| c.name().starts_with("BUF"))
        .map(|c| c.area())
        .min_by(f64::total_cmp);
    let expected = cover_sum + design.stats.buffers as f64 * buffer_area.unwrap_or(0.0);
    if design.stats.buffers > 0 && buffer_area.is_none() {
        report.push(
            Severity::Warning,
            "structure.buffers-without-cell",
            "design".to_owned(),
            format!(
                "design reports {} fanout buffer(s) but the library has no BUF cell",
                design.stats.buffers
            ),
        );
    } else if (expected - design.area).abs() > AREA_TOL * design.area.abs().max(1.0) {
        report.push(
            Severity::Error,
            "structure.total-area",
            "design".to_owned(),
            format!(
                "design reports area {} but covers plus {} buffer(s) sum to {expected}",
                design.area, design.stats.buffers
            ),
        );
    }
}

/// Exactly-once coverage: the instances' covered-gate sets must partition
/// the cone's gates, and the cone root must be produced by some instance.
pub(crate) fn check_coverage(
    design: &MappedDesign,
    cone: &Cone,
    cover: &ConeCover,
    views: &[InstanceView<'_>],
    marks: &mut ConeMarks,
    report: &mut LintReport,
) {
    let net = &design.subject;
    if !cover.instances.iter().any(|i| i.output == cover.root) {
        report.push(
            Severity::Error,
            "coverage.root-uncovered",
            path_of(net, cone, None),
            "no instance produces the cone root".to_owned(),
        );
    }
    let covered = || views.iter().flat_map(|v| &v.covered_gates);
    covered().for_each(|&g| marks.cover(g));
    for &g in &cone.gates {
        match marks.covered(g) {
            0 => report.push(
                Severity::Error,
                "coverage.gate-uncovered",
                path_of(net, cone, None),
                format!("cone gate {} is covered by no instance", net.name(g)),
            ),
            1 => {}
            n => report.push(
                Severity::Error,
                "coverage.gate-multiply-covered",
                path_of(net, cone, None),
                format!("cone gate {} is covered by {n} instances", net.name(g)),
            ),
        }
    }
    covered().for_each(|&g| marks.uncover(g));
}
