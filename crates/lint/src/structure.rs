//! Structural well-formedness: netlist acyclicity and drivenness, pin
//! binding arity and index validity, exactly-once cover completeness,
//! partition boundaries only at legal cut points, and area re-addition.

use crate::{path_of, InstanceView, LintReport, Severity};
use asyncmap_core::{ConeCover, MappedDesign};
use asyncmap_library::Library;
use asyncmap_network::{partition_roots, Cone, NodeKind, SignalId};
use std::collections::HashMap;

const AREA_TOL: f64 = 1e-6;

/// Range validity of every signal the design names: each cone's root,
/// leaves and gates and each binding's output and inputs must lie inside
/// the subject network. Returns `false` after reporting any that does
/// not: every other check indexes the network by signal.
pub(crate) fn check_signal_ranges(design: &MappedDesign, report: &mut LintReport) -> bool {
    let net = &design.subject;
    let before = report.num_errors();
    let outside = |s: &&SignalId| s.index() >= net.len();
    for cone in &design.cones {
        let named = std::iter::once(&cone.root)
            .chain(&cone.leaves)
            .chain(&cone.gates);
        for s in named.filter(outside) {
            report.push(
                Severity::Error,
                "partition.signal-out-of-range",
                path_of(net, cone, None),
                format!(
                    "cone names signal {s} outside the {}-signal subject network",
                    net.len()
                ),
            );
        }
    }
    for cover in &design.covers {
        for inst in &cover.instances {
            for s in std::iter::once(&inst.output)
                .chain(&inst.inputs)
                .filter(outside)
            {
                report.push(
                    Severity::Error,
                    "partition.signal-out-of-range",
                    format!("cone {} / instance {s}", net.name(cover.root)),
                    format!(
                        "binding references signal {s} outside the {}-signal subject network",
                        net.len()
                    ),
                );
            }
        }
    }
    report.num_errors() == before
}

/// Design-wide checks: cone/cover alignment, the partition boundary,
/// gate partitioning, netlist acyclicity/drivenness and total area. Every
/// signal the design names must already be in range
/// ([`check_signal_ranges`]).
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

    check_netlist_graph(design, &is_input, report);
    check_total_area(design, library, report);
}

/// Acyclicity and drivenness of the mapped netlist: every signal a binding
/// consumes must be a primary input or some instance's output, and the
/// instance dependency graph must be a DAG. `is_input` marks the primary
/// inputs.
fn check_netlist_graph(design: &MappedDesign, is_input: &[bool], report: &mut LintReport) {
    let net = &design.subject;
    // Per signal, the (cover, instance) that drives it last.
    const UNDRIVEN: (u32, u32) = (u32::MAX, u32::MAX);
    let mut driver = vec![UNDRIVEN; net.len()];
    for (ci, cover) in design.covers.iter().enumerate() {
        for (ii, inst) in cover.instances.iter().enumerate() {
            let slot = &mut driver[inst.output.index()];
            if std::mem::replace(slot, (ci as u32, ii as u32)) != UNDRIVEN {
                report.push(
                    Severity::Error,
                    "structure.multiply-driven",
                    format!("signal {}", net.name(inst.output)),
                    "two instances drive the same signal".to_owned(),
                );
            }
        }
    }

    // Tri-color DFS over signals through instance bindings, from every
    // primary output.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; net.len()];
    let mut undriven_reported = vec![false; net.len()];
    for (oname, oroot) in net.outputs() {
        let mut stack: Vec<(SignalId, bool)> = vec![(*oroot, false)];
        while let Some((s, leaving)) = stack.pop() {
            if leaving {
                color[s.index()] = BLACK;
                continue;
            }
            match color[s.index()] {
                BLACK => continue,
                GRAY => {
                    report.push(
                        Severity::Error,
                        "structure.cycle",
                        format!("signal {}", net.name(s)),
                        format!(
                            "combinational cycle through the mapped netlist reaches output {oname}"
                        ),
                    );
                    continue;
                }
                _ => {}
            }
            if is_input[s.index()] {
                color[s.index()] = BLACK;
                continue;
            }
            let (ci, ii) = driver[s.index()];
            if (ci, ii) == UNDRIVEN {
                if !std::mem::replace(&mut undriven_reported[s.index()], true) {
                    report.push(
                        Severity::Error,
                        "structure.undriven",
                        format!("signal {}", net.name(s)),
                        format!("signal is consumed on the path to output {oname} but no instance drives it"),
                    );
                }
                color[s.index()] = BLACK;
                continue;
            }
            color[s.index()] = GRAY;
            stack.push((s, true));
            for &f in &design.covers[ci as usize].instances[ii as usize].inputs {
                stack.push((f, false));
            }
        }
    }
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

/// Cell-index and arity validity of every binding in `cover`. Returns
/// `false` when an out-of-range cell or arity mismatch makes the deeper
/// walks unsafe for this cover.
pub(crate) fn check_instances_wellformed(
    design: &MappedDesign,
    library: &Library,
    cone: &Cone,
    cover: &ConeCover,
    report: &mut LintReport,
) -> bool {
    let net = &design.subject;
    let mut sound = true;
    for inst in &cover.instances {
        let Some(cell) = library.cells().get(inst.cell_index) else {
            report.push(
                Severity::Error,
                "structure.cell-out-of-range",
                path_of(net, cone, Some(inst)),
                format!(
                    "cell index {} outside the {}-cell library",
                    inst.cell_index,
                    library.cells().len()
                ),
            );
            sound = false;
            continue;
        };
        if inst.inputs.len() != cell.num_inputs() {
            report.push(
                Severity::Error,
                "structure.arity-mismatch",
                path_of(net, cone, Some(inst)),
                format!(
                    "cell {} has {} pin(s) but {} signal(s) are bound",
                    cell.name(),
                    cell.num_inputs(),
                    inst.inputs.len()
                ),
            );
            sound = false;
        }
    }
    sound
}

/// Exactly-once coverage: the instances' covered-gate sets must partition
/// the cone's gates, and the cone root must be produced by some instance.
pub(crate) fn check_coverage(
    design: &MappedDesign,
    cone: &Cone,
    cover: &ConeCover,
    views: &[InstanceView<'_>],
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
    let mut count: HashMap<SignalId, usize> = HashMap::new();
    for view in views {
        for &g in &view.covered_gates {
            *count.entry(g).or_insert(0) += 1;
        }
    }
    for &g in &cone.gates {
        match count.get(&g).copied().unwrap_or(0) {
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
}
