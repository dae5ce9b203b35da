//! Theorem 3.2 re-verification: every binding of a hazardous cell must
//! satisfy `hazards(cell) ⊆ hazards(covered subnetwork)`, re-derived here
//! rather than read from the mapper's cached fast path. A binding of at
//! most [`EXHAUSTIVE_VAR_LIMIT`] cut signals is decided exactly by the
//! transition sweep; a wider one by the descriptor-guided comparison,
//! which may reject conservatively, so its rejections are warnings.
//! Where the cone is narrow enough, the composed cone structure is
//! additionally swept against the original cone — the composition the
//! paper's Lemma 4.5 licenses, checked rather than assumed.

use crate::{
    composed_cover_expr, path_of, subnetwork_expr, substitute, InstanceView, LintReport, Severity,
};
use asyncmap_bff::Expr;
use asyncmap_core::{ConeCover, MappedDesign};
use asyncmap_hazard::{hazards_subset, hazards_subset_exhaustive, EXHAUSTIVE_VAR_LIMIT};
use asyncmap_library::Library;
use asyncmap_network::{Cone, Network, SignalId};
use std::collections::HashMap;

/// The Theorem 3.2 obligation of one structurally sound binding: the
/// cell's BFF over the binding's cut signals, the covered subnetwork over
/// the same space, and the size of that space. `None` when the cell is
/// hazard-free (containment holds trivially on any binding) or a pin is
/// unbound (already an error from the function pass).
pub(crate) fn binding_obligation(
    net: &Network,
    library: &Library,
    view: &InstanceView<'_>,
    cell_hazardous: &[bool],
) -> Option<(Expr, Expr, usize)> {
    let inst = view.inst;
    if !cell_hazardous
        .get(inst.cell_index)
        .copied()
        .unwrap_or(false)
    {
        return None;
    }
    let var_of: HashMap<SignalId, usize> = view
        .cut_signals
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    let args = inst
        .inputs
        .iter()
        .map(|s| var_of.get(s).map(|&v| Expr::Var(asyncmap_cube::VarId(v))))
        .collect::<Option<Vec<Expr>>>()?;
    let candidate = substitute(library.cells()[inst.cell_index].bff(), &args);
    let reference = subnetwork_expr(net, inst.output, &var_of);
    Some((candidate, reference, view.cut_signals.len()))
}

pub(crate) fn check_cover(
    design: &MappedDesign,
    library: &Library,
    cone: &Cone,
    cover: &ConeCover,
    views: &[InstanceView<'_>],
    cell_hazardous: &[bool],
    report: &mut LintReport,
) {
    let net = &design.subject;
    let mut all_sound = true;
    for view in views {
        if !view.structurally_sound {
            all_sound = false;
            continue;
        }
        let Some((candidate, reference, n)) =
            binding_obligation(net, library, view, cell_hazardous)
        else {
            continue;
        };
        report.counters.theorem32_checks += 1;
        if !hazards_subset(&candidate, &reference, n) {
            let (severity, method) = if n <= EXHAUSTIVE_VAR_LIMIT {
                // The exhaustive sweep is exact: this is a real violation.
                (Severity::Error, "exhaustive transition sweep")
            } else {
                // Guided verdict on a wide support; may be conservative.
                (Severity::Warning, "descriptor-guided comparison")
            };
            report.push(
                severity,
                "theorem32.containment-violation",
                path_of(net, cone, Some(view.inst)),
                format!(
                    "hazardous cell {} on this binding has hazards the covered subnetwork lacks \
                     ({method} over {n} cut signals)",
                    library.cells()[view.inst.cell_index].name(),
                ),
            );
        }
    }

    // Whole-cone sweep: the composed mapped structure against the original
    // cone, over the cone's leaf space.
    let n = cone.leaves.len();
    if n > EXHAUSTIVE_VAR_LIMIT {
        report.counters.cone_sweeps_skipped += 1;
        return;
    }
    if !all_sound {
        return; // composition is meaningless on a structurally broken cover
    }
    let Some(composed) = composed_cover_expr(cone, cover, library) else {
        return; // missing driver, already a structure finding
    };
    report.counters.cone_sweeps += 1;
    let (orig, _) = cone.to_expr(net);
    if !hazards_subset_exhaustive(&composed, &orig, n) {
        report.push(
            Severity::Error,
            "theorem32.cone-containment",
            path_of(net, cone, None),
            "the composed mapped cone has hazards the original cone lacks".to_owned(),
        );
    }
}
