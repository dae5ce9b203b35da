//! Theorem 3.2 re-verification: every binding of a hazardous cell must
//! satisfy `hazards(cell) ⊆ hazards(covered subnetwork)`, re-derived here
//! by [`decide_containment`] rather than read from the mapper's cached
//! fast path. A refutation is an error at any width and, when the sweep
//! decided it (at most [`EXHAUSTIVE_VAR_LIMIT`] cut signals), names its
//! escaping burst; a partial verdict on a wider binding is an info note
//! `theorem32.partial` naming the reason. Where the cone is narrow
//! enough, the composed cone structure is additionally swept against the
//! original cone — the composition the paper's Lemma 4.5 licenses,
//! checked rather than assumed.

use crate::{
    composed_cover_expr, path_of, subnetwork_expr, substitute, InstanceView, LintReport, Severity,
};
use asyncmap_bff::Expr;
use asyncmap_core::{ConeCover, MappedDesign};
use asyncmap_hazard::{
    decide_containment, transition_text, Containment, PartialReason, EXHAUSTIVE_VAR_LIMIT,
};
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
        let cell = library.cells()[view.inst.cell_index].name();
        let path = || path_of(net, cone, Some(view.inst));
        match decide_containment(&candidate, &reference, n) {
            Containment::Holds => {}
            Containment::Refuted(witness) => report.push(
                Severity::Error,
                "theorem32.containment-violation",
                path(),
                format!(
                    "hazardous cell {cell} on this binding has hazards the covered subnetwork \
                     lacks ({} over {n} cut signals){}",
                    match witness {
                        Some(_) => "exhaustive transition sweep".to_owned(),
                        None => PartialReason::Static1Only.to_string(),
                    },
                    witness.map_or_else(String::new, |burst| format!(
                        ": transition {}",
                        transition_text(burst, |i| i)
                    )),
                ),
            ),
            Containment::Partial(reason) => report.push(
                Severity::Info,
                "theorem32.partial",
                path(),
                format!(
                    "Theorem 3.2 re-check of hazardous cell {cell} on this binding is partial \
                     over {n} cut signals: {reason}"
                ),
            ),
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
    if let Containment::Refuted(Some(burst)) = decide_containment(&composed, &orig, n) {
        report.push(
            Severity::Error,
            "theorem32.cone-containment",
            path_of(net, cone, None),
            format!(
                "the composed mapped cone has hazards the original cone lacks: transition {}",
                transition_text(burst, |i| i)
            ),
        );
    }
}
