//! The decomposition certificate: each instance's cell function,
//! instantiated on its pin bindings, must be truth-table equal to the
//! covered subnetwork's function over the full reached cut space.
//!
//! Checking over the *reached* cut signals — not just the bound pins —
//! matters: a binding whose cell ignores a cut variable the subnetwork
//! depends on computes a different function, and projecting onto the
//! bound pins alone would hide that.

use crate::{path_of, truth_equal, ConeMarks, InstanceView, LintReport, Role, Severity};
use asyncmap_core::MappedDesign;
use asyncmap_library::Library;
use asyncmap_network::Cone;

/// Widest cut space the packed truth tables handle comfortably.
const SUPPORT_LIMIT: usize = 20;

pub(crate) fn check_cover(
    design: &MappedDesign,
    library: &Library,
    cone: &Cone,
    views: &[InstanceView<'_>],
    marks: &mut ConeMarks,
    report: &mut LintReport,
) {
    let net = &design.subject;
    // An instance is live if its output is the cover root or feeds some
    // other instance of the cover; anything else contributes area without
    // function.
    for view in views {
        view.inst
            .inputs
            .iter()
            .for_each(|&s| marks.set(s, Role::Read));
    }
    for view in views {
        let inst = view.inst;
        if inst.output != design.covers[view.cone_idx].root && !marks.has(inst.output, Role::Read) {
            report.push(
                Severity::Info,
                "function.dead-instance",
                path_of(net, cone, Some(inst)),
                "instance drives no load in its cover".to_owned(),
            );
        }
        if !view.structurally_sound {
            continue;
        }
        report.counters.function_checks += 1;
        let Some(args) = view.pin_vars() else {
            for s in inst.inputs.iter().filter(|s| !view.cut_signals.contains(s)) {
                report.push(
                    Severity::Error,
                    "function.unbound-pin",
                    path_of(net, cone, Some(inst)),
                    format!(
                        "pin bound to signal {} which the covered subnetwork never reaches",
                        net.name(*s)
                    ),
                );
            }
            continue;
        };
        let n = view.cut_signals.len();
        if n > SUPPORT_LIMIT {
            report.push(
                Severity::Warning,
                "function.support-too-wide",
                path_of(net, cone, Some(inst)),
                format!("cut space of {n} signals exceeds the truth-table limit ({SUPPORT_LIMIT})"),
            );
            continue;
        }
        let subnet = view.subnetwork(net);
        let cell = &library.cells()[inst.cell_index];
        let mapped = cell.bff().compose(&args);
        if !truth_equal(&mapped, &subnet, n) {
            report.push(
                Severity::Error,
                "function.mismatch",
                path_of(net, cone, Some(inst)),
                format!(
                    "cell {} on this binding does not compute the covered subnetwork's function \
                     over its {n}-signal cut space",
                    cell.name()
                ),
            );
        }
    }
}
