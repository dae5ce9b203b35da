//! Structural soundness of the assembled gate network: every signal has
//! exactly one driver, every instance input is reachable from the primary
//! inputs, and the instance graph is acyclic.
//!
//! A mapped burst-mode controller closes its feedback loops *outside* the
//! combinational block — the `y{k}` outputs re-enter as the `st{k}`
//! inputs — so any cycle through the cell instances themselves is a
//! defect: under the fundamental-mode assumption the block must settle
//! combinationally before the environment moves again. The checks here
//! run first because every later analysis (containment, waveform
//! propagation, packed evaluation) recurses or iterates over the instance
//! graph and would diverge on a cyclic one.

use crate::FmaReport;
use asyncmap_core::{Instance, MappedDesign};
use asyncmap_network::SignalId;
use asyncmap_report::Severity;

/// Runs the structural checks, appending findings to `report`.
///
/// Returns `true` if the instance graph is sound (no error findings here)
/// — the gate every downstream analysis waits on.
///
/// Every table is a plain vector indexed by signal or by flat instance
/// number; a cone signal or binding outside the subject network is
/// reported first and stops the checks (and the per-cone analyses), so
/// every later index is in range.
pub(crate) fn check_structure(design: &MappedDesign, report: &mut FmaReport) -> bool {
    let net = &design.subject;
    let before = report.num_errors();

    // Flat instance list, in (cover, instance) order.
    let instances: Vec<&Instance> = design.covers.iter().flat_map(|c| &c.instances).collect();

    let mut out_of_range = |sig: SignalId, what: &str| {
        if sig.index() >= net.len() {
            report.push(
                Severity::Error,
                "structure.signal-out-of-range",
                sig.to_string(),
                format!(
                    "{what} signal {sig} outside the {}-signal subject network",
                    net.len()
                ),
            );
        }
    };
    for cone in &design.cones {
        for &sig in std::iter::once(&cone.root)
            .chain(&cone.leaves)
            .chain(&cone.gates)
        {
            out_of_range(sig, "cone names");
        }
    }
    for inst in &instances {
        for &sig in std::iter::once(&inst.output).chain(&inst.inputs) {
            out_of_range(sig, "cell instance binds");
        }
    }
    if report.num_errors() != before {
        return false;
    }

    // Exactly one driver per signal.
    let mut drivers = vec![0u32; net.len()];
    for inst in &instances {
        let count = &mut drivers[inst.output.index()];
        *count += 1;
        if *count == 2 {
            report.push(
                Severity::Error,
                "cycle.multi-driver",
                net.name(inst.output).to_string(),
                "signal is driven by more than one cell instance".to_owned(),
            );
        }
    }

    // Signals known before any instance settles: the primary inputs.
    let mut known = vec![false; net.len()];
    for s in net.inputs() {
        known[s.index()] = true;
    }

    // Inputs with no driver at all: report once, then treat as known so a
    // single missing wire does not cascade into a forest of findings.
    for inst in &instances {
        for &sig in &inst.inputs {
            if !known[sig.index()] && drivers[sig.index()] == 0 {
                report.push(
                    Severity::Error,
                    "cycle.undriven",
                    net.name(sig).to_string(),
                    "instance input has no driver (not a primary input, not any cell's output)"
                        .to_owned(),
                );
                known[sig.index()] = true;
            }
        }
    }

    // Kahn's algorithm over the instance graph; the consumers of signal
    // `s` are `consumers[first[s]..first[s + 1]]` (compressed rows).
    let mut indeg = vec![0u32; instances.len()];
    let mut first = vec![0usize; net.len() + 1];
    for (g, inst) in instances.iter().enumerate() {
        for &sig in &inst.inputs {
            if !known[sig.index()] {
                indeg[g] += 1;
                first[sig.index() + 1] += 1;
            }
        }
    }
    for s in 0..net.len() {
        first[s + 1] += first[s];
    }
    let mut consumers = vec![0usize; first[net.len()]];
    let mut fill = first.clone();
    for (g, inst) in instances.iter().enumerate() {
        for &sig in &inst.inputs {
            if !known[sig.index()] {
                consumers[fill[sig.index()]] = g;
                fill[sig.index()] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..instances.len()).filter(|&g| indeg[g] == 0).collect();
    let mut settled = vec![false; instances.len()];
    while let Some(g) = ready.pop() {
        settled[g] = true;
        let out = instances[g].output.index();
        if !std::mem::replace(&mut known[out], true) {
            for &h in &consumers[first[out]..first[out + 1]] {
                indeg[h] -= 1;
                if indeg[h] == 0 {
                    ready.push(h);
                }
            }
        }
    }

    // Whatever never settled depends on a cycle. Separate the instances
    // *on* a cycle from those merely downstream of one: repeatedly strip
    // unsettled instances no unsettled instance reads from.
    let unsettled: Vec<usize> = (0..instances.len()).filter(|&g| !settled[g]).collect();
    if !unsettled.is_empty() {
        let mut on_cycle = settled.iter().map(|&s| !s).collect::<Vec<bool>>();
        let mut read = vec![false; net.len()];
        loop {
            let members = || unsettled.iter().copied().filter(|&g| on_cycle[g]);
            for g in members() {
                for &sig in &instances[g].inputs {
                    read[sig.index()] = true;
                }
            }
            let strip: Vec<usize> = members()
                .filter(|&g| !read[instances[g].output.index()])
                .collect();
            for g in members() {
                for &sig in &instances[g].inputs {
                    read[sig.index()] = false;
                }
            }
            if strip.is_empty() {
                break;
            }
            for g in strip {
                on_cycle[g] = false;
            }
        }
        let loop_size = unsettled.iter().filter(|&&g| on_cycle[g]).count();
        for &g in unsettled.iter().filter(|&&g| on_cycle[g]) {
            report.push(
                Severity::Error,
                "cycle.combinational",
                net.name(instances[g].output).to_string(),
                format!(
                    "cell instance sits on a combinational feedback loop of {loop_size} \
                     instance(s); feedback must close through a declared state variable, \
                     not inside the block"
                ),
            );
        }
        for &g in unsettled.iter().filter(|&&g| !on_cycle[g]) {
            report.push(
                Severity::Info,
                "cycle.combinational",
                net.name(instances[g].output).to_string(),
                "instance never settles (downstream of a combinational cycle)".to_owned(),
            );
        }
    }

    // Every primary output needs a driver (a cyclic driver is already
    // reported above).
    for (name, sig) in net.outputs() {
        if !known[sig.index()] && drivers[sig.index()] == 0 {
            report.push(
                Severity::Error,
                "cycle.undriven",
                name.clone(),
                "primary output has no driver".to_owned(),
            );
        }
    }

    report.num_errors() == before
}
