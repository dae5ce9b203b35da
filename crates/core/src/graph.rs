//! Instance-graph faults: the one validator of a mapped design's instance
//! graph finds them over the whole design, the cone builder
//! ([`crate::mapped_cone_expr`]) within one cone, and lint and fma both
//! report them under one code set.

use crate::design::MappedDesign;
use crate::Instance;
use asyncmap_library::Library;
use asyncmap_network::{Cone, Network, SignalId};
use asyncmap_report::{Report, Severity};
use std::fmt;

/// A fault of a mapped design's instance graph, at the signal it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFault {
    /// A cone or binding names this signal, outside the subject network.
    OutOfRange(SignalId),
    /// More than one instance drives this signal.
    MultiplyDriven(SignalId),
    /// An instance reads this signal, and nothing drives it.
    Undriven(SignalId),
    /// Nothing drives this primary output.
    UndrivenOutput(SignalId),
    /// The instance driving this signal sits on a combinational cycle.
    Cycle(SignalId),
    /// The instance driving this signal reads a cycle and never settles.
    BehindCycle(SignalId),
    /// A cover reads this signal, which is neither a leaf of its cone nor
    /// the output of one of its instances: a binding escapes its cone.
    Unbound(SignalId),
    /// The instance driving this signal names a cell outside the library.
    NoCell(SignalId),
    /// The instance driving this signal binds more or fewer signals than
    /// its cell has pins.
    Arity(SignalId),
}

impl GraphFault {
    /// The finding code both checkers report this fault under.
    pub fn code(&self) -> &'static str {
        match self {
            GraphFault::OutOfRange(_) => "structure.signal-out-of-range",
            GraphFault::MultiplyDriven(_) => "structure.multiply-driven",
            GraphFault::Undriven(_) | GraphFault::UndrivenOutput(_) => "structure.undriven",
            GraphFault::Cycle(_) | GraphFault::BehindCycle(_) => "structure.cycle",
            GraphFault::Unbound(_) => "function.unbound-pin",
            GraphFault::NoCell(_) => "structure.cell-out-of-range",
            GraphFault::Arity(_) => "structure.arity-mismatch",
        }
    }

    /// An error, except an instance behind a cycle: the cycle is the error.
    pub fn severity(&self) -> Severity {
        match self {
            GraphFault::BehindCycle(_) => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// Pushes the fault onto `report` under [`Self::code`], at the signal
    /// it names (by its name in `net` when in range).
    pub fn push_to<C>(&self, net: &Network, report: &mut Report<C>) {
        let path = match *self {
            GraphFault::OutOfRange(s) => format!("signal {s}"),
            GraphFault::MultiplyDriven(s)
            | GraphFault::Undriven(s)
            | GraphFault::UndrivenOutput(s)
            | GraphFault::Cycle(s)
            | GraphFault::BehindCycle(s)
            | GraphFault::Unbound(s)
            | GraphFault::NoCell(s)
            | GraphFault::Arity(s) => format!("signal {}", net.name(s)),
        };
        report.push(self.severity(), self.code(), path, self.to_string());
    }
}

impl fmt::Display for GraphFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphFault::OutOfRange(_) => "a cone or binding names it outside the subject network",
            GraphFault::MultiplyDriven(_) => "more than one cell instance drives it",
            GraphFault::Undriven(_) => {
                "an instance reads it, but it is no input and nothing drives it"
            }
            GraphFault::UndrivenOutput(_) => "primary output has no driver",
            GraphFault::Cycle(_) => {
                "its driver sits on a combinational loop; feedback must close through a \
                 declared state variable, not inside the block"
            }
            GraphFault::BehindCycle(_) => "its driver never settles (downstream of a cycle)",
            GraphFault::Unbound(_) => {
                "a cover reads it, but it is no leaf of the cover's cone \
                 and no instance of the cover drives it"
            }
            GraphFault::NoCell(_) => "its driver names a cell outside the library",
            GraphFault::Arity(_) => "its driver binds a wrong number of pins for its cell",
        })
    }
}

/// Every signal `cone` names: its root, leaves and gates.
pub(crate) fn cone_signals(cone: &Cone) -> impl Iterator<Item = SignalId> + '_ {
    std::iter::once(cone.root).chain(cone.leaves.iter().chain(&cone.gates).copied())
}

/// Validates the instance graph of `design`; empty on a sound one.
///
/// Signals outside the subject network are reported first and stop the
/// validation, so every later index is in range. Then every instance must
/// name a cell of `library` and bind each of its pins, each signal have at
/// most one driver, and every instance input and primary output a driver.
/// Kahn's algorithm settles the instances from the primary inputs,
/// instances off every output path included; those that never settle are
/// split into the ones on a cycle and those behind one.
pub fn validate_instance_graph(design: &MappedDesign, library: &Library) -> Vec<GraphFault> {
    let net = &design.subject;
    // Flat instance list, in (cover, instance) order.
    let instances: Vec<&Instance> = design.covers.iter().flat_map(|c| &c.instances).collect();
    let bound = instances
        .iter()
        .flat_map(|i| i.inputs.iter().chain([&i.output]));
    let mut faults: Vec<GraphFault> = (design.cones.iter().flat_map(cone_signals))
        .chain(bound.copied())
        .filter(|s| s.index() >= net.len())
        .map(GraphFault::OutOfRange)
        .collect();
    if !faults.is_empty() {
        return faults;
    }

    let mut drivers = vec![0u32; net.len()];
    for inst in &instances {
        drivers[inst.output.index()] += 1;
        if drivers[inst.output.index()] == 2 {
            faults.push(GraphFault::MultiplyDriven(inst.output));
        }
        match library.cells().get(inst.cell_index) {
            None => faults.push(GraphFault::NoCell(inst.output)),
            Some(c) if c.num_inputs() != inst.inputs.len() => {
                faults.push(GraphFault::Arity(inst.output))
            }
            Some(_) => {}
        }
    }
    // Kahn's algorithm; the consumers of signal `s` are
    // `consumers[first[s]..first[s + 1]]` (compressed rows). Known before
    // any instance settles: the primary inputs, and each undriven input
    // once reported, so one missing wire does not cascade.
    let mut known = vec![false; net.len()];
    net.inputs().iter().for_each(|s| known[s.index()] = true);
    let mut indeg = vec![0u32; instances.len()];
    let mut first = vec![0usize; net.len() + 1];
    for (g, inst) in instances.iter().enumerate() {
        for &s in &inst.inputs {
            if known[s.index()] {
                continue;
            }
            if drivers[s.index()] == 0 {
                faults.push(GraphFault::Undriven(s));
                known[s.index()] = true;
            } else {
                indeg[g] += 1;
                first[s.index() + 1] += 1;
            }
        }
    }
    for s in 0..net.len() {
        first[s + 1] += first[s];
    }
    let mut consumers = vec![0usize; first[net.len()]];
    let mut fill = first.clone();
    for (g, inst) in instances.iter().enumerate() {
        for s in inst.inputs.iter().filter(|s| !known[s.index()]) {
            consumers[fill[s.index()]] = g;
            fill[s.index()] += 1;
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

    // Whatever never settled is on a cycle or behind one: repeatedly strip
    // the unsettled instances whose output no remaining one reads.
    let unsettled: Vec<usize> = (0..instances.len()).filter(|&g| !settled[g]).collect();
    let mut on_cycle: Vec<bool> = settled.iter().map(|&s| !s).collect();
    let mut read = vec![false; net.len()];
    loop {
        let members = || unsettled.iter().copied().filter(|&g| on_cycle[g]);
        let mark = |read: &mut Vec<bool>, v: bool| {
            members().for_each(|g| instances[g].inputs.iter().for_each(|s| read[s.index()] = v))
        };
        mark(&mut read, true);
        let strip: Vec<usize> = members()
            .filter(|&g| !read[instances[g].output.index()])
            .collect();
        mark(&mut read, false);
        if strip.is_empty() {
            break;
        }
        strip.into_iter().for_each(|g| on_cycle[g] = false);
    }
    faults.extend(unsettled.iter().map(|&g| match on_cycle[g] {
        true => GraphFault::Cycle(instances[g].output),
        false => GraphFault::BehindCycle(instances[g].output),
    }));
    // A cyclic driver of an output is reported above.
    let undriven = |s: &&SignalId| !known[s.index()] && drivers[s.index()] == 0;
    let outputs = net.outputs().iter().map(|(_, s)| s);
    faults.extend(
        outputs
            .filter(undriven)
            .map(|&s| GraphFault::UndrivenOutput(s)),
    );
    faults
}
