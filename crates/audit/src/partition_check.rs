//! Replay of partition cut certificates ([`PartitionTrace`]) against the
//! network and the cones they claim to describe.
//!
//! Each cut must carry honest fanout evidence (the consuming gates are
//! re-derived by an independent scan of the network's fanin lists), must
//! be *legal* (a gate that drives a primary output or is consumed at
//! least twice — paper §3.1.2), and the set of cuts must be complete:
//! every legal boundary point is cut, no signal is cut twice, and the
//! cones re-derived from the cut set alone are exactly the certified
//! cones, with every gate in exactly one cone.

use std::collections::HashMap;

use asyncmap_network::{Cone, Network, NodeKind, PartitionTrace, SignalId};

use crate::report::{AuditReport, Severity};

/// Independent re-derivation of one cone from the cut set: depth-first
/// from `root`, stopping at inputs and at other cut signals, collecting
/// leaves in first-visit order (deduplicated) and gates sorted. `seen` is
/// all-`false` scratch over the signals, and is left that way.
pub(crate) fn rewalk_cone(
    net: &Network,
    root: SignalId,
    is_cut: &[bool],
    seen: &mut [bool],
) -> (Vec<SignalId>, Vec<SignalId>) {
    let mut leaves = Vec::new();
    let mut gates = Vec::new();
    fn go(
        net: &Network,
        signal: SignalId,
        root: SignalId,
        is_cut: &[bool],
        leaves: &mut Vec<SignalId>,
        seen: &mut [bool],
        gates: &mut Vec<SignalId>,
    ) {
        if matches!(net.node(signal), NodeKind::Input) || (signal != root && is_cut[signal.index()])
        {
            if !seen[signal.index()] {
                seen[signal.index()] = true;
                leaves.push(signal);
            }
            return;
        }
        gates.push(signal);
        if let NodeKind::Gate { fanin, .. } = net.node(signal) {
            for &f in fanin {
                go(net, f, root, is_cut, leaves, seen, gates);
            }
        }
    }
    go(net, root, root, is_cut, &mut leaves, seen, &mut gates);
    for l in &leaves {
        seen[l.index()] = false;
    }
    gates.sort();
    (leaves, gates)
}

/// Replays a [`PartitionTrace`] against `net` and the cones it certifies.
pub fn check_partition(net: &Network, cones: &[Cone], trace: &PartitionTrace) -> AuditReport {
    let mut report = AuditReport::default();
    report.counters.cut_points = trace.cuts.len();
    report.counters.cones = cones.len();

    // Independent fanout evidence: which gates consume each signal, in
    // topological order, with multiplicity.
    let mut consumers: Vec<Vec<SignalId>> = vec![Vec::new(); net.len()];
    for s in net.signals() {
        if let NodeKind::Gate { fanin, .. } = net.node(s) {
            for f in fanin {
                consumers[f.index()].push(s);
            }
        }
    }
    let output_names: HashMap<SignalId, Vec<String>> = {
        let mut m: HashMap<SignalId, Vec<String>> = HashMap::new();
        for (name, s) in net.outputs() {
            m.entry(*s).or_default().push(name.clone());
        }
        m
    };

    if trace.cuts.len() != cones.len() {
        report.push(
            Severity::Error,
            "partition.cut-mismatch",
            "trace".to_owned(),
            format!("{} cut(s) for {} cone(s)", trace.cuts.len(), cones.len()),
        );
    }

    let mut is_cut = vec![false; net.len()];
    for cut in &trace.cuts {
        let path = || format!("cut:{}", net.name(cut.signal));
        if std::mem::replace(&mut is_cut[cut.signal.index()], true) {
            report.push(
                Severity::Error,
                "partition.duplicate-cut",
                path(),
                "signal is cut more than once".to_owned(),
            );
        }
        if matches!(net.node(cut.signal), NodeKind::Input) {
            report.push(
                Severity::Error,
                "partition.illegal-cut",
                path(),
                "primary inputs are implicit cone leaves, never cut points".to_owned(),
            );
            continue;
        }
        let actual = &consumers[cut.signal.index()];
        if cut.consumers != *actual || cut.fanout != actual.len() {
            report.push(
                Severity::Error,
                "partition.fanout-evidence",
                path(),
                format!(
                    "certificate claims fanout {} {:?}, network has {} {:?}",
                    cut.fanout,
                    cut.consumers,
                    actual.len(),
                    actual
                ),
            );
            continue;
        }
        let actual_outputs = output_names.get(&cut.signal).map_or(&[][..], Vec::as_slice);
        if cut.outputs != actual_outputs {
            report.push(
                Severity::Error,
                "partition.output-evidence",
                path(),
                format!(
                    "certificate claims outputs {:?}, network drives {:?}",
                    cut.outputs, actual_outputs
                ),
            );
            continue;
        }
        if cut.outputs.is_empty() && cut.fanout < 2 {
            report.push(
                Severity::Error,
                "partition.illegal-cut",
                path(),
                "cut drives no primary output and fans out to fewer than two gate inputs"
                    .to_owned(),
            );
        }
    }

    // Completeness: every legal boundary point must be in the cut set.
    for s in net.signals() {
        if matches!(net.node(s), NodeKind::Input) {
            continue;
        }
        let legal = output_names.contains_key(&s) || consumers[s.index()].len() >= 2;
        if legal && !is_cut[s.index()] {
            report.push(
                Severity::Error,
                "partition.missing-cut",
                format!("cut:{}", net.name(s)),
                "legal boundary point (output or multi-fanout gate) is not cut".to_owned(),
            );
        }
    }

    // Cone fidelity: re-derive each cone from the cut set alone.
    let mut covered = vec![0usize; net.len()];
    let mut seen = vec![false; net.len()];
    for (i, cone) in cones.iter().enumerate() {
        let path = || format!("cone:{}", net.name(cone.root));
        if let Some(cut) = trace.cuts.get(i) {
            if cut.signal != cone.root {
                report.push(
                    Severity::Error,
                    "partition.cut-mismatch",
                    path(),
                    format!(
                        "cut {} certifies {:?}, cone {} is rooted at {:?}",
                        i, cut.signal, i, cone.root
                    ),
                );
            }
        }
        let (leaves, gates) = rewalk_cone(net, cone.root, &is_cut, &mut seen);
        if leaves != cone.leaves || gates != cone.gates {
            report.push(
                Severity::Error,
                "partition.cone-mismatch",
                path(),
                "cone does not match the independent re-walk from the cut set".to_owned(),
            );
        }
        for &g in &cone.gates {
            covered[g.index()] += 1;
        }
    }

    // Every gate in exactly one cone.
    for s in net.signals() {
        if !matches!(net.node(s), NodeKind::Gate { .. }) {
            continue;
        }
        match covered[s.index()] {
            1 => {}
            n => report.push(
                Severity::Error,
                "partition.gate-coverage",
                format!("gate:{}", net.name(s)),
                format!("gate appears in {n} cone(s), expected exactly 1"),
            ),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_network::{async_tech_decomp, partition_traced, EquationSet};

    fn shared_inverter_net() -> Network {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a'b", &vars).unwrap();
        let g = Cover::parse("a'b'", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        async_tech_decomp(&eqs)
    }

    #[test]
    fn honest_partition_is_clean() {
        let net = shared_inverter_net();
        let (cones, trace) = partition_traced(&net);
        let report = check_partition(&net, &cones, &trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.counters.cut_points, 3);
    }

    #[test]
    fn forged_fanout_evidence_is_rejected() {
        let net = shared_inverter_net();
        let (cones, mut trace) = partition_traced(&net);
        let cut = trace
            .cuts
            .iter_mut()
            .find(|c| c.outputs.is_empty())
            .expect("internal multi-fanout cut");
        // Duplicate a consumer: inflated evidence must not pass.
        let extra = cut.consumers[0];
        cut.consumers.push(extra);
        cut.fanout = cut.consumers.len();
        let report = check_partition(&net, &cones, &trace);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "partition.fanout-evidence"));
    }

    #[test]
    fn dropped_cut_is_rejected() {
        let net = shared_inverter_net();
        let (mut cones, mut trace) = partition_traced(&net);
        let i = trace
            .cuts
            .iter()
            .position(|c| c.outputs.is_empty())
            .expect("internal multi-fanout cut");
        trace.cuts.remove(i);
        cones.remove(i);
        let report = check_partition(&net, &cones, &trace);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "partition.missing-cut"));
    }

    #[test]
    fn single_fanout_cut_is_illegal() {
        // Hand-build a chain a → INV → AND(inv, b) → out and cut the
        // inverter: single fanout, no output, must be flagged.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let inv = net.add_gate(asyncmap_network::GateOp::Inv, vec![a]);
        let and = net.add_gate(asyncmap_network::GateOp::And, vec![inv, b]);
        net.mark_output("f", and);
        let (mut cones, mut trace) = partition_traced(&net);
        trace.cuts.push(asyncmap_network::CutCertificate {
            signal: inv,
            fanout: 1,
            consumers: vec![and],
            outputs: Vec::new(),
        });
        cones.push(Cone {
            root: inv,
            leaves: vec![a],
            gates: vec![inv],
        });
        let report = check_partition(&net, &cones, &trace);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "partition.illegal-cut"));
    }
}
