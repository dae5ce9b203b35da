//! Partitioning the decomposed network into single-output cones of logic at
//! points of multiple fanout (paper §3.1.2). Given a hazard-free starting
//! network, cutting at fanout points does not alter hazard behavior; it
//! only bounds what the covering step may replace at once.

use crate::certificate::{CutCertificate, PartitionTrace};
use crate::{Network, NodeKind, SignalId};
use asyncmap_bff::Expr;
use asyncmap_cube::VarId;

/// A single-output cone of logic: the tree of gates feeding `root`, cut at
/// primary inputs and multi-fanout signals.
#[derive(Debug, Clone)]
pub struct Cone {
    /// The cone's output signal.
    pub root: SignalId,
    /// Leaf signals (primary inputs or other cones' roots), deduplicated
    /// in first-visit order.
    pub leaves: Vec<SignalId>,
    /// Gate signals inside the cone, in topological order.
    pub gates: Vec<SignalId>,
}

/// The canonical partition boundary of a network: the signals at which
/// [`partition`] cuts it into cones, in topological order. A gate is a
/// legal cone root iff it drives a primary output or has fanout ≥ 2 —
/// cutting anywhere else would split a single-fanout tree edge, which the
/// paper's §3.1.2 argument (cuts only at multi-fanout points preserve
/// hazard behavior) does not license.
///
/// Exposed so that independent checkers can re-derive the boundary from
/// the raw network and compare it against a mapped design's cone roots
/// without going through [`partition`] itself.
pub fn partition_roots(net: &Network) -> Vec<SignalId> {
    let fanout = net.fanout_counts();
    let mut is_output = vec![false; net.len()];
    for (_, s) in net.outputs() {
        is_output[s.index()] = true;
    }
    // Cone roots: every output signal, plus every gate feeding ≥2 gates,
    // plus every gate that both feeds a gate and is an output.
    net.signals()
        .filter(|&s| {
            !matches!(net.node(s), NodeKind::Input)
                && (is_output[s.index()] || fanout[s.index()] >= 2)
        })
        .collect()
}

/// `true` iff `signal` is a legal partition boundary point of `net`: a
/// gate that drives a primary output or fans out to at least two gates.
/// Primary inputs are implicit cone leaves, never roots.
pub fn is_partition_boundary(net: &Network, signal: SignalId) -> bool {
    if matches!(net.node(signal), NodeKind::Input) {
        return false;
    }
    net.outputs().iter().any(|(_, s)| *s == signal) || net.fanout_counts()[signal.index()] >= 2
}

/// Splits the network into cones rooted at primary outputs and at internal
/// multi-fanout gates. Every gate belongs to exactly one cone.
pub fn partition(net: &Network) -> Vec<Cone> {
    cones_at(net, &partition_roots(net))
}

/// [`partition`], additionally emitting one [`CutCertificate`] per cone
/// root recording the evidence that licenses the cut: the consuming gates
/// (fanout) and/or the primary outputs the signal drives. The cones are
/// identical to the untraced entry point's; `cuts[i]` certifies
/// `cones[i].root`.
pub fn partition_traced(net: &Network) -> (Vec<Cone>, PartitionTrace) {
    let mut consumers: Vec<Vec<SignalId>> = vec![Vec::new(); net.len()];
    for s in net.signals() {
        if let NodeKind::Gate { fanin, .. } = net.node(s) {
            for f in fanin {
                consumers[f.index()].push(s);
            }
        }
    }
    let roots = partition_roots(net);
    let cuts = roots
        .iter()
        .map(|&r| CutCertificate {
            signal: r,
            fanout: consumers[r.index()].len(),
            consumers: consumers[r.index()].clone(),
            outputs: net
                .outputs()
                .iter()
                .filter(|(_, s)| *s == r)
                .map(|(n, _)| n.clone())
                .collect(),
        })
        .collect();
    (cones_at(net, &roots), PartitionTrace { cuts })
}

/// The cone [`partition`] builds at `root` when `is_root` (indexed by
/// signal; signals past its end count as `false`) marks its cut set: the
/// gates reached from `root` without passing a primary input or another
/// marked signal, which become its leaves. Exposed so that a checker
/// auditing one equation of a larger design can cut its cone where the
/// whole design's partition would.
pub fn cone_at(net: &Network, root: SignalId, is_root: &[bool]) -> Cone {
    ConeWalk::new(net, is_root).cone(root)
}

/// The cones at `roots`, cut at every one of them.
fn cones_at(net: &Network, roots: &[SignalId]) -> Vec<Cone> {
    let mut is_root = vec![false; net.len()];
    for r in roots {
        is_root[r.index()] = true;
    }
    let mut walk = ConeWalk::new(net, &is_root);
    roots.iter().map(|&root| walk.cone(root)).collect()
}

/// One depth-first walk shared by every cone of a partition: an explicit
/// stack in place of recursion, and leaf deduplication by a per-signal
/// stamp of the last cone that took the signal as a leaf, so a cone costs
/// its own size and allocates only its result.
struct ConeWalk<'a> {
    net: &'a Network,
    is_root: &'a [bool],
    leaf_stamp: Vec<u32>,
    cone: u32,
    stack: Vec<SignalId>,
}

impl<'a> ConeWalk<'a> {
    fn new(net: &'a Network, is_root: &'a [bool]) -> Self {
        ConeWalk {
            net,
            is_root,
            leaf_stamp: vec![0; net.len()],
            cone: 0,
            stack: Vec::new(),
        }
    }

    /// The cone at `root`: leaves in first-visit order of a pre-order
    /// walk taking fanins left to right, gates sorted.
    fn cone(&mut self, root: SignalId) -> Cone {
        self.cone += 1;
        let mut leaves = Vec::new();
        let mut gates = Vec::new();
        self.stack.push(root);
        while let Some(signal) = self.stack.pop() {
            let node = self.net.node(signal);
            let is_leaf = matches!(node, NodeKind::Input)
                || (signal != root && self.is_root.get(signal.index()) == Some(&true));
            if is_leaf {
                if self.leaf_stamp[signal.index()] != self.cone {
                    self.leaf_stamp[signal.index()] = self.cone;
                    leaves.push(signal);
                }
                continue;
            }
            gates.push(signal);
            if let NodeKind::Gate { fanin, .. } = node {
                self.stack.extend(fanin.iter().rev());
            }
        }
        gates.sort();
        Cone {
            root,
            leaves,
            gates,
        }
    }
}

impl Cone {
    /// Number of gates in the cone.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Builds the cone's logic as a BFF expression over
    /// `leaves.len()` variables, in which variable `i` is `leaves[i]`.
    pub fn to_expr(&self, net: &Network) -> Expr {
        let mut position: Vec<(SignalId, VarId)> = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, VarId(i)))
            .collect();
        position.sort_unstable();
        expr_of(net, self.root, &position)
    }
}

/// The expression of `signal`, cut at `leaves` (sorted by signal).
fn expr_of(net: &Network, signal: SignalId, leaves: &[(SignalId, VarId)]) -> Expr {
    if let Ok(k) = leaves.binary_search_by_key(&signal, |&(s, _)| s) {
        return Expr::Var(leaves[k].1);
    }
    match net.node(signal) {
        NodeKind::Input => unreachable!("input signal must be a cone leaf"),
        NodeKind::Gate { op, fanin } => {
            let args: Vec<Expr> = fanin.iter().map(|&f| expr_of(net, f, leaves)).collect();
            match op {
                crate::GateOp::And => Expr::and(args),
                crate::GateOp::Or => Expr::or(args),
                crate::GateOp::Inv => args.into_iter().next().expect("inverter fanin").not(),
                crate::GateOp::Buf => args.into_iter().next().expect("buffer fanin"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{async_tech_decomp, EquationSet, GateOp};
    use asyncmap_cube::{Bits, Cover, VarTable};

    #[test]
    fn single_equation_single_cone() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        assert_eq!(cones.len(), 1);
        let cone = &cones[0];
        assert_eq!(cone.num_gates(), net.num_gates());
        assert_eq!(cone.leaves.len(), 3);
    }

    #[test]
    fn shared_inverter_splits_cones() {
        // Two outputs sharing the inverter of a: the inverter feeds two
        // gates, so it becomes its own cone... only if it is a gate with
        // fanout ≥ 2.
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a'b", &vars).unwrap();
        let g = Cover::parse("a'b'", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        // Cones: INV(a) (fanout 2), f's AND, g's AND... plus INV(b) has
        // fanout 1 and stays inside g's cone.
        assert_eq!(cones.len(), 3);
        // Every gate appears in exactly one cone.
        let mut all_gates: Vec<_> = cones.iter().flat_map(|c| c.gates.clone()).collect();
        all_gates.sort();
        all_gates.dedup();
        assert_eq!(all_gates.len(), net.num_gates());
    }

    #[test]
    fn cone_expr_matches_network() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f.clone())]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let expr = cones[0].to_expr(&net);
        assert_eq!(cones[0].leaves.len(), 3);
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            // Local variable `i` is leaf `i`, here the input of that index.
            let mut local = Bits::new(3);
            for (i, leaf) in cones[0].leaves.iter().enumerate() {
                local.set(i, bits.get(leaf.index()));
            }
            assert_eq!(expr.eval(&local), f.eval(&bits), "mismatch at {m}");
        }
    }

    #[test]
    fn traced_partition_certifies_every_cut() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a'b", &vars).unwrap();
        let g = Cover::parse("a'b'", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        let net = async_tech_decomp(&eqs);
        let (cones, trace) = partition_traced(&net);
        assert_eq!(cones.len(), trace.cuts.len());
        let untraced = partition(&net);
        for (a, b) in cones.iter().zip(&untraced) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.gates, b.gates);
            assert_eq!(a.leaves, b.leaves);
        }
        let fanout = net.fanout_counts();
        for (cone, cut) in cones.iter().zip(&trace.cuts) {
            assert_eq!(cut.signal, cone.root);
            assert_eq!(cut.fanout, fanout[cut.signal.index()]);
            assert_eq!(cut.consumers.len(), cut.fanout);
            // Every cut is licensed: drives an output or fans out ≥ 2.
            assert!(!cut.outputs.is_empty() || cut.fanout >= 2);
        }
        // The shared inverter of `a` is cut on fanout evidence alone.
        let inv_cut = trace
            .cuts
            .iter()
            .find(|c| c.outputs.is_empty())
            .expect("internal multi-fanout cut");
        assert_eq!(inv_cut.fanout, 2);
    }

    /// The recursive walk with a per-cone leaf set that the stack walk
    /// replaced: the leaf order contract the shape keys depend on.
    fn recursive_cone(net: &Network, root: SignalId, roots: &[SignalId]) -> Cone {
        fn go(
            net: &Network,
            s: SignalId,
            root: SignalId,
            roots: &[SignalId],
            leaves: &mut Vec<SignalId>,
            gates: &mut Vec<SignalId>,
        ) {
            if matches!(net.node(s), NodeKind::Input) || (s != root && roots.contains(&s)) {
                if !leaves.contains(&s) {
                    leaves.push(s);
                }
                return;
            }
            gates.push(s);
            if let NodeKind::Gate { fanin, .. } = net.node(s) {
                for &f in fanin {
                    go(net, f, root, roots, leaves, gates);
                }
            }
        }
        let (mut leaves, mut gates) = (Vec::new(), Vec::new());
        go(net, root, root, roots, &mut leaves, &mut gates);
        gates.sort();
        Cone {
            root,
            leaves,
            gates,
        }
    }

    #[test]
    fn stack_walk_keeps_the_recursive_leaf_order() {
        let vars = VarTable::from_names(["a", "b", "c", "d", "e"]);
        let eqs = EquationSet::new(
            vars.clone(),
            [
                ("f", "ab'c + a'd + bce'"),
                ("g", "a'b'd + c'e + ab"),
                ("h", "d'e + a'c'"),
            ]
            .iter()
            .map(|(n, t)| ((*n).to_owned(), Cover::parse(t, &vars).unwrap()))
            .collect(),
        );
        let net = async_tech_decomp(&eqs);
        let roots = partition_roots(&net);
        let cones = partition(&net);
        assert!(cones.len() > 3, "shared inverters make internal cuts");
        for (cone, &root) in cones.iter().zip(&roots) {
            let reference = recursive_cone(&net, root, &roots);
            assert_eq!(cone.leaves, reference.leaves);
            assert_eq!(cone.gates, reference.gates);
        }
    }

    #[test]
    fn output_feeding_gates_becomes_root() {
        // An output that also feeds another output's logic must be a cone
        // root (cut point), not duplicated into the consumer cone.
        let mut net = crate::Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let and1 = net.add_gate(GateOp::And, vec![a, b]);
        let inv = net.add_gate(GateOp::Inv, vec![and1]);
        net.mark_output("x", and1);
        net.mark_output("y", inv);
        let cones = partition(&net);
        assert_eq!(cones.len(), 2);
        let y_cone = cones.iter().find(|c| c.root == inv).unwrap();
        assert_eq!(y_cone.leaves, vec![and1]);
        assert_eq!(y_cone.num_gates(), 1);
    }
}
