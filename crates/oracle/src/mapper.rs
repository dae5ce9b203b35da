//! The mapper's original per-root recursive cut enumerator and the cover
//! DP over its eager clusters: the reference semantics of
//! `asyncmap_core`'s interned-cut enumerator and of `cover_cone_with`.
//!
//! The enumerator's pipeline order is the one the production enumerator
//! must reproduce: cross product of the fanin options → lexicographic sort
//! → dedup → trivial cut first → truncation at 200 cuts per gate → depth
//! filter.

use asyncmap_bff::Expr;
use asyncmap_core::{Cluster, ClusterLimits, ConeCover, CoverError, Instance, Matcher, Objective};
use asyncmap_cube::VarId;
use asyncmap_network::{Cone, GateOp, Network, NodeKind, SignalId};
use std::collections::{HashMap, HashSet};

/// Cap on cuts kept per gate, the trivial cut among them.
const MAX_CUTS_PER_GATE: usize = 200;

/// The clusters rooted at every gate of `cone`, keyed by root signal, in
/// the order `asyncmap_core::enumerate_clusters` must reproduce: trivial
/// cut first, then lexicographic by sorted leaf set.
pub fn enumerate_clusters_legacy(
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
) -> HashMap<SignalId, Vec<Cluster>> {
    let cone_gates: HashSet<SignalId> = cone.gates.iter().copied().collect();
    // cuts[g] = leaf sets of clusters rooted at g, each sorted.
    let mut cuts: HashMap<SignalId, Vec<Vec<SignalId>>> = HashMap::new();
    for &g in &cone.gates {
        // cone.gates is in topological (ascending id) order.
        let NodeKind::Gate { fanin, .. } = net.node(g) else {
            unreachable!("cone gate is not a gate")
        };
        let mut gate_cuts: Vec<Vec<SignalId>> = Vec::new();
        let fanin_options: Vec<Vec<Vec<SignalId>>> = fanin
            .iter()
            .map(|&f| {
                let mut options = vec![vec![f]]; // stop at the fanin signal
                if cone_gates.contains(&f) {
                    if let Some(sub) = cuts.get(&f) {
                        options.extend(sub.iter().cloned());
                    }
                }
                options
            })
            .collect();
        cross_product(&fanin_options, &mut Vec::new(), &mut gate_cuts);
        // The trivial cut (the gate's own fanin) must always survive the
        // cap: it guarantees every gate is coverable by a base cell.
        let mut trivial: Vec<SignalId> = fanin.to_vec();
        trivial.sort();
        trivial.dedup();
        gate_cuts.sort();
        gate_cuts.dedup();
        gate_cuts.retain(|c| *c != trivial);
        gate_cuts.truncate(MAX_CUTS_PER_GATE - 1);
        gate_cuts.insert(0, trivial);
        cuts.insert(g, gate_cuts);
    }
    // Materialize clusters and apply the depth bound.
    cone.gates
        .iter()
        .map(|&g| {
            let clusters = cuts[&g]
                .iter()
                .filter_map(|cut| build_cluster(net, g, cut, limits))
                .collect();
            (g, clusters)
        })
        .collect()
}

/// Every union of one option per fanin with at most
/// [`ClusterLimits::MAX_LEAVES`] leaves, sorted and deduplicated.
fn cross_product(
    options: &[Vec<Vec<SignalId>>],
    acc: &mut Vec<SignalId>,
    out: &mut Vec<Vec<SignalId>>,
) {
    let Some((first, rest)) = options.split_first() else {
        let mut cut = acc.clone();
        cut.sort();
        cut.dedup();
        if cut.len() <= ClusterLimits::MAX_LEAVES {
            out.push(cut);
        }
        return;
    };
    for choice in first {
        let mark = acc.len();
        acc.extend(choice.iter().copied());
        cross_product(rest, acc, out);
        acc.truncate(mark);
    }
}

/// The cluster for a sorted cut, or `None` past the depth bound.
fn build_cluster(
    net: &Network,
    root: SignalId,
    cut: &[SignalId],
    limits: &ClusterLimits,
) -> Option<Cluster> {
    let mut leaves = Vec::new();
    let mut num_gates = 0;
    let expr = walk(
        net,
        root,
        cut,
        0,
        limits.max_depth,
        &mut leaves,
        &mut num_gates,
    )?;
    Some(Cluster {
        root,
        leaves,
        expr,
        num_gates,
    })
}

/// The structure from `signal` down to the cut, leaves numbered in
/// first-visit order.
fn walk(
    net: &Network,
    signal: SignalId,
    cut: &[SignalId],
    depth: usize,
    max_depth: usize,
    leaves: &mut Vec<SignalId>,
    num_gates: &mut usize,
) -> Option<Expr> {
    if depth > 0 && cut.binary_search(&signal).is_ok() {
        let v = leaves.iter().position(|&s| s == signal).unwrap_or_else(|| {
            leaves.push(signal);
            leaves.len() - 1
        });
        return Some(Expr::Var(VarId(v)));
    }
    if depth >= max_depth {
        return None;
    }
    let NodeKind::Gate { op, fanin } = net.node(signal) else {
        unreachable!("walk hit a non-cut input signal");
    };
    *num_gates += 1;
    let args = fanin
        .iter()
        .map(|&f| walk(net, f, cut, depth + 1, max_depth, leaves, num_gates))
        .collect::<Option<Vec<Expr>>>()?;
    let mut args = args.into_iter();
    Some(match op {
        GateOp::And => Expr::and(args.collect()),
        GateOp::Or => Expr::or(args.collect()),
        GateOp::Inv => args.next().expect("inverter fanin").not(),
        GateOp::Buf => args.next().expect("buffer fanin"),
    })
}

/// A gate's solution in the reference DP.
#[derive(Debug, Clone)]
struct Choice {
    cell_index: usize,
    /// Subject signals bound to the cell pins, in pin order.
    pin_signals: Vec<SignalId>,
    /// Gate leaves of the winning cluster (sub-problems to recurse into).
    gate_leaves: Vec<SignalId>,
    cell_area: f64,
    /// Total cell area of the sub-solution rooted here.
    total_area: f64,
    /// Critical-path cell delay of the sub-solution rooted here.
    total_delay: f64,
}

impl Choice {
    fn score(&self, objective: Objective) -> (f64, f64) {
        match objective {
            Objective::Area => (self.total_area, self.total_delay),
            Objective::Delay => (self.total_delay, self.total_area),
        }
    }
}

/// The cover DP of `asyncmap_core::cover_cone_with` over
/// [`enumerate_clusters_legacy`]'s eager clusters, matching each through
/// [`Matcher::find_matches`]. Its covers must equal the cut-based path's
/// instance for instance; `cut_truncations` is always 0.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
pub fn cover_cone_legacy(
    net: &Network,
    cone: &Cone,
    matcher: &Matcher<'_>,
    limits: &ClusterLimits,
    objective: Objective,
) -> Result<ConeCover, CoverError> {
    let clusters = enumerate_clusters_legacy(net, cone, limits);
    let cone_gates: HashSet<SignalId> = cone.gates.iter().copied().collect();
    let mut best: HashMap<SignalId, Choice> = HashMap::new();
    for &g in &cone.gates {
        let mut best_here: Option<Choice> = None;
        for cluster in &clusters[&g] {
            let gate_leaves: Vec<SignalId> = cluster
                .leaves
                .iter()
                .copied()
                .filter(|l| cone_gates.contains(l))
                .collect();
            let leaf_area: f64 = gate_leaves
                .iter()
                .map(|l| best.get(l).map_or(f64::INFINITY, |c| c.total_area))
                .sum();
            if !leaf_area.is_finite() {
                continue;
            }
            let leaf_delay: f64 = gate_leaves
                .iter()
                .map(|l| best[l].total_delay)
                .fold(0.0, f64::max);
            for m in matcher.find_matches(cluster) {
                let cell = &matcher.library().cells()[m.cell_index];
                let candidate = Choice {
                    cell_index: m.cell_index,
                    pin_signals: m.pin_to_leaf.iter().map(|&l| cluster.leaves[l]).collect(),
                    gate_leaves: gate_leaves.clone(),
                    cell_area: cell.area(),
                    total_area: cell.area() + leaf_area,
                    total_delay: cell.delay() + leaf_delay,
                };
                if best_here
                    .as_ref()
                    .is_none_or(|b| candidate.score(objective) < b.score(objective))
                {
                    best_here = Some(candidate);
                }
            }
        }
        let choice = best_here.ok_or(CoverError { gate: g })?;
        best.insert(g, choice);
    }
    // Reconstruct the cover from the root.
    let mut instances = Vec::new();
    let mut area = 0.0;
    let mut work = vec![cone.root];
    while let Some(g) = work.pop() {
        let choice = &best[&g];
        area += choice.cell_area;
        instances.push(Instance {
            cell_index: choice.cell_index,
            output: g,
            inputs: choice.pin_signals.clone(),
        });
        work.extend(choice.gate_leaves.iter().copied());
    }
    instances.reverse();
    Ok(ConeCover {
        root: cone.root,
        instances,
        area,
        cut_truncations: 0,
    })
}
