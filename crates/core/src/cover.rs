//! Covering: selecting a set of matched cells that realizes a cone at
//! minimum area (the `find_best_cover` step of the paper's `tmap` /
//! `find-best-async-cover` of `async_tmap`).
//!
//! Cones are trees of base gates, so minimum-area covering is a linear
//! dynamic program over the gates in topological order: the best cost of a
//! gate is the cheapest match rooted there plus the best costs of the
//! match's gate leaves.

use crate::cluster::{
    enumerate_clusters_legacy, enumerate_cuts, enumerate_root_cuts, with_cone_index, ClusterLimits,
    ConeCuts, ConeIndex, CutCluster,
};
use crate::matcher::Matcher;
use crate::profile::{self, MapPhase};
use crate::tmap::Objective;
use asyncmap_network::{Cone, Network, SignalId};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::ops::ControlFlow;

/// One chosen cell instance of a cone cover.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Index of the cell in the library.
    pub cell_index: usize,
    /// The subject-network signal this instance produces.
    pub output: SignalId,
    /// Subject-network signals bound to the cell pins, in pin order.
    pub inputs: Vec<SignalId>,
}

/// A cover of one cone.
#[derive(Debug, Clone)]
pub struct ConeCover {
    /// The cone's root signal.
    pub root: SignalId,
    /// Chosen instances, leaves-to-root order.
    pub instances: Vec<Instance>,
    /// Total cell area of the cover.
    pub area: f64,
    /// Number of gates in this cone whose cut list was truncated at the
    /// per-gate cap of 200 cuts (0 on the legacy enumerator, which does not
    /// count them).
    pub cut_truncations: usize,
}

/// Error: a gate could not be covered by any library cell.
#[derive(Debug, Clone)]
pub struct CoverError {
    /// The uncoverable gate.
    pub gate: SignalId,
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no library cell covers gate {}", self.gate)
    }
}

impl Error for CoverError {}

/// A gate's solution in the legacy reference DP ([`cover_cone_legacy`]).
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

/// The winning match of one gate in [`cover_cone_with`]'s dynamic
/// program: an index into the gate's cluster list and the pin binding, so
/// scoring a gate allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Winner {
    /// Position of the cluster in its gate's list.
    cluster: usize,
    cell_index: usize,
    /// `pins[p]` = index of the cluster leaf bound to cell pin `p`.
    pins: [u8; ClusterLimits::MAX_LEAVES],
    npins: usize,
    cell_area: f64,
    /// Total cell area of the sub-solution rooted here.
    total_area: f64,
    /// Critical-path cell delay of the sub-solution rooted here.
    total_delay: f64,
}

/// Covers `cone` by the given objective (minimum total cell area, or
/// minimum critical-path cell delay with area as the tie-break), using
/// `matcher` to find acceptable matches under its hazard policy.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match (a library without
/// INV/AND2/OR2 equivalents).
pub fn cover_cone_with(
    net: &Network,
    cone: &Cone,
    matcher: &Matcher<'_>,
    limits: &ClusterLimits,
    objective: Objective,
) -> Result<ConeCover, CoverError> {
    let cuts = {
        let _t = profile::timer(MapPhase::ClusterEnum);
        enumerate_cuts(net, cone, limits)
    };
    let _t_select = profile::timer(MapPhase::CoverSelect);
    with_cone_index(&cone.gates, |index| {
        cover_dp(net, cone, &cuts, index, matcher, objective)
    })
}

/// The dynamic program of [`cover_cone_with`] over a cone's enumerated
/// cuts. The table is dense, aligned with the cone's (ascending) gate
/// order, and `index` maps a leaf to its gate's row in two loads.
///
/// Each gate's candidate scan — the leaf-cost sums, the matcher and the
/// scoring of its matches — is one batched [`MapPhase::Match`] lap
/// counting one call per matched cluster; cover selection is the rest
/// (the table, the winners and the reconstruction).
fn cover_dp(
    net: &Network,
    cone: &Cone,
    cuts: &ConeCuts,
    index: &ConeIndex,
    matcher: &Matcher<'_>,
    objective: Objective,
) -> Result<ConeCover, CoverError> {
    let cells = matcher.library().cells();
    let mut best: Vec<Option<Winner>> = vec![None; cone.gates.len()];
    for (k, &g) in cone.gates.iter().enumerate() {
        let mut best_here: Option<Winner> = None;
        let mut best_score = (f64::INFINITY, f64::INFINITY);
        let mut t_match = profile::batch_timer(MapPhase::Match);
        for (c, cluster) in cuts.list(k).iter().enumerate() {
            // All gate leaves must already have solutions (they precede g
            // topologically).
            let mut leaf_area = 0.0f64;
            let mut leaf_delay = 0.0f64;
            for &l in &cluster.leaves {
                let Some(i) = index.get(l) else { continue };
                match &best[i] {
                    Some(w) => {
                        leaf_area += w.total_area;
                        leaf_delay = leaf_delay.max(w.total_delay);
                    }
                    None => {
                        leaf_area = f64::INFINITY;
                        break;
                    }
                }
            }
            if !leaf_area.is_finite() {
                continue;
            }
            t_match.add_call();
            matcher.visit_cut(cluster, net, |cell_index, pin_to_leaf| {
                let cell = &cells[cell_index];
                let total_area = cell.area() + leaf_area;
                let total_delay = cell.delay() + leaf_delay;
                let score = match objective {
                    Objective::Area => (total_area, total_delay),
                    Objective::Delay => (total_delay, total_area),
                };
                if best_here.is_none() || score < best_score {
                    let mut pins = [0u8; ClusterLimits::MAX_LEAVES];
                    for (p, &l) in pins.iter_mut().zip(pin_to_leaf) {
                        *p = l as u8;
                    }
                    best_here = Some(Winner {
                        cluster: c,
                        cell_index,
                        pins,
                        npins: pin_to_leaf.len(),
                        cell_area: cell.area(),
                        total_area,
                        total_delay,
                    });
                    best_score = score;
                }
                ControlFlow::Continue(())
            });
        }
        drop(t_match);
        match best_here {
            Some(w) => best[k] = Some(w),
            None => return Err(CoverError { gate: g }),
        }
    }
    // Reconstruct from the root, depth first: each instance's gate leaves
    // are covered below it.
    let mut instances = Vec::new();
    let mut area = 0.0;
    let mut work = vec![cone.root];
    while let Some(g) = work.pop() {
        let k = index.get(g).expect("cover gate is in the cone");
        let w = best[k].expect("every cone gate was covered");
        let cluster = &cuts.list(k)[w.cluster];
        area += w.cell_area;
        instances.push(Instance {
            cell_index: w.cell_index,
            output: g,
            inputs: w.pins[..w.npins]
                .iter()
                .map(|&l| cluster.leaves[l as usize])
                .collect(),
        });
        work.extend(cluster.leaves.iter().filter(|&&l| index.get(l).is_some()));
    }
    instances.reverse();
    Ok(ConeCover {
        root: cone.root,
        instances,
        area,
        cut_truncations: cuts.truncations,
    })
}

/// What [`qualify_cone_root`] found at a cone root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootQualification {
    /// Match-candidate clusters enumerated at the root.
    pub clusters: usize,
    /// Some root cluster matches some cell functionally (pin-permutation
    /// exact, before the hazard filter). Without one, covering the cone is
    /// guaranteed to fail: interior gates can ride inside an ancestor's
    /// cluster, but the root cannot.
    pub functional: bool,
    /// Some root cluster has a match that survives the matcher's hazard
    /// filter.
    pub hazard_ok: bool,
}

/// Qualifies the root of `cone` for covering, stopping before cover: are
/// there functional matches at the root, and does one of them survive
/// `matcher`'s hazard filter?
///
/// Only the root's cut list is materialized. The clusters are visited in
/// enumeration order; a cluster is functional when its pre-hazard-filter
/// candidate list is non-empty, and the first candidate the filter
/// accepts ends the scan. A cluster's `Expr` is built only if
/// a hazard check needs it. Under [`crate::HazardPolicy::Ignore`] every
/// functional candidate is accepted, so `hazard_ok == functional`.
pub fn qualify_cone_root(
    net: &Network,
    cone: &Cone,
    limits: &ClusterLimits,
    matcher: &Matcher<'_>,
) -> RootQualification {
    let cuts = enumerate_root_cuts(net, cone, limits);
    let clusters = cuts.clusters(cone.root);
    let mut q = RootQualification {
        clusters: clusters.len(),
        functional: false,
        hazard_ok: false,
    };
    let mut t_match = profile::batch_timer(MapPhase::Match);
    for cluster in clusters {
        t_match.add_call();
        q.functional |= matcher.visit_cut(cluster, net, |_, _| {
            q.hazard_ok = true;
            ControlFlow::Break(())
        });
        if q.hazard_ok {
            break;
        }
    }
    q
}

/// The reference DP over the legacy enumerator's eager clusters, kept as
/// the oracle for [`cover_cone_with`]: the cut-enumeration equivalence
/// proptests and the `kernels` bench's per-cone divergence gate compare
/// its covers against the cut-based path's.
///
/// # Errors
///
/// Returns [`CoverError`] if some gate admits no match.
#[doc(hidden)]
pub fn cover_cone_legacy(
    net: &Network,
    cone: &Cone,
    matcher: &Matcher<'_>,
    limits: &ClusterLimits,
    objective: Objective,
) -> Result<ConeCover, CoverError> {
    let clusters = {
        let _t = profile::timer(MapPhase::ClusterEnum);
        enumerate_clusters_legacy(net, cone, limits)
    };
    let _t_select = profile::timer(MapPhase::CoverSelect);
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
            let matches = matcher.find_matches(cluster);
            for m in matches {
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
        match best_here {
            Some(choice) => {
                best.insert(g, choice);
            }
            None => return Err(CoverError { gate: g }),
        }
    }
    Ok(reconstruct(cone, &best))
}

/// A "designer-style" structural cover used as the hand-mapped baseline of
/// Table 3: at each gate, greedily take the match covering the most gates
/// (ties broken by larger area — a designer picking big familiar cells),
/// without hazard filtering.
pub fn hand_cover(
    net: &Network,
    cone: &Cone,
    matcher: &Matcher<'_>,
    limits: &ClusterLimits,
) -> Result<ConeCover, CoverError> {
    let cuts = {
        let _t = profile::timer(MapPhase::ClusterEnum);
        enumerate_cuts(net, cone, limits)
    };
    let _t_select = profile::timer(MapPhase::CoverSelect);
    let in_cone = |s: SignalId| cone.gates.binary_search(&s).is_ok();
    let mut instances = Vec::new();
    let mut area = 0.0;
    let mut work = vec![cone.root];
    // The chosen match's pin binding, copied out of the matcher's visitor
    // buffer; reused across gates.
    let mut chosen_pins: Vec<usize> = Vec::new();
    while let Some(g) = work.pop() {
        let mut chosen: Option<(&CutCluster, usize, f64)> = None;
        let mut t_match = profile::batch_timer(MapPhase::Match);
        for cluster in cuts.clusters(g) {
            t_match.add_call();
            matcher.visit_cut(cluster, net, |cell_index, pin_to_leaf| {
                let cell_area = matcher.library().cells()[cell_index].area();
                let better = match &chosen {
                    None => true,
                    Some((cc, _, ca)) => {
                        cluster.num_gates > cc.num_gates
                            || (cluster.num_gates == cc.num_gates && cell_area > *ca)
                    }
                };
                if better {
                    chosen = Some((cluster, cell_index, cell_area));
                    chosen_pins.clear();
                    chosen_pins.extend_from_slice(pin_to_leaf);
                }
                ControlFlow::Continue(())
            });
        }
        drop(t_match);
        let Some((cluster, cell_index, cell_area)) = chosen else {
            return Err(CoverError { gate: g });
        };
        area += cell_area;
        instances.push(Instance {
            cell_index,
            output: g,
            inputs: chosen_pins.iter().map(|&l| cluster.leaves[l]).collect(),
        });
        for &l in &cluster.leaves {
            if in_cone(l) {
                work.push(l);
            }
        }
    }
    instances.reverse();
    Ok(ConeCover {
        root: cone.root,
        instances,
        area,
        cut_truncations: cuts.truncations,
    })
}

/// Reconstructs the legacy reference DP's cover from the root.
fn reconstruct(cone: &Cone, best: &HashMap<SignalId, Choice>) -> ConeCover {
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
    ConeCover {
        root: cone.root,
        instances,
        area,
        cut_truncations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::HazardPolicy;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::{async_tech_decomp, partition, EquationSet};

    fn setup(text: &str, names: &[&str]) -> (asyncmap_network::Network, Vec<Cone>) {
        let vars = VarTable::from_names(names.iter().copied());
        let f = Cover::parse(text, &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        (net, cones)
    }

    fn area_cover(net: &Network, cone: &Cone, matcher: &Matcher<'_>) -> ConeCover {
        let limits = ClusterLimits::default();
        cover_cone_with(net, cone, matcher, &limits, Objective::Area).unwrap()
    }

    #[test]
    fn covers_simple_cone_with_one_cell() {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let (net, cones) = setup("a' + b'", &["a", "b"]);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let cover = area_cover(&net, &cones[0], &matcher);
        // One NAND2 beats INV+INV+OR2 on area.
        assert_eq!(cover.instances.len(), 1);
        assert!(lib.cells()[cover.instances[0].cell_index]
            .name()
            .starts_with("NAND2"));
    }

    #[test]
    fn async_cover_preserves_cone_hazard_freedom() {
        // The mapper may use the hazardous MUX2 on the inner ab + a'c
        // subnetwork (whose structure has exactly the mux's hazards,
        // Theorem 3.2) but never in a way that loses the protection of the
        // redundant consensus cube bc: the mapped cone as a whole must
        // have a subset of the original cone's hazards.
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let (net, cones) = setup("ab + a'c + bc", &["a", "b", "c"]);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let cover = area_cover(&net, &cones[0], &matcher);
        let orig = cones[0].to_expr(&net);
        let mapped = crate::design::mapped_cone_expr(&cones[0], &cover, &lib).unwrap();
        assert!(asyncmap_hazard::hazards_subset_exhaustive(
            &mapped,
            &orig,
            cones[0].leaves.len()
        ));
        // In particular the full-cone MUX2 replacement (which drops bc and
        // introduces a static-1 hazard) must have been rejected: the
        // mapped structure still holds b=c=1 steady while a changes.
        let mut one = asyncmap_cube::Bits::new(3);
        one.set(1, true);
        one.set(2, true);
        let mut other = one.clone();
        other.set(0, true);
        assert!(!asyncmap_hazard::wave_eval(&mapped, &one, &other).hazard);
        // The sync cover, by contrast, is free to take the bare mux.
        let sync = Matcher::new(&lib, HazardPolicy::Ignore);
        let sync_cover = area_cover(&net, &cones[0], &sync);
        assert!(sync_cover.area <= cover.area);
    }

    #[test]
    fn dp_cost_equals_sum_of_instance_areas() {
        let mut lib = builtin::lsi9k();
        lib.annotate_hazards();
        let (net, cones) = setup("ab' + cd + a'd'", &["a", "b", "c", "d"]);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let cover = area_cover(&net, &cones[0], &matcher);
        let sum: f64 = cover
            .instances
            .iter()
            .map(|i| lib.cells()[i.cell_index].area())
            .sum();
        assert!((cover.area - sum).abs() < 1e-9);
        assert!(!cover.instances.is_empty());
    }

    #[test]
    fn hand_cover_is_no_smaller_than_dp() {
        let mut lib = builtin::gdt();
        lib.annotate_hazards();
        let (net, cones) = setup("ab + a'c + bc", &["a", "b", "c"]);
        let m1 = Matcher::new(&lib, HazardPolicy::Ignore);
        let dp = area_cover(&net, &cones[0], &m1);
        let m2 = Matcher::new(&lib, HazardPolicy::Ignore);
        let hand = hand_cover(&net, &cones[0], &m2, &ClusterLimits::default()).unwrap();
        assert!(hand.area >= dp.area - 1e-9);
    }
}
