//! Mapped designs: cover assembly, area/delay reporting and verification.

use crate::cover::{ConeCover, Instance};
use asyncmap_bdd::{Manager, Ref};
use asyncmap_bff::Expr;
use asyncmap_cube::VarId;
use asyncmap_hazard::{decide_containment, Containment};
use asyncmap_library::Library;
use asyncmap_network::{Cone, Network, SignalId};
use std::collections::HashMap;

/// Counters describing one mapping run (the overhead decomposition behind
/// Tables 2 and 4).
///
/// Every field is **per-run**: repeated `map` calls — including repeated
/// [`crate::async_tmap_cached`] calls sharing one verdict cache — each
/// report only their own run's checks, memo traffic and phase times, never
/// an accumulation over earlier runs, and concurrent runs on other threads
/// never leak into each other's counts. (A [`crate::Matcher`] held directly
/// by the caller *does* accumulate; see [`crate::Matcher::counters`] /
/// [`crate::Matcher::reset_counters`] for per-run accounting there.)
#[derive(Debug, Clone, Copy, Default)]
pub struct MapStats {
    /// Hazard-containment checks performed during matching (for
    /// [`crate::hdc_tmap`], also one certification walk per cone and
    /// specified burst).
    pub hazard_checks: usize,
    /// Matches rejected by the hazard filter (for [`crate::hdc_tmap`], the
    /// cones that failed certification and were re-covered).
    pub hazard_rejects: usize,
    /// Hazard checks answered by the shared verdict cache during this run.
    /// With a pre-warmed cache (`async_tmap_cached`) this can exceed the
    /// number of distinct verdicts computed this run.
    pub cache_hits: usize,
    /// Hazard checks that actually evaluated the containment decision
    /// during this run (cache misses).
    pub cache_misses: usize,
    /// Match-memo lookups served from the memo (raw-truth or
    /// canonical-class level).
    pub npn_hits: usize,
    /// Match-memo lookups that fell through to the full permutation
    /// search.
    pub npn_misses: usize,
    /// Gates whose cut list was truncated at the per-gate cap of 200 cuts.
    pub cut_truncations: usize,
    /// Cones whose cut enumeration ran entirely out of the pre-sized
    /// thread-local scratch — zero heap allocations beyond the returned
    /// cut lists. In steady state this tracks the number of cones
    /// enumerated ([`MapPhase::ClusterEnum`](crate::MapPhase) calls).
    pub enum_warm_cones: usize,
    /// Scratch-buffer capacity-growth events during cut enumeration (each
    /// at least one heap allocation; cold-start sizing plus any later
    /// regrowth).
    pub enum_alloc_events: usize,
    /// Cones mapped.
    pub cones: usize,
    /// Cones whose cover was reused from an [`crate::EcoSession`] store
    /// instead of being re-covered. Zero outside ECO remaps.
    pub cones_reused: usize,
    /// Cones actually re-covered during an ECO remap (every cone, on the
    /// session's first map). Zero outside ECO remaps.
    pub cones_remapped: usize,
    /// Base gates in the subject network.
    pub subject_gates: usize,
    /// Fanout buffers added.
    pub buffers: usize,
    /// Per-phase wall-clock breakdown of the run. With several cover
    /// worker threads, the covering phases are summed over the workers.
    pub phases: crate::profile::PhaseTimes,
}

/// The result of technology mapping one design against one library.
#[derive(Debug)]
pub struct MappedDesign {
    /// Library name the design was mapped to.
    pub library_name: String,
    /// The subject (decomposed) network.
    pub subject: Network,
    /// The cones of the subject network, aligned with `covers`.
    pub cones: Vec<Cone>,
    /// One cover per cone.
    pub covers: Vec<ConeCover>,
    /// Total cell area, including fanout buffers.
    pub area: f64,
    /// Critical-path delay through the chosen cells.
    pub delay: f64,
    /// Run counters.
    pub stats: MapStats,
}

impl MappedDesign {
    /// Total number of cell instances (excluding buffers).
    pub fn num_instances(&self) -> usize {
        self.covers.iter().map(|c| c.instances.len()).sum()
    }

    /// Evaluates the mapped netlist (through the chosen cells' functions,
    /// not the subject gates) at a primary-input assignment, returning the
    /// value of every primary output in declaration order.
    pub fn eval_mapped(&self, library: &Library, inputs: &asyncmap_cube::Bits) -> Vec<bool> {
        let net = &self.subject;
        debug_assert_eq!(inputs.len(), net.inputs().len());
        let mut values: HashMap<SignalId, bool> = HashMap::new();
        for (i, &s) in net.inputs().iter().enumerate() {
            values.insert(s, inputs.get(i));
        }
        // Covers in topological order of their roots; instances are
        // leaves-to-root within each cover.
        let mut order: Vec<usize> = (0..self.covers.len()).collect();
        order.sort_by_key(|&i| self.covers[i].root);
        for i in order {
            for inst in &self.covers[i].instances {
                let cell = &library.cells()[inst.cell_index];
                let mut pins = asyncmap_cube::Bits::new(cell.num_inputs());
                for (p, sig) in inst.inputs.iter().enumerate() {
                    let v = *values
                        .get(sig)
                        .unwrap_or_else(|| panic!("undriven signal {sig} in mapped netlist"));
                    pins.set(p, v);
                }
                values.insert(inst.output, cell.bff().eval(&pins));
            }
        }
        net.outputs()
            .iter()
            .map(|(_, s)| values.get(s).copied().unwrap_or(false))
            .collect()
    }

    /// Checks that every cone's cover computes exactly the cone's function
    /// (BDD equivalence over the cone leaves).
    pub fn verify_function(&self, library: &Library) -> bool {
        self.cones
            .iter()
            .zip(&self.covers)
            .all(|(cone, cover)| verify_cone_function(&self.subject, cone, cover, library))
    }

    /// Checks hazard containment cone by cone:
    /// `hazards(mapped cone) ⊆ hazards(subject cone)`, via
    /// [`decide_containment`]. Cones wider than the
    /// sweep limit are skipped (their safety follows from the per-match
    /// checks and the composition theorem, paper Theorem 3.2/Lemma 4.5).
    pub fn verify_hazards(&self, library: &Library) -> bool {
        self.cones.iter().zip(&self.covers).all(|(cone, cover)| {
            if cone.leaves.len() > asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT {
                return true;
            }
            let (orig, _) = cone.to_expr(&self.subject);
            let mapped = mapped_cone_expr(&self.subject, cone, cover, library);
            decide_containment(&mapped, &orig, cone.leaves.len()) == Containment::Holds
        })
    }
}

/// Builds the mapped cone's logic as an expression over the cone's local
/// leaf variables (`cone.leaves[i]` = variable `i`), by composing the
/// chosen cells' BFFs. This is the *structure* of the mapped cone, suitable
/// for hazard analysis.
pub fn mapped_cone_expr(net: &Network, cone: &Cone, cover: &ConeCover, library: &Library) -> Expr {
    let leaf_var: HashMap<SignalId, VarId> = cone
        .leaves
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, VarId(i)))
        .collect();
    let by_output: HashMap<SignalId, &Instance> =
        cover.instances.iter().map(|i| (i.output, i)).collect();
    let _ = net;
    build_expr(cover.root, &leaf_var, &by_output, library)
}

fn build_expr(
    signal: SignalId,
    leaf_var: &HashMap<SignalId, VarId>,
    by_output: &HashMap<SignalId, &Instance>,
    library: &Library,
) -> Expr {
    if let Some(&v) = leaf_var.get(&signal) {
        return Expr::Var(v);
    }
    let inst = by_output
        .get(&signal)
        .unwrap_or_else(|| panic!("signal {signal} neither leaf nor instance output"));
    let cell = &library.cells()[inst.cell_index];
    let args: Vec<Expr> = inst
        .inputs
        .iter()
        .map(|&s| build_expr(s, leaf_var, by_output, library))
        .collect();
    substitute_exprs(cell.bff(), &args)
}

/// Replaces variable `i` of `bff` with `args[i]`.
fn substitute_exprs(bff: &Expr, args: &[Expr]) -> Expr {
    match bff {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(v) => args[v.index()].clone(),
        Expr::Not(e) => substitute_exprs(e, args).not(),
        Expr::And(es) => Expr::and(es.iter().map(|e| substitute_exprs(e, args)).collect()),
        Expr::Or(es) => Expr::or(es.iter().map(|e| substitute_exprs(e, args)).collect()),
    }
}

/// BDD of an expression over `mgr`'s variable space.
pub fn bdd_of_expr(mgr: &mut Manager, expr: &Expr) -> Ref {
    match expr {
        Expr::Const(true) => Ref::ONE,
        Expr::Const(false) => Ref::ZERO,
        Expr::Var(v) => mgr.var(*v),
        Expr::Not(e) => {
            let inner = bdd_of_expr(mgr, e);
            mgr.not(inner)
        }
        Expr::And(es) => {
            let mut acc = Ref::ONE;
            for e in es {
                let r = bdd_of_expr(mgr, e);
                acc = mgr.and(acc, r);
            }
            acc
        }
        Expr::Or(es) => {
            let mut acc = Ref::ZERO;
            for e in es {
                let r = bdd_of_expr(mgr, e);
                acc = mgr.or(acc, r);
            }
            acc
        }
    }
}

/// `true` iff the cover computes exactly the cone's function.
pub fn verify_cone_function(
    net: &Network,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> bool {
    let (orig, _) = cone.to_expr(net);
    let mapped = mapped_cone_expr(net, cone, cover, library);
    let mut mgr = Manager::new(cone.leaves.len());
    bdd_of_expr(&mut mgr, &orig) == bdd_of_expr(&mut mgr, &mapped)
}

/// Assembles covers into a [`MappedDesign`]: totals area (adding a fanout
/// buffer at every multi-fanout cone root when the library provides one)
/// and computes the critical-path delay through the chosen cells.
pub fn assemble(
    library: &Library,
    subject: Network,
    cones: Vec<Cone>,
    covers: Vec<ConeCover>,
    mut stats: MapStats,
    add_buffers: bool,
) -> MappedDesign {
    assert_eq!(cones.len(), covers.len());
    stats.cones = cones.len();
    stats.subject_gates = subject.num_gates();
    let mut area: f64 = covers.iter().map(|c| c.area).sum();
    // Fanout buffers (included in automatic mapping per Table 3's note).
    let buffer_cell = library
        .cells()
        .iter()
        .filter(|c| c.name().starts_with("BUF"))
        .min_by(|a, b| a.area().total_cmp(&b.area()));
    let fanout = subject.fanout_counts();
    let mut buffer_delay_by_root: Vec<f64> = vec![0.0; subject.len()];
    if add_buffers {
        if let Some(buf) = buffer_cell {
            for cover in &covers {
                if fanout[cover.root.index()] >= 2 {
                    area += buf.area();
                    stats.buffers += 1;
                    buffer_delay_by_root[cover.root.index()] = buf.delay();
                }
            }
        }
    }
    // Arrival-time propagation, signal-indexed (a per-signal HashMap put
    // assemble on the ECO critical path; a flat Vec is branch-free here).
    // Signals never written (inputs, uncovered gates) read as arrival 0.
    let mut arrival: Vec<f64> = vec![0.0; subject.len()];
    let mut order: Vec<usize> = (0..covers.len()).collect();
    order.sort_by_key(|&i| covers[i].root);
    for i in order {
        let cover = &covers[i];
        for inst in &cover.instances {
            let cell = &library.cells()[inst.cell_index];
            let worst = inst
                .inputs
                .iter()
                .map(|s| arrival[s.index()])
                .fold(0.0f64, f64::max);
            arrival[inst.output.index()] = worst + cell.delay();
        }
        arrival[cover.root.index()] += buffer_delay_by_root[cover.root.index()];
    }
    let delay = subject
        .outputs()
        .iter()
        .map(|(_, s)| arrival[s.index()])
        .fold(0.0f64, f64::max);
    MappedDesign {
        library_name: library.name().to_owned(),
        subject,
        cones,
        covers,
        area,
        delay,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterLimits;
    use crate::cover::cover_cone_with;
    use crate::matcher::{HazardPolicy, Matcher};
    use crate::tmap::Objective;
    use asyncmap_cube::{Cover, VarTable};
    use asyncmap_library::builtin;
    use asyncmap_network::{async_tech_decomp, partition, EquationSet};

    fn mapped(text: &str, names: &[&str]) -> (MappedDesign, Library) {
        let mut lib = builtin::cmos3();
        lib.annotate_hazards();
        let vars = VarTable::from_names(names.iter().copied());
        let f = Cover::parse(text, &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        let cones = partition(&net);
        let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
        let covers: Vec<ConeCover> = cones
            .iter()
            .map(|c| {
                cover_cone_with(
                    &net,
                    c,
                    &matcher,
                    &ClusterLimits::default(),
                    Objective::Area,
                )
                .unwrap()
            })
            .collect();
        let design = assemble(&lib, net, cones, covers, MapStats::default(), true);
        (design, lib)
    }

    #[test]
    fn mapped_design_verifies_function_and_hazards() {
        let (design, lib) = mapped("ab + a'c + bc", &["a", "b", "c"]);
        assert!(design.verify_function(&lib));
        assert!(design.verify_hazards(&lib));
        assert!(design.area > 0.0);
        assert!(design.delay > 0.0);
        assert!(design.num_instances() > 0);
    }

    #[test]
    fn mapped_cone_expr_composes_cells() {
        let (design, lib) = mapped("a' + b'", &["a", "b"]);
        let cone = &design.cones[0];
        let cover = &design.covers[0];
        let expr = mapped_cone_expr(&design.subject, cone, cover, &lib);
        // NAND2 = (a*b)'.
        let n = cone.leaves.len();
        let tt = crate::matcher::truth_table_of(&expr, n);
        assert!(tt.get(0) && !tt.get(3));
    }

    #[test]
    fn delay_is_positive_and_additive() {
        let (d1, _) = mapped("ab", &["a", "b"]);
        let (d2, _) = mapped("abcd + a'b'c'd'", &["a", "b", "c", "d"]);
        assert!(d2.delay >= d1.delay);
    }
}
