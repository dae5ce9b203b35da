//! Mapped designs: cover assembly, area/delay reporting and verification.

use crate::cover::{ConeCover, Instance};
use crate::graph::{cone_signals, GraphFault};
use crate::walk::NetlistWalk;
use asyncmap_bdd::{with_thread_manager, Manager, Ref};
use asyncmap_bff::Expr;
use asyncmap_cube::VarId;
use asyncmap_hazard::{decide_containment, Containment, EXHAUSTIVE_VAR_LIMIT};
use asyncmap_library::Library;
use asyncmap_network::{Cone, GateOp, Network, NodeKind, SignalId};

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
    /// Pairs of a first-fanin option and a second-fanin cut that the cut
    /// enumerator screened for the leaf bound (the pairs its size bound
    /// did not skip; the pairing with the second fanin itself is not
    /// counted).
    pub enum_pair_screens: usize,
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
        debug_assert_eq!(inputs.len(), self.subject.inputs().len());
        let walk = NetlistWalk::new(self);
        let mut values = vec![false; walk.signals()];
        let cell = |inst: &Instance, pins: &[bool]| {
            let cell = &library.cells()[inst.cell_index];
            let mut bits = asyncmap_cube::Bits::new(cell.num_inputs());
            for (p, &v) in pins.iter().enumerate() {
                bits.set(p, v);
            }
            cell.bff().eval(&bits)
        };
        walk.run(&mut values, &mut Vec::new(), |i| inputs.get(i), cell);
        (0..walk.num_outputs())
            .map(|o| walk.output(&values, o).unwrap_or(false))
            .collect()
    }

    /// Checks that every cone's cover computes exactly the cone's function
    /// (BDD equivalence over the cone leaves, [`verify_cone_function`]).
    pub fn verify_function(&self, library: &Library) -> bool {
        self.cones
            .iter()
            .zip(&self.covers)
            .all(|(cone, cover)| verify_cone_function(&self.subject, cone, cover, library))
    }

    /// Checks the per-cone obligation `hazards(mapped cone) ⊆
    /// hazards(subject cone)` by [`decide_cone`] on every cone of at most
    /// [`EXHAUSTIVE_VAR_LIMIT`] leaves, where the sweep decides it exactly.
    /// Wider cones are not decided: their safety rests on the matcher's
    /// per-match checks and the composition theorem (paper Theorem
    /// 3.2/Lemma 4.5), so they pass if their cover composes. A cone or
    /// cover that does not compose fails at every width.
    pub fn verify_hazards(&self, library: &Library) -> bool {
        self.cones.iter().zip(&self.covers).all(|(cone, cover)| {
            if cone.leaves.len() > EXHAUSTIVE_VAR_LIMIT {
                // The composition walked with nothing built.
                let walk = compose(&mut (), cone, cover, library, |_, _| (), |_, _, _| ());
                in_range(&self.subject, cone).and(walk).is_ok()
            } else {
                decide_cone(&self.subject, cone, cover, library) == Ok(Containment::Holds)
            }
        })
    }
}

/// The per-cone obligation of the composition argument (paper Theorem
/// 3.2, Lemma 4.5), `hazards(mapped cone) ⊆ hazards(subject cone)`,
/// decided by [`decide_containment`] over the cone's leaves. This is the
/// one verdict [`MappedDesign::verify_hazards`], lint's whole-cone sweep
/// and fma's boundary check share; each caller keeps its own width policy.
///
/// # Errors
///
/// The cone names a signal outside `net`, or the cover does not compose
/// ([`mapped_cone_expr`]).
pub fn decide_cone(
    net: &Network,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> Result<Containment, GraphFault> {
    in_range(net, cone)?;
    let mapped = mapped_cone_expr(cone, cover, library)?;
    Ok(decide_containment(
        &mapped,
        &cone.to_expr(net),
        cone.leaves.len(),
    ))
}

fn in_range(net: &Network, cone: &Cone) -> Result<(), GraphFault> {
    let outside = cone_signals(cone).find(|s| s.index() >= net.len());
    outside.map_or(Ok(()), |s| Err(GraphFault::OutOfRange(s)))
}

/// Builds the mapped cone's logic as an expression over the cone's local
/// leaf variables (`cone.leaves[i]` = variable `i`), by composing the
/// chosen cells' BFFs ([`Expr::compose`]). This is the *structure* of the
/// mapped cone, suitable for hazard analysis.
///
/// # Errors
///
/// A signal the cover reads is neither a leaf nor the output of one of its
/// instances, the bindings loop, or an instance binds no cell or a wrong
/// pin count ([`GraphFault`]).
pub fn mapped_cone_expr(
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> Result<Expr, GraphFault> {
    let cell = |_: &mut (), bff: &Expr, args: &[Expr]| bff.compose(args);
    compose(&mut (), cone, cover, library, |_, v| Expr::Var(v), cell)
}

/// The one composition of a cover's cell BFFs, from the cover root down to
/// the cone's leaves, in the algebra `leaf` and `cell` spell out.
fn compose<C, T>(
    ctx: &mut C,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
    leaf: fn(&mut C, VarId) -> T,
    cell: fn(&mut C, &Expr, &[T]) -> T,
) -> Result<T, GraphFault> {
    let mut drivers: Vec<(SignalId, &Instance)> =
        cover.instances.iter().map(|i| (i.output, i)).collect();
    drivers.sort_unstable_by_key(|d| d.0);
    let leaves = leaf_vars(cone);
    let composer = Composer {
        leaves,
        drivers,
        library,
        leaf,
        cell,
    };
    composer.signal(ctx, cover.root, cover.instances.len())
}

struct Composer<'a, C, T> {
    /// Cone leaves with their variables, sorted by signal.
    leaves: Vec<(SignalId, VarId)>,
    /// Instances by output signal, sorted.
    drivers: Vec<(SignalId, &'a Instance)>,
    library: &'a Library,
    leaf: fn(&mut C, VarId) -> T,
    cell: fn(&mut C, &Expr, &[T]) -> T,
}

impl<C, T> Composer<'_, C, T> {
    /// The value of signal `s`. An acyclic chain of bindings passes each
    /// instance at most once, so a chain longer than `depth` loops.
    fn signal(&self, ctx: &mut C, s: SignalId, depth: usize) -> Result<T, GraphFault> {
        if let Ok(k) = self.leaves.binary_search_by_key(&s, |l| l.0) {
            return Ok((self.leaf)(ctx, self.leaves[k].1));
        }
        let k = self.drivers.binary_search_by_key(&s, |d| d.0);
        let inst = self.drivers[k.map_err(|_| GraphFault::Unbound(s))?].1;
        let depth = depth.checked_sub(1).ok_or(GraphFault::Cycle(s))?;
        let cell = self.library.cells().get(inst.cell_index);
        let cell = cell.ok_or(GraphFault::NoCell(s))?;
        if inst.inputs.len() != cell.num_inputs() {
            return Err(GraphFault::Arity(s));
        }
        let mut args = Vec::with_capacity(inst.inputs.len());
        for &i in &inst.inputs {
            args.push(self.signal(ctx, i, depth)?);
        }
        Ok((self.cell)(ctx, cell.bff(), &args))
    }
}

/// BDD of an expression over `mgr`'s variable space.
pub fn bdd_of_expr(mgr: &mut Manager, expr: &Expr) -> Ref {
    bdd_of(mgr, expr, &|mgr, v| mgr.var(v))
}

/// BDD of an expression with variable `i` replaced by the function
/// `args[i]` (a cell's BFF applied to the BDDs of its input signals).
pub fn bdd_of_expr_over(mgr: &mut Manager, expr: &Expr, args: &[Ref]) -> Ref {
    bdd_of(mgr, expr, &|_, v| args[v.index()])
}

fn bdd_of(mgr: &mut Manager, expr: &Expr, var: &impl Fn(&mut Manager, VarId) -> Ref) -> Ref {
    match expr {
        Expr::Const(true) => Ref::ONE,
        Expr::Const(false) => Ref::ZERO,
        Expr::Var(v) => var(mgr, *v),
        Expr::Not(e) => {
            let inner = bdd_of(mgr, e, var);
            mgr.not(inner)
        }
        Expr::And(es) => es.iter().fold(Ref::ONE, |acc, e| {
            let r = bdd_of(mgr, e, var);
            mgr.and(acc, r)
        }),
        Expr::Or(es) => es.iter().fold(Ref::ZERO, |acc, e| {
            let r = bdd_of(mgr, e, var);
            mgr.or(acc, r)
        }),
    }
}

/// The cone's leaves with their variables (`cone.leaves[i]` = variable
/// `i`), sorted by signal for binary search.
fn leaf_vars(cone: &Cone) -> Vec<(SignalId, VarId)> {
    let mut leaves: Vec<(SignalId, VarId)> = cone
        .leaves
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, VarId(i)))
        .collect();
    leaves.sort_unstable();
    leaves
}

/// BDD of the subject cone's function over `mgr`'s variables
/// (`cone.leaves[i]` = variable `i`): one pass over the cone's gates in
/// their (topological) order, each gate's AND/OR/INV/BUF applied to its
/// fanins' BDDs. Equal to [`bdd_of_expr`] of [`Cone::to_expr`], without
/// building the expression.
pub fn subject_cone_bdd(mgr: &mut Manager, net: &Network, cone: &Cone) -> Ref {
    let leaves = leaf_vars(cone);
    let mut refs: Vec<Ref> = Vec::with_capacity(cone.gates.len());
    for &g in &cone.gates {
        let NodeKind::Gate { op, fanin } = net.node(g) else {
            unreachable!("cone gate {g} is not a gate")
        };
        let arg = |mgr: &mut Manager, f: SignalId| match leaves.binary_search_by_key(&f, |l| l.0) {
            Ok(k) => mgr.var(leaves[k].1),
            Err(_) => {
                let k = cone
                    .gates
                    .binary_search(&f)
                    .unwrap_or_else(|_| panic!("fanin {f} of {g} neither leaf nor cone gate"));
                assert!(k < refs.len(), "fanin {f} follows its user {g}");
                refs[k]
            }
        };
        let r = match op {
            GateOp::And => fanin.iter().fold(Ref::ONE, |acc, &f| {
                let x = arg(mgr, f);
                mgr.and(acc, x)
            }),
            GateOp::Or => fanin.iter().fold(Ref::ZERO, |acc, &f| {
                let x = arg(mgr, f);
                mgr.or(acc, x)
            }),
            GateOp::Inv => {
                let x = arg(mgr, fanin[0]);
                mgr.not(x)
            }
            GateOp::Buf => arg(mgr, fanin[0]),
        };
        refs.push(r);
    }
    let root = cone
        .gates
        .binary_search(&cone.root)
        .expect("the root is a cone gate");
    refs[root]
}

/// BDD of the mapped cone's function over `mgr`'s variables
/// (`cone.leaves[i]` = variable `i`): each cell's BFF applied to the BDDs
/// of its pins ([`bdd_of_expr_over`]). Equal to [`bdd_of_expr`] of
/// [`mapped_cone_expr`], without building the expression.
///
/// # Errors
///
/// As [`mapped_cone_expr`].
pub fn mapped_cone_bdd(
    mgr: &mut Manager,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> Result<Ref, GraphFault> {
    compose(
        mgr,
        cone,
        cover,
        library,
        |mgr, v| mgr.var(v),
        bdd_of_expr_over,
    )
}

/// `true` iff the cover computes exactly the cone's function: the BDDs of
/// the subject cone and of the mapped cone, built in one manager, are the
/// same node. A cone naming a signal outside `net` and a cover that does
/// not compose both fail.
pub fn verify_cone_function(
    net: &Network,
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> bool {
    in_range(net, cone).is_ok()
        && with_thread_manager(cone.leaves.len(), |mgr| {
            let subject = subject_cone_bdd(mgr, net, cone);
            mapped_cone_bdd(mgr, cone, cover, library) == Ok(subject)
        })
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
        let expr = mapped_cone_expr(cone, cover, &lib).unwrap();
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
