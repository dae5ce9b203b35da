//! Independent static verification of mapped designs.
//!
//! The mapper's correctness argument rests on three invariants it is
//! *supposed* to preserve (paper §3): decomposition uses only the
//! associative and DeMorgan laws, partitioning cuts only at multi-fanout
//! points, and every bound cell satisfies
//! `hazards(cell) ⊆ hazards(subnetwork)` (Theorem 3.2). This crate
//! re-derives all three from the finished [`MappedDesign`] alone — it
//! shares no code with the matcher, the covering DP, the cluster
//! enumerators or the hazard-verdict cache, so a bug in any of those
//! fast paths cannot hide from it.
//!
//! [`lint_mapped_design`] runs three check families:
//!
//! * **structure** — the mapped netlist is acyclic and fully driven, every
//!   pin binding is in range and of the right arity, every cone gate is
//!   covered by exactly one instance, cover roots coincide with the
//!   re-derived partition boundary (cuts only at primary outputs and
//!   multi-fanout gates), and reported areas re-add;
//! * **function** — each instance's cell function, instantiated on its pin
//!   bindings, is truth-table equal to the covered subnetwork's function
//!   over the full reached cut space (so a binding that silently ignores
//!   a cut variable the subnetwork depends on is caught);
//! * **Theorem 3.2** — each binding of a hazardous cell is re-verified by
//!   [`asyncmap_hazard::decide_containment`]: exactly by the exhaustive
//!   transition sweep when it has at most 8 cut signals, by its bounded
//!   fallback otherwise; plus a whole-cone containment sweep where the
//!   cone is narrow enough.
//!
//! Findings carry a severity, a human-readable gate path and a stable
//! machine-readable code (`family.kind`). Info-level notes (dead
//! instances) are reported separately and do not make a report unclean.
//!
//! # Examples
//!
//! ```
//! use asyncmap_core::{async_tmap, MapOptions};
//! use asyncmap_cube::{Cover, VarTable};
//! use asyncmap_library::builtin;
//! use asyncmap_lint::lint_mapped_design;
//! use asyncmap_network::EquationSet;
//!
//! let vars = VarTable::from_names(["a", "b", "c"]);
//! let f = Cover::parse("ab + a'c + bc", &vars)?;
//! let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
//! let mut lib = builtin::cmos3();
//! lib.annotate_hazards();
//! let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
//! let report = lint_mapped_design(&design, &lib);
//! assert!(report.is_clean());
//! # Ok::<(), asyncmap_cube::ParseSopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equiv;
mod structure;
mod theorem32;

use asyncmap_bff::Expr;
use asyncmap_core::{CleanCones, ConeCover, CoverKeys, Instance, MappedDesign};
use asyncmap_library::Library;
use asyncmap_network::{Cone, GateOp, Network, NodeKind, SignalId};
pub use asyncmap_report::{Finding, Severity};
use asyncmap_report::{Report, Totals};
use std::collections::{HashMap, HashSet};

/// What the lint pass looked at, for report context.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintCounters {
    /// Cones examined.
    pub cones: usize,
    /// Cell instances examined.
    pub instances: usize,
    /// Per-instance function-equivalence certificates checked.
    pub function_checks: usize,
    /// Hazardous-cell bindings re-verified against Theorem 3.2.
    pub theorem32_checks: usize,
    /// Whole-cone containment sweeps performed.
    pub cone_sweeps: usize,
    /// Cones too wide for the whole-cone exhaustive sweep.
    pub cone_sweeps_skipped: usize,
    /// Cones whose per-cone checks were skipped because an identically
    /// shaped cone with an identical local cover already linted clean
    /// (only [`lint_mapped_design_cached`] ever sets this).
    pub cones_reused: usize,
}

impl asyncmap_report::Counters for LintCounters {
    fn summarize(&self, totals: &Totals, out: &mut String) {
        out.push_str(&format!(
            "lint: {} finding(s) ({} error(s)), {} note(s) over {} cone(s), \
             {} instance(s), {} function certificate(s), {} Theorem 3.2 re-check(s)\n",
            totals.findings,
            totals.errors,
            totals.notes,
            self.cones,
            self.instances,
            self.function_checks,
            self.theorem32_checks,
        ));
        if self.cones_reused > 0 {
            out.push_str(&format!(
                "lint: {} cone(s) reused from a prior clean pass\n",
                self.cones_reused
            ));
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.cones += other.cones;
        self.instances += other.instances;
        self.function_checks += other.function_checks;
        self.theorem32_checks += other.theorem32_checks;
        self.cone_sweeps += other.cone_sweeps;
        self.cone_sweeps_skipped += other.cone_sweeps_skipped;
        self.cones_reused += other.cones_reused;
    }
}

/// The result of linting one mapped design: the shared [`Report`] over
/// [`LintCounters`].
pub type LintReport = Report<LintCounters>;

/// One instance together with the slice of the subject network it covers:
/// the cut signals its subnetwork reaches (in first-visit order, defining
/// the local variable space) and the gates strictly inside the cut.
/// Built once by the structure pass and shared with the function and
/// Theorem 3.2 passes.
pub(crate) struct InstanceView<'a> {
    pub cone_idx: usize,
    pub inst: &'a Instance,
    /// Reached cut signals in first-visit order; local variable `i` of the
    /// subnetwork expression is `cut_signals[i]`.
    pub cut_signals: Vec<SignalId>,
    /// Cone gates this instance covers (including its own output).
    pub covered_gates: Vec<SignalId>,
    /// `false` when the walk found a structural violation; deeper checks
    /// skip the instance.
    pub structurally_sound: bool,
}

pub(crate) fn path_of(net: &Network, cone: &Cone, inst: Option<&Instance>) -> String {
    match inst {
        Some(i) => format!(
            "cone {} / instance {}",
            net.name(cone.root),
            net.name(i.output)
        ),
        None => format!("cone {}", net.name(cone.root)),
    }
}

/// Walks the subnetwork under `inst`, cutting at `cut_set` (the cone's
/// leaves plus the other instances' outputs). Reports escape violations
/// into `report` and marks the view unsound on any.
fn view_instance<'a>(
    net: &Network,
    cone: &Cone,
    cone_idx: usize,
    inst: &'a Instance,
    cut_set: &HashSet<SignalId>,
    cone_gates: &HashSet<SignalId>,
    report: &mut LintReport,
) -> InstanceView<'a> {
    let mut view = InstanceView {
        cone_idx,
        inst,
        cut_signals: Vec::new(),
        covered_gates: Vec::new(),
        structurally_sound: true,
    };
    let mut seen_cut: HashSet<SignalId> = HashSet::new();
    let mut seen_gate: HashSet<SignalId> = HashSet::new();
    let mut stack = vec![(inst.output, true)];
    while let Some((s, is_root)) = stack.pop() {
        if !is_root && cut_set.contains(&s) {
            if seen_cut.insert(s) {
                view.cut_signals.push(s);
            }
            continue;
        }
        if !cone_gates.contains(&s) {
            report.push(
                Severity::Error,
                "coverage.escapes-cone",
                path_of(net, cone, Some(inst)),
                format!(
                    "subnetwork reaches signal {} which is neither a cut signal nor a gate of this cone",
                    net.name(s)
                ),
            );
            view.structurally_sound = false;
            continue;
        }
        if !seen_gate.insert(s) {
            continue;
        }
        view.covered_gates.push(s);
        if let NodeKind::Gate { fanin, .. } = net.node(s) {
            for &f in fanin {
                stack.push((f, false));
            }
        }
    }
    view
}

/// Builds the views of every instance of `cover`. The cut set for each
/// instance is the cone's leaf set plus every *other* instance's output.
pub(crate) fn view_cover<'a>(
    net: &Network,
    cone: &Cone,
    cone_idx: usize,
    cover: &'a ConeCover,
    report: &mut LintReport,
) -> Vec<InstanceView<'a>> {
    let cone_gates: HashSet<SignalId> = cone.gates.iter().copied().collect();
    let outputs: HashSet<SignalId> = cover.instances.iter().map(|i| i.output).collect();
    let leaves: HashSet<SignalId> = cone.leaves.iter().copied().collect();
    cover
        .instances
        .iter()
        .map(|inst| {
            let mut cut_set: HashSet<SignalId> = leaves.clone();
            cut_set.extend(outputs.iter().copied().filter(|&o| o != inst.output));
            view_instance(net, cone, cone_idx, inst, &cut_set, &cone_gates, report)
        })
        .collect()
}

/// Builds the subnetwork expression rooted at `root` over the local
/// variable space `var_of` (signal → variable index), cutting wherever
/// `var_of` has an entry. Every reachable non-cut signal must be a gate.
pub(crate) fn subnetwork_expr(
    net: &Network,
    root: SignalId,
    var_of: &HashMap<SignalId, usize>,
) -> Expr {
    fn go(net: &Network, s: SignalId, root: SignalId, var_of: &HashMap<SignalId, usize>) -> Expr {
        if s != root {
            if let Some(&v) = var_of.get(&s) {
                return Expr::Var(asyncmap_cube::VarId(v));
            }
        }
        match net.node(s) {
            NodeKind::Input => unreachable!("input signal must be a cut signal"),
            NodeKind::Gate { op, fanin } => {
                let args: Vec<Expr> = fanin.iter().map(|&f| go(net, f, root, var_of)).collect();
                match op {
                    GateOp::And => Expr::and(args),
                    GateOp::Or => Expr::or(args),
                    GateOp::Inv => args.into_iter().next().expect("inverter fanin").not(),
                    GateOp::Buf => args.into_iter().next().expect("buffer fanin"),
                }
            }
        }
    }
    go(net, root, root, var_of)
}

/// Substitutes `args[i]` for variable `i` of `bff` — the lint crate's own
/// copy of positive-phase pin substitution, deliberately independent of
/// the matcher's.
pub(crate) fn substitute(bff: &Expr, args: &[Expr]) -> Expr {
    match bff {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(v) => args[v.index()].clone(),
        Expr::Not(e) => substitute(e, args).not(),
        Expr::And(es) => Expr::and(es.iter().map(|e| substitute(e, args)).collect()),
        Expr::Or(es) => Expr::or(es.iter().map(|e| substitute(e, args)).collect()),
    }
}

/// Composes the mapped cone's structure from its instances' cell BFFs,
/// over the cone's local leaf variables (`cone.leaves[i]` = variable `i`).
/// Returns `None` when some needed signal is neither a leaf nor an
/// instance output, or when the bindings loop (both reported elsewhere
/// as structure findings).
pub(crate) fn composed_cover_expr(
    cone: &Cone,
    cover: &ConeCover,
    library: &Library,
) -> Option<Expr> {
    let leaf_var: HashMap<SignalId, usize> = cone
        .leaves
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i))
        .collect();
    let by_output: HashMap<SignalId, &Instance> =
        cover.instances.iter().map(|i| (i.output, i)).collect();
    // An acyclic chain of bindings passes each instance at most once, so
    // `depth` left over after every instance means the bindings loop.
    fn go(
        s: SignalId,
        depth: usize,
        leaf_var: &HashMap<SignalId, usize>,
        by_output: &HashMap<SignalId, &Instance>,
        library: &Library,
    ) -> Option<Expr> {
        if let Some(&v) = leaf_var.get(&s) {
            return Some(Expr::Var(asyncmap_cube::VarId(v)));
        }
        let inst = by_output.get(&s)?;
        let depth = depth.checked_sub(1)?;
        let cell = library.cells().get(inst.cell_index)?;
        let args: Vec<Expr> = inst
            .inputs
            .iter()
            .map(|&i| go(i, depth, leaf_var, by_output, library))
            .collect::<Option<_>>()?;
        Some(substitute(cell.bff(), &args))
    }
    go(
        cover.root,
        cover.instances.len(),
        &leaf_var,
        &by_output,
        library,
    )
}

/// Truth-table equality of two expressions over an `n`-variable space,
/// via the packed kernels (single `u64` when `n ≤ 6`, word-blocked
/// otherwise).
pub(crate) fn truth_equal(a: &Expr, b: &Expr, n: usize) -> bool {
    use asyncmap_core::truth;
    if n <= 6 {
        truth::truth6_of(a, n) == truth::truth6_of(b, n)
    } else {
        truth::truth_table_words(a, n) == truth::truth_table_words(b, n)
    }
}

/// Reuse cache for [`lint_mapped_design_cached`].
///
/// Every per-cone check family is a pure function of the cone's *local*
/// shape (its gate operator tree over positional leaves), the cover's
/// instances rewritten into that local space, and the library. The cache
/// therefore remembers, per library, the set of (shape, local cover) pairs
/// that produced **zero findings and zero notes**; a later cone with an
/// identical pair is skipped and counted in
/// [`LintCounters::cones_reused`]. Cones that produced any diagnostic are
/// never cached, so re-linting an unclean design re-reports every finding.
///
/// Whole-design checks (acyclicity, drivenness, area re-addition, the
/// partition boundary) never consult the cache — they run in full on every
/// pass, so reuse adds no trust assumptions beyond "equal local shape,
/// equal local cover, equal library".
///
/// The cache also memoizes the per-cell hazardousness recomputation,
/// which is library-wide and design-independent. Pointing one cache at a
/// differently named library clears it.
#[derive(Debug, Clone, Default)]
pub struct LintCache {
    /// (Shape, local cover) pairs that linted clean, and their library.
    clean: CleanCones,
    /// Memoized per-cell hazardousness for the bound library.
    cell_hazardous: Option<Vec<bool>>,
}

impl LintCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct clean (shape, local cover) pairs remembered.
    pub fn entries(&self) -> usize {
        self.clean.len()
    }
}

/// Runs every check family over `design` and returns the combined report.
///
/// Read-only: the design and library are not modified. The pass assumes
/// nothing about how the design was produced — a hand-constructed or
/// deliberately corrupted [`MappedDesign`] is diagnosed the same way a
/// mapper-produced one is.
pub fn lint_mapped_design(design: &MappedDesign, library: &Library) -> LintReport {
    lint_inner(design, library, None)
}

/// [`lint_mapped_design`] with reuse: per-cone checks are skipped for
/// cones whose (shape, local cover) pair already linted clean under
/// `cache` (see [`LintCache`] for the reuse argument) — whether in a
/// previous pass or earlier in the same pass (duplicated logic is common
/// in generated designs). Intended for incremental (ECO) flows, where
/// successive designs share almost every cone. The verdict and the
/// diagnostics are identical to [`lint_mapped_design`]'s; only the work
/// counters differ, with the skipped cones in
/// [`LintCounters::cones_reused`].
pub fn lint_mapped_design_cached(
    design: &MappedDesign,
    library: &Library,
    cache: &mut LintCache,
) -> LintReport {
    if cache.clean.bind(library) {
        cache.cell_hazardous = None;
    }
    lint_inner(design, library, Some(cache))
}

fn lint_inner(
    design: &MappedDesign,
    library: &Library,
    cache: Option<&mut LintCache>,
) -> LintReport {
    let mut report = LintReport::default();
    report.counters.cones = design.cones.len();
    report.counters.instances = design.num_instances();

    if !structure::check_signal_ranges(design, &mut report) {
        return report;
    }
    structure::check_global(design, library, &mut report);

    // Hazardousness of each library cell, recomputed here (not read from
    // the annotation the matcher used) so a stale annotation cannot mask
    // a hazardous cell. Library-wide and design-independent, so the cache
    // (when present) memoizes it across passes.
    let memo = cache.as_ref().and_then(|c| c.cell_hazardous.clone());
    let cell_hazardous = memo.unwrap_or_else(|| cell_hazardousness(library));
    let mut cache = cache;
    if let Some(c) = cache.as_deref_mut() {
        c.cell_hazardous = Some(cell_hazardous.clone());
    }

    // Per-cone walks: build the instance views once, then feed them to the
    // coverage, function and Theorem 3.2 checks.
    let keys = cache.as_ref().map(|_| CoverKeys::new(design));
    for (idx, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
        let key = keys.as_ref().and_then(|k| k.get(idx));
        if let (Some(c), Some(key)) = (cache.as_deref(), key) {
            if c.clean.contains(key) {
                report.counters.cones_reused += 1;
                continue;
            }
        }
        let (findings_before, notes_before) = (report.findings.len(), report.notes.len());
        if !structure::check_instances_wellformed(design, library, cone, cover, &mut report) {
            // An out-of-range cell or a wrong arity: the walks below would
            // index out of bounds, so stop at the structural findings.
            continue;
        }
        let views = view_cover(&design.subject, cone, idx, cover, &mut report);
        structure::check_coverage(design, cone, cover, &views, &mut report);
        equiv::check_cover(design, library, cone, &views, &mut report);
        theorem32::check_cover(
            design,
            library,
            cone,
            cover,
            &views,
            &cell_hazardous,
            &mut report,
        );
        // Cache only perfectly quiet cones: a cone that produced even an
        // info note must re-produce it on every pass, so a warm cache
        // yields the same report a cold one would.
        if report.findings.len() == findings_before && report.notes.len() == notes_before {
            if let (Some(c), Some(key)) = (cache.as_deref_mut(), key) {
                c.clean.insert(key);
            }
        }
    }
    report
}

/// Per library cell, whether it has any hazard, with each distinct cell
/// structure characterized once.
fn cell_hazardousness(library: &Library) -> Vec<bool> {
    library
        .characterize()
        .iter()
        .map(|r| !r.is_hazard_free())
        .collect()
}

/// Every Theorem 3.2 obligation lint decides on `design`: per
/// structurally sound binding of a hazardous cell, the cell's BFF over
/// the binding's cut signals, the covered subnetwork over the same space,
/// and the size of that space. Lets tests replay lint's obligations
/// through other containment methods.
#[doc(hidden)]
pub fn binding_obligations(design: &MappedDesign, library: &Library) -> Vec<(Expr, Expr, usize)> {
    let cell_hazardous = cell_hazardousness(library);
    let mut scratch = LintReport::default();
    let mut obligations = Vec::new();
    if !structure::check_signal_ranges(design, &mut scratch) {
        return obligations;
    }
    for (idx, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
        if !structure::check_instances_wellformed(design, library, cone, cover, &mut scratch) {
            continue;
        }
        for view in view_cover(&design.subject, cone, idx, cover, &mut scratch) {
            if view.structurally_sound {
                obligations.extend(theorem32::binding_obligation(
                    &design.subject,
                    library,
                    &view,
                    &cell_hazardous,
                ));
            }
        }
    }
    obligations
}
