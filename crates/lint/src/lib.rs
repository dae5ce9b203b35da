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
//! fast paths cannot hide from it. With fma it shares three pieces of
//! core: the instance-graph validator
//! ([`asyncmap_core::validate_instance_graph`]), the cone builder
//! ([`asyncmap_core::mapped_cone_expr`]) and the per-cone verdict
//! ([`asyncmap_core::decide_cone`]).
//!
//! [`lint_mapped_design`] runs three check families:
//!
//! * **structure** — the validator's instance-graph faults (`structure.*`:
//!   signals out of range, multiply driven or undriven, cycles), every
//!   binding of the right cell and arity, every cone gate covered by
//!   exactly one instance, cover roots on the re-derived partition
//!   boundary (primary outputs and multi-fanout gates), and reported
//!   areas re-adding;
//! * **function** — each instance's cell function, instantiated on its pin
//!   bindings, is truth-table equal to the covered subnetwork's function
//!   over the full reached cut space (so a binding that silently ignores
//!   a cut variable the subnetwork depends on is caught);
//! * **Theorem 3.2** — each binding of a hazardous cell is re-verified by
//!   [`asyncmap_hazard::decide_containment`]: exactly by the exhaustive
//!   transition sweep when it has at most 8 cut signals, by its bounded
//!   fallback otherwise; plus the per-cone verdict where the cone has at
//!   most 8 leaves (wider ones are counted as skipped).
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
use asyncmap_core::{
    validate_instance_graph, CleanCones, ConeCover, CoverKeys, GraphFault, Instance, MappedDesign,
};
use asyncmap_library::Library;
use asyncmap_network::{Cone, Network, NodeKind, SignalId};
pub use asyncmap_report::{Finding, Severity};
use asyncmap_report::{Report, Totals};

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

impl InstanceView<'_> {
    /// The instance's pins as variables of its cut space; `None` when a
    /// pin reads a signal the covered subnetwork never reaches.
    pub(crate) fn pin_vars(&self) -> Option<Vec<Expr>> {
        let var = |s: &SignalId| self.cut_signals.iter().position(|c| c == s);
        let pins = self.inst.inputs.iter().map(var);
        pins.map(|v| v.map(|v| Expr::Var(asyncmap_cube::VarId(v))))
            .collect()
    }

    /// The covered subnetwork as an expression over the cut space.
    pub(crate) fn subnetwork(&self, net: &Network) -> Expr {
        let leaves = self.cut_signals.clone();
        let gates = Vec::new();
        Cone {
            root: self.inst.output,
            leaves,
            gates,
        }
        .to_expr(net)
    }
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

/// Signal-indexed marks for the per-cone walks, allocated once per lint
/// call and re-stamped per cone and per instance, so no walk clears or
/// hashes anything: a cone mark is current iff its stamp equals the
/// cone's, an instance mark iff it equals the instance's. Stamps count
/// the cones and instances of one call, far below `u32::MAX`.
pub(crate) struct ConeMarks {
    cone: u32,
    inst: u32,
    /// Per signal, the stamp of the cone `role` was last set for.
    stamp: Vec<u32>,
    /// Per signal, its [`Role`] bits in the cone stamped in `stamp`.
    role: Vec<u8>,
    seen_cut: Vec<u32>,
    seen_gate: Vec<u32>,
    /// Per signal, the instances covering it; zero outside
    /// `check_coverage`.
    count: Vec<u32>,
}

/// The roles a signal plays in the cone being linted, as bits.
#[derive(Clone, Copy)]
pub(crate) enum Role {
    /// A gate of the cone.
    Gate = 1,
    /// A leaf of the cone.
    Leaf = 2,
    /// The output of some instance of the cover.
    Output = 4,
    /// Read by some instance of the cover.
    Read = 8,
}

impl ConeMarks {
    /// Unset marks over the signals of `net`.
    pub(crate) fn new(net: &Network) -> Self {
        ConeMarks {
            cone: 0,
            inst: 0,
            stamp: vec![0; net.len()],
            role: vec![0; net.len()],
            seen_cut: vec![0; net.len()],
            seen_gate: vec![0; net.len()],
            count: vec![0; net.len()],
        }
    }

    /// Marks the gates, leaves and instance outputs of a new cone.
    fn bind(&mut self, cone: &Cone, cover: &ConeCover) {
        self.cone += 1;
        cone.gates.iter().for_each(|&g| self.set(g, Role::Gate));
        cone.leaves.iter().for_each(|&l| self.set(l, Role::Leaf));
        let outputs = cover.instances.iter().map(|i| i.output);
        outputs.for_each(|o| self.set(o, Role::Output));
    }

    /// Gives `s` `role` in the bound cone.
    pub(crate) fn set(&mut self, s: SignalId, role: Role) {
        let i = s.index();
        if self.stamp[i] != self.cone {
            self.stamp[i] = self.cone;
            self.role[i] = 0;
        }
        self.role[i] |= role as u8;
    }

    /// Whether `s` has `role` in the bound cone.
    pub(crate) fn has(&self, s: SignalId, role: Role) -> bool {
        self.stamp[s.index()] == self.cone && self.role[s.index()] & role as u8 != 0
    }

    /// Whether `s` is a cut signal of the instance driving `output`: a
    /// cone leaf, or another instance's output. Exactly `leaves ∪
    /// (outputs − {output})`, also when two instances drive one signal or
    /// a leaf is an instance output.
    fn is_cut(&self, s: SignalId, output: SignalId) -> bool {
        self.has(s, Role::Leaf) || (s != output && self.has(s, Role::Output))
    }

    /// Adds one covering instance to gate `g`'s count.
    pub(crate) fn cover(&mut self, g: SignalId) {
        self.count[g.index()] += 1;
    }

    /// The covering instances counted for `g`.
    pub(crate) fn covered(&self, g: SignalId) -> u32 {
        self.count[g.index()]
    }

    /// Clears the count of `g`.
    pub(crate) fn uncover(&mut self, g: SignalId) {
        self.count[g.index()] = 0;
    }
}

/// Walks the subnetwork under `inst`, cutting at the cut signals the bound
/// `marks` give it. Reports escape violations into `report` and marks the
/// view unsound on any.
fn view_instance<'a>(
    net: &Network,
    cone: &Cone,
    cone_idx: usize,
    inst: &'a Instance,
    marks: &mut ConeMarks,
    report: &mut LintReport,
) -> InstanceView<'a> {
    let mut view = InstanceView {
        cone_idx,
        inst,
        cut_signals: Vec::new(),
        covered_gates: Vec::new(),
        structurally_sound: true,
    };
    marks.inst += 1;
    let stamp = marks.inst;
    let mut stack = vec![(inst.output, true)];
    while let Some((s, is_root)) = stack.pop() {
        if !is_root && marks.is_cut(s, inst.output) {
            if std::mem::replace(&mut marks.seen_cut[s.index()], stamp) != stamp {
                view.cut_signals.push(s);
            }
            continue;
        }
        if !marks.has(s, Role::Gate) {
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
        if std::mem::replace(&mut marks.seen_gate[s.index()], stamp) == stamp {
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
///
/// **Cost contract.** Linear in the cone: binding `marks` to the cone is
/// O(gates + leaves + instances), and each instance's walk is
/// O(covered gates + their fanins), with every membership test one
/// signal-indexed lookup. Nothing per cone is hashed, cleared or sized to
/// the network: `marks` is allocated once per lint call.
pub(crate) fn view_cover<'a>(
    net: &Network,
    cone: &Cone,
    cone_idx: usize,
    cover: &'a ConeCover,
    marks: &mut ConeMarks,
    report: &mut LintReport,
) -> Vec<InstanceView<'a>> {
    marks.bind(cone, cover);
    cover
        .instances
        .iter()
        .map(|inst| view_instance(net, cone, cone_idx, inst, marks, report))
        .collect()
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

    // Every other check indexes the network by signal, so a signal out of
    // range stops the pass.
    if !check_instance_graph(design, library, &mut report) {
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
    let mut marks = ConeMarks::new(&design.subject);
    for (idx, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
        let key = keys.as_ref().and_then(|k| k.get(idx));
        if let (Some(c), Some(key)) = (cache.as_deref(), key) {
            if c.clean.contains(key) {
                report.counters.cones_reused += 1;
                continue;
            }
        }
        let (findings_before, notes_before) = (report.findings.len(), report.notes.len());
        if !cells_sound(library, cover) {
            continue;
        }
        let views = view_cover(&design.subject, cone, idx, cover, &mut marks, &mut report);
        structure::check_coverage(design, cone, cover, &views, &mut marks, &mut report);
        equiv::check_cover(design, library, cone, &views, &mut marks, &mut report);
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

/// Reports the faults of [`validate_instance_graph`]; `false` when a
/// signal lies outside the subject network.
fn check_instance_graph(design: &MappedDesign, library: &Library, report: &mut LintReport) -> bool {
    let faults = validate_instance_graph(design, library);
    faults
        .iter()
        .for_each(|f| f.push_to(&design.subject, report));
    !faults
        .iter()
        .any(|f| matches!(f, GraphFault::OutOfRange(_)))
}

/// Every instance of `cover` names a library cell and binds its pins. The
/// validator reports the instances that do not; the walks over them would
/// index out of bounds.
fn cells_sound(library: &Library, cover: &ConeCover) -> bool {
    let cell = |i: &Instance| library.cells().get(i.cell_index);
    let sound = |i: &Instance| cell(i).is_some_and(|c| c.num_inputs() == i.inputs.len());
    cover.instances.iter().all(sound)
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
    let (net, hazardous) = (&design.subject, cell_hazardousness(library));
    let mut scratch = LintReport::default();
    let mut obligations = Vec::new();
    if !check_instance_graph(design, library, &mut scratch) {
        return obligations;
    }
    let mut marks = ConeMarks::new(net);
    for (idx, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
        if cells_sound(library, cover) {
            let views = view_cover(net, cone, idx, cover, &mut marks, &mut scratch);
            let sound = views.iter().filter(|v| v.structurally_sound);
            let obligation = |v| theorem32::binding_obligation(net, library, v, &hazardous);
            obligations.extend(sound.filter_map(obligation));
        }
    }
    obligations
}

#[cfg(test)]
mod view_tests;
