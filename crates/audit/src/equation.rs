//! The equation audit behind
//! [`audit_equations_cached`](crate::audit_equations_cached).
//!
//! The decomposition (paper §3.1.1) rewrites each equation on its own and
//! shares nothing between equations but the per-input inverters. So one
//! equation's share of a whole-design audit — its rewrite steps, its
//! equation certificate and the flatten of its cone — is fixed by its
//! cover and by two facts about each inverter it reads: whether it emits
//! that inverter (it is the first user) and whether the inverter is a
//! cone root of the whole design. Both facts come from one pass over the
//! covers, with no decomposition. An equation whose key is stored in the
//! [`AuditCache`] is discharged by one lookup. Each other equation is
//! decomposed alone, in its whole-design context, and audited by the
//! step-level checks.

use std::collections::HashSet;
use std::ops::Range;

use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Phase, VarId};
use asyncmap_network::{
    cone_at, decompose_equation, DecompTrace, EquationSet, GateOp, Network, RewriteRule, SignalId,
    SignalName,
};
use asyncmap_report::Counters;

use crate::cache::{AuditCache, Obligation};
use crate::decomp_check::check_decomp_cached;
use crate::flatten_check::FLATTEN_PATH;
use crate::partition_check::rewalk_cone;
use crate::report::{AuditCounters, AuditReport, Severity};
use crate::{audit_flatten, Discharge};

/// What one equation adds to a report when every obligation of it is
/// discharged by reference: the value of an equation audit.
#[derive(Debug, Clone)]
pub(crate) struct EquationVerdict {
    counters: AuditCounters,
    /// Each info note's site and `(code, message)`, in emission order.
    notes: Box<[(Site, &'static str, String)]>,
}

/// Where a note of an equation's share sits, relative to the equation.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// Its rewrite step with this index, counted from its first step.
    Step(usize, RewriteRule),
    /// Its equation certificate.
    Equation,
    /// Its cone's flatten collapse.
    Flatten,
    /// Its cone's root, its last gate.
    Cone,
}

impl Site {
    /// The path a whole-design audit gives the note.
    fn path(self, name: &str, layout: &Layout) -> String {
        match self {
            Site::Step(i, rule) => format!("{name}:step{}:{}", layout.step_base + i, rule.name()),
            Site::Equation => format!("{name}:equation"),
            Site::Flatten => format!("{}:{FLATTEN_PATH}", Site::Cone.path(name, layout)),
            Site::Cone => format!(
                "cone:{}",
                SignalName::Gate(layout.gate_base + layout.gates - 1)
            ),
        }
    }
}

/// Where one equation sits in the whole-design decomposition.
struct Layout {
    /// Index of its first rewrite step, and its step count.
    step_base: usize,
    steps: usize,
    /// Id of its first gate, and its gate count.
    gate_base: usize,
    gates: usize,
    /// Whether its root is an AND/OR gate, and so roots a cone of its own.
    /// Otherwise the root is a primary input or an inverter, and an
    /// inverter that drives an output is a cone root of the design.
    has_cone: bool,
    /// How many of the inverters it emits are cone roots.
    root_inverters: usize,
    /// Its equation-audit key in [`Context::keys`].
    key: Range<usize>,
}

/// The inverter context of every equation, read off the covers.
struct Context {
    /// Per input, the first equation that uses it negated: the one that
    /// emits its inverter.
    first_user: Vec<usize>,
    /// Per input, whether its inverter is a cone root: it has fanout ≥ 2
    /// or is itself an output.
    root: Vec<bool>,
    layouts: Vec<Layout>,
    /// Every equation's key, back to back.
    keys: Vec<u8>,
}

impl Context {
    /// `None` if a cover does not fit the decomposition: a width other
    /// than the input count, no cubes, or an empty cube.
    fn of(eqs: &EquationSet) -> Option<Self> {
        let nvars = eqs.inputs.len();
        let mut first_user = vec![usize::MAX; nvars];
        let mut fanout = vec![0usize; nvars];
        let mut root = vec![false; nvars];
        for (e, (_, cover)) in eqs.equations.iter().enumerate() {
            if cover.nvars() != nvars
                || cover.is_empty()
                || cover.cubes().iter().any(|c| c.num_literals() == 0)
            {
                return None;
            }
            // A lone negative literal is its equation's root: the inverter
            // drives an output and feeds no gate of this equation.
            let lone = cover.len() == 1 && cover.num_literals() == 1;
            for v in negated(cover) {
                let v = v.index();
                first_user[v] = first_user[v].min(e);
                if lone {
                    root[v] = true;
                } else {
                    fanout[v] += 1;
                }
            }
        }
        for (root, &fanout) in root.iter_mut().zip(&fanout) {
            *root |= fanout >= 2;
        }

        let mut layouts = Vec::with_capacity(eqs.equations.len());
        let mut keys = Vec::new();
        let mut inverters = Vec::new();
        let mut seen = vec![usize::MAX; nvars];
        let (mut step_base, mut gate_base) = (0, nvars);
        for (e, (name, cover)) in eqs.equations.iter().enumerate() {
            inverters.clear();
            let mut root_inverters = 0;
            let (mut steps, mut gates) = (0, 0);
            // A gate and a step per inverter it emits; per tree of k
            // operands (one AND tree per cube, then the OR tree) k - 1
            // gates, and a step if k ≥ 2.
            for cube in cover.cubes() {
                for (v, phase) in cube.literals() {
                    let v = v.index();
                    if phase == Phase::Pos || std::mem::replace(&mut seen[v], e) == e {
                        continue;
                    }
                    let emits = first_user[v] == e;
                    inverters.push(u8::from(emits) | u8::from(root[v]) << 1);
                    if emits {
                        root_inverters += usize::from(root[v]);
                        steps += 1;
                        gates += 1;
                    }
                }
                let literals = cube.num_literals() as usize;
                gates += literals - 1;
                steps += usize::from(literals >= 2);
            }
            gates += cover.len() - 1;
            steps += usize::from(cover.len() >= 2);
            let start = keys.len();
            Obligation::EquationAudit {
                nvars,
                name,
                cover,
                inverters: &inverters,
            }
            .encode(&mut keys);
            layouts.push(Layout {
                step_base,
                steps,
                gate_base,
                gates,
                has_cone: cover.num_literals() >= 2,
                root_inverters,
                key: start..keys.len(),
            });
            step_base += steps;
            gate_base += gates;
        }
        Some(Context {
            first_user,
            root,
            layouts,
            keys,
        })
    }
}

/// The inputs `cover` uses negated, once per literal.
fn negated(cover: &Cover) -> impl Iterator<Item = VarId> + '_ {
    cover
        .cubes()
        .iter()
        .flat_map(|c| c.literals())
        .filter(|&(_, phase)| phase == Phase::Neg)
        .map(|(v, _)| v)
}

/// Audits `eqs` one equation at a time under `cache`. `None` when the
/// whole-network audit must speak instead: the equations do not have
/// distinct names, a cover does not fit the decomposition, or a check
/// found something.
pub(crate) fn audit(eqs: &EquationSet, cache: &mut AuditCache) -> Option<AuditReport> {
    let mut names = HashSet::with_capacity(eqs.equations.len());
    if !eqs.equations.iter().all(|(name, _)| names.insert(name)) {
        return None;
    }
    let ctx = Context::of(eqs)?;
    // A whole-design audit lists step notes, then certificate notes, then
    // cone notes in cone order; an equation's inverter cones come before
    // its own cone.
    let mut report = AuditReport::default();
    let mut groups: [AuditReport; 3] = Default::default();
    let inverter_cone = Expr::Var(VarId(0)).not();
    for (e, layout) in ctx.layouts.iter().enumerate() {
        let name = &eqs.equations[e].0;
        let cones = &mut groups[2];
        // The flatten of a one-leaf cone never notes, and a finding falls
        // back to the whole-network audit, which names the cone.
        for _ in 0..layout.root_inverters {
            cones.counters.cut_points += 1;
            cones.counters.cones += 1;
            audit_flatten(cones, Some(cache), &inverter_cone, 1, String::new);
        }
        let key = &ctx.keys[layout.key.clone()];
        if let Some(verdict) = cache.equation(key) {
            report.counters.absorb(&verdict.counters);
            verdict.emit(name, layout, &mut groups);
            continue;
        }
        let (counters, verdict) = audit_one(eqs, e, &ctx, cache)?;
        report.counters.absorb(&counters);
        report.counters.decomposed_equations += 1;
        verdict.emit(name, layout, &mut groups);
        cache.record_equation(key, verdict);
    }
    for group in groups {
        report.merge(group);
    }
    report.is_clean().then_some(report)
}

impl EquationVerdict {
    fn emit(&self, name: &str, layout: &Layout, groups: &mut [AuditReport; 3]) {
        for &(site, code, ref message) in self.notes.iter() {
            let group = match site {
                Site::Step(..) => 0,
                Site::Equation => 1,
                Site::Flatten | Site::Cone => 2,
            };
            groups[group].push(
                Severity::Info,
                code,
                site.path(name, layout),
                message.clone(),
            );
        }
    }
}

/// Decomposes equation `e` alone in its whole-design context and audits
/// it by the step-level checks under `cache`. Returns the counters that
/// adds and the equation's verdict, or `None` on a finding or when the
/// front end's output does not have the shape the context predicts.
fn audit_one(
    eqs: &EquationSet,
    e: usize,
    ctx: &Context,
    cache: &mut AuditCache,
) -> Option<(AuditCounters, EquationVerdict)> {
    let (name, cover) = &eqs.equations[e];
    let layout = &ctx.layouts[e];
    let nvars = eqs.inputs.len();
    let mut net = Network::new();
    let inputs: Vec<SignalId> = eqs.inputs.iter().map(|(_, n)| net.add_input(n)).collect();
    // The inverters earlier equations emit come first; the equation's own
    // gates then follow in whole-design order.
    let mut inverters = vec![None; nvars];
    for v in negated(cover) {
        let v = v.index();
        if ctx.first_user[v] != e && inverters[v].is_none() {
            inverters[v] = Some(net.add_gate(GateOp::Inv, [inputs[v]]));
        }
    }
    let first_gate = net.len();
    let mut trace = DecompTrace {
        nvars,
        steps: Vec::new(),
        equations: Vec::new(),
    };
    let root = decompose_equation(
        &mut net,
        &inputs,
        &mut inverters,
        name,
        cover,
        Some(&mut trace),
    );
    if net.len() - first_gate != layout.gates || trace.steps.len() != layout.steps {
        return None;
    }
    let one = EquationSet {
        inputs: eqs.inputs.clone(),
        equations: vec![(name.clone(), cover.clone())],
    };
    let mut report = check_decomp_cached(&one, &net, &trace, cache);

    // Its cone, cut where the whole design's partition cuts it: at the
    // inverters that are cone roots. The cut is re-derived independently.
    let cone_expr = if layout.has_cone {
        let mut cut = vec![false; net.len()];
        for (v, inv) in inverters.iter().enumerate() {
            if let Some(inv) = inv {
                cut[inv.index()] = ctx.root[v];
            }
        }
        let cone = cone_at(&net, root, &cut);
        let (leaves, gates) = rewalk_cone(&net, root, &cut, &mut vec![false; net.len()]);
        if leaves != cone.leaves || gates != cone.gates {
            return None;
        }
        report.counters.cut_points += 1;
        report.counters.cones += 1;
        let expr = cone.to_expr(&net);
        let nvars = cone.leaves.len();
        audit_flatten(&mut report, Some(cache), &expr, nvars, String::new);
        Some((expr, nvars))
    } else {
        None
    };
    if !report.is_clean() {
        return None;
    }
    let verdict = replayed_verdict(cache, &trace, cone_expr.as_ref())?;
    Some((report.counters, verdict))
}

/// Discharges every obligation of one audited equation by reference, as
/// a whole-design warm audit would: its rewrite steps but the
/// input-inverter realizations, its certificate and its cone's flatten.
/// `None` if one of them is not stored.
fn replayed_verdict(
    cache: &mut AuditCache,
    trace: &DecompTrace,
    cone: Option<&(Expr, usize)>,
) -> Option<EquationVerdict> {
    let mut report = AuditReport::default();
    let mut sites = Vec::new();
    report.counters.rewrite_steps = trace.steps.len();
    report.counters.equations = 1;
    for (i, step) in trace.steps.iter().enumerate() {
        if step.rule == RewriteRule::InputInverter {
            continue;
        }
        let ob = Obligation::Step {
            nvars: trace.nvars,
            rule: step.rule,
            before: &step.before,
            after: &step.after,
        };
        if !cache.replay(&ob, &mut report, String::new) {
            return None;
        }
        sites.resize(report.notes.len(), Site::Step(i, step.rule));
    }
    let cert = trace.equations.first()?;
    let ob = Obligation::Equation {
        nvars: trace.nvars,
        source: &cert.source,
        result: &cert.result,
    };
    if !cache.replay(&ob, &mut report, String::new) {
        return None;
    }
    sites.resize(report.notes.len(), Site::Equation);
    if let Some((expr, leaves)) = cone {
        report.counters.cut_points += 1;
        report.counters.cones += 1;
        let site = match audit_flatten(&mut report, Some(cache), expr, *leaves, String::new) {
            Discharge::Reused => Site::Flatten,
            Discharge::Skipped => Site::Cone,
            Discharge::Checked => return None,
        };
        sites.resize(report.notes.len(), site);
    }
    let notes = sites
        .into_iter()
        .zip(report.notes)
        .map(|(site, note)| (site, note.code, note.message))
        .collect();
    Some(EquationVerdict {
        counters: report.counters,
        notes,
    })
}

#[cfg(test)]
mod tests;
