//! Technology decomposition (paper §3.1.1): transforming logic equations
//! into a network of two-input, one-output base gates.
//!
//! [`async_tech_decomp`] uses only the associative law and DeMorgan's law,
//! which Unger proved hazard-preserving — the `async_tech_decomp` procedure
//! the paper requires for asynchronous designs. [`sync_tech_decomp`] models
//! the synchronous flow, which additionally *simplifies* each equation
//! (removing redundant cubes); that is exactly the step that can introduce
//! static 1-hazards (Figure 3) and is kept as the baseline for comparison.

use crate::certificate::{DecompTrace, EquationCert, RewriteRule, RewriteStep};
use crate::{GateOp, Network, SignalId};
use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Phase, VarTable};
use std::borrow::Cow;

/// A technology-independent design: named output equations (two-level SOP
/// covers) over a shared primary-input space. This is the shape a
/// burst-mode synthesizer hands to the technology mapper.
#[derive(Debug, Clone)]
pub struct EquationSet {
    /// Names of the primary inputs; cover variable `i` is input `i`.
    pub inputs: VarTable,
    /// `(output name, SOP)` pairs.
    pub equations: Vec<(String, Cover)>,
}

impl EquationSet {
    /// Builds an equation set, checking widths.
    ///
    /// # Panics
    ///
    /// Panics if an equation's variable space differs from the input table
    /// or an equation denotes a constant function (no storage-free
    /// controller output is constant).
    pub fn new(inputs: VarTable, equations: Vec<(String, Cover)>) -> Self {
        for (name, cover) in &equations {
            assert_eq!(
                cover.nvars(),
                inputs.len(),
                "equation {name:?} has wrong variable count"
            );
            assert!(
                !cover.is_empty() && !cover.is_tautology(),
                "equation {name:?} is constant"
            );
        }
        EquationSet { inputs, equations }
    }

    /// Total number of cubes over all equations.
    pub fn num_cubes(&self) -> usize {
        self.equations.iter().map(|(_, c)| c.len()).sum()
    }

    /// Total number of literals over all equations.
    pub fn num_literals(&self) -> u32 {
        self.equations.iter().map(|(_, c)| c.num_literals()).sum()
    }
}

/// Decomposes the equations into two-input AND/OR gates and inverters using
/// only hazard-preserving laws (associativity, DeMorgan). Redundant cubes
/// are kept; nothing is shared except per-input inverters (input fanout
/// does not alter hazard behavior).
/// # Examples
///
/// ```
/// use asyncmap_cube::{Cover, VarTable};
/// use asyncmap_network::{async_tech_decomp, sync_tech_decomp, EquationSet};
///
/// let vars = VarTable::from_names(["a", "b", "c"]);
/// let f = Cover::parse("ab + a'c + bc", &vars)?;
/// let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
/// // The hazard-preserving decomposition keeps the redundant cube bc...
/// let hazard_safe = async_tech_decomp(&eqs);
/// // ...which MIS-style simplification would delete (Figure 3).
/// let baseline = sync_tech_decomp(&eqs);
/// assert!(hazard_safe.num_gates() > baseline.num_gates());
/// # Ok::<(), asyncmap_cube::ParseSopError>(())
/// ```
pub fn async_tech_decomp(eqs: &EquationSet) -> Network {
    decompose(eqs, false, None)
}

/// [`async_tech_decomp`], additionally emitting the translation-validation
/// certificate trail: one [`RewriteStep`] per associative regrouping and
/// per input inverter, plus one end-to-end [`EquationCert`] per output.
/// The produced network is bit-identical to the untraced entry point.
pub fn async_tech_decomp_traced(eqs: &EquationSet) -> (Network, DecompTrace) {
    let mut trace = DecompTrace {
        nvars: eqs.inputs.len(),
        steps: Vec::new(),
        equations: Vec::new(),
    };
    let net = decompose(eqs, false, Some(&mut trace));
    (net, trace)
}

/// The synchronous decomposition baseline: equations are first made
/// irredundant (as MIS-style simplification would), *then* decomposed. May
/// introduce static 1-hazards relative to the source equations.
pub fn sync_tech_decomp(eqs: &EquationSet) -> Network {
    decompose(eqs, true, None)
}

fn decompose(eqs: &EquationSet, simplify: bool, mut trace: Option<&mut DecompTrace>) -> Network {
    // Inputs, at most one inverter per input, and fewer AND/OR gates than
    // literals: the network never outgrows this.
    let nvars = eqs.inputs.len();
    let mut net = Network::with_capacity(2 * nvars + eqs.num_literals() as usize);
    let input_ids: Vec<SignalId> = eqs
        .inputs
        .iter()
        .map(|(_, name)| net.add_input(name))
        .collect();
    let mut inverters = vec![None; nvars];
    for (name, cover) in &eqs.equations {
        let cover = if simplify {
            Cow::Owned(cover.irredundant())
        } else {
            Cow::Borrowed(cover)
        };
        decompose_equation(
            &mut net,
            &input_ids,
            &mut inverters,
            name,
            &cover,
            trace.as_deref_mut(),
        );
    }
    net
}

/// Decomposes one equation into `net` with the associative law only and
/// marks its root as output `name`: one balanced AND tree per cube, then a
/// balanced OR tree over the cubes. `inputs[i]` is the signal of cover
/// variable `i` and `inverters[i]` its inverter, if it has one yet. A
/// negative literal reads that inverter, and adds one (recorded there)
/// only when there is none yet, so an equation's gates depend on its
/// cover and on which inputs already have an inverter — nothing else.
/// With `trace`, appends the equation's rewrite steps and its end-to-end
/// certificate. Returns the root.
///
/// [`async_tech_decomp`] is this function applied to each equation in
/// order over one shared inverter table.
pub fn decompose_equation(
    net: &mut Network,
    inputs: &[SignalId],
    inverters: &mut [Option<SignalId>],
    name: &str,
    cover: &Cover,
    mut trace: Option<&mut DecompTrace>,
) -> SignalId {
    // One buffer for the cube roots (the OR tree) and one for a cube's
    // literals (its AND tree), reused by every cube.
    let mut cube_signals = Vec::with_capacity(cover.len());
    let mut literal_signals = Vec::new();
    let mut cube_exprs: Vec<Expr> = Vec::new();
    for cube in cover.cubes() {
        literal_signals.clear();
        let mut literal_exprs: Vec<Expr> = Vec::new();
        for (v, phase) in cube.literals() {
            let sig = inputs[v.index()];
            let sig = match phase {
                Phase::Pos => sig,
                Phase::Neg => match inverters[v.index()] {
                    Some(inv) => inv,
                    None => {
                        let inv = net.add_gate(GateOp::Inv, [sig]);
                        inverters[v.index()] = Some(inv);
                        if let Some(t) = trace.as_deref_mut() {
                            let lit = Expr::literal(v, Phase::Neg);
                            t.steps.push(RewriteStep {
                                rule: RewriteRule::InputInverter,
                                equation: name.to_owned(),
                                node: inv,
                                before: lit.clone(),
                                after: lit,
                            });
                        }
                        inv
                    }
                },
            };
            literal_signals.push(sig);
            if trace.is_some() {
                literal_exprs.push(Expr::literal(v, phase));
            }
        }
        let arity = literal_signals.len();
        let and_root = balanced_tree(net, GateOp::And, &mut literal_signals);
        if let Some(t) = trace.as_deref_mut() {
            let tree = balanced_tree_expr(literal_exprs.clone(), GateOp::And);
            if arity >= 2 {
                t.steps.push(RewriteStep {
                    rule: RewriteRule::AssocRegroup,
                    equation: name.to_owned(),
                    node: and_root,
                    before: Expr::And(literal_exprs),
                    after: tree.clone(),
                });
            }
            cube_exprs.push(tree);
        }
        cube_signals.push(and_root);
    }
    let n_cubes = cube_signals.len();
    let root = balanced_tree(net, GateOp::Or, &mut cube_signals);
    if let Some(t) = trace {
        let tree = balanced_tree_expr(cube_exprs.clone(), GateOp::Or);
        if n_cubes >= 2 {
            t.steps.push(RewriteStep {
                rule: RewriteRule::AssocRegroup,
                equation: name.to_owned(),
                node: root,
                before: Expr::Or(cube_exprs),
                after: tree.clone(),
            });
        }
        t.equations.push(EquationCert {
            name: name.to_owned(),
            root,
            source: Expr::from_cover(cover),
            result: tree,
        });
    }
    net.mark_output(name, root);
    root
}

/// Decomposes a single factored-form expression (over the primary inputs of
/// `net`-to-be) into base gates, following the expression tree exactly.
/// Returns the network and the root signal.
pub fn decompose_expr(inputs: &VarTable, expr: &Expr, output: &str) -> Network {
    let mut net = Network::new();
    let input_ids: Vec<SignalId> = inputs.iter().map(|(_, name)| net.add_input(name)).collect();
    let root = emit_expr(&mut net, &input_ids, expr);
    net.mark_output(output, root);
    net
}

fn emit_expr(net: &mut Network, inputs: &[SignalId], expr: &Expr) -> SignalId {
    match expr {
        Expr::Const(_) => panic!("cannot decompose a constant expression"),
        Expr::Var(v) => inputs[v.index()],
        Expr::Not(e) => {
            let inner = emit_expr(net, inputs, e);
            net.add_gate(GateOp::Inv, [inner])
        }
        Expr::And(es) => {
            let mut signals: Vec<SignalId> = es.iter().map(|e| emit_expr(net, inputs, e)).collect();
            balanced_tree(net, GateOp::And, &mut signals)
        }
        Expr::Or(es) => {
            let mut signals: Vec<SignalId> = es.iter().map(|e| emit_expr(net, inputs, e)).collect();
            balanced_tree(net, GateOp::Or, &mut signals)
        }
    }
}

/// Decomposes a single factored-form expression into base gates with
/// inverters only on primary inputs: every complement over a compound
/// subexpression is pushed to the leaves with DeMorgan's law (and double
/// negation elimination), and every n-ary operator is regrouped into a
/// balanced binary tree. Both laws are hazard-preserving (Unger), and each
/// application is recorded as a certificate step — this is the entry point
/// that exercises [`RewriteRule::DeMorganPush`].
///
/// Returns the network plus the certificate trail. Inverters are shared
/// per input, as in [`async_tech_decomp`].
///
/// # Panics
///
/// Panics if the expression is (or simplifies to) a constant.
pub fn decompose_expr_demorgan(
    inputs: &VarTable,
    expr: &Expr,
    output: &str,
) -> (Network, DecompTrace) {
    let mut net = Network::new();
    let input_ids: Vec<SignalId> = inputs.iter().map(|(_, name)| net.add_input(name)).collect();
    let mut trace = DecompTrace {
        nvars: inputs.len(),
        steps: Vec::new(),
        equations: Vec::new(),
    };
    let mut inverters = vec![None; inputs.len()];
    let (root, result) = emit_demorgan(
        &mut net,
        &input_ids,
        &mut inverters,
        &mut trace,
        output,
        expr,
        false,
    );
    trace.equations.push(EquationCert {
        name: output.to_owned(),
        root,
        source: expr.clone(),
        result: result.clone(),
    });
    net.mark_output(output, root);
    (net, trace)
}

/// Emits `expr` (complemented iff `negate`) as gates, pushing complements
/// to the leaves. Returns the root signal and the expression the emitted
/// tree realizes (`Not` only over `Var` leaves).
fn emit_demorgan(
    net: &mut Network,
    inputs: &[SignalId],
    inverters: &mut [Option<SignalId>],
    trace: &mut DecompTrace,
    equation: &str,
    expr: &Expr,
    negate: bool,
) -> (SignalId, Expr) {
    match expr {
        Expr::Const(_) => panic!("cannot decompose a constant expression"),
        Expr::Var(v) => {
            let sig = inputs[v.index()];
            if !negate {
                return (sig, Expr::Var(*v));
            }
            let lit = Expr::literal(*v, Phase::Neg);
            let inv = match inverters[v.index()] {
                Some(g) => g,
                None => {
                    let g = net.add_gate(GateOp::Inv, [sig]);
                    inverters[v.index()] = Some(g);
                    trace.steps.push(RewriteStep {
                        rule: RewriteRule::InputInverter,
                        equation: equation.to_owned(),
                        node: g,
                        before: lit.clone(),
                        after: lit.clone(),
                    });
                    g
                }
            };
            (inv, lit)
        }
        Expr::Not(inner) => {
            let (sig, realized) =
                emit_demorgan(net, inputs, inverters, trace, equation, inner, !negate);
            if negate {
                // (e')' = e: double negation elimination, the involution
                // half of the DeMorgan push.
                trace.steps.push(RewriteStep {
                    rule: RewriteRule::DeMorganPush,
                    equation: equation.to_owned(),
                    node: sig,
                    before: Expr::Not(Box::new(Expr::Not(inner.clone()))),
                    after: (**inner).clone(),
                });
            }
            (sig, realized)
        }
        Expr::And(es) | Expr::Or(es) => {
            let is_and = matches!(expr, Expr::And(_));
            if negate {
                // One DeMorgan push over this node: (x₁·…·xₖ)' → x₁'+…+xₖ'
                // (or the dual). Certified *before* recursing, so the step's
                // `after` is the one-level rewrite, not the fully pushed form.
                let pushed: Vec<Expr> = es.iter().map(|e| e.clone().not()).collect();
                let after = if is_and {
                    Expr::or(pushed)
                } else {
                    Expr::and(pushed)
                };
                let (sig, realized) =
                    emit_demorgan(net, inputs, inverters, trace, equation, &after, false);
                trace.steps.push(RewriteStep {
                    rule: RewriteRule::DeMorganPush,
                    equation: equation.to_owned(),
                    node: sig,
                    before: Expr::Not(Box::new(expr.clone())),
                    after,
                });
                return (sig, realized);
            }
            let mut signals = Vec::with_capacity(es.len());
            let mut realized = Vec::with_capacity(es.len());
            for e in es {
                let (s, r) = emit_demorgan(net, inputs, inverters, trace, equation, e, false);
                signals.push(s);
                realized.push(r);
            }
            let op = if is_and { GateOp::And } else { GateOp::Or };
            let arity = signals.len();
            let root = balanced_tree(net, op, &mut signals);
            let tree = balanced_tree_expr(realized.clone(), op);
            if arity >= 2 {
                trace.steps.push(RewriteStep {
                    rule: RewriteRule::AssocRegroup,
                    equation: equation.to_owned(),
                    node: root,
                    before: if is_and {
                        Expr::And(realized)
                    } else {
                        Expr::Or(realized)
                    },
                    after: tree.clone(),
                });
            }
            (root, tree)
        }
    }
}

/// Combines `signals` with a balanced tree of 2-input `op` gates (the
/// associative law, applied repeatedly): each level pairs its signals left
/// to right, an odd one out passing up. Each level is written over the
/// front of `signals` in place, which is left holding the root alone.
///
/// # Panics
///
/// Panics if `signals` is empty.
fn balanced_tree(net: &mut Network, op: GateOp, signals: &mut Vec<SignalId>) -> SignalId {
    assert!(!signals.is_empty(), "balanced_tree of zero signals");
    while signals.len() > 1 {
        let len = signals.len();
        for k in 0..len / 2 {
            signals[k] = net.add_gate(op, [signals[2 * k], signals[2 * k + 1]]);
        }
        if len % 2 == 1 {
            signals[len / 2] = signals[len - 1];
        }
        signals.truncate(len.div_ceil(2));
    }
    signals[0]
}

/// The expression-level mirror of [`balanced_tree`]: combines `exprs` with
/// the same pairing order, so the returned expression is exactly what the
/// emitted gate tree realizes. `op` must be [`GateOp::And`] or
/// [`GateOp::Or`].
fn balanced_tree_expr(mut exprs: Vec<Expr>, op: GateOp) -> Expr {
    assert!(!exprs.is_empty(), "balanced_tree_expr of zero expressions");
    let pair = |a: Expr, b: Expr| match op {
        GateOp::And => Expr::And(vec![a, b]),
        GateOp::Or => Expr::Or(vec![a, b]),
        _ => unreachable!("balanced trees are built from AND/OR only"),
    };
    while exprs.len() > 1 {
        let mut next = Vec::with_capacity(exprs.len().div_ceil(2));
        let mut iter = exprs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(pair(a, b)),
                None => next.push(a),
            }
        }
        exprs = next;
    }
    exprs.pop().expect("len checked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::Bits;

    fn figure3_eqs() -> EquationSet {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)])
    }

    #[test]
    fn async_decomp_preserves_function_and_cubes() {
        let eqs = figure3_eqs();
        let net = async_tech_decomp(&eqs);
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(net.eval_output("f", &bits), eqs.equations[0].1.eval(&bits));
        }
        // 3 cubes → 3 AND roots (ab, a'c, bc each 1 AND) + 2 OR + 1 INV.
        assert_eq!(net.num_gates(), 3 + 2 + 1);
    }

    #[test]
    fn sync_decomp_drops_redundant_cube() {
        let eqs = figure3_eqs();
        let async_net = async_tech_decomp(&eqs);
        let sync_net = sync_tech_decomp(&eqs);
        // bc is redundant: the sync decomposition loses one AND and one OR.
        assert!(sync_net.num_gates() < async_net.num_gates());
        // Function unchanged.
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(
                sync_net.eval_output("f", &bits),
                async_net.eval_output("f", &bits)
            );
        }
    }

    #[test]
    fn inverters_are_shared() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("a'b + a'b'", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
        let net = async_tech_decomp(&eqs);
        // One INV for a, one for b, 2 ANDs, 1 OR.
        assert_eq!(net.num_gates(), 2 + 2 + 1);
    }

    #[test]
    fn decompose_expr_follows_structure() {
        let inputs = VarTable::from_names(["w", "x", "y"]);
        let mut scratch = inputs.clone();
        let e = Expr::parse("(w + x')*(x + y)", &mut scratch).unwrap();
        let net = decompose_expr(&inputs, &e, "f");
        // Gates: INV(x), OR(w,x'), OR(x,y), AND → 4.
        assert_eq!(net.num_gates(), 4);
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(net.eval_output("f", &bits), e.eval(&bits));
        }
    }

    #[test]
    fn multi_output_networks() {
        let vars = VarTable::from_names(["a", "b"]);
        let f = Cover::parse("ab", &vars).unwrap();
        let g = Cover::parse("a + b", &vars).unwrap();
        let eqs = EquationSet::new(vars, vec![("f".to_owned(), f), ("g".to_owned(), g)]);
        let net = async_tech_decomp(&eqs);
        assert_eq!(net.outputs().len(), 2);
        let mut bits = Bits::new(2);
        bits.set(0, true);
        assert!(!net.eval_output("f", &bits));
        assert!(net.eval_output("g", &bits));
    }

    #[test]
    fn traced_decomp_matches_untraced_and_certifies_every_step() {
        let eqs = figure3_eqs();
        let untraced = async_tech_decomp(&eqs);
        let (net, trace) = async_tech_decomp_traced(&eqs);
        assert_eq!(net.num_gates(), untraced.num_gates());
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(
                net.eval_output("f", &bits),
                untraced.eval_output("f", &bits)
            );
        }
        // ab + a'c + bc: three 2-literal cubes (3 AND regroups), one OR
        // regroup over 3 cubes, one input inverter for a.
        let regroups = trace
            .steps
            .iter()
            .filter(|s| s.rule == RewriteRule::AssocRegroup)
            .count();
        let inverters = trace
            .steps
            .iter()
            .filter(|s| s.rule == RewriteRule::InputInverter)
            .count();
        assert_eq!(regroups, 4);
        assert_eq!(inverters, 1);
        assert_eq!(trace.equations.len(), 1);
        // The end-to-end certificate's result expression is what the
        // network computes.
        let cert = &trace.equations[0];
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(cert.result.eval(&bits), net.eval_output("f", &bits));
            assert_eq!(cert.source.eval(&bits), cert.result.eval(&bits));
        }
    }

    #[test]
    fn demorgan_decomposition_pushes_inverters_to_leaves() {
        let inputs = VarTable::from_names(["w", "x", "y"]);
        let mut scratch = inputs.clone();
        let e = Expr::parse("(w*x + y)'", &mut scratch).unwrap();
        let (net, trace) = decompose_expr_demorgan(&inputs, &e, "f");
        // Inverters only directly on primary inputs.
        for s in net.signals() {
            if let crate::NodeKind::Gate {
                op: GateOp::Inv,
                fanin,
            } = net.node(s)
            {
                assert!(
                    matches!(net.node(fanin[0]), crate::NodeKind::Input),
                    "inverter over a compound survived the DeMorgan push"
                );
            }
        }
        assert!(trace
            .steps
            .iter()
            .any(|s| s.rule == RewriteRule::DeMorganPush));
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(net.eval_output("f", &bits), e.eval(&bits));
        }
    }

    #[test]
    #[should_panic(expected = "is constant")]
    fn constant_equation_rejected() {
        let vars = VarTable::from_names(["a"]);
        let f = Cover::parse("a + a'", &vars).unwrap();
        EquationSet::new(vars, vec![("f".to_owned(), f)]);
    }
}
