//! Abstract syntax of Boolean factored form expressions.
//!
//! A BFF is the paper's carrier of *structure* (§3.2.1): two expressions for
//! the same function (e.g. `wy + xy'` vs `(w + y')(x + y)`) describe
//! different gate networks with different hazard behavior, so none of the
//! operations here rewrite an expression implicitly.

use asyncmap_cube::{Bits, Cover, Cube, Phase, VarId, VarTable};
use std::fmt;

/// A Boolean factored form expression.
///
/// `And`/`Or` are n-ary (the associative law is hazard-preserving, so
/// flattening nested same-operator nodes is safe and done by
/// [`Expr::simplify_assoc`], never implicitly).
///
/// # Examples
///
/// ```
/// use asyncmap_bff::Expr;
/// use asyncmap_cube::VarTable;
/// let mut vars = VarTable::new();
/// let e = Expr::parse("w*y + x*y'", &mut vars)?;
/// assert_eq!(e.num_literals(), 4);
/// # Ok::<(), asyncmap_bff::ParseBffError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A Boolean constant.
    Const(bool),
    /// A variable leaf.
    Var(VarId),
    /// Logical complement of a subexpression.
    Not(Box<Expr>),
    /// n-ary conjunction.
    And(Vec<Expr>),
    /// n-ary disjunction.
    Or(Vec<Expr>),
}

impl Expr {
    /// A literal leaf: the variable, complemented for [`Phase::Neg`].
    pub fn literal(v: VarId, phase: Phase) -> Expr {
        match phase {
            Phase::Pos => Expr::Var(v),
            Phase::Neg => Expr::Not(Box::new(Expr::Var(v))),
        }
    }

    /// Conjunction of the given subexpressions (flattening trivial cases).
    pub fn and(mut terms: Vec<Expr>) -> Expr {
        match terms.len() {
            0 => Expr::Const(true),
            1 => terms.pop().expect("len checked"),
            _ => Expr::And(terms),
        }
    }

    /// Disjunction of the given subexpressions (flattening trivial cases).
    pub fn or(mut terms: Vec<Expr>) -> Expr {
        match terms.len() {
            0 => Expr::Const(false),
            1 => terms.pop().expect("len checked"),
            _ => Expr::Or(terms),
        }
    }

    /// Complement of `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Builds a two-level expression (OR of ANDs) from an SOP cover.
    ///
    /// The cube list order and every cube (including redundant ones) are
    /// preserved, so the expression has exactly the hazard behavior of the
    /// two-level AND–OR circuit the cover denotes.
    pub fn from_cover(cover: &Cover) -> Expr {
        let terms: Vec<Expr> = cover
            .cubes()
            .iter()
            .map(|c| Expr::and(c.literals().map(|(v, p)| Expr::literal(v, p)).collect()))
            .collect();
        Expr::or(terms)
    }

    /// Number of variable leaves (literal count). For a complementary CMOS
    /// complex gate this is the transistor count of the pulldown network —
    /// the paper's Table 3 area unit.
    pub fn num_literals(&self) -> u32 {
        match self {
            Expr::Const(_) => 0,
            Expr::Var(_) => 1,
            Expr::Not(e) => e.num_literals(),
            Expr::And(es) | Expr::Or(es) => es.iter().map(Expr::num_literals).sum(),
        }
    }

    /// Nesting depth of gate operators (a bare literal has depth 0; an
    /// inverter on a leaf counts as depth 1).
    pub fn depth(&self) -> u32 {
        match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Not(e) => 1 + e.depth(),
            Expr::And(es) | Expr::Or(es) => 1 + es.iter().map(Expr::depth).max().unwrap_or(0),
        }
    }

    /// The set of variables appearing in the expression, in increasing
    /// index order.
    pub fn support(&self) -> Vec<VarId> {
        let mut seen = std::collections::BTreeSet::new();
        self.visit_vars(&mut |v| {
            seen.insert(v);
        });
        seen.into_iter().collect()
    }

    /// `true` if every variable occurs at most once — a read-once
    /// (fanout-free) formula. Decided in one pass over the tree.
    ///
    /// A read-once structure has no logic hazards: every hazard the
    /// eight-valued waveform algebra finds on it is a function hazard
    /// (the read-once lemma, DESIGN.md §8).
    pub fn is_read_once(&self) -> bool {
        let mut seen: Vec<bool> = Vec::new();
        let mut repeated = false;
        self.visit_vars(&mut |v| {
            let i = v.index();
            if i >= seen.len() {
                seen.resize(i + 1, false);
            }
            repeated |= std::mem::replace(&mut seen[i], true);
        });
        !repeated
    }

    fn visit_vars(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Not(e) => e.visit_vars(f),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.visit_vars(f);
                }
            }
        }
    }

    /// Evaluates the expression at a full assignment.
    pub fn eval(&self, assignment: &Bits) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(v) => assignment.get(v.index()),
            Expr::Not(e) => !e.eval(assignment),
            Expr::And(es) => es.iter().all(|e| e.eval(assignment)),
            Expr::Or(es) => es.iter().any(|e| e.eval(assignment)),
        }
    }

    /// Rewrites every variable leaf through `map`, which supplies the
    /// replacement variable and a phase (a [`Phase::Neg`] replacement
    /// inserts an inverter at the leaf).
    ///
    /// Used to instantiate a library cell's BFF onto the signals of a
    /// matched subnetwork.
    pub fn substitute(&self, map: &impl Fn(VarId) -> (VarId, Phase)) -> Expr {
        match self {
            Expr::Const(b) => Expr::Const(*b),
            Expr::Var(v) => {
                let (nv, phase) = map(*v);
                Expr::literal(nv, phase)
            }
            Expr::Not(e) => e.substitute(map).not(),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.substitute(map)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.substitute(map)).collect()),
        }
    }

    /// Replaces variable `i` with `args[i]`: a cell's BFF applied to the
    /// expressions on its pins (positive-phase pin substitution).
    ///
    /// # Panics
    ///
    /// Panics if a variable has no entry in `args`.
    pub fn compose(&self, args: &[Expr]) -> Expr {
        match self {
            Expr::Const(b) => Expr::Const(*b),
            Expr::Var(v) => args[v.index()].clone(),
            Expr::Not(e) => e.compose(args).not(),
            Expr::And(es) => Expr::and(es.iter().map(|e| e.compose(args)).collect()),
            Expr::Or(es) => Expr::or(es.iter().map(|e| e.compose(args)).collect()),
        }
    }

    /// Negation-normal form: pushes every inverter to the leaves using only
    /// DeMorgan's law and double-negation elimination — both
    /// hazard-preserving transformations (Unger; paper §3.1.1).
    pub fn to_nnf(&self) -> Expr {
        self.nnf_rec(false)
    }

    fn nnf_rec(&self, negate: bool) -> Expr {
        match self {
            Expr::Const(b) => Expr::Const(*b != negate),
            Expr::Var(v) => {
                if negate {
                    Expr::literal(*v, Phase::Neg)
                } else {
                    Expr::Var(*v)
                }
            }
            Expr::Not(e) => e.nnf_rec(!negate),
            Expr::And(es) => {
                let parts: Vec<Expr> = es.iter().map(|e| e.nnf_rec(negate)).collect();
                if negate {
                    Expr::or(parts)
                } else {
                    Expr::and(parts)
                }
            }
            Expr::Or(es) => {
                let parts: Vec<Expr> = es.iter().map(|e| e.nnf_rec(negate)).collect();
                if negate {
                    Expr::and(parts)
                } else {
                    Expr::or(parts)
                }
            }
        }
    }

    /// Flattens directly nested same-operator nodes (the associative law —
    /// hazard-preserving) and removes constant identities. The gate
    /// *structure across operator alternations* is untouched.
    pub fn simplify_assoc(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Not(e) => {
                let inner = e.simplify_assoc();
                match inner {
                    Expr::Const(b) => Expr::Const(!b),
                    Expr::Not(inner2) => *inner2,
                    other => other.not(),
                }
            }
            Expr::And(es) => {
                let mut parts = Vec::new();
                for e in es {
                    match e.simplify_assoc() {
                        Expr::Const(true) => {}
                        Expr::Const(false) => return Expr::Const(false),
                        Expr::And(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                Expr::and(parts)
            }
            Expr::Or(es) => {
                let mut parts = Vec::new();
                for e in es {
                    match e.simplify_assoc() {
                        Expr::Const(false) => {}
                        Expr::Const(true) => return Expr::Const(true),
                        Expr::Or(inner) => parts.extend(inner),
                        other => parts.push(other),
                    }
                }
                Expr::or(parts)
            }
        }
    }

    /// `true` if the expression is a pure two-level OR-of-ANDs (or simpler)
    /// with inverters only at leaves.
    pub fn is_sop_shaped(&self) -> bool {
        fn is_literal(e: &Expr) -> bool {
            matches!(e, Expr::Var(_))
                || matches!(e, Expr::Not(inner) if matches!(**inner, Expr::Var(_)))
        }
        fn is_product(e: &Expr) -> bool {
            is_literal(e) || matches!(e, Expr::And(es) if es.iter().all(is_literal))
        }
        match self {
            Expr::Const(_) => true,
            Expr::Or(es) => es.iter().all(is_product),
            other => is_product(other),
        }
    }

    /// Renders the expression with names from `vars`; complements print as
    /// postfix `'`, conjunction as `*`.
    pub fn display<'a>(&'a self, vars: &'a VarTable) -> DisplayExpr<'a> {
        DisplayExpr { expr: self, vars }
    }
}

/// Helper returned by [`Expr::display`].
#[derive(Debug)]
pub struct DisplayExpr<'a> {
    expr: &'a Expr,
    vars: &'a VarTable,
}

impl DisplayExpr<'_> {
    fn fmt_prec(&self, e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: Or = 0, And = 1, Not/leaf = 2.
        match e {
            Expr::Const(b) => write!(f, "{}", u8::from(*b)),
            Expr::Var(v) => write!(f, "{}", self.vars.name(*v)),
            Expr::Not(inner) => {
                if matches!(**inner, Expr::Var(_)) {
                    self.fmt_prec(inner, 2, f)?;
                } else {
                    write!(f, "(")?;
                    self.fmt_prec(inner, 0, f)?;
                    write!(f, ")")?;
                }
                write!(f, "'")
            }
            Expr::And(es) => {
                let need = parent > 1;
                if need {
                    write!(f, "(")?;
                }
                for (i, t) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    self.fmt_prec(t, 2, f)?;
                }
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Or(es) => {
                let need = parent > 0;
                if need {
                    write!(f, "(")?;
                }
                for (i, t) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    self.fmt_prec(t, 1, f)?;
                }
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(self.expr, 0, f)
    }
}

/// Converts a cube to the corresponding AND-of-literals expression.
impl From<&Cube> for Expr {
    fn from(cube: &Cube) -> Expr {
        Expr::and(cube.literals().map(|(v, p)| Expr::literal(v, p)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str, vars: &mut VarTable) -> Expr {
        Expr::parse(text, vars).unwrap()
    }

    #[test]
    fn literal_count_and_depth() {
        let mut vars = VarTable::new();
        let e = parse("(w + y')*(x + y)", &mut vars);
        assert_eq!(e.num_literals(), 4);
        // Or (1) under And (1) with the leaf inverter y' adding one more.
        assert_eq!(e.depth(), 3);
        let lit = parse("a'", &mut vars);
        assert_eq!(lit.depth(), 1);
        assert_eq!(lit.num_literals(), 1);
    }

    #[test]
    fn eval_mux() {
        let mut vars = VarTable::new();
        let e = parse("s*a + s'*b", &mut vars);
        let mut bits = Bits::new(3);
        bits.set(0, true); // s
        bits.set(1, true); // a
        assert!(e.eval(&bits));
        bits.set(0, false);
        assert!(!e.eval(&bits)); // b = 0
        bits.set(2, true);
        assert!(e.eval(&bits));
    }

    #[test]
    fn nnf_pushes_inverters() {
        let mut vars = VarTable::new();
        let e = parse("(a + b*c)'", &mut vars);
        let nnf = e.to_nnf();
        // (a + bc)' = a'(b' + c')
        let want = parse("a' * (b' + c')", &mut vars);
        assert_eq!(nnf, want);
        // NNF preserves the function.
        for m in 0..8usize {
            let mut bits = Bits::new(3);
            for v in 0..3 {
                bits.set(v, (m >> v) & 1 == 1);
            }
            assert_eq!(e.eval(&bits), nnf.eval(&bits));
        }
    }

    #[test]
    fn simplify_assoc_flattens() {
        let a = Expr::Var(VarId(0));
        let b = Expr::Var(VarId(1));
        let c = Expr::Var(VarId(2));
        let nested = Expr::And(vec![a.clone(), Expr::And(vec![b.clone(), c.clone()])]);
        assert_eq!(nested.simplify_assoc(), Expr::And(vec![a, b, c]));
    }

    #[test]
    fn simplify_assoc_handles_constants() {
        let a = Expr::Var(VarId(0));
        let t = Expr::And(vec![a.clone(), Expr::Const(true)]);
        assert_eq!(t.simplify_assoc(), a.clone());
        let z = Expr::And(vec![a.clone(), Expr::Const(false)]);
        assert_eq!(z.simplify_assoc(), Expr::Const(false));
        let dn = a.clone().not().not();
        assert_eq!(dn.simplify_assoc(), a);
    }

    #[test]
    fn from_cover_is_sop_shaped() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let e = Expr::from_cover(&f);
        assert!(e.is_sop_shaped());
        assert_eq!(e.num_literals(), 6);
        assert_eq!(e.display(&vars).to_string(), "a*b + a'*c + b*c");
    }

    #[test]
    fn factored_form_is_not_sop_shaped() {
        let mut vars = VarTable::new();
        let e = parse("(w + y')*(x + y)", &mut vars);
        assert!(!e.is_sop_shaped());
    }

    #[test]
    fn substitute_remaps_and_flips() {
        let mut vars = VarTable::new();
        let e = parse("a*b", &mut vars);
        let sub = e.substitute(&|v| (VarId(v.index() + 2), Phase::Neg));
        let mut vars2 = VarTable::from_names(["a", "b", "c", "d"]);
        let want = parse("c'*d'", &mut vars2);
        assert_eq!(sub, want);
    }

    #[test]
    fn read_once_means_no_repeated_variable() {
        let mut vars = VarTable::new();
        assert!(parse("((a*b + c)*(d + e'))'", &mut vars).is_read_once());
        assert!(parse("a*0 + 1", &mut vars).is_read_once());
        assert!(!parse("s*a + s'*b", &mut vars).is_read_once());
        assert!(!parse("(a + b)*(a + c)", &mut vars).is_read_once());
    }

    #[test]
    fn support_is_sorted_unique() {
        let mut vars = VarTable::new();
        let e = parse("b*a + a'*b", &mut vars);
        // interning order: b=0, a=1
        assert_eq!(e.support(), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn display_parenthesizes_correctly() {
        let mut vars = VarTable::new();
        let e = parse("(a + b)*c'", &mut vars);
        let text = e.display(&vars).to_string();
        assert_eq!(text, "(a + b)*c'");
        // Round-trip.
        let mut vars2 = VarTable::from_names(["a", "b", "c"]);
        assert_eq!(Expr::parse(&text, &mut vars2).unwrap(), e);
    }
}
