//! Independent functional-equivalence proofs and support compaction for
//! certificate replay.
//!
//! The packed truth-table evaluator here is deliberately *not* shared with
//! `asyncmap_core::truth` (the mapper's kernel): the audit re-proves
//! equivalence with its own code so a bug in the mapper's fast paths
//! cannot vouch for itself. Supports of up to [`TRUTH_VAR_LIMIT`]
//! variables are decided by 256-bit packed tables; anything wider falls
//! back to BDDs from `asyncmap-bdd`.

use asyncmap_bdd::{with_thread_manager, Manager, Ref};
use asyncmap_bff::Expr;
use asyncmap_cube::{Phase, VarId};

/// Largest support decided by packed truth tables; wider supports use the
/// BDD fallback.
pub const TRUTH_VAR_LIMIT: usize = 8;

/// Which engine discharged an equivalence proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivProof {
    /// 256-bit packed truth tables over the compacted support.
    Truth,
    /// BDD equality over the full variable space.
    Bdd,
}

/// Bit patterns of variables 0–5 within one 64-bit truth-table word.
const WORD_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One 64-bit word (index `w` of 4) of the 8-variable packed truth table
/// of `expr`. Variables 6 and 7 select the word, so an expression over at
/// most 8 compacted variables is fully described by words 0..4.
fn truth_word(expr: &Expr, w: usize) -> u64 {
    match expr {
        Expr::Const(true) => !0,
        Expr::Const(false) => 0,
        Expr::Var(v) => {
            let i = v.index();
            if i < 6 {
                WORD_MASKS[i]
            } else if (w >> (i - 6)) & 1 == 1 {
                !0
            } else {
                0
            }
        }
        Expr::Not(e) => !truth_word(e, w),
        Expr::And(es) => es.iter().fold(!0u64, |acc, e| acc & truth_word(e, w)),
        Expr::Or(es) => es.iter().fold(0u64, |acc, e| acc | truth_word(e, w)),
    }
}

/// The full 256-bit packed truth table of `expr`, which must mention only
/// variables `0..8`.
pub fn truth256(expr: &Expr) -> [u64; 4] {
    [0, 1, 2, 3].map(|w| truth_word(expr, w))
}

fn bdd_of(mgr: &mut Manager, expr: &Expr) -> Ref {
    match expr {
        Expr::Const(true) => Ref::ONE,
        Expr::Const(false) => Ref::ZERO,
        Expr::Var(v) => mgr.var(*v),
        Expr::Not(e) => {
            let inner = bdd_of(mgr, e);
            mgr.not(inner)
        }
        Expr::And(es) => {
            let mut acc = Ref::ONE;
            for e in es {
                let r = bdd_of(mgr, e);
                acc = mgr.and(acc, r);
            }
            acc
        }
        Expr::Or(es) => {
            let mut acc = Ref::ZERO;
            for e in es {
                let r = bdd_of(mgr, e);
                acc = mgr.or(acc, r);
            }
            acc
        }
    }
}

/// The union of the two expressions' supports, sorted.
pub fn union_support(a: &Expr, b: &Expr) -> Vec<VarId> {
    let mut s = a.support();
    s.extend(b.support());
    s.sort();
    s.dedup();
    s
}

/// Remaps `expr` onto the compact space where `support[i]` becomes
/// variable `i`. Every variable of `expr` must appear in `support`.
pub fn compact_onto(expr: &Expr, support: &[VarId]) -> Expr {
    expr.substitute(&|v| {
        let pos = support
            .binary_search(&v)
            .expect("expression variable missing from support");
        (VarId(pos), Phase::Pos)
    })
}

/// Proves or refutes `a ≡ b` over an `nvars`-variable space: packed truth
/// tables over the compacted shared support when it has at most
/// [`TRUTH_VAR_LIMIT`] variables, BDDs otherwise.
pub fn prove_equal(a: &Expr, b: &Expr, nvars: usize) -> (bool, EquivProof) {
    let [proof] = prove_equal_each(a, [b], nvars);
    proof
}

/// [`prove_equal`] of `a` against each of `bs`, building `a`'s BDD at most
/// once (on this thread's reused manager).
pub(crate) fn prove_equal_each<const N: usize>(
    a: &Expr,
    bs: [&Expr; N],
    nvars: usize,
) -> [(bool, EquivProof); N] {
    with_thread_manager(nvars, |mgr| {
        let mut ra = None;
        bs.map(|b| {
            let support = union_support(a, b);
            if support.len() <= TRUTH_VAR_LIMIT {
                let ca = compact_onto(a, &support);
                let cb = compact_onto(b, &support);
                return (truth256(&ca) == truth256(&cb), EquivProof::Truth);
            }
            let ra = *ra.get_or_insert_with(|| bdd_of(mgr, a));
            (ra == bdd_of(mgr, b), EquivProof::Bdd)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::{Bits, VarTable};

    fn exprs(a: &str, b: &str) -> (Expr, Expr, usize) {
        let mut vars = VarTable::new();
        let ea = Expr::parse(a, &mut vars).unwrap();
        let eb = Expr::parse_in(b, &vars).unwrap();
        (ea, eb, vars.len())
    }

    #[test]
    fn truth_table_agrees_with_eval() {
        let mut vars = VarTable::new();
        let e = Expr::parse("(a + b')*(c + a*d) + b*c'", &mut vars).unwrap();
        let t = truth256(&e);
        for m in 0..(1usize << vars.len()) {
            let mut bits = Bits::new(8);
            for v in 0..vars.len() {
                bits.set(v, (m >> v) & 1 == 1);
            }
            let got = (t[m >> 6] >> (m & 63)) & 1 == 1;
            assert_eq!(got, e.eval(&bits), "minterm {m}");
        }
    }

    #[test]
    fn equivalent_forms_prove_equal() {
        let (a, b, n) = exprs("(w + y')*(x + y)", "w*x + w*y + y'*x + y'*y");
        let (eq, proof) = prove_equal(&a, &b, n);
        assert!(eq);
        assert_eq!(proof, EquivProof::Truth);
    }

    #[test]
    fn different_functions_refuted() {
        let (a, b, n) = exprs("a*b + c", "a*b + c*a");
        assert!(!prove_equal(&a, &b, n).0);
    }

    #[test]
    fn wide_supports_fall_back_to_bdds() {
        let names: Vec<String> = (0..12).map(|i| format!("v{i}")).collect();
        let vars = VarTable::from_names(names.iter().map(String::as_str));
        let terms: Vec<Expr> = (0..12).map(|i| Expr::Var(VarId(i))).collect();
        let a = Expr::Or(terms.clone());
        let mut rev = terms;
        rev.reverse();
        let b = Expr::Or(rev);
        let (eq, proof) = prove_equal(&a, &b, vars.len());
        assert!(eq);
        assert_eq!(proof, EquivProof::Bdd);
        let c = Expr::And(vec![Expr::Var(VarId(0)), Expr::Var(VarId(11))]);
        assert!(!prove_equal(&a, &c, vars.len()).0);
    }

    #[test]
    fn compaction_is_order_preserving() {
        let mut vars = VarTable::new();
        for name in ["p", "q", "r", "s", "t", "u", "v", "w", "x", "y"] {
            vars.intern(name);
        }
        let a = Expr::And(vec![Expr::Var(VarId(8)), Expr::Var(VarId(9)).not()]);
        let b = Expr::And(vec![Expr::Var(VarId(8)), Expr::Var(VarId(9)).not()]);
        let (eq, proof) = prove_equal(&a, &b, vars.len());
        assert!(eq);
        assert_eq!(
            proof,
            EquivProof::Truth,
            "support {{8,9}} compacts to 2 vars"
        );
    }
}
