//! The verdict store behind the `_cached` audit entry points.
//!
//! Keys are exact: an injective preorder byte encoding of everything an
//! obligation depends on, built in one reusable buffer and probed as
//! `&[u8]`, so a warm lookup allocates nothing. A verdict is the
//! obligation's info notes (without paths) and the partial hazard
//! re-checks they report; replaying it re-emits the notes under the
//! current obligation's path. An equation audit's verdict is the whole
//! share one equation adds to a report (see [`crate::equation`]).

use std::collections::HashMap;

use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Phase};
use asyncmap_network::RewriteRule;

use crate::equation::EquationVerdict;
use crate::report::{AuditReport, Severity};

/// Reuse cache for [`audit_equations_cached`](crate::audit_equations_cached).
///
/// The expensive audit obligations — equivalence proofs, hazard-
/// monotonicity ladders, flatten replays — are pure functions of the
/// certified *expressions*, never of the network or design they came
/// from. The cache remembers every such obligation that replayed with
/// **zero findings**, keyed by an exact byte encoding of its full inputs:
/// `(nvars, rule, before, after)` for a rewrite step,
/// `(nvars, source, result)` for an equation certificate and
/// `(leaf count, cone expression)` for a flatten. Its info notes are
/// stored without their paths. An identical obligation in a later audit
/// is discharged by reference — counted in the `reused_*` counters of
/// [`AuditCounters`](crate::AuditCounters) — and its notes are re-emitted
/// under the new obligation's path, together with the partial hazard
/// re-checks they report, so the warm report lists exactly the
/// diagnostics a cold one would. Obligations that produced a finding are
/// never stored.
///
/// One more kind of entry, the **equation audit**, discharges a whole
/// unchanged equation in one lookup. Its key is the exact encoding of
/// `nvars`, the equation's name, its cover (cube order and literal order
/// included) and its inverter context: for each input the equation uses
/// negated, whether it emits that input's inverter (it is the first
/// user) and whether that inverter is a cone root of the whole design
/// (fanout ≥ 2, or itself an output). The context is read off all the
/// covers in one pass, with no decomposition. Its value is everything the
/// equation adds to a report when each of its step, certificate and
/// flatten obligations is discharged by reference: the counters, and the
/// notes with their step index and cone root relative to the equation, so
/// a replay names the same paths as a whole-design run.
///
/// Trust. The design-level checks run on every call: output names must
/// be distinct, every cover must fit the decomposition, and each
/// inverter the covers show to be a cone root (by its fanout or output
/// evidence) gets its cone and flatten obligation. An edited equation is
/// decomposed alone in its whole-design context and audited by the same
/// step-level checks, which bind its certificates to the gates it
/// produced; its gate and step counts must be the ones the context
/// predicts, and its cone must match an independent re-walk. If any
/// finding appears, the audit falls back to the whole-network step-level
/// path, so findings and their paths are exactly a cold audit's. A warm
/// cache
/// therefore rests on "this exact obligation was discharged before" and
/// on exactly one further assumption: the front end's output for an
/// equation — its gates, steps, certificate and cone — is a function of
/// its equation-audit key. A differential test (`equation::tests`)
/// holds the code to it.
#[derive(Debug, Clone, Default)]
pub struct AuditCache {
    verdicts: HashMap<Box<[u8]>, Entry>,
    /// Reusable key buffer.
    key: Vec<u8>,
}

/// A stored verdict, by obligation kind.
#[derive(Debug, Clone)]
enum Entry {
    /// A step, certificate or flatten obligation.
    Obligation(Verdict),
    /// An equation audit.
    Equation(Box<EquationVerdict>),
}

/// What replaying a stored obligation adds back to a report.
#[derive(Debug, Clone)]
struct Verdict {
    /// `(code, message)` of each info note, in emission order.
    notes: Box<[(&'static str, String)]>,
    /// Partial hazard re-checks the notes report.
    hazard_partial: usize,
}

/// An expression-pure audit obligation, as the cache keys it.
pub(crate) enum Obligation<'a> {
    /// A rewrite step's equivalence and monotonicity proofs.
    Step {
        nvars: usize,
        rule: RewriteRule,
        before: &'a Expr,
        after: &'a Expr,
    },
    /// An equation certificate's equivalence and monotonicity proofs.
    Equation {
        nvars: usize,
        source: &'a Expr,
        result: &'a Expr,
    },
    /// A cone's flatten replay.
    Flatten { leaves: usize, expr: &'a Expr },
    /// One equation's whole share of a design audit. `inverters` holds
    /// one byte per input the cover uses negated, in first-use order: bit
    /// 0 set iff the equation emits that input's inverter, bit 1 iff the
    /// inverter is a cone root of the whole design.
    EquationAudit {
        nvars: usize,
        name: &'a str,
        cover: &'a Cover,
        inverters: &'a [u8],
    },
}

impl Obligation<'_> {
    /// Appends the exact key to `out`. A kind byte leads and every later
    /// field is self-delimiting, so distinct obligations never share a
    /// key.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Obligation::Step {
                nvars,
                rule,
                before,
                after,
            } => {
                out.push(0);
                put_varint(out, nvars as u64);
                out.push(match rule {
                    RewriteRule::AssocRegroup => 0,
                    RewriteRule::DeMorganPush => 1,
                    RewriteRule::InputInverter => 2,
                });
                encode_expr(before, out);
                encode_expr(after, out);
            }
            Obligation::Equation {
                nvars,
                source,
                result,
            } => {
                out.push(1);
                put_varint(out, nvars as u64);
                encode_expr(source, out);
                encode_expr(result, out);
            }
            Obligation::Flatten { leaves, expr } => {
                out.push(2);
                put_varint(out, leaves as u64);
                encode_expr(expr, out);
            }
            Obligation::EquationAudit {
                nvars,
                name,
                cover,
                inverters,
            } => {
                out.push(3);
                put_varint(out, nvars as u64);
                put_varint(out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                put_varint(out, cover.len() as u64);
                for cube in cover.cubes() {
                    put_varint(out, u64::from(cube.num_literals()));
                    for (v, phase) in cube.literals() {
                        put_varint(
                            out,
                            (v.index() as u64) << 1 | u64::from(phase == Phase::Neg),
                        );
                    }
                }
                put_varint(out, inverters.len() as u64);
                out.extend_from_slice(inverters);
            }
        }
    }
}

/// A report's size before an obligation ran, so the verdict it adds can
/// be told apart afterwards.
pub(crate) struct Mark {
    findings: usize,
    notes: usize,
    hazard_partial: usize,
}

impl Mark {
    pub(crate) fn of(report: &AuditReport) -> Self {
        Mark {
            findings: report.findings.len(),
            notes: report.notes.len(),
            hazard_partial: report.counters.hazard_partial,
        }
    }
}

impl AuditCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total verdicts remembered (steps + equation certificates +
    /// flattens + equation audits).
    pub fn entries(&self) -> usize {
        self.verdicts.len()
    }

    /// Discharges `ob` by reference if an identical obligation was stored:
    /// re-emits its notes under `path()` (built only when there is one),
    /// adds back its partial hazard count, bumps the matching `reused_*`
    /// counter and returns `true`.
    pub(crate) fn replay(
        &mut self,
        ob: &Obligation,
        report: &mut AuditReport,
        path: impl Fn() -> String,
    ) -> bool {
        self.key.clear();
        ob.encode(&mut self.key);
        let Some(Entry::Obligation(verdict)) = self.verdicts.get(self.key.as_slice()) else {
            return false;
        };
        for (code, message) in verdict.notes.iter() {
            report.push(Severity::Info, code, path(), message.clone());
        }
        let k = &mut report.counters;
        k.hazard_partial += verdict.hazard_partial;
        match ob {
            Obligation::Step { .. } => k.reused_steps += 1,
            Obligation::Equation { .. } => k.reused_equations += 1,
            Obligation::Flatten { .. } => k.reused_flattens += 1,
            Obligation::EquationAudit { .. } => unreachable!("equation audits replay as a whole"),
        }
        true
    }

    /// Stores the verdict `ob` added to `report` since `mark`, unless it
    /// added a finding.
    pub(crate) fn record(&mut self, ob: &Obligation, report: &AuditReport, mark: Mark) {
        if report.findings.len() != mark.findings {
            return;
        }
        let notes: Box<[_]> = report.notes[mark.notes..]
            .iter()
            .map(|n| (n.code, n.message.clone()))
            .collect();
        // A quiet verdict replays no hazard count, like any discharge by
        // reference; a noted one replays the partial re-checks its notes
        // report, as re-running it would count them.
        let hazard_partial = if notes.is_empty() {
            0
        } else {
            report.counters.hazard_partial - mark.hazard_partial
        };
        self.key.clear();
        ob.encode(&mut self.key);
        self.verdicts.insert(
            self.key.as_slice().into(),
            Entry::Obligation(Verdict {
                notes,
                hazard_partial,
            }),
        );
    }

    /// The equation audit stored under `key`, an
    /// [`Obligation::EquationAudit`] encoding.
    pub(crate) fn equation(&self, key: &[u8]) -> Option<&EquationVerdict> {
        match self.verdicts.get(key) {
            Some(Entry::Equation(verdict)) => Some(verdict),
            _ => None,
        }
    }

    /// Stores an equation audit under `key`.
    pub(crate) fn record_equation(&mut self, key: &[u8], verdict: EquationVerdict) {
        self.verdicts
            .insert(key.into(), Entry::Equation(Box::new(verdict)));
    }
}

const CONST_FALSE: u8 = 0;
const CONST_TRUE: u8 = 1;
const VAR: u8 = 2;
const NOT: u8 = 3;
const AND: u8 = 4;
const OR: u8 = 5;

/// LEB128: seven bits per byte, high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends the preorder encoding of `e`: one tag byte per node, a varint
/// variable id after `VAR` and a varint operand count after `AND`/`OR`.
/// The encoding is prefix-free, so it is injective and concatenations of
/// encodings stay injective.
fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    match e {
        Expr::Const(false) => out.push(CONST_FALSE),
        Expr::Const(true) => out.push(CONST_TRUE),
        Expr::Var(v) => {
            out.push(VAR);
            put_varint(out, v.index() as u64);
        }
        Expr::Not(inner) => {
            out.push(NOT);
            encode_expr(inner, out);
        }
        Expr::And(es) | Expr::Or(es) => {
            out.push(if matches!(e, Expr::And(_)) { AND } else { OR });
            put_varint(out, es.len() as u64);
            for e in es {
                encode_expr(e, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarId;
    use proptest::prelude::*;

    fn get_varint(bytes: &mut &[u8]) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let (&b, rest) = bytes.split_first()?;
            *bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Inverse of [`encode_expr`] on one encoding at the front of `bytes`.
    fn decode_expr(bytes: &mut &[u8]) -> Option<Expr> {
        let (&tag, rest) = bytes.split_first()?;
        *bytes = rest;
        Some(match tag {
            CONST_FALSE => Expr::Const(false),
            CONST_TRUE => Expr::Const(true),
            VAR => Expr::Var(VarId(usize::try_from(get_varint(bytes)?).ok()?)),
            NOT => decode_expr(bytes)?.not(),
            AND | OR => {
                let n = get_varint(bytes)?;
                let es = (0..n)
                    .map(|_| decode_expr(bytes))
                    .collect::<Option<Vec<_>>>()?;
                if tag == AND {
                    Expr::And(es)
                } else {
                    Expr::Or(es)
                }
            }
            _ => return None,
        })
    }

    fn enc(e: &Expr) -> Vec<u8> {
        let mut out = Vec::new();
        encode_expr(e, &mut out);
        out
    }

    fn var(i: usize) -> Expr {
        Expr::Var(VarId(i))
    }

    /// Random expressions over a few small and a few very large variable
    /// ids, including degenerate one-operand and empty AND/OR nodes.
    fn arb_expr() -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            any::<bool>().prop_map(Expr::Const),
            (0usize..4).prop_map(var),
            (0usize..3).prop_map(|i| var(usize::MAX - i)),
            (0usize..3).prop_map(|i| var(127 + i)),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(Expr::not),
                prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::And),
                prop::collection::vec(inner, 0..4).prop_map(Expr::Or),
            ]
        })
    }

    #[test]
    fn encoding_separates_near_misses() {
        let (x, y, z) = (var(0), var(1), var(2));
        let distinct = [
            (
                Expr::And(vec![Expr::And(vec![x.clone(), y.clone()]), z.clone()]),
                Expr::And(vec![x.clone(), Expr::And(vec![y.clone(), z.clone()])]),
            ),
            (Expr::And(vec![x.clone()]), x.clone()),
            (Expr::And(vec![x.clone()]), Expr::Or(vec![x.clone()])),
            (Expr::Const(false), var(0)),
            (Expr::Const(true), var(1)),
            (var(1 << 40), var(0)),
            (var(usize::MAX), var(usize::MAX - 1)),
            (Expr::And(vec![]), Expr::Const(true)),
            (x.clone().not().not(), x.clone()),
        ];
        for (a, b) in distinct {
            assert_ne!(enc(&a), enc(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn obligation_keys_separate_kinds_and_fields() {
        let (x, y) = (var(0), var(1));
        // A cover, its cubes swapped, and one of its cubes alone: names,
        // cube order, cubes and inverter context all enter an
        // equation-audit key.
        let vars = asyncmap_cube::VarTable::from_names(["a", "b"]);
        let ab = Cover::parse("a'b + a", &vars).unwrap();
        let ba = Cover::parse("a + a'b", &vars).unwrap();
        let a_b = Cover::parse("a'b", &vars).unwrap();
        let keys = [
            Obligation::Step {
                nvars: 2,
                rule: RewriteRule::AssocRegroup,
                before: &x,
                after: &y,
            },
            Obligation::Step {
                nvars: 2,
                rule: RewriteRule::DeMorganPush,
                before: &x,
                after: &y,
            },
            Obligation::Step {
                nvars: 3,
                rule: RewriteRule::AssocRegroup,
                before: &x,
                after: &y,
            },
            Obligation::Equation {
                nvars: 2,
                source: &x,
                result: &y,
            },
            Obligation::Equation {
                nvars: 2,
                source: &y,
                result: &x,
            },
            Obligation::Flatten {
                leaves: 2,
                expr: &x,
            },
            Obligation::Flatten {
                leaves: 1,
                expr: &x,
            },
            Obligation::EquationAudit {
                nvars: 2,
                name: "f",
                cover: &ab,
                inverters: &[1],
            },
            Obligation::EquationAudit {
                nvars: 2,
                name: "g",
                cover: &ab,
                inverters: &[1],
            },
            Obligation::EquationAudit {
                nvars: 2,
                name: "f",
                cover: &ab,
                inverters: &[3],
            },
            Obligation::EquationAudit {
                nvars: 2,
                name: "f",
                cover: &ba,
                inverters: &[1],
            },
            Obligation::EquationAudit {
                nvars: 2,
                name: "f",
                cover: &a_b,
                inverters: &[1],
            },
        ]
        .map(|ob| {
            let mut out = Vec::new();
            ob.encode(&mut out);
            out
        });
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn encoding_is_injective(a in arb_expr(), other in arb_expr(), same in any::<bool>()) {
            // Half the pairs are equal by construction, so both directions
            // of the equivalence are exercised.
            let b = if same { a.clone() } else { other };
            prop_assert_eq!(enc(&a) == enc(&b), a == b, "{:?} vs {:?}", a, b);
        }

        #[test]
        fn encoding_round_trips(a in arb_expr(), b in arb_expr()) {
            // Two encodings back to back decode to the two expressions and
            // nothing is left over: each encoding is self-delimiting.
            let mut both = enc(&a);
            encode_expr(&b, &mut both);
            let mut rest = both.as_slice();
            prop_assert_eq!(decode_expr(&mut rest), Some(a));
            prop_assert_eq!(decode_expr(&mut rest), Some(b));
            prop_assert!(rest.is_empty());
        }
    }
}
