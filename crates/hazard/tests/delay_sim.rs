//! Empirical validation of the eight-valued waveform algebra against an
//! event-driven pure-delay simulator: each leaf occurrence (wire) and each
//! gate gets an arbitrary positive delay, inputs switch at t = 0, and the
//! output waveform is computed exactly.
//!
//! * When `wave_eval` says *clean*, no sampled delay assignment may
//!   produce extra output transitions (soundness of the clean verdict —
//!   universally quantified, sampled here).
//! * When `wave_eval` says *hazard* on the curated figure examples, some
//!   sampled assignment must witness the glitch.

use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, VarTable};
use asyncmap_hazard::wave_eval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A step waveform: the value before the first event, then `(time, value)`
/// change events in strictly increasing time order.
#[derive(Debug, Clone)]
struct Waveform {
    initial: bool,
    events: Vec<(f64, bool)>,
}

impl Waveform {
    fn constant(v: bool) -> Self {
        Waveform {
            initial: v,
            events: Vec::new(),
        }
    }

    fn transitions(&self) -> usize {
        self.events.len()
    }

    fn value_at(&self, t: f64) -> bool {
        let mut v = self.initial;
        for &(et, ev) in &self.events {
            if et <= t {
                v = ev;
            } else {
                break;
            }
        }
        v
    }

    fn delayed(mut self, d: f64) -> Self {
        for e in &mut self.events {
            e.0 += d;
        }
        self
    }
}

/// Combines child waveforms through a boolean function of their values.
fn combine(children: &[Waveform], f: impl Fn(&[bool]) -> bool) -> Waveform {
    let mut times: Vec<f64> = children
        .iter()
        .flat_map(|w| w.events.iter().map(|e| e.0))
        .collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    let initial_vals: Vec<bool> = children.iter().map(|w| w.initial).collect();
    let mut out = Waveform::constant(f(&initial_vals));
    let mut current = out.initial;
    for &t in &times {
        let vals: Vec<bool> = children.iter().map(|w| w.value_at(t)).collect();
        let v = f(&vals);
        if v != current {
            out.events.push((t, v));
            current = v;
        }
    }
    out
}

/// Simulates `expr` for the burst `from → to` under the given delay
/// sampler; returns the output waveform.
fn simulate(expr: &Expr, from: &Bits, to: &Bits, rng: &mut StdRng) -> Waveform {
    match expr {
        Expr::Const(b) => Waveform::constant(*b),
        Expr::Var(v) => {
            let (a, b) = (from.get(v.index()), to.get(v.index()));
            if a == b {
                Waveform::constant(a)
            } else {
                Waveform {
                    initial: a,
                    events: vec![(rng.random_range(0.01..1.0), b)],
                }
            }
        }
        Expr::Not(e) => {
            let w = simulate(e, from, to, rng);
            let inverted = Waveform {
                initial: !w.initial,
                events: w.events.iter().map(|&(t, v)| (t, !v)).collect(),
            };
            inverted.delayed(rng.random_range(0.001..0.05))
        }
        Expr::And(es) => {
            let children: Vec<Waveform> = es.iter().map(|e| simulate(e, from, to, rng)).collect();
            combine(&children, |vals| vals.iter().all(|&v| v))
                .delayed(rng.random_range(0.001..0.05))
        }
        Expr::Or(es) => {
            let children: Vec<Waveform> = es.iter().map(|e| simulate(e, from, to, rng)).collect();
            combine(&children, |vals| vals.iter().any(|&v| v))
                .delayed(rng.random_range(0.001..0.05))
        }
    }
}

fn minimal_transitions(expr: &Expr, from: &Bits, to: &Bits) -> usize {
    usize::from(expr.eval(from) != expr.eval(to))
}

#[test]
fn clean_wave_verdicts_are_sound_under_simulation() {
    // Random small expressions; for every transition the algebra calls
    // clean, 200 random delay assignments must produce the minimal number
    // of output transitions.
    let mut rng = StdRng::seed_from_u64(7);
    let exprs = curated_expressions();
    for (expr, n) in &exprs {
        for a in 0..(1usize << n) {
            for b in 0..(1usize << n) {
                if a == b {
                    continue;
                }
                let (from, to) = (Bits::from_index(*n, a), Bits::from_index(*n, b));
                let w = wave_eval(expr, &from, &to);
                if w.hazard {
                    continue;
                }
                let want = minimal_transitions(expr, &from, &to);
                for _ in 0..200 {
                    let sim = simulate(expr, &from, &to, &mut rng);
                    assert_eq!(
                        sim.transitions(),
                        want,
                        "clean verdict violated: {a:#b}→{b:#b}"
                    );
                }
            }
        }
    }
}

#[test]
fn hazard_wave_verdicts_have_witnesses_on_figures() {
    // The curated figure hazards must be witnessable by some sampled
    // delay assignment.
    let mut rng = StdRng::seed_from_u64(11);
    let mut vars = VarTable::new();
    let cases: Vec<(Expr, usize, usize)> = vec![
        // Figure 4a: wx + x'y, burst w↓x↑ with y=1 (dynamic).
        (Expr::parse("w*x + x'*y", &mut vars).unwrap(), 0b101, 0b110),
        // Static-1: ab + a'b with b=1, a rising. (Fresh table per case.)
        (
            {
                let mut v2 = VarTable::new();
                Expr::parse("a*b + a'*b", &mut v2).unwrap()
            },
            0b10,
            0b11,
        ),
        // Vacuous pulse: (w + x)(x' + z) at w=z=0, x rising.
        (
            {
                let mut v3 = VarTable::new();
                Expr::parse("(w + x)*(x' + z)", &mut v3).unwrap()
            },
            0b000,
            0b010,
        ),
    ];
    for (expr, a, b) in cases {
        let n = expr.support().last().map_or(0, |v| v.index() + 1);
        let (from, to) = (Bits::from_index(n, a), Bits::from_index(n, b));
        let w = wave_eval(&expr, &from, &to);
        assert!(w.hazard, "expected a hazardous verdict");
        let want = minimal_transitions(&expr, &from, &to);
        let witnessed =
            (0..2000).any(|_| simulate(&expr, &from, &to, &mut rng).transitions() > want);
        assert!(witnessed, "no delay assignment witnessed the hazard");
    }
}

fn curated_expressions() -> Vec<(Expr, usize)> {
    let texts = [
        "a*b + a'*c",
        "a*b + a'*c + b*c",
        "(a + b')*(b + c)",
        "(a*b + c)'",
        "w*x + x'*y",
        "(w + x')*(x + y)",
        "a*(b + c) + a'*c",
    ];
    texts
        .iter()
        .map(|t| {
            let mut vars = VarTable::new();
            let e = Expr::parse(t, &mut vars).unwrap();
            (e, vars.len())
        })
        .collect()
}
