//! Bit-level evaluation kernels for the whole-design analyzer.
//!
//! Two evaluators share the module:
//!
//! * a **word-parallel** functional evaluator — up to 64 primary-input
//!   assignments per pass, one `u64` lane per assignment — used by the
//!   interior-point race sweeps ([`eval_design_packed`]); and
//! * a **waveform** evaluator that propagates arbitrary 8-valued
//!   [`Wave`] classes through a cell's factored form
//!   ([`wave_of_expr`]), the primitive behind the cross-cone
//!   interference walk ([`eval_design_waves`]). Unlike
//!   [`asyncmap_hazard::wave_eval`], the leaf classes are supplied by the
//!   caller, so an upstream cone's (possibly hazardous) output wave can be
//!   fed into a downstream cone's pins.
//!
//! Both whole-design evaluators are runs of core's one [`NetlistWalk`]
//! over a [`WalkScratch`]: the instance order is fixed once per analysis
//! and the values live in signal-indexed vectors allocated once per
//! worker, so each transition pair costs O(instances + pins).
//!
//! The cell kernels are pure bit manipulation over caller-owned slices,
//! which keeps them cheap enough for Miri to interpret — they are part of
//! the `asyncmap-fma` Miri gate in CI.

use asyncmap_bff::Expr;
use asyncmap_core::{Instance, NetlistWalk};
use asyncmap_cube::Bits;
use asyncmap_hazard::Wave;
use asyncmap_library::Library;

/// Evaluates `expr` over word-valued pins: bit `j` of the result is the
/// value of `expr` at assignment `j`, where bit `j` of `pins[v]` is the
/// value of variable `v` at assignment `j`.
///
/// Bits beyond the caller's assignment count hold garbage; the caller
/// masks.
pub fn eval_expr_words(expr: &Expr, pins: &[u64]) -> u64 {
    match expr {
        Expr::Const(b) => {
            if *b {
                !0
            } else {
                0
            }
        }
        Expr::Var(v) => pins[v.index()],
        Expr::Not(e) => !eval_expr_words(e, pins),
        Expr::And(es) => es.iter().fold(!0, |acc, e| acc & eval_expr_words(e, pins)),
        Expr::Or(es) => es.iter().fold(0, |acc, e| acc | eval_expr_words(e, pins)),
    }
}

/// Evaluates `expr` in the 8-valued waveform algebra with caller-supplied
/// leaf waves, using the same fold order as
/// [`asyncmap_hazard::wave_eval`] so both oracles agree on every
/// expression.
pub fn wave_of_expr(expr: &Expr, pins: &[Wave]) -> Wave {
    match expr {
        Expr::Const(b) => {
            if *b {
                Wave::C1
            } else {
                Wave::C0
            }
        }
        Expr::Var(v) => pins[v.index()],
        Expr::Not(e) => wave_of_expr(e, pins).not(),
        Expr::And(es) => es
            .iter()
            .map(|e| wave_of_expr(e, pins))
            .fold(Wave::C1, Wave::and),
        Expr::Or(es) => es
            .iter()
            .map(|e| wave_of_expr(e, pins))
            .fold(Wave::C0, Wave::or),
    }
}

/// Signal-indexed value vectors for the walks of one worker, sized once
/// to a [`NetlistWalk`] and reused by every walk that worker runs.
pub struct WalkScratch {
    words: Vec<u64>,
    waves: Vec<Wave>,
    word_pins: Vec<u64>,
    wave_pins: Vec<Wave>,
}

impl WalkScratch {
    /// Scratch for the walks of `walk`.
    pub fn new(walk: &NetlistWalk<'_>) -> Self {
        WalkScratch {
            words: vec![0; walk.signals()],
            waves: vec![Wave::C0; walk.signals()],
            word_pins: Vec::new(),
            wave_pins: Vec::new(),
        }
    }
}

/// Evaluates the mapped netlist (through the chosen cells, like
/// [`MappedDesign::eval_mapped`](asyncmap_core::MappedDesign::eval_mapped))
/// at every assignment in `points`, 64 assignments per [`NetlistWalk`]
/// run over `scratch`.
///
/// Returns one row per primary output in declaration order; bit `j` of
/// word `j / 64` in a row is the output's value at `points[j]` (0 for an
/// output nothing drives).
///
/// # Panics
///
/// Panics if a point's width differs from the primary-input count, or if
/// an instance reads an undriven signal (structurally unsound designs are
/// rejected before any kernel runs).
pub fn eval_design_packed(
    walk: &NetlistWalk<'_>,
    library: &Library,
    points: &[Bits],
    scratch: &mut WalkScratch,
) -> Vec<Vec<u64>> {
    let num_inputs = walk.design().subject.inputs().len();
    let words = points.len().div_ceil(64);
    let mut rows = vec![vec![0u64; words]; walk.num_outputs()];
    for (w, chunk) in points.chunks(64).enumerate() {
        let input = |i: usize| {
            let mut word = 0u64;
            for (j, p) in chunk.iter().enumerate() {
                assert_eq!(p.len(), num_inputs, "point width mismatch");
                if p.get(i) {
                    word |= 1 << j;
                }
            }
            word
        };
        let cell = |inst: &Instance, pins: &[u64]| {
            eval_expr_words(library.cells()[inst.cell_index].bff(), pins)
        };
        walk.run(&mut scratch.words, &mut scratch.word_pins, input, cell);
        for (o, row) in rows.iter_mut().enumerate() {
            row[w] = walk.output(&scratch.words, o).unwrap_or(0);
        }
    }
    rows
}

/// Propagates waveform classes for the transition `start → end` (over the
/// primary inputs) through every cell instance in one [`NetlistWalk`] run
/// over `scratch`, each cell's pins taking the waves of their driving
/// signals. Returns one wave per primary output in declaration order
/// ([`Wave::C0`] for an output nothing drives).
///
/// # Panics
///
/// Panics if an instance reads an undriven signal.
pub fn eval_design_waves(
    walk: &NetlistWalk<'_>,
    library: &Library,
    start: &Bits,
    end: &Bits,
    scratch: &mut WalkScratch,
) -> Vec<Wave> {
    let input = |i: usize| match (start.get(i), end.get(i)) {
        (false, false) => Wave::C0,
        (true, true) => Wave::C1,
        (false, true) => Wave::RISE,
        (true, false) => Wave::FALL,
    };
    let cell =
        |inst: &Instance, pins: &[Wave]| wave_of_expr(library.cells()[inst.cell_index].bff(), pins);
    walk.run(&mut scratch.waves, &mut scratch.wave_pins, input, cell);
    (0..walk.num_outputs())
        .map(|o| walk.output(&scratch.waves, o).unwrap_or(Wave::C0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarId;

    fn v(i: usize) -> Expr {
        Expr::Var(VarId(i))
    }

    #[test]
    fn words_agree_with_scalar_eval() {
        // f = (a & b) | !c over all 8 assignments in one word.
        let f = Expr::Or(vec![Expr::And(vec![v(0), v(1)]), Expr::Not(Box::new(v(2)))]);
        let mut pins = [0u64; 3];
        for j in 0..8usize {
            for (i, pin) in pins.iter_mut().enumerate() {
                if j >> i & 1 == 1 {
                    *pin |= 1 << j;
                }
            }
        }
        let word = eval_expr_words(&f, &pins);
        for j in 0..8usize {
            let (a, b, c) = (j & 1 == 1, j >> 1 & 1 == 1, j >> 2 & 1 == 1);
            assert_eq!(word >> j & 1 == 1, (a && b) || !c, "assignment {j}");
        }
    }

    #[test]
    fn wave_matches_wave_eval_on_endpoint_leaves() {
        // With monotone leaf classes derived from (from, to) endpoints the
        // caller-supplied-wave evaluator must agree with the hazard
        // crate's closed evaluator on every transition.
        let f = Expr::Or(vec![
            Expr::And(vec![v(0), v(1)]),
            Expr::And(vec![Expr::Not(Box::new(v(0))), v(2)]),
            Expr::And(vec![v(1), v(2)]),
        ]);
        let n = 3;
        for a in 0..1u32 << n {
            for b in 0..1u32 << n {
                let from = Bits::from_words_fn(n, |_| u64::from(a));
                let to = Bits::from_words_fn(n, |_| u64::from(b));
                let pins: Vec<Wave> = (0..n)
                    .map(|i| match (from.get(i), to.get(i)) {
                        (false, false) => Wave::C0,
                        (true, true) => Wave::C1,
                        (false, true) => Wave::RISE,
                        (true, false) => Wave::FALL,
                    })
                    .collect();
                assert_eq!(
                    wave_of_expr(&f, &pins),
                    asyncmap_hazard::wave_eval(&f, &from, &to),
                    "transition {a:03b} -> {b:03b}"
                );
            }
        }
    }

    #[test]
    fn hazardous_pin_wave_propagates_through_and() {
        let f = Expr::And(vec![v(0), v(1)]);
        let glitchy_one = Wave {
            start: true,
            end: true,
            hazard: true,
        };
        let w = wave_of_expr(&f, &[glitchy_one, Wave::C1]);
        assert!(w.hazard, "1* & 1 must stay glitch-capable");
        // A constant-0 side input masks the glitch.
        let w = wave_of_expr(&f, &[glitchy_one, Wave::C0]);
        assert!(!w.hazard, "1* & 0 is a solid 0");
    }
}
