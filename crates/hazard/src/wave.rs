//! Eight-valued waveform algebra: an exact per-transition hazard oracle for
//! tree-structured expressions under the arbitrary pure-delay model.
//!
//! For a single input burst `α → β`, every signal in a *tree* circuit
//! (every leaf occurrence is a distinct wire, so all delays are
//! independent — exactly the BFF situation) behaves as one of eight
//! waveform classes: constant 0/1, clean rise/fall, rise/fall with possible
//! extra transitions (a **dynamic hazard**), or constant-valued with a
//! possible pulse/dip (a **static hazard**). AND/OR/NOT act on these
//! classes exactly:
//!
//! * a constant 0 (1) input masks everything at an AND (OR);
//! * an input hazard propagates through any non-masking gate;
//! * two clean opposite transitions meeting at an AND (OR) create a
//!   possible pulse (dip).
//!
//! This is the classical eight-valued extension of Eichelberger's ternary
//! algebra (cf. Brzozowski & Seger; Beister's unified treatment, the
//! paper's ref. [16]); the paper's `findMicDynHazMultiLevel` step 3 uses it
//! to discard false hazards reported by the flattened two-level filter.
//!
//! Exhaustive sweeps over all `4^n` bursts of a small support use the
//! bit-sliced form [`WavePlanes`]: three `u64` planes (start, end, hazard)
//! whose lane `j` holds one burst, with the same rules applied bitwise.
//! [`wave_eval_word`] evaluates one fixed `from` assignment against 64
//! `to` assignments at once, so a sweep costs `4^n / 64` tree walks
//! (`2^n` below six variables) instead of `4^n`.

use asyncmap_bff::Expr;
use asyncmap_cube::Bits;
use std::fmt;

/// A waveform class for one signal during one input burst.
///
/// `start`/`end` are the settled values before and after the burst;
/// `hazard` records whether some delay assignment produces more than the
/// minimal number of output transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wave {
    /// Settled value before the burst.
    pub start: bool,
    /// Settled value after the burst.
    pub end: bool,
    /// `true` if extra transitions are possible (a hazard).
    pub hazard: bool,
}

impl Wave {
    /// Constant 0.
    pub const C0: Wave = Wave::new(false, false, false);
    /// Constant 1.
    pub const C1: Wave = Wave::new(true, true, false);
    /// Clean monotone rise.
    pub const RISE: Wave = Wave::new(false, true, false);
    /// Clean monotone fall.
    pub const FALL: Wave = Wave::new(true, false, false);

    const fn new(start: bool, end: bool, hazard: bool) -> Wave {
        Wave { start, end, hazard }
    }

    /// `true` when the signal is steady (equal endpoints).
    pub fn is_static(self) -> bool {
        self.start == self.end
    }

    /// `true` for a static hazard (steady value with a possible glitch).
    pub fn is_static_hazard(self) -> bool {
        self.is_static() && self.hazard
    }

    /// `true` for a dynamic hazard (changing value with possible extra
    /// transitions).
    pub fn is_dynamic_hazard(self) -> bool {
        !self.is_static() && self.hazard
    }

    /// Waveform AND. A constant-0 operand masks the other completely.
    pub fn and(self, other: Wave) -> Wave {
        if self == Wave::C0 || other == Wave::C0 {
            return Wave::C0;
        }
        let start = self.start && other.start;
        let end = self.end && other.end;
        // Opposite clean transitions can overlap high: a created pulse.
        let created =
            self.start != self.end && other.start != other.end && self.start != other.start;
        Wave::new(start, end, self.hazard || other.hazard || created)
    }

    /// Waveform OR. A constant-1 operand masks the other completely.
    pub fn or(self, other: Wave) -> Wave {
        if self == Wave::C1 || other == Wave::C1 {
            return Wave::C1;
        }
        let start = self.start || other.start;
        let end = self.end || other.end;
        // Opposite clean transitions can both be low momentarily: a dip.
        let created =
            self.start != self.end && other.start != other.end && self.start != other.start;
        Wave::new(start, end, self.hazard || other.hazard || created)
    }

    /// Waveform NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Wave {
        Wave::new(!self.start, !self.end, self.hazard)
    }
}

impl fmt::Display for Wave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match (self.start, self.end) {
            (false, false) => "0",
            (true, true) => "1",
            (false, true) => "R",
            (true, false) => "F",
        };
        write!(f, "{base}{}", if self.hazard { "*" } else { "" })
    }
}

/// Evaluates the waveform class of `expr` for the burst from assignment
/// `from` to assignment `to`.
/// # Examples
///
/// ```
/// use asyncmap_bff::Expr;
/// use asyncmap_cube::{Bits, VarTable};
/// use asyncmap_hazard::wave_eval;
///
/// // Figure 4a's burst w↓ x↑ with y = 1 glitches the two-level mux.
/// let mut vars = VarTable::new();
/// let e = Expr::parse("w*x + x'*y", &mut vars)?;
/// let mut from = Bits::new(3);
/// from.set(0, true); // w
/// from.set(2, true); // y
/// let mut to = Bits::new(3);
/// to.set(1, true); // x
/// to.set(2, true); // y
/// assert!(wave_eval(&e, &from, &to).is_dynamic_hazard());
/// # Ok::<(), asyncmap_bff::ParseBffError>(())
/// ```
pub fn wave_eval(expr: &Expr, from: &Bits, to: &Bits) -> Wave {
    match expr {
        Expr::Const(b) => {
            if *b {
                Wave::C1
            } else {
                Wave::C0
            }
        }
        Expr::Var(v) => match (from.get(v.index()), to.get(v.index())) {
            (false, false) => Wave::C0,
            (true, true) => Wave::C1,
            (false, true) => Wave::RISE,
            (true, false) => Wave::FALL,
        },
        Expr::Not(e) => wave_eval(e, from, to).not(),
        Expr::And(es) => es
            .iter()
            .map(|e| wave_eval(e, from, to))
            .fold(Wave::C1, Wave::and),
        Expr::Or(es) => es
            .iter()
            .map(|e| wave_eval(e, from, to))
            .fold(Wave::C0, Wave::or),
    }
}

/// 64 waveform classes side by side: lane `j` of each plane is one
/// burst's [`Wave`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavePlanes {
    /// Settled values before the burst.
    pub start: u64,
    /// Settled values after the burst.
    pub end: u64,
    /// Lanes where extra transitions are possible.
    pub hazard: u64,
}

impl WavePlanes {
    /// Constant 0 in every lane.
    pub const C0: WavePlanes = WavePlanes::splat(Wave::C0);
    /// Constant 1 in every lane.
    pub const C1: WavePlanes = WavePlanes::splat(Wave::C1);

    /// `wave` in every lane.
    const fn splat(wave: Wave) -> WavePlanes {
        WavePlanes {
            start: all_lanes(wave.start),
            end: all_lanes(wave.end),
            hazard: all_lanes(wave.hazard),
        }
    }

    /// The class in lane `j` (`j < 64`).
    pub fn lane(self, j: usize) -> Wave {
        let bit = |plane: u64| (plane >> j) & 1 == 1;
        Wave::new(bit(self.start), bit(self.end), bit(self.hazard))
    }

    /// Lanes holding a static hazard (steady value, possible glitch).
    pub fn static_hazard(self) -> u64 {
        !(self.start ^ self.end) & self.hazard
    }

    /// Lanes where the two operands change in opposite directions: the
    /// overlap [`Wave::and`] and [`Wave::or`] turn into a created hazard.
    fn created(self, other: WavePlanes) -> u64 {
        (self.start ^ self.end) & (other.start ^ other.end) & (self.start ^ other.start)
    }

    /// [`Wave::and`] in every lane: a constant-0 operand masks the lane.
    pub fn and(self, other: WavePlanes) -> WavePlanes {
        let c0 = |p: WavePlanes| !(p.start | p.end | p.hazard);
        let masked = c0(self) | c0(other);
        WavePlanes {
            start: self.start & other.start,
            end: self.end & other.end,
            hazard: (self.hazard | other.hazard | self.created(other)) & !masked,
        }
    }

    /// [`Wave::or`] in every lane: a constant-1 operand masks the lane.
    pub fn or(self, other: WavePlanes) -> WavePlanes {
        let c1 = |p: WavePlanes| p.start & p.end & !p.hazard;
        let masked = c1(self) | c1(other);
        WavePlanes {
            start: self.start | other.start,
            end: self.end | other.end,
            hazard: (self.hazard | other.hazard | self.created(other)) & !masked,
        }
    }

    /// [`Wave::not`] in every lane.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> WavePlanes {
        WavePlanes {
            start: !self.start,
            end: !self.end,
            hazard: self.hazard,
        }
    }
}

/// `bit` in all 64 lanes.
const fn all_lanes(bit: bool) -> u64 {
    0u64.wrapping_sub(bit as u64)
}

/// Bit `j` of `LANE_VARS[v]` is bit `v` of `j`: the `to` values of the six
/// low variables across one word's 64 lanes.
const LANE_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Number of 64-lane words that hold the `2^nvars` `to` assignments of a
/// sweep over `nvars` variables.
pub fn sweep_words(nvars: usize) -> usize {
    (1usize << nvars).div_ceil(64)
}

/// Evaluates `expr` for the 64 bursts `from → to` with
/// `to = 64·word + j` in lane `j`, assignments indexed as in a truth
/// table (bit `v` of the index is variable `v`). Variables below 6 take
/// the lane pattern, higher ones are constant across the word. Lanes at
/// or beyond `2^nvars` read as clean constant 0, and the `from == to`
/// lane never carries a hazard (every leaf is constant there).
///
/// Lane for lane the result equals [`wave_eval`] on the same burst.
///
/// # Examples
///
/// ```
/// use asyncmap_bff::Expr;
/// use asyncmap_cube::VarTable;
/// use asyncmap_hazard::wave_eval_word;
///
/// // ab + a'b glitches when a changes with b = 1 held.
/// let mut vars = VarTable::new();
/// let e = Expr::parse("a*b + a'*b", &mut vars)?;
/// let planes = wave_eval_word(&e, 2, 0b10, 0);
/// assert_eq!(planes.static_hazard(), 1 << 0b11);
/// # Ok::<(), asyncmap_bff::ParseBffError>(())
/// ```
pub fn wave_eval_word(expr: &Expr, nvars: usize, from: usize, word: usize) -> WavePlanes {
    debug_assert!(word < sweep_words(nvars), "word {word} out of range");
    let live = if nvars >= 6 {
        !0
    } else {
        (1u64 << (1 << nvars)) - 1
    };
    let p = planes_of(expr, from, word);
    WavePlanes {
        start: p.start & live,
        end: p.end & live,
        hazard: p.hazard & live,
    }
}

fn planes_of(expr: &Expr, from: usize, word: usize) -> WavePlanes {
    match expr {
        Expr::Const(b) => {
            if *b {
                WavePlanes::C1
            } else {
                WavePlanes::C0
            }
        }
        Expr::Var(v) => {
            let bit = |index: usize, shift: usize| all_lanes((index >> shift) & 1 == 1);
            let v = v.index();
            WavePlanes {
                start: bit(from, v),
                end: if v < 6 {
                    LANE_VARS[v]
                } else {
                    bit(word, v - 6)
                },
                hazard: 0,
            }
        }
        Expr::Not(e) => planes_of(e, from, word).not(),
        Expr::And(es) => es
            .iter()
            .map(|e| planes_of(e, from, word))
            .fold(WavePlanes::C1, WavePlanes::and),
        Expr::Or(es) => es
            .iter()
            .map(|e| planes_of(e, from, word))
            .fold(WavePlanes::C0, WavePlanes::or),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    fn bits(n: usize, m: usize) -> Bits {
        let mut b = Bits::new(n);
        for v in 0..n {
            b.set(v, (m >> v) & 1 == 1);
        }
        b
    }

    #[test]
    fn algebra_basic_masking() {
        assert_eq!(Wave::C0.and(Wave::RISE), Wave::C0);
        assert_eq!(Wave::C1.or(Wave::FALL), Wave::C1);
        assert_eq!(Wave::C1.and(Wave::RISE), Wave::RISE);
        assert_eq!(Wave::C0.or(Wave::FALL), Wave::FALL);
    }

    #[test]
    fn opposite_transitions_create_hazards() {
        let p = Wave::RISE.and(Wave::FALL);
        assert!(p.is_static_hazard());
        assert_eq!(p.to_string(), "0*");
        let d = Wave::RISE.or(Wave::FALL);
        assert!(d.is_static_hazard());
        assert_eq!(d.to_string(), "1*");
        // Same-direction transitions are clean.
        assert_eq!(Wave::RISE.and(Wave::RISE), Wave::RISE);
        assert_eq!(Wave::FALL.or(Wave::FALL), Wave::FALL);
    }

    #[test]
    fn hazards_propagate() {
        let pulse = Wave::RISE.and(Wave::FALL); // 0*
        let out = pulse.or(Wave::RISE);
        assert!(out.is_dynamic_hazard());
        assert_eq!(out.to_string(), "R*");
        // But a constant-1 masks it at an OR.
        assert_eq!(pulse.or(Wave::C1), Wave::C1);
    }

    #[test]
    fn not_flips_endpoints_keeps_hazard() {
        let d = Wave::new(false, true, true);
        let n = d.not();
        assert_eq!(n, Wave::new(true, false, true));
        assert_eq!(Wave::RISE.not(), Wave::FALL);
    }

    #[test]
    fn figure4a_two_level_mux_glitches() {
        // Figure 4a two-cube structure: f = wx + x'y. Burst w↓ x↑ with
        // y = 1: the wx gate can pulse after x'y has fallen → dynamic
        // hazard on the falling output.
        let mut vars = VarTable::new();
        let e = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        // vars: w=0, x=1, y=2. α = (w=1, x=0, y=1), β = (w=0, x=1, y=1).
        let alpha = bits(3, 0b101);
        let beta = bits(3, 0b110);
        let w = wave_eval(&e, &alpha, &beta);
        assert!(w.is_dynamic_hazard());
        assert_eq!(w.to_string(), "F*");
    }

    #[test]
    fn figure4b_factored_mux_is_clean_for_that_burst() {
        // Figure 4b structure for the same function: (w + x')(x + y).
        // For the same burst the first OR falls cleanly and the second OR
        // is held at 1 by y: no hazard.
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + x')*(x + y)", &mut vars).unwrap();
        let alpha = bits(3, 0b101);
        let beta = bits(3, 0b110);
        let w = wave_eval(&e, &alpha, &beta);
        assert_eq!(w, Wave::FALL);
        assert!(!w.hazard);
    }

    #[test]
    fn static1_hazard_seen_by_waves() {
        // ab + a'b with b=1 and a changing: classic static-1 hazard.
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b + a'*b", &mut vars).unwrap();
        let alpha = bits(2, 0b10); // a=0 b=1
        let beta = bits(2, 0b11);
        let w = wave_eval(&e, &alpha, &beta);
        assert!(w.is_static_hazard());
        // The consensus gate removes it.
        let fixed = Expr::parse("a*b + a'*b + b", &mut vars).unwrap();
        assert_eq!(wave_eval(&fixed, &alpha, &beta), Wave::C1);
    }

    #[test]
    fn vacuous_pulse_seen_by_waves() {
        // (w + x)(x' + z) at w=0, z=0: x·x' pulse on a 0 output.
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + x)*(x' + z)", &mut vars).unwrap();
        // vars w=0,x=1,x... z=2? Parse order: w, x, z.
        let alpha = bits(3, 0b000);
        let beta = bits(3, 0b010); // x rises
        let w = wave_eval(&e, &alpha, &beta);
        assert!(w.is_static_hazard());
        assert!(!w.start && !w.end);
    }

    /// All eight classes: the four clean ones and their hazardous
    /// `0*`, `1*`, `R*`, `F*` twins.
    fn all_classes() -> [Wave; 8] {
        let mut classes = [Wave::C0; 8];
        for (i, w) in classes.iter_mut().enumerate() {
            *w = Wave::new(i & 1 == 1, i & 2 == 2, i & 4 == 4);
        }
        classes
    }

    /// Planes whose lane `j` holds `pick(j)`.
    fn planes(pick: impl Fn(usize) -> Wave) -> WavePlanes {
        let mut p = WavePlanes::C0;
        for j in 0..64 {
            let w = pick(j);
            p.start |= u64::from(w.start) << j;
            p.end |= u64::from(w.end) << j;
            p.hazard |= u64::from(w.hazard) << j;
        }
        p
    }

    #[test]
    fn planes_apply_wave_rules_in_every_lane() {
        // Lane j pairs class j % 8 with class j / 8: all 64 ordered pairs
        // in one word.
        let classes = all_classes();
        let left = planes(|j| classes[j % 8]);
        let right = planes(|j| classes[j / 8]);
        let (and, or, not) = (left.and(right), left.or(right), left.not());
        for j in 0..64 {
            let (l, r) = (classes[j % 8], classes[j / 8]);
            assert_eq!(and.lane(j), l.and(r), "{l} AND {r}");
            assert_eq!(or.lane(j), l.or(r), "{l} OR {r}");
            assert_eq!(not.lane(j), l.not(), "NOT {l}");
        }
        for w in classes {
            assert_eq!(WavePlanes::splat(w).lane(63), w);
        }
    }

    #[test]
    fn word_evaluation_matches_wave_eval_lane_by_lane() {
        // One-word spaces with masked lanes (n < 6), exactly one word
        // (n = 6) and two words (n = 7); unused variables, constant
        // leaves, single-child gates and complemented gates.
        let mut vars = VarTable::new();
        let sop = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let nested = Expr::parse("(a + b*(c + d'))' + a*d", &mut vars).unwrap();
        let wide = Expr::parse("(a*b*c + d*e*f)*(a' + f') + g", &mut vars).unwrap();
        let odd = Expr::Or(vec![
            Expr::And(vec![sop.clone()]).not(),
            Expr::And(vec![Expr::Const(true), nested.clone()]),
            Expr::Const(false),
        ]);
        for (e, n) in [(&sop, 3), (&nested, 5), (&odd, 6), (&wide, 7)] {
            for from in [0, (1 << n) - 1, 0b1010101 & ((1 << n) - 1)] {
                for word in 0..sweep_words(n) {
                    let p = wave_eval_word(e, n, from, word);
                    for j in 0..64 {
                        let to = 64 * word + j;
                        let want = if to < 1 << n {
                            wave_eval(e, &bits(n, from), &bits(n, to))
                        } else {
                            Wave::C0
                        };
                        assert_eq!(p.lane(j), want, "{e:?}: {from:#b} -> {to:#b}");
                    }
                }
            }
        }
    }

    #[test]
    fn clean_single_gate_transition() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b*c", &mut vars).unwrap();
        let alpha = bits(3, 0b011);
        let beta = bits(3, 0b111);
        assert_eq!(wave_eval(&e, &alpha, &beta), Wave::RISE);
    }
}
