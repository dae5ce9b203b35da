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
//! bit-sliced form [`WavePlanes`]: three bit planes (start, end, hazard)
//! whose lane `j` holds one burst, with the same rules applied bitwise.
//! [`WaveProgram`] compiles an expression once into a flat postfix
//! program and evaluates it over 256-burst blocks ([`WaveBlock`]), so a
//! sweep costs `4^n / 256` program runs at every width (one run below
//! four variables) instead of `4^n` tree walks.

use asyncmap_bff::Expr;
use asyncmap_cube::Bits;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

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

/// A word of bit lanes that [`WavePlanes`] can be sliced over: one `u64`
/// (64 lanes) or a [`Lanes256`] block.
pub trait Lanes:
    Copy
    + Eq
    + fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// No lane set.
    const ZERO: Self;
    /// Every lane set.
    const ONES: Self;
}

impl Lanes for u64 {
    const ZERO: u64 = 0;
    const ONES: u64 = !0;
}

/// 256 lanes as four words: lane `l` is bit `l % 64` of word `l / 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes256(pub [u64; 4]);

impl Lanes for Lanes256 {
    const ZERO: Lanes256 = Lanes256([0; 4]);
    const ONES: Lanes256 = Lanes256([!0; 4]);
}

impl Lanes256 {
    /// The set lanes in ascending order.
    pub fn iter_ones(self) -> impl Iterator<Item = usize> {
        (0..4).flat_map(move |w| {
            let mut bits = self.0[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    64 * w + j
                })
            })
        })
    }
}

macro_rules! lanes256_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Lanes256 {
            type Output = Lanes256;
            fn $method(self, rhs: Lanes256) -> Lanes256 {
                Lanes256(std::array::from_fn(|w| self.0[w] $op rhs.0[w]))
            }
        }
    };
}
lanes256_op!(BitAnd, bitand, &);
lanes256_op!(BitOr, bitor, |);
lanes256_op!(BitXor, bitxor, ^);

impl Not for Lanes256 {
    type Output = Lanes256;
    fn not(self) -> Lanes256 {
        Lanes256(self.0.map(|w| !w))
    }
}

/// Waveform classes side by side, one per lane: lane `j` of each plane is
/// one burst's [`Wave`] field. 64 lanes by default; a [`WaveBlock`] holds
/// 256.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavePlanes<L = u64> {
    /// Settled values before the burst.
    pub start: L,
    /// Settled values after the burst.
    pub end: L,
    /// Lanes where extra transitions are possible.
    pub hazard: L,
}

/// 256 waveform classes: one block of a [`WaveProgram`] sweep.
pub type WaveBlock = WavePlanes<Lanes256>;

impl<L: Lanes> WavePlanes<L> {
    /// Constant 0 in every lane.
    pub const C0: WavePlanes<L> = WavePlanes::splat(Wave::C0);
    /// Constant 1 in every lane.
    pub const C1: WavePlanes<L> = WavePlanes::splat(Wave::C1);

    /// `wave` in every lane.
    const fn splat(wave: Wave) -> WavePlanes<L> {
        WavePlanes {
            start: if wave.start { L::ONES } else { L::ZERO },
            end: if wave.end { L::ONES } else { L::ZERO },
            hazard: if wave.hazard { L::ONES } else { L::ZERO },
        }
    }

    /// Lanes holding a static hazard (steady value, possible glitch).
    pub fn static_hazard(self) -> L {
        !(self.start ^ self.end) & self.hazard
    }

    /// Lanes where the two operands change in opposite directions: the
    /// overlap [`Wave::and`] and [`Wave::or`] turn into a created hazard.
    fn created(self, other: WavePlanes<L>) -> L {
        (self.start ^ self.end) & (other.start ^ other.end) & (self.start ^ other.start)
    }

    /// [`Wave::and`] in every lane: a constant-0 operand masks the lane.
    pub fn and(self, other: WavePlanes<L>) -> WavePlanes<L> {
        let c0 = |p: WavePlanes<L>| !(p.start | p.end | p.hazard);
        let masked = c0(self) | c0(other);
        WavePlanes {
            start: self.start & other.start,
            end: self.end & other.end,
            hazard: (self.hazard | other.hazard | self.created(other)) & !masked,
        }
    }

    /// [`Wave::or`] in every lane: a constant-1 operand masks the lane.
    pub fn or(self, other: WavePlanes<L>) -> WavePlanes<L> {
        let c1 = |p: WavePlanes<L>| p.start & p.end & !p.hazard;
        let masked = c1(self) | c1(other);
        WavePlanes {
            start: self.start | other.start,
            end: self.end | other.end,
            hazard: (self.hazard | other.hazard | self.created(other)) & !masked,
        }
    }

    /// [`Wave::not`] in every lane.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> WavePlanes<L> {
        WavePlanes {
            start: !self.start,
            end: !self.end,
            hazard: self.hazard,
        }
    }

    /// Every plane restricted to the `live` lanes; the others read as
    /// clean constant 0.
    fn masked(self, live: L) -> WavePlanes<L> {
        WavePlanes {
            start: self.start & live,
            end: self.end & live,
            hazard: self.hazard & live,
        }
    }
}

impl WavePlanes {
    /// The class in lane `j` (`j < 64`).
    pub fn lane(self, j: usize) -> Wave {
        let bit = |plane: u64| (plane >> j) & 1 == 1;
        Wave::new(bit(self.start), bit(self.end), bit(self.hazard))
    }
}

impl WaveBlock {
    /// The class in lane `l` (`l < 256`).
    pub fn lane(self, l: usize) -> Wave {
        self.word(l / 64).lane(l % 64)
    }

    /// Word `w` (`w < 4`) of the block: its lanes `64·w .. 64·w + 64`.
    pub fn word(self, w: usize) -> WavePlanes {
        WavePlanes {
            start: self.start.0[w],
            end: self.end.0[w],
            hazard: self.hazard.0[w],
        }
    }
}

/// `bit` in all 64 lanes.
const fn all_lanes(bit: bool) -> u64 {
    0u64.wrapping_sub(bit as u64)
}

/// Bit `j` of `LANE_VARS[i]` is bit `i` of `j`: the six low bits of the
/// burst index across one word's 64 lanes.
const LANE_VARS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Number of 64-lane words that hold the `2^nvars` `to` assignments of
/// one `from` assignment ([`wave_eval_word`]).
pub fn sweep_words(nvars: usize) -> usize {
    (1usize << nvars).div_ceil(64)
}

/// Bursts per [`WaveBlock`]: four 64-lane words.
pub const BLOCK_BURSTS: usize = 256;

/// One instruction of a [`WaveProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push a constant.
    Const(bool),
    /// Push variable `var`'s leaf, complemented when `neg`.
    Leaf { var: usize, neg: bool },
    /// Complement the top entry.
    Not,
    /// Fold the top `n ≥ 2` entries with [`Wave::and`], left to right.
    And(usize),
    /// Fold the top `n ≥ 2` entries with [`Wave::or`], left to right.
    Or(usize),
}

/// An expression compiled once into a flat postfix program, evaluated over
/// all `4^nvars` bursts of its support 256 at a time.
///
/// Burst `b = (from << nvars) | to` sits in lane `b % 256` of block
/// `b / 256`. Bits 0–5 of `b` take the lane patterns, bits 6–7 select
/// the word, and higher bits are constant over a block; bit `v` of `b` is
/// the `to` value of variable `v` and bit `nvars + v` its `from` value. A
/// full sweep costs `4^n / 256` program runs at every width. Lanes at or
/// beyond `4^nvars` (only when `nvars < 4`) read as clean constant 0, and
/// the `from == to` lanes never carry a hazard.
///
/// Lane for lane a block equals [`wave_eval`] on the same burst.
///
/// # Examples
///
/// ```
/// use asyncmap_bff::Expr;
/// use asyncmap_cube::VarTable;
/// use asyncmap_hazard::WaveProgram;
///
/// // ab + a'b glitches when a changes with b = 1 held: bursts 0b10 → 0b11
/// // and back, at b = (from << 2) | to.
/// let mut vars = VarTable::new();
/// let e = Expr::parse("a*b + a'*b", &mut vars)?;
/// let program = WaveProgram::compile(&e, 2);
/// assert_eq!(program.blocks(), 1);
/// let block = program.eval_block(0, &mut Vec::new());
/// assert_eq!(block.static_hazard().0, [1 << 0b1011 | 1 << 0b1110, 0, 0, 0]);
/// # Ok::<(), asyncmap_bff::ParseBffError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaveProgram {
    ops: Vec<Op>,
    nvars: usize,
}

impl WaveProgram {
    /// Compiles `expr` over an `nvars`-variable space.
    ///
    /// # Panics
    ///
    /// Panics if `expr` mentions a variable at or beyond `nvars`, or if
    /// `2 · nvars` burst bits do not fit a `usize`.
    pub fn compile(expr: &Expr, nvars: usize) -> WaveProgram {
        assert!(2 * nvars < usize::BITS as usize, "{nvars} variables");
        let mut ops = Vec::new();
        compile_into(expr, nvars, &mut ops);
        WaveProgram { ops, nvars }
    }

    /// Number of blocks in a full sweep: `⌈4^nvars / 256⌉`.
    pub fn blocks(&self) -> usize {
        (1usize << (2 * self.nvars)).div_ceil(BLOCK_BURSTS)
    }

    /// Evaluates the 256 bursts of block `block`. `stack` is scratch
    /// space, reused across calls to avoid reallocation.
    pub fn eval_block(&self, block: usize, stack: &mut Vec<WaveBlock>) -> WaveBlock {
        debug_assert!(block < self.blocks(), "block {block} out of range");
        let n = self.nvars;
        let leaf_of = |v: usize| WaveBlock {
            start: burst_bit(n + v, block),
            end: burst_bit(v, block),
            hazard: Lanes256::ZERO,
        };
        let leaves: [WaveBlock; 8] =
            std::array::from_fn(|v| if v < n { leaf_of(v) } else { WaveBlock::C0 });
        stack.clear();
        for &op in &self.ops {
            match op {
                Op::Const(b) => stack.push(if b { WaveBlock::C1 } else { WaveBlock::C0 }),
                Op::Leaf { var, neg } => {
                    let leaf = if var < 8 { leaves[var] } else { leaf_of(var) };
                    stack.push(if neg { leaf.not() } else { leaf });
                }
                Op::Not => {
                    let top = stack.last_mut().expect("operand");
                    *top = top.not();
                }
                Op::And(k) => fold_top(stack, k, WaveBlock::and),
                Op::Or(k) => fold_top(stack, k, WaveBlock::or),
            }
        }
        let out = stack.pop().expect("a compiled program leaves one value");
        let live = 1usize << (2 * n);
        if live >= BLOCK_BURSTS {
            out
        } else {
            out.masked(Lanes256(std::array::from_fn(|w| {
                match live.saturating_sub(64 * w) {
                    0 => 0,
                    l if l >= 64 => !0,
                    l => (1u64 << l) - 1,
                }
            })))
        }
    }
}

/// Replaces the top `k` entries of `stack` by their left fold under `op`.
fn fold_top(stack: &mut Vec<WaveBlock>, k: usize, op: impl Fn(WaveBlock, WaveBlock) -> WaveBlock) {
    let base = stack.len() - k;
    let acc = stack[base + 1..]
        .iter()
        .fold(stack[base], |acc, &x| op(acc, x));
    stack.truncate(base);
    stack.push(acc);
}

/// Bit `i` of the burst index across the 256 lanes of block `block`.
fn burst_bit(i: usize, block: usize) -> Lanes256 {
    Lanes256(match i {
        0..=5 => [LANE_VARS[i]; 4],
        6 => [0, !0, 0, !0],
        7 => [0, 0, !0, !0],
        _ => [all_lanes((block >> (i - 8)) & 1 == 1); 4],
    })
}

fn compile_into(expr: &Expr, nvars: usize, ops: &mut Vec<Op>) {
    let gate = |es: &[Expr], empty: bool, op: fn(usize) -> Op, ops: &mut Vec<Op>| {
        // An empty gate is its identity element, a single-child one its
        // child: `C1.and(x) == x` and `C0.or(x) == x` for every class.
        match es {
            [] => ops.push(Op::Const(empty)),
            [only] => compile_into(only, nvars, ops),
            _ => {
                for e in es {
                    compile_into(e, nvars, ops);
                }
                ops.push(op(es.len()));
            }
        }
    };
    match expr {
        Expr::Const(b) => ops.push(Op::Const(*b)),
        Expr::Var(v) => ops.push(leaf(v.index(), false, nvars)),
        Expr::Not(e) => match **e {
            Expr::Var(v) => ops.push(leaf(v.index(), true, nvars)),
            _ => {
                compile_into(e, nvars, ops);
                ops.push(Op::Not);
            }
        },
        Expr::And(es) => gate(es, true, Op::And, ops),
        Expr::Or(es) => gate(es, false, Op::Or, ops),
    }
}

fn leaf(var: usize, neg: bool, nvars: usize) -> Op {
    assert!(
        var < nvars,
        "variable {var} outside a {nvars}-variable space"
    );
    Op::Leaf { var, neg }
}

/// Evaluates `expr` for the 64 bursts `from → to` with
/// `to = 64·word + j` in lane `j`, assignments indexed as in a truth
/// table (bit `v` of the index is variable `v`). Lanes at or beyond
/// `2^nvars` read as clean constant 0, and the `from == to` lane never
/// carries a hazard (every leaf is constant there).
///
/// A view of one word of a [`WaveProgram`] block, compiled afresh on each
/// call; sweeps compile once and evaluate whole blocks instead. Lane for
/// lane the result equals [`wave_eval`] on the same burst.
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
    let first = (from << nvars) + 64 * word;
    let program = WaveProgram::compile(expr, nvars);
    let block = program.eval_block(first / BLOCK_BURSTS, &mut Vec::new());
    let p = block.word(first % BLOCK_BURSTS / 64);
    let shift = first % 64;
    let live = if nvars >= 6 {
        !0
    } else {
        (1u64 << (1 << nvars)) - 1
    };
    WavePlanes {
        start: (p.start >> shift) & live,
        end: (p.end >> shift) & live,
        hazard: (p.hazard >> shift) & live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

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
        let alpha = Bits::from_index(3, 0b101);
        let beta = Bits::from_index(3, 0b110);
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
        let alpha = Bits::from_index(3, 0b101);
        let beta = Bits::from_index(3, 0b110);
        let w = wave_eval(&e, &alpha, &beta);
        assert_eq!(w, Wave::FALL);
        assert!(!w.hazard);
    }

    #[test]
    fn static1_hazard_seen_by_waves() {
        // ab + a'b with b=1 and a changing: classic static-1 hazard.
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b + a'*b", &mut vars).unwrap();
        let alpha = Bits::from_index(2, 0b10); // a=0 b=1
        let beta = Bits::from_index(2, 0b11);
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
        let alpha = Bits::from_index(3, 0b000);
        let beta = Bits::from_index(3, 0b010); // x rises
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
            assert_eq!(WavePlanes::<u64>::splat(w).lane(63), w);
        }
    }

    #[test]
    fn block_planes_apply_wave_rules_in_every_lane() {
        // The sweep kernel's 256-lane instantiation of the same rules:
        // every word holds all 64 ordered pairs, rotated per word so each
        // pair also sits at four different lane positions.
        let classes = all_classes();
        let pair = |l: usize| {
            let (w, j) = (l / 64, l % 64);
            (classes[j % 8], classes[(j / 8 + w) % 8])
        };
        let block = |pick: &dyn Fn(usize) -> Wave| {
            let mut p = WaveBlock::C0;
            for l in 0..BLOCK_BURSTS {
                let (w, j, c) = (l / 64, l % 64, pick(l));
                p.start.0[w] |= u64::from(c.start) << j;
                p.end.0[w] |= u64::from(c.end) << j;
                p.hazard.0[w] |= u64::from(c.hazard) << j;
            }
            p
        };
        let left = block(&|l| pair(l).0);
        let right = block(&|l| pair(l).1);
        let (and, or, not) = (left.and(right), left.or(right), left.not());
        for l in 0..BLOCK_BURSTS {
            let (a, b) = pair(l);
            assert_eq!(left.lane(l), a);
            assert_eq!(and.lane(l), a.and(b), "{a} AND {b} in lane {l}");
            assert_eq!(or.lane(l), a.or(b), "{a} OR {b} in lane {l}");
            assert_eq!(not.lane(l), a.not(), "NOT {a} in lane {l}");
        }
    }

    #[test]
    fn block_evaluation_matches_wave_eval_lane_by_lane() {
        // Every block of widths 0–5 (dead lanes below 4 variables), and
        // at 7 variables blocks whose constant high burst bits are `from`
        // variables; unused variables, constant leaves, single-child and
        // empty gates.
        let mut vars = VarTable::new();
        let sop = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
        let nested = Expr::parse("(a + b*(c + d'))' + a*d", &mut vars).unwrap();
        let wide = Expr::parse("(a*b*c + d*e*f)*(a' + f') + g", &mut vars).unwrap();
        let tiny = Expr::Or(vec![
            Expr::And(vec![Expr::Var(asyncmap_cube::VarId(0))]).not(),
            Expr::And(vec![]).not(),
        ]);
        let mut stack = Vec::new();
        for (e, n, blocks) in [
            (&Expr::Const(true), 0, &[0][..]),
            (&tiny, 1, &[0]),
            (&sop, 3, &[0]),
            (&nested, 4, &[0]),
            (&nested, 5, &[0, 1, 2, 3]),
            (&wide, 7, &[0, 37, 63]),
        ] {
            let program = WaveProgram::compile(e, n);
            assert_eq!(program.blocks(), (1usize << (2 * n)).div_ceil(256));
            for &block in blocks {
                let got = program.eval_block(block, &mut stack);
                for l in 0..BLOCK_BURSTS {
                    let burst = BLOCK_BURSTS * block + l;
                    let want = if burst < 1 << (2 * n) {
                        let (from, to) = (burst >> n, burst & ((1 << n) - 1));
                        wave_eval(e, &Bits::from_index(n, from), &Bits::from_index(n, to))
                    } else {
                        Wave::C0
                    };
                    assert_eq!(got.lane(l), want, "{e:?} over {n}: burst {burst}");
                }
            }
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
                            wave_eval(e, &Bits::from_index(n, from), &Bits::from_index(n, to))
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
        let alpha = Bits::from_index(3, 0b011);
        let beta = Bits::from_index(3, 0b111);
        assert_eq!(wave_eval(&e, &alpha, &beta), Wave::RISE);
    }
}
