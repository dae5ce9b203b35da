//! Word-parallel truth-table kernels.
//!
//! A truth table over `n ≤ 6` variables fits in one `u64`: bit `m` is the
//! function value at the assignment whose variable `v` takes bit `v` of
//! `m`. Under that packing, variable `v` itself *is* the constant mask
//! [`MASKS`]`[v]`, so one walk of the expression with `&`/`|`/`!` on `u64`s
//! evaluates all `2^n` assignments at once — the §4.1.1 bit-vector trick
//! applied to the matcher instead of the cube algebra.
//!
//! Above 6 variables the table is evaluated in 64-assignment blocks: the
//! low 6 variables keep their masks, the high variables are constant
//! (all-ones or all-zeros) within a block.

use asyncmap_bff::Expr;
use asyncmap_cube::Bits;

/// `MASKS[v]` packs the value of variable `v` across the 64 assignments of
/// a block: bit `m` is set iff bit `v` of `m` is set.
pub const MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Mask selecting the `2^n` valid table bits of a packed `u64` (`n ≤ 6`).
#[inline]
pub fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= 6);
    if n == 6 {
        !0
    } else {
        (1u64 << (1usize << n)) - 1
    }
}

/// Evaluates `expr` with each variable bound to a 64-assignment word.
fn eval_word(expr: &Expr, vars: &[u64]) -> u64 {
    match expr {
        Expr::Const(b) => {
            if *b {
                !0
            } else {
                0
            }
        }
        Expr::Var(v) => vars[v.index()],
        Expr::Not(e) => !eval_word(e, vars),
        Expr::And(es) => es.iter().fold(!0u64, |acc, e| acc & eval_word(e, vars)),
        Expr::Or(es) => es.iter().fold(0u64, |acc, e| acc | eval_word(e, vars)),
    }
}

/// Packed truth table of `expr` over `n ≤ 6` local variables.
pub fn truth6_of(expr: &Expr, n: usize) -> u64 {
    debug_assert!(n <= 6);
    eval_word(expr, &MASKS[..n.max(1)]) & full_mask(n)
}

/// Truth table of `expr` over `n` local variables, evaluated in
/// 64-assignment blocks (one expression walk per block instead of per
/// assignment).
///
/// # Panics
///
/// Panics if `n > 24` (the table would be too large).
pub fn truth_table_words(expr: &Expr, n: usize) -> Bits {
    assert!(n <= 24, "truth table limited to 24 variables, got {n}");
    if n <= 6 {
        let word = truth6_of(expr, n);
        return Bits::from_words_fn(1usize << n, |_| word);
    }
    let mut vars = [0u64; 24];
    vars[..6].copy_from_slice(&MASKS);
    Bits::from_words_fn(1usize << n, |block| {
        for (v, word) in vars.iter_mut().enumerate().take(n).skip(6) {
            *word = if (block >> (v - 6)) & 1 == 1 { !0 } else { 0 };
        }
        eval_word(expr, &vars[..n])
    })
}

/// `true` iff the packed function (over `n ≤ 6` vars) depends on `v`: the
/// two cofactors differ somewhere.
#[inline]
pub fn depends6(truth: u64, n: usize, v: usize) -> bool {
    ((truth >> (1usize << v)) ^ truth) & !MASKS[v] & full_mask(n) != 0
}

/// Projects a packed table onto a support subset (the function must not
/// depend on dropped variables).
pub fn project6(truth: u64, support: &[usize]) -> u64 {
    let k = support.len();
    let mut out = 0u64;
    for m in 0..(1usize << k) {
        let mut full = 0usize;
        for (i, &v) in support.iter().enumerate() {
            full |= ((m >> i) & 1) << v;
        }
        out |= ((truth >> full) & 1) << m;
    }
    out
}

/// Signature of input `v` of a packed table: onset count with `v = 1`
/// packed with the count with `v = 0` (permutation-invariant; identical to
/// the generic `input_signature`).
#[inline]
pub fn input_signature6(truth: u64, n: usize, v: usize) -> u32 {
    let onset = truth & full_mask(n);
    let with = (onset & MASKS[v]).count_ones();
    let without = (onset & !MASKS[v]).count_ones();
    (with << 16) | without
}

/// Reindexes a packed table under an input permutation: variable `i` of
/// the input function becomes variable `perm[i]` of the result, i.e.
/// `result(x_{perm(0)}, …, x_{perm(n-1)}) = truth(x_0, …, x_{n-1})`.
///
/// The permutation is decomposed into at most `n-1` variable
/// transpositions, each applied to the whole table at once as a
/// delta swap (§4.1.1's word-parallel trick applied to table
/// reindexing) — O(n) word ops instead of a bit-gather per set minterm.
pub fn apply_perm6(truth: u64, perm: &[usize], n: usize) -> u64 {
    debug_assert!(n <= 6 && perm.len() >= n);
    let mut t = truth & full_mask(n);
    let mut occupant = [0usize, 1, 2, 3, 4, 5]; // position -> variable
    let mut pos_of = [0usize, 1, 2, 3, 4, 5]; // variable -> position
    for v in 0..n {
        let target = perm[v];
        let cur = pos_of[v];
        if cur == target {
            continue;
        }
        let other = occupant[target];
        let (a, b) = if cur < target {
            (cur, target)
        } else {
            (target, cur)
        };
        t = swap_vars6(t, a, b);
        occupant[cur] = other;
        pos_of[other] = cur;
        occupant[target] = v;
        pos_of[v] = target;
    }
    t
}

/// Exchanges the roles of variables `a < b < 6` across a packed table:
/// entries at minterms with `x_a = 1, x_b = 0` swap with their partners
/// at `x_a = 0, x_b = 1`, all 64 at once via a delta swap.
#[inline]
fn swap_vars6(t: u64, a: usize, b: usize) -> u64 {
    debug_assert!(a < b && b < 6);
    let shift = (1u32 << b) - (1u32 << a);
    let mask = MASKS[a] & !MASKS[b];
    let x = ((t >> shift) ^ t) & mask;
    t ^ x ^ (x << shift)
}

/// [`apply_perm6`] for wide (7–8 variable) tables stored as the cut
/// enumerator's 4-word blocks: a low-variable transposition is the same
/// delta swap applied to every block, a low↔high transposition is a
/// masked cross-word exchange, and a high↔high transposition swaps whole
/// blocks. Only the first `2^(n-6)` words are meaningful; the rest must be
/// zero and stay zero.
pub fn apply_perm_wide(words: [u64; 4], perm: &[usize], n: usize) -> [u64; 4] {
    debug_assert!((7..=8).contains(&n) && perm.len() >= n);
    let mut t = words;
    let mut occupant = [0usize, 1, 2, 3, 4, 5, 6, 7];
    let mut pos_of = [0usize, 1, 2, 3, 4, 5, 6, 7];
    for v in 0..n {
        let target = perm[v];
        let cur = pos_of[v];
        if cur == target {
            continue;
        }
        let other = occupant[target];
        let (a, b) = if cur < target {
            (cur, target)
        } else {
            (target, cur)
        };
        t = swap_vars_wide(t, a, b, n);
        occupant[cur] = other;
        pos_of[other] = cur;
        occupant[target] = v;
        pos_of[v] = target;
    }
    t
}

/// Variable transposition `a < b` on a wide 4-word table.
#[inline]
fn swap_vars_wide(t: [u64; 4], a: usize, b: usize, n: usize) -> [u64; 4] {
    debug_assert!(a < b && b < n && (7..=8).contains(&n));
    if b < 6 {
        // Both variables live inside every 64-minterm block: the same
        // delta swap on each block (unused blocks are zero and map to
        // zero).
        t.map(|w| swap_vars6(w, a, b))
    } else if a < 6 {
        // Low/high exchange: within each block pair differing at block
        // bit b-6, entries with x_a = 1 of the low block swap with
        // entries with x_a = 0 of the high block.
        let j = b - 6;
        let shift = 1u32 << a;
        let mask = MASKS[a];
        let mut out = t;
        let blocks = 1usize << (n - 6);
        let mut lo_block = 0usize;
        while lo_block < blocks {
            if (lo_block >> j) & 1 == 0 {
                let hi_block = lo_block | (1 << j);
                let (lo, hi) = (t[lo_block], t[hi_block]);
                out[lo_block] = (lo & !mask) | ((hi << shift) & mask);
                out[hi_block] = (hi & mask) | ((lo >> shift) & !mask);
            }
            lo_block += 1;
        }
        out
    } else {
        // Both high (only possible at n = 8): swapping block bits 0 and 1
        // exchanges blocks 01 and 10.
        [t[0], t[2], t[1], t[3]]
    }
}

/// The canonical representative of a packed table's P-class (input
/// permutation) extended with output phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Canon6 {
    /// Class representative: the numerically smallest table reachable by
    /// permuting inputs of the function or of its complement.
    pub canon: u64,
    /// `true` when the representative was reached from the complement.
    pub phase: bool,
}

/// Canonicalizes a packed table under input permutation and output phase:
/// two functions get equal [`Canon6`] values iff one is an input
/// permutation of the other (same `phase`) or of its complement (opposite
/// `phase`). A library cell therefore matches a cluster function iff their
/// positive-phase canonical forms coincide.
///
/// The minimization only ranges over permutations that sort the per-input
/// [`input_signature6`] values ascending — signatures are
/// permutation-invariant, so the restricted minimum is still a class
/// invariant, and every permutation relating two class members maps
/// equal-signature inputs to each other, so it also distinguishes classes.
/// The worst case (all six signatures equal) evaluates 720 permutations.
pub fn canon6(truth: u64, n: usize) -> Canon6 {
    debug_assert!(n <= 6);
    let mask = full_mask(n);
    let t = truth & mask;
    let pos = perm_min6(t, n);
    let neg = perm_min6(!t & mask, n);
    if pos <= neg {
        Canon6 {
            canon: pos,
            phase: false,
        }
    } else {
        Canon6 {
            canon: neg,
            phase: true,
        }
    }
}

/// Minimum of `apply_perm6(t, π, n)` over all signature-sorting
/// permutations π (see [`canon6`]).
fn perm_min6(t: u64, n: usize) -> u64 {
    if n <= 1 {
        return t;
    }
    let mut sigs = [0u32; 6];
    for (v, s) in sigs.iter_mut().enumerate().take(n) {
        *s = input_signature6(t, n, v);
    }
    // vars sorted by signature gives the target signature per position.
    let mut vars = [0usize, 1, 2, 3, 4, 5];
    vars[..n].sort_by_key(|&v| sigs[v]);
    let mut perm = [0usize; 6]; // old var -> new position
    let mut used = [false; 6];
    let mut best = u64::MAX;
    // Backtracking over positions: position j may take any unused variable
    // whose signature equals the j-th smallest.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        t: u64,
        n: usize,
        j: usize,
        sigs: &[u32; 6],
        vars: &[usize; 6],
        perm: &mut [usize; 6],
        used: &mut [bool; 6],
        best: &mut u64,
    ) {
        if j == n {
            let cand = apply_perm6(t, perm, n);
            if cand < *best {
                *best = cand;
            }
            return;
        }
        let want = sigs[vars[j]];
        for &v in &vars[..n] {
            if used[v] || sigs[v] != want {
                continue;
            }
            used[v] = true;
            perm[v] = j;
            rec(t, n, j + 1, sigs, vars, perm, used, best);
            used[v] = false;
        }
    }
    rec(t, n, 0, &sigs, &vars, &mut perm, &mut used, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn masks_encode_variable_values() {
        for (v, mask) in MASKS.iter().enumerate() {
            for m in 0..64u64 {
                assert_eq!((mask >> m) & 1, (m >> v) & 1, "var {v} minterm {m}");
            }
        }
    }

    #[test]
    fn truth6_matches_scalar_eval() {
        let mut vars = VarTable::new();
        let e = Expr::parse("(a + b') * (c + a') + b * c'", &mut vars).unwrap();
        let n = 3;
        let packed = truth6_of(&e, n);
        for m in 0..(1usize << n) {
            let assignment = Bits::from_index(n, m);
            assert_eq!((packed >> m) & 1 == 1, e.eval(&assignment), "minterm {m}");
        }
    }

    #[test]
    fn blocked_table_matches_scalar_eval() {
        let mut vars = VarTable::new();
        let e = Expr::parse("(a*b + c'*d) * (e + f') + g*h'", &mut vars).unwrap();
        let n = 8;
        let table = truth_table_words(&e, n);
        for m in 0..(1usize << n) {
            let assignment = Bits::from_index(n, m);
            assert_eq!(table.get(m), e.eval(&assignment), "minterm {m}");
        }
    }

    #[test]
    fn apply_perm_reindexes_variables() {
        // t = x0 & !x1 over 3 vars; swap vars 0 and 2.
        let t = MASKS[0] & !MASKS[1] & full_mask(3);
        let swapped = apply_perm6(t, &[2, 1, 0], 3);
        assert_eq!(swapped, MASKS[2] & !MASKS[1] & full_mask(3));
        // Identity permutation is a no-op.
        assert_eq!(apply_perm6(t, &[0, 1, 2], 3), t);
    }

    #[test]
    fn delta_swap_perm_matches_generic() {
        // SplitMix64 tables × all 2-cycles and a few full permutations,
        // at every width.
        let mut s = 0x5EED_u64;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for n in 1..=6usize {
            for _ in 0..50 {
                let t = next() & full_mask(n);
                let mut perm: Vec<usize> = (0..n).collect();
                // Fisher-Yates driven by the same stream.
                for i in (1..n).rev() {
                    perm.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                assert_eq!(
                    apply_perm6(t, &perm, n),
                    asyncmap_oracle::apply_perm6_generic(t, &perm, n),
                    "n={n} perm={perm:?} t={t:#x}"
                );
            }
        }
        for n in 7..=8usize {
            for _ in 0..50 {
                let mut words = [0u64; 4];
                for w in words.iter_mut().take(1 << (n - 6)) {
                    *w = next();
                }
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                assert_eq!(
                    apply_perm_wide(words, &perm, n),
                    asyncmap_oracle::apply_perm_wide_generic(words, &perm, n),
                    "n={n} perm={perm:?}"
                );
            }
        }
    }

    #[test]
    fn canon_is_a_class_invariant() {
        // All permutations of a 3-var function land on one canonical form.
        let t = (MASKS[0] & MASKS[1]) | !MASKS[2];
        let t = t & full_mask(3);
        let base = canon6(t, 3);
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            assert_eq!(canon6(apply_perm6(t, &p, 3), 3), base, "perm {p:?}");
        }
        // The complement shares the representative with flipped phase.
        let comp = canon6(!t & full_mask(3), 3);
        assert_eq!(comp.canon, base.canon);
        assert_ne!(comp.phase, base.phase);
    }

    #[test]
    fn canon_distinguishes_inequivalent_functions() {
        // AND2 and OR2 are not permutations of each other (nor of each
        // other's complements): 2-var AND has onset 1, OR has onset 3,
        // and their complements have onsets 3 and 1 — but AND's canon
        // (onset {11}) differs from NOR's canon (onset {00}).
        let and2 = 0b1000u64;
        let or2 = 0b1110u64;
        assert_ne!(canon6(and2, 2), canon6(or2, 2));
    }

    #[test]
    fn canon_of_canon_is_fixed() {
        for t in [0u64, 0x8, 0x6, 0x96, 0x1e, 0xfe, 0x80] {
            let c = canon6(t, 3);
            let again = canon6(c.canon, 3);
            assert_eq!(again.canon, c.canon);
            assert!(!again.phase, "representative is positive-phase");
        }
    }

    #[test]
    fn depends_and_projection() {
        use asyncmap_cube::VarId;
        // XNOR of variables 0 and 2 — ignores variable 1.
        let v = |i| Expr::Var(VarId(i));
        let e = Expr::Or(vec![
            Expr::And(vec![v(0), v(2)]),
            Expr::And(vec![Expr::Not(Box::new(v(0))), Expr::Not(Box::new(v(2)))]),
        ]);
        let t = truth6_of(&e, 3);
        assert!(depends6(t, 3, 0));
        assert!(!depends6(t, 3, 1));
        assert!(depends6(t, 3, 2));
        let proj = project6(t, &[0, 2]);
        // XNOR over 2 vars: minterms 00 and 11.
        assert_eq!(proj, 0b1001);
    }
}
