//! Minterm-at-a-time references for the matcher's word-parallel
//! truth-table kernels (`asyncmap_core::truth` and the matcher's
//! signature and dependence tests).

use asyncmap_bff::Expr;
use asyncmap_cube::Bits;

/// Truth table of `expr` over `n` local variables, one assignment at a
/// time: bit `m` is the value at the assignment whose variable `v` takes
/// bit `v` of `m`.
pub fn truth_table_of_generic(expr: &Expr, n: usize) -> Bits {
    let mut out = Bits::new(1usize << n);
    for m in 0..1usize << n {
        if expr.eval(&Bits::from_index(n, m)) {
            out.set(m, true);
        }
    }
    out
}

/// `true` iff the `n`-variable table depends on variable `v`: some pair of
/// minterms differing only at `v` differs in value.
pub fn depends_on(truth: &Bits, n: usize, v: usize) -> bool {
    let bit = 1usize << v;
    (0..1usize << n).any(|m| m & bit == 0 && truth.get(m) != truth.get(m | bit))
}

/// Signature of input `v` of an `n`-variable table: the number of onset
/// minterms with `v = 1` in the high half-word, the number with `v = 0` in
/// the low one.
pub fn input_signature(truth: &Bits, n: usize, v: usize) -> u32 {
    let bit = 1usize << v;
    let (mut with, mut without) = (0u32, 0u32);
    for m in (0..1usize << n).filter(|&m| truth.get(m)) {
        if m & bit != 0 {
            with += 1;
        } else {
            without += 1;
        }
    }
    (with << 16) | without
}

/// Moves minterm `m` to the index whose bit `perm[i]` is bit `i` of `m`.
fn permute_index(m: usize, perm: &[usize]) -> usize {
    perm.iter()
        .enumerate()
        .fold(0, |acc, (i, &p)| acc | ((m >> i) & 1) << p)
}

/// `asyncmap_core::truth::apply_perm6` one set minterm at a time: variable
/// `i` of the `n ≤ 6`-variable input table becomes variable `perm[i]` of
/// the result. Bits past `2^n` are ignored.
pub fn apply_perm6_generic(truth: u64, perm: &[usize], n: usize) -> u64 {
    let mask = if n == 6 { !0 } else { (1u64 << (1 << n)) - 1 };
    let mut out = 0u64;
    let mut rest = truth & mask;
    while rest != 0 {
        let m = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        out |= 1u64 << permute_index(m, &perm[..n]);
    }
    out
}

/// `asyncmap_core::truth::apply_perm_wide` one minterm at a time, on a
/// 7–8-variable table in four 64-minterm words.
pub fn apply_perm_wide_generic(words: [u64; 4], perm: &[usize], n: usize) -> [u64; 4] {
    let mut out = [0u64; 4];
    for m in (0..1usize << n).filter(|&m| (words[m >> 6] >> (m & 63)) & 1 == 1) {
        let m2 = permute_index(m, &perm[..n]);
        out[m2 >> 6] |= 1u64 << (m2 & 63);
    }
    out
}

/// The matcher's pin-permutation search on whole truth tables, one
/// minterm at a time: the first `pin_to_local` (pins ascending, locals
/// ascending; pins bound only to locals of equal [`input_signature`])
/// with `cell(x_{σ(0)}, …) = cluster(x_0, …)` over `n` variables.
pub fn permute_match_generic(cell: &Bits, cluster: &Bits, n: usize) -> Option<Vec<usize>> {
    fn search(
        cell: &Bits,
        cluster: &Bits,
        sigs: &[(u32, u32)],
        pin_to_local: &mut Vec<usize>,
    ) -> bool {
        let n = sigs.len();
        if pin_to_local.len() == n {
            return (0..1usize << n).all(|m| {
                let cell_m = pin_to_local
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (p, &l)| acc | ((m >> l) & 1) << p);
                cell.get(cell_m) == cluster.get(m)
            });
        }
        let pin = pin_to_local.len();
        for local in 0..n {
            if pin_to_local.contains(&local) || sigs[pin].0 != sigs[local].1 {
                continue;
            }
            pin_to_local.push(local);
            if search(cell, cluster, sigs, pin_to_local) {
                return true;
            }
            pin_to_local.pop();
        }
        false
    }
    let sigs: Vec<(u32, u32)> = (0..n)
        .map(|v| (input_signature(cell, n, v), input_signature(cluster, n, v)))
        .collect();
    let mut pin_to_local = Vec::with_capacity(n);
    search(cell, cluster, &sigs, &mut pin_to_local).then_some(pin_to_local)
}
