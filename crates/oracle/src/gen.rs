//! Test-case generators that several suites share. Each keeps the exact
//! parameters of the copies it replaced, so the suites draw the same
//! cases as before.

use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, Cube, Phase, VarId};
use proptest::prelude::*;

/// Variable count of [`arb_cube`] and [`arb_cover`].
pub const NVARS: usize = 4;

prop_compose! {
    /// A non-universal cube over [`NVARS`] variables: each variable is a
    /// literal or absent, in either phase.
    pub fn arb_cube()(used in 1u8..16, phase in 0u8..16) -> Cube {
        let mut lits = Vec::new();
        for v in 0..NVARS {
            if (used >> v) & 1 == 1 {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                lits.push((VarId(v), p));
            }
        }
        Cube::from_literals(NVARS, lits)
    }
}

prop_compose! {
    /// A cover of one to four [`arb_cube`]s.
    pub fn arb_cover()(cubes in prop::collection::vec(arb_cube(), 1..5)) -> Cover {
        Cover::from_cubes(NVARS, cubes)
    }
}

prop_compose! {
    /// A cover over 7 or 8 variables that uses every one of them: each
    /// variable joins one of a few disjoint cubes — in half the cases the
    /// cubes pair up consecutive variables, and in half of those every
    /// literal is negative, the shape of GDT's 7–8-input OAI cells
    /// (`OAI2222` is `a'b' + c'd' + e'f' + g'h'`) — and up to two random
    /// cubes over all variables add overlap.
    pub fn arb_wide_cover()(
        nvars in 7usize..9,
        ncubes in 3usize..6,
        shape in any::<u8>(),
        groups in prop::collection::vec(any::<u8>(), 8..9),
        phase in any::<u8>(),
        extra in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) -> Cover {
        let paired = shape & 1 == 1;
        let phase = if paired && shape & 2 == 2 { 0 } else { phase };
        let mut used = vec![0u8; ncubes.max(4)];
        for (v, &group) in groups.iter().enumerate().take(nvars) {
            let cube = if paired { v / 2 } else { group as usize % ncubes };
            used[cube] |= 1 << v;
        }
        let mut cubes: Vec<(u8, u8)> = used
            .into_iter()
            .filter(|&u| u != 0)
            .map(|u| (u, phase))
            .collect();
        cubes.extend(extra.into_iter().filter(|&(u, _)| u != 0));
        let cubes = cubes.into_iter().map(|(used, phase)| {
            let lits = (0..nvars).filter(|v| (used >> v) & 1 == 1).map(|v| {
                let p = if (phase >> v) & 1 == 1 { Phase::Pos } else { Phase::Neg };
                (VarId(v), p)
            });
            Cube::from_literals(nvars, lits)
        });
        Cover::from_cubes(nvars, cubes.collect())
    }
}

/// Random depth-bounded expression over `nvars` variables, driven by a
/// byte stream so every case is reproducible.
fn expr_from_stream(nvars: usize, stream: &[u8], pos: &mut usize, depth: usize) -> Expr {
    fn next(stream: &[u8], pos: &mut usize, bound: usize) -> usize {
        let b = stream[*pos % stream.len()] as usize;
        *pos += 1;
        b % bound
    }
    if depth == 0 || next(stream, pos, 4) == 0 {
        let v = Expr::Var(VarId(next(stream, pos, nvars)));
        return if next(stream, pos, 2) == 1 {
            v.not()
        } else {
            v
        };
    }
    let arity = 2 + next(stream, pos, 2);
    let args: Vec<Expr> = (0..arity)
        .map(|_| expr_from_stream(nvars, stream, pos, depth - 1))
        .collect();
    if next(stream, pos, 2) == 1 {
        Expr::and(args)
    } else {
        Expr::or(args)
    }
}

prop_compose! {
    /// An AND/OR/literal tree over `nvars` variables, at most three levels
    /// deep.
    pub fn arb_expr(nvars: usize)(stream in prop::collection::vec(any::<u8>(), 32..64)) -> Expr {
        let mut pos = 0;
        expr_from_stream(nvars, &stream, &mut pos, 3)
    }
}

/// A seeded single-output SOP cover over 16 inputs whose cubes draw their
/// literals from a few hot inputs, so that cone leaves are shared between
/// the two fanins of many gates; `None` when the draw is a tautology.
pub fn shared_leaf_sop(seed: u64) -> Option<Cover> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let cubes = (0..8 + next(8))
        .map(|_| {
            let mut used = 0u32;
            let mut lits = Vec::new();
            for _ in 0..2 + next(4) {
                // Half of the literals come from four hot inputs.
                let v = if next(2) == 0 { next(4) } else { next(16) } as usize;
                if used & 1 << v == 0 {
                    used |= 1 << v;
                    let phase = if next(2) == 0 { Phase::Neg } else { Phase::Pos };
                    lits.push((VarId(v), phase));
                }
            }
            Cube::from_literals(16, lits)
        })
        .collect();
    let f = Cover::from_cubes(16, cubes);
    (!f.is_tautology()).then_some(f)
}
