//! The bit-sliced exhaustive containment sweep against the plain
//! per-transition loop it replaces: one `wave_eval` per ordered pair of
//! distinct assignments, written out here as the reference. The compiled
//! block evaluator underneath is also checked burst by burst.

use asyncmap_bff::Expr;
use asyncmap_cube::VarId;
use asyncmap_hazard::oracle::index_bits;
use asyncmap_hazard::{
    hazards_subset_exhaustive, sweep_words, wave_eval, wave_eval_word, Lanes, Lanes256, Wave,
    WaveProgram, BLOCK_BURSTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `hazards(candidate) ⊆ hazards(reference)`, one transition at a time.
fn subset_per_transition(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    for a in 0..1usize << nvars {
        let from = index_bits(nvars, a);
        for b in 0..1usize << nvars {
            if a == b {
                continue;
            }
            let to = index_bits(nvars, b);
            if wave_eval(candidate, &from, &to).hazard && !wave_eval(reference, &from, &to).hazard {
                return false;
            }
        }
    }
    true
}

/// Random tree over the first `used` of `nvars` variables: constant
/// leaves, literals, AND/OR gates of one to three children (single-child
/// gates kept as such, not simplified away) and complemented gates.
fn random_expr(rng: &mut StdRng, used: usize, depth: usize) -> Expr {
    if depth == 0 || rng.random_range(0..4) == 0 {
        return match rng.random_range(0..10) {
            0 => Expr::Const(rng.random::<bool>()),
            _ => {
                let v = Expr::Var(VarId(rng.random_range(0..used)));
                if rng.random::<bool>() {
                    v.not()
                } else {
                    v
                }
            }
        };
    }
    let arity = rng.random_range(1..4);
    let children = (0..arity)
        .map(|_| random_expr(rng, used, depth - 1))
        .collect();
    let gate = if rng.random::<bool>() {
        Expr::And(children)
    } else {
        Expr::Or(children)
    };
    if rng.random_range(0..4) == 0 {
        gate.not()
    } else {
        gate
    }
}

/// A candidate/reference pair over `nvars` variables. Half the pairs
/// share the candidate's structure inside the reference (which keeps
/// accepting verdicts common); some leave the top variable unused.
fn random_pair(nvars: usize, seed: u64) -> (Expr, Expr) {
    let mut rng = StdRng::seed_from_u64(seed);
    let used = if nvars > 1 && rng.random_range(0..4) == 0 {
        nvars - 1
    } else {
        nvars
    };
    let candidate = random_expr(&mut rng, used, 3);
    let reference = if rng.random::<bool>() {
        let other = random_expr(&mut rng, used, 2);
        if rng.random::<bool>() {
            Expr::Or(vec![candidate.clone(), other])
        } else {
            Expr::And(vec![other, candidate.clone()])
        }
    } else {
        random_expr(&mut rng, used, 3)
    };
    (candidate, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_matches_per_transition_loop(nvars in 1usize..9, seed: u64) {
        let (candidate, reference) = random_pair(nvars, seed);
        prop_assert_eq!(
            hazards_subset_exhaustive(&candidate, &reference, nvars),
            subset_per_transition(&candidate, &reference, nvars),
            "{:?} ⊆ {:?} over {} variables", candidate, reference, nvars
        );
        prop_assert_eq!(
            hazards_subset_exhaustive(&reference, &candidate, nvars),
            subset_per_transition(&reference, &candidate, nvars),
            "{:?} ⊆ {:?} over {} variables", reference, candidate, nvars
        );
    }

    #[test]
    fn word_lanes_match_wave_eval(nvars in 1usize..9, seed: u64, from_seed: u64) {
        let (expr, _) = random_pair(nvars, seed);
        let from = (from_seed as usize) % (1 << nvars);
        let from_bits = index_bits(nvars, from);
        for word in 0..sweep_words(nvars) {
            let planes = wave_eval_word(&expr, nvars, from, word);
            for lane in 0..64.min(1 << nvars) {
                let to = index_bits(nvars, 64 * word + lane);
                prop_assert_eq!(planes.lane(lane), wave_eval(&expr, &from_bits, &to));
            }
        }
    }
}

#[test]
fn sample_reaches_both_verdicts_at_every_width() {
    // The generator behind the property must exercise accepting and
    // rejecting sweeps alike, or agreement would prove little.
    for nvars in 1..=8 {
        let verdicts: Vec<bool> = (0..40)
            .map(|seed| {
                let (c, r) = random_pair(nvars, seed);
                let verdict = hazards_subset_exhaustive(&c, &r, nvars);
                assert_eq!(verdict, subset_per_transition(&c, &r, nvars));
                verdict
            })
            .collect();
        assert!(verdicts.contains(&true), "no accepted pair at n = {nvars}");
        assert!(verdicts.contains(&false), "no rejected pair at n = {nvars}");
    }
}

/// `hazards(candidate) ⊆ hazards(reference)` read off the compiled
/// programs' blocks directly.
fn subset_by_blocks(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    let (c, r) = (
        WaveProgram::compile(candidate, nvars),
        WaveProgram::compile(reference, nvars),
    );
    let mut stack = Vec::new();
    (0..c.blocks()).all(|block| {
        let escaped =
            c.eval_block(block, &mut stack).hazard & !r.eval_block(block, &mut stack).hazard;
        escaped == Lanes256::ZERO
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn block_lanes_match_wave_eval(nvars in 1usize..9, seed: u64, block_seed: u64) {
        // Burst `b = (from << n) | to` in lane `b % 256` of block
        // `b / 256`; below four variables the lanes past `4^n` are dead
        // and read as clean constant 0.
        let (expr, _) = random_pair(nvars, seed);
        let program = WaveProgram::compile(&expr, nvars);
        let block = (block_seed as usize) % program.blocks();
        let planes = program.eval_block(block, &mut Vec::new());
        for lane in 0..BLOCK_BURSTS {
            let burst = BLOCK_BURSTS * block + lane;
            let want = if burst < 1 << (2 * nvars) {
                let (from, to) = (burst >> nvars, burst & ((1 << nvars) - 1));
                wave_eval(&expr, &index_bits(nvars, from), &index_bits(nvars, to))
            } else {
                Wave::C0
            };
            prop_assert_eq!(planes.lane(lane), want, "{:?} over {}: burst {}", expr, nvars, burst);
        }
    }
}

#[test]
fn block_sweep_reaches_both_verdicts_at_every_width() {
    // The verdict read off the blocks equals the per-transition loop's,
    // and both verdicts occur at every width, odd ones included.
    for nvars in 1..=8 {
        let verdicts: Vec<bool> = (100..140)
            .map(|seed| {
                let (c, r) = random_pair(nvars, seed);
                let verdict = subset_by_blocks(&c, &r, nvars);
                assert_eq!(verdict, subset_per_transition(&c, &r, nvars), "n = {nvars}");
                verdict
            })
            .collect();
        assert!(verdicts.contains(&true), "no accepted pair at n = {nvars}");
        assert!(verdicts.contains(&false), "no rejected pair at n = {nvars}");
    }
}
