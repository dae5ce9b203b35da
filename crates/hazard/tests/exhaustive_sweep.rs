//! The bit-sliced exhaustive containment sweep against the plain
//! per-transition loop it replaces: one `wave_eval` per ordered pair of
//! distinct assignments, written out here as the reference. The compiled
//! block evaluator underneath is also checked burst by burst, and the one
//! containment decision built on the sweep (`decide_containment`) against
//! the sweep below its limit and the independent analyses above it.

use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, VarId};
use asyncmap_hazard::{
    analyze_expr, containment_witness, decide_containment, hazards_subset_exhaustive,
    product_estimate, sweep_words, wave_eval, wave_eval_word, Containment, Lanes, Lanes256,
    PartialReason, Wave, WaveProgram, BLOCK_BURSTS, EXHAUSTIVE_VAR_LIMIT, FLATTEN_REPLAY_CAP,
};
use asyncmap_oracle::{hazards_subset_guided, reverify_containment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `hazards(candidate) ⊆ hazards(reference)`, one transition at a time.
fn subset_per_transition(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    for a in 0..1usize << nvars {
        let from = Bits::from_index(nvars, a);
        for b in 0..1usize << nvars {
            if a == b {
                continue;
            }
            let to = Bits::from_index(nvars, b);
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
        let from_bits = Bits::from_index(nvars, from);
        for word in 0..sweep_words(nvars) {
            let planes = wave_eval_word(&expr, nvars, from, word);
            for lane in 0..64.min(1 << nvars) {
                let to = Bits::from_index(nvars, 64 * word + lane);
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
                wave_eval(&expr, &Bits::from_index(nvars, from), &Bits::from_index(nvars, to))
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

/// `decide_containment` is the sweep below its limit: `Holds` iff the
/// sweep finds no escaping burst, else `Refuted` with the sweep's first
/// escaping burst.
fn decision_is_the_sweep(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    let expected = match containment_witness(candidate, reference, nvars) {
        None => Containment::Holds,
        witness => Containment::Refuted(witness),
    };
    decide_containment(candidate, reference, nvars) == expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn decision_matches_the_sweep_both_ways(nvars in 1usize..9, seed: u64) {
        let (candidate, reference) = random_pair(nvars, seed);
        prop_assert!(decision_is_the_sweep(&candidate, &reference, nvars));
        prop_assert!(decision_is_the_sweep(&reference, &candidate, nvars));
    }

    #[test]
    fn identical_wide_structures_hold(nvars in 9usize..13, seed: u64) {
        let (expr, _) = random_pair(nvars, seed);
        prop_assert_eq!(
            decide_containment(&expr, &expr.clone(), nvars),
            Containment::Holds
        );
    }

    #[test]
    fn wide_refutations_are_confirmed(nvars in 9usize..13, seed: u64) {
        // Above the sweep's limit a refutation must be one the independent
        // analyses share: the ladder (whose verdict there is the guided
        // comparison) rejects too.
        let (candidate, reference) = random_pair(nvars, seed);
        for (c, r) in [(&candidate, &reference), (&reference, &candidate)] {
            if let Containment::Refuted(witness) = decide_containment(c, r, nvars) {
                prop_assert_eq!(witness, None);
                prop_assert!(!reverify_containment(c, r, nvars).accepted());
                prop_assert!(!hazards_subset_guided(&analyze_expr(c, nvars), c, r, nvars));
            }
        }
    }
}

#[test]
fn decision_reaches_both_verdicts_at_every_width() {
    for nvars in 1..=EXHAUSTIVE_VAR_LIMIT {
        let verdicts: Vec<Containment> = (200..240)
            .map(|seed| {
                let (c, r) = random_pair(nvars, seed);
                assert!(decision_is_the_sweep(&c, &r, nvars), "n = {nvars}");
                decide_containment(&c, &r, nvars)
            })
            .collect();
        assert!(
            verdicts.contains(&Containment::Holds),
            "no hold at n = {nvars}"
        );
        assert!(
            verdicts
                .iter()
                .any(|v| matches!(v, Containment::Refuted(Some(_)))),
            "no refutation at n = {nvars}"
        );
    }
}

/// Variable `i` as an expression.
fn var(i: usize) -> Expr {
    Expr::Var(VarId(i))
}

/// The OR of variables `from..to`, as one flat gate.
fn or_range(from: usize, to: usize) -> Expr {
    Expr::Or((from..to).map(var).collect())
}

#[test]
fn wide_pairs_reach_every_partial_reason_and_a_refutation() {
    let n = 9;
    // Regrouping a flat OR: same flattening, different structure.
    let regrouped = Expr::Or(vec![or_range(0, 5), or_range(5, n)]);
    assert_eq!(
        decide_containment(&regrouped, &or_range(0, n), n),
        Containment::Partial(PartialReason::SameFlattening)
    );

    // Figure 3 padded to nine variables: the consensus cube bc is what
    // keeps the static-1 transition between ab and a'c clean.
    let (a, b, c) = (var(0), var(1), var(2));
    let rest = or_range(3, n);
    let pruned = Expr::Or(vec![
        Expr::And(vec![a.clone(), b.clone()]),
        Expr::And(vec![a.clone().not(), c.clone()]),
        rest.clone(),
    ]);
    let full = Expr::Or(vec![
        Expr::And(vec![a.clone(), b.clone()]),
        Expr::And(vec![a.not(), c.clone()]),
        Expr::And(vec![b, c]),
        rest,
    ]);
    assert_eq!(
        decide_containment(&full, &pruned, n),
        Containment::Partial(PartialReason::Static1Only)
    );
    assert_eq!(
        decide_containment(&pruned, &full, n),
        Containment::Refuted(None)
    );
    assert!(!reverify_containment(&pruned, &full, n).accepted());

    // Thirteen two-variable sums distribute to 2^13 products, past the
    // flatten replay cap on either side.
    let sums: Vec<Expr> = (0..13)
        .map(|i| Expr::Or(vec![var(i % n), var((i + 1) % n)]))
        .collect();
    let product = Expr::And(sums.clone());
    let regrouped = Expr::And(vec![
        Expr::And(sums[..6].to_vec()),
        Expr::And(sums[6..].to_vec()),
    ]);
    assert_eq!(
        decide_containment(&regrouped, &product, n),
        Containment::Partial(PartialReason::OverReplayCap)
    );

    // Twelve sums give 2^12 products on each side: within the cap one
    // side at a time, over it as a pair.
    let product = Expr::And(sums[..12].to_vec());
    let regrouped = Expr::And(vec![
        Expr::And(sums[..6].to_vec()),
        Expr::And(sums[6..12].to_vec()),
    ]);
    assert_eq!(product_estimate(&product), FLATTEN_REPLAY_CAP);
    assert_eq!(product_estimate(&regrouped), FLATTEN_REPLAY_CAP);
    assert_eq!(
        decide_containment(&regrouped, &product, n),
        Containment::Partial(PartialReason::OverReplayCap)
    );
}
