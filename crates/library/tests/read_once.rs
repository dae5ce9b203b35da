//! The read-once certificate against the full characterization: on random
//! read-once structures, [`Cell::compute_hazards`] (which certifies them
//! in one tree pass) must return exactly the report of `analyze_expr`, and
//! the bit-sliced waveform sweep must find a hazard only where the
//! function itself has one.

use asyncmap_bff::Expr;
use asyncmap_cube::{Bits, VarId, VarTable};
use asyncmap_hazard::{analyze_expr, sweep_words, transition_function_hazard_free, wave_eval_word};
use asyncmap_library::Cell;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random read-once formula over `n` pins (1–8): a random subset of the
/// pins, each used once, under n-ary AND/OR nodes, with inverters at any
/// depth and occasional constant operands.
fn read_once_formula(seed: u64) -> (Expr, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..9usize);
    let mut vars: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        vars.swap(i, rng.random_range(0..i + 1));
    }
    vars.truncate(rng.random_range(1..n + 1));
    (build(&vars, &mut rng), n)
}

fn build(vars: &[usize], rng: &mut StdRng) -> Expr {
    let node = if vars.len() == 1 {
        Expr::Var(VarId(vars[0]))
    } else {
        let parts = rng.random_range(2..vars.len().min(4) + 1);
        let mut cuts: Vec<usize> = (1..vars.len()).collect();
        for i in (1..cuts.len()).rev() {
            cuts.swap(i, rng.random_range(0..i + 1));
        }
        cuts.truncate(parts - 1);
        cuts.sort_unstable();
        let mut children = Vec::with_capacity(parts + 1);
        let mut lo = 0;
        for hi in cuts.into_iter().chain([vars.len()]) {
            children.push(build(&vars[lo..hi], rng));
            lo = hi;
        }
        if rng.random_range(0..6u32) == 0 {
            let at = rng.random_range(0..children.len() + 1);
            children.insert(at, Expr::Const(rng.random()));
        }
        if rng.random() {
            Expr::And(children)
        } else {
            Expr::Or(children)
        }
    };
    match rng.random_range(0..6u32) {
        0 | 1 => node.not(),
        2 => node.not().not(),
        _ => node,
    }
}

fn cell_of(expr: &Expr, n: usize) -> Cell {
    let pins = VarTable::from_names((0..n).map(|i| format!("p{i}")));
    Cell::new("RO", pins, expr.clone(), 1.0, 1.0)
}

fn certificate_matches_the_full_analysis(seed: u64) -> Result<(), TestCaseError> {
    let (expr, n) = read_once_formula(seed);
    prop_assert!(expr.is_read_once());
    let certified = cell_of(&expr, n).compute_hazards();
    let full = analyze_expr(&expr, n);
    prop_assert_eq!(certified.nvars, full.nvars);
    prop_assert_eq!(&certified.static1, &full.static1);
    prop_assert_eq!(&certified.static0, &full.static0);
    prop_assert_eq!(&certified.dynamic_mic, &full.dynamic_mic);
    prop_assert_eq!(&certified.dynamic_sic, &full.dynamic_sic);
    prop_assert_eq!(&certified.flat, &full.flat);
    // The lemma itself: every hazardous lane of the exact per-burst
    // waveform sweep is a function hazard.
    for a in 0..1usize << n {
        for word in 0..sweep_words(n) {
            let mut lanes = wave_eval_word(&expr, n, a, word).hazard;
            while lanes != 0 {
                let b = 64 * word + lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                prop_assert!(
                    !transition_function_hazard_free(
                        &full.flat,
                        &Bits::from_index(n, a),
                        &Bits::from_index(n, b)
                    ),
                    "logic hazard {a:#b} -> {b:#b} on read-once {expr:?}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_once_certificate_equals_analyze_expr(seed in any::<u64>()) {
        certificate_matches_the_full_analysis(seed)?;
    }
}

proptest! {
    // The CI case count: run with `--ignored` in release mode.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "long; CI runs it in release mode"]
    fn read_once_certificate_equals_analyze_expr_at_ci_scale(seed in any::<u64>()) {
        certificate_matches_the_full_analysis(seed)?;
    }
}

#[test]
fn generator_covers_constants_inverters_and_eight_pins() {
    let formulas: Vec<(Expr, usize)> = (0..200).map(read_once_formula).collect();
    assert!(formulas.iter().any(|(_, n)| *n == 8));
    let text: Vec<String> = formulas.iter().map(|(e, _)| format!("{e:?}")).collect();
    assert!(text.iter().any(|t| t.contains("Const")));
    assert!(text.iter().any(|t| t.contains("Not(Not(")));
    assert!(text
        .iter()
        .any(|t| t.contains("Not(And") || t.contains("Not(Or")));
}
