//! Equivalence of the word-parallel truth-table kernels against their
//! minterm-loop references in `asyncmap-oracle`: the blocked truth-table
//! builder, and the delta-swap permuters the match memo canonicalizes
//! with, on one-word (≤ 6 variable) and four-word (7–8 variable) tables.

use asyncmap_core::{truth, truth_table_of};
use asyncmap_oracle::gen::arb_expr;
use asyncmap_oracle::{apply_perm6_generic, apply_perm_wide_generic, truth_table_of_generic};
use proptest::prelude::*;

/// Permutation of `0..n` driven by a proptest byte stream (Fisher–Yates).
fn perm_from_stream(n: usize, stream: &[u8]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = stream[i % stream.len().max(1)] as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #[test]
    fn apply_perm6_matches_generic(
        t in any::<u64>(),
        n in 0usize..7,
        stream in prop::collection::vec(any::<u8>(), 8..9),
    ) {
        let t = t & truth::full_mask(n);
        let perm = perm_from_stream(n, &stream);
        prop_assert_eq!(
            truth::apply_perm6(t, &perm, n),
            apply_perm6_generic(t, &perm, n)
        );
    }

    #[test]
    fn apply_perm_wide_matches_generic(
        words4 in prop::collection::vec(any::<u64>(), 4..5),
        n in 7usize..9,
        stream in prop::collection::vec(any::<u8>(), 8..9),
    ) {
        // Mask to the live minterms: a 7-variable table only uses the
        // lower two words.
        let live = 1usize << n;
        let mut t = [0u64; 4];
        for (w, out) in words4.iter().zip(&mut t) {
            *out = *w;
        }
        for w in t.iter_mut().skip(live / 64) {
            *w = 0;
        }
        let perm = perm_from_stream(n, &stream);
        prop_assert_eq!(
            truth::apply_perm_wide(t, &perm, n),
            apply_perm_wide_generic(t, &perm, n)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truth_tables_agree_small(e in arb_expr(5)) {
        let fast = truth_table_of(&e, 5);
        prop_assert_eq!(&fast, &truth_table_of_generic(&e, 5));
        // The packed u64 table must agree with both.
        prop_assert_eq!(fast.words()[0], truth::truth6_of(&e, 5));
    }

    #[test]
    fn truth_tables_agree_wide(e in arb_expr(8)) {
        prop_assert_eq!(truth_table_of(&e, 8), truth_table_of_generic(&e, 8));
    }
}
