//! Equivalence of the delta-swap truth-table permuters the match memo
//! canonicalizes with against their minterm-loop oracles, on one-word
//! (≤ 6 variable) and four-word (7–8 variable) tables.

use asyncmap_core::truth;
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
            truth::apply_perm6_generic(t, &perm, n)
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
            truth::apply_perm_wide_generic(t, &perm, n)
        );
    }
}
