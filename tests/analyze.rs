//! End-to-end acceptance tests for the whole-design fundamental-mode
//! analyzer: generated designs analyze clean, and an ECO loop's warm
//! re-analysis reuses nearly every per-cone verdict after a single edit.

use asyncmap::bench::{apply_edits, generate, generate_edits, GenSpec};
use asyncmap::prelude::*;

/// A one-gate edit on a ~1.5k-gate design must leave the warm analysis
/// with at least 90% per-cone reuse: only the edited cone, cones whose
/// cover changed under restitching, and genuinely new shapes re-analyze.
#[test]
fn eco_warm_reanalysis_reuses_at_least_ninety_percent() {
    let mut spec = GenSpec::new(1500);
    spec.seed = 7;
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };

    let base_eqs = generate(&spec);
    let mut session = EcoSession::new(&lib, opts);
    let base = session.map(&base_eqs).expect("base map");

    let mut cache = FmaCache::new();
    let cold = asyncmap::fma::analyze_design_cached(&base.design, &lib, &mut cache);
    assert_eq!(cold.num_errors(), 0, "{}", cold.render());
    assert_eq!(cold.counters.cones_reused, 0, "cold run cannot reuse");

    let edits = generate_edits(&base_eqs, 1, 0xFACADE);
    let edited = apply_edits(&base_eqs, &edits);
    let out = session.map(&edited).expect("eco remap");

    let warm = asyncmap::fma::analyze_design_cached(&out.design, &lib, &mut cache);
    assert_eq!(warm.num_errors(), 0, "{}", warm.render());
    let (reused, total) = (warm.counters.cones_reused, warm.counters.cones);
    assert!(
        reused * 10 >= total * 9,
        "warm analysis reused {reused} of {total} cone(s) (< 90%)"
    );
}
