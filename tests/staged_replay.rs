//! The mapping flow replayed stage by stage through the public API —
//! `async_tech_decomp` → `partition` → `Matcher::with_cache` +
//! `cover_cone_with` per cone → `assemble` — gives the same design as
//! `async_tmap`, by `bench::design_fingerprint` (area and delay bits,
//! instance count, hazard rejects). A traced benchmark run maps this way
//! so that each stage is timed on its own, and counts any fingerprint
//! difference as a wrong output.

use asyncmap::bench::{design_fingerprint, emit_design, generate, parse_design, GenSpec};
use asyncmap::mapper::{assemble, cover_cone_with, HazardCache, HazardPolicy, MapStats, Matcher};
use asyncmap::network::{async_tech_decomp, partition};
use asyncmap::prelude::*;
use std::sync::Arc;

fn staged_map(eqs: &EquationSet, lib: &Library) -> MappedDesign {
    let options = MapOptions::default();
    let subject = async_tech_decomp(eqs);
    let cones = partition(&subject);
    let cache = Arc::new(HazardCache::new());
    let matcher = Matcher::with_cache(lib, HazardPolicy::SubsetCheck, Arc::clone(&cache));
    let covers: Vec<_> = cones
        .iter()
        .map(|cone| {
            cover_cone_with(&subject, cone, &matcher, &options.limits, options.objective)
                .expect("every cone covers")
        })
        .collect();
    let m = matcher.counters();
    let stats = MapStats {
        hazard_checks: m.hazard_checks,
        hazard_rejects: m.hazard_rejects,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        npn_hits: m.npn_hits,
        npn_misses: m.npn_misses,
        cut_truncations: covers.iter().map(|c| c.cut_truncations).sum(),
        ..MapStats::default()
    };
    assemble(lib, subject, cones, covers, stats, options.add_buffers)
}

fn assert_replay_matches(name: &str, eqs: &EquationSet, lib: &Library) {
    let whole = async_tmap(eqs, lib, &MapOptions::default()).expect("async_tmap maps");
    let staged = staged_map(eqs, lib);
    assert_eq!(
        design_fingerprint(&staged),
        design_fingerprint(&whole),
        "{name} × {}: staged replay differs from async_tmap",
        lib.name()
    );
}

#[test]
fn staged_replay_matches_async_tmap() {
    let mut libs = builtin::all_libraries();
    for lib in &mut libs {
        lib.annotate_hazards();
    }
    let benchmarks = asyncmap::burst::all_benchmarks();
    assert_eq!(benchmarks.len(), 11);
    for (name, eqs) in &benchmarks {
        for lib in &libs {
            assert_replay_matches(name, eqs, lib);
        }
    }
    // Generated designs as the benchmark's gen-flow workload loads them:
    // emitted as text and parsed back.
    let lsi9k = libs.iter().find(|l| l.name() == "LSI9K").expect("LSI9K");
    for seed in [3, 11] {
        let spec = GenSpec {
            target_gates: 250,
            inputs: 16,
            seed,
        };
        let eqs = parse_design(&emit_design(&generate(&spec)));
        assert_replay_matches(&spec.name(), &eqs, lsi9k);
    }
}
