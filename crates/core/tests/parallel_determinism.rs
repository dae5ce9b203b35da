//! The parallel cone-mapping engine must be invisible: any thread count
//! (and any verdict-cache warmth) produces exactly the mapped design the
//! sequential mapper produces — same covers, same area, same hazard-filter
//! counters. Cones are disjoint trees and verdicts are deterministic, so
//! the only scheduling-dependent quantity is the cache hit/miss split.
//! The same holds for an incremental [`EcoSession`] across an edit
//! sequence, reuse accounting included.

use asyncmap_core::{
    async_tmap, async_tmap_cached, EcoSession, EcoStats, HazardCache, MapOptions, MappedDesign,
};
use asyncmap_cube::{Cover, VarTable};
use asyncmap_library::{builtin, Library};
use asyncmap_network::EquationSet;
use proptest::prelude::*;
use std::sync::Arc;

const VAR_NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Everything about a mapped design except the cache hit/miss split, which
/// is legitimately scheduling-dependent.
fn fingerprint(d: &MappedDesign) -> (String, u64, u64, usize, usize, usize, usize) {
    (
        format!("{:?}", d.covers),
        d.area.to_bits(),
        d.delay.to_bits(),
        d.stats.hazard_checks,
        d.stats.hazard_rejects,
        d.stats.cones,
        d.stats.buffers,
    )
}

/// Builds an equation set from drawn cube phases: `outputs[k][j][v]` is
/// variable `v`'s phase in cube `j` of output `k` (0 absent, 1 positive,
/// 2 negative). Cubes with no literals are padded to `a`.
fn build_eqs(nvars: usize, outputs: Vec<Vec<Vec<u8>>>) -> EquationSet {
    let vars = VarTable::from_names(VAR_NAMES[..nvars].iter().copied());
    let equations = outputs
        .into_iter()
        .enumerate()
        .map(|(k, cubes)| {
            let sop: Vec<String> = cubes
                .into_iter()
                .map(|phases| {
                    let cube: String = phases
                        .iter()
                        .enumerate()
                        .map(|(v, &p)| match p {
                            1 => VAR_NAMES[v].to_owned(),
                            2 => format!("{}'", VAR_NAMES[v]),
                            _ => String::new(),
                        })
                        .collect();
                    if cube.is_empty() {
                        VAR_NAMES[0].to_owned()
                    } else {
                        cube
                    }
                })
                .collect();
            let text = sop.join(" + ");
            let mut cover = Cover::parse(&text, &vars).expect("generated SOP parses");
            // EquationSet rejects constant outputs; tautologies (e.g.
            // a + a') degrade to a single positive literal.
            if cover.is_tautology() {
                cover = Cover::parse(VAR_NAMES[0], &vars).expect("literal parses");
            }
            (format!("o{k}"), cover)
        })
        .collect();
    EquationSet::new(vars, equations)
}

fn arb_eqs() -> BoxedStrategy<EquationSet> {
    (3usize..6)
        .prop_flat_map(|nvars| {
            let cube = prop::collection::vec(0u8..3u8, nvars..(nvars + 1));
            let output = prop::collection::vec(cube, 1..5);
            prop::collection::vec(output, 1..4).prop_map(move |outputs| build_eqs(nvars, outputs))
        })
        .boxed()
}

/// A base design and the revisions an edit sequence makes of it: each
/// edit replaces one output's cubes, and the edits accumulate.
fn arb_revisions() -> BoxedStrategy<Vec<EquationSet>> {
    (3usize..6)
        .prop_flat_map(|nvars| {
            let cube = prop::collection::vec(0u8..3u8, nvars..(nvars + 1));
            let output = prop::collection::vec(cube, 1..5);
            let base = prop::collection::vec(output.clone(), 2..5);
            let edits = prop::collection::vec((any::<usize>(), output), 1..4);
            (base, edits).prop_map(move |(mut outputs, edits)| {
                let mut revisions = vec![build_eqs(nvars, outputs.clone())];
                for (slot, cubes) in edits {
                    let k = slot % outputs.len();
                    outputs[k] = cubes;
                    revisions.push(build_eqs(nvars, outputs.clone()));
                }
                revisions
            })
        })
        .boxed()
}

/// Maps every revision in order through one fresh session.
fn eco_with(
    revisions: &[EquationSet],
    lib: &Library,
    threads: usize,
) -> Vec<(MappedDesign, EcoStats)> {
    let options = MapOptions {
        threads,
        ..MapOptions::default()
    };
    let mut session = EcoSession::new(lib, options);
    revisions
        .iter()
        .map(|eqs| {
            let out = session.map(eqs).expect("mappable");
            (out.design, out.eco)
        })
        .collect()
}

fn annotated(lib: Library) -> Library {
    let mut lib = lib;
    lib.annotate_hazards();
    lib
}

fn map_with(eqs: &EquationSet, lib: &Library, threads: usize) -> MappedDesign {
    let options = MapOptions {
        threads,
        ..MapOptions::default()
    };
    async_tmap(eqs, lib, &options).expect("mappable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn thread_count_never_changes_the_mapping(eqs in arb_eqs()) {
        let lib = annotated(builtin::cmos3());
        let sequential = map_with(&eqs, &lib, 1);
        for threads in [2usize, 4, 8] {
            let parallel = map_with(&eqs, &lib, threads);
            prop_assert_eq!(
                fingerprint(&sequential),
                fingerprint(&parallel),
                "{} threads diverged from sequential",
                threads
            );
        }
        // threads = 0 (auto) must also agree.
        let auto = map_with(&eqs, &lib, 0);
        prop_assert_eq!(fingerprint(&sequential), fingerprint(&auto));
    }

    #[test]
    fn thread_count_never_changes_an_eco_session(revisions in arb_revisions()) {
        let lib = annotated(builtin::cmos3());
        let sequential = eco_with(&revisions, &lib, 1);
        let parallel = eco_with(&revisions, &lib, 4);
        for ((eqs, (seq, seq_eco)), (par, par_eco)) in
            revisions.iter().zip(&sequential).zip(&parallel)
        {
            prop_assert_eq!(seq_eco, par_eco);
            prop_assert_eq!(fingerprint(seq), fingerprint(par));
            prop_assert_eq!(fingerprint(seq), fingerprint(&map_with(eqs, &lib, 1)));
        }
    }

    #[test]
    fn shared_cache_never_changes_the_mapping(eqs in arb_eqs()) {
        let lib = annotated(builtin::cmos3());
        let fresh = map_with(&eqs, &lib, 1);
        let cache = Arc::new(HazardCache::new());
        let options = MapOptions { threads: 1, ..MapOptions::default() };
        // Two runs on one cache: the second sees only warm verdicts.
        let cold = async_tmap_cached(&eqs, &lib, &options, &cache).expect("mappable");
        let warm = async_tmap_cached(&eqs, &lib, &options, &cache).expect("mappable");
        prop_assert_eq!(fingerprint(&fresh), fingerprint(&cold));
        prop_assert_eq!(fingerprint(&fresh), fingerprint(&warm));
        prop_assert_eq!(warm.stats.cache_misses, 0);
    }
}

#[test]
fn warm_cache_changes_counters_but_not_verdicts() {
    // Actel on dme-fast performs hazard checks that all reject (the
    // library's combinational modules are hazard-rich), so the cache has
    // real verdicts to serve.
    let lib = annotated(builtin::actel());
    let eqs = asyncmap_burst::benchmark("dme-fast");
    let options = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let cache = Arc::new(HazardCache::new());
    let first = async_tmap_cached(&eqs, &lib, &options, &cache).unwrap();
    let second = async_tmap_cached(&eqs, &lib, &options, &cache).unwrap();

    // Identical designs and identical hazard accounting...
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert!(first.stats.hazard_checks > 0);

    // ...but the warm run answered everything from the cache: strictly
    // fewer containment decisions (misses), none at all in fact.
    assert!(first.stats.cache_misses > 0);
    assert_eq!(second.stats.cache_misses, 0);
    assert!(second.stats.cache_misses < first.stats.cache_misses);
    assert_eq!(second.stats.cache_hits, second.stats.hazard_checks);
}

#[test]
fn parallel_mapping_verifies_on_a_real_benchmark() {
    let lib = annotated(builtin::lsi9k());
    let eqs = asyncmap_burst::benchmark("dme");
    let sequential = map_with(&eqs, &lib, 1);
    let parallel = map_with(&eqs, &lib, 4);
    assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
    assert!(parallel.verify_function(&lib));
    assert!(parallel.verify_hazards(&lib));
}
