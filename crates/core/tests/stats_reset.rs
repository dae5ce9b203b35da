//! Accumulate-vs-reset semantics of the mapping counters.
//!
//! [`MapStats`] must be per-run: repeated mapping calls on a shared
//! verdict cache (the reused-engine pattern) each report only their own
//! run's hazard checks, memo traffic and phase times, and runs executing
//! concurrently on other threads never leak into each other's counts. A
//! directly-held [`Matcher`], by contrast, accumulates — explicitly, with
//! a snapshot / reset API.
//!
//! The tests here run in parallel with each other on purpose: each one
//! maps or matches while the others do, which is exactly the interference
//! per-run counters must be immune to.

use asyncmap_core::{
    async_tmap_cached, enumerate_clusters, ClusterLimits, HazardCache, HazardPolicy, MapOptions,
    MapStats, Matcher,
};
use asyncmap_cube::{Cover, VarTable};
use asyncmap_library::{builtin, Library};
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use std::sync::{Arc, Barrier};

fn figure3_eqs() -> EquationSet {
    let vars = VarTable::from_names(["a", "b", "c"]);
    let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
    EquationSet::new(vars, vec![("f".to_owned(), f)])
}

#[test]
fn repeated_runs_on_shared_cache_report_per_run_stats() {
    let mut lib = builtin::cmos3();
    lib.annotate_hazards();
    let eqs = figure3_eqs();
    let options = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let cache = Arc::new(HazardCache::new());
    let first = async_tmap_cached(&eqs, &lib, &options, &cache).unwrap();
    let second = async_tmap_cached(&eqs, &lib, &options, &cache).unwrap();
    let third = async_tmap_cached(&eqs, &lib, &options, &cache).unwrap();

    // The same work happens each run (cache warmth changes only the
    // hit/miss split), so identical — not doubled or tripled — counters
    // prove per-run semantics.
    assert!(first.stats.hazard_checks > 0);
    assert_eq!(second.stats.hazard_checks, first.stats.hazard_checks);
    assert_eq!(third.stats.hazard_checks, first.stats.hazard_checks);
    assert_eq!(second.stats.hazard_rejects, first.stats.hazard_rejects);
    assert_eq!(second.stats.npn_hits, first.stats.npn_hits);
    assert_eq!(second.stats.npn_misses, first.stats.npn_misses);
    assert_eq!(third.stats.npn_misses, first.stats.npn_misses);
    assert_eq!(
        second.stats.cache_hits + second.stats.cache_misses,
        second.stats.hazard_checks
    );

    // MapStats must carry the run's phase delta, not the thread's running
    // total. Counts are deterministic per run, so equality (not growth) is
    // the proof.
    for ((phase1, _, count1), (phase3, _, count3)) in first
        .stats
        .phases
        .entries()
        .zip(third.stats.phases.entries())
    {
        assert_eq!(phase1, phase3);
        assert_eq!(
            count1, count3,
            "phase {phase1} count accumulated across runs"
        );
    }
}

#[test]
fn reused_matcher_accumulates_until_reset() {
    let mut lib = builtin::cmos3();
    lib.annotate_hazards();
    let net = async_tech_decomp(&figure3_eqs());
    let cones = partition(&net);
    let clusters = enumerate_clusters(&net, &cones[0], &ClusterLimits::default());

    let matcher = Matcher::new(&lib, HazardPolicy::SubsetCheck);
    assert_eq!(matcher.counters(), Default::default());

    let run = |m: &Matcher<'_>| {
        for cluster_list in clusters.values() {
            for cluster in cluster_list {
                let _ = m.find_matches(cluster);
            }
        }
    };

    run(&matcher);
    let after_one = matcher.counters();
    assert!(after_one.hazard_checks > 0);

    // Second identical pass: counters accumulate on a held matcher...
    run(&matcher);
    let after_two = matcher.counters();
    assert_eq!(after_two.hazard_checks, 2 * after_one.hazard_checks);
    assert_eq!(after_two.hazard_rejects, 2 * after_one.hazard_rejects);
    // ...so the difference of two snapshots isolates the second run.
    assert_eq!(
        after_two.npn_hits + after_two.npn_misses,
        2 * (after_one.npn_hits + after_one.npn_misses)
    );

    // Reset zeroes the accounting without changing matching behavior.
    matcher.reset_counters();
    assert_eq!(matcher.counters(), Default::default());
    run(&matcher);
    let after_reset = matcher.counters();
    assert_eq!(after_reset.hazard_checks, after_one.hazard_checks);
    assert_eq!(after_reset.hazard_rejects, after_one.hazard_rejects);
}

/// The deterministic counters of one run: hazard-filter work, match-memo
/// lookups and per-phase call counts. With `exact_split`, also the memo's
/// and the verdict cache's hit/miss splits — those are only deterministic
/// with one cover worker, since several workers of one run share its memo
/// and cache, and which of them misses a key first depends on scheduling
/// even when the run is alone.
fn run_counts(stats: &MapStats, exact_split: bool) -> Vec<(String, u64)> {
    let mut counts = vec![
        ("hazard_checks".to_owned(), stats.hazard_checks as u64),
        ("hazard_rejects".to_owned(), stats.hazard_rejects as u64),
        (
            "npn_lookups".to_owned(),
            (stats.npn_hits + stats.npn_misses) as u64,
        ),
    ];
    if exact_split {
        counts.push(("npn_hits".to_owned(), stats.npn_hits as u64));
        counts.push(("npn_misses".to_owned(), stats.npn_misses as u64));
        counts.push(("cache_hits".to_owned(), stats.cache_hits as u64));
        counts.push(("cache_misses".to_owned(), stats.cache_misses as u64));
    }
    for (phase, _, calls) in stats.phases.entries() {
        counts.push((format!("{phase} calls"), calls));
    }
    counts
}

/// Two designs mapped at the same time, each with its own verdict cache,
/// report exactly the counts each reports when mapped alone — with one
/// cover worker per run and with four (capped at the machine's cores).
/// Profiler tallies are per thread, and every cover worker hands its own
/// tally back to its run, so neither run sees the other's work.
#[test]
fn concurrent_runs_report_exactly_their_own_counts() {
    let mut lib = builtin::actel();
    lib.annotate_hazards();
    let designs = [
        asyncmap_burst::benchmark("pe-send-ifc"),
        asyncmap_burst::benchmark("dme-fast-opt"),
    ];
    let map = |eqs: &EquationSet, lib: &Library, threads: usize| -> MapStats {
        let options = MapOptions {
            threads,
            ..MapOptions::default()
        };
        let cache = Arc::new(HazardCache::new());
        async_tmap_cached(eqs, lib, &options, &cache)
            .expect("benchmark maps")
            .stats
    };
    for threads in [1, 4] {
        let exact_split = threads == 1;
        let solo: Vec<_> = designs
            .iter()
            .map(|eqs| run_counts(&map(eqs, &lib, threads), exact_split))
            .collect();
        assert!(
            solo.iter().all(|counts| counts[0].1 > 0),
            "both designs check hazards on Actel"
        );
        for round in 0..3 {
            let start = Barrier::new(designs.len());
            let together: Vec<Vec<(String, u64)>> = std::thread::scope(|s| {
                let handles: Vec<_> = designs
                    .iter()
                    .map(|eqs| {
                        let (lib, start) = (&lib, &start);
                        s.spawn(move || {
                            start.wait();
                            run_counts(&map(eqs, lib, threads), exact_split)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("mapping thread panicked"))
                    .collect()
            });
            for (k, (alone, concurrent)) in solo.iter().zip(&together).enumerate() {
                assert_eq!(
                    concurrent, alone,
                    "design {k}, threads {threads}, round {round}: a concurrent run's \
                     counts differ from its solo run's"
                );
            }
        }
    }
}

/// Batched match timing keeps the per-call counts: mapping dean-ctrl to
/// Actel reports the same call count per phase as timing every matched
/// cluster separately did (197,966 matched clusters in 51 cones), and the
/// cut enumerator's size bound leaves few cross-product pairs to screen
/// (13,032,225 without it).
#[test]
fn dean_ctrl_phase_call_counts_are_per_call() {
    let mut lib = builtin::actel();
    lib.annotate_hazards();
    let options = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let cache = Arc::new(HazardCache::new());
    let eqs = asyncmap_burst::benchmark("dean-ctrl");
    let stats = async_tmap_cached(&eqs, &lib, &options, &cache)
        .expect("dean-ctrl maps")
        .stats;
    let calls: Vec<(&str, u64)> = stats
        .phases
        .entries()
        .map(|(phase, _, calls)| (phase, calls))
        .collect();
    assert_eq!(
        calls,
        [
            ("decompose", 1),
            ("partition", 1),
            ("cluster_enum", 51),
            ("match", 197_966),
            ("hazard_check", 46),
            ("cover_select", 51),
            ("dirty_mark", 0),
            ("reuse_stitch", 0),
        ]
    );
    assert!(
        stats.enum_pair_screens < 400_000,
        "{} pair screens",
        stats.enum_pair_screens
    );
}
