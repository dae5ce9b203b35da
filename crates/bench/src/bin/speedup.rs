//! Times the parallel cone-mapping engine and the shared hazard-verdict
//! cache, emitting a machine-readable `BENCH_mapping.json`.
//!
//! Two experiments:
//!
//! * **Parallel covering** — `scsi` (41 cones) and `abcs` (30 cones) on
//!   LSI9K, sequential vs N worker threads. The mapped designs are checked
//!   to be identical (area, delay, instance count) before the numbers are
//!   reported.
//! * **Warm verdict cache** — `pe-send-ifc` on Actel (the hazard-heaviest
//!   pairing: every cover performs hundreds of containment checks), mapped
//!   with a cold cache vs a pre-warmed shared cache via `async_tmap_cached`.
//!   Cache misses equal actual `decide_containment` calls, so the warm
//!   run must show strictly fewer.
//!
//! * **Standalone preflight** — `scsi` on each built-in library: the full
//!   preflight qualification against a sequential `async_tmap`, both on
//!   the same annotated library, sampled alternately. Records
//!   `scsi-{lib}/seq` and `scsi-{lib}/preflight`; the printed ratio is
//!   preflight over map time.
//!
//! * **Generated large design** — a seeded 50 000-gate multi-cone design
//!   from the workload generator (`gen50000-s7`), sequential vs N worker
//!   threads, timed with fewer samples (each map runs orders of magnitude
//!   longer than the built-ins). Same bit-identity check as above.
//!
//! Usage: `speedup [--runs N] [--threads N] [--out PATH]`
//! (defaults: 9 runs, 4 threads, `BENCH_mapping.json`). Every timed
//! configuration is preceded by untimed warm-up runs (see
//! [`asyncmap_bench::WARMUP_RUNS`]) so first-touch page faults and cold
//! allocator arenas never land in a sample.

use asyncmap_bench::{
    design_fingerprint, header, host_cpus, secs, time_median, time_median_pair, write_json,
    BenchRecord, GenSpec,
};
use asyncmap_core::{
    async_tmap, async_tmap_cached, HazardCache, MapOptions, MappedDesign, PhaseTimes,
};
use asyncmap_library::builtin;
use std::sync::Arc;

/// `None` when the run performed no hazard checks: the scsi/abcs × LSI9K
/// pairings never consult the verdict cache, and a hit rate over zero
/// lookups would read as a (misleading) hard zero in the report.
fn hit_rate(d: &MappedDesign) -> Option<f64> {
    let total = d.stats.cache_hits + d.stats.cache_misses;
    (total > 0).then(|| d.stats.cache_hits as f64 / total as f64)
}

/// NPN match-memo hit rate; `None` when the memo is off or unused.
fn npn_rate(d: &MappedDesign) -> Option<f64> {
    let total = d.stats.npn_hits + d.stats.npn_misses;
    (total > 0).then(|| d.stats.npn_hits as f64 / total as f64)
}

fn main() {
    let mut runs = 9usize;
    let mut threads = 4usize;
    let mut out = "BENCH_mapping.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--runs" => runs = value("--runs").parse().expect("bad --runs"),
            "--threads" => threads = value("--threads").parse().expect("bad --threads"),
            "--out" => out = value("--out"),
            other => panic!("unknown argument {other:?} (try --runs/--threads/--out)"),
        }
    }

    let cpus = host_cpus();
    let oversubscribed = cpus < threads;
    if oversubscribed {
        println!(
            "note: host exposes {cpus} CPU(s) but --threads is {threads}; parallel \
             configurations are oversubscribed, so speedup_vs_seq is not reported"
        );
    }
    let mut records = Vec::new();

    header(
        "Parallel cone covering (LSI9K)",
        &format!(
            "{:12} {:>8} {:>12} {:>12} {:>9}",
            "Design", "Cones", "Sequential", "Parallel", "Speedup"
        ),
    );
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    for design in ["scsi", "abcs"] {
        let eqs = asyncmap_burst::benchmark(design);
        let seq_opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };
        let par_opts = MapOptions {
            threads,
            ..MapOptions::default()
        };
        let seq_design = async_tmap(&eqs, &lib, &seq_opts).expect("mappable");
        let par_design = async_tmap(&eqs, &lib, &par_opts).expect("mappable");
        assert_eq!(
            design_fingerprint(&seq_design),
            design_fingerprint(&par_design),
            "{design}: parallel mapping diverged from sequential"
        );
        let (seq_t, par_t) = time_median_pair(
            runs,
            || async_tmap(&eqs, &lib, &seq_opts).expect("mappable"),
            || async_tmap(&eqs, &lib, &par_opts).expect("mappable"),
        );
        let ratio = seq_t.as_secs_f64() / par_t.as_secs_f64().max(1e-9);
        println!(
            "{:12} {:>8} {:>12} {:>12} {:>8.2}x",
            design,
            seq_design.stats.cones,
            secs(seq_t),
            secs(par_t),
            ratio
        );
        if !seq_design.stats.phases.is_zero() {
            for (phase, t, calls) in seq_design.stats.phases.entries() {
                if calls > 0 {
                    println!("  {:18} {:>10.1} ms  {:>8} call(s)", phase, t * 1e3, calls);
                }
            }
        }
        records.push(BenchRecord {
            name: format!("{design}/seq"),
            median: seq_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&seq_design),
            npn_hit_rate: npn_rate(&seq_design),
            phases: seq_design.stats.phases,
            speedup_vs_seq: None,
        });
        records.push(BenchRecord {
            name: format!("{design}/par{threads}"),
            median: par_t,
            threads,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&par_design),
            npn_hit_rate: npn_rate(&par_design),
            phases: par_design.stats.phases,
            speedup_vs_seq: (!oversubscribed).then_some(ratio),
        });
    }

    header(
        "Standalone preflight vs sequential map (scsi)",
        &format!(
            "{:12} {:>12} {:>12} {:>14}",
            "Library", "Map", "Preflight", "Preflight/map"
        ),
    );
    {
        let eqs = asyncmap_burst::benchmark("scsi");
        let seq_opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };
        for mut lib in builtin::all_libraries() {
            lib.annotate_hazards();
            let seq_design = async_tmap(&eqs, &lib, &seq_opts).expect("mappable");
            let (seq_t, pre_t) = time_median_pair(
                runs,
                || async_tmap(&eqs, &lib, &seq_opts).expect("mappable"),
                || asyncmap_preflight::preflight(&eqs, &lib),
            );
            let ratio = pre_t.as_secs_f64() / seq_t.as_secs_f64().max(1e-9);
            println!(
                "{:12} {:>12} {:>12} {:>13.2}x",
                lib.name(),
                secs(seq_t),
                secs(pre_t),
                ratio
            );
            let design = format!("scsi-{}", lib.name().to_ascii_lowercase());
            records.push(BenchRecord {
                name: format!("{design}/seq"),
                median: seq_t,
                threads: 1,
                host_cpus: cpus,
                cache_hit_rate: hit_rate(&seq_design),
                npn_hit_rate: npn_rate(&seq_design),
                phases: seq_design.stats.phases,
                speedup_vs_seq: None,
            });
            records.push(BenchRecord {
                name: format!("{design}/preflight"),
                median: pre_t,
                threads: 1,
                host_cpus: cpus,
                cache_hit_rate: None,
                npn_hit_rate: None,
                phases: PhaseTimes::default(),
                speedup_vs_seq: Some(seq_t.as_secs_f64() / pre_t.as_secs_f64().max(1e-9)),
            });
        }
    }

    header(
        "Generated large design (LSI9K)",
        &format!(
            "{:12} {:>8} {:>12} {:>12} {:>9}",
            "Design", "Cones", "Sequential", "Parallel", "Speedup"
        ),
    );
    {
        let spec = GenSpec {
            target_gates: 50_000,
            inputs: 16,
            seed: 7,
        };
        let eqs = asyncmap_bench::generate(&spec);
        let seq_opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };
        let par_opts = MapOptions {
            threads,
            ..MapOptions::default()
        };
        let seq_design = async_tmap(&eqs, &lib, &seq_opts).expect("mappable");
        let par_design = async_tmap(&eqs, &lib, &par_opts).expect("mappable");
        assert_eq!(
            design_fingerprint(&seq_design),
            design_fingerprint(&par_design),
            "{}: parallel mapping diverged from sequential",
            spec.name()
        );
        // Each map takes seconds, so sample a third as often as the
        // built-ins (at least 3 for a meaningful median).
        let gen_runs = (runs / 3).max(3);
        let (seq_t, par_t) = time_median_pair(
            gen_runs,
            || async_tmap(&eqs, &lib, &seq_opts).expect("mappable"),
            || async_tmap(&eqs, &lib, &par_opts).expect("mappable"),
        );
        let ratio = seq_t.as_secs_f64() / par_t.as_secs_f64().max(1e-9);
        println!(
            "{:12} {:>8} {:>12} {:>12} {:>8.2}x",
            spec.name(),
            seq_design.stats.cones,
            secs(seq_t),
            secs(par_t),
            ratio
        );
        records.push(BenchRecord {
            name: format!("{}/seq", spec.name()),
            median: seq_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&seq_design),
            npn_hit_rate: npn_rate(&seq_design),
            phases: seq_design.stats.phases,
            speedup_vs_seq: None,
        });
        records.push(BenchRecord {
            name: format!("{}/par{threads}", spec.name()),
            median: par_t,
            threads,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&par_design),
            npn_hit_rate: npn_rate(&par_design),
            phases: par_design.stats.phases,
            speedup_vs_seq: (!oversubscribed).then_some(ratio),
        });
    }

    header(
        "Shared hazard-verdict cache (Actel)",
        &format!(
            "{:12} {:>8} {:>8} {:>12} {:>12}",
            "Design", "Checks", "Evals", "Cold", "Warm"
        ),
    );
    let mut actel = builtin::actel();
    actel.annotate_hazards();
    for design in ["pe-send-ifc", "dme"] {
        let eqs = asyncmap_burst::benchmark(design);
        let opts = MapOptions {
            threads: 1,
            ..MapOptions::default()
        };
        // Cold: a fresh cache every run (async_tmap's own behavior).
        let mut cold_design = None;
        let cold_t = time_median(runs, || {
            let d = async_tmap(&eqs, &actel, &opts).expect("mappable");
            cold_design = Some(d);
        });
        let cold_design = cold_design.expect("ran");
        // Warm: one shared cache, pre-warmed by a throwaway run.
        let cache = Arc::new(HazardCache::new());
        let _ = async_tmap_cached(&eqs, &actel, &opts, &cache).expect("mappable");
        let mut warm_design = None;
        let warm_t = time_median(runs, || {
            let d = async_tmap_cached(&eqs, &actel, &opts, &cache).expect("mappable");
            warm_design = Some(d);
        });
        let warm_design = warm_design.expect("ran");
        assert_eq!(
            design_fingerprint(&cold_design),
            design_fingerprint(&warm_design),
            "{design}: warm cache changed the mapped design"
        );
        assert!(
            warm_design.stats.cache_misses < cold_design.stats.cache_misses,
            "{design}: warm run must evaluate strictly fewer hazard subsets \
             (cold {} vs warm {})",
            cold_design.stats.cache_misses,
            warm_design.stats.cache_misses
        );
        println!(
            "{:12} {:>8} {:>3}->{:<3} {:>12} {:>12}",
            design,
            cold_design.stats.hazard_checks,
            cold_design.stats.cache_misses,
            warm_design.stats.cache_misses,
            secs(cold_t),
            secs(warm_t)
        );
        records.push(BenchRecord {
            name: format!("{design}/cold"),
            median: cold_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&cold_design),
            npn_hit_rate: npn_rate(&cold_design),
            phases: cold_design.stats.phases,
            speedup_vs_seq: None,
        });
        records.push(BenchRecord {
            name: format!("{design}/warm"),
            median: warm_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: hit_rate(&warm_design),
            npn_hit_rate: npn_rate(&warm_design),
            phases: warm_design.stats.phases,
            speedup_vs_seq: Some(cold_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-9)),
        });
    }

    write_json(&out, &records).expect("write JSON report");
    println!("\nwrote {} record(s) to {out}", records.len());
}
