//! Times incremental (ECO) remapping against cold remapping, emitting a
//! machine-readable `BENCH_eco.json`.
//!
//! For each generated design and edit size K, the harness applies K
//! cumulative single-cube edits (see `asyncmap_bench::edit`), then times
//!
//! * **cold** — `async_tmap` of the edited equations from scratch, and
//! * **eco** — `EcoSession::map` of the edited equations on a session
//!   that has already base-mapped the unedited design.
//!
//! Each eco sample runs on a fresh *clone* of the base session (cloned
//! outside the timed region), so no sample sees a store warmed by a
//! previous sample's remap of the same edit. Before any timing, the eco
//! design is checked `design_fingerprint`-identical to the cold design,
//! and on the 50k design the stitched output must additionally pass the
//! independent lint pass and the transformation audit.
//!
//! For one edit on the 50k design it also times each warm checker on a
//! clone of its cache warmed by the base design, with the same
//! discipline: `lint_mapped_design_cached` and `analyze_design_cached` of
//! the remapped design, and `audit_equations_cached` of the edited
//! equations.
//!
//! Usage: `eco [--runs N] [--out PATH] [--large]` (defaults: 9 runs,
//! `BENCH_eco.json`, 50k design only; `--large` adds gen200000-s7).

use asyncmap_audit::{audit_equations_cached, AuditCache};
use asyncmap_bench::{
    apply_edits, design_fingerprint, generate, generate_edits, header, host_cpus, secs,
    time_median, time_median_prepared, write_json, BenchRecord, GenSpec,
};
use asyncmap_core::{async_tmap, EcoSession, MapOptions, PhaseTimes};
use asyncmap_fma::{analyze_design_cached, FmaCache};
use asyncmap_library::builtin;
use asyncmap_lint::{lint_mapped_design_cached, LintCache};

fn main() {
    let mut runs = 9usize;
    let mut out = "BENCH_eco.json".to_owned();
    let mut large = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--runs" => runs = value("--runs").parse().expect("bad --runs"),
            "--out" => out = value("--out"),
            "--large" => large = true,
            other => panic!("unknown argument {other:?} (try --runs/--out/--large)"),
        }
    }

    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let cpus = host_cpus();
    let mut records = Vec::new();

    let mut specs = vec![GenSpec {
        target_gates: 50_000,
        inputs: 16,
        seed: 7,
    }];
    if large {
        specs.push(GenSpec {
            target_gates: 200_000,
            inputs: 16,
            seed: 7,
        });
    }

    header(
        "Incremental (ECO) remapping (LSI9K)",
        &format!(
            "{:16} {:>6} {:>12} {:>12} {:>8} {:>9} {:>9}",
            "Design", "Edits", "Cold", "Eco", "Eco/Cold", "Reused", "Recovered"
        ),
    );
    for spec in &specs {
        let eqs = generate(spec);
        let mut base_session = EcoSession::new(&lib, opts.clone());
        base_session.map(&eqs).expect("base map");
        // Each map runs far longer than the built-in benchmarks; sample a
        // third as often (at least 3 for a meaningful median).
        let gen_runs = (runs / 3).max(3);
        for edit_count in [1usize, 10, 100] {
            // Edit seed varies with the edit count so the three sequences
            // are independent workloads, not prefixes of one another.
            let edits = generate_edits(&eqs, edit_count, 0xEC0 + edit_count as u64);
            let edited = apply_edits(&eqs, &edits);

            let cold_design = async_tmap(&edited, &lib, &opts).expect("mappable");
            let eco_out = base_session.clone().map(&edited).expect("mappable");
            assert_eq!(
                design_fingerprint(&cold_design),
                design_fingerprint(&eco_out.design),
                "{}/edit{edit_count}: eco remap diverged from cold map",
                spec.name()
            );
            let mut checker_records = Vec::new();
            if spec.target_gates <= 50_000 && edit_count == 1 {
                // The reuse-aware verification passes, caches warmed on the
                // base design — the full ECO loop, not just the remap.
                let mut base_lint = LintCache::new();
                let mut base_fma = FmaCache::new();
                let base_design = base_session.clone().map(&eqs).expect("base map").design;
                lint_mapped_design_cached(&base_design, &lib, &mut base_lint);
                analyze_design_cached(&base_design, &lib, &mut base_fma);
                let lint = lint_mapped_design_cached(&eco_out.design, &lib, &mut base_lint.clone());
                let fma = analyze_design_cached(&eco_out.design, &lib, &mut base_fma.clone());
                assert!(
                    fma.is_clean(),
                    "{}: fma rejected the stitched design\n{}",
                    spec.name(),
                    fma.render()
                );
                assert!(
                    lint.is_clean(),
                    "{}: lint rejected the stitched design\n{}",
                    spec.name(),
                    lint.render()
                );
                let mut base_audit = AuditCache::new();
                audit_equations_cached(&eqs, &mut base_audit);
                let audit = audit_equations_cached(&edited, &mut base_audit.clone());
                assert!(
                    audit.is_clean(),
                    "{}: transformation audit rejected the edited pipeline\n{}",
                    spec.name(),
                    audit.render()
                );
                let ac = &audit.counters;
                println!(
                    "{}: stitched design passed lint ({} of {} cone(s) reused), audit \
                     ({} of {} certificate(s) reused) and fma ({} of {} cone(s) reused)",
                    spec.name(),
                    lint.counters.cones_reused,
                    lint.counters.cones,
                    ac.reused_steps + ac.reused_equations + ac.reused_flattens,
                    audit.counters.num_certificates(),
                    fma.counters.cones_reused,
                    fma.counters.cones
                );
                let lint_t = time_median_prepared(
                    gen_runs,
                    || base_lint.clone(),
                    |mut cache| {
                        let report = lint_mapped_design_cached(&eco_out.design, &lib, &mut cache);
                        (cache, report)
                    },
                );
                let audit_t = time_median_prepared(
                    gen_runs,
                    || base_audit.clone(),
                    |mut cache| {
                        let report = audit_equations_cached(&edited, &mut cache);
                        (cache, report)
                    },
                );
                let fma_t = time_median_prepared(
                    gen_runs,
                    || base_fma.clone(),
                    |mut cache| {
                        let report = analyze_design_cached(&eco_out.design, &lib, &mut cache);
                        (cache, report)
                    },
                );
                for (checker, median) in [("lint", lint_t), ("audit", audit_t), ("fma", fma_t)] {
                    println!(
                        "{}: warm {checker} of the edit {}",
                        spec.name(),
                        secs(median)
                    );
                    checker_records.push(BenchRecord {
                        name: format!("{}/eco-{checker}-edit{edit_count}", spec.name()),
                        median,
                        threads: 1,
                        host_cpus: cpus,
                        cache_hit_rate: None,
                        npn_hit_rate: None,
                        phases: PhaseTimes::default(),
                        speedup_vs_seq: None,
                    });
                }
            }

            let cold_t = time_median(gen_runs, || {
                async_tmap(&edited, &lib, &opts).expect("mappable")
            });
            let eco_t = time_median_prepared(
                gen_runs,
                || base_session.clone(),
                |mut session| {
                    let out = session.map(&edited).expect("mappable");
                    (session, out)
                },
            );
            let fraction = eco_t.as_secs_f64() / cold_t.as_secs_f64().max(1e-9);
            println!(
                "{:16} {:>6} {:>12} {:>12} {:>7.1}% {:>9} {:>9}",
                spec.name(),
                edit_count,
                secs(cold_t),
                secs(eco_t),
                fraction * 100.0,
                eco_out.eco.cones_reused,
                eco_out.eco.cones_remapped
            );
            records.push(BenchRecord {
                name: format!("{}/cold-edit{edit_count}", spec.name()),
                median: cold_t,
                threads: 1,
                host_cpus: cpus,
                cache_hit_rate: None,
                npn_hit_rate: None,
                phases: cold_design.stats.phases,
                speedup_vs_seq: None,
            });
            records.push(BenchRecord {
                name: format!("{}/eco-edit{edit_count}", spec.name()),
                median: eco_t,
                threads: 1,
                host_cpus: cpus,
                cache_hit_rate: None,
                npn_hit_rate: None,
                phases: eco_out.design.stats.phases,
                speedup_vs_seq: Some(1.0 / fraction.max(1e-9)),
            });
            records.extend(checker_records);
        }
    }

    write_json(&out, &records).expect("write JSON report");
    println!("\nwrote {} record(s) to {out}", records.len());
}
