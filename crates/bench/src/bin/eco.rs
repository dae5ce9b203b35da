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
//! For one edit on the 50k design it also times the warm audit:
//! `audit_equations_cached` of the edited equations on a clone of an
//! `AuditCache` warmed by the base design, with the same discipline.
//!
//! Usage: `eco [--runs N] [--out PATH] [--large]` (defaults: 9 runs,
//! `BENCH_eco.json`, 50k design only; `--large` adds gen200000-s7).

use asyncmap_audit::{audit_equations_cached, AuditCache};
use asyncmap_bench::{
    apply_edits, design_fingerprint, generate, generate_edits, header, host_cpus, secs,
    time_median, write_json, BenchRecord, GenSpec, WARMUP_RUNS,
};
use asyncmap_core::{async_tmap, EcoSession, MapOptions, PhaseTimes};
use asyncmap_library::builtin;
use std::time::{Duration, Instant};

/// Median over `runs` timed executions of `f`, where each execution gets
/// a fresh value from `setup` built *outside* the timed region. The
/// standard `time_median` cannot express this: cloning an [`EcoSession`]
/// (its cover store is a few thousand entries on gen50000) inside the
/// timer would bill the eco path for work the cold path doesn't do —
/// and reusing one session across samples would let sample 1 warm the
/// store for samples 2..N.
fn time_median_prepared<S, T>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> Duration {
    assert!(runs > 0);
    for _ in 0..WARMUP_RUNS {
        std::hint::black_box(f(setup()));
    }
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let s = setup();
            let t = Instant::now();
            let out = std::hint::black_box(f(s));
            let dt = t.elapsed();
            // Free the sample's outputs (the remapped design and the
            // cloned session's store) outside the timed region — an
            // interactive ECO flow keeps both alive, it doesn't tear them
            // down once per edit.
            drop(out);
            dt
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

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
            let mut audit_record = None;
            if spec.target_gates <= 50_000 && edit_count == 1 {
                // The reuse-aware verification passes, caches warmed on the
                // base design — the full ECO loop, not just the remap.
                let mut lint_cache = asyncmap_lint::LintCache::new();
                let base_design = base_session.clone().map(&eqs).expect("base map").design;
                asyncmap_lint::lint_mapped_design_cached(&base_design, &lib, &mut lint_cache);
                let lint = asyncmap_lint::lint_mapped_design_cached(
                    &eco_out.design,
                    &lib,
                    &mut lint_cache,
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
                    "{}: stitched design passed lint ({} of {} cone(s) reused) and audit \
                     ({} of {} certificate(s) reused)",
                    spec.name(),
                    lint.counters.cones_reused,
                    lint.counters.cones,
                    ac.reused_steps + ac.reused_equations + ac.reused_flattens,
                    audit.counters.num_certificates()
                );
                let audit_t = time_median_prepared(
                    gen_runs,
                    || base_audit.clone(),
                    |mut cache| {
                        let report = audit_equations_cached(&edited, &mut cache);
                        (cache, report)
                    },
                );
                println!("{}: warm audit of the edit {}", spec.name(), secs(audit_t));
                audit_record = Some(BenchRecord {
                    name: format!("{}/eco-audit-edit{edit_count}", spec.name()),
                    median: audit_t,
                    threads: 1,
                    host_cpus: cpus,
                    cache_hit_rate: None,
                    npn_hit_rate: None,
                    phases: PhaseTimes::default(),
                    speedup_vs_seq: None,
                });
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
            records.extend(audit_record);
        }
    }

    write_json(&out, &records).expect("write JSON report");
    println!("\nwrote {} record(s) to {out}", records.len());
}
