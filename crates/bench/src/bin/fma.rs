//! Times the whole-design fundamental-mode analyzer cold against an
//! ECO-warmed re-analysis, emitting a machine-readable `BENCH_fma.json`.
//!
//! The harness base-maps the generated design, analyzes it cold, applies
//! one single-cube edit, remaps incrementally, and times
//!
//! * **cold** — `analyze_design` of the remapped design with no cache, and
//! * **warm** — `analyze_design_cached` with an [`FmaCache`] already
//!   holding the base design's per-cone verdicts.
//!
//! Each warm sample runs on a fresh *clone* of the base-warmed cache
//! (cloned outside the timed region), so no sample sees verdicts that a
//! previous sample of the same edit added. Before any timing, both
//! analyses must report zero errors, and the warm run must reuse at least
//! 90% of the per-cone results — the acceptance bar for the ECO loop.
//! The per-cone reuse rate lands in the record's `cache_hit_rate`.
//!
//! Usage: `fma [--runs N] [--out PATH]` (defaults: 9 runs,
//! `BENCH_fma.json`).

use asyncmap_bench::{
    apply_edits, generate, generate_edits, header, host_cpus, secs, time_median,
    time_median_prepared, write_json, BenchRecord, GenSpec,
};
use asyncmap_core::{EcoSession, MapOptions};
use asyncmap_fma::{analyze_design, analyze_design_cached, FmaCache};
use asyncmap_library::builtin;

fn main() {
    let mut runs = 9usize;
    let mut out = "BENCH_fma.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--runs" => runs = value("--runs").parse().expect("bad --runs"),
            "--out" => out = value("--out"),
            other => panic!("unknown argument {other:?} (try --runs/--out)"),
        }
    }

    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let cpus = host_cpus();
    let spec = GenSpec {
        target_gates: 50_000,
        inputs: 16,
        seed: 7,
    };

    let eqs = generate(&spec);
    let mut session = EcoSession::new(&lib, opts);
    let base = session.map(&eqs).expect("base map");

    // Warm one cache on the base design; every warm sample clones it.
    let mut base_cache = FmaCache::new();
    let base_report = analyze_design_cached(&base.design, &lib, &mut base_cache);
    assert_eq!(
        base_report.num_errors(),
        0,
        "{}: base design must analyze clean\n{}",
        spec.name(),
        base_report.render()
    );

    let edits = generate_edits(&eqs, 1, 0xF3A);
    let edited = apply_edits(&eqs, &edits);
    let eco = session.map(&edited).expect("eco remap");

    let cold = analyze_design(&eco.design, &lib);
    assert_eq!(cold.num_errors(), 0, "{}", cold.render());
    let warm = analyze_design_cached(&eco.design, &lib, &mut base_cache.clone());
    assert_eq!(warm.num_errors(), 0, "{}", warm.render());
    let (reused, total) = (warm.counters.cones_reused, warm.counters.cones);
    assert!(
        reused * 10 >= total * 9,
        "{}: warm analysis reused {reused} of {total} cone(s) (< 90%)",
        spec.name()
    );
    let reuse_rate = reused as f64 / total.max(1) as f64;

    let cold_t = time_median(runs, || analyze_design(&eco.design, &lib));
    let warm_t = time_median_prepared(
        runs,
        || base_cache.clone(),
        |mut cache| analyze_design_cached(&eco.design, &lib, &mut cache),
    );
    let fraction = warm_t.as_secs_f64() / cold_t.as_secs_f64().max(1e-9);

    header(
        "Fundamental-mode analysis, cold vs ECO-warm (LSI9K)",
        &format!(
            "{:16} {:>12} {:>12} {:>10} {:>12}",
            "Design", "Cold", "Warm", "Warm/Cold", "Reused"
        ),
    );
    println!(
        "{:16} {:>12} {:>12} {:>9.1}% {:>7}/{:<4}",
        spec.name(),
        secs(cold_t),
        secs(warm_t),
        fraction * 100.0,
        reused,
        total
    );

    let records = vec![
        BenchRecord {
            name: format!("{}/analyze-cold", spec.name()),
            median: cold_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: None,
            npn_hit_rate: None,
            phases: Default::default(),
            speedup_vs_seq: None,
        },
        BenchRecord {
            name: format!("{}/analyze-warm-edit1", spec.name()),
            median: warm_t,
            threads: 1,
            host_cpus: cpus,
            cache_hit_rate: Some(reuse_rate),
            npn_hit_rate: None,
            phases: Default::default(),
            speedup_vs_seq: Some(1.0 / fraction.max(1e-9)),
        },
    ];
    write_json(&out, &records).expect("write JSON report");
    println!("\nwrote {} record(s) to {out}", records.len());
}
