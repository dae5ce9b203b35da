//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! 1. hazard filtering on vs off in matching (quality + runtime cost);
//! 2. the paper's single-pass static-1 analysis vs the complete closure;
//! 3. eager (load-time) vs lazy (first-use) library hazard annotation;
//! 4. cluster depth bound sweep (the paper's tables fix depth = 5).

use asyncmap_bench::{header, secs, time_median};
use asyncmap_core::{async_tmap, tmap, ClusterLimits, MapOptions};
use asyncmap_cube::Cover;
use asyncmap_hazard::{static_1_analysis, static_1_complete};
use std::time::Instant;

fn main() {
    hazard_filter_ablation();
    static1_ablation();
    annotation_ablation();
    depth_sweep();
    hazard_dont_care();
}

fn hazard_dont_care() {
    header(
        "Ablation 5: hazard don't-cares (paper §6 future work) — protect only the specified bursts",
        &format!(
            "{:13} {:>10} {:>10} {:>10} {:>8}",
            "Design", "async area", "hdc area", "saving", "bursts"
        ),
    );
    let mut lib = asyncmap_library::builtin::actel();
    lib.annotate_hazards();
    for name in ["dme", "dme-fast-opt", "pe-send-ifc"] {
        let (eqs, transitions) = asyncmap_burst::benchmark_with_transitions(name);
        let opts = MapOptions::default();
        let asy = async_tmap(&eqs, &lib, &opts).expect("mappable");
        let hdc = asyncmap_core::hdc_tmap(&eqs, &lib, &opts, &transitions).expect("mappable");
        assert!(hdc.verify_function(&lib));
        assert!(hdc.verify_hazards_on(&lib, &transitions));
        // Contrast: protecting nothing recovers the synchronous freedom.
        let free = asyncmap_core::hdc_tmap(&eqs, &lib, &opts, &[]).expect("mappable");
        println!(
            "{:13} {:>10.0} {:>10.0} {:>9.1}% {:>8}   (unprotected: {:.0})",
            name,
            asy.area,
            hdc.area,
            100.0 * (asy.area - hdc.area) / asy.area,
            transitions.len(),
            free.area
        );
    }
    println!("0% saving = every specified burst really exercises the rejected cells' hazards;");
    println!("the unprotected column shows the area the don't-cares could recover.");
}

fn hazard_filter_ablation() {
    header(
        "Ablation 1: hazard filter on/off (Actel, hazardous-rich library)",
        &format!(
            "{:13} {:>10} {:>10} {:>10} {:>10}",
            "Design", "sync area", "async area", "sync t", "async t"
        ),
    );
    let mut lib = asyncmap_library::builtin::actel();
    lib.annotate_hazards();
    for name in ["dme", "dme-fast-opt", "pe-send-ifc"] {
        let eqs = asyncmap_burst::benchmark(name);
        let opts = MapOptions::default();
        let t = Instant::now();
        let sync = tmap(&eqs, &lib, &opts).expect("mappable");
        let ts = t.elapsed();
        let t = Instant::now();
        let asy = async_tmap(&eqs, &lib, &opts).expect("mappable");
        let ta = t.elapsed();
        println!(
            "{:13} {:>10.0} {:>10.0} {:>10} {:>10}",
            name,
            sync.area,
            asy.area,
            secs(ts),
            secs(ta)
        );
    }
}

fn static1_ablation() {
    header(
        "Ablation 2: single-pass vs complete static-1 analysis",
        &format!(
            "{:13} {:>8} {:>12} {:>12} {:>9}",
            "Design", "cubes", "single-pass", "complete", "agree?"
        ),
    );
    for name in ["dme", "pe-send-ifc", "abcs"] {
        let eqs = asyncmap_burst::benchmark(name);
        let covers: Vec<&Cover> = eqs.equations.iter().map(|(_, c)| c).collect();
        let t_single = time_median(3, || {
            covers
                .iter()
                .map(|c| static_1_analysis(c).len())
                .sum::<usize>()
        });
        let t_complete = time_median(3, || {
            covers
                .iter()
                .map(|c| static_1_complete(c).len())
                .sum::<usize>()
        });
        let agree = covers
            .iter()
            .all(|c| static_1_analysis(c).is_empty() == static_1_complete(c).is_empty());
        println!(
            "{:13} {:>8} {:>12} {:>12} {:>9}",
            name,
            eqs.num_cubes(),
            secs(t_single),
            secs(t_complete),
            agree
        );
    }
}

fn annotation_ablation() {
    header(
        "Ablation 3: eager vs lazy hazard annotation (GDT, slowest library)",
        &format!("{:28} {:>12}", "Strategy", "Time"),
    );
    let eager = time_median(3, || {
        let mut lib = asyncmap_library::builtin::gdt();
        lib.annotate_hazards();
        lib.len()
    });
    // Lazy: only the cells a small design's matcher actually touches would
    // be analyzed; upper-bounded here by annotating the hazardous subset
    // discovered on demand (GDT has none, so lazy ≈ construction cost).
    let lazy = time_median(3, || asyncmap_library::builtin::gdt().len());
    println!("{:28} {:>12}", "eager (paper's choice)", secs(eager));
    println!("{:28} {:>12}", "lazy (construction only)", secs(lazy));
    println!("eager pays once per library; lazy re-pays per design run");
}

fn depth_sweep() {
    header(
        "Ablation 4: cluster depth bound (async, LSI9K, design dme)",
        &format!(
            "{:>6} {:>10} {:>10} {:>10}",
            "depth", "area", "delay", "time"
        ),
    );
    let mut lib = asyncmap_library::builtin::lsi9k();
    lib.annotate_hazards();
    let eqs = asyncmap_burst::benchmark("dme");
    for depth in [2, 3, 4, 5, 6] {
        let opts = MapOptions {
            limits: ClusterLimits { max_depth: depth },
            ..MapOptions::default()
        };
        let t = Instant::now();
        let d = async_tmap(&eqs, &lib, &opts).expect("mappable");
        println!(
            "{:>6} {:>10.0} {:>9.2}n {:>10}",
            depth,
            d.area,
            d.delay,
            secs(t.elapsed())
        );
    }
}
