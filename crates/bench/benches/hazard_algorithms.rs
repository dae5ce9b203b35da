//! Criterion microbenchmarks for the §4 hazard-analysis algorithms: the
//! paper's fast procedures against the brute-force oracles they replace.

use asyncmap_bff::Expr;
use asyncmap_cube::{Cover, VarTable};
use asyncmap_hazard::{
    analyze_expr, find_mic_dyn_haz_2level, static_1_analysis, static_1_complete,
};
use asyncmap_oracle::{brute_mic_dynamic_transitions, brute_static1_transitions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn figure10_cover() -> (Cover, VarTable) {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
    (f, vars)
}

fn benchmark_cover() -> Cover {
    // A realistic mapper workload: one output of the pe-send-ifc
    // controller.
    let eqs = asyncmap_burst::benchmark("pe-send-ifc");
    eqs.equations
        .iter()
        .max_by_key(|(_, c)| c.len())
        .map(|(_, c)| c.clone())
        .expect("nonempty")
}

fn bench_static1(c: &mut Criterion) {
    let (fig, _) = figure10_cover();
    let big = benchmark_cover();
    let mut g = c.benchmark_group("static1");
    g.bench_function("single_pass/figure10", |b| {
        b.iter(|| static_1_analysis(black_box(&fig)))
    });
    g.bench_function("complete/figure10", |b| {
        b.iter(|| static_1_complete(black_box(&fig)))
    });
    g.bench_function("brute_oracle/figure10", |b| {
        b.iter(|| brute_static1_transitions(black_box(&fig)))
    });
    g.bench_function("single_pass/pe-send-ifc", |b| {
        b.iter(|| static_1_analysis(black_box(&big)))
    });
    g.bench_function("complete/pe-send-ifc", |b| {
        b.iter(|| static_1_complete(black_box(&big)))
    });
    g.finish();
}

fn bench_dynamic(c: &mut Criterion) {
    let (fig, _) = figure10_cover();
    let mut g = c.benchmark_group("mic_dynamic");
    g.bench_function("findMicDynHaz2level/figure10", |b| {
        b.iter(|| find_mic_dyn_haz_2level(black_box(&fig)))
    });
    g.bench_function("brute_oracle/figure10", |b| {
        b.iter(|| brute_mic_dynamic_transitions(black_box(&fig)))
    });
    g.finish();
}

fn bench_cell_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("cell_analysis");
    let cells = [
        ("MUX2", "s*a + s'*b"),
        ("MUX4", "t'*s'*a + t'*s*b + t*s'*c + t*s*d"),
        ("AOI2222", "(a*b + c*d + e*f + g*h)'"),
    ];
    for (name, bff) in cells {
        let mut vars = VarTable::new();
        let expr = Expr::parse(bff, &mut vars).unwrap();
        let n = vars.len();
        g.bench_function(format!("analyze_expr/{name}"), |b| {
            b.iter(|| analyze_expr(black_box(&expr), n))
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_static1, bench_dynamic, bench_cell_analysis
}
criterion_main!(benches);
