//! Criterion microbenchmarks for the word-level kernels underneath the
//! mapper: the cube-algebra primitives (`complement`, `all_primes`,
//! `is_tautology`), the matcher's truth-table construction, and the
//! two-level dynamic-hazard search, each at input widths 4, 8 and 16.
//!
//! Each timed kernel is first cross-checked against its reference oracle
//! and the bench aborts on divergence, so a CI run of this bench doubles as
//! an equivalence smoke test. The truth-table group checks the
//! word-parallel table builder against the generic path and the
//! delta-swap permuters against their minterm loops; the cut-enumeration
//! group covers every cone of `dme` under Actel with the interned-cut
//! enumerator and with the legacy recursive enumerator and requires
//! identical covers; the `exhaustive_sweep` group requires the bit-sliced
//! hazard-containment sweep to reach the verdict of a per-transition
//! `wave_eval` loop on every seeded pair and on every 7–8-variable audit
//! obligation of a generated design, which it also times as a set.

use asyncmap_audit::equiv::{compact_onto, union_support};
use asyncmap_bench::{generate, GenSpec};
use asyncmap_bff::Expr;
use asyncmap_core::truth;
use asyncmap_core::{
    cover_cone_with, truth_table_of, ClusterLimits, HazardPolicy, Matcher, Objective,
};
use asyncmap_cube::{Bits, Cover, Cube, Phase, VarId};
use asyncmap_hazard::{find_mic_dyn_haz_2level, hazards_subset_exhaustive, wave_eval};
use asyncmap_library::builtin;
use asyncmap_network::{async_tech_decomp, async_tech_decomp_traced, partition, RewriteRule};
use asyncmap_oracle::{
    apply_perm6_generic, apply_perm_wide_generic, cover_cone_legacy, truth_table_of_generic,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const WIDTHS: [usize; 3] = [4, 8, 16];

/// Deterministic pseudo-random cover: `ncubes` cubes over `nvars`
/// variables, each literal present with probability 1/2 and then in a
/// random phase. Seeded per width so every run benches the same input.
fn random_cover(nvars: usize, ncubes: usize, seed: u64) -> Cover {
    let mut rng = StdRng::seed_from_u64(seed ^ (nvars as u64));
    let cubes = (0..ncubes)
        .map(|_| {
            let mut literals: Vec<(VarId, Phase)> = Vec::new();
            for v in 0..nvars {
                if rng.random::<bool>() {
                    let phase = if rng.random::<bool>() {
                        Phase::Pos
                    } else {
                        Phase::Neg
                    };
                    literals.push((VarId(v), phase));
                }
            }
            Cube::from_literals(nvars, literals)
        })
        .collect();
    Cover::from_cubes(nvars, cubes)
}

/// Deterministic random expression over `nvars` variables, depth-bounded.
fn random_expr(nvars: usize, depth: usize, rng: &mut StdRng) -> Expr {
    if depth == 0 || rng.random_range(0..4) == 0 {
        let v = Expr::Var(VarId(rng.random_range(0..nvars)));
        return if rng.random::<bool>() { v.not() } else { v };
    }
    let arity = rng.random_range(2..4);
    let args: Vec<Expr> = (0..arity)
        .map(|_| random_expr(nvars, depth - 1, rng))
        .collect();
    if rng.random::<bool>() {
        Expr::and(args)
    } else {
        Expr::or(args)
    }
}

fn bench_cover_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("cube_kernels");
    for w in WIDTHS {
        let f = random_cover(w, 2 * w, 0xC0FE);
        g.bench_function(format!("complement/w{w}"), |b| {
            b.iter(|| black_box(&f).complement())
        });
        g.bench_function(format!("all_primes/w{w}"), |b| {
            b.iter(|| black_box(&f).all_primes())
        });
        // `f + f'` is a tautology: exercises the full recursion rather
        // than an early unate exit.
        let mut taut = f.clone();
        for cube in f.complement().cubes() {
            taut.push(cube.clone());
        }
        g.bench_function(format!("is_tautology/w{w}"), |b| {
            b.iter(|| black_box(&taut).is_tautology())
        });
    }
    g.finish();
}

fn bench_truth_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("truth_table_of");
    for w in WIDTHS {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ (w as u64));
        let expr = random_expr(w, 4, &mut rng);
        // Divergence gate: the word-parallel path must agree with the
        // scalar path bit-for-bit, else the bench (and CI) fails.
        assert_eq!(
            truth_table_of(&expr, w),
            truth_table_of_generic(&expr, w),
            "fast/generic truth-table divergence at width {w}"
        );
        g.bench_function(format!("word_parallel/w{w}"), |b| {
            b.iter(|| truth_table_of(black_box(&expr), w))
        });
        g.bench_function(format!("generic/w{w}"), |b| {
            b.iter(|| truth_table_of_generic(black_box(&expr), w))
        });
    }
    // Divergence gate: the delta-swap permuters the match memo
    // canonicalizes with must agree with their minterm-loop oracles on
    // one-word and four-word tables.
    let mut rng = StdRng::seed_from_u64(0x51D5);
    for n in 1..=8 {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        if n <= 6 {
            let t: u64 = rng.random::<u64>() & truth::full_mask(n);
            assert_eq!(
                truth::apply_perm6(t, &perm, n),
                apply_perm6_generic(t, &perm, n),
                "delta-swap/minterm divergence in apply_perm6 at n={n}"
            );
        } else {
            let mut t = [0u64; 4];
            for w in t.iter_mut().take((1usize << n) / 64) {
                *w = rng.random();
            }
            assert_eq!(
                truth::apply_perm_wide(t, &perm, n),
                apply_perm_wide_generic(t, &perm, n),
                "delta-swap/minterm divergence in apply_perm_wide at n={n}"
            );
        }
    }
    g.finish();
}

fn bench_cut_enumeration(c: &mut Criterion) {
    let mut actel = builtin::actel();
    actel.annotate_hazards();
    let net = async_tech_decomp(&asyncmap_burst::benchmark("dme"));
    let cones = partition(&net);
    // Separate matchers, so neither path replays the other's match memo
    // or hazard verdicts.
    let cut_matcher = Matcher::new(&actel, HazardPolicy::SubsetCheck);
    let legacy_matcher = Matcher::new(&actel, HazardPolicy::SubsetCheck);
    let limits = ClusterLimits::default();
    let cover_cut = |cone| cover_cone_with(&net, cone, &cut_matcher, &limits, Objective::Area);
    let cover_legacy =
        |cone| cover_cone_legacy(&net, cone, &legacy_matcher, &limits, Objective::Area);
    // Divergence gate: on every cone the interned-cut enumerator must select the exact cover the legacy recursive
    // enumerator does, else the bench (and CI) fails. Assembly is a
    // deterministic function of the covers, so this pins the mapped design.
    for cone in &cones {
        let cut = cover_cut(cone).expect("mappable");
        let legacy = cover_legacy(cone).expect("mappable");
        let divergence = format!("cut/legacy enumerator divergence on dme cone {}", cut.root);
        assert_eq!(cut.root, legacy.root, "{divergence}");
        assert_eq!(cut.area.to_bits(), legacy.area.to_bits(), "{divergence}");
        assert_eq!(cut.instances.len(), legacy.instances.len(), "{divergence}");
        for (x, y) in cut.instances.iter().zip(&legacy.instances) {
            assert_eq!(x.cell_index, y.cell_index, "{divergence}");
            assert_eq!(x.output, y.output, "{divergence}");
            assert_eq!(x.inputs, y.inputs, "{divergence}");
        }
    }
    let mut g = c.benchmark_group("map_dme");
    g.bench_function("cut", |b| {
        b.iter(|| {
            for cone in black_box(&cones) {
                cover_cut(cone).expect("mappable");
            }
        })
    });
    g.bench_function("legacy", |b| {
        b.iter(|| {
            for cone in black_box(&cones) {
                cover_legacy(cone).expect("mappable");
            }
        })
    });
    g.finish();
}

fn bench_hazard_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("find_mic_dyn_haz_2level");
    for w in WIDTHS {
        let f = random_cover(w, 2 * w, 0x4A55);
        g.bench_function(format!("w{w}"), |b| {
            b.iter(|| find_mic_dyn_haz_2level(black_box(&f)))
        });
    }
    g.finish();
}

/// `hazards(candidate) ⊆ hazards(reference)` one ordered transition at a
/// time: the reference the bit-sliced sweep is gated against.
fn subset_per_transition(candidate: &Expr, reference: &Expr, nvars: usize) -> bool {
    for a in 0..1usize << nvars {
        let from = Bits::from_index(nvars, a);
        for b in 0..1usize << nvars {
            if a == b {
                continue;
            }
            let to = Bits::from_index(nvars, b);
            if wave_eval(candidate, &from, &to).hazard && !wave_eval(reference, &from, &to).hazard {
                return false;
            }
        }
    }
    true
}

fn bench_exhaustive_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("exhaustive_sweep");
    for n in [4, 6, 8] {
        let mut rng = StdRng::seed_from_u64(0x5EE9 ^ (n as u64));
        // Divergence gate: the bit-sliced sweep must agree with the
        // per-transition loop on every seeded pair, else the bench (and
        // CI) fails.
        for _ in 0..16 {
            let candidate = random_expr(n, 3, &mut rng);
            let reference = random_expr(n, 3, &mut rng);
            for (l, r) in [(&candidate, &reference), (&candidate, &candidate)] {
                assert_eq!(
                    hazards_subset_exhaustive(l, r, n),
                    subset_per_transition(l, r, n),
                    "bit-sliced/per-transition sweep divergence at n={n} on {l:?} ⊆ {r:?}"
                );
            }
        }
        // Timed case: a clean sweep of a 2n-cube SOP against itself (every
        // pair examined, the reference evaluated wherever the candidate
        // glitches).
        let expr = Expr::from_cover(&random_cover(n, 2 * n, 0x5EE9));
        g.bench_function(format!("bit_sliced/n{n}"), |b| {
            b.iter(|| hazards_subset_exhaustive(black_box(&expr), &expr, n))
        });
        g.bench_function(format!("per_transition/n{n}"), |b| {
            b.iter(|| subset_per_transition(black_box(&expr), &expr, n))
        });
    }
    // Timed case: the 7–8-variable rewrite-step and equation obligations
    // a generated design's audit decides, each over its compacted
    // support, gated against the per-transition loop.
    let obligations = audit_obligations_7_8();
    assert!(!obligations.is_empty(), "no 7-8-variable audit obligation");
    for (candidate, reference, k) in &obligations {
        assert_eq!(
            hazards_subset_exhaustive(candidate, reference, *k),
            subset_per_transition(candidate, reference, *k),
            "bit-sliced/per-transition sweep divergence on a {k}-variable audit obligation"
        );
    }
    g.bench_function(format!("audit_k7_8/{}", obligations.len()), |b| {
        b.iter(|| {
            obligations
                .iter()
                .filter(|(c, r, k)| hazards_subset_exhaustive(black_box(c), r, *k))
                .count()
        })
    });
    g.finish();
}

/// `(after, before, k)` for every rewrite step and equation certificate of
/// a generated flow design (250 gates, 16 inputs) whose compacted support
/// has 7 or 8 variables: the audit's hazard-monotonicity obligations that
/// the exact sweep decides at the top of its range.
fn audit_obligations_7_8() -> Vec<(Expr, Expr, usize)> {
    let eqs = generate(&GenSpec {
        target_gates: 250,
        inputs: 16,
        seed: 5,
    });
    let (_, trace) = async_tech_decomp_traced(&eqs);
    let steps = trace
        .steps
        .iter()
        .filter(|s| s.rule != RewriteRule::InputInverter)
        .map(|s| (&s.after, &s.before));
    let certificates = trace.equations.iter().map(|c| (&c.result, &c.source));
    steps
        .chain(certificates)
        .filter_map(|(after, before)| {
            let support = union_support(after, before);
            (7..=8).contains(&support.len()).then(|| {
                (
                    compact_onto(after, &support),
                    compact_onto(before, &support),
                    support.len(),
                )
            })
        })
        .collect()
}

criterion_group!(
    kernels,
    bench_cover_kernels,
    bench_truth_tables,
    bench_cut_enumeration,
    bench_hazard_search,
    bench_exhaustive_sweep
);
criterion_main!(kernels);
