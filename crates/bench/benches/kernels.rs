//! Criterion microbenchmarks for the word-level kernels underneath the
//! mapper: the cube-algebra primitives (`complement`, `all_primes`,
//! `is_tautology`), the matcher's truth-table construction, and the
//! two-level dynamic-hazard search, each at input widths 4, 8 and 16.
//!
//! The truth-table benchmarks also cross-check the word-parallel fast
//! path against the scalar generic path and abort on divergence, and the
//! cut-enumeration benchmark maps `dme` with the dominance-pruned and the
//! legacy enumerator and aborts on any mapped-design fingerprint mismatch,
//! so a CI run of this bench doubles as an equivalence smoke test. The
//! `simd_kernels` group extends the gate to every 4-lane [`U64x4`]-widened
//! kernel (fused cube ops, delta-swap permuters): each is cross-checked
//! against its scalar twin before being timed. The `exhaustive_sweep`
//! group does the same for the bit-sliced hazard-containment sweep: it
//! must reach the verdict of a per-transition `wave_eval` loop on every
//! seeded pair before either is timed.

use asyncmap_bench::design_fingerprint;
use asyncmap_bff::Expr;
use asyncmap_core::truth;
use asyncmap_core::{
    async_tmap, truth_table_of, truth_table_of_generic, ClusterLimits, MapOptions,
};
use asyncmap_cube::simd;
use asyncmap_cube::{Cover, Cube, Phase, VarId};
use asyncmap_hazard::oracle::index_bits;
use asyncmap_hazard::{find_mic_dyn_haz_2level, hazards_subset_exhaustive, wave_eval};
use asyncmap_library::builtin;
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
    g.finish();
}

fn bench_cut_enumeration(c: &mut Criterion) {
    let mut actel = builtin::actel();
    actel.annotate_hazards();
    let eqs = asyncmap_burst::benchmark("dme");
    let new_opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let legacy_opts = MapOptions {
        threads: 1,
        limits: ClusterLimits {
            legacy_enum: true,
            ..ClusterLimits::default()
        },
        ..MapOptions::default()
    };
    // Divergence gate: the dominance-pruned interned enumerator must map
    // to the exact design the legacy recursive enumerator produces, else
    // the bench (and CI) fails.
    let new_design = async_tmap(&eqs, &actel, &new_opts).expect("mappable");
    let legacy_design = async_tmap(&eqs, &actel, &legacy_opts).expect("mappable");
    assert_eq!(
        design_fingerprint(&new_design),
        design_fingerprint(&legacy_design),
        "cut/legacy enumerator divergence on dme"
    );
    let mut g = c.benchmark_group("map_dme");
    g.bench_function("cut_enum", |b| {
        b.iter(|| async_tmap(black_box(&eqs), &actel, &new_opts).expect("mappable"))
    });
    g.bench_function("legacy_enum", |b| {
        b.iter(|| async_tmap(black_box(&eqs), &actel, &legacy_opts).expect("mappable"))
    });
    g.finish();
}

fn bench_simd_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x51D5);
    // Deterministic word blocks, sized past the 4-lane width so the tail
    // path is exercised too.
    let nwords = 11usize;
    let gen_block = |rng: &mut StdRng| -> (Vec<u64>, Vec<u64>) {
        let used: Vec<u64> = (0..nwords).map(|_| rng.random()).collect();
        let phase: Vec<u64> = used.iter().map(|&u| u & rng.random::<u64>()).collect();
        (used, phase)
    };
    let (u1, p1) = gen_block(&mut rng);
    let (u2, p2) = gen_block(&mut rng);
    // Divergence gates: every lane-widened kernel must agree with its
    // scalar twin on the same block, else the bench (and CI) fails.
    assert_eq!(
        simd::contains_words(&u1, &p1, &u2, &p2),
        simd::contains_words_scalar(&u1, &p1, &u2, &p2),
        "SIMD/scalar divergence in contains_words"
    );
    assert_eq!(
        simd::distance_words(&u1, &p1, &u2, &p2),
        simd::distance_words_scalar(&u1, &p1, &u2, &p2),
        "SIMD/scalar divergence in distance_words"
    );
    assert_eq!(
        simd::conflicts_any_words(&u1, &p1, &u2, &p2),
        simd::conflicts_any_words_scalar(&u1, &p1, &u2, &p2),
        "SIMD/scalar divergence in conflicts_any_words"
    );
    assert_eq!(
        simd::eval_words(&u1, &p1, &u2),
        simd::eval_words_scalar(&u1, &p1, &u2),
        "SIMD/scalar divergence in eval_words"
    );
    assert_eq!(
        simd::subset_words(&u1, &u2),
        simd::subset_words_scalar(&u1, &u2),
        "SIMD/scalar divergence in subset_words"
    );
    assert_eq!(
        simd::disjoint_words(&u1, &u2),
        simd::disjoint_words_scalar(&u1, &u2),
        "SIMD/scalar divergence in disjoint_words"
    );
    for n in 1..=6 {
        let t: u64 = rng.random::<u64>() & truth::full_mask(n);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        assert_eq!(
            truth::apply_perm6(t, &perm, n),
            truth::apply_perm6_generic(t, &perm, n),
            "SIMD/scalar divergence in apply_perm6 at n={n}"
        );
    }
    for n in 7..=8 {
        let live_words = (1usize << n) / 64;
        let mut t = [0u64; 4];
        for w in t.iter_mut().take(live_words) {
            *w = rng.random();
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        assert_eq!(
            truth::apply_perm_wide(t, &perm, n),
            truth::apply_perm_wide_generic(t, &perm, n),
            "SIMD/scalar divergence in apply_perm_wide at n={n}"
        );
    }
    let mut g = c.benchmark_group("simd_kernels");
    g.bench_function("contains_words/simd", |b| {
        b.iter(|| simd::contains_words(black_box(&u1), &p1, &u2, &p2))
    });
    g.bench_function("contains_words/scalar", |b| {
        b.iter(|| simd::contains_words_scalar(black_box(&u1), &p1, &u2, &p2))
    });
    g.bench_function("distance_words/simd", |b| {
        b.iter(|| simd::distance_words(black_box(&u1), &p1, &u2, &p2))
    });
    g.bench_function("distance_words/scalar", |b| {
        b.iter(|| simd::distance_words_scalar(black_box(&u1), &p1, &u2, &p2))
    });
    g.bench_function("subset_words/simd", |b| {
        b.iter(|| simd::subset_words(black_box(&u1), &u2))
    });
    g.bench_function("subset_words/scalar", |b| {
        b.iter(|| simd::subset_words_scalar(black_box(&u1), &u2))
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
        let from = index_bits(nvars, a);
        for b in 0..1usize << nvars {
            if a == b {
                continue;
            }
            let to = index_bits(nvars, b);
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
    g.finish();
}

criterion_group!(
    kernels,
    bench_cover_kernels,
    bench_truth_tables,
    bench_cut_enumeration,
    bench_simd_kernels,
    bench_hazard_search,
    bench_exhaustive_sweep
);
criterion_main!(kernels);
