//! Reproduces the paper's worked figures as executable analyses:
//! Figure 2 (hazard taxonomy), Figure 3 (why Boolean matching needs the
//! hazard filter), Figure 4 (structure determines hazards) and Figure 10
//! (the `findMicDynHaz2level` trace).
//!
//! Run with `cargo run --example figures`.

use asyncmap::hazard::{analyze_expr, find_mic_dyn_haz_2level, static_1_analysis, wave_eval};
use asyncmap::prelude::*;
use asyncmap_cube::{Bits, VarTable};

fn bits(vars: &VarTable, assignments: &[(&str, bool)]) -> Bits {
    let mut b = Bits::new(vars.len());
    for (name, v) in assignments {
        b.set(vars.lookup(name).unwrap().index(), *v);
    }
    b
}

fn main() {
    figure2();
    figure3();
    figure4();
    figure10();
}

fn figure2() {
    println!("── Figure 2: hazard taxonomy ──");
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    // 2a: s.i.c. static-1 hazard — wxy + w'xz, w changing with x=y=z=1.
    let f = Cover::parse("wxy + w'xz", &vars).unwrap();
    for h in static_1_analysis(&f) {
        println!("  2a: {}", h.display(&vars));
    }
    // 2b: m.i.c. static-1 hazard — w'x' + y'z + w'y + xz.
    let g = Cover::parse("w'x' + y'z + w'y + xz", &vars).unwrap();
    let hz = asyncmap::hazard::static_1_complete(&g);
    println!("  2b: {} m.i.c. static-1 hazard span(s)", hz.len());
    // 2c: m.i.c. dynamic hazard in a two-level cover.
    let d = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
    let dyn_hz = find_mic_dyn_haz_2level(&d);
    println!("  2c: {} m.i.c. dynamic hazard(s)", dyn_hz.len());
}

fn figure3() {
    println!("── Figure 3: Boolean matching can lose the redundant cube ──");
    let mut vars = VarTable::new();
    let original = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
    let mux_match = Expr::parse_in("a*b + a'*c", &vars).unwrap();
    println!(
        "  original (with consensus bc): {}",
        analyze_expr(&original, vars.len()).summary()
    );
    println!(
        "  two-cube match:               {}",
        analyze_expr(&mux_match, vars.len()).summary()
    );
    let ok = decide_containment(&mux_match, &original, vars.len()) == Containment::Holds;
    println!("  hazards(match) ⊆ hazards(original)? {ok} → match rejected");
}

fn figure4() {
    println!("── Figure 4: same function, different structures ──");
    let mut vars = VarTable::new();
    let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
    let factored = Expr::parse_in("(w + x')*(x + y)", &vars).unwrap();
    // The burst of the figure: w falls, x rises, y (held high) masks.
    let alpha = bits(&vars, &[("w", true), ("y", true)]);
    let beta = bits(&vars, &[("x", true), ("y", true)]);
    println!(
        "  burst w↓x↑ (y=1): two-level → {}, factored → {}",
        wave_eval(&two_level, &alpha, &beta),
        wave_eval(&factored, &alpha, &beta)
    );
    println!(
        "  full reports: two-level [{}], factored [{}]",
        analyze_expr(&two_level, vars.len()).summary(),
        analyze_expr(&factored, vars.len()).summary()
    );
}

fn figure10() {
    println!("── Figure 10: findMicDynHaz2level worked example ──");
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
    for c in asyncmap::hazard::irredundant_intersections(&f) {
        println!("  irredundant cube intersection: {}", c.display(&vars));
    }
    for h in find_mic_dyn_haz_2level(&f) {
        println!("  {}", h.display(&vars));
    }
}
