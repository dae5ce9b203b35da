//! Top-level hazard characterization of a structure (library cell BFF or
//! mapped subnetwork), combining the four per-class algorithms.
//!
//! [`analyze_expr`] layers two passes:
//!
//! 1. the paper's fast algorithms (§4.1–§4.2) produce the descriptor lists;
//! 2. for small variable counts, an exhaustive waveform sweep certifies the
//!    result and appends any residual hazards the published procedures
//!    miss (see `dynamic2l::tests::published_procedure_gap` for a concrete
//!    case) — so a report of "hazard-free" is *exact* for every structure
//!    of at most [`crate::EXHAUSTIVE_VAR_LIMIT`] inputs, which covers all
//!    realistic library cells.

use crate::compare::EXHAUSTIVE_VAR_LIMIT;
use crate::dynamic2l::find_mic_dyn_haz_2level;
use crate::function::{disjoint, dynamic_function_hazard_free};
use crate::multilevel::find_mic_dyn_haz_multilevel;
use crate::sic::find_sic_hazards;
use crate::static1::{static_1_analysis, static_1_complete};
use crate::wave::{WaveProgram, BLOCK_BURSTS};
use crate::{Hazard, HazardReport};
use asyncmap_bff::{flatten, Expr};
use asyncmap_cube::{Bits, Cover, Cube, VarId};

/// Fully characterizes the logic-hazard behavior of the structure `expr`
/// over `nvars` variables (paper §3.2.1: run once per library element at
/// load time; §3.2.2: run on a subnetwork when a hazardous element matches
/// it).
///
/// * static 1-hazards from the hazard-preserving flattening (Unger's
///   Theorem 4.3 makes the flattened cover's static behavior equal to the
///   structure's), using the complete (all-primes) form;
/// * static 0-hazards and s.i.c. dynamic hazards from path labeling,
///   confirmed on the structure;
/// * m.i.c. dynamic hazards from the two-level filter plus waveform
///   confirmation on the multi-level structure;
/// * a certifying waveform sweep appending residual hazards
///   (`nvars ≤ 8` only).
pub fn analyze_expr(expr: &Expr, nvars: usize) -> HazardReport {
    let mut report = analyze_expr_fast(expr, nvars);
    if nvars <= EXHAUSTIVE_VAR_LIMIT {
        sweep_residual(expr, nvars, &mut report);
    }
    report
}

/// The paper's algorithms only, without the certifying sweep. Used by the
/// ablation benchmarks; may under-report exotic m.i.c. hazards.
pub fn analyze_expr_fast(expr: &Expr, nvars: usize) -> HazardReport {
    let flat = flatten(expr, nvars);
    let static1 = static_1_complete(&flat.cover);
    let dynamic_mic = find_mic_dyn_haz_multilevel(expr, nvars);
    let sic = find_sic_hazards(expr, nvars);
    HazardReport {
        nvars,
        static1,
        static0: sic.static0,
        dynamic_mic,
        dynamic_sic: sic.dynamic_sic,
        flat: flat.cover,
    }
}

/// Characterizes a two-level AND–OR structure given directly as a cover
/// (including the certifying sweep on small spaces).
pub fn analyze_cover(f: &Cover) -> HazardReport {
    analyze_expr(&Expr::from_cover(f), f.nvars())
}

/// Like [`analyze_cover`] but using only the paper's single-pass static-1
/// procedure and the two-level dynamic procedure — the fast filter used in
/// the ablation benchmarks.
pub fn analyze_cover_fast(f: &Cover) -> HazardReport {
    HazardReport {
        nvars: f.nvars(),
        static1: static_1_analysis(f),
        static0: Vec::new(),
        dynamic_mic: find_mic_dyn_haz_2level(f),
        dynamic_sic: Vec::new(),
        flat: f.clone(),
    }
}

/// Sweeps every transition pair and appends hazards not represented by an
/// existing descriptor. Function-hazardous transitions are skipped: they
/// are implementation-independent and never logic hazards. The sweep is
/// bit-sliced ([`WaveProgram`]): only the hazardous lanes of each block
/// are classified, and blocks run in burst order, so the pairs `a < b`
/// arrive in the same `(a, b)` order as a pair-by-pair loop.
fn sweep_residual(expr: &Expr, nvars: usize, report: &mut HazardReport) {
    let program = WaveProgram::compile(expr, nvars);
    let mut stack = Vec::new();
    for block in 0..program.blocks() {
        let lanes = program.eval_block(block, &mut stack).hazard;
        for lane in lanes.iter_ones() {
            let burst = BLOCK_BURSTS * block + lane;
            let (a, b) = (burst >> nvars, burst & ((1 << nvars) - 1));
            if b > a {
                let ba = Bits::from_index(nvars, a);
                let fa = report.flat.eval(&ba);
                classify_residual(report, &ba, fa, &Bits::from_index(nvars, b), nvars);
            }
        }
    }
}

/// Records the hazardous transition `ba → bb` if it is a logic hazard no
/// existing descriptor represents.
fn classify_residual(report: &mut HazardReport, ba: &Bits, fa: bool, bb: &Bits, nvars: usize) {
    let fb = report.flat.eval(bb);
    let span = Cube::minterm(ba).supercube(&Cube::minterm(bb));
    if fa == fb {
        // Static transition: function-hazard-free iff f is constant on the
        // span. Static-1 hazards are complete by construction (the
        // uncovered span lies in an uncovered prime), so only static-0
        // residuals are added.
        if !fa && disjoint(&report.flat, &span) {
            add_static0_residual(report, ba, bb, nvars);
        }
    } else if dynamic_function_hazard_free(&report.flat, ba, bb) {
        let (zero, one) = if fa { (bb, ba) } else { (ba, bb) };
        add_dynamic_residual(report, zero, one, nvars);
    }
}

fn add_static0_residual(report: &mut HazardReport, ba: &Bits, bb: &Bits, nvars: usize) {
    let changing = ba.xor(bb);
    let context = Cube::from_bits(changing.not(), ba.and(&changing.not()));
    let var = VarId(changing.first_one().expect("distinct assignments"));
    let captured = report.static0.iter().any(|h| {
        let Hazard::Static0 { var: hv, condition } = h else {
            return false;
        };
        changing.get(hv.index())
            && condition
                .cubes()
                .iter()
                .any(|c| c.intersect(&context).is_some())
    });
    if captured {
        return;
    }
    // Merge into an existing descriptor on the same variable if present.
    if let Some(Hazard::Static0 { condition, .. }) = report
        .static0
        .iter_mut()
        .find(|h| matches!(h, Hazard::Static0 { var: hv, .. } if *hv == var))
    {
        if !condition.cubes().contains(&context) {
            condition.push(context);
        }
        return;
    }
    report.static0.push(Hazard::Static0 {
        var,
        condition: Cover::from_cubes(nvars, vec![context]),
    });
}

fn add_dynamic_residual(report: &mut HazardReport, zero: &Bits, one: &Bits, _nvars: usize) {
    let zero_cube = Cube::minterm(zero);
    let one_cube = Cube::minterm(one);
    let captured = report.dynamic_mic.iter().any(|h| {
        let Hazard::DynamicMic {
            zero_end, one_end, ..
        } = h
        else {
            return false;
        };
        zero_end.contains(&zero_cube) && one_end.contains(&one_cube)
    });
    if captured {
        return;
    }
    report.dynamic_mic.push(Hazard::DynamicMic {
        space: zero_cube.supercube(&one_cube),
        zero_end: zero_cube,
        one_end: one_cube,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmap_cube::VarTable;

    #[test]
    fn hazard_free_two_level_cell() {
        let vars = VarTable::from_names(["a", "b", "c"]);
        let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
        let r = analyze_cover(&f);
        assert!(r.static1.is_empty());
        assert_eq!(r.nvars, 3);
    }

    #[test]
    fn figure4a_cell_report() {
        let mut vars = VarTable::new();
        let e = Expr::parse("w*x + x'*y", &mut vars).unwrap();
        let r = analyze_expr(&e, vars.len());
        // Missing prime wy → static-1 hazard.
        assert_eq!(r.static1.len(), 1);
        assert!(!r.is_hazard_free());
    }

    #[test]
    fn figure4b_cell_report_has_no_static1() {
        let mut vars = VarTable::new();
        let e = Expr::parse("(w + x')*(x + y)", &mut vars).unwrap();
        let r = analyze_expr(&e, vars.len());
        assert!(r.static1.is_empty(), "{:?}", r.static1);
        // But the vacuous product x'x gives a static-0 hazard.
        assert!(!r.static0.is_empty());
    }

    #[test]
    fn single_gate_is_hazard_free() {
        let mut vars = VarTable::new();
        let e = Expr::parse("a*b*c'", &mut vars).unwrap();
        let r = analyze_expr(&e, vars.len());
        assert!(r.is_hazard_free());
        let inv = Expr::parse("a'", &mut vars).unwrap();
        assert!(analyze_expr(&inv, vars.len()).is_hazard_free());
    }

    #[test]
    fn sweep_catches_published_procedure_gap() {
        // f = b + a' + a'bc: the published two-level procedure misses the
        // pulse of the redundant gate a'bc on wide bursts; the certifying
        // sweep appends it.
        let vars = VarTable::from_names(["a", "b", "c", "d"]);
        let f = Cover::parse("b + a' + a'bc", &vars).unwrap();
        let fast = analyze_cover_fast(&f);
        assert!(fast.dynamic_mic.is_empty());
        let full = analyze_cover(&f);
        assert!(!full.dynamic_mic.is_empty());
    }

    #[test]
    fn fast_and_complete_agree_on_emptiness_for_simple_cells() {
        let vars = VarTable::from_names(["s", "a", "b"]);
        let mux = Cover::parse("sa + s'b", &vars).unwrap();
        let fast = analyze_cover_fast(&mux);
        let full = analyze_cover(&mux);
        assert_eq!(fast.is_hazard_free(), full.is_hazard_free());
        // The two-cube mux misses the consensus ab: one static-1 hazard.
        assert_eq!(full.static1.len(), 1);
    }
}
