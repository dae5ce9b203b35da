//! Integration tests reproducing every worked figure of the paper as an
//! executable assertion (the per-experiment index of DESIGN.md).

use asyncmap::hazard::{
    analyze_expr, find_mic_dyn_haz_2level, find_sic_hazards, irredundant_intersections,
    static_1_analysis, static_1_complete, wave_eval, Hazard,
};
use asyncmap::prelude::*;
use asyncmap_cube::{Bits, VarTable};

fn bits_of(vars: &VarTable, ones: &[&str]) -> Bits {
    let mut b = Bits::new(vars.len());
    for name in ones {
        b.set(vars.lookup(name).unwrap().index(), true);
    }
    b
}

/// Figure 2a: `f = wxy + w'xz` has a single-input-change static 1-hazard
/// between `w'xyz` and `wxyz`, removed by the consensus gate `xyz`.
#[test]
fn figure2a_static1() {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("wxy + w'xz", &vars).unwrap();
    let hz = static_1_analysis(&f);
    assert_eq!(hz.len(), 1);
    let Hazard::Static1 { span } = &hz[0] else {
        panic!()
    };
    assert_eq!(span, &Cube::parse("xyz", &vars).unwrap());
    let fixed = Cover::parse("wxy + w'xz + xyz", &vars).unwrap();
    assert!(static_1_analysis(&fixed).is_empty());
}

/// Figure 2b: `f = w'x' + y'z + w'y + xz` has a multi-input-change static
/// 1-hazard over the transition from `w'x'y'z` to `w'xyz` (the span `w'z`
/// is an uncovered prime).
#[test]
fn figure2b_mic_static1() {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("w'x' + y'z + w'y + xz", &vars).unwrap();
    let spans: Vec<Cube> = static_1_complete(&f)
        .into_iter()
        .map(|h| match h {
            Hazard::Static1 { span } => span,
            _ => unreachable!(),
        })
        .collect();
    let alpha = Cube::parse("w'x'y'z", &vars).unwrap();
    let beta = Cube::parse("w'xyz", &vars).unwrap();
    let trans = alpha.supercube(&beta);
    assert!(
        spans.iter().any(|s| s.contains(&trans)),
        "transition not reported: {spans:?}"
    );
}

/// Figure 2c: the dynamic hazard taxonomy example — a gate can turn on and
/// off before the settling gate turns on.
#[test]
fn figure2c_dynamic() {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
    assert_eq!(find_mic_dyn_haz_2level(&f).len(), 3);
}

/// Figure 3: Boolean matching proposes the two-cube cover for
/// `ab + a'c + bc`; the asynchronous matcher must reject it (it drops the
/// consensus cube and introduces a static 1-hazard).
#[test]
fn figure3_matching_rejection() {
    let mut vars = VarTable::new();
    let original = Expr::parse("a*b + a'*c + b*c", &mut vars).unwrap();
    let candidate = Expr::parse_in("a*b + a'*c", &vars).unwrap();
    assert!(matches!(
        decide_containment(&candidate, &original, vars.len()),
        Containment::Refuted(Some(_))
    ));
    // And the mapped-network hazard the paper shows: b=c=1, a changing.
    let one = bits_of(&vars, &["b", "c"]);
    let both = bits_of(&vars, &["a", "b", "c"]);
    assert!(wave_eval(&candidate, &one, &both).is_static_hazard());
    assert!(!wave_eval(&original, &one, &both).hazard);
}

/// Figure 4: `wx + x'y` (two-cube SOP) has a dynamic hazard for the burst
/// `w↓ x↑` with `y = 1`; the factored structure `(w + x')(x + y)` of the
/// same function does not.
#[test]
fn figure4_structures() {
    let mut vars = VarTable::new();
    let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
    let factored = Expr::parse_in("(w + x')*(x + y)", &vars).unwrap();
    let alpha = bits_of(&vars, &["w", "y"]);
    let beta = bits_of(&vars, &["x", "y"]);
    assert!(wave_eval(&two_level, &alpha, &beta).is_dynamic_hazard());
    assert_eq!(
        wave_eval(&factored, &alpha, &beta),
        asyncmap::hazard::Wave::FALL
    );
    // Functions equal, hazard behaviors incomparable in both directions.
    for (candidate, reference) in [(&two_level, &factored), (&factored, &two_level)] {
        assert!(matches!(
            decide_containment(candidate, reference, vars.len()),
            Containment::Refuted(Some(_))
        ));
    }
}

/// Figure 6: static 0-hazards and s.i.c. dynamic hazards from vacuous
/// terms (McCluskey's examples).
#[test]
fn figure6_vacuous_hazards() {
    // 6a-style: (w + x)(x' + z) pulses on a steady-0 output at w=0, z=0.
    let mut vars = VarTable::new();
    let e = Expr::parse("(w + x)*(x' + z)", &mut vars).unwrap();
    let a = find_sic_hazards(&e, vars.len());
    assert_eq!(a.static0.len(), 1);
    // 6b-style: (w + y' + x')(xy + y'z) has a dynamic hazard on y with
    // w=0, x=z=1.
    let mut vars2 = VarTable::new();
    let e2 = Expr::parse("(w + y' + x')*(x*y + y'*z)", &mut vars2).unwrap();
    let a2 = find_sic_hazards(&e2, vars2.len());
    let y = vars2.lookup("y").unwrap();
    assert!(a2
        .dynamic_sic
        .iter()
        .any(|h| matches!(h, Hazard::DynamicSic { var, .. } if *var == y)));
}

/// Figure 9: an m.i.c. dynamic hazard that is fully characterized by a
/// static 1-hazard is not re-reported by `findMicDynHaz2level`.
#[test]
fn figure9_static1_subsumption() {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    // wxy + w'xz: the two cubes are disjoint (conflict in w), so the
    // dynamic glitch through the missing consensus xyz is exactly the
    // static-1 hazard's signature.
    let f = Cover::parse("wxy + w'xz", &vars).unwrap();
    assert!(find_mic_dyn_haz_2level(&f).is_empty());
    assert_eq!(static_1_analysis(&f).len(), 1);
}

/// Figure 10 / Example 4.2.4: the worked `findMicDynHaz2level` trace.
#[test]
fn figure10_trace() {
    let vars = VarTable::from_names(["w", "x", "y", "z"]);
    let f = Cover::parse("w'xz + w'xy + xyz", &vars).unwrap();
    assert_eq!(
        irredundant_intersections(&f),
        vec![Cube::parse("w'xyz", &vars).unwrap()]
    );
    let hz = find_mic_dyn_haz_2level(&f);
    assert_eq!(hz.len(), 3, "one α × three β endpoints");
    for h in &hz {
        let Hazard::DynamicMic { zero_end, .. } = h else {
            panic!()
        };
        assert_eq!(zero_end, &Cube::parse("w'x'yz", &vars).unwrap());
    }
}

/// Figure 4 in the mapper: a library whose mux has the 4a structure may
/// only match subnetworks that already carry those hazards.
#[test]
fn figure4_in_the_mapper() {
    let mut vars = VarTable::new();
    let two_level = Expr::parse("w*x + x'*y", &mut vars).unwrap();
    let report = analyze_expr(&two_level, vars.len());
    assert!(!report.is_hazard_free());
    assert_eq!(report.static1.len(), 1);
}
