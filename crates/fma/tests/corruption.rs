//! Corruption injection: every violation class the analyzer exists for
//! must be caught with its expected severity code when deliberately
//! introduced into a clean design (or its spec).
//!
//! * instance-graph cycles → `structure.cycle`;
//! * an instance copied into a second cover → `structure.multiply-driven`;
//! * a dropped inner instance → `structure.undriven`;
//! * forged spec bursts (the design no longer implements an edge) →
//!   `boundary.burst-mismatch`;
//! * a glitch-capable cover substituted for a hazard-free one →
//!   `boundary.containment`, whose witness burst replays on `wave_eval`;
//! * a cone root, leaf or gate outside the subject network →
//!   `structure.signal-out-of-range`;
//! * a binding that reads another cone's inner signal →
//!   `function.unbound-pin`.

use asyncmap_burst::{benchmark, benchmark_spec, BurstSpec};
use asyncmap_core::{async_tmap, mapped_cone_expr, Instance, MapOptions, MapStats, MappedDesign};
use asyncmap_cube::{Bits, Cover, VarTable};
use asyncmap_fma::{analyze_design, analyze_design_with_spec, Severity};
use asyncmap_hazard::oracle::index_bits;
use asyncmap_hazard::wave_eval;
use asyncmap_library::{builtin, Library};
use asyncmap_network::{EquationSet, SignalId, SignalName};
use proptest::prelude::*;
use std::sync::LazyLock;

/// One mapped benchmark, shared by every generated case — corruption
/// operates on fresh copies.
static BASE: LazyLock<(MappedDesign, Library, BurstSpec)> = LazyLock::new(|| {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let eqs = benchmark("scsi");
    let spec = benchmark_spec("scsi");
    let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    (design, lib, spec)
});

fn copy_design(d: &MappedDesign) -> MappedDesign {
    MappedDesign {
        library_name: d.library_name.clone(),
        subject: d.subject.clone(),
        cones: d.cones.clone(),
        covers: d.covers.clone(),
        area: d.area,
        delay: d.delay,
        stats: MapStats::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn injected_cycles_are_classified(cover_pick in 0usize..4096, pin_pick in 0usize..4096) {
        let (base, lib, _) = &*BASE;
        let mut design = copy_design(base);
        let candidates: Vec<usize> = design
            .covers
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.instances.is_empty())
            .map(|(i, _)| i)
            .collect();
        let cover = &mut design.covers[candidates[cover_pick % candidates.len()]];
        // Every instance of a cover feeds its root instance (the last one),
        // so wiring any pin of any instance to the root's output closes a
        // combinational loop through the cell graph.
        let root_out = cover.instances.last().unwrap().output;
        let n = cover.instances.len();
        let inst = &mut cover.instances[pin_pick % n];
        let p = pin_pick / n % inst.inputs.len().max(1);
        inst.inputs[p] = root_out;
        let report = analyze_design(&design, lib);
        prop_assert!(
            report.findings.iter().any(|f| f.code == "structure.cycle"),
            "cycle not classified:\n{}",
            report.render()
        );
    }

    #[test]
    fn forged_output_bursts_are_flagged(edge_pick in 0usize..4096, out_pick in 0usize..4096) {
        let (base, lib, spec) = &*BASE;
        let mut forged = spec.clone();
        let e = edge_pick % forged.edges.len();
        let o = out_pick % forged.output_names.len();
        let burst = &mut forged.edges[e].output_burst;
        burst.set(o, !burst.get(o));
        // A flip can make the spec itself inconsistent (reconvergent
        // states with clashing outputs); those cases are not analyzable
        // designs and are discarded.
        if asyncmap_burst::expand(&forged).is_err() {
            return Ok(());
        }
        let report = analyze_design_with_spec(base, lib, &forged);
        prop_assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "boundary.burst-mismatch"),
            "forged burst (edge {e}, output {o}) not flagged:\n{}",
            report.render()
        );
    }
}

/// Figure 3 with its consensus term, mapped hazard-free — then the
/// cover is swapped for a single MUX2 (`s·a + s'·b`): same function
/// (`ab + a'c ≡ ab + a'c + bc`), but the mux's two-cube structure has
/// the textbook static-1 hazard at `b = c = 1`. The boundary sweep must
/// refuse the substitution.
#[test]
fn glitch_capable_cover_is_flagged() {
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();
    let vars = VarTable::from_names(["a", "b", "c"]);
    let f = Cover::parse("ab + a'c + bc", &vars).unwrap();
    let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
    let base = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    let clean = analyze_design(&base, &lib);
    assert!(clean.is_clean(), "{}", clean.render());

    // Locate MUX2 by truth table: f(s, a, b) = s·a + s'·b.
    let mux2 = lib
        .cells()
        .iter()
        .position(|c| {
            c.num_inputs() == 3
                && (0..8u32).all(|i| {
                    let mut pins = Bits::new(3);
                    for b in 0..3 {
                        pins.set(b, i >> b & 1 == 1);
                    }
                    let (s, a, b) = (pins.get(0), pins.get(1), pins.get(2));
                    c.bff().eval(&pins) == if s { a } else { b }
                })
        })
        .expect("LSI9K has a MUX2");

    let mut design = base;
    let out_sig = design
        .subject
        .outputs()
        .iter()
        .find(|(n, _)| n == "f")
        .expect("output f")
        .1;
    let cone_idx = design
        .cones
        .iter()
        .position(|c| c.root == out_sig)
        .expect("output cone");
    let leaf = |name: &str| {
        *design.cones[cone_idx]
            .leaves
            .iter()
            .find(|&&s| design.subject.name(s) == SignalName::Input(name))
            .unwrap_or_else(|| panic!("leaf {name}"))
    };
    let (a, b, c) = (leaf("a"), leaf("b"), leaf("c"));
    let root = design.cones[cone_idx].root;
    design.covers[cone_idx].instances = vec![Instance {
        cell_index: mux2,
        output: root,
        inputs: vec![a, b, c],
    }];

    let report = analyze_design(&design, &lib);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "boundary.containment"),
        "hazardous substitute cover not flagged:\n{}",
        report.render()
    );

    // The finding names a burst over the cone's leaves on which the mux
    // glitches and the subject cone does not.
    let finding = report
        .findings
        .iter()
        .find(|f| f.code == "boundary.containment")
        .expect("containment finding");
    let (_, text) = finding
        .message
        .split_once(": transition ")
        .expect("a witness");
    let (from, to) = text.split_once(" → ").expect("from → to");
    let parse = |s: &str| {
        let digits = s.split_whitespace().next().unwrap_or_default();
        usize::from_str_radix(digits.trim_start_matches("0b"), 2).expect("binary assignment")
    };
    let cone = &design.cones[cone_idx];
    let n = cone.leaves.len();
    let (from, to) = (index_bits(n, parse(from)), index_bits(n, parse(to)));
    let mapped = mapped_cone_expr(cone, &design.covers[cone_idx], &lib).unwrap();
    let subject = cone.to_expr(&design.subject);
    assert!(wave_eval(&mapped, &from, &to).hazard, "{}", finding.message);
    assert!(
        !wave_eval(&subject, &from, &to).hazard,
        "{}",
        finding.message
    );
}

/// A cell instance copied into a second cover drives its output twice.
#[test]
fn instance_in_two_covers_is_flagged_as_multi_driver() {
    let (base, lib, _) = &*BASE;
    let mut design = copy_design(base);
    let copy = design.covers[0].instances[0].clone();
    design.covers[1].instances.push(copy);
    let report = analyze_design(&design, lib);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "structure.multiply-driven"),
        "{}",
        report.render()
    );
}

/// Dropping an inner instance leaves the pin that read its output with
/// no driver.
#[test]
fn dropped_inner_instance_is_flagged_as_undriven() {
    let (base, lib, _) = &*BASE;
    let mut design = copy_design(base);
    let cover = design
        .covers
        .iter_mut()
        .find(|c| c.instances.len() >= 2)
        .expect("some cover uses two cells");
    let root = cover.root;
    let inner = cover
        .instances
        .iter()
        .position(|i| i.output != root)
        .unwrap();
    cover.instances.remove(inner);
    let report = analyze_design(&design, lib);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "structure.undriven"),
        "{}",
        report.render()
    );
}

/// A cone that names a signal outside the subject network is reported,
/// not analyzed: an out-of-range root used to panic in the boundary
/// check, and an out-of-range leaf or gate used to pass unnoticed.
#[test]
fn out_of_range_cone_signals_are_flagged() {
    let mut lib = builtin::actel();
    lib.annotate_hazards();
    let base = async_tmap(&benchmark("dme"), &lib, &MapOptions::default()).unwrap();
    assert!(analyze_design(&base, &lib).is_clean());
    let outside = SignalId(base.subject.len() + 5);
    for what in ["root", "leaf", "gate"] {
        let mut design = copy_design(&base);
        let cone = &mut design.cones[0];
        match what {
            "root" => cone.root = outside,
            "leaf" => cone.leaves.push(outside),
            _ => cone.gates.push(outside),
        }
        let report = analyze_design(&design, &lib);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "structure.signal-out-of-range"),
            "out-of-range cone {what} not flagged:\n{}",
            report.render()
        );
    }
}

/// An instance reading another cone's inner signal keeps the instance
/// graph acyclic and fully driven, so only the cone builder sees it: fma
/// reports it under lint's code instead of panicking. dme × Actel rebinds
/// cone 7 to `n13` of cone 6; scsi × LSI9K cone 23 to `n38` of cone 22.
#[test]
fn binding_into_another_cone_is_flagged_as_unbound_pin() {
    let (scsi, lsi9k, _) = &*BASE;
    let mut actel = builtin::actel();
    actel.annotate_hazards();
    let dme = async_tmap(&benchmark("dme"), &actel, &MapOptions::default()).unwrap();
    for (base, lib, cone, signal) in [(&dme, &actel, 7, 13), (scsi, lsi9k, 23, 38)] {
        let mut design = copy_design(base);
        design.covers[cone].instances[0].inputs[0] = SignalId(signal);
        let report = analyze_design(&design, lib);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.code == "function.unbound-pin" && f.severity == Severity::Error),
            "{}",
            report.render()
        );
    }
}
