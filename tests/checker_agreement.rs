//! Lint and fma share core's instance-graph validator and cone builder, so
//! every instance-graph corruption must reach both checkers as the same
//! finding code, and neither may panic on it.
//!
//! Each mutation is applied to a fresh copy of a mapped design:
//!
//! * a cone root, leaf or gate, or a binding, outside the subject network
//!   → `structure.signal-out-of-range`;
//! * an instance copied into a second cover → `structure.multiply-driven`;
//! * a root instance reading its own output → `structure.cycle`;
//! * a dropped inner instance, or a dropped output root instance →
//!   `structure.undriven`;
//! * an instance reading another cone's inner signal (the graph stays
//!   acyclic and fully driven) → `function.unbound-pin`.

use asyncmap::burst::{all_benchmarks, benchmark};
use asyncmap::fma::analyze_design;
use asyncmap::library::{builtin, Library};
use asyncmap::lint::{lint_mapped_design, Severity};
use asyncmap::mapper::{async_tmap, validate_instance_graph, MapOptions, MapStats, MappedDesign};
use asyncmap::network::SignalId;
use asyncmap::report::Report;
use std::collections::BTreeSet;

/// The instance-graph codes both checkers report from the validator.
const GRAPH_CODES: [&str; 4] = [
    "structure.signal-out-of-range",
    "structure.multiply-driven",
    "structure.undriven",
    "structure.cycle",
];

type Mutation = (&'static str, &'static str, fn(&mut MappedDesign));

fn mutations() -> Vec<Mutation> {
    fn outside(d: &MappedDesign) -> SignalId {
        SignalId(d.subject.len() + 5)
    }
    vec![
        ("cone root out of range", GRAPH_CODES[0], |d| {
            d.cones[0].root = outside(d)
        }),
        ("cone leaf out of range", GRAPH_CODES[0], |d| {
            let s = outside(d);
            d.cones[0].leaves.push(s)
        }),
        ("cone gate out of range", GRAPH_CODES[0], |d| {
            let s = outside(d);
            d.cones[0].gates.push(s)
        }),
        ("binding out of range", GRAPH_CODES[0], |d| {
            let s = outside(d);
            d.covers[0].instances[0].inputs[0] = s
        }),
        ("multiply driven", GRAPH_CODES[1], |d| {
            let copy = d.covers[0].instances[0].clone();
            d.covers[1].instances.push(copy);
        }),
        ("cycle", GRAPH_CODES[3], |d| {
            let cover = &mut d.covers[0];
            let root = cover.root;
            let inst = cover.instances.iter_mut().find(|i| i.output == root);
            inst.expect("root instance").inputs[0] = root;
        }),
        ("dropped inner instance", GRAPH_CODES[2], |d| {
            let cover = (d.covers.iter_mut())
                .find(|c| c.instances.len() >= 2)
                .expect("some cover uses two cells");
            let root = cover.root;
            cover.instances.retain(|i| i.output == root);
        }),
        ("undriven output", GRAPH_CODES[2], |d| {
            let out = d.subject.outputs()[0].1;
            let cover = (d.covers.iter_mut()).find(|c| c.root == out);
            cover
                .expect("output cone")
                .instances
                .retain(|i| i.output != out);
        }),
        ("cross-cone binding", "function.unbound-pin", |d| {
            let (cone, signal) = cross_cone_binding(d);
            d.covers[cone].instances[0].inputs[0] = signal;
        }),
    ]
}

/// The first cone `k` whose predecessor `k - 1` has an inner instance,
/// and that instance's output: rebinding the first pin of cone `k`'s first
/// instance to it keeps the graph acyclic (cones come in topological
/// order) and fully driven, but escapes cone `k`.
fn cross_cone_binding(d: &MappedDesign) -> (usize, SignalId) {
    (1..d.covers.len())
        .find_map(|k| {
            let inner = d.covers[k - 1].instances.first()?.output;
            let fits = inner != d.covers[k - 1].root && !d.covers[k].instances.is_empty();
            fits.then_some((k, inner))
        })
        .expect("a cone follows a multi-instance cone")
}

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

fn error_codes<C>(report: &Report<C>) -> BTreeSet<&'static str> {
    let errors = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error);
    errors.map(|f| f.code).collect()
}

/// Applies every mutation to `design` and checks that lint and fma agree.
fn assert_checkers_agree(what: &str, design: &MappedDesign, lib: &Library) {
    assert!(lint_mapped_design(design, lib).is_clean(), "{what}");
    assert!(analyze_design(design, lib).num_errors() == 0, "{what}");
    for (name, code, mutate) in mutations() {
        let mut broken = copy_design(design);
        mutate(&mut broken);
        let lint = error_codes(&lint_mapped_design(&broken, lib));
        let fma = error_codes(&analyze_design(&broken, lib));
        assert!(
            lint.contains(code) && fma.contains(code),
            "{what}, {name}: expected {code}; lint {lint:?}, fma {fma:?}"
        );
        // Both report the validator's faults, so their instance-graph
        // codes coincide.
        let graph = |codes: &BTreeSet<&'static str>| {
            let graph_code = |c: &&&str| GRAPH_CODES.contains(c);
            codes.iter().filter(graph_code).copied().collect::<Vec<_>>()
        };
        assert_eq!(graph(&lint), graph(&fma), "{what}, {name}");
    }
}

fn mapped(name: &str, mut lib: Library) -> (MappedDesign, Library) {
    lib.annotate_hazards();
    let design = async_tmap(&benchmark(name), &lib, &MapOptions::default()).expect("maps");
    (design, lib)
}

#[test]
fn checkers_agree_on_dme_and_scsi() {
    for (name, lib) in [("dme", builtin::actel()), ("scsi", builtin::lsi9k())] {
        let (design, lib) = mapped(name, lib);
        assert_checkers_agree(name, &design, &lib);
    }
}

/// The cross-cone binding is the one that used to panic: on dme ×
/// Actel, cone 7's first instance rebound to `n13`, an inner instance
/// output of cone 6. The validator passes it, so only the cone builder
/// can catch it.
#[test]
fn cross_cone_binding_is_the_one_that_panicked_and_passes_the_validator() {
    let (design, lib) = mapped("dme", builtin::actel());
    assert_eq!(cross_cone_binding(&design), (7, SignalId(13)));
    let mut broken = copy_design(&design);
    broken.covers[7].instances[0].inputs[0] = SignalId(13);
    assert!(validate_instance_graph(&broken, &lib).is_empty());
}

/// Every Table 5 benchmark on every built-in library (run with
/// `cargo test --release --test checker_agreement -- --ignored`).
#[test]
#[ignore]
fn checkers_agree_on_every_benchmark_and_library() {
    for lib in builtin::all_libraries() {
        for (name, eqs) in all_benchmarks() {
            let mut lib = lib.clone();
            lib.annotate_hazards();
            let design = async_tmap(&eqs, &lib, &MapOptions::default()).expect("maps");
            assert_checkers_agree(&format!("{name} x {}", lib.name()), &design, &lib);
        }
    }
}
