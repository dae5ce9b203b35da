//! The direct-BDD functional check against the expression path it
//! replaced: on every cone of the 11 Table 5 benchmarks mapped to the four
//! built-in libraries, the subject and mapped BDDs built in one pass over
//! the gates and instances are the very nodes the BDDs of
//! [`Cone::to_expr`] and [`mapped_cone_expr`] are, a cover with two pins
//! swapped still fails the check, and a cover reading another cone's
//! inner signal fails it instead of panicking.

use asyncmap_bdd::with_thread_manager;
use asyncmap_core::{
    async_tmap, bdd_of_expr, mapped_cone_bdd, mapped_cone_expr, subject_cone_bdd,
    verify_cone_function, ConeCover, GraphFault, MapOptions, MappedDesign,
};
use asyncmap_hazard::EXHAUSTIVE_VAR_LIMIT;
use asyncmap_library::{builtin, Library};
use asyncmap_network::SignalId;

fn mapped_suite(libraries: Vec<Library>) -> Vec<(String, Library, MappedDesign)> {
    let mut out = Vec::new();
    for mut lib in libraries {
        lib.annotate_hazards();
        for (name, eqs) in asyncmap_burst::all_benchmarks() {
            let design = async_tmap(&eqs, &lib, &MapOptions::default()).expect("benchmark maps");
            out.push((format!("{name} x {}", lib.name()), lib.clone(), design));
        }
    }
    out
}

/// The expression path: BDDs of the two expressions in one manager.
fn verdict_by_exprs(design: &MappedDesign, k: usize, cover: &ConeCover, lib: &Library) -> bool {
    let cone = &design.cones[k];
    let orig = cone.to_expr(&design.subject);
    let mapped = mapped_cone_expr(cone, cover, lib).unwrap();
    with_thread_manager(cone.leaves.len(), |mgr| {
        bdd_of_expr(mgr, &orig) == bdd_of_expr(mgr, &mapped)
    })
}

#[test]
fn direct_bdds_equal_the_expression_bdds() {
    let suite = mapped_suite(builtin::all_libraries());
    assert_eq!(suite.len(), 44);
    for (what, lib, design) in &suite {
        for (k, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
            let net = &design.subject;
            with_thread_manager(cone.leaves.len(), |mgr| {
                let subject = subject_cone_bdd(mgr, net, cone);
                let mapped = mapped_cone_bdd(mgr, cone, cover, lib).unwrap();
                assert_eq!(
                    subject,
                    bdd_of_expr(mgr, &cone.to_expr(net)),
                    "{what} cone {k}"
                );
                let mapped_expr = mapped_cone_expr(cone, cover, lib).unwrap();
                assert_eq!(mapped, bdd_of_expr(mgr, &mapped_expr), "{what} cone {k}");
            });
            assert!(
                verify_cone_function(net, cone, cover, lib),
                "{what} cone {k}"
            );
            assert!(verdict_by_exprs(design, k, cover, lib), "{what} cone {k}");
        }
    }
}

/// Swapping two pins of one instance breaks the cover whenever the two
/// pins are not interchangeable, and the direct check must say so exactly
/// when the expression path does. Tries the first two instances with two
/// distinct input signals in every cone.
#[test]
fn a_swapped_pin_still_fails() {
    let mut broken = 0;
    for (what, lib, design) in &mapped_suite(vec![builtin::lsi9k()]) {
        for (k, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
            let swappable = cover
                .instances
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.inputs.iter().any(|&s| s != inst.inputs[0]));
            for (i, inst) in swappable.take(2) {
                let Some(p) = (1..inst.inputs.len()).find(|&p| inst.inputs[p] != inst.inputs[0])
                else {
                    continue;
                };
                let mut swapped = cover.clone();
                swapped.instances[i].inputs.swap(0, p);
                let by_exprs = verdict_by_exprs(design, k, &swapped, lib);
                let direct = verify_cone_function(&design.subject, cone, &swapped, lib);
                assert_eq!(direct, by_exprs, "{what} cone {k} instance {i}");
                broken += usize::from(!direct);
            }
        }
    }
    assert!(broken > 0, "some pin swap changes a cone's function");
}

/// An instance reading another cone's inner signal: dme × Actel rebinds
/// cone 7 to `n13` of cone 6, scsi × LSI9K cone 23 to `n38` of cone 22.
/// The cover no longer composes over its cone's leaves, so both checks
/// fail instead of panicking, scsi's 34-leaf cone 23 too although
/// `verify_hazards` decides no cone that wide.
#[test]
fn a_binding_into_another_cone_fails_both_checks() {
    let mut actel = builtin::actel();
    actel.annotate_hazards();
    let mut lsi9k = builtin::lsi9k();
    lsi9k.annotate_hazards();
    let cases = [("dme", actel, 7, 13, false), ("scsi", lsi9k, 23, 38, true)];
    for (name, lib, cone, signal, wide) in cases {
        let eqs = asyncmap_burst::benchmark(name);
        let mut design = async_tmap(&eqs, &lib, &MapOptions::default()).expect("maps");
        let leaves = design.cones[cone].leaves.len();
        assert_eq!(leaves > EXHAUSTIVE_VAR_LIMIT, wide, "{name}");
        assert!(design.verify_function(&lib) && design.verify_hazards(&lib));
        design.covers[cone].instances[0].inputs[0] = SignalId(signal);
        assert!(!design.verify_function(&lib), "{name}");
        assert!(!design.verify_hazards(&lib), "{name}");
        let (cone, cover) = (&design.cones[cone], &design.covers[cone]);
        assert_eq!(
            mapped_cone_expr(cone, cover, &lib),
            Err(GraphFault::Unbound(SignalId(signal)))
        );
    }
}
