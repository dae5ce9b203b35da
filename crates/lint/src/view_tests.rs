//! `view_cover` against a reference that rebuilds each instance's cut set
//! as `leaves ∪ (outputs − {output})` in hash sets, the way the views were
//! first written.

use super::*;
use asyncmap_core::{async_tmap, MapOptions};
use asyncmap_library::builtin;
use std::collections::HashSet;

fn reference_view<'a>(
    net: &Network,
    cone: &Cone,
    cone_idx: usize,
    inst: &'a Instance,
    cut_set: &HashSet<SignalId>,
    cone_gates: &HashSet<SignalId>,
    report: &mut LintReport,
) -> InstanceView<'a> {
    let mut view = InstanceView {
        cone_idx,
        inst,
        cut_signals: Vec::new(),
        covered_gates: Vec::new(),
        structurally_sound: true,
    };
    let (mut seen_cut, mut seen_gate) = (HashSet::new(), HashSet::new());
    let mut stack = vec![(inst.output, true)];
    while let Some((s, is_root)) = stack.pop() {
        if !is_root && cut_set.contains(&s) {
            if seen_cut.insert(s) {
                view.cut_signals.push(s);
            }
            continue;
        }
        if !cone_gates.contains(&s) {
            let path = path_of(net, cone, Some(inst));
            let message = format!("reaches {}", net.name(s));
            report.push(Severity::Error, "coverage.escapes-cone", path, message);
            view.structurally_sound = false;
            continue;
        }
        if !seen_gate.insert(s) {
            continue;
        }
        view.covered_gates.push(s);
        if let NodeKind::Gate { fanin, .. } = net.node(s) {
            stack.extend(fanin.iter().map(|&f| (f, false)));
        }
    }
    view
}

fn assert_views_agree(design: &MappedDesign, what: &str) {
    let net = &design.subject;
    let mut marks = ConeMarks::new(net);
    for (idx, (cone, cover)) in design.cones.iter().zip(&design.covers).enumerate() {
        let (mut fast_report, mut ref_report) = (LintReport::default(), LintReport::default());
        let fast = view_cover(net, cone, idx, cover, &mut marks, &mut fast_report);
        let cone_gates: HashSet<SignalId> = cone.gates.iter().copied().collect();
        let outputs: HashSet<SignalId> = cover.instances.iter().map(|i| i.output).collect();
        let leaves: HashSet<SignalId> = cone.leaves.iter().copied().collect();
        for (k, (inst, view)) in cover.instances.iter().zip(&fast).enumerate() {
            let mut cut_set = leaves.clone();
            cut_set.extend(outputs.iter().copied().filter(|&o| o != inst.output));
            let r = reference_view(net, cone, idx, inst, &cut_set, &cone_gates, &mut ref_report);
            let at = format!("{what}: cone {idx} instance {k}");
            assert_eq!(view.cut_signals, r.cut_signals, "{at}");
            assert_eq!(view.covered_gates, r.covered_gates, "{at}");
            assert_eq!(view.structurally_sound, r.structurally_sound, "{at}");
        }
        assert_eq!(fast.len(), cover.instances.len(), "{what}: cone {idx}");
        let escapes = |r: &LintReport| {
            r.findings
                .iter()
                .map(|f| f.path.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            escapes(&fast_report),
            escapes(&ref_report),
            "{what}: cone {idx}"
        );
    }
}

/// The design with its corrupted covers: an instance reading its own
/// output, a cone leaf that is also an instance output, and two instances
/// driving one signal.
fn check_with_corruptions(design: MappedDesign, what: &str) {
    assert_views_agree(&design, what);
    let multi = |d: &MappedDesign| d.covers.iter().position(|c| c.instances.len() >= 2);
    let mut design = design;
    if let Some(c) = multi(&design) {
        let out = design.covers[c].instances[0].output;
        design.covers[c].instances[0].inputs[0] = out;
        assert_views_agree(&design, &format!("{what}, self-read"));
        let inner = design.covers[c].instances[0].output;
        design.cones[c].leaves.push(inner);
        assert_views_agree(&design, &format!("{what}, leaf is an output"));
        let root = design.covers[c].root;
        design.covers[c].instances[0].output = root;
        assert_views_agree(&design, &format!("{what}, two drivers"));
    }
}

fn mapped(name: &str, lib: &Library) -> MappedDesign {
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    async_tmap(&asyncmap_burst::benchmark(name), lib, &opts).expect("benchmark maps")
}

#[test]
fn views_equal_the_hash_set_reference() {
    type LibFn = fn() -> Library;
    let pairs: [(&str, LibFn); 4] = [
        ("scsi", builtin::lsi9k),
        ("abcs", builtin::lsi9k),
        ("pe-send-ifc", builtin::actel),
        ("dme", builtin::actel),
    ];
    for (name, lib) in pairs {
        let mut lib = lib();
        lib.annotate_hazards();
        check_with_corruptions(mapped(name, &lib), &format!("{name} x {}", lib.name()));
    }
}

/// Every Table 5 benchmark on every built-in library; run in release with
/// `cargo test --release -p asyncmap-lint --lib view_tests -- --ignored`.
#[test]
#[ignore]
fn views_equal_the_hash_set_reference_on_every_benchmark() {
    let libs: [fn() -> Library; 4] = [builtin::lsi9k, builtin::cmos3, builtin::gdt, builtin::actel];
    for lib in libs {
        let mut lib = lib();
        lib.annotate_hazards();
        for (name, eqs) in asyncmap_burst::all_benchmarks() {
            let design = async_tmap(&eqs, &lib, &MapOptions::default()).expect("benchmark maps");
            check_with_corruptions(design, &format!("{name} x {}", lib.name()));
        }
    }
}
