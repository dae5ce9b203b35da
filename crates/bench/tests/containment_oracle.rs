//! The multi-method containment ladder as a test oracle for the checkers'
//! one containment decision.
//!
//! Audit and lint decide `hazards(candidate) ⊆ hazards(reference)` with
//! `decide_containment`, which is the exhaustive transition sweep on
//! supports of at most `EXHAUSTIVE_VAR_LIMIT` variables. This test replays
//! every such obligation they decide through `reverify_containment` — the
//! sweep, the descriptor-guided comparison, static-1 cube adjacency and,
//! on small supports, the brute-force oracle — and requires the methods to
//! agree with each other and with the checker's verdict:
//!
//! * every audit rewrite-step obligation and every equation-certificate
//!   obligation, over the step's compacted support;
//! * every lint hazardous-binding obligation of the mapped designs.
//!
//! The designs are the four Table 5 benchmarks on each built-in library,
//! plus one generated design. The hazard-aware mapper binds no hazardous
//! cell on any of them, so each design is also mapped by the synchronous
//! `tmap`, which binds them freely (lint refutes those bindings), and a
//! bare two-input mux, whose subnetwork has the mux cell's hazards, gives
//! lint bindings that hold. Every lint refutation's witness burst is replayed
//! on `wave_eval`: the candidate glitches on it and the reference does
//! not. Run in release:
//! `cargo test --release -p asyncmap-bench --test containment_oracle -- --ignored`.

use asyncmap_audit::equiv::{compact_onto, union_support};
use asyncmap_audit::recheck_monotone;
use asyncmap_bench::{generate, GenSpec};
use asyncmap_bff::Expr;
use asyncmap_core::{async_tmap, tmap, MapOptions};
use asyncmap_cube::{Bits, Cover, VarTable};
use asyncmap_hazard::{
    decide_containment, hazards_subset_exhaustive, wave_eval, Containment, PartialReason,
    EXHAUSTIVE_VAR_LIMIT,
};
use asyncmap_library::{builtin, Library};
use asyncmap_lint::binding_obligations;
use asyncmap_network::{async_tech_decomp_traced, EquationSet, RewriteRule};
use asyncmap_oracle::reverify_containment;

const BENCHMARKS: [&str; 4] = ["scsi", "abcs", "pe-send-ifc", "dme"];

/// Obligations replayed: audit's by whether the support exceeds six
/// variables (where the brute-force oracle stops), lint's by verdict
/// (refuted, held).
#[derive(Debug, Default)]
struct Tally {
    audit: [usize; 2],
    lint: [usize; 2],
}

fn designs() -> Vec<(String, EquationSet)> {
    let mut all: Vec<(String, EquationSet)> = BENCHMARKS
        .iter()
        .map(|&name| (name.to_owned(), asyncmap_burst::benchmark(name)))
        .collect();
    let spec = GenSpec {
        target_gates: 1_000,
        inputs: 16,
        seed: 7,
    };
    all.push(("gen1000".to_owned(), generate(&spec)));
    let vars = VarTable::from_names(["s", "a", "b"]);
    let mux = Cover::parse("sa + s'b", &vars).expect("valid cover");
    all.push((
        "mux".to_owned(),
        EquationSet::new(vars, vec![("f".to_owned(), mux)]),
    ));
    all
}

fn libraries() -> Vec<Library> {
    [builtin::lsi9k, builtin::cmos3, builtin::gdt, builtin::actel]
        .into_iter()
        .map(|make| {
            let mut lib = make();
            lib.annotate_hazards();
            lib
        })
        .collect()
}

/// Replays one exactly decided obligation through the ladder: the methods
/// agree, and the ladder's verdict is the sweep's and the checker's.
fn replay(candidate: &Expr, reference: &Expr, n: usize, checker: bool, what: &str) {
    let ladder = reverify_containment(candidate, reference, n);
    assert!(
        ladder.methods_agree(),
        "{what}: methods disagree: {ladder:?}"
    );
    let sweep = hazards_subset_exhaustive(candidate, reference, n);
    assert_eq!(ladder.accepted(), sweep, "{what}: ladder and sweep differ");
    assert_eq!(checker, sweep, "{what}: checker and sweep differ");
}

/// Every step and equation-certificate obligation audit decides exactly.
fn replay_audit(name: &str, eqs: &EquationSet, tally: &mut Tally) {
    let (_, trace) = async_tech_decomp_traced(eqs);
    let steps = trace
        .steps
        .iter()
        .filter(|s| s.rule != RewriteRule::InputInverter)
        .map(|s| (&s.after, &s.before));
    let certificates = trace.equations.iter().map(|c| (&c.result, &c.source));
    for (i, (candidate, reference)) in steps.chain(certificates).enumerate() {
        let support = union_support(candidate, reference);
        let k = support.len().max(1);
        if k > EXHAUSTIVE_VAR_LIMIT {
            continue;
        }
        let (verdict, _) = recheck_monotone(candidate, reference);
        assert!(
            !matches!(verdict, Containment::Partial(_)),
            "{name} obligation {i}: partial at {k}"
        );
        replay(
            &compact_onto(candidate, &support),
            &compact_onto(reference, &support),
            k,
            verdict == Containment::Holds,
            &format!("{name} audit obligation {i} ({k} variables)"),
        );
        tally.audit[usize::from(k > 6)] += 1;
    }
}

/// Every hazardous-binding obligation lint decides on `eqs` mapped onto
/// `lib`, by the hazard-aware and by the synchronous mapper.
fn replay_lint(name: &str, eqs: &EquationSet, lib: &Library, tally: &mut Tally) {
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let designs = [
        ("async_tmap", async_tmap(eqs, lib, &opts)),
        ("tmap", tmap(eqs, lib, &opts)),
    ];
    for (flow, design) in designs {
        let design = design.expect("design maps");
        for (i, (candidate, reference, n)) in binding_obligations(&design, lib).iter().enumerate() {
            let what = format!(
                "{name} x {} ({flow}) binding {i} ({n} cut signals)",
                lib.name()
            );
            let verdict = decide_containment(candidate, reference, *n);
            if *n > EXHAUSTIVE_VAR_LIMIT {
                // Lint's wide verdict is the static-1 adjacency test on the
                // flattenings (identical structures hold without it): it
                // refutes exactly where the ladder's static-1 rung does,
                // and a refutation is also the ladder's overall verdict.
                let ladder = reverify_containment(candidate, reference, *n);
                assert!(ladder.methods_agree(), "{what}: {ladder:?}");
                if verdict != Containment::Partial(PartialReason::OverReplayCap) {
                    let refuted = matches!(verdict, Containment::Refuted(_));
                    assert_eq!(refuted, !ladder.static1_adjacency, "{what}");
                    assert!(!refuted || !ladder.accepted(), "{what}");
                }
                continue;
            }
            let holds = verdict == Containment::Holds;
            replay(candidate, reference, *n, holds, &what);
            if let Containment::Refuted(Some((from, to))) = verdict {
                let (from, to) = (Bits::from_index(*n, from), Bits::from_index(*n, to));
                assert!(
                    wave_eval(candidate, &from, &to).hazard
                        && !wave_eval(reference, &from, &to).hazard,
                    "{what}: witness does not escape"
                );
            }
            tally.lint[usize::from(holds)] += 1;
        }
    }
}

#[test]
#[ignore = "CI-scale: run in release with --ignored"]
fn checker_obligations_agree_with_the_reverification_ladder() {
    let libs = libraries();
    let mut tally = Tally::default();
    for (name, eqs) in designs() {
        replay_audit(&name, &eqs, &mut tally);
        for lib in &libs {
            replay_lint(&name, &eqs, lib, &mut tally);
        }
    }
    eprintln!("replayed: {tally:?}");
    // The audit side reaches the 7–8 variable supports the sweep took
    // over from the partial check; the lint side reaches both verdicts.
    assert!(tally.audit[0] > 0 && tally.audit[1] > 0, "{tally:?}");
    assert!(tally.lint[0] > 0 && tally.lint[1] > 0, "{tally:?}");
}
