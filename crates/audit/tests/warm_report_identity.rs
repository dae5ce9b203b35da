//! A warm [`AuditCache`] must not change what an audit reports.
//!
//! A seeded generated design (16 inputs, so many cones are wider than
//! `EXHAUSTIVE_VAR_LIMIT` and carry `flatten.hazard-partial` notes) takes
//! cumulative single-cube edits through one cache. After every edit the
//! warm report must list exactly the diagnostics of an uncached audit of
//! the same equations, and its hazard and certificate counters must
//! equal golden values.
//!
//! The design also carries one very wide equation, placed last. Its
//! top-level regrouping step and its equation certificate are too wide
//! even for the partial hazard re-check, so both carry a
//! `decomp.hazard-partial` note. Edits that change how many steps an
//! earlier equation decomposes into shift that step's index, so its
//! replayed note must follow the step to its new path.

use asyncmap_audit::{audit_equations, audit_equations_cached, AuditCache, AuditReport, Severity};
use asyncmap_bench::{apply_edits, generate, generate_edits, GenSpec};
use asyncmap_cube::{Cover, Cube, Phase, VarId};
use asyncmap_network::EquationSet;

const EDITS: usize = 12;

/// `(hazard_rechecks, hazard_partial, num_certificates)` of the warm
/// report for the base design (entry 0, a cold cache) and after each
/// edit. First recorded from the string-keyed cache that re-ran every
/// note-carrying obligation, and re-recorded when the exact sweep's limit
/// rose from 6 to 8 variables (fewer partial re-checks, no certificate
/// moved); replaying stored notes must not move them.
const GOLDEN: [(usize, usize, usize); EDITS + 1] = [
    (2436, 115, 2762),
    (1, 49, 2762),
    (4, 47, 2762),
    (0, 49, 2762),
    (1, 50, 2762),
    (3, 48, 2762),
    (3, 48, 2761),
    (0, 50, 2761),
    (3, 48, 2761),
    (3, 49, 2761),
    (4, 49, 2761),
    (1, 51, 2761),
    (0, 51, 2760),
];

/// 2049 three-literal cubes, each with a positive first literal: more
/// products than half the flatten replay cap on each side of the
/// regrouping step, and never a tautology (the all-zero input is not
/// covered).
fn wide_cover(nvars: usize) -> Cover {
    let mut cubes = Vec::new();
    'all: for i in 0..nvars {
        for j in i + 1..nvars {
            for k in j + 1..nvars {
                for phases in 0..4 {
                    let phase = |bit: u32| {
                        if phases >> bit & 1 == 1 {
                            Phase::Neg
                        } else {
                            Phase::Pos
                        }
                    };
                    cubes.push(Cube::from_literals(
                        nvars,
                        [
                            (VarId(i), Phase::Pos),
                            (VarId(j), phase(0)),
                            (VarId(k), phase(1)),
                        ],
                    ));
                    if cubes.len() == 2049 {
                        break 'all;
                    }
                }
            }
        }
    }
    Cover::from_cubes(nvars, cubes)
}

/// The generated design, and the same design with the wide equation
/// appended.
fn designs() -> (EquationSet, EquationSet) {
    let generated = generate(&GenSpec {
        target_gates: 800,
        inputs: 16,
        seed: 14,
    });
    let mut equations = generated.equations.clone();
    equations.push(("wide".to_owned(), wide_cover(generated.inputs.len())));
    let base = EquationSet::new(generated.inputs.clone(), equations);
    (generated, base)
}

type Diagnostic = (Severity, &'static str, String, String);

fn diagnostics(report: &AuditReport) -> Vec<Diagnostic> {
    let mut all: Vec<Diagnostic> = report
        .findings
        .iter()
        .chain(&report.notes)
        .map(|f| (f.severity, f.code, f.path.clone(), f.message.clone()))
        .collect();
    all.sort();
    all
}

fn counters(report: &AuditReport) -> (usize, usize, usize) {
    let k = &report.counters;
    (k.hazard_rechecks, k.hazard_partial, k.num_certificates())
}

#[test]
fn warm_reports_match_uncached_audits_across_edits() {
    let (generated, base) = designs();
    let edits = generate_edits(&generated, EDITS, 0x5EED);

    let mut cache = AuditCache::new();
    let mut wide_step_paths = Vec::new();
    for k in 0..=EDITS {
        let eqs = apply_edits(&base, &edits[..k]);
        let warm = audit_equations_cached(&eqs, &mut cache);
        let cold = audit_equations(&eqs);
        assert!(warm.is_clean(), "edit {k}: {}", warm.render());
        assert_eq!(diagnostics(&warm), diagnostics(&cold), "edit {k}");
        assert_eq!(counters(&warm), GOLDEN[k], "edit {k}");

        let notes = |code: &str| warm.notes.iter().filter(|n| n.code == code).count();
        assert!(
            notes("flatten.hazard-partial") > 0,
            "edit {k}: no wide cone"
        );
        let step_note = warm
            .notes
            .iter()
            .find(|n| n.code == "decomp.hazard-partial" && n.path.contains(":step"))
            .expect("the wide regrouping step carries a note");
        wide_step_paths.push(step_note.path.clone());
        if k > 0 {
            assert!(warm.counters.reused_steps > 0, "edit {k}: nothing reused");
        }
    }
    wide_step_paths.dedup();
    assert!(
        wide_step_paths.len() > 1,
        "no edit shifted the wide step's index: {wide_step_paths:?}"
    );
}
