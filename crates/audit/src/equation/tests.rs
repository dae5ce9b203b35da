//! Differential identity: the equation audit against the whole-network
//! step-level path.
//!
//! Each design of a sequence is audited twice, on two caches that see the
//! same sequence: by [`audit_equations_cached`] and by the whole-network
//! step-level path (`async_tech_decomp_traced` + `partition_traced` +
//! [`check_pipeline_cached`]). Every counter (but the new
//! `decomposed_equations`) and every diagnostic, in order, must agree.
//! `decomposed_equations` must count exactly the equations the real
//! front end gives a new identity: a new name or cover, or inverters it
//! emits or reads across a cut that differ from every earlier design's.

use std::collections::HashSet;

use asyncmap_bench::{apply_edits, generate, generate_edits, GenSpec};
use asyncmap_cube::{Cover, Cube, Phase, VarId, VarTable};
use asyncmap_network::{
    async_tech_decomp_traced, partition_traced, Cone, DecompTrace, EquationSet, RewriteRule,
};
use proptest::prelude::*;

use crate::{
    audit_equations_cached, check_pipeline_cached, AuditCache, AuditCounters, AuditReport,
    Severity, FLATTEN_REPLAY_CAP,
};

type Diagnostic = (Severity, &'static str, String, String);

fn diagnostics(report: &AuditReport) -> Vec<Diagnostic> {
    report
        .findings
        .iter()
        .chain(&report.notes)
        .map(|f| (f.severity, f.code, f.path.clone(), f.message.clone()))
        .collect()
}

/// An equation as the real front end sees it: name, cover, the inputs
/// whose inverters its decomposition emits, and the negated inputs whose
/// inverters the whole-design partition cuts at.
type Identity = (String, String, Vec<usize>, Vec<usize>);

fn identities(eqs: &EquationSet, dtrace: &DecompTrace, cones: &[Cone]) -> Vec<Identity> {
    let inverter = |step: &asyncmap_network::RewriteStep| match &step.before {
        asyncmap_bff::Expr::Not(v) => match **v {
            asyncmap_bff::Expr::Var(v) => v.index(),
            _ => unreachable!("an input inverter negates a variable"),
        },
        _ => unreachable!("an input inverter negates a variable"),
    };
    let inverters: Vec<_> = dtrace
        .steps
        .iter()
        .filter(|s| s.rule == RewriteRule::InputInverter)
        .collect();
    let cut: HashSet<_> = cones.iter().map(|c| c.root).collect();
    eqs.equations
        .iter()
        .map(|(name, cover)| {
            let emits = inverters
                .iter()
                .filter(|s| s.equation == *name)
                .map(|s| inverter(s))
                .collect();
            let mut roots: Vec<usize> = inverters
                .iter()
                .filter(|s| cut.contains(&s.node))
                .map(|s| inverter(s))
                .filter(|&v| {
                    cover
                        .cubes()
                        .iter()
                        .any(|c| c.literal(VarId(v)) == Some(Phase::Neg))
                })
                .collect();
            roots.sort_unstable();
            (name.clone(), format!("{cover:?}"), emits, roots)
        })
        .collect()
}

/// The two paths and what they have seen.
#[derive(Default)]
struct Pair {
    equation: AuditCache,
    step: AuditCache,
    seen: HashSet<Identity>,
}

impl Pair {
    /// Audits `eqs` both ways and checks they agree. Returns the equation
    /// path's report.
    fn audit(&mut self, eqs: &EquationSet) -> AuditReport {
        let (net, dtrace) = async_tech_decomp_traced(eqs);
        let (cones, ptrace) = partition_traced(&net);
        let reference = check_pipeline_cached(eqs, &net, &dtrace, &cones, &ptrace, &mut self.step);
        let report = audit_equations_cached(eqs, &mut self.equation);
        assert_eq!(
            AuditCounters {
                decomposed_equations: 0,
                ..report.counters
            },
            reference.counters
        );
        assert_eq!(diagnostics(&report), diagnostics(&reference));
        let new = identities(eqs, &dtrace, &cones)
            .into_iter()
            .filter(|id| self.seen.insert(id.clone()))
            .count();
        assert_eq!(report.counters.decomposed_equations, new);
        report
    }
}

fn cover(text: &str, vars: &VarTable) -> Cover {
    Cover::parse(text, vars).unwrap()
}

/// `count` distinct four-literal cubes over the first `support` of
/// `nvars` inputs, each with a positive first literal, so the cover never
/// holds the all-zero input.
fn wide_cover(nvars: usize, support: usize, count: usize) -> Cover {
    let mut cubes = Vec::new();
    'all: for a in 0..support {
        for b in a + 1..support {
            for c in b + 1..support {
                for d in c + 1..support {
                    for phases in 0..8u32 {
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
                                (VarId(a), Phase::Pos),
                                (VarId(b), phase(0)),
                                (VarId(c), phase(1)),
                                (VarId(d), phase(2)),
                            ],
                        ));
                        if cubes.len() == count {
                            break 'all;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cubes.len(), count, "too few inputs for {count} cubes");
    Cover::from_cubes(nvars, cubes)
}

#[test]
fn hand_built_edits_match_the_step_level_path() {
    // The wide equation reads all inputs but n and o, most of them
    // negated.
    let names = [
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o",
    ];
    let vars = VarTable::from_names(names);
    let wide = wide_cover(vars.len(), 13, FLATTEN_REPLAY_CAP as usize + 1);
    let design = |eqs: &[(&str, &str)]| {
        let mut equations: Vec<(String, Cover)> = eqs
            .iter()
            .map(|&(name, text)| (name.to_owned(), cover(text, &vars)))
            .collect();
        // The cone over the replay cap sits after the edited equations,
        // so its root's gate id moves with their gate counts.
        equations.insert(4, ("wide".to_owned(), wide.clone()));
        EquationSet::new(vars.clone(), equations)
    };
    let base = [
        ("f0", "ab' + c"),
        ("f1", "b'd + a'c"),
        ("f2", "e'"),
        ("f3", "a"),
        ("f4", "co' + e'f"),
        ("f5", "co' + e'f"),
        ("f6", "g + hi"),
    ];
    let steps: [&[(&str, &str)]; 7] = [
        &base,
        // a' moves its first user (and its inverter) to f0.
        &[
            ("f0", "a'b' + c"),
            ("f1", "b'd + a'c"),
            ("f2", "e'"),
            ("f3", "a"),
            ("f4", "co' + e'f"),
            ("f5", "co' + e'f"),
            ("f6", "g + hi"),
        ],
        // o' loses its second user: its inverter is no longer a cone root.
        &[
            ("f0", "a'b' + c"),
            ("f1", "b'd + a'c"),
            ("f2", "e'"),
            ("f3", "a"),
            ("f4", "co' + e'f"),
            ("f5", "co + e'f"),
            ("f6", "g + hi"),
        ],
        // ...and gains it back; the lone e' becomes e, so the inverter of
        // e drives no output but is still shared.
        &[
            ("f0", "a'b' + c"),
            ("f1", "b'd + a'c"),
            ("f2", "e"),
            ("f3", "a"),
            ("f4", "co' + e'f"),
            ("f5", "co' + e'f"),
            ("f6", "g + hi"),
        ],
        // Single-literal cubes; a lone negative literal whose inverter an
        // earlier equation emits.
        &[
            ("f0", "a'b' + c"),
            ("f1", "b'd + a'c"),
            ("f2", "e"),
            ("f3", "b'"),
            ("f4", "co' + e'f"),
            ("f5", "co' + e'f"),
            ("f6", "g + h' + i"),
        ],
        // A lone negative literal that is its inverter's only user.
        &[
            ("f0", "a'b' + c"),
            ("f1", "b'd + a'c"),
            ("f2", "e"),
            ("f3", "n'"),
            ("f4", "co' + e'f"),
            ("f5", "co' + e'f"),
            ("f6", "g + h' + i"),
        ],
        &base,
    ];
    let mut pair = Pair::default();
    for (k, eqs) in steps.iter().enumerate() {
        let report = pair.audit(&design(eqs));
        assert!(report.is_clean(), "step {k}: {}", report.render());
        let skipped = report
            .notes
            .iter()
            .find(|n| n.code == "flatten.replay-skipped")
            .expect("the wide cone is over the replay cap");
        assert!(skipped.path.starts_with("cone:_g"), "{}", skipped.path);
    }
    // Identical covers under different names are separate keys, and the
    // base design at the end is discharged without decomposing anything.
    let report = pair.audit(&design(&base));
    assert_eq!(report.counters.decomposed_equations, 0);
}

#[test]
fn an_unchanged_equation_follows_its_inverter_context() {
    // f's cone reads d and d'. While g also reads d', the inverter of d
    // is a cone root and a leaf of f's cone: 9 leaves, too wide for the
    // static-hazard sweep. Once g stops reading it, the inverter sits
    // inside f's cone, which then has 8 leaves and is swept exactly. f
    // itself never changes.
    let vars = VarTable::from_names(["a", "b", "c", "d", "e", "f", "h", "i", "j"]);
    let design = |g: &str| {
        EquationSet::new(
            vars.clone(),
            vec![
                ("f".to_owned(), cover("ad + bd' + ce + f + ij", &vars)),
                ("g".to_owned(), cover(g, &vars)),
            ],
        )
    };
    let mut pair = Pair::default();
    for (g, wide) in [("d'h", true), ("dh", false), ("d'h", true), ("dh", false)] {
        let report = pair.audit(&design(g));
        let partial = report
            .notes
            .iter()
            .any(|n| n.code == "flatten.hazard-partial");
        assert_eq!(partial, wide, "g = {g}");
    }
}

#[test]
fn duplicate_names_fall_back_to_the_whole_network() {
    let vars = VarTable::from_names(["a", "b", "c"]);
    let eqs = EquationSet::new(
        vars.clone(),
        vec![
            ("f".to_owned(), cover("ab + a'c", &vars)),
            ("f".to_owned(), cover("bc'", &vars)),
        ],
    );
    let mut pair = Pair::default();
    let report = pair.audit(&eqs);
    assert!(report
        .findings
        .iter()
        .any(|f| f.code == "decomp.output-mismatch"));
}

/// Random generated designs through random cumulative edit batches.
fn generated_edit_sequences(
    gates: usize,
    inputs: usize,
    seed: u64,
    batches: &[(u64, usize)],
) -> Result<(), TestCaseError> {
    let mut current = generate(&GenSpec {
        target_gates: gates,
        inputs,
        seed,
    });
    let mut pair = Pair::default();
    pair.audit(&current);
    for &(edit_seed, count) in batches {
        let edits = generate_edits(&current, count, edit_seed);
        let next = apply_edits(&current, &edits);
        let report = pair.audit(&next);
        prop_assert!(report.is_clean(), "{}", report.render());
        current = next;
    }
    Ok(())
}

fn batches() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((any::<u64>(), 1usize..6), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn generated_edits_match_the_step_level_path(
        gates in 60usize..400,
        inputs in 4usize..17,
        seed in 0u64..1000,
        batches in batches(),
    ) {
        generated_edit_sequences(gates, inputs, seed, &batches)?;
    }
}

proptest! {
    // The CI case count: run with `--ignored` in release mode.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[ignore = "long; CI runs it in release mode"]
    fn generated_edits_match_the_step_level_path_at_ci_scale(
        gates in 60usize..1500,
        inputs in 4usize..17,
        seed in 0u64..10_000,
        batches in batches(),
    ) {
        generated_edit_sequences(gates, inputs, seed, &batches)?;
    }
}
