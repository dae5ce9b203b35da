//! Property test for the incremental (ECO) remapping loop: after any
//! sequence of random edit batches, a persistent [`EcoSession`] must
//! produce a design fingerprint-identical to mapping the edited equations
//! cold, with one cover worker and with four, and the stitched output
//! must pass the reuse-aware lint, audit and fundamental-mode passes —
//! the external checkers that share no code with the mapper.
//! Every warm checker must also report exactly the diagnostics of a
//! fresh, uncached run on the same design or equations.

use asyncmap::bench::{apply_edits, design_fingerprint, generate, generate_edits, GenSpec};
use asyncmap::prelude::*;
use asyncmap::report::{Finding, Report, Severity};
use proptest::prelude::*;

/// Every diagnostic of a report as `(severity, code, path, message)`,
/// sorted.
fn diagnostics<C>(report: &Report<C>) -> Vec<(Severity, &'static str, String, String)> {
    let mut all: Vec<_> = report
        .findings
        .iter()
        .chain(&report.notes)
        .map(|f: &Finding| (f.severity, f.code, f.path.clone(), f.message.clone()))
        .collect();
    all.sort();
    all
}

/// One generated design through `edit_seeds.len()` batches of
/// `edit_count` edits, remapped and re-checked warm after each batch.
fn eco_case(
    gates: usize,
    gen_seed: u64,
    edit_seeds: &[u64],
    edit_count: usize,
) -> Result<(), TestCaseError> {
    let mut spec = GenSpec::new(gates);
    spec.seed = gen_seed;
    let mut lib = builtin::lsi9k();
    lib.annotate_hazards();

    for threads in [1usize, 4] {
        let opts = MapOptions {
            threads,
            ..MapOptions::default()
        };
        let mut current = generate(&spec);
        let mut session = EcoSession::new(&lib, opts.clone());
        let base = session.map(&current).expect("base map");
        let mut lint_cache = asyncmap::lint::LintCache::new();
        let mut audit_cache = asyncmap::audit::AuditCache::new();
        let mut fma_cache = FmaCache::new();
        asyncmap::lint::lint_mapped_design_cached(&base.design, &lib, &mut lint_cache);
        asyncmap::fma::analyze_design_cached(&base.design, &lib, &mut fma_cache);

        for &seed in edit_seeds {
            let edits = generate_edits(&current, edit_count, seed);
            current = apply_edits(&current, &edits);

            let out = session.map(&current).expect("eco remap");
            let cold = async_tmap(&current, &lib, &opts).expect("cold map");
            prop_assert_eq!(
                design_fingerprint(&out.design),
                design_fingerprint(&cold),
                "eco remap at {} thread(s) diverged from cold map after {} edit(s)",
                threads,
                edits.len()
            );
            prop_assert_eq!(
                out.eco.cones_reused + out.eco.cones_remapped,
                out.eco.cones_total
            );

            let lint =
                asyncmap::lint::lint_mapped_design_cached(&out.design, &lib, &mut lint_cache);
            prop_assert!(lint.is_clean(), "{}", lint.render());
            let fresh = lint_mapped_design(&out.design, &lib);
            prop_assert_eq!(diagnostics(&lint), diagnostics(&fresh));

            let audit = asyncmap::audit::audit_equations_cached(&current, &mut audit_cache);
            prop_assert!(audit.is_clean(), "{}", audit.render());
            let fresh = asyncmap::audit::audit_equations(&current);
            prop_assert_eq!(diagnostics(&audit), diagnostics(&fresh));

            let fma = asyncmap::fma::analyze_design_cached(&out.design, &lib, &mut fma_cache);
            prop_assert!(fma.is_clean(), "{}", fma.render());
            let fresh = analyze_design(&out.design, &lib);
            prop_assert_eq!(diagnostics(&fma), diagnostics(&fresh));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn eco_remap_matches_cold_map_across_edit_sequences(
        gates in 150usize..400,
        gen_seed in 0u64..1000,
        edit_seeds in prop::collection::vec(any::<u64>(), 1..4),
        edit_count in 1usize..6,
    ) {
        eco_case(gates, gen_seed, &edit_seeds, edit_count)?;
    }
}

proptest! {
    // The CI case count: run with `--ignored` in release mode.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    #[ignore = "long; CI runs it in release mode"]
    fn eco_remap_matches_cold_map_across_edit_sequences_at_ci_scale(
        gates in 150usize..400,
        gen_seed in 0u64..1000,
        edit_seeds in prop::collection::vec(any::<u64>(), 1..4),
        edit_count in 1usize..6,
    ) {
        eco_case(gates, gen_seed, &edit_seeds, edit_count)?;
    }
}
