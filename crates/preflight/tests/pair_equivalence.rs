//! `preflight_pair` against the per-root loop it replaced, and preflight's
//! independence from whether the caller's library is hazard-annotated.
//!
//! The reference loop is the original pair check, written here over the
//! public eager API: [`enumerate_clusters`] at every cone, then two fresh
//! matchers over [`Matcher::find_matches`] — a functional one
//! ([`HazardPolicy::Ignore`]) and a hazard-filtering one on an annotated
//! clone. Findings must agree in code, path, message and order, and every
//! counter must agree, on annotated and unannotated libraries alike.
//!
//! A small matrix runs by default. The full one (the 11 benchmarks plus
//! `ctrl_like.blif`, against the 4 built-ins, `mcnc_like.genlib` and a
//! library without inverters) is `#[ignore]`d; run it with
//! `cargo test --release -p asyncmap-preflight --test pair_equivalence -- --ignored`.

use asyncmap_blif::{parse_blif, CollapseLimits};
use asyncmap_core::{enumerate_clusters, ClusterLimits, HazardPolicy, Matcher};
use asyncmap_genlib::parse_genlib;
use asyncmap_library::{builtin, Cell, Library};
use asyncmap_network::{async_tech_decomp, partition, EquationSet};
use asyncmap_preflight::{
    preflight, preflight_library, preflight_pair, PreflightCounters, PreflightReport,
};
use asyncmap_report::Severity;

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The original pair check, verbatim in its logic.
fn reference_pair(eqs: &EquationSet, library: &Library) -> PreflightReport {
    let mut report = PreflightReport::default();
    if library.is_empty() || eqs.equations.is_empty() {
        return report;
    }
    let net = async_tech_decomp(eqs);
    let cones = partition(&net);
    report.counters.cones = cones.len();
    let functional = Matcher::new(library, HazardPolicy::Ignore);
    let mut annotated = library.clone();
    annotated.annotate_hazards();
    let hazard = Matcher::new(&annotated, HazardPolicy::SubsetCheck);
    let limits = ClusterLimits::default();
    for cone in &cones {
        let clusters = enumerate_clusters(&net, cone, &limits);
        let Some(rooted) = clusters.get(&cone.root) else {
            continue;
        };
        report.counters.clusters += rooted.len();
        let mut functional_ok = false;
        let mut hazard_ok = false;
        for cluster in rooted {
            if !functional.find_matches(cluster).is_empty() {
                functional_ok = true;
            }
            if !hazard.find_matches(cluster).is_empty() {
                hazard_ok = true;
                break;
            }
        }
        let root_name = net.name(cone.root);
        if !functional_ok {
            report.counters.unmappable_roots += 1;
            report.push(
                Severity::Error,
                "pair.unmappable",
                format!("cone {root_name}"),
                format!(
                    "none of the {} cluster(s) rooted here matches any cell of \
                     {}: covering is guaranteed to fail",
                    rooted.len(),
                    library.name()
                ),
            );
        } else if !hazard_ok {
            report.push(
                Severity::Warning,
                "pair.hazard-limited",
                format!("cone {root_name}"),
                "every functional match at this root is rejected by the \
                 hazard-containment filter"
                    .into(),
            );
        }
    }
    report
}

type Entry = (Severity, &'static str, String, String);

/// Everything a report says, in discovery order.
fn contents(report: &PreflightReport) -> (Vec<Entry>, Vec<Entry>, [usize; 6], String) {
    let entries = |group: &[asyncmap_report::Finding]| {
        group
            .iter()
            .map(|f| (f.severity, f.code, f.path.clone(), f.message.clone()))
            .collect()
    };
    let PreflightCounters {
        cells,
        hazardous_cells,
        equations,
        cones,
        clusters,
        unmappable_roots,
    } = report.counters;
    (
        entries(&report.findings),
        entries(&report.notes),
        [
            cells,
            hazardous_cells,
            equations,
            cones,
            clusters,
            unmappable_roots,
        ],
        report.render(),
    )
}

fn design(name: &str) -> EquationSet {
    if name == "ctrl_like" {
        let net = parse_blif(&fixture("ctrl_like.blif"), "ctrl_like").unwrap();
        net.to_equations(&CollapseLimits::default()).unwrap()
    } else {
        asyncmap_burst::benchmark(name)
    }
}

fn genlib(text: &str, name: &str) -> Library {
    parse_genlib(text, name).unwrap().to_library()
}

/// `mcnc_like.genlib` without any cell that inverts.
fn no_inverter_library() -> Library {
    let stripped: String = fixture("mcnc_like.genlib")
        .lines()
        .filter(|l| {
            let name = l.split_whitespace().nth(1).unwrap_or("");
            matches!(
                name,
                "BUF" | "AND2" | "OR2" | "AND3" | "OR3" | "AO22" | "OA22"
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    genlib(&stripped, "no_inv")
}

/// The 4 built-ins, `mcnc_like.genlib` and a library with no inverter,
/// all unannotated.
fn libraries() -> Vec<Library> {
    let mut libs = builtin::all_libraries();
    libs.push(genlib(&fixture("mcnc_like.genlib"), "mcnc_like"));
    libs.push(no_inverter_library());
    libs
}

/// {INV, AND2, MUX2}: the MUX2 is the only cell that covers an OR.
fn mux_library() -> Library {
    let mut lib = Library::new("inv-and-mux");
    lib.add(Cell::from_bff("INV", "a'", 1.0));
    lib.add(Cell::from_bff("AND2", "a*b", 1.0));
    lib.add(Cell::from_bff("MUX2", "s*a + s'*b", 1.0));
    lib
}

/// `s*a + s'*b + a*b`: the mux function, kept hazard-free by its
/// consensus cube.
fn consensus_mux() -> EquationSet {
    let vars = asyncmap_cube::VarTable::from_names(["s", "a", "b"]);
    let f = asyncmap_cube::Cover::parse("sa + s'b + ab", &vars).unwrap();
    EquationSet::new(vars, vec![("f".to_owned(), f)])
}

/// Compares `preflight_pair` with the reference on `lib` unannotated and
/// annotated; returns the reference report.
fn assert_pair_matches(eqs: &EquationSet, lib: &Library, what: &str) -> PreflightReport {
    assert!(!lib.is_annotated());
    let want = reference_pair(eqs, lib);
    let mut annotated = lib.clone();
    annotated.annotate_hazards();
    for (state, l) in [("unannotated", lib), ("annotated", &annotated)] {
        let got = preflight_pair(eqs, l);
        assert_eq!(
            contents(&got),
            contents(&want),
            "{what} × {} ({state}):\n--- new\n{}--- reference\n{}",
            lib.name(),
            got.render(),
            want.render()
        );
    }
    assert!(!lib.is_annotated(), "the caller's library is untouched");
    want
}

fn run_matrix(designs: &[&str]) {
    let libs = libraries();
    let mut findings = 0;
    for &name in designs {
        let eqs = design(name);
        for lib in &libs {
            findings += assert_pair_matches(&eqs, lib, name).findings.len();
        }
    }
    // The no-inverter library makes the matrix reach `pair.unmappable`.
    assert!(findings > 0, "the matrix reached no finding at all");
}

#[test]
fn pair_matches_the_reference_loop_on_a_small_matrix() {
    run_matrix(&["vanbek-opt", "dme-fast", "ctrl_like"]);
}

#[test]
#[ignore = "full 12 × 6 matrix; run in release with --ignored"]
fn pair_matches_the_reference_loop_on_every_design_and_library() {
    let mut designs: Vec<&str> = asyncmap_burst::BENCHMARKS.iter().map(|d| d.name).collect();
    designs.push("ctrl_like");
    run_matrix(&designs);
}

#[test]
fn consensus_mux_root_is_hazard_limited() {
    // The root OR has no OR cell to match; the whole-cone cluster matches
    // MUX2 functionally, but the consensus cube makes the cluster
    // hazard-free, so Theorem 3.2 rejects the hazardous MUX2.
    let eqs = consensus_mux();
    let lib = mux_library();
    let want = assert_pair_matches(&eqs, &lib, "sa + s'b + ab");
    let report = preflight_pair(&eqs, &lib);
    let rendered = report.render();
    assert!(
        rendered.contains("warning[pair.hazard-limited] cone _g8"),
        "{rendered}"
    );
    assert_eq!(report.num_errors(), 0, "{rendered}");
    assert_eq!(report.findings.len(), 1, "{rendered}");
    assert_eq!(want.findings.len(), 1);
}

/// The library pass emits its class notes in class order, so repeated
/// calls return equal `notes` vectors, not just equal renders.
#[test]
fn library_notes_come_in_the_same_order_every_call() {
    let mut libs = builtin::all_libraries();
    libs.push(genlib(&fixture("mcnc_like.genlib"), "mcnc_like"));
    let mut with_duplicates = 0;
    for lib in libs {
        let first = preflight_library(&lib);
        if first
            .notes
            .iter()
            .any(|n| n.code == "library.duplicate-cell")
        {
            with_duplicates += 1;
        }
        for _ in 0..4 {
            assert_eq!(
                contents(&preflight_library(&lib)).1,
                contents(&first).1,
                "{}: notes order",
                lib.name()
            );
        }
    }
    assert!(
        with_duplicates >= 2,
        "too few libraries with classes to order"
    );
}

#[test]
fn library_and_full_preflight_ignore_annotation_state() {
    let eqs = design("dme-fast");
    let mut libs = builtin::all_libraries();
    libs.push(genlib(&fixture("mcnc_like.genlib"), "mcnc_like"));
    for fresh in libs {
        let mut annotated = fresh.clone();
        annotated.annotate_hazards();
        let name = fresh.name().to_owned();
        let cold = preflight_library(&fresh);
        assert_eq!(
            contents(&cold),
            contents(&preflight_library(&annotated)),
            "{name}: preflight_library"
        );
        assert_eq!(
            cold.counters.hazardous_cells,
            annotated.hazardous_cells().len(),
            "{name}: hazardous cells"
        );
        assert_eq!(
            contents(&preflight(&eqs, &fresh)),
            contents(&preflight(&eqs, &annotated)),
            "{name}: preflight"
        );
        assert!(
            !fresh.is_annotated(),
            "{name}: the caller's library is untouched"
        );
    }
}
