//! # asyncmap
//!
//! A from-scratch reproduction of *Siegel, De Micheli, Dill — "Automatic
//! Technology Mapping for Generalized Fundamental-Mode Asynchronous
//! Designs"* (Stanford CSL-TR-93-580 / DAC 1993): a hazard-aware
//! technology mapper for burst-mode asynchronous controllers, together
//! with every substrate it needs (cube/SOP algebra, a BDD package, Boolean
//! factored forms, the paper's hazard-analysis algorithms, a logic-network
//! layer, synthetic standard-cell libraries and a burst-mode synthesis
//! front end).
//!
//! The facade re-exports each subsystem as a module:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`cube`] | `asyncmap-cube` | `USED`/`PHASE` cubes, covers, primes |
//! | [`bdd`] | `asyncmap-bdd` | hash-consed ROBDDs |
//! | [`bff`] | `asyncmap-bff` | Boolean factored forms, flattening, paths |
//! | [`hazard`] | `asyncmap-hazard` | §4 hazard analysis + waveform oracle |
//! | [`network`] | `asyncmap-network` | subject networks, decomposition, cones |
//! | [`library`] | `asyncmap-library` | cells, libraries, Table 1 builtins |
//! | [`mapper`] | `asyncmap-core` | `tmap` / `async_tmap` / `hand_map` |
//! | [`burst`] | `asyncmap-burst` | burst-mode specs, hazard-free synthesis, Table 5 benchmarks |
//! | [`audit`] | `asyncmap-audit` | translation-validation certificate replay, spec checking |
//! | [`genlib`] | `asyncmap-genlib` | genlib cell-library frontend |
//! | [`blif`] | `asyncmap-blif` | BLIF netlist frontend + SOP collapse |
//! | [`preflight`] | `asyncmap-preflight` | static (library, design) qualification |
//!
//! # Quickstart
//!
//! ```
//! use asyncmap::prelude::*;
//!
//! // A burst-mode controller (paper Figure 1), synthesized to hazard-free
//! // equations and mapped to a mux-rich commercial library.
//! let eqs = asyncmap::burst::benchmark("dme-fast");
//! let mut lib = asyncmap::library::builtin::lsi9k();
//! lib.annotate_hazards();
//! let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
//! assert!(design.verify_function(&lib));
//! assert!(design.verify_hazards(&lib));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asyncmap_audit as audit;
pub use asyncmap_bdd as bdd;
pub use asyncmap_bench as bench;
pub use asyncmap_bff as bff;
pub use asyncmap_blif as blif;
pub use asyncmap_burst as burst;
pub use asyncmap_core as mapper;
pub use asyncmap_cube as cube;
pub use asyncmap_fma as fma;
pub use asyncmap_genlib as genlib;
pub use asyncmap_hazard as hazard;
pub use asyncmap_library as library;
pub use asyncmap_lint as lint;
pub use asyncmap_network as network;
pub use asyncmap_preflight as preflight;
pub use asyncmap_report as report;

/// The most common items, for glob import.
pub mod prelude {
    pub use asyncmap_bff::Expr;
    pub use asyncmap_core::{
        async_tmap, hand_map, hdc_tmap, tmap, EcoOutcome, EcoSession, EcoStats, MapOptions,
        MappedDesign, Objective,
    };
    pub use asyncmap_cube::{Cover, Cube, VarTable};
    pub use asyncmap_fma::{analyze_design, analyze_design_with_spec, FmaCache, FmaReport};
    pub use asyncmap_hazard::{analyze_expr, decide_containment, Containment, HazardReport};
    pub use asyncmap_library::{builtin, Cell, Library};
    pub use asyncmap_lint::{lint_mapped_design, LintReport};
    pub use asyncmap_network::EquationSet;
    pub use asyncmap_preflight::{preflight, PreflightReport};
}

/// Loads a library from any supported source, by extension: `.genlib`
/// files go through the genlib frontend ([`genlib::parse_genlib`]),
/// `.lib` files through the native [`library::Library::parse`] format,
/// and anything else is tried as a built-in library name
/// ([`library::builtin::library`]: `lsi9k`, `cmos3`, `gdt`, `actel`).
/// The returned library is not hazard-annotated.
pub fn load_library_auto(source: &str) -> Result<library::Library, String> {
    if source.ends_with(".genlib") {
        let text = std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?;
        let name = std::path::Path::new(source)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("genlib");
        let parsed = genlib::parse_genlib(&text, name).map_err(|e| format!("{source}: {e}"))?;
        Ok(parsed.to_library())
    } else if std::path::Path::new(source).is_file() {
        let text = std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?;
        library::Library::parse(&text).map_err(|e| format!("{source}: {e}"))
    } else {
        let lower = source.to_ascii_lowercase();
        library::builtin::library(&lower).ok_or_else(|| {
            format!(
                "unknown library {source:?}: expected a .lib or .genlib path, or one of {}",
                library::builtin::LIBRARY_NAMES.join(", ")
            )
        })
    }
}

/// Synthesizes a burst-mode specification to hazard-free equations.
fn synthesize_spec(spec: &burst::BurstSpec, source: &str) -> Result<network::EquationSet, String> {
    let flow = burst::expand(spec).map_err(|e| format!("{source}: {e}"))?;
    let mut vars = cube::VarTable::new();
    for n in &flow.var_names {
        vars.intern(n);
    }
    let mut equations = Vec::new();
    for f in &flow.functions {
        let cover = burst::hazard_free_cover(f).map_err(|e| format!("{source}: {e}"))?;
        equations.push((f.name.clone(), cover));
    }
    Ok(network::EquationSet::new(vars, equations))
}

/// Loads a design from any supported source, together with its burst-mode
/// specification when it has one. `.blif` netlists are parsed and
/// collapsed ([`blif::parse_blif`] + [`blif::BlifNetlist::to_equations`]);
/// `.bms` burst-mode specifications are expanded and synthesized to
/// hazard-free equations; other file paths are sniffed — a `gen --emit`
/// equation dump (leading `inputs` header, [`bench::parse_design`]) is
/// read directly, anything else is tried as a `.bms` spec; a non-path is
/// tried as a built-in benchmark name ([`burst::BENCHMARKS`]). Only the
/// `.bms`/benchmark sources carry a spec.
///
/// A primary input named like a gate of the subject network (`_g`
/// followed by digits, [`network::is_reserved_gate_name`]) is an error:
/// it would share its name with that gate.
pub fn load_design_with_spec(
    source: &str,
) -> Result<(network::EquationSet, Option<burst::BurstSpec>), String> {
    let (eqs, spec) = load_source(source)?;
    if let Some((_, name)) = eqs
        .inputs
        .iter()
        .find(|(_, name)| network::is_reserved_gate_name(name))
    {
        return Err(format!(
            "{source}: input {name:?} takes a reserved gate name (`_g` followed by digits)"
        ));
    }
    Ok((eqs, spec))
}

/// [`load_design_with_spec`] before the input names are checked.
fn load_source(source: &str) -> Result<(network::EquationSet, Option<burst::BurstSpec>), String> {
    if source.ends_with(".blif") {
        let text = std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?;
        let name = std::path::Path::new(source)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("blif");
        let net = blif::parse_blif(&text, name).map_err(|e| format!("{source}: {e}"))?;
        let eqs = net
            .to_equations(&blif::CollapseLimits::default())
            .map_err(|e| format!("{source}: {e}"))?;
        Ok((eqs, None))
    } else if std::path::Path::new(source).is_file() {
        let text = std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?;
        let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        if !source.ends_with(".bms") && first.trim_start().starts_with("inputs") {
            return Ok((bench::parse_design(&text), None));
        }
        let spec = burst::parse_bms(&text).map_err(|e| format!("{source}: {e}"))?;
        let eqs = synthesize_spec(&spec, source)?;
        Ok((eqs, Some(spec)))
    } else if burst::BENCHMARKS.iter().any(|d| d.name == source) {
        Ok((
            burst::benchmark(source),
            Some(burst::benchmark_spec(source)),
        ))
    } else {
        let names: Vec<&str> = burst::BENCHMARKS.iter().map(|d| d.name).collect();
        Err(format!(
            "unknown design {source:?}: expected a .blif, .bms or equation-dump path, \
             or one of {}",
            names.join(", ")
        ))
    }
}

/// Loads a design from any supported source ([`load_design_with_spec`]
/// without the spec).
pub fn load_design_auto(source: &str) -> Result<network::EquationSet, String> {
    load_design_with_spec(source).map(|(eqs, _)| eqs)
}
