//! The `asyncmap` command-line tool: hazard-aware technology mapping for
//! burst-mode controllers, end to end from files.
//!
//! ```text
//! asyncmap audit <library>                    hazard audit (Table 1 style)
//! asyncmap audit <design> <library>           spec check + certificate replay + lint
//! asyncmap synth <machine.bms>                hazard-free equations + dot
//! asyncmap map   <design> <library>           load + map + report
//!                [--objective area|delay] [--hand] [--sync] [--verilog out.v]
//!                [--lint] [--audit]
//! asyncmap lint  <design> <library>           map, then independently verify
//! asyncmap analyze <design> <library>         map, then whole-design
//!                [--sync]                     fundamental-mode analysis
//! asyncmap preflight <design> <library>       static (library, design)
//!                                             qualification, no mapping
//! asyncmap gen   <gates>                      seeded large-design generator
//!                [--seed N] [--inputs N] [--lib NAME] [--map] [--lint] [--audit]
//!                [--emit out.eqn] [--edit K] [--edit-out out.edits]
//! asyncmap eco   <base> <edits> <library>     incremental (ECO) remap
//!                [--objective area|delay] [--verify]
//! ```
//!
//! Every `<design>` is resolved the same way: a `.blif` netlist (parsed
//! and collapsed to two-level equations), a `.bms` burst-mode
//! specification (synthesized to hazard-free equations), an equation dump
//! from `gen --emit` (sniffed by its `inputs` header), or a builtin
//! Table 5 benchmark name (e.g. `scsi`). Every `<library>` is a
//! `.genlib` file (SIS/MIS cell-library format), a native `.lib` file,
//! or a builtin library name (`lsi9k`, `cmos3`, `gdt`, `actel`). Only
//! `.bms` and benchmark sources carry a burst-mode spec; the others are
//! processed structurally.
//!
//! The checkers run by explicit request only: `map --lint --audit`,
//! `gen --map --lint --audit`, `lint`, `audit`, `analyze`, `preflight`
//! and `eco --verify`. Setting `ASYNCMAP_PROFILE` (to anything but empty
//! or `0`) makes `map`, `gen --map` and `eco` print each mapping run's
//! phase breakdown and enumeration counters to stderr; stdout is the same
//! either way. `ASYNCMAP_THREADS` sets the covering worker count.
//!
//! `gen --edit K` derives K cumulative single-cube edits from the
//! generator seed and prints them as `set <name> = <cubes>` lines (or
//! writes them with `--edit-out`). `eco` base-maps `<base>` (an equation
//! dump from `gen --emit`, a `.bms` file, or a builtin benchmark name),
//! applies such an edit script, remaps incrementally, and with `--verify`
//! cross-checks the stitched design against a cold map plus the
//! cache-warmed lint, audit and fundamental-mode analysis passes.

use asyncmap::burst::{expand, hazard_free_cover, parse_bms, to_dot};
use asyncmap::mapper::{render_report, to_verilog, MapPhase, MapStats, Objective};
use asyncmap::prelude::*;
use std::process::ExitCode;

/// `print!` that stops the process quietly when stdout is closed early
/// (`asyncmap ... | head`): the exit status is 141, what a shell reports
/// for a process ended by `SIGPIPE`, and nothing goes to stderr. Any other
/// write error panics, as `print!` does.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` with the closed-stdout handling of [`out!`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {{
        out!($($arg)*);
        out!("\n");
    }};
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn main() -> ExitCode {
    let profile = std::env::var("ASYNCMAP_PROFILE").is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("audit") => return cmd_audit(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("map") => cmd_map(&args[1..], profile),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("analyze") => return cmd_analyze(&args[1..]),
        Some("preflight") => return cmd_preflight(&args[1..]),
        Some("gen") => cmd_gen(&args[1..], profile),
        Some("eco") => cmd_eco(&args[1..], profile),
        _ => {
            eprintln!(
                "usage: asyncmap <audit|synth|map|lint|analyze|preflight|gen|eco> \
                 <design> <library> ... (see crate docs)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints one mapping run's phase breakdown and enumeration counters to
/// stderr (the `ASYNCMAP_PROFILE` output): the per-phase times, the
/// verdict-cache and NPN match-memo hit/miss splits (which depend on
/// scheduling when several cover workers share them, so they stay out of
/// stdout), cut-list truncations (silent pruning that can cost cover
/// quality), the enumeration-scratch allocation accounting (warm cones
/// allocate nothing beyond their output) and the number of cut pairs the
/// enumerator screened.
fn print_profile(stats: &MapStats) {
    let phases = &stats.phases;
    if !phases.is_zero() {
        eprintln!(
            "asyncmap phase profile ({:.2} ms total):\n{phases}",
            phases.total_secs() * 1e3
        );
    }
    for (name, hits, misses) in [
        ("verdict cache", stats.cache_hits, stats.cache_misses),
        ("npn match memo", stats.npn_hits, stats.npn_misses),
    ] {
        let lookups = hits + misses;
        if lookups > 0 {
            eprintln!(
                "asyncmap {name}: {hits} hits, {misses} misses ({:.0}% hit rate)",
                100.0 * hits as f64 / lookups as f64
            );
        }
    }
    if stats.cut_truncations > 0 {
        eprintln!(
            "asyncmap cut enumeration: {} gates hit max_cuts_per_gate",
            stats.cut_truncations
        );
    }
    let enumerated = phases.count(MapPhase::ClusterEnum);
    if enumerated > 0 {
        eprintln!(
            "asyncmap enum scratch: {}/{enumerated} warm cones ({:.1}%), {} alloc events",
            stats.enum_warm_cones,
            stats.enum_warm_cones as f64 / enumerated as f64 * 100.0,
            stats.enum_alloc_events
        );
        eprintln!(
            "asyncmap cut pairs: {} screened for the leaf bound",
            stats.enum_pair_screens
        );
    }
}

fn load_spec(path: &str) -> Result<asyncmap::burst::BurstSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_bms(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_audit(args: &[String]) -> ExitCode {
    if args.len() >= 2 {
        return cmd_audit_pipeline(&args[0], &args[1]);
    }
    let inner = || -> Result<(), String> {
        let path = args.first().ok_or("audit: missing library path or name")?;
        let mut lib = asyncmap::load_library_auto(path)?;
        lib.annotate_hazards();
        let hazardous = lib.hazardous_cells();
        outln!(
            "{}: {} elements, {} hazardous ({:.0}%)",
            lib.name(),
            lib.len(),
            hazardous.len(),
            100.0 * hazardous.len() as f64 / lib.len().max(1) as f64
        );
        for cell in hazardous {
            outln!(
                "  {:12} {}",
                cell.name(),
                cell.hazards().expect("annotated").summary()
            );
        }
        Ok(())
    };
    match inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The translation-validation audit: statically checks the burst-mode
/// spec (when the design source carries one), replays the certificate
/// trail of the hazard-preserving front end on its equations, then maps
/// against the library and lints the result. Exit code is nonzero on any
/// finding.
fn cmd_audit_pipeline(spec_arg: &str, lib_arg: &str) -> ExitCode {
    let inner = || -> Result<(asyncmap::audit::AuditReport, asyncmap::lint::LintReport), String> {
        let (eqs, spec) = asyncmap::load_design_with_spec(spec_arg)?;
        let mut report = match &spec {
            Some(spec) => asyncmap::audit::check_spec(spec),
            None => asyncmap::audit::AuditReport::default(),
        };
        report.merge(asyncmap::audit::audit_equations(&eqs));
        let mut lib = asyncmap::load_library_auto(lib_arg)?;
        lib.annotate_hazards();
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).map_err(|e| e.to_string())?;
        Ok((report, lint_mapped_design(&design, &lib)))
    };
    match inner() {
        Ok((audit, lint)) => {
            out!("{}", audit.render());
            out!("{}", lint.render());
            if audit.is_clean() && lint.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn synthesize(spec: &asyncmap::burst::BurstSpec) -> Result<EquationSet, String> {
    let flow = expand(spec).map_err(|e| e.to_string())?;
    let mut vars = VarTable::new();
    for n in &flow.var_names {
        vars.intern(n);
    }
    let mut equations = Vec::new();
    for f in &flow.functions {
        let cover = hazard_free_cover(f).map_err(|e| e.to_string())?;
        equations.push((f.name.clone(), cover));
    }
    Ok(EquationSet::new(vars, equations))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("synth: missing .bms path")?;
    let spec = load_spec(path)?;
    let eqs = synthesize(&spec)?;
    outln!("# hazard-free equations for machine {}", spec.name);
    for (name, cover) in &eqs.equations {
        outln!("{name} = {}", cover.display(&eqs.inputs));
    }
    outln!("\n# graphviz");
    out!("{}", to_dot(&spec).map_err(|e| e.to_string())?);
    Ok(())
}

fn cmd_map(args: &[String], profile: bool) -> Result<(), String> {
    let design_arg = args
        .first()
        .ok_or("map: missing design (.blif, .bms, dump path, or benchmark)")?;
    let lib_arg = args
        .get(1)
        .ok_or("map: missing library (.genlib, .lib path, or builtin name)")?;
    let mut objective = Objective::Area;
    let mut flow = "async";
    let mut verilog_out: Option<String> = None;
    let (mut do_lint, mut do_audit) = (false, false);
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--objective" => {
                i += 1;
                objective = match args.get(i).map(String::as_str) {
                    Some("area") => Objective::Area,
                    Some("delay") => Objective::Delay,
                    other => return Err(format!("map: bad --objective {other:?}")),
                };
            }
            "--hand" => flow = "hand",
            "--sync" => flow = "sync",
            "--verilog" => {
                i += 1;
                verilog_out = Some(args.get(i).ok_or("map: --verilog needs a path")?.clone());
            }
            "--lint" => do_lint = true,
            "--audit" => do_audit = true,
            other => return Err(format!("map: unknown flag {other:?}")),
        }
        i += 1;
    }

    let (eqs, spec) = asyncmap::load_design_with_spec(design_arg)?;
    let mut lib = asyncmap::load_library_auto(lib_arg)?;
    lib.annotate_hazards();
    let options = MapOptions {
        objective,
        ..MapOptions::default()
    };
    let design = match flow {
        "hand" => hand_map(&eqs, &lib, &options),
        "sync" => tmap(&eqs, &lib, &options),
        _ => async_tmap(&eqs, &lib, &options),
    }
    .map_err(|e| e.to_string())?;
    if profile {
        print_profile(&design.stats);
    }
    if !design.verify_function(&lib) {
        return Err("internal error: mapped design is not equivalent".into());
    }
    if flow == "async" && !design.verify_hazards(&lib) {
        return Err("internal error: mapped design gained hazards".into());
    }
    out!("{}", render_report(&design, &lib));
    let (fp_area, fp_delay, fp_inst, fp_cones) = asyncmap::bench::design_fingerprint(&design);
    outln!("fingerprint: {fp_area:016x}-{fp_delay:016x}-{fp_inst}-{fp_cones}");
    if do_audit {
        let mut report = match &spec {
            Some(spec) => asyncmap::audit::check_spec(spec),
            None => asyncmap::audit::AuditReport::default(),
        };
        report.merge(asyncmap::audit::audit_equations(&eqs));
        out!("{}", report.render());
        if !report.is_clean() {
            return Err("map: audit findings on the synthesis pipeline".into());
        }
    }
    if do_lint {
        let report = lint_mapped_design(&design, &lib);
        out!("{}", report.render());
        if !report.is_clean() {
            return Err("map: lint findings on the mapped design".into());
        }
    }
    if let Some(path) = verilog_out {
        let module = match &spec {
            Some(spec) => spec.name.replace('-', "_"),
            None => std::path::Path::new(design_arg.as_str())
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("design")
                .replace(['-', '.'], "_"),
        };
        std::fs::write(&path, to_verilog(&design, &lib, &module))
            .map_err(|e| format!("{path}: {e}"))?;
        outln!("wrote {path}");
    }
    Ok(())
}

/// The seeded large-design generator: builds a deterministic multi-cone
/// equation set (`asyncmap::bench::generate`), reports its decomposed
/// size, and optionally maps / lints / audits it. A single `gen --map
/// --lint --audit` run is the CI large-design smoke test: it exits
/// nonzero on any mapping error, lint finding, or audit finding.
fn cmd_gen(args: &[String], profile: bool) -> Result<(), String> {
    let gates: usize = args
        .first()
        .ok_or("gen: missing target gate count")?
        .parse()
        .map_err(|e| format!("gen: bad gate count: {e}"))?;
    let mut spec = asyncmap::bench::GenSpec::new(gates);
    let mut lib_arg = "lsi9k".to_owned();
    let (mut do_map, mut do_lint, mut do_audit) = (false, false, false);
    let mut emit_path: Option<String> = None;
    let mut edit_count = 0usize;
    let mut edit_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                spec.seed = args
                    .get(i)
                    .ok_or("gen: --seed needs a value")?
                    .parse()
                    .map_err(|e| format!("gen: bad --seed: {e}"))?;
            }
            "--inputs" => {
                i += 1;
                spec.inputs = args
                    .get(i)
                    .ok_or("gen: --inputs needs a value")?
                    .parse()
                    .map_err(|e| format!("gen: bad --inputs: {e}"))?;
            }
            "--lib" => {
                i += 1;
                lib_arg = args.get(i).ok_or("gen: --lib needs a value")?.clone();
            }
            "--emit" => {
                i += 1;
                emit_path = Some(args.get(i).ok_or("gen: --emit needs a path")?.clone());
            }
            "--edit" => {
                i += 1;
                edit_count = args
                    .get(i)
                    .ok_or("gen: --edit needs a count")?
                    .parse()
                    .map_err(|e| format!("gen: bad --edit: {e}"))?;
            }
            "--edit-out" => {
                i += 1;
                edit_out = Some(args.get(i).ok_or("gen: --edit-out needs a path")?.clone());
            }
            "--map" => do_map = true,
            "--lint" => do_lint = true,
            "--audit" => do_audit = true,
            other => return Err(format!("gen: unknown flag {other:?}")),
        }
        i += 1;
    }
    let eqs = asyncmap::bench::generate(&spec);
    if let Some(path) = &emit_path {
        std::fs::write(path, asyncmap::bench::emit_design(&eqs))
            .map_err(|e| format!("gen: writing {path}: {e}"))?;
        outln!("wrote {} equations to {path}", eqs.equations.len());
    }
    if edit_count > 0 {
        // Edit seed derived from the generator seed: the same `gen`
        // invocation always yields the same edit script.
        let edits = asyncmap::bench::generate_edits(&eqs, edit_count, spec.seed ^ 0xEC0);
        let text = asyncmap::bench::emit_edits(&eqs, &edits);
        match &edit_out {
            Some(path) => {
                std::fs::write(path, &text).map_err(|e| format!("gen: writing {path}: {e}"))?;
                outln!("wrote {} edit(s) to {path}", edits.len());
            }
            None => out!("{text}"),
        }
    } else if edit_out.is_some() {
        return Err("gen: --edit-out needs --edit K".into());
    }
    let net = asyncmap::network::async_tech_decomp(&eqs);
    outln!(
        "{}: {} equations, {} cubes, {} literals over {} inputs -> {} base gates",
        spec.name(),
        eqs.equations.len(),
        eqs.num_cubes(),
        eqs.num_literals(),
        spec.inputs,
        net.num_gates()
    );
    if do_audit {
        let report = asyncmap::audit::audit_equations(&eqs);
        out!("{}", report.render());
        if !report.is_clean() {
            return Err("gen: audit findings on generated equations".into());
        }
    }
    if !(do_map || do_lint) {
        return Ok(());
    }
    let mut lib = asyncmap::load_library_auto(&lib_arg)?;
    lib.annotate_hazards();
    let design = async_tmap(&eqs, &lib, &MapOptions::default()).map_err(|e| e.to_string())?;
    if profile {
        print_profile(&design.stats);
    }
    outln!(
        "mapped to {}: {} instances, area {:.1}, delay {:.1}, {} cones",
        lib.name(),
        design.num_instances(),
        design.area,
        design.delay,
        design.stats.cones
    );
    if do_lint {
        let report = lint_mapped_design(&design, &lib);
        out!("{}", report.render());
        if !report.is_clean() {
            return Err("gen: lint findings on mapped generated design".into());
        }
    }
    Ok(())
}

/// Incremental (ECO) remap: base-maps the design once, applies an edit
/// script (`set <name> = <cubes>` lines, as emitted by `gen --edit`),
/// then remaps reusing every cover whose cone shape survived the edit.
/// `--verify` additionally cold-maps the edited design and requires a
/// fingerprint-identical result, then runs the reuse-aware lint, audit
/// and fundamental-mode analysis passes (caches warmed on the base
/// design) on the stitched output, failing on any finding.
fn cmd_eco(args: &[String], profile: bool) -> Result<(), String> {
    let base_arg = args.first().ok_or("eco: missing base design")?;
    let edits_arg = args.get(1).ok_or("eco: missing edits file")?;
    let lib_arg = args.get(2).ok_or("eco: missing library path or name")?;
    let mut objective = Objective::Area;
    let mut verify = false;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--objective" => {
                i += 1;
                objective = match args.get(i).map(String::as_str) {
                    Some("area") => Objective::Area,
                    Some("delay") => Objective::Delay,
                    other => return Err(format!("eco: bad --objective {other:?}")),
                };
            }
            "--verify" => verify = true,
            other => return Err(format!("eco: unknown flag {other:?}")),
        }
        i += 1;
    }

    let eqs = asyncmap::load_design_auto(base_arg)?;
    let edits_text = std::fs::read_to_string(edits_arg).map_err(|e| format!("{edits_arg}: {e}"))?;
    let edits = asyncmap::bench::parse_edits(&edits_text, &eqs.inputs);
    let edited = asyncmap::bench::apply_edits(&eqs, &edits);
    let mut lib = asyncmap::load_library_auto(lib_arg)?;
    lib.annotate_hazards();
    let options = MapOptions {
        objective,
        ..MapOptions::default()
    };

    let mut session = EcoSession::new(&lib, options.clone());
    let base = session.map(&eqs).map_err(|e| e.to_string())?;
    let out = session.map(&edited).map_err(|e| e.to_string())?;
    if profile {
        print_profile(&base.design.stats);
        print_profile(&out.design.stats);
    }
    let eco = out.eco;
    outln!(
        "eco: {} edit(s), {} of {} cone(s) reused, {} re-covered, \
         {} downstream of an edit, {} cover(s) in the session store",
        edits.len(),
        eco.cones_reused,
        eco.cones_total,
        eco.cones_remapped,
        eco.cones_downstream_dirty,
        eco.store_entries
    );
    out!("{}", render_report(&out.design, &lib));

    if verify {
        let cold = async_tmap(&edited, &lib, &options).map_err(|e| e.to_string())?;
        if asyncmap::bench::design_fingerprint(&cold)
            != asyncmap::bench::design_fingerprint(&out.design)
        {
            return Err("eco: stitched design diverges from a cold map of the edit".into());
        }
        let mut lint_cache = asyncmap::lint::LintCache::new();
        asyncmap::lint::lint_mapped_design_cached(&base.design, &lib, &mut lint_cache);
        let lint = asyncmap::lint::lint_mapped_design_cached(&out.design, &lib, &mut lint_cache);
        if !lint.is_clean() {
            out!("{}", lint.render());
            return Err("eco: lint findings on the stitched design".into());
        }
        let mut audit_cache = asyncmap::audit::AuditCache::new();
        asyncmap::audit::audit_equations_cached(&eqs, &mut audit_cache);
        let audit = asyncmap::audit::audit_equations_cached(&edited, &mut audit_cache);
        if !audit.is_clean() {
            out!("{}", audit.render());
            return Err("eco: audit findings on the edited pipeline".into());
        }
        let mut fma_cache = asyncmap::fma::FmaCache::new();
        let fma_base = asyncmap::fma::analyze_design_cached(&base.design, &lib, &mut fma_cache);
        let fma = asyncmap::fma::analyze_design_cached(&out.design, &lib, &mut fma_cache);
        for report in [&fma_base, &fma] {
            if report.num_errors() > 0 {
                out!("{}", report.render());
                return Err("eco: fundamental-mode analysis errors".into());
            }
        }
        let ac = &audit.counters;
        outln!(
            "verify: fingerprint identical to cold map; lint clean ({} of {} cone(s) reused); \
             audit clean ({} of {} certificate(s) reused); \
             fma clean ({} of {} cone(s) reused)",
            lint.counters.cones_reused,
            lint.counters.cones,
            ac.reused_steps + ac.reused_equations + ac.reused_flattens,
            audit.counters.num_certificates(),
            fma.counters.cones_reused,
            fma.counters.cones,
        );
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let inner = || -> Result<asyncmap::lint::LintReport, String> {
        let spec_arg = args
            .first()
            .ok_or("lint: missing design (.blif, .bms, dump path, or benchmark)")?;
        let lib_arg = args
            .get(1)
            .ok_or("lint: missing library (.genlib, .lib path, or builtin name)")?;
        let eqs = asyncmap::load_design_auto(spec_arg)?;
        let mut lib = asyncmap::load_library_auto(lib_arg)?;
        lib.annotate_hazards();
        let design = async_tmap(&eqs, &lib, &MapOptions::default()).map_err(|e| e.to_string())?;
        Ok(lint_mapped_design(&design, &lib))
    };
    match inner() {
        Ok(report) => {
            out!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The whole-design fundamental-mode analyzer gate: maps the design
/// (with the synchronous `tmap` under `--sync`, to show what the analyzer
/// catches in a hazard-oblivious map), then
/// statically checks instance-graph structure, cross-cone hazard
/// containment and (when a burst-mode spec is available) spec-level race
/// and feedback discipline. Notes are informational; the exit code is
/// nonzero only on error-severity findings.
fn cmd_analyze(args: &[String]) -> ExitCode {
    let inner = || -> Result<FmaReport, String> {
        let src_arg = args
            .first()
            .ok_or("analyze: missing design (.blif, .bms, dump path, or benchmark)")?;
        let lib_arg = args
            .get(1)
            .ok_or("analyze: missing library (.genlib, .lib path, or builtin name)")?;
        let mut sync = false;
        for flag in &args[2..] {
            match flag.as_str() {
                "--sync" => sync = true,
                other => return Err(format!("analyze: unknown flag {other:?}")),
            }
        }
        let mut lib = asyncmap::load_library_auto(lib_arg)?;
        lib.annotate_hazards();

        // A `.bms` file or builtin benchmark carries a burst-mode spec
        // (full analysis); `.blif` netlists and equation dumps are
        // analyzed structurally, without a spec.
        let (eqs, spec) = asyncmap::load_design_with_spec(src_arg)?;
        let map = if sync { tmap } else { async_tmap };
        let design = map(&eqs, &lib, &MapOptions::default()).map_err(|e| e.to_string())?;
        Ok(match &spec {
            Some(spec) => analyze_design_with_spec(&design, &lib, spec),
            None => analyze_design(&design, &lib),
        })
    };
    match inner() {
        Ok(report) => {
            out!("{}", report.render());
            if report.num_errors() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The static qualification gate: analyzes the (library, design) pair
/// before any mapping is attempted. Library-side checks run on the parsed
/// library (for `.genlib` sources this includes declared-function and
/// pin-phase cross-checks), design-side checks on the netlist or equation
/// set (for `.blif` sources structural problems — cycles, undriven or
/// multiply-driven nets, latches — are reported as findings even when the
/// netlist cannot be collapsed), and pair-wise checks look for cone roots
/// whose sampled cut functions no library cell can realize. Notes and
/// warnings are informational; the exit code is nonzero only on
/// error-severity findings.
fn cmd_preflight(args: &[String]) -> ExitCode {
    let inner = || -> Result<PreflightReport, String> {
        let design_arg = args
            .first()
            .ok_or("preflight: missing design (.blif, .bms, dump path, or benchmark)")?;
        let lib_arg = args
            .get(1)
            .ok_or("preflight: missing library (.genlib, .lib path, or builtin name)")?;

        let (mut report, library) = if lib_arg.ends_with(".genlib") {
            let text = std::fs::read_to_string(lib_arg).map_err(|e| format!("{lib_arg}: {e}"))?;
            let name = std::path::Path::new(lib_arg.as_str())
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("genlib");
            let parsed = asyncmap::genlib::parse_genlib(&text, name)
                .map_err(|e| format!("{lib_arg}: {e}"))?;
            asyncmap::preflight::preflight_genlib(&parsed)
        } else {
            let mut library = asyncmap::load_library_auto(lib_arg)?;
            // Characterize the cells once, for the library and pair checks.
            library.annotate_hazards();
            (asyncmap::preflight::preflight_library(&library), library)
        };

        let eqs = if design_arg.ends_with(".blif") {
            let text =
                std::fs::read_to_string(design_arg).map_err(|e| format!("{design_arg}: {e}"))?;
            let name = std::path::Path::new(design_arg.as_str())
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("blif");
            let net = asyncmap::blif::parse_blif(&text, name)
                .map_err(|e| format!("{design_arg}: {e}"))?;
            let (design_report, eqs) = asyncmap::preflight::preflight_blif(&net);
            report.merge(design_report);
            eqs
        } else {
            let eqs = asyncmap::load_design_auto(design_arg)?;
            report.merge(asyncmap::preflight::preflight_design(&eqs));
            Some(eqs)
        };

        if let Some(eqs) = &eqs {
            report.merge(asyncmap::preflight::preflight_pair(eqs, &library));
        }
        Ok(report)
    };
    match inner() {
        Ok(report) => {
            out!("{}", report.render());
            if report.num_errors() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
