//! End-to-end file-format flow exercised the way the CLI drives it:
//! a `.bms` machine and a `.lib` library from disk-shaped text, through
//! synthesis, mapping and Verilog export.

use asyncmap::burst::{expand, hazard_free_cover, parse_bms, to_bms, to_dot};
use asyncmap::mapper::to_verilog;
use asyncmap::prelude::*;

const MACHINE: &str = "
machine demo-ctrl
inputs req ack
outputs done
states 2
edge 0 1  req+ ack+ / done+
edge 1 0  req- ack- / done-
";

fn synthesize(spec: &asyncmap::burst::BurstSpec) -> EquationSet {
    let flow = expand(spec).unwrap();
    let mut vars = VarTable::new();
    for n in &flow.var_names {
        vars.intern(n);
    }
    let equations = flow
        .functions
        .iter()
        .map(|f| (f.name.clone(), hazard_free_cover(f).unwrap()))
        .collect();
    EquationSet::new(vars, equations)
}

#[test]
fn bms_to_verilog_pipeline() {
    let spec = parse_bms(MACHINE).unwrap();
    assert_eq!(spec.name, "demo-ctrl");
    let eqs = synthesize(&spec);

    let lib_text = asyncmap::library::builtin::cmos3().to_text();
    let mut lib = Library::parse(&lib_text).unwrap();
    lib.annotate_hazards();

    let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    assert!(design.verify_function(&lib));
    assert!(design.verify_hazards(&lib));

    let verilog = to_verilog(&design, &lib, "demo_ctrl");
    assert!(verilog.contains("module demo_ctrl ("));
    assert!(verilog.contains("input  req"));
    assert!(verilog.contains("output done"));
    // One instance line per mapped cell.
    let instances = verilog.lines().filter(|l| l.contains(".out(")).count();
    assert_eq!(instances, design.num_instances());
}

#[test]
fn bms_writer_and_dot_render_the_same_machine() {
    let spec = parse_bms(MACHINE).unwrap();
    let round = parse_bms(&to_bms(&spec).unwrap()).unwrap();
    assert_eq!(round.edges.len(), spec.edges.len());
    let dot = to_dot(&spec).unwrap();
    assert!(dot.contains("req+ ack+ / done+"));
    assert!(dot.contains("s1 -> s0"));
}

#[test]
fn delay_objective_available_through_options() {
    let spec = parse_bms(MACHINE).unwrap();
    let eqs = synthesize(&spec);
    let mut lib = asyncmap::library::builtin::lsi9k();
    lib.annotate_hazards();
    let fast = async_tmap(
        &eqs,
        &lib,
        &MapOptions {
            objective: Objective::Delay,
            ..MapOptions::default()
        },
    )
    .unwrap();
    let small = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
    assert!(fast.delay <= small.delay + 1e-9);
}

/// A reader that closes the pipe early (`asyncmap ... | head -1`) stops
/// the CLI quietly: no panic message on stderr and not the panic exit
/// status 101.
#[test]
fn closed_stdout_stops_the_cli_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    // ~170 KB of edit script: more than a pipe buffer holds.
    let mut child = Command::new(env!("CARGO_BIN_EXE_asyncmap"))
        .args(["gen", "5000", "--seed", "7", "--edit", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn asyncmap");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    assert!(first.starts_with("set "), "{first:?}");
    let out = child.wait_with_output().expect("wait for asyncmap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// An input named like a subject-network gate (`_g<digits>`) is refused
/// when the design loads: exit 1 with an error naming the input, not a
/// panic.
#[test]
fn reserved_gate_name_input_is_a_load_error() {
    let verilog = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("reserved_name.v");
    let _ = std::fs::remove_file(&verilog);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_asyncmap"))
        .arg("map")
        .arg("tests/fixtures/reserved_name.blif")
        .arg("lsi9k")
        .arg("--verilog")
        .arg(&verilog)
        .output()
        .expect("run asyncmap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("input \"_g4\"") && stderr.contains("reserved gate name"),
        "{stderr}"
    );
    assert!(!verilog.exists());
}

/// `analyze` refuses a flag it does not know (exit 1 with an error),
/// like `gen` and `map` do, instead of ignoring it.
#[test]
fn analyze_rejects_unknown_flags() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_asyncmap"))
        .args(["analyze", "dme", "actel", "--bogus"])
        .output()
        .expect("run asyncmap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag \"--bogus\""), "{stderr}");
}

/// `analyze --sync` maps with the hazard-oblivious `tmap`, and the
/// analyzer catches the glitch that map lets through on dme × Actel.
#[test]
fn analyze_sync_map_reports_burst_glitch() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_asyncmap"))
        .args(["analyze", "dme", "actel", "--sync"])
        .output()
        .expect("run asyncmap");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(stdout.contains("boundary.burst-glitch"), "{stdout}");
}
