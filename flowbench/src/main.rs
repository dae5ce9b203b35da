//! `flowbench --workload <ctrl-suite|gen-flow|eco-loop> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! the verdict and the metrics: the end-to-end metrics untraced, the
//! per-layer metrics traced. A traced run also writes its spans to
//! `out/trace-<workload>-s<seed>.json` in the package directory.
//!
//! With `--setup-only` it instead makes one set-up of the workload and
//! prints its wall seconds: an untraced run starts itself that way to
//! time set-ups in fresh processes.

use asyncmap_flowbench::workload::{run, setup_seconds, Report, Scale, Workload};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// One set-up's wall seconds, measured in a fresh process that this one
/// waits for.
fn setup_in_child(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.lines().last().map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() => Ok(s),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

fn write_spans(a: &Args, report: &mut Report) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-s{}.json", a.workload.name(), a.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, asyncmap_flowbench::trace::to_json(&report.spans)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: flowbench --workload <ctrl-suite|gen-flow|eco-loop> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if a.setup_only {
        return match setup_seconds(a.workload, a.seed, &Scale::FULL) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let children = if a.trace { 0 } else { a.workload.fresh_setups() };
    let (mut fresh, mut errors) = (Vec::new(), Vec::new());
    for _ in 0..children {
        match setup_in_child(&a) {
            Ok(s) => fresh.push(s),
            Err(e) => errors.push(e),
        }
    }
    let mut report = run(a.workload, a.seed, a.seconds, a.trace, &Scale::FULL, &fresh);
    for e in errors {
        report.fail(e);
    }
    if a.trace {
        write_spans(&a, &mut report);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
