//! Prints a stable fingerprint of the mapped design for each evaluation
//! benchmark on each built-in library: exact area/delay bit patterns,
//! instance count, hazard checks and rejects, and match-memo hits and
//! misses. Mapping runs on one thread, so every printed counter is
//! deterministic. Used to verify that performance work leaves the mapped
//! output bit-identical (`cargo run --release -p asyncmap-bench --bin
//! fingerprint`); CI compares the output with the committed
//! `crates/bench/fingerprint.golden`.
//!
//! Each benchmark is additionally run through two independent verifiers,
//! and any finding fails the run:
//!
//! * the translation-validation audit (`asyncmap-audit`): the burst-mode
//!   spec is statically checked (maximal set, distinguishability, unique
//!   entry point) and the hazard-preserving front end's certificate trail
//!   is replayed;
//! * the static lint (`asyncmap-lint`) over the mapped design.
//!
//! CI uses this as its verify-the-mapped-outputs gate.

use asyncmap_audit::{audit_equations, check_spec};
use asyncmap_bench::design_fingerprint;
use asyncmap_core::{async_tmap, MapOptions};
use asyncmap_library::builtin;
use asyncmap_lint::lint_mapped_design;

fn main() {
    let annotated = |mut lib: asyncmap_library::Library| {
        lib.annotate_hazards();
        lib
    };
    let lsi9k = annotated(builtin::lsi9k());
    let actel = annotated(builtin::actel());
    // GDT's 8-input AOI/OAI cells put the 7–8-leaf matcher path on the
    // fingerprinted outputs.
    let gdt = annotated(builtin::gdt());
    let cmos3 = annotated(builtin::cmos3());
    let opts = MapOptions {
        threads: 1,
        ..MapOptions::default()
    };
    let mut findings = 0;
    for (design, lib) in [
        ("scsi", &lsi9k),
        ("abcs", &lsi9k),
        ("pe-send-ifc", &actel),
        ("dme", &actel),
        ("scsi", &gdt),
        ("dme", &gdt),
        ("abcs", &cmos3),
        ("pe-send-ifc", &cmos3),
    ] {
        let mut audit = check_spec(&asyncmap_burst::benchmark_spec(design));
        let eqs = asyncmap_burst::benchmark(design);
        audit.merge(audit_equations(&eqs));
        let d = async_tmap(&eqs, lib, &opts).expect("mappable");
        let (area, delay, instances, rejects) = design_fingerprint(&d);
        let report = lint_mapped_design(&d, lib);
        println!(
            "{design:12} {:6} area={area:016x} delay={delay:016x} instances={instances} \
             checks={} rejects={rejects} npn={}/{} audit={} ({} certs) lint={}",
            lib.name(),
            d.stats.hazard_checks,
            d.stats.npn_hits,
            d.stats.npn_misses,
            if audit.is_clean() { "clean" } else { "DIRTY" },
            audit.counters.num_certificates(),
            if report.is_clean() { "clean" } else { "DIRTY" }
        );
        if !audit.is_clean() {
            findings += audit.findings.len();
            eprint!("{}", audit.render());
        }
        if !report.is_clean() {
            findings += report.findings.len();
            eprint!("{}", report.render());
        }
    }
    if findings > 0 {
        eprintln!("fingerprint: {findings} audit/lint finding(s) on benchmark outputs");
        std::process::exit(1);
    }
}
