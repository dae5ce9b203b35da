//! Regenerates **Table 2** — "Hazard analysis run times for various
//! libraries": library initialization time for the synchronous mapper
//! (build cells + matcher signatures) versus the asynchronous mapper
//! (the same plus per-cell hazard characterization).
//!
//! Paper values (DEC 5000): LSI .6s→1.2s, Actel .6s→1.1s, CMOS3 .2s→.4s,
//! GDT .6s→16.7s — the shape to reproduce is async ≥ sync everywhere, and
//! GDT (large complex AOI cells) by far the slowest to analyze.
//!
//! The `Async` column is this mapper's initialization: read-once cells are
//! certified by structure and every other distinct cell structure is
//! characterized once ([`asyncmap_library::Library::annotate_hazards`]).
//! The `Per-cell` column times the paper's own procedure instead: the sync
//! work plus the §4 algorithms (`analyze_expr_fast`) run on every cell, one
//! after another, with no certificate and no sharing — the column that
//! keeps the paper's shape claim checkable.

use asyncmap_bench::{header, libraries, secs, time_median};
use asyncmap_core::{HazardPolicy, Matcher};
use asyncmap_hazard::analyze_expr_fast;
use std::time::Duration;

fn main() {
    // Model "reading the library in": both flows parse the text format,
    // the asynchronous flow additionally runs the hazard analysis.
    header(
        "Table 2: library initialization, sync vs async",
        &format!(
            "{:8} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10}",
            "Library", "Sync", "Async", "Per-cell", "#Elems", "Async/Sync", "Cell/Sync"
        ),
    );
    for lib in libraries() {
        let text = rebuild(lib.name()).to_text();
        let sync = time_median(5, || {
            let fresh = asyncmap_library::Library::parse(&text).expect("round-trip");
            let matcher = Matcher::new(&fresh, HazardPolicy::Ignore);
            matcher.library().len()
        });
        let asynchronous = time_median(3, || {
            let mut fresh = asyncmap_library::Library::parse(&text).expect("round-trip");
            fresh.annotate_hazards();
            let matcher = Matcher::new(&fresh, HazardPolicy::SubsetCheck);
            matcher.library().len()
        });
        let per_cell = time_median(3, || {
            let fresh = asyncmap_library::Library::parse(&text).expect("round-trip");
            let hazardous = fresh
                .cells()
                .iter()
                .filter(|c| !analyze_expr_fast(c.bff(), c.num_inputs()).is_hazard_free())
                .count();
            let matcher = Matcher::new(&fresh, HazardPolicy::Ignore);
            (hazardous, matcher.library().len())
        });
        let ratio = |t: Duration| t.as_secs_f64() / sync.as_secs_f64().max(1e-9);
        println!(
            "{:8} {:>12} {:>12} {:>12} {:>8} {:>9.1}x {:>9.1}x",
            lib.name(),
            secs(sync),
            secs(asynchronous),
            secs(per_cell),
            lib.len(),
            ratio(asynchronous),
            ratio(per_cell)
        );
    }
    println!("\npaper: LSI .6→1.2s | Actel .6→1.1s | CMOS3 .2→.4s | GDT .6→16.7s (DEC 5000)");
}

fn rebuild(name: &str) -> asyncmap_library::Library {
    match name {
        "LSI9K" => asyncmap_library::builtin::lsi9k(),
        "CMOS3" => asyncmap_library::builtin::cmos3(),
        "GDT" => asyncmap_library::builtin::gdt(),
        "Actel" => asyncmap_library::builtin::actel(),
        other => panic!("unknown library {other}"),
    }
}
