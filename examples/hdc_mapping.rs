//! Hazard don't-care mapping (the paper's §6 future-work idea): in
//! generalized fundamental mode, only the *specified* input bursts can
//! ever occur, so hazards on unspecified transitions are don't-cares the
//! mapper may exploit.
//!
//! Run with `cargo run --release --example hdc_mapping [-- <benchmark>]`.

use asyncmap::mapper::hdc_tmap;
use asyncmap::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "dme".to_owned());
    let (eqs, transitions) = asyncmap::burst::benchmark_with_transitions(&name);
    println!(
        "benchmark {name}: {} equations, {} specified bursts",
        eqs.equations.len(),
        transitions.len()
    );

    let mut lib = builtin::actel();
    lib.annotate_hazards();
    let opts = MapOptions::default();

    // Blanket asynchronous mapping: every transition protected.
    let full = async_tmap(&eqs, &lib, &opts).expect("mappable");
    // Hazard don't-care mapping: only the specified bursts protected.
    let hdc = hdc_tmap(&eqs, &lib, &opts, &transitions).expect("mappable");
    // And the unconstrained baseline for reference.
    let sync = tmap(&eqs, &lib, &opts).expect("mappable");

    assert!(hdc.verify_function(&lib));
    assert!(hdc.verify_hazards_on(&lib, &transitions));

    println!("{:28} {:>8} {:>8}", "flow", "area", "delay");
    println!(
        "{:28} {:>8.0} {:>7.2}n",
        "sync (unsafe)", sync.area, sync.delay
    );
    println!(
        "{:28} {:>8.0} {:>7.2}n",
        "async (all transitions)", full.area, full.delay
    );
    println!(
        "{:28} {:>8.0} {:>7.2}n",
        "hdc (specified bursts only)", hdc.area, hdc.delay
    );
    // `hazard_checks` counts one certification walk per cone and burst,
    // plus the hazard-filter checks of the strict re-covers.
    let walks = hdc.stats.cones * transitions.len();
    println!(
        "hdc certified {walks} burst projection(s) ({} cone(s) x {} burst(s)); \
         re-covered {} cone(s) strictly with {} hazard-filter check(s)",
        hdc.stats.cones,
        transitions.len(),
        hdc.stats.hazard_rejects,
        hdc.stats.hazard_checks - walks
    );
}
