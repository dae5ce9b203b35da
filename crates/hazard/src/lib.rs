//! Hazard analysis algorithms for generalized fundamental-mode asynchronous
//! technology mapping — the core of §4 of *Siegel, De Micheli, Dill,
//! "Automatic Technology Mapping for Generalized Fundamental-Mode
//! Asynchronous Designs"* (CSL-TR-93-580 / DAC'93).
//!
//! The crate provides, per hazard class:
//!
//! | paper | here |
//! |---|---|
//! | `static_1_analysis` (§4.1.1) | [`static_1_analysis`], [`static_1_complete`] |
//! | static 0-hazards (§4.1.2) | [`find_sic_hazards`] (vacuous terms) |
//! | `findMicDynHaz2level` (§4.2.1) | [`find_mic_dyn_haz_2level`] |
//! | `findMicDynHazMultiLevel` (§4.2.2) | [`find_mic_dyn_haz_multilevel`] |
//! | s.i.c. dynamic hazards (§4.2.3) | [`find_sic_hazards`] (path labeling) |
//!
//! plus two ingredients the matching step needs:
//!
//! * [`analyze_expr`] — the full per-structure characterization computed
//!   for every library element at load time;
//! * [`decide_containment`] — the acceptance test
//!   `hazards(element) ⊆ hazards(subnetwork)` of the modified matching
//!   algorithm (Theorem 3.2): the one containment decision the matcher
//!   and every checker call.
//!
//! The eight-valued waveform algebra ([`wave_eval`]) acts as the exact
//! per-transition oracle for tree-structured expressions under the
//! arbitrary pure-delay model; the fast algorithms are cross-validated
//! against it in the test suite, and against the brute-force minterm-pair
//! enumerators and ternary simulation of the development-only
//! `asyncmap-oracle` crate. Its bit-sliced form ([`WaveProgram`]) compiles
//! an expression once into a flat program that evaluates 256 bursts per
//! run, and carries every exhaustive sweep.
//!
//! # Examples
//!
//! ```
//! use asyncmap_bff::Expr;
//! use asyncmap_cube::VarTable;
//! use asyncmap_hazard::{analyze_expr, decide_containment, Containment};
//!
//! let mut vars = VarTable::new();
//! // Figure 4a: a two-cube mux structure (hazardous)...
//! let two_level = Expr::parse("w*x + x'*y", &mut vars)?;
//! // ...and Figure 4b: a factored structure for the same function.
//! let factored = Expr::parse_in("(w + x')*(x + y)", &vars)?;
//!
//! let report = analyze_expr(&two_level, vars.len());
//! assert!(!report.is_hazard_free());
//!
//! // Neither structure's hazards contain the other's: the mapper may not
//! // substitute one for the other in a hazard-sensitive position.
//! assert!(matches!(
//!     decide_containment(&two_level, &factored, vars.len()),
//!     Containment::Refuted(Some(_))
//! ));
//! # Ok::<(), asyncmap_bff::ParseBffError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod compare;
mod dynamic2l;
mod function;
mod kinds;
mod multilevel;
mod sic;
mod static1;
mod wave;

pub use analysis::{analyze_cover, analyze_cover_fast, analyze_expr, analyze_expr_fast};
pub use compare::{
    containment_witness, decide_containment, hazards_subset_exhaustive, transition_text,
    Containment, PartialReason, EXHAUSTIVE_VAR_LIMIT,
};
pub use dynamic2l::{find_mic_dyn_haz_2level, irredundant_intersections, mic_dynamic_hazard_on};
pub use function::{
    disjoint, dynamic_function_hazard_free, static_function_hazard_free,
    transition_function_hazard_free,
};
pub use kinds::{DisplayHazard, Hazard, HazardKind, HazardReport};
pub use multilevel::{
    confirm_on_structure, dynamic_hazard_on_structure, find_mic_dyn_haz_multilevel,
};
pub use sic::{find_sic_hazards, find_sic_hazards_raw, SicAnalysis};
pub use static1::{
    is_static_1_hazard_free, product_estimate, static1_subset, static_1_analysis,
    static_1_complete, static_1_free_on, FLATTEN_REPLAY_CAP,
};
pub use wave::{
    sweep_words, wave_eval, wave_eval_word, Lanes, Lanes256, Wave, WaveBlock, WavePlanes,
    WaveProgram, BLOCK_BURSTS,
};
