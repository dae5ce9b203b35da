//! The hazard-aware technology mapper — the primary contribution of
//! *Siegel, De Micheli, Dill, "Automatic Technology Mapping for Generalized
//! Fundamental-Mode Asynchronous Designs"* (CSL-TR-93-580 / DAC'93).
//!
//! The mapper follows the classical three-phase CERES structure
//! (decompose → partition → match/cover) with the paper's asynchronous
//! modifications:
//!
//! * decomposition restricted to the associative and DeMorgan laws
//!   (`async_tech_decomp`, hazard-preserving);
//! * Boolean (structure-blind) matching augmented with the acceptance rule
//!   of Theorem 3.2 — a hazardous library element may cover a subnetwork
//!   only if `hazards(element) ⊆ hazards(subnetwork)`;
//! * minimum-area dynamic-programming covering per single-output cone.
//!
//! [`tmap`] is the synchronous baseline, [`async_tmap`] the asynchronous
//! mapper, and [`hand_map`] the greedy designer-style baseline used in the
//! paper's Table 3 comparison. Every [`MappedDesign`] can re-verify itself:
//! functional equivalence per cone (BDD) and hazard containment (waveform
//! sweep).
//!
//! # Examples
//!
//! ```
//! use asyncmap_core::{async_tmap, MapOptions};
//! use asyncmap_cube::{Cover, VarTable};
//! use asyncmap_library::builtin;
//! use asyncmap_network::EquationSet;
//!
//! // Figure 3's function, with the consensus cube keeping it hazard-free.
//! let vars = VarTable::from_names(["a", "b", "c"]);
//! let f = Cover::parse("ab + a'c + bc", &vars)?;
//! let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
//!
//! let mut lib = builtin::cmos3();
//! lib.annotate_hazards();
//! let design = async_tmap(&eqs, &lib, &MapOptions::default()).unwrap();
//! assert!(design.verify_function(&lib));
//! assert!(design.verify_hazards(&lib));
//! # Ok::<(), asyncmap_cube::ParseSopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cover;
mod design;
mod eco;
mod export;
mod fxhash;
mod graph;
mod hcache;
mod hdc;
mod matcher;
pub mod profile;
mod report;
mod tmap;
pub mod truth;
mod walk;

pub use cluster::{enumerate_clusters, Cluster, ClusterLimits};
pub use cover::{
    cover_cone_with, hand_cover, qualify_cone_root, ConeCover, CoverError, Instance,
    RootQualification,
};
pub use design::{
    assemble, bdd_of_expr, bdd_of_expr_over, decide_cone, mapped_cone_bdd, mapped_cone_expr,
    subject_cone_bdd, verify_cone_function, MapStats, MappedDesign,
};
pub use eco::{CleanCones, CoverKeys, EcoOutcome, EcoSession, EcoStats};
pub use export::to_verilog;
pub use graph::{validate_instance_graph, GraphFault};
pub use hcache::HazardCache;
pub use hdc::{cone_certified, hdc_tmap, Transition};
pub use matcher::{instantiate, truth_table_of, HazardPolicy, Match, Matcher, MatcherCounters};
pub use profile::{MapPhase, PhaseTimes};
pub use report::{cell_usage, render_report, CellUsage};
pub use tmap::{
    async_tmap, async_tmap_cached, hand_map, par_indexed, par_indexed_with,
    threads_from_env_capped, tmap, MapOptions, Objective,
};
pub use walk::NetlistWalk;
