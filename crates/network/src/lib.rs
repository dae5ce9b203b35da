//! Multi-level logic networks for the hazard-aware technology mapper:
//! primitive-gate DAGs, technology decomposition and cone partitioning
//! (paper §3.1).
//!
//! The mapping front end has three stages:
//!
//! 1. [`EquationSet`] — the technology-independent design, as named SOP
//!    equations over shared primary inputs (what a burst-mode synthesizer
//!    emits);
//! 2. decomposition into two-input base gates — [`async_tech_decomp`]
//!    (associative + DeMorgan laws only, hazard-preserving) or
//!    [`sync_tech_decomp`] (with MIS-style simplification, the baseline
//!    that can introduce static 1-hazards, Figure 3);
//! 3. [`partition`] into single-output [`Cone`]s cut at multi-fanout
//!    points; each cone is matched and covered independently.
//!
//! # Examples
//!
//! ```
//! use asyncmap_cube::{Cover, VarTable};
//! use asyncmap_network::{async_tech_decomp, partition, EquationSet};
//!
//! let vars = VarTable::from_names(["a", "b", "c"]);
//! let f = Cover::parse("ab + a'c + bc", &vars)?;
//! let eqs = EquationSet::new(vars, vec![("f".to_owned(), f)]);
//! let net = async_tech_decomp(&eqs);
//! let cones = partition(&net);
//! assert_eq!(cones.len(), 1);
//! # Ok::<(), asyncmap_cube::ParseSopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod decomp;
mod eco;
#[allow(clippy::module_inception)]
mod network;
mod partition;

pub use certificate::{
    CutCertificate, DecompTrace, EquationCert, PartitionTrace, RewriteRule, RewriteStep,
};
pub use decomp::{
    async_tech_decomp, async_tech_decomp_traced, decompose_equation, decompose_expr,
    decompose_expr_demorgan, sync_tech_decomp, EquationSet,
};
pub use eco::{build_partition_dag, propagate_dirty, ConeShapeKey, PartitionDag, ShapeKeyScratch};
pub use network::{is_reserved_gate_name, Fanin, GateOp, Network, NodeKind, SignalId, SignalName};
pub use partition::{
    cone_at, is_partition_boundary, partition, partition_roots, partition_traced, Cone,
};
