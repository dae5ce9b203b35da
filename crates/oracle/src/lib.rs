//! Reference implementations and shared test generators for the asyncmap
//! crates. Nothing here is production code: every item is the slow,
//! obviously correct form of a fast kernel, or a proptest strategy, and
//! the differential tests compare the production code against it.
//!
//! | module | references for |
//! |---|---|
//! | [`mapper`] | `asyncmap_core`'s cut enumerator and cover DP |
//! | [`truth`] | `asyncmap_core`'s word-parallel truth-table kernels |
//! | [`hazard`] | `asyncmap_hazard`'s hazard analyses and containment decision |
//! | [`gen`] | proptest strategies several test suites share |
//!
//! Production crates take this crate as a dev-dependency only. Because it
//! depends on `asyncmap-core` and `asyncmap-hazard`, a unit test of either
//! crate links a second copy of that crate through it: unit tests may use
//! only the items over `asyncmap-cube`/`asyncmap-bff` types or plain
//! integers ([`truth`], [`gen`], the brute-force enumerators), and every
//! test that hands a core or hazard type to this crate is an integration
//! test.
//!
//! The enumerators are exponential in the variable count (hazard detection
//! is hard in general), so they suit small spaces only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod hazard;
pub mod mapper;
pub mod truth;

pub use hazard::{
    brute_mic_dynamic_transitions, brute_static1_transitions, has_static_hazard,
    hazards_subset_guided, is_static1_induced, reverify_containment, ternary_transition,
    ContainmentReverification, TernaryOutcome, ORACLE_VAR_LIMIT,
};
pub use mapper::{cover_cone_legacy, enumerate_clusters_legacy};
pub use truth::{
    apply_perm6_generic, apply_perm_wide_generic, depends_on, input_signature,
    permute_match_generic, truth_table_of_generic,
};
