//! Cube and sum-of-products algebra for hazard-aware logic synthesis.
//!
//! This crate implements the bit-vector cube representation of
//! *Siegel, De Micheli, Dill — "Automatic Technology Mapping for Generalized
//! Fundamental-Mode Asynchronous Designs"* (Stanford CSL-TR-93-580, DAC'93),
//! §4.1.1 and Figure 5: each product term is a pair of `USED`/`PHASE` bit
//! vectors, cube adjacency is the single-set-bit test on
//! `CONFLICTS = (USED₁ & USED₂) & (PHASE₁ ⊕ PHASE₂)`, and the consensus of
//! adjacent cubes is formed by OR-ing the vectors and masking the conflict
//! bit.
//!
//! On top of the cube type, [`Cover`] provides the semantic operations the
//! hazard-analysis and technology-mapping layers need: tautology checking,
//! implicant tests, prime generation by iterated consensus, irredundant
//! covers and complementation. Covers deliberately preserve their list
//! structure — a redundant cube is *meaningful* for hazard behavior — so no
//! operation simplifies implicitly.
//!
//! # Examples
//!
//! ```
//! use asyncmap_cube::{Cover, Cube, VarTable};
//!
//! let vars = VarTable::from_names(["a", "b", "c"]);
//! let f = Cover::parse("ab + a'c", &vars)?;
//!
//! // The consensus cube bc is an implicant, but no single gate covers it:
//! // the classic static-1 hazard configuration.
//! let bc = Cube::parse("bc", &vars)?;
//! assert!(f.covers_cube(&bc));
//! assert!(!f.single_cube_contains(&bc));
//! # Ok::<(), asyncmap_cube::ParseSopError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cover;
#[allow(clippy::module_inception)]
mod cube;
mod parse;
mod var;

pub use bits::{Bits, IterOnes};
pub use cover::{Cover, DisplayCover};
pub use cube::{Cube, DisplayCube, Minterms, Phase};
pub use parse::{parse_cube_letters, parse_cube_tokens, ParseSopError};
pub use var::{VarId, VarTable};
