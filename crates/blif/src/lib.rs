//! The BLIF netlist frontend: parses the Berkeley Logic Interchange
//! Format (`.model`/`.inputs`/`.outputs`/`.names`/`.latch`) into a
//! [`BlifNetlist`], statically analyzes its structure (drivers, cycles,
//! unused logic), and collapses the multi-level node graph into the
//! mapper's two-level [`EquationSet`](asyncmap_network::EquationSet) over
//! primary inputs.
//!
//! Parsing is deliberately permissive about *structure* and strict about
//! *syntax*: dangling `.names` references, multiply-driven nets and
//! combinational cycles parse fine — they are what the preflight
//! qualification analyzer reports with severity-coded findings — while
//! malformed covers, don't-care constructs (`.exdc`, non-`0`/`1` output
//! values), duplicate `.model` outputs and unsupported directives
//! (`.subckt`, `.gate`, …) fail with a typed [`BlifError`] carrying a
//! 1-based line number. Nothing in this crate panics on any input.
//!
//! # Examples
//!
//! ```
//! let text = "
//! .model toy
//! .inputs a b c
//! .outputs f
//! .names a b t
//! 11 1
//! .names t c f
//! 1- 1
//! -1 1
//! .end
//! ";
//! let net = asyncmap_blif::parse_blif(text, "toy").unwrap();
//! assert_eq!(net.nodes.len(), 2);
//! let eqs = net.to_equations(&Default::default()).unwrap();
//! assert_eq!(eqs.equations.len(), 1); // f = a*b + c, collapsed over PIs
//! assert_eq!(eqs.equations[0].1.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collapse;
mod parse;
mod structure;

pub use collapse::{CollapseError, CollapseErrorKind, CollapseLimits};
pub use parse::parse_blif;
pub use structure::{NetRef, Structure};

use std::error::Error;
use std::fmt;

/// One row of a `.names` cover: the input plane (`0`/`1`/`-` per fanin)
/// and the output value.
#[derive(Debug, Clone)]
pub struct BlifRow {
    /// Input plane, one character per fanin.
    pub plane: String,
    /// `true` for an ON-set row (`1`), `false` for an OFF-set row (`0`).
    pub value: bool,
}

/// One `.names` logic node.
#[derive(Debug, Clone)]
pub struct BlifNode {
    /// 1-based line of the `.names` directive.
    pub line: usize,
    /// Fanin signal names, in plane order.
    pub inputs: Vec<String>,
    /// The signal this node drives.
    pub output: String,
    /// Cover rows. Empty means constant 0.
    pub rows: Vec<BlifRow>,
}

/// One `.latch` statement (recorded so the preflight pass can reject it
/// with a typed finding; the fundamental-mode mapper is combinational).
#[derive(Debug, Clone)]
pub struct BlifLatch {
    /// 1-based line of the `.latch` directive.
    pub line: usize,
    /// Data input signal.
    pub input: String,
    /// Latch output signal.
    pub output: String,
}

/// A parsed BLIF model.
#[derive(Debug, Clone)]
pub struct BlifNetlist {
    /// Model name (`.model`, or the caller-supplied default).
    pub model: String,
    /// Primary inputs, in declaration order.
    pub inputs: Vec<String>,
    /// Primary outputs, in declaration order.
    pub outputs: Vec<String>,
    /// Logic nodes, in file order.
    pub nodes: Vec<BlifNode>,
    /// Latches, in file order.
    pub latches: Vec<BlifLatch>,
}

impl BlifNetlist {
    /// Total number of cover rows over all nodes.
    pub fn num_rows(&self) -> usize {
        self.nodes.iter().map(|n| n.rows.len()).sum()
    }
}

/// What went wrong, machine-readably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlifErrorKind {
    /// A second `.model` in the same file (multi-model files are not
    /// supported).
    DuplicateModel,
    /// A signal listed twice in `.inputs`.
    DuplicateInput,
    /// A signal listed twice in `.outputs`.
    DuplicateOutput,
    /// A `.names` with no signals, or with a repeated fanin.
    BadNames,
    /// A cover row outside any `.names`, with a bad plane width, or with
    /// characters outside `0`/`1`/`-`.
    BadCover,
    /// A `.names` mixes ON-set (`1`) and OFF-set (`0`) rows.
    MixedCover,
    /// A don't-care construct: `.exdc` sections and non-`0`/`1` output
    /// values are rejected — the hazard-free synthesis contract gives the
    /// mapper fully specified functions.
    DontCare,
    /// A `.latch` with fewer than two signals.
    BadLatch,
    /// A directive this subset does not support (`.subckt`, `.gate`,
    /// `.mlatch`, `.search`, …).
    UnsupportedConstruct,
    /// The file declares no `.inputs`/`.outputs` at all.
    EmptyModel,
}

impl fmt::Display for BlifErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlifErrorKind::DuplicateModel => "duplicate .model",
            BlifErrorKind::DuplicateInput => "duplicate input",
            BlifErrorKind::DuplicateOutput => "duplicate output",
            BlifErrorKind::BadNames => "bad .names",
            BlifErrorKind::BadCover => "bad cover row",
            BlifErrorKind::MixedCover => "mixed ON/OFF-set rows",
            BlifErrorKind::DontCare => "don't-care construct",
            BlifErrorKind::BadLatch => "bad .latch",
            BlifErrorKind::UnsupportedConstruct => "unsupported construct",
            BlifErrorKind::EmptyModel => "empty model",
        })
    }
}

/// Error produced when BLIF parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Machine-readable failure class.
    pub kind: BlifErrorKind,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for BlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blif parse error at line {}: {}: {}",
            self.line, self.kind, self.message
        )
    }
}

impl Error for BlifError {}
