//! The genlib cell-library frontend: parses the SIS/mockturtle `genlib`
//! format (`GATE`/`PIN`/`LATCH` statements) into an annotated
//! [`GenlibLibrary`] and converts it to the mapper's [`Library`].
//!
//! The parser keeps everything the file *declared* — the verbatim SOP
//! text, the per-pin phase/load/delay attributes, skipped sequential and
//! constant cells — alongside the *derived* structural expression, so the
//! preflight qualification analyzer can re-derive each cell's truth table
//! from the declaration and cross-check it against the converted
//! [`Cell`] and against the declared pin phases
//! (both `library.function-mismatch`).
//!
//! Supported subset:
//!
//! * `GATE <name> <area> <output>=<sop-expression>;` — expression grammar
//!   with `+`/`|` (OR), `*`/`&`/juxtaposition (AND), `!`-prefix and
//!   `'`-postfix complement, parentheses, and `CONST0`/`CONST1`;
//! * `PIN <name|*> <INV|NONINV|UNKNOWN> <input-load> <max-load>
//!   <rise-block> <rise-fanout> <fall-block> <fall-fanout>`;
//! * `LATCH` statements (and their `SEQ`/`CONTROL`/`CONSTRAINT` trailers)
//!   and constant-function gates are *skipped*, not errors: they are
//!   recorded in [`GenlibLibrary::skipped`] for the preflight pass to
//!   report, because the fundamental-mode mapper is purely combinational.
//!
//! Every malformed input produces a typed [`GenlibError`] with a 1-based
//! line number — never a panic.
//!
//! # Examples
//!
//! ```
//! // Two gates and an unusable latch. (Genlib `#` comments are also
//! // accepted; they collide with rustdoc's hidden-line marker here.)
//! let text = "
//! GATE INV 1 O=!a;            PIN a INV 1 999 0.9 0.2 0.9 0.2
//! GATE AND2 3 O=a*b;          PIN * NONINV 1 999 1.2 0.2 1.2 0.2
//! LATCH DFF 6 Q=D;            PIN D NONINV 1 999 1.0 0.1 1.0 0.1
//! ";
//! let parsed = asyncmap_genlib::parse_genlib(text, "demo").unwrap();
//! assert_eq!(parsed.cells.len(), 2);
//! assert_eq!(parsed.skipped.len(), 1);
//! let lib = parsed.to_library();
//! assert_eq!(lib.len(), 2);
//! assert_eq!(lib.cell("AND2").unwrap().area(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;

pub use parse::{parse_genlib, parse_sop};

use asyncmap_bff::Expr;
use asyncmap_cube::VarTable;
use asyncmap_library::{Cell, Library};
use std::error::Error;
use std::fmt;

/// Declared phase of a genlib input pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinPhase {
    /// The output falls when this pin rises (negative unate).
    Inv,
    /// The output rises when this pin rises (positive unate).
    NonInv,
    /// The pin is declared binate (or the file does not say).
    Unknown,
}

impl fmt::Display for PinPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PinPhase::Inv => "INV",
            PinPhase::NonInv => "NONINV",
            PinPhase::Unknown => "UNKNOWN",
        })
    }
}

/// The declared attributes of one input pin.
#[derive(Debug, Clone)]
pub struct GenlibPin {
    /// Declared phase.
    pub phase: PinPhase,
    /// Input load presented to the driving net.
    pub input_load: f64,
    /// Maximum load the pin tolerates.
    pub max_load: f64,
    /// Rise block delay.
    pub rise_block: f64,
    /// Rise fanout (load-proportional) delay.
    pub rise_fanout: f64,
    /// Fall block delay.
    pub fall_block: f64,
    /// Fall fanout (load-proportional) delay.
    pub fall_fanout: f64,
}

impl Default for GenlibPin {
    fn default() -> Self {
        GenlibPin {
            phase: PinPhase::Unknown,
            input_load: 1.0,
            max_load: 999.0,
            rise_block: 1.0,
            rise_fanout: 0.0,
            fall_block: 1.0,
            fall_fanout: 0.0,
        }
    }
}

/// One combinational gate, with both the declared text and the derived
/// structure.
#[derive(Debug, Clone)]
pub struct GenlibCell {
    /// Gate name.
    pub name: String,
    /// Declared area.
    pub area: f64,
    /// Output pin name (left-hand side of the `=`).
    pub output: String,
    /// The declared SOP expression, verbatim (trimmed).
    pub sop: String,
    /// Pin names in first-occurrence order; expression variable `i` is
    /// pin `i`.
    pub pins: VarTable,
    /// The structural expression derived from [`GenlibCell::sop`].
    pub expr: Expr,
    /// Per-pin declared attributes, aligned with [`GenlibCell::pins`].
    pub pin_attrs: Vec<GenlibPin>,
    /// 1-based line of the `GATE` statement.
    pub line: usize,
}

impl GenlibCell {
    /// The cell's worst-case declared block delay (the mapper's single
    /// intrinsic-delay number), over all pins and both edges.
    pub fn block_delay(&self) -> f64 {
        self.pin_attrs
            .iter()
            .flat_map(|p| [p.rise_block, p.fall_block])
            .fold(0.0_f64, f64::max)
    }
}

/// Why a statement was skipped rather than converted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// A `LATCH` statement: the fundamental-mode mapper is combinational.
    Latch,
    /// A gate whose function is constant (`CONST0`/`CONST1` or an
    /// expression that denotes a constant): constants are wired, not
    /// mapped.
    Constant,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SkipReason::Latch => "sequential (LATCH)",
            SkipReason::Constant => "constant function",
        })
    }
}

/// A statement the parser understood but cannot hand to the mapper.
#[derive(Debug, Clone)]
pub struct SkippedCell {
    /// Gate name.
    pub name: String,
    /// 1-based line of the statement.
    pub line: usize,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// A parsed genlib file: convertible cells plus everything the preflight
/// pass wants to cross-check or report.
#[derive(Debug, Clone)]
pub struct GenlibLibrary {
    /// Library name (the caller supplies it; genlib files carry none).
    pub name: String,
    /// The combinational gates, in file order.
    pub cells: Vec<GenlibCell>,
    /// Latch and constant gates, recorded for preflight notes.
    pub skipped: Vec<SkippedCell>,
}

impl GenlibLibrary {
    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&GenlibCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Converts to the mapper's [`Library`]. Areas and delays are clamped
    /// to a small positive floor (genlib files legitimately declare
    /// zero-area inverters; the mapper's cost model needs positive
    /// weights).
    pub fn to_library(&self) -> Library {
        const FLOOR: f64 = 1e-6;
        let mut lib = Library::new(&self.name);
        for c in &self.cells {
            lib.add(Cell::new(
                &c.name,
                c.pins.clone(),
                c.expr.clone(),
                c.area.max(FLOOR),
                c.block_delay().max(FLOOR),
            ));
        }
        lib
    }
}

/// What went wrong, machine-readably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenlibErrorKind {
    /// A statement ended (at `;`, a new keyword, or end of file) before
    /// its required fields — e.g. a truncated `GATE` or `PIN` line.
    Truncated,
    /// A numeric field (area, load, delay) did not parse.
    BadNumber,
    /// A `PIN` phase field was not `INV`, `NONINV` or `UNKNOWN`.
    BadPhase,
    /// The SOP expression is syntactically malformed.
    BadExpression,
    /// The `GATE` output assignment is missing its `=`.
    MissingAssign,
    /// A `GATE` expression was not terminated by `;`.
    MissingSemicolon,
    /// Two gates share a name.
    DuplicateGate,
    /// A `PIN` statement names a pin the expression never uses.
    UndeclaredPin,
    /// A `PIN` statement appeared before any `GATE`.
    PinBeforeGate,
    /// A token where `GATE`, `PIN` or `LATCH` was expected.
    UnknownStatement,
    /// The file declares no convertible combinational gate.
    EmptyLibrary,
}

impl fmt::Display for GenlibErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GenlibErrorKind::Truncated => "truncated statement",
            GenlibErrorKind::BadNumber => "bad numeric field",
            GenlibErrorKind::BadPhase => "bad pin phase",
            GenlibErrorKind::BadExpression => "bad SOP expression",
            GenlibErrorKind::MissingAssign => "missing `output=` assignment",
            GenlibErrorKind::MissingSemicolon => "missing `;` after expression",
            GenlibErrorKind::DuplicateGate => "duplicate gate",
            GenlibErrorKind::UndeclaredPin => "PIN names an unused pin",
            GenlibErrorKind::PinBeforeGate => "PIN before any GATE",
            GenlibErrorKind::UnknownStatement => "unknown statement",
            GenlibErrorKind::EmptyLibrary => "no combinational gates",
        })
    }
}

/// Error produced when genlib parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenlibError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Machine-readable failure class.
    pub kind: GenlibErrorKind,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for GenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "genlib parse error at line {}: {}: {}",
            self.line, self.kind, self.message
        )
    }
}

impl Error for GenlibError {}
